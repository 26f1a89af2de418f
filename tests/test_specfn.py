"""Unit tests for the inverse error function.

Frozen reference values were produced by the independent mpmath oracles in
tests/oracles.py (60-digit Taylor-series erf + bisection inverses), so the
implementation is never compared against itself.  The forward error function
is the standard library's ``math.erf``.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special

from l1weak.specfn import DomainError, erfinv

# [DERIVED] tests/oracles.py, mpmath at 60 digits, rounded to float.
ERF_ORACLE = {
    0.1: 0.1124629160182849,
    0.5: 0.52049987781304652,
    0.7: 0.67780119383741844,
    1.0: 0.84270079294971487,
    2.0: 0.99532226501895273,
    3.5: 0.99999925690162765,
}
ERFINV_ORACLE = {
    0.1: 0.088855990494257687,
    0.5: 0.47693627620446987,
    0.9: 1.1630871536766741,
    0.99: 1.8213863677184496,
}
STD_NORMAL_QUANTILE_ORACLE = {
    0.5: 0.0,
    0.975: 1.9599639845400542,
    0.10: -1.2815515655446004,
}
HALFNORMAL_QUANTILE_ORACLE = {
    0.3: 0.38532046640756762,
    0.5: 0.67448975019608174,
    0.9: 1.6448536269514726,
}


_SQRT2 = math.sqrt(2.0)


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(1e-300, abs(want))


def _halfnormal_quantile(p: float) -> float:
    """sqrt(2) erfinv(p): the general regime's t = sqrt(2) erfinv((1-theta)/(1-beta))."""
    return _SQRT2 * erfinv(p)


def _normal_quantile(p: float) -> float:
    """sqrt(2) erfinv(2p - 1): the signed regime's t, erfinv(2 (1-theta)/(1-beta) - 1)."""
    return _SQRT2 * erfinv(2.0 * p - 1.0)


class TestErf:
    """erfinv inverts the error function: the oracle's erf values and math.erf."""

    @pytest.mark.parametrize("x,want", sorted(ERF_ORACLE.items()))
    def test_frozen_values(self, x, want):
        # Rounding erf(x) to a double moves its inverse by up to
        # sqrt(pi)/2 e^(x^2) times half an ulp: 2e-11 at x = 3.5.
        conditioning = math.sqrt(math.pi) / 2.0 * math.exp(x * x) * math.ulp(want)
        assert abs(erfinv(want) - x) <= 1e-15 * x + conditioning

    @given(st.floats(min_value=-0.999999, max_value=0.999999))
    def test_odd_symmetry(self, p):
        assert erfinv(-p) == -erfinv(p)

    @given(
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=1e-6, max_value=1.0),
    )
    def test_strictly_increasing(self, x, step):
        # |x| <= 3 keeps erf'(x) >= 2/sqrt(pi)*e^-9 ~ 1.4e-4, so a 1e-6 step
        # moves erf well above one ulp of 1.0 and the inverse must follow.
        assert erfinv(math.erf(x)) < erfinv(math.erf(x + step))

    def test_range_endpoints(self):
        below_one = math.nextafter(1.0, 0.0)
        assert erfinv(0.0) == 0.0
        assert 5.0 < erfinv(below_one) < 6.0
        assert erfinv(-below_one) == -erfinv(below_one)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            erfinv(math.inf)
        with pytest.raises(DomainError):
            erfinv(-math.inf)


class TestErfinv:
    @pytest.mark.parametrize("p,want", sorted(ERFINV_ORACLE.items()))
    def test_frozen_values(self, p, want):
        assert _rel_err(erfinv(p), want) <= 1e-14

    @given(st.floats(min_value=-0.999999, max_value=0.999999))
    def test_round_trip_erf_of_erfinv(self, p):
        assert _rel_err(math.erf(erfinv(p)), p) <= 1e-13 or abs(math.erf(erfinv(p)) - p) <= 1e-16

    @given(st.floats(min_value=-3.0, max_value=3.0))
    def test_round_trip_erfinv_of_erf(self, x):
        # The inverse's conditioning is ~ sqrt(pi)/2 * e^(x^2) per unit of
        # relative input error, so one ulp of erf(x) costs up to ~1e-12 at
        # |x| = 3; the bound below is that limit with small headroom.
        assert abs(erfinv(math.erf(x)) - x) <= 5e-12

    @given(st.floats(min_value=-0.99998, max_value=0.99997))
    def test_strictly_increasing(self, p):
        assert erfinv(p) < erfinv(p + 1e-5)

    def test_odd_symmetry(self):
        for p in (0.1, 0.5, 0.9, 0.999):
            assert erfinv(-p) == -erfinv(p)

    @pytest.mark.parametrize("p", [-1.0, 1.0, 1.5, -2.0, math.nan])
    def test_domain_errors(self, p):
        with pytest.raises(DomainError):
            erfinv(p)


class TestNormalQuantiles:
    """erfinv in the two quantile forms the characterization equations evaluate."""

    @pytest.mark.parametrize("p,want", sorted(STD_NORMAL_QUANTILE_ORACLE.items()))
    def test_frozen_quantiles(self, p, want):
        got = _normal_quantile(p)
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want))

    @pytest.mark.parametrize("p,want", sorted(HALFNORMAL_QUANTILE_ORACLE.items()))
    def test_frozen_halfnormal(self, p, want):
        assert _rel_err(_halfnormal_quantile(p), want) <= 1e-14

    @given(st.floats(min_value=1e-8, max_value=1.0 - 1e-8))
    def test_quantile_inverts_cdf(self, p):
        assert abs(special.ndtr(_normal_quantile(p)) - p) <= 1e-12

    @given(st.floats(min_value=0.0, max_value=1.0 - 1e-8))
    def test_halfnormal_is_abs_value_quantile(self, p):
        # P(|Z| <= q) = erf(q / sqrt(2)) for Z standard normal.
        q = _halfnormal_quantile(p)
        assert q >= 0.0
        assert abs(math.erf(q / _SQRT2) - p) <= 1e-12

    def test_halfnormal_accepts_zero(self):
        assert _halfnormal_quantile(0.0) == 0.0

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 2.0])
    def test_quantile_domain_errors(self, p):
        # 2p - 1 leaves (-1, 1): the signed residual's domain ends.
        with pytest.raises(DomainError):
            _normal_quantile(p)

    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_halfnormal_domain_errors(self, p):
        with pytest.raises(DomainError):
            _halfnormal_quantile(p)
