"""Unit tests for the characterization equations and the threshold solver.

Frozen roots and residual spot values come from tests/oracles.py (mpmath at
60 digits, independent transcriptions with bisection), so these tests check
the float implementation against an algorithmically unrelated computation.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq

from l1weak import threshold
from l1weak.threshold import (
    BracketError,
    _bracket_interval,
    EpsilonSet,
    Regime,
    ThresholdPoint,
    alpha_bound,
    alpha_w,
    char_residual,
    solve_theta,
    threshold_curve,
)

import oracles

# [DERIVED] tests/oracles.py solve_theta_bisect, epsilon = 0.
THETA_HAT_ORACLE = {
    (Regime.GENERAL, 0.1): 0.32879350545363006,
    (Regime.GENERAL, 0.3): 0.64557229199697751,
    (Regime.GENERAL, 0.5): 0.8312999057064562,
    (Regime.GENERAL, 0.9): 0.99362023223589749,
    (Regime.SIGNED, 0.1): 0.26530432476290046,
    (Regime.SIGNED, 0.3): 0.52149019266340179,
    (Regime.SIGNED, 0.5): 0.69563129356731719,
    (Regime.SIGNED, 0.9): 0.94832369879160434,
}

# [DERIVED] tests/oracles.py char_residual_* at (theta=0.6, beta=0.3).
CHAR_SIGNED_SPOT = 0.27794000748528174
CHAR_GENERAL_SPOT = -0.11117879590793141

betas = st.floats(min_value=0.02, max_value=0.97)

# beta values and slack constants on which the single sign change of the
# residual, the property solve_theta's one Brent bracket rests on, is checked.
SIGN_CHANGE_BETAS = [0.01] + [round(0.05 * i, 2) for i in range(1, 20)] + [0.99]
SIGN_CHANGE_EPS = [0.0, 0.01, 0.0999]

# The benchmark's curve grid: both regimes and sides over these betas at
# epsilon = 0.01, 396 roots.
CURVE_BETAS = [round(0.01 * i, 2) for i in range(1, 100)]


class TestCharResidual:
    def test_frozen_spot_values(self):
        got_signed = char_residual(Regime.SIGNED, theta=0.6, beta=0.3)
        got_general = char_residual(Regime.GENERAL, theta=0.6, beta=0.3)
        assert abs(got_signed - CHAR_SIGNED_SPOT) <= 1e-14
        assert abs(got_general - CHAR_GENERAL_SPOT) <= 1e-14

    def test_sides_coincide_at_eps_zero(self):
        for regime in Regime:
            lower = char_residual(regime, 0.7, 0.3, side="lower")
            upper = char_residual(regime, 0.7, 0.3, side="upper")
            assert lower == upper

    @given(betas, st.floats(min_value=0.001, max_value=0.98))
    def test_strictly_increasing_in_theta(self, beta, frac):
        # The residual is -inf-like near the left edge of the domain and
        # positive near 1: it crosses zero once, increasing.
        regime = Regime.GENERAL
        lo = beta + 1e-6
        hi = 1.0 - 1e-9
        theta = lo + (hi - lo) * frac
        step = (hi - theta) / 2
        if step < 1e-9:
            return
        assert char_residual(regime, theta, beta) < char_residual(regime, theta + step, beta)

    def test_rejects_theta_outside_domain(self):
        with pytest.raises(ValueError):
            char_residual(Regime.GENERAL, theta=0.2, beta=0.3)
        with pytest.raises(ValueError):
            char_residual(Regime.GENERAL, theta=1.0, beta=0.3)

    def test_rejects_bad_side(self):
        with pytest.raises(ValueError):
            char_residual(Regime.GENERAL, 0.6, 0.3, side="middle")


class TestSolveTheta:
    @pytest.mark.parametrize("key,want", sorted(THETA_HAT_ORACLE.items(), key=str))
    def test_frozen_roots(self, key, want):
        regime, beta = key
        assert abs(solve_theta(regime, beta) - want) <= 1e-10

    @pytest.mark.parametrize("regime", list(Regime))
    @given(beta=betas)
    def test_root_has_tiny_residual(self, regime, beta):
        theta = solve_theta(regime, beta)
        assert abs(char_residual(regime, theta, beta)) <= 1e-10

    @given(betas, st.floats(min_value=0.005, max_value=0.02))
    def test_increasing_in_beta(self, beta, step):
        if beta + step >= 0.98:
            return
        for regime in Regime:
            assert solve_theta(regime, beta) < solve_theta(regime, beta + step)

    @given(betas)
    def test_signed_below_general(self, beta):
        # Sign knowledge weakens the failure condition, so the signed
        # threshold is strictly smaller.
        assert solve_theta(Regime.SIGNED, beta) < solve_theta(Regime.GENERAL, beta)

    @given(betas)
    def test_root_inside_open_interval(self, beta):
        for regime in Regime:
            theta = solve_theta(regime, beta)
            assert beta < theta < 1.0

    def test_epsilon_sides_bracket_the_root(self):
        eps = EpsilonSet(eps1_c=0.01, eps2_c=0.01)
        for regime in Regime:
            base = solve_theta(regime, 0.3)
            lower = solve_theta(regime, 0.3, eps=eps, side="lower")
            upper = solve_theta(regime, 0.3, eps=eps, side="upper")
            assert lower != base and upper != base
            assert min(lower, upper) < base < max(lower, upper)

    def test_rejects_bad_beta(self):
        for beta in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                solve_theta(Regime.GENERAL, beta)

    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("eps_value", SIGN_CHANGE_EPS)
    @pytest.mark.parametrize("beta", SIGN_CHANGE_BETAS)
    def test_one_sign_change_on_the_domain(self, regime, side, eps_value, beta):
        # Negative at the left end of the domain, positive at the right end,
        # one sign change on a 512-point grid between them (not necessarily
        # monotone: general/upper/eps=0.0999/beta=0.01 is not), and the
        # root lies in the grid cell where the sign changes.
        eps = EpsilonSet(eps1_c=eps_value, eps2_c=eps_value)
        lo, hi = _bracket_interval(beta, eps, side)
        grid = np.linspace(lo, hi, 512)
        values = np.array(
            [char_residual(regime, t, beta, eps_value, eps_value, side) for t in grid]
        )
        assert values[0] < 0.0 < values[-1]
        (changes,) = np.nonzero((values[:-1] < 0.0) != (values[1:] < 0.0))
        assert len(changes) == 1
        cell = changes[0]
        assert grid[cell] <= solve_theta(regime, beta, eps, side=side) <= grid[cell + 1]

    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("eps_value", SIGN_CHANGE_EPS)
    def test_root_is_brent_on_the_public_residual(self, regime, side, eps_value):
        # solve_theta runs a residual it builds once; Brent on the public
        # char_residual, with the same bracket and tolerance, must return
        # the same float, not merely a close one.
        eps = EpsilonSet(eps1_c=eps_value, eps2_c=eps_value)
        for beta in SIGN_CHANGE_BETAS:
            public = brentq(
                lambda t: char_residual(regime, t, beta, eps_value, eps_value, side),
                *_bracket_interval(beta, eps, side),
                xtol=1e-16,
            )
            assert solve_theta(regime, beta, eps, side=side) == public

    @pytest.mark.parametrize(
        ("regime", "beta", "message"),
        [
            (Regime.GENERAL, 0.99999, "no sign change of the general lower characterization"),
            (Regime.SIGNED, 0.9999999, "root solve stalled"),
            (Regime.GENERAL, 0.999999999, "empty theta domain"),
            (Regime.SIGNED, 0.999999999, "empty theta domain"),
        ],
    )
    def test_failures_near_beta_one(self, regime, beta, message):
        eps = EpsilonSet(eps1_c=0.05, eps2_c=0.05)
        with pytest.raises(BracketError, match=message):
            solve_theta(regime, beta, eps)

    def test_erfinv_calls_on_the_curve_grid(self, monkeypatch):
        # Two erfinv calls per residual evaluation: Brent's evaluations,
        # its two bracket ends among them, plus the final residual check.
        # A separate sign check that evaluates the ends again reads 10,284.
        calls = 0
        erfinv = threshold.erfinv

        def counting(p):
            nonlocal calls
            calls += 1
            return erfinv(p)

        monkeypatch.setattr(threshold, "erfinv", counting)
        eps = EpsilonSet(eps1_c=0.01, eps2_c=0.01)
        for regime in Regime:
            for side in ("lower", "upper"):
                for beta in CURVE_BETAS:
                    solve_theta(regime, beta, eps, side=side)
        assert calls == 8700


class TestEpsilonSet:
    def test_accepts_zero_default(self):
        assert EpsilonSet().is_zero()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            EpsilonSet(eps1_c=-0.01)

    def test_rejects_large(self):
        with pytest.raises(ValueError):
            EpsilonSet(eps1_g=0.1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            EpsilonSet(eps3_g=float("nan"))


class TestAlphaBound:
    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("side", ["lower", "upper"])
    @given(beta=betas)
    def test_collapses_to_theta_at_eps_zero(self, regime, side, beta):
        theta = solve_theta(regime, beta)
        bound = alpha_bound(regime, side, beta, theta)
        assert abs(bound - theta) <= 1e-9

    def test_upper_shrinks_with_eps(self):
        # The upper closed form divides by (1+eps1_m)^2 and scales the head
        # down by (1-eps1_g): positive slack can only decrease it.
        theta = solve_theta(Regime.GENERAL, 0.3)
        base = alpha_bound(Regime.GENERAL, "upper", 0.3, theta)
        slack = alpha_bound(
            Regime.GENERAL, "upper", 0.3, theta, eps=EpsilonSet(eps1_m=0.02, eps1_g=0.02)
        )
        assert slack < base

    def test_rejects_theta_outside_interval(self):
        with pytest.raises(ValueError):
            alpha_bound(Regime.GENERAL, "lower", 0.3, 0.2)

    def test_rejects_bad_side(self):
        with pytest.raises(ValueError):
            alpha_bound(Regime.GENERAL, "sideways", 0.3, 0.6)


class TestAlphaW:
    @given(betas)
    def test_point_is_consistent(self, beta):
        for regime in Regime:
            point = alpha_w(regime, beta)
            assert isinstance(point, ThresholdPoint)
            assert point.beta == beta and point.regime is regime
            assert abs(point.alpha - point.theta_hat) <= 1e-9
            assert abs(point.theta_hat - solve_theta(regime, beta)) == 0.0

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            alpha_w(Regime.GENERAL, 1.0)


class TestStatisticalDimension:
    """alpha_w against the statistical dimension of the l1 descent cone.

    tests/oracles.py evaluates f(t) = beta (1 + t^2) + c (1 - beta) E[(g - t)_+^2]
    in mpmath, a route to the threshold that shares nothing with the
    characterization equation the package solves.
    """

    @pytest.mark.parametrize("regime", list(Regime))
    def test_minimum_and_minimizer_match_alpha_w(self, regime):
        for beta in [i / 100 for i in range(1, 100)]:
            alpha = alpha_w(regime, beta).alpha
            t_star = oracles.statistical_dimension_minimizer(regime.value, beta, alpha)
            value = oracles.statistical_dimension(regime.value, beta, t_star)
            slope = oracles.statistical_dimension_slope(regime.value, beta, t_star)
            assert abs(float(value) - alpha) <= 1e-12, beta
            assert abs(float(slope)) <= 1e-12, beta


class TestThresholdCurve:
    def test_matches_pointwise_solves(self):
        grid = [0.1, 0.3, 0.5, 0.7]
        points = threshold_curve(Regime.SIGNED, grid)
        assert [p.beta for p in points] == grid
        for p in points:
            assert p.theta_hat == solve_theta(Regime.SIGNED, p.beta)

    def test_curve_is_increasing(self):
        points = threshold_curve(Regime.GENERAL, [i / 20 for i in range(1, 20)])
        alphas = [p.alpha for p in points]
        assert all(a < b for a, b in zip(alphas, alphas[1:]))

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            threshold_curve(Regime.GENERAL, [0.3, 0.2])

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            threshold_curve(Regime.GENERAL, [])

    def test_wraps_solver_failure(self):
        with pytest.raises((BracketError, ValueError)):
            threshold_curve(Regime.GENERAL, [0.5, 0.999999999])


class TestRegime:
    def test_coerce_accepts_strings(self):
        assert Regime.coerce("general") is Regime.GENERAL
        assert Regime.coerce("signed") is Regime.SIGNED
        assert Regime.coerce(Regime.SIGNED) is Regime.SIGNED

    def test_coerce_rejects_unknown(self):
        with pytest.raises(ValueError):
            Regime.coerce("complex")
