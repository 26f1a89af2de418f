"""Unit tests for the null-space certificates: tau, verdicts, witnesses."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space
from scipy.optimize import linprog, lsq_linear

from l1weak import cert as cert_module
from l1weak.cert import (
    CERTIFIED_FAILURE,
    CERTIFIED_SUCCESS,
    INCONCLUSIVE,
    Regime,
    SupportPattern,
    classify_nsp,
    construct_counterexample,
    nullspace_objective,
    tau_dual,
    verify_certificate,
)
from l1weak.threshold import alpha_w

import oracles


def _scaled_corpus(draws: int = 3000):
    """Badly scaled instances: Gaussian A with a random half of its columns times 1e-4.

    n in [3, 60), m in [1, n), k in [1, n), the regime alternating from
    general, random support and (general regime) random signs, all drawn
    from default_rng(5) in this order.
    """
    rng = np.random.default_rng(5)
    for i in range(draws):
        regime = Regime.GENERAL if i % 2 == 0 else Regime.SIGNED
        n = int(rng.integers(3, 60))
        m = int(rng.integers(1, n))
        k = int(rng.integers(1, n))
        a = rng.standard_normal((m, n))
        a[:, rng.choice(n, size=n // 2, replace=False)] *= 1e-4
        support = tuple(sorted(int(j) for j in rng.choice(n, size=k, replace=False)))
        if regime is Regime.GENERAL:
            signs = tuple(int(s) for s in rng.choice([-1, 1], size=k))
        else:
            signs = (1,) * k
        yield i, a, SupportPattern(n=n, support=support, signs=signs), regime


def _signed_failure_with_negative_head():
    """A converged signed failure and a copy whose witness dips below 0 off support.

    The copy stays a unit null vector with phi < 0: it moves along the
    null-space projection of one head coordinate until that entry is -0.05.
    """
    a, pattern = _random_instance(44, Regime.SIGNED)
    cert = tau_dual(a, pattern, Regime.SIGNED)
    assert cert.converged and cert.tau < -1e-2
    head = [j for j in range(pattern.n) if j not in pattern.support][0]
    basis = null_space(a)
    v = basis @ basis[head]
    w = cert.w_witness - (cert.w_witness[head] + 0.05) / v[head] * v
    w /= np.linalg.norm(w)
    assert w[head] < -1e-3 and float(np.abs(a @ w).max()) <= 1e-12
    tampered = dataclasses.replace(cert, w_witness=w, tau=nullspace_objective(w, pattern, Regime.SIGNED))
    assert tampered.tau < -1e-2
    return a, pattern, cert, tampered


def _random_instance(seed: int, regime: Regime, n_max: int = 24):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, n_max + 1))
    m = int(rng.integers(1, n))
    k = int(rng.integers(1, max(2, min(m + 2, n - 1))))
    a = rng.standard_normal((m, n))
    support = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
    if regime is Regime.GENERAL:
        signs = tuple(int(s) for s in rng.choice([-1, 1], size=k))
    else:
        signs = (1,) * k
    return a, SupportPattern(n=n, support=support, signs=signs)


class TestSupportPattern:
    def test_accepts_valid(self):
        p = SupportPattern(n=5, support=(3, 1), signs=(1, -1))
        assert p.k == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=1, support=(0,), signs=(1,)),  # n too small
            dict(n=4, support=(), signs=()),  # empty support
            dict(n=4, support=(0, 1, 2, 3), signs=(1, 1, 1, 1)),  # k = n
            dict(n=4, support=(0, 0), signs=(1, 1)),  # duplicate index
            dict(n=4, support=(4,), signs=(1,)),  # out of range
            dict(n=4, support=(1, 2), signs=(1,)),  # length mismatch
            dict(n=4, support=(1,), signs=(2,)),  # bad sign value
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SupportPattern(**kwargs)

    def test_from_indices_defaults_signs(self):
        p = SupportPattern.from_indices(6, [2, 4])
        assert p.signs == (1, 1)

    def test_signed_regime_rejects_negative_signs(self):
        a = np.zeros((1, 4))
        p = SupportPattern(n=4, support=(0,), signs=(-1,))
        with pytest.raises(ValueError):
            tau_dual(a, p, Regime.SIGNED)


class TestNullspaceObjective:
    def test_general_hand_value(self):
        # head {0, 1} contributes |1| + |-2| = 3, support {2} with sign -1
        # contributes -3: phi = 0.
        p = SupportPattern(n=3, support=(2,), signs=(-1,))
        assert nullspace_objective([1.0, -2.0, 3.0], p, Regime.GENERAL) == 0.0

    def test_signed_hand_value(self):
        p = SupportPattern(n=3, support=(2,), signs=(1,))
        assert nullspace_objective([1.0, 2.0, -4.0], p, Regime.SIGNED) == -1.0

    def test_general_positive_homogeneous(self):
        p = SupportPattern(n=4, support=(1, 3), signs=(1, -1))
        w = np.array([0.5, -1.5, 2.0, 1.0])
        base = nullspace_objective(w, p, Regime.GENERAL)
        assert abs(nullspace_objective(3.0 * w, p, Regime.GENERAL) - 3.0 * base) <= 1e-12


class TestTauHandCases:
    @pytest.mark.parametrize("regime", list(Regime))
    def test_empty_matrix_distance_is_one(self, regime):
        # With m = 0 the row space is {0}; the nearest point of the dual set
        # to it has exactly one unit coordinate's worth of distance.
        pattern = SupportPattern(n=2, support=(0,), signs=(1,))
        cert = tau_dual(np.zeros((0, 2)), pattern, regime)
        assert abs(cert.tau - (-1.0)) <= 1e-12
        assert cert.converged

    def test_tie_instance_is_inconclusive(self):
        # null(A) = span{(1,1)}: swapping the support coordinate onto the
        # head keeps the l1 norm equal, so tau = 0, and the only nu with
        # A_S^T nu = 1 has |A_head^T nu| = 1, so no strict dual certificate
        # exists — neither verdict can be certified.
        a = np.array([[1.0, -1.0]])
        pattern = SupportPattern(n=2, support=(0,), signs=(1,))
        cert = tau_dual(a, pattern, Regime.GENERAL)
        assert abs(cert.tau) <= 1e-9
        verdict = classify_nsp(a, pattern, Regime.GENERAL, certificate=cert)
        assert verdict.verdict == INCONCLUSIVE

    def test_signed_strict_success(self):
        # null(A) = span{(1,1,0)} and the head cone forces the ascent
        # direction: every feasible null vector strictly increases the sum.
        a = np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
        pattern = SupportPattern(n=3, support=(0,), signs=(1,))
        verdict = classify_nsp(a, pattern, Regime.SIGNED)
        assert verdict.verdict == CERTIFIED_SUCCESS
        assert abs(verdict.tau) <= 1e-9

    def test_wide_random_failure(self):
        # One measurement for 8 unknowns: failure is certain, and the
        # witness must certify it.
        rng = np.random.default_rng(5)
        a = rng.standard_normal((1, 8))
        pattern = SupportPattern(n=8, support=(2, 5), signs=(1, -1))
        cert = tau_dual(a, pattern, Regime.GENERAL)
        assert cert.tau < -0.5
        assert cert.w_witness is not None
        verdict = classify_nsp(a, pattern, Regime.GENERAL, certificate=cert)
        assert verdict.verdict == CERTIFIED_FAILURE


class TestDuality:
    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_dual_matches_primal_oracle(self, regime, seed):
        a, pattern = _random_instance(seed, regime)
        cert = tau_dual(a, pattern, regime)
        primal = oracles.tau_primal(a, pattern.support, pattern.signs, regime.value)
        assert cert.converged
        assert abs(cert.tau - primal) <= 1e-8
        assert verify_certificate(a, pattern, cert, regime).ok

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_null_space_inside_the_support(self, seed):
        # Columns 1 and 2 are +-column 0 and m = n - 2, so null(A) is
        # span{e0 - e1, e0 + e2}: it lies on the support and misses every
        # head coordinate, and tau = -||projection of 1 onto it|| = -sqrt(8/3).
        # The head rows of the null basis are roundoff: tau_dual may not
        # follow them to a runaway slack, nor the oracle read them as cone
        # constraints.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 30))
        a = rng.standard_normal((n - 2, n))
        a[:, 1] = a[:, 0]
        a[:, 2] = -a[:, 0]
        pattern = SupportPattern.from_indices(n, (0, 1, 2, n - 1))
        cert = tau_dual(a, pattern, Regime.SIGNED)
        assert cert.converged
        assert abs(cert.tau + np.sqrt(8.0 / 3.0)) <= 1e-12
        primal = oracles.tau_primal(a, pattern.support, pattern.signs, "signed")
        assert abs(primal + np.sqrt(8.0 / 3.0)) <= 1e-12
        assert verify_certificate(a, pattern, cert, Regime.SIGNED)

    @pytest.mark.parametrize("regime", list(Regime))
    def test_tau_is_nonpositive(self, regime):
        for seed in range(6, 10):
            a, pattern = _random_instance(seed, regime)
            assert tau_dual(a, pattern, regime).tau <= 1e-12
            assert oracles.tau_primal(a, pattern.support, pattern.signs, regime.value) <= 0.0

    def test_witness_value_matches_tau(self):
        a, pattern = _random_instance(12, Regime.GENERAL)
        cert = tau_dual(a, pattern, Regime.GENERAL)
        if cert.w_witness is not None:
            value = nullspace_objective(cert.w_witness, pattern, Regime.GENERAL)
            assert abs(value - cert.tau) <= 1e-8
            assert cert.gap <= 1e-8


class TestCanonicalizationInvariance:
    @pytest.mark.parametrize("regime", list(Regime))
    def test_tau_invariant_under_signed_permutation(self, regime):
        a, pattern = _random_instance(21, regime)
        rng = np.random.default_rng(99)
        perm = rng.permutation(pattern.n)
        flips = rng.choice([-1.0, 1.0], size=pattern.n)
        if regime is Regime.SIGNED:
            flips = np.ones(pattern.n)  # sign flips would break the cone
        a2 = a[:, perm] * flips[None, :]
        inverse = np.empty(pattern.n, dtype=int)
        inverse[perm] = np.arange(pattern.n)
        support2 = tuple(int(inverse[i]) for i in pattern.support)
        if regime is Regime.GENERAL:
            signs2 = tuple(
                int(s * flips[pattern.support[j]]) for j, s in enumerate(pattern.signs)
            )
        else:
            signs2 = pattern.signs
        pattern2 = SupportPattern(n=pattern.n, support=support2, signs=signs2)
        t1 = tau_dual(a, pattern, regime).tau
        t2 = tau_dual(a2, pattern2, regime).tau
        assert abs(t1 - t2) <= 1e-9

    @pytest.mark.parametrize("regime", list(Regime))
    def test_listed_support_order_does_not_matter(self, regime):
        # The solvers order the tail as the pattern lists its support, so
        # listing it reversed (signs alongside) changes only roundoff.
        for seed in range(60):
            a, pattern = _random_instance(seed, regime)
            reordered = SupportPattern(
                n=pattern.n, support=pattern.support[::-1], signs=pattern.signs[::-1]
            )
            results = []
            for p in (pattern, reordered):
                cert = tau_dual(a, p, regime)
                results.append((cert, classify_nsp(a, p, regime, certificate=cert).verdict))
            (c1, v1), (c2, v2) = results
            assert v1 == v2, seed
            assert abs(c1.tau - c2.tau) <= 1e-12, seed
            np.testing.assert_allclose(c1.z_witness, c2.z_witness, rtol=0, atol=1e-10)
            np.testing.assert_allclose(c1.nu_witness, c2.nu_witness, rtol=0, atol=1e-10)
            assert (c1.w_witness is None) == (c2.w_witness is None), seed
            if c1.w_witness is not None:
                np.testing.assert_allclose(c1.w_witness, c2.w_witness, rtol=0, atol=1e-10)


class TestVerifyCertificate:
    def _converged_failure(self):
        a, pattern = _random_instance(33, Regime.GENERAL)
        cert = tau_dual(a, pattern, Regime.GENERAL)
        assert cert.converged and cert.tau < -1e-3
        return a, pattern, cert

    def test_accepts_honest_certificate(self):
        a, pattern, cert = self._converged_failure()
        check = verify_certificate(a, pattern, cert, Regime.GENERAL)
        assert check.ok and bool(check)

    def test_rejects_unconverged(self):
        a, pattern, cert = self._converged_failure()
        broken = dataclasses.replace(cert, converged=False)
        with pytest.raises(ValueError):
            verify_certificate(a, pattern, broken, Regime.GENERAL)

    def test_detects_corrupted_witness(self):
        a, pattern, cert = self._converged_failure()
        w_bad = np.array(cert.w_witness, dtype=float)
        w_bad[0] += 0.5
        broken = dataclasses.replace(cert, w_witness=w_bad)
        check = verify_certificate(a, pattern, broken, Regime.GENERAL)
        assert not check.ok
        assert check.reason

    def test_detects_corrupted_tau(self):
        a, pattern, cert = self._converged_failure()
        broken = dataclasses.replace(cert, tau=cert.tau - 0.25)
        check = verify_certificate(a, pattern, broken, Regime.GENERAL)
        assert not check.ok

    def test_detects_corrupted_z(self):
        a, pattern, cert = self._converged_failure()
        z_bad = np.array(cert.z_witness, dtype=float)
        z_bad[:] = 2.0  # far outside the box
        broken = dataclasses.replace(cert, z_witness=z_bad)
        check = verify_certificate(a, pattern, broken, Regime.GENERAL)
        assert not check.ok

    def test_detects_wrong_nu_dimension(self):
        a, pattern, cert = self._converged_failure()
        broken = dataclasses.replace(cert, nu_witness=np.zeros(len(cert.nu_witness) + 1))
        check = verify_certificate(a, pattern, broken, Regime.GENERAL)
        assert not check.ok
        assert "dimension" in check.reason

    @pytest.mark.parametrize(
        "field,value,reason",
        [
            ("nu_witness", "nan", "nu not finite"),
            ("nu_witness", "inf", "nu not finite"),
            ("tau", "nan", "tau not finite"),
        ],
    )
    def test_rejects_non_finite_nu_and_tau(self, field, value, reason):
        # Every later test is a tolerance comparison, which NaN never exceeds.
        a, pattern, cert = self._converged_failure()
        bad = float(value)
        if field == "nu_witness":
            bad = np.full(len(cert.nu_witness), bad)
        broken = dataclasses.replace(cert, **{field: bad})
        check = verify_certificate(a, pattern, broken, Regime.GENERAL)
        assert not check.ok
        assert check.reason == reason

    @pytest.mark.parametrize("scale", [1e4, 1e-4])
    def test_null_space_test_is_relative_to_the_matrix(self, scale):
        # The same instance at another scale: the honest certificate passes,
        # and a witness tilted out of null(A) by 1e-6 fails at either scale.
        a, pattern = _random_instance(33, Regime.GENERAL)
        a = scale * a
        cert = tau_dual(a, pattern, Regime.GENERAL)
        assert cert.converged and cert.tau < -1e-3
        assert verify_certificate(a, pattern, cert, Regime.GENERAL).ok
        row = a.T @ np.ones(a.shape[0])
        w = cert.w_witness + 1e-6 * row / np.linalg.norm(row)
        broken = dataclasses.replace(cert, w_witness=w / np.linalg.norm(w))
        check = verify_certificate(a, pattern, broken, Regime.GENERAL)
        assert not check.ok and check.reason == "w not in null space"

    def test_rejects_signed_witness_negative_off_support(self):
        a, pattern, cert, tampered = _signed_failure_with_negative_head()
        assert verify_certificate(a, pattern, cert, Regime.SIGNED).ok
        check = verify_certificate(a, pattern, tampered, Regime.SIGNED)
        assert not check.ok and check.reason == "signed w negative off support"


class TestCounterexample:
    def _failure_witness(self, regime: Regime, seed: int = 44):
        for s in range(seed, seed + 60):
            a, pattern = _random_instance(s, regime)
            cert = tau_dual(a, pattern, regime)
            if cert.converged and cert.tau < -1e-2 and cert.w_witness is not None:
                if regime is Regime.SIGNED:
                    head = np.ones(pattern.n, dtype=bool)
                    head[list(pattern.support)] = False
                    if float(np.asarray(cert.w_witness)[head].min()) < -1e-10:
                        continue
                return a, pattern, cert
        raise AssertionError("no failure instance found in seed range")

    @pytest.mark.parametrize("regime", list(Regime))
    def test_counterexample_strictly_beats_x0(self, regime):
        a, pattern, cert = self._failure_witness(regime)
        x0 = construct_counterexample(cert.w_witness, pattern, regime)
        w = np.asarray(cert.w_witness, dtype=float)
        # x0 has the pattern: support signs match, off-support zero.
        off = np.ones(pattern.n, dtype=bool)
        off[list(pattern.support)] = False
        assert np.all(x0[off] == 0.0)
        for idx, sign in zip(pattern.support, pattern.signs):
            assert sign * x0[idx] > 0.0
        # Same measurements, strictly smaller l1 norm.
        assert float(np.abs(a @ (x0 + w) - a @ x0).max()) <= 1e-8
        gap = float(np.abs(x0 + w).sum() - np.abs(x0).sum())
        assert gap < -1e-3
        assert abs(gap - cert.tau) <= 1e-6

    def test_gap_identity_independent_of_witness_scale(self):
        a, pattern, cert = self._failure_witness(Regime.GENERAL)
        w = np.asarray(cert.w_witness, dtype=float)
        for scale in (1.0, 0.5, 2.0):
            x0 = construct_counterexample(scale * w, pattern, Regime.GENERAL)
            gap = float(np.abs(x0 + scale * w).sum() - np.abs(x0).sum())
            assert abs(gap - scale * cert.tau) <= 1e-6

    def test_rejects_non_failure_witness(self):
        pattern = SupportPattern(n=3, support=(0,), signs=(1,))
        with pytest.raises(ValueError):
            construct_counterexample([1.0, 1.0, 1.0], pattern, Regime.GENERAL)

    def test_signed_rejects_witness_outside_cone(self):
        pattern = SupportPattern(n=3, support=(0,), signs=(1,))
        with pytest.raises(ValueError):
            construct_counterexample([-1.0, -2.0, 0.5], pattern, Regime.SIGNED)


class TestScaleLimits:
    @pytest.mark.parametrize("operation", [tau_dual, classify_nsp])
    @pytest.mark.parametrize("m", [3, 4], ids=["square", "tall"])
    def test_rejects_m_not_below_n(self, operation, m):
        # Every operation that solves for tau needs a nontrivial null space,
        # and the error names the operation the caller reached.
        a = np.random.default_rng(m).standard_normal((m, 3))
        pattern = SupportPattern(n=3, support=(0,), signs=(1,))
        with pytest.raises(ValueError, match=rf"^{operation.__name__} requires m < n"):
            operation(a, pattern, Regime.GENERAL)


class TestClassify:
    def test_verdict_consistent_with_supplied_certificate(self):
        a, pattern = _random_instance(55, Regime.GENERAL)
        cert = tau_dual(a, pattern, Regime.GENERAL)
        v1 = classify_nsp(a, pattern, Regime.GENERAL)
        v2 = classify_nsp(a, pattern, Regime.GENERAL, certificate=cert)
        assert v1.verdict == v2.verdict
        assert v1.tau == v2.tau
        assert v1.tolerance == v2.tolerance == 1e-6

    def test_json_payload_schema(self):
        a, pattern = _random_instance(56, Regime.GENERAL)
        cert = tau_dual(a, pattern, Regime.GENERAL)
        payload = cert.json_payload("certified_failure")
        assert set(payload) == {
            "tau",
            "z",
            "nu",
            "w",
            "iterations",
            "converged",
            "gap",
            "verdict",
        }

    def test_failure_witness_is_rechecked(self):
        # Each tampered certificate keeps tau < -tol and converged; either
        # its witness or another of its claims is wrong, so the verdict must
        # fall back to inconclusive.  The last three keep a valid witness:
        # only verify_certificate's objective, box and dual-distance checks
        # catch them.
        a, pattern = _random_instance(33, Regime.GENERAL)
        cert = tau_dual(a, pattern, Regime.GENERAL)
        assert classify_nsp(a, pattern, Regime.GENERAL, certificate=cert).verdict == CERTIFIED_FAILURE
        row = a.T @ np.ones(a.shape[0])
        w = cert.w_witness + 0.1 * row / np.linalg.norm(row)
        off_null = dataclasses.replace(cert, w_witness=w / np.linalg.norm(w))
        ascent = dataclasses.replace(cert, w_witness=-cert.w_witness)
        assert nullspace_objective(ascent.w_witness, pattern, Regime.GENERAL) > 0.0
        lower_tau = dataclasses.replace(cert, tau=cert.tau - 0.25)
        double_z = dataclasses.replace(cert, z_witness=2.0 * cert.z_witness)
        double_nu = dataclasses.replace(cert, nu_witness=2.0 * cert.nu_witness)
        for broken in (off_null, ascent, lower_tau, double_z, double_nu):
            verdict = classify_nsp(a, pattern, Regime.GENERAL, certificate=broken)
            assert verdict.verdict == INCONCLUSIVE and verdict.tau == broken.tau

        a, pattern, cert, tampered = _signed_failure_with_negative_head()
        assert classify_nsp(a, pattern, Regime.SIGNED, certificate=cert).verdict == CERTIFIED_FAILURE
        tampered = dataclasses.replace(tampered, tau=cert.tau)
        assert classify_nsp(a, pattern, Regime.SIGNED, certificate=tampered).verdict == INCONCLUSIVE

    @given(st.integers(min_value=100, max_value=2**31 - 1))
    @settings(max_examples=15)
    def test_verdict_is_always_one_of_three(self, seed):
        a, pattern = _random_instance(seed, Regime.GENERAL, n_max=12)
        verdict = classify_nsp(a, pattern, Regime.GENERAL)
        assert verdict.verdict in (CERTIFIED_FAILURE, CERTIFIED_SUCCESS, INCONCLUSIVE)


def _dual_certificate_lp(a, pattern: SupportPattern, regime: Regime) -> float:
    """t* = min max_{j off S} (|a_j^T nu| or a_j^T nu) s.t. A_S^T nu = s, by HiGHS."""
    m, n = a.shape
    support = list(pattern.support)
    off = [j for j in range(n) if j not in set(support)]
    a_off = a[:, off].T
    rows = [np.hstack([a_off, -np.ones((len(off), 1))])]
    if regime is Regime.GENERAL:
        rows.append(np.hstack([-a_off, -np.ones((len(off), 1))]))
    a_ub = np.vstack(rows)
    cost = np.zeros(m + 1)
    cost[-1] = 1.0
    res = linprog(
        cost,
        A_ub=a_ub,
        b_ub=np.zeros(a_ub.shape[0]),
        A_eq=np.hstack([a[:, support].T, np.zeros((len(support), 1))]),
        b_eq=np.asarray(pattern.signs, dtype=float),
        bounds=(None, None),
        method="highs",
    )
    assert res.status == 0, res.message
    return float(res.fun)


def _success_instance(regime: Regime):
    """A strict success: general at n = 300 (m = 150, k = 10), signed from _random_instance."""
    if regime is Regime.SIGNED:
        return _random_instance(0, Regime.SIGNED)
    rng = np.random.default_rng(300)
    n, m, k = 300, 150, 10
    a = rng.standard_normal((m, n))
    support = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
    signs = tuple(int(s) for s in rng.choice([-1, 1], size=k))
    return a, SupportPattern(n=n, support=support, signs=signs)


class TestStrictDualCertificate:
    def test_success_above_former_size_cap(self):
        # n = 300 lies above the n <= 200 cap of the former sphere oracle.
        a, pattern = _success_instance(Regime.GENERAL)
        verdict = classify_nsp(a, pattern, Regime.GENERAL)
        assert verdict.verdict == CERTIFIED_SUCCESS
        assert _dual_certificate_lp(a, pattern, Regime.GENERAL) < 1.0

    @pytest.mark.parametrize("regime", list(Regime))
    def test_success_certificate_makes_no_nnls_call(self, monkeypatch, regime):
        # The tau certificate's z solves the strict certificate's box problem
        # with the tail at the signs instead of signs / (1 - tol), so its
        # slack seeds that solve and no compiled NNLS seed is needed.
        a, pattern = _success_instance(regime)
        cert = tau_dual(a, pattern, regime)
        assert cert.converged
        calls = []
        nnls = cert_module._nnls

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return nnls(*args, **kwargs)

        monkeypatch.setattr(cert_module, "_nnls", counting)
        verdict = classify_nsp(a, pattern, regime, certificate=cert)
        assert verdict.verdict == CERTIFIED_SUCCESS and calls == []
        assert _dual_certificate_lp(a, pattern, regime) < 1.0

    @pytest.mark.parametrize("regime", list(Regime))
    def test_anchor_start_gives_the_same_verdict(self, regime):
        # The anchor (head at +1, tail at the signs) has zero slack, the
        # start an unconverged certificate hands over: the seed sets the
        # speed of the strict solve, never its answer.
        a, pattern = _success_instance(regime)
        cert = tau_dual(a, pattern, regime)
        anchor = np.ones(pattern.n)
        anchor[list(pattern.support)] = pattern.signs
        anchored = dataclasses.replace(cert, z_witness=anchor)
        assert classify_nsp(a, pattern, regime, certificate=anchored).verdict == CERTIFIED_SUCCESS

    @pytest.mark.parametrize(
        "corrupt",
        [lambda z: z[:-1], lambda z: np.where(np.arange(z.size) == 0, np.nan, z)],
        ids=["short", "nan"],
    )
    def test_malformed_success_z_is_refused(self, corrupt):
        # On a tau = 0 instance the supplied z seeds the strict solve, so it
        # is read as verify_certificate reads it: a finite length-n vector.
        a, pattern = _success_instance(Regime.SIGNED)
        cert = tau_dual(a, pattern, Regime.SIGNED)
        assert abs(cert.tau) <= 1e-6
        broken = dataclasses.replace(cert, z_witness=corrupt(cert.z_witness))
        with pytest.raises(ValueError, match="^z_witness"):
            classify_nsp(a, pattern, Regime.SIGNED, certificate=broken)

    @pytest.mark.parametrize("regime", list(Regime))
    def test_repeated_support_column_is_never_success(self, regime):
        # Columns 0 and 1 coincide, so A_S is not injective: e_0 - e_1 is a
        # null vector on which the functional vanishes (a tie, tau = 0).
        rng = np.random.default_rng(8)
        a = rng.standard_normal((7, 8))
        a[:, 1] = a[:, 0]
        pattern = SupportPattern(n=8, support=(0, 1), signs=(1, 1))
        verdict = classify_nsp(a, pattern, regime)
        assert verdict.verdict == INCONCLUSIVE

    @pytest.mark.parametrize(
        ("regime", "seeds"),
        [(Regime.GENERAL, (2, 33)), (Regime.SIGNED, (2,))],
        ids=["general", "signed"],
    )
    def test_unfinished_exact_solve_is_inconclusive(self, monkeypatch, regime, seeds):
        # Seed 2 has tau = 0 and seed 33 (general) is a failure.  When the
        # slack refinement gives up there is no second route: the anchor
        # point is reported unconverged and the verdict is inconclusive.
        monkeypatch.setattr(cert_module, "_dual_slack_exact", lambda *args: None)
        for seed in seeds:
            a, pattern = _random_instance(seed, regime)
            cert = tau_dual(a, pattern, regime)
            assert not cert.converged and cert.iterations == 0
            with pytest.raises(ValueError):
                verify_certificate(a, pattern, cert, regime)
            verdict = classify_nsp(a, pattern, regime, certificate=cert)
            assert verdict.verdict == INCONCLUSIVE

    def test_runaway_signed_head_is_never_a_converged_wrong_tau(self):
        # With a projector built from the Cholesky factor of AA^T the exact
        # slack ran away to z_head of about -4e11 here.  Through the QR of
        # A^T it is a clear failure at tau = -1/sqrt(3).
        a = np.array(
            [
                [0, 0, 0, 1, 0, -1, -1, 1, 1],
                [0, 1, 1, 0, 0, 0, 0, 0, -1],
                [-1, 1, -1, -1, 1, 1, 1, 0, 1],
                [-1, 0, 1, -1, -1, 1, 0, -1, 0],
                [-1, -1, 1, -1, 1, 0, 0, 1, -1],
                [1, 1, 0, 1, 1, 1, 0, 1, -1],
                [1, 1, -1, 0, 1, 0, 1, 0, -1],
            ],
            dtype=float,
        )
        pattern = SupportPattern.from_indices(9, (2, 4, 5, 6, 7))
        cert = tau_dual(a, pattern, Regime.SIGNED)
        assert cert.converged
        assert abs(cert.tau + 1.0 / np.sqrt(3.0)) <= 1e-12
        primal = oracles.tau_primal(a, pattern.support, pattern.signs, "signed")
        assert abs(cert.tau - primal) <= 1e-8
        assert verify_certificate(a, pattern, cert, Regime.SIGNED)
        verdict = classify_nsp(a, pattern, Regime.SIGNED, certificate=cert)
        assert verdict.verdict == CERTIFIED_FAILURE

    def test_scaled_corpus_verdicts_are_right_and_verify(self):
        # Half the columns at 1e-4 square to a 1e8 spread in AA^T; every
        # conclusive verdict must still match the primal oracle and re-check.
        inconclusive = []
        for i, a, pattern, regime in _scaled_corpus():
            cert = tau_dual(a, pattern, regime)
            verdict = classify_nsp(a, pattern, regime, certificate=cert).verdict
            if verdict == INCONCLUSIVE:
                inconclusive.append(i)
                continue
            oracle = oracles.tau_primal(a, pattern.support, pattern.signs, regime.value)
            assert (verdict == CERTIFIED_FAILURE) == (oracle < -1e-6), (i, verdict, cert.tau, oracle)
            check = verify_certificate(a, pattern, cert, regime)
            assert check, (i, check.reason)
        assert len(inconclusive) < 10, inconclusive

    @pytest.mark.parametrize("draw", [1593, 2385, 2907])
    def test_signed_witness_roundoff_is_clipped(self, draw):
        # z_head near -1.6e4 on the 1e-4-scaled columns leaves w with
        # off-support entries of about -5e-10, past the signed cone tolerance,
        # although w >= 0 there by KKT; the clipped witness certifies failure.
        _, a, pattern, regime = next(itertools.islice(_scaled_corpus(draw + 1), draw, None))
        assert regime is Regime.SIGNED
        cert = tau_dual(a, pattern, regime)
        assert cert.converged and cert.tau < -1e-3
        assert classify_nsp(a, pattern, regime, certificate=cert).verdict == CERTIFIED_FAILURE
        check = verify_certificate(a, pattern, cert, regime)
        assert check, check.reason
        primal = oracles.tau_primal(a, pattern.support, pattern.signs, regime.value)
        assert abs(cert.tau - primal) <= 1e-8

    @pytest.mark.parametrize(
        ("seed", "offset", "expected"),
        [(200, -0.08, CERTIFIED_FAILURE), (201, 0.08, CERTIFIED_SUCCESS)],
    )
    def test_exact_slack_solve_matches_bvls_at_n200(self, seed, offset, expected):
        # General regime near the weak threshold: the slack distance must match
        # SciPy's BVLS on the same box problem, written over an orthonormal
        # null-space basis N of A in A's own columns (||Q v|| = ||N^T v||).
        n, k = 200, 50
        m = int(round((alpha_w(Regime.GENERAL, k / n).alpha + offset) * n))
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, n))
        support = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        signs = tuple(int(s) for s in rng.choice([-1, 1], size=k))
        pattern = SupportPattern(n=n, support=support, signs=signs)
        cert = tau_dual(a, pattern, Regime.GENERAL)
        assert cert.converged and cert.iterations == 0

        basis = null_space(a)
        head = np.setdiff1d(np.arange(n), support)
        anchor = np.ones(n)
        anchor[list(support)] = signs
        oracle = lsq_linear(basis[head].T, basis.T @ anchor, bounds=(0.0, 2.0), method="bvls")
        distance = float(np.linalg.norm(basis[head].T @ oracle.x - basis.T @ anchor))
        assert abs(cert.tau + distance) <= 1e-10

        verdict = classify_nsp(a, pattern, Regime.GENERAL, certificate=cert).verdict
        assert verdict == expected
        lp_peak = _dual_certificate_lp(a, pattern, Regime.GENERAL)
        assert (verdict == CERTIFIED_SUCCESS) == (lp_peak < 1.0)


class TestBoxLsq:
    @pytest.mark.parametrize("upper", [2.0, np.inf], ids=["box", "nonnegative"])
    def test_matches_bvls_on_orthonormal_blocks(self, upper):
        # _box_lsq takes a block of rows of an orthonormal basis, transposed,
        # as the slack and cone solves pass it; its residual must be as small
        # as SciPy's BVLS on the same bounds.
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 40))
            basis = np.linalg.qr(rng.standard_normal((n, int(rng.integers(1, n)))))[0]
            system = basis[: int(rng.integers(1, n))].T
            target = basis.T @ rng.choice([-1.0, 1.0], size=n)
            s = cert_module._box_lsq(system, target, upper)
            assert s is not None, seed
            assert s.min() >= 0.0 and s.max() <= upper, seed
            oracle = lsq_linear(system, target, bounds=(0.0, upper), method="bvls")
            residual = float(np.linalg.norm(system @ s - target))
            assert residual <= float(np.linalg.norm(system @ oracle.x - target)) + 1e-12, seed

    def test_nnls_never_sees_an_empty_shape(self, monkeypatch):
        # SciPy's nnls aborts the process on an m x 0 matrix and returns
        # uninitialized memory on a 0 x n one; k < n keeps both out of reach.
        shapes = []
        nnls = cert_module._nnls

        def guarded(matrix, rhs, *args, **kwargs):
            assert min(matrix.shape) > 0, matrix.shape
            shapes.append(matrix.shape)
            return nnls(matrix, rhs, *args, **kwargs)

        monkeypatch.setattr(cert_module, "_nnls", guarded)
        rng = np.random.default_rng(6)
        for regime, n in itertools.product(Regime, range(2, 7)):
            for m, k in itertools.product(range(n), range(1, n)):
                a = rng.standard_normal((m, n))
                support = tuple(sorted(int(j) for j in rng.choice(n, size=k, replace=False)))
                signs = (1,) * k
                if regime is Regime.GENERAL:
                    signs = tuple(int(s) for s in rng.choice([-1, 1], size=k))
                pattern = SupportPattern(n=n, support=support, signs=signs)
                cert = tau_dual(a, pattern, regime)
                classify_nsp(a, pattern, regime, certificate=cert)
        assert len(shapes) == 2 * sum(n * (n - 1) for n in range(2, 7))
