"""Unit tests for the dense linear-algebra layer."""

from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given
from hypothesis import strategies as st

from l1weak import cert, linalg, recovery
from l1weak.cert import SupportPattern, classify_nsp, tau_dual, tau_primal_oracle
from l1weak.linalg import (
    RankDeficiencyError,
    RowspaceProjector,
    cholesky_spd,
    nullspace_basis,
    one_blas_thread,
)
from l1weak.recovery import BPProblem, solve_bp


def _random_matrix(seed: int, m: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((m, n))


dims = st.tuples(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**31 - 1),
)

# Shapes with a nontrivial null space need m < n, hence n >= 2.
wide_dims = st.tuples(
    st.integers(min_value=1, max_value=11),
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=2**31 - 1),
)


class TestCholesky:
    def test_hand_case(self):
        a = np.array([[4.0, 2.0], [2.0, 2.0]])
        expected = np.array([[2.0, 0.0], [1.0, 1.0]])
        np.testing.assert_allclose(cholesky_spd(a), expected, atol=1e-15)

    @given(dims)
    def test_reconstructs_gram_matrix(self, dims_seed):
        m, n, seed = dims_seed
        b = _random_matrix(seed, max(m, n) + 2, m)
        gram = b.T @ b
        low = cholesky_spd(gram)
        assert np.allclose(low, np.tril(low))
        assert (np.diag(low) > 0).all()
        np.testing.assert_allclose(low @ low.T, gram, atol=1e-10 * max(1.0, abs(gram).max()))

    def test_rejects_singular(self):
        with pytest.raises(RankDeficiencyError):
            cholesky_spd(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(RankDeficiencyError):
            cholesky_spd(np.array([[1.0, 0.0], [0.0, -1.0]]))


class TestNullspace:
    @given(wide_dims)
    def test_orthonormal_annihilated_complete(self, dims_seed):
        m, n, seed = dims_seed
        if m >= n:  # need a nontrivial null space with full row rank
            m = max(1, n - 1)
        a = _random_matrix(seed, m, n)
        basis = nullspace_basis(a)
        assert basis.shape == (n, n - m)
        np.testing.assert_allclose(basis.T @ basis, np.eye(n - m), atol=1e-12)
        assert float(np.abs(a @ basis).max()) <= 1e-10 * max(1.0, float(np.abs(a).max()))

    def test_empty_matrix_gives_identity(self):
        basis = nullspace_basis(np.zeros((0, 4)))
        assert basis.shape == (4, 4)
        np.testing.assert_allclose(basis @ basis.T, np.eye(4), atol=1e-14)

    def test_rejects_row_rank_deficient(self):
        a = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        with pytest.raises(RankDeficiencyError):
            nullspace_basis(a)

    @pytest.mark.parametrize("scale", [1e-13, 1e13])
    def test_rank_rule_is_scale_free(self, scale):
        # The rank rule compares R's diagonal with ||A||_F, so scaling A
        # changes neither the verdict nor the basis.
        a = _random_matrix(4, 3, 7)
        np.testing.assert_allclose(nullspace_basis(scale * a), nullspace_basis(a), atol=1e-12)
        deficient = np.vstack([a, a[0]])
        with pytest.raises(RankDeficiencyError):
            nullspace_basis(scale * deficient)


class TestRowspaceProjector:
    @given(wide_dims)
    def test_projection_identities(self, dims_seed):
        m, n, seed = dims_seed
        if m >= n:
            m = max(1, n - 1)
        a = _random_matrix(seed, m, n)
        proj = RowspaceProjector(a)
        u = _random_matrix(seed + 7, n, 1).ravel()
        pu = proj(u)
        scale = max(1.0, float(np.abs(u).max()))
        # Idempotent, symmetric in the inner product, fixes the row space.
        np.testing.assert_allclose(proj(pu), pu, atol=1e-10 * scale)
        row_vec = a.T @ _random_matrix(seed + 8, m, 1).ravel()
        np.testing.assert_allclose(
            proj(row_vec), row_vec, atol=1e-10 * max(1.0, float(np.abs(row_vec).max()))
        )
        # The residual is orthogonal to every row.
        assert float(np.abs(a @ (u - pu)).max()) <= 1e-10 * scale

    @given(wide_dims)
    def test_coefficients_reproduce_projection(self, dims_seed):
        m, n, seed = dims_seed
        if m >= n:
            m = max(1, n - 1)
        a = _random_matrix(seed, m, n)
        proj = RowspaceProjector(a)
        u = _random_matrix(seed + 9, n, 1).ravel()
        pu, nu = proj.project_with_coefficients(u)
        assert nu.shape == (m,)
        np.testing.assert_allclose(a.T @ nu, pu, atol=1e-10 * max(1.0, float(np.abs(u).max())))

    def test_empty_matrix_is_zero_map(self):
        proj = RowspaceProjector(np.zeros((0, 3)))
        u = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(proj(u), np.zeros(3), atol=0.0)
        pu, nu = proj.project_with_coefficients(u)
        assert nu.shape == (0,)

    def test_rejects_singular_square(self):
        with pytest.raises(RankDeficiencyError):
            RowspaceProjector(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_complementary_to_nullspace(self):
        a = _random_matrix(3, 4, 9)
        proj = RowspaceProjector(a)
        basis = nullspace_basis(a)
        u = _random_matrix(11, 9, 1).ravel()
        residual = u - proj(u)
        # u - Pu lies in null(A): expanding it in the null basis recovers it.
        np.testing.assert_allclose(basis @ (basis.T @ residual), residual, atol=1e-10)


def _thread_counts() -> list[int]:
    return [rt.get_num_threads() for rt in linalg._blas_runtimes()]


class TestOneBlasThread:
    def test_pins_inside_and_restores_after(self, blas_outer_counts):
        with one_blas_thread:
            assert _thread_counts() == [1] * len(blas_outer_counts)
        assert _thread_counts() == blas_outer_counts

    def test_restores_when_body_raises(self, blas_outer_counts):
        with pytest.raises(RuntimeError, match="body"):
            with one_blas_thread:
                raise RuntimeError("body")
        assert _thread_counts() == blas_outer_counts

    def test_nested_scopes_restore_the_outer_count(self, blas_outer_counts):
        with one_blas_thread:
            with one_blas_thread:
                assert _thread_counts() == [1] * len(blas_outer_counts)
            assert _thread_counts() == [1] * len(blas_outer_counts)
        assert _thread_counts() == blas_outer_counts

    def test_no_runtime_is_a_no_op(self, blas_outer_counts, monkeypatch):
        runtimes = linalg._blas_runtimes()
        monkeypatch.setattr(linalg, "_blas_runtimes", lambda: ())
        with one_blas_thread:
            assert [rt.get_num_threads() for rt in runtimes] == blas_outer_counts

    def test_finds_the_wheel_runtimes(self):
        wheel_libraries = [
            lib.resolve()
            for package in (np, scipy)
            for lib in Path(package.__file__).parent.parent.glob(f"{package.__name__}.libs/*openblas*")
        ]
        if not wheel_libraries:
            pytest.skip("NumPy and SciPy do not ship wheel OpenBLAS libraries here")
        found = {Path(rt.path).resolve() for rt in linalg._blas_runtimes()}
        assert set(wheel_libraries) <= found


def _pinned_solver_cases():
    """(solver call, module, name of a function the solver body calls)."""
    rng = np.random.default_rng(5)
    a = rng.standard_normal((8, 12))
    pattern = SupportPattern(n=12, support=(4,), signs=(-1,))
    x0 = np.zeros(12)
    x0[4] = -1.0
    return {
        "solve_bp": (lambda: solve_bp(BPProblem(A=a, y=a @ x0)), recovery, "cholesky_spd"),
        "tau_dual": (lambda: tau_dual(a, pattern), cert, "_dual_slack_exact"),
        "classify_nsp": (lambda: classify_nsp(a, pattern), cert, "_strict_dual_certificate"),
        "tau_primal_oracle": (lambda: tau_primal_oracle(a, pattern), cert, "nullspace_basis"),
    }


class TestSolversRunPinned:
    @pytest.mark.parametrize("solver", sorted(_pinned_solver_cases()))
    def test_body_runs_on_one_thread(self, blas_outer_counts, monkeypatch, solver):
        call, module, name = _pinned_solver_cases()[solver]
        inner = getattr(module, name)
        seen = []

        def recording(*args, **kwargs):
            seen.append(_thread_counts())
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)
        call()
        assert seen and all(counts == [1] * len(blas_outer_counts) for counts in seen)
        assert _thread_counts() == blas_outer_counts

    @pytest.mark.parametrize("solver", sorted(_pinned_solver_cases()))
    def test_count_restored_when_solver_raises(self, blas_outer_counts, monkeypatch, solver):
        call, module, name = _pinned_solver_cases()[solver]

        def failing(*args, **kwargs):
            raise RankDeficiencyError("injected")

        monkeypatch.setattr(module, name, failing)
        with pytest.raises(RankDeficiencyError, match="injected"):
            call()
        assert _thread_counts() == blas_outer_counts
