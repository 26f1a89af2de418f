"""Dense linear-algebra kernels for the certificate and recovery solvers.

Everything is double-precision, row-major, and fully dense: the experiments
only ever touch dense Gaussian matrices, so no sparse or iterative machinery
is warranted.  Factorizations go through LAPACK (Householder QR, Cholesky);
this module adds the domain contracts on top.  A^T is factored in one place,
:class:`RowspaceProjector`: one complete QR gives the row-space projection,
its row weights and the null-space basis that :func:`nullspace_basis`
returns, with one rank rule on R's diagonal.  :func:`cholesky_spd` factors
Gram matrices only where their conditioning is the caller's to accept (the
Monte Carlo solver's AA^T, a support's A_S^T A_S).  Both raise
:class:`RankDeficiencyError` instead of silently regularizing, because every
caller treats rank deficiency as a bug in the input, not a condition to
smooth over.

:data:`one_blas_thread` runs the solvers' dense kernels on one BLAS thread:
it pins every loaded OpenBLAS runtime to one thread while a solve (or a
whole phase grid) runs and restores the caller's thread count afterwards.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import logging
import os
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import solve_triangular

__all__ = [
    "RankDeficiencyError",
    "RowspaceProjector",
    "cholesky_spd",
    "nullspace_basis",
    "one_blas_thread",
]

_LOG = logging.getLogger(__name__)

#: Relative rank tolerance on the pivots of a Gram matrix: diag(L)^2 in
#: cholesky_spd, R_ii^2 of AA^T = R^T R in RowspaceProjector (double
#: precision at desk scale: n up to a few thousand).
RANK_RTOL = 1e-12


class RankDeficiencyError(ValueError):
    """A factorization met a pivot below the relative rank tolerance."""


def _as_matrix(name: str, a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _as_vector(name: str, v, length: int | None = None) -> np.ndarray:
    v = np.asarray(v, dtype=float).ravel()
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    if length is not None and v.size != length:
        raise ValueError(f"{name} must have length {length}, got {v.size}")
    return v


def cholesky_spd(matrix) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix.

    The positivity test is relative: any pivot diag(L)^2 below
    RANK_RTOL * trace(S) / m is a rank-deficiency error, even if LAPACK
    happened to complete the factorization.
    """
    s = _as_matrix("matrix", matrix)
    m = s.shape[0]
    if s.shape[0] != s.shape[1]:
        raise ValueError(f"matrix must be square, got {s.shape}")
    if m == 0:
        return np.zeros((0, 0))
    scale = max(1.0, float(np.abs(s).max()))
    if float(np.abs(s - s.T).max()) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric within 1e-12")
    try:
        lower = np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError(f"matrix is not positive definite: {exc}") from exc
    pivots = np.diag(lower) ** 2
    threshold = RANK_RTOL * float(np.trace(s)) / m
    if float(pivots.min()) < threshold:
        raise RankDeficiencyError(
            f"pivot {pivots.min():.3e} below relative tolerance {threshold:.3e}"
        )
    return lower


def nullspace_basis(matrix) -> np.ndarray:
    """Orthonormal null-space basis N from :class:`RowspaceProjector` (m < n required).

    N has shape (n, n - m): the trailing columns of the complete QR of A^T,
    so A @ N vanishes to roundoff and N^T N is the identity.  Read-only.
    """
    a = _as_matrix("matrix", matrix)
    m, n = a.shape
    if m >= n:
        raise ValueError(f"null-space basis requires m < n, got shape {a.shape}")
    return RowspaceProjector(a)._null


class RowspaceProjector:
    """Orthogonal projector onto range(A^T) from one complete QR of A^T.

    A^T = [Q1 | N] [R; 0] with Q1 (n x m) and N (n x (n - m)) orthonormal
    and R upper triangular.  This is the package's one factorization of A^T
    and its one rank rule: AA^T = R^T R, so the R_ii^2 are the pivots of
    AA^T, and the constructor raises :class:`RankDeficiencyError` unless
    each exceeds RANK_RTOL * ||A||_F^2 / m (the test :func:`cholesky_spd`
    makes on the same pivots).  Q1 gives the projection u -> Q1 Q1^T u; R
    gives the row weights nu with projection(u) = A^T nu from
    R nu = Q1^T u, without forming AA^T, whose condition number is the
    square of A's; N (``_null``) is the null-space basis that
    :func:`nullspace_basis` returns and the certificate solvers work in.
    Immutable after construction, so a single instance is safe to share
    across concurrent tasks.
    """

    def __init__(self, matrix) -> None:
        a = _as_matrix("matrix", matrix)
        m, n = a.shape
        if m > n:
            raise ValueError(f"row-space projector requires m <= n, got {a.shape}")
        q, r = np.linalg.qr(a.T, mode="complete")
        self._r = r[:m]
        pivots = np.diag(self._r) ** 2
        if m and float(pivots.min()) <= RANK_RTOL * float(np.sum(a * a)) / m:
            raise RankDeficiencyError("matrix is not full row rank to working tolerance")
        self._range = q[:, :m]
        self._null = np.ascontiguousarray(q[:, m:])
        for factor in (self._r, self._range, self._null):
            factor.flags.writeable = False
        self.m = m
        self.n = n

    def coefficients(self, u) -> np.ndarray:
        u = _as_vector("u", u, length=self.n)
        return solve_triangular(self._r, self._range.T @ u)

    def __call__(self, u) -> np.ndarray:
        u = _as_vector("u", u, length=self.n)
        return self._range @ (self._range.T @ u)

    def project_with_coefficients(self, u) -> tuple[np.ndarray, np.ndarray]:
        u = _as_vector("u", u, length=self.n)
        weights = self._range.T @ u
        return self._range @ weights, solve_triangular(self._r, weights)


#: (getter, setter) symbol pairs of an OpenBLAS runtime: NumPy's wheel build
#: (64-bit integers, suffixed names), SciPy's wheel build, a system OpenBLAS.
#: ``openblas_set_num_threads_local`` is not used: despite its name it sets
#: the process-wide count in the builds these wheels ship.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@dataclass(frozen=True)
class _BlasRuntime:
    path: str
    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]


def _mapped_blas_libraries() -> list[str]:
    """Shared objects mapped into this process with "blas" in their name.

    Libraries named "openblas" come first, so a runtime reached through a
    wrapper module that links it is recorded under its own path.
    """
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return []
    paths = {f[5].rstrip("\n") for f in fields if len(f) == 6}
    names = {p: os.path.basename(p).lower() for p in paths}
    return sorted((p for p in paths if "blas" in names[p]), key=lambda p: ("openblas" not in names[p], p))


@functools.cache
def _blas_runtimes() -> tuple[_BlasRuntime, ...]:
    """The OpenBLAS runtimes loaded in this process, looked up once.

    Each library is opened without loading anything new (RTLD_NOLOAD), and a
    runtime reached through several libraries is kept once, by the address
    of its getter.
    """
    runtimes: list[_BlasRuntime] = []
    seen: set[int] = set()
    for path in _mapped_blas_libraries():
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            try:
                getter, setter = getattr(lib, get_name), getattr(lib, set_name)
            except AttributeError:
                continue
            address = ctypes.cast(getter, ctypes.c_void_p).value
            if address not in seen:
                seen.add(address)
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                runtimes.append(_BlasRuntime(path, getter, setter))
            break
    if not runtimes:
        _LOG.debug("no OpenBLAS runtime found; BLAS thread counts are left alone")
    return tuple(runtimes)


class _OneBlasThread(contextlib.ContextDecorator):
    """Pin every OpenBLAS runtime to one thread while any scope is open.

    The thread count is process state, so the pin is too: the first scope
    entered (in any thread) saves each runtime's count and sets it to 1, and
    the last scope left restores the saved counts, also when the body
    raises.  Nested scopes cost one counter update.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._saved: list[tuple[_BlasRuntime, int]] = []

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0:
                self._saved = [(rt, rt.get_num_threads()) for rt in _blas_runtimes()]
                for rt, _ in self._saved:
                    rt.set_num_threads(1)
            self._depth += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for rt, count in self._saved:
                    rt.set_num_threads(count)


#: Context manager and decorator: ``with one_blas_thread:`` or
#: ``@one_blas_thread``.  The solvers' kernels are matrix-vector sized, where
#: extra BLAS threads only spin.  A pool must fork inside a scope, as
#: ``run_phase_grid``'s pool does, for its workers to inherit the pin: a
#: worker forked outside one gets the caller's counts back after every solve
#: and starts BLAS threads of its own.
one_blas_thread = _OneBlasThread()
