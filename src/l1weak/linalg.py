"""Dense linear-algebra kernels for the certificate and recovery solvers.

Everything is double-precision, row-major, and fully dense: the experiments
only ever touch dense Gaussian matrices, so no sparse or iterative machinery
is warranted.  Factorizations go through LAPACK (Householder QR, Cholesky);
this module adds the domain contracts on top — rank tolerances, null-space
extraction from the full QR of the transpose, and a cached row-space
projector — and raises :class:`RankDeficiencyError` instead of silently
regularizing, because every caller treats rank deficiency as a bug in the
input, not a condition to smooth over.

:data:`one_blas_thread` runs the solvers' dense kernels on one BLAS thread:
it pins every loaded OpenBLAS runtime to one thread for the duration of a
solve and restores the caller's thread count afterwards.
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
from scipy.linalg import cho_solve

__all__ = [
    "RankDeficiencyError",
    "NullBasis",
    "RowspaceProjector",
    "cholesky_spd",
    "nullspace_basis",
    "one_blas_thread",
]

_LOG = logging.getLogger(__name__)

#: Relative rank tolerance for pivot / diagonal tests (double precision at
#: desk scale: n up to a few thousand).
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


@dataclass(frozen=True)
class NullBasis:
    """Orthonormal basis of null(A) for an m x n matrix A with m < n.

    ``basis`` has shape (n, n - m); columns are the trailing columns of the
    full QR factorization of A^T, so A @ basis vanishes to roundoff and
    basis^T @ basis is the identity.
    """

    m: int
    n: int
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.n - self.m


def nullspace_basis(matrix) -> NullBasis:
    """Orthonormal null-space basis from the full QR of A^T (m < n required)."""
    a = _as_matrix("matrix", matrix)
    m, n = a.shape
    if m >= n:
        raise ValueError(f"null-space basis requires m < n, got shape {a.shape}")
    if m == 0:
        basis = np.eye(n)
    else:
        q_full, r_full = np.linalg.qr(a.T, mode="complete")
        diag = np.abs(np.diag(r_full[:m, :m]))
        if float(diag.min()) < RANK_RTOL * max(1.0, float(np.linalg.norm(a))):
            raise RankDeficiencyError("matrix is not full row rank to working tolerance")
        basis = q_full[:, m:]
    basis = np.ascontiguousarray(basis)
    basis.flags.writeable = False
    return NullBasis(m=m, n=n, basis=basis)


class RowspaceProjector:
    """Orthogonal projector onto range(A^T) with a cached Cholesky of AA^T.

    Callable: u -> A^T (AA^T)^{-1} A u.  Immutable after construction, so a
    single instance is safe to share across concurrent tasks.
    ``coefficients`` returns the row-combination weights nu solving
    (AA^T) nu = A u, i.e. the nu with projection(u) = A^T nu.
    """

    def __init__(self, matrix) -> None:
        a = _as_matrix("matrix", matrix)
        m, n = a.shape
        if m > n:
            raise ValueError(f"row-space projector requires m <= n, got {a.shape}")
        self._a = a.copy()
        self._a.flags.writeable = False
        self._lower = cholesky_spd(a @ a.T)
        self.m = m
        self.n = n

    def coefficients(self, u) -> np.ndarray:
        u = _as_vector("u", u, length=self.n)
        if self.m == 0:
            return np.zeros(0)
        return cho_solve((self._lower, True), self._a @ u)

    def __call__(self, u) -> np.ndarray:
        if self.m == 0:
            return np.zeros(self.n)
        return self._a.T @ self.coefficients(u)

    def project_columns(self, u) -> np.ndarray:
        """Projection of every column of an n x r matrix, from one block solve."""
        u = _as_matrix("u", u)
        if u.shape[0] != self.n:
            raise ValueError(f"u must have {self.n} rows, got shape {u.shape}")
        if self.m == 0:
            return np.zeros(u.shape)
        return self._a.T @ cho_solve((self._lower, True), self._a @ u)

    def project_with_coefficients(self, u) -> tuple[np.ndarray, np.ndarray]:
        nu = self.coefficients(u)
        if self.m == 0:
            return np.zeros(self.n), nu
        return self._a.T @ nu, nu


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
#: extra BLAS threads only spin, and pool workers each running their own
#: BLAS threads oversubscribe the cores.
one_blas_thread = _OneBlasThread()
