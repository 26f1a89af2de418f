"""Scalar special functions: the error function, its inverse, and normal quantiles.

Every threshold formula in this package is built from ``erf``/``erfinv``, so
these are kept scalar, explicit about their domains, and accurate to near
machine precision.  ``erf`` defers to the C library (correctly rounded) and
``erfinv`` to ``scipy.special.erfinv``; this module adds only the domain
contracts.

Domain endpoints raise :class:`DomainError` instead of saturating: the root
solvers upstream rely on hard failures to detect degenerate brackets, and a
silently clamped quantile would mask exactly the bugs they need to see.
"""

from __future__ import annotations

import math

from scipy import special

__all__ = [
    "DomainError",
    "erf",
    "erfinv",
    "std_normal_cdf",
    "std_normal_quantile",
    "halfnormal_quantile",
]

_SQRT2 = math.sqrt(2.0)


class DomainError(ValueError):
    """Argument outside the mathematical domain of a special function."""


def _require_finite(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} requires a finite argument, got {x!r}")
    return x


def erf(x: float) -> float:
    """Error function, relative error <= 1e-15 over |x| <= 6, odd and monotone."""
    return math.erf(_require_finite("erf", x))


def erfinv(p: float) -> float:
    """Inverse error function on the open interval -1 < p < 1 (SciPy's)."""
    p = _require_finite("erfinv", p)
    if abs(p) >= 1.0:
        raise DomainError(f"erfinv requires -1 < p < 1, got {p!r}")
    return float(special.erfinv(p))


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF: Phi(x) = (1 + erf(x / sqrt(2))) / 2."""
    return 0.5 * (1.0 + erf(_require_finite("std_normal_cdf", x) / _SQRT2))


def std_normal_quantile(p: float) -> float:
    """Standard normal quantile on the open interval 0 < p < 1.

    Round trips with :func:`std_normal_cdf` to 1e-12.  p in {0, 1} is a hard
    error; p so close to an endpoint that 2p - 1 rounds to +/-1 (p below
    ~1e-17) degenerates the same way and is reported as the same error.
    """
    p = _require_finite("std_normal_quantile", p)
    if not 0.0 < p < 1.0:
        raise DomainError(f"std_normal_quantile requires 0 < p < 1, got {p!r}")
    return _SQRT2 * erfinv(2.0 * p - 1.0)


def halfnormal_quantile(p: float) -> float:
    """Quantile of |X| for standard normal X: sqrt(2) * erfinv(p), 0 <= p < 1."""
    p = _require_finite("halfnormal_quantile", p)
    if not 0.0 <= p < 1.0:
        raise DomainError(f"halfnormal_quantile requires 0 <= p < 1, got {p!r}")
    return _SQRT2 * erfinv(p)
