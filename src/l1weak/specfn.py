"""The inverse error function with an explicit domain contract.

Every threshold formula in this package is built from ``erfinv``, which
defers to ``scipy.special.erfinv``; this module adds only the domain
contract.

Domain endpoints raise :class:`DomainError` instead of saturating: the root
solvers upstream rely on hard failures to detect degenerate brackets, and a
silently clamped value would mask exactly the bugs they need to see.
"""

from __future__ import annotations

import math

from scipy import special

__all__ = ["DomainError", "erfinv"]


class DomainError(ValueError):
    """Argument outside the mathematical domain of a special function."""


def erfinv(p: float) -> float:
    """Inverse error function on the open interval -1 < p < 1 (SciPy's)."""
    p = float(p)
    if not math.isfinite(p):
        raise DomainError(f"erfinv requires a finite argument, got {p!r}")
    if abs(p) >= 1.0:
        raise DomainError(f"erfinv requires -1 < p < 1, got {p!r}")
    return float(special.erfinv(p))
