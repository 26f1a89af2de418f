"""Weak-threshold curves for l1 minimization: characterization equations and bounds.

For a proportional regime k = beta*n, m = alpha*n, the asymptotic success of
l1 recovery flips at a weak threshold alpha_w(beta).  This module solves the
scalar characterization equation whose root theta_hat determines that
threshold, for two regimes:

- ``general``: signs of the sparse vector unknown to the solver;
- ``signed``: the sparse vector is known a priori to be nonnegative.

The epsilon-free ("fundamental") characterization is the default public API
(:func:`alpha_w`, :func:`threshold_curve`).  The perturbed epsilon-forms — a
family of slack parameters used to state the matching lower/upper bounds on
the threshold — are exposed through :class:`EpsilonSet`,
:func:`char_residual`, :func:`solve_theta` and :func:`alpha_bound`; at
epsilon = 0 the lower and upper bounds coincide with theta_hat (the tests
assert this collapse at 1e-9).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

from scipy.optimize import brentq

from .specfn import DomainError, erfinv

__all__ = [
    "Regime",
    "EpsilonSet",
    "ThresholdPoint",
    "BracketError",
    "char_residual",
    "solve_theta",
    "alpha_w",
    "alpha_bound",
    "threshold_curve",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_SQRT_1_OVER_2PI = math.sqrt(1.0 / (2.0 * math.pi))

#: Offset keeping brackets strictly inside the open domain.
_BRACKET_DELTA = 1e-9


class BracketError(RuntimeError):
    """The characterization residual has the same sign at both ends of its domain."""


class Regime(str, enum.Enum):
    """Sign information available to the l1 solver."""

    GENERAL = "general"
    SIGNED = "signed"

    @classmethod
    def coerce(cls, value) -> "Regime":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ValueError(
                f"regime must be 'general' or 'signed', got {value!r}"
            ) from None


def _check_side(side: str) -> str:
    if side not in ("lower", "upper"):
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    return side


@dataclass(frozen=True)
class EpsilonSet:
    """Slack constants of the threshold bounds; all in [0, 0.1).

    ``eps1_c``/``eps2_c`` perturb the characterization equation (lower/upper
    side), ``eps1_m``/``eps3_m`` are measurement-count slack, and
    ``eps1_g``/``eps3_g``/``eps5_g`` are Gaussian concentration slack.
    ``eps3_m`` and ``eps5_g`` are carried for completeness (they parameterize
    the finite-size concentration events, not the asymptotic bound formulas)
    and do not enter any closed form here.
    """

    eps1_c: float = 0.0
    eps2_c: float = 0.0
    eps1_m: float = 0.0
    eps3_m: float = 0.0
    eps1_g: float = 0.0
    eps3_g: float = 0.0
    eps5_g: float = 0.0

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"{field.name} must be a finite real, got {value!r}")
            if not 0.0 <= value < 0.1:
                raise ValueError(
                    f"{field.name} must lie in [0, 0.1), got {value!r}"
                )
            object.__setattr__(self, field.name, float(value))

    def is_zero(self) -> bool:
        return all(getattr(self, field.name) == 0.0 for field in fields(self))


@dataclass(frozen=True)
class ThresholdPoint:
    """One point (beta, theta_hat, alpha) on a weak-threshold curve."""

    beta: float
    theta_hat: float
    alpha: float
    regime: Regime

    def __post_init__(self) -> None:
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta!r}")
        if not self.beta < self.alpha < 1.0:
            raise ValueError(
                f"alpha must lie in (beta, 1) = ({self.beta!r}, 1), got {self.alpha!r}"
            )
        if not self.beta < self.theta_hat < 1.0:
            raise ValueError(
                f"theta_hat must lie in (beta, 1), got {self.theta_hat!r}"
            )


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not math.isfinite(beta) or not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta!r}")
    return beta


def char_residual(
    regime: Regime,
    theta: float,
    beta: float,
    eps1_c: float = 0.0,
    eps2_c: float = 0.0,
    side: str = "lower",
) -> float:
    """Left-hand side of the weak-threshold characterization equation.

    General regime, lower side::

        (1 - eps1_c) (1-beta) sqrt(2/pi) exp(-E^2) / theta
            - sqrt(2) erfinv((1 + eps1_c) (1-theta)/(1-beta))

    with the exponent's E = erfinv((1-theta)/(1-beta)) kept epsilon-free.
    The upper side swaps the perturbation directions: (1 + eps2_c) on the
    density prefactor and (1 - eps2_c) inside the standalone erfinv.  The
    signed regime has the same shape with density factor sqrt(1/(2 pi)) and
    erfinv arguments 2 f (1-theta)/(1-beta) - 1, where the perturbation
    factor f scales the fraction (not the whole argument).

    The root of side='lower' at eps=0 is theta_hat, the fundamental
    characterization of the regime's weak threshold.  This is the residual
    that :func:`solve_theta` builds once per root, with every argument but
    theta validated once, and evaluated here at the one theta.
    """
    return _residual_function(regime, beta, eps1_c, eps2_c, side)(theta)


def _residual_function(
    regime: Regime,
    beta: float,
    eps1_c: float = 0.0,
    eps2_c: float = 0.0,
    side: str = "lower",
):
    """:func:`char_residual` as a function of theta alone.

    Validates every other argument here, once, with the errors
    :func:`char_residual` raises; the returned function checks only that
    theta lies in (beta, 1) before evaluating the formula.
    """
    regime = Regime.coerce(regime)
    side = _check_side(side)
    beta = _check_beta(beta)
    for name, value in (("eps1_c", eps1_c), ("eps2_c", eps2_c)):
        if not 0.0 <= float(value) < 0.1:
            raise ValueError(f"{name} must lie in [0, 0.1), got {value!r}")

    if side == "lower":
        density_factor = 1.0 - eps1_c
        erfinv_factor = 1.0 + eps1_c
    else:
        density_factor = 1.0 + eps2_c
        erfinv_factor = 1.0 - eps2_c

    tail = 1.0 - beta
    signed = regime is Regime.SIGNED
    density = _SQRT_1_OVER_2PI if signed else _SQRT_2_OVER_PI

    def residual(theta: float) -> float:
        theta = float(theta)
        if not math.isfinite(theta) or not beta < theta < 1.0:
            raise ValueError(f"theta must lie in (beta, 1), got {theta!r}")
        ratio = (1.0 - theta) / tail
        if signed:
            e0 = erfinv(2.0 * ratio - 1.0)  # raises DomainError outside (-1, 1)
            standalone = erfinv(2.0 * erfinv_factor * ratio - 1.0)
        else:
            e0 = erfinv(ratio)
            standalone = erfinv(erfinv_factor * ratio)
        return (
            density_factor * tail * density * math.exp(-e0 * e0) / theta
            - _SQRT2 * standalone
        )

    return residual


def _bracket_interval(beta: float, eps: EpsilonSet, side: str):
    """Open interval of theta on which char_residual is defined."""
    factor = (1.0 + eps.eps1_c) if side == "lower" else (1.0 - eps.eps2_c)
    # The standalone erfinv argument reaches 1 at theta = 1 - (1-beta)/factor
    # in both regimes; stay strictly above it (and above beta).
    lo = max(beta, 1.0 - (1.0 - beta) / factor) + _BRACKET_DELTA
    hi = 1.0 - _BRACKET_DELTA
    if not lo < hi:
        raise BracketError(
            f"empty theta domain for beta={beta!r}, side={side!r}"
        )
    return lo, hi


def solve_theta(
    regime: Regime,
    beta: float,
    eps: EpsilonSet | None = None,
    side: str = "lower",
) -> float:
    """Root theta_hat in (beta, 1) of the characterization residual.

    The residual is negative at the left end of its domain, positive at the
    right end, and changes sign once between them: at eps = 0 the equation is
    the stationarity condition of the strictly convex statistical dimension
    of the l1 descent cone, whose minimizer is unique (the tests check the
    single sign change on a grid of betas, sides and epsilons).  So one run
    of Brent's method (``scipy.optimize.brentq``) on the whole domain finds
    the root to machine precision in theta; |residual| <= 1e-11 is checked
    at the end.  The arguments are validated once per root, and Brent runs
    the returned residual, whose evaluations at the two ends of the domain
    are also the sign check.  Raises :class:`BracketError` when the residual
    has the same sign at both ends.
    """
    regime = Regime.coerce(regime)
    side = _check_side(side)
    beta = _check_beta(beta)
    eps = EpsilonSet() if eps is None else eps
    lo, hi = _bracket_interval(beta, eps, side)
    residual = _residual_function(regime, beta, eps.eps1_c, eps.eps2_c, side)

    try:
        theta = brentq(residual, lo, hi, xtol=1e-16)
    except ValueError:
        # Brent's own refusal of a bracket without a sign change; any other
        # ValueError (a DomainError from erfinv) is raised as it is.
        if residual(lo) * residual(hi) > 0.0:
            raise BracketError(
                f"no sign change of the {regime.value} {side} characterization on "
                f"({lo!r}, {hi!r}) for beta={beta!r}"
            ) from None
        raise
    final = residual(theta)
    if abs(final) > 1e-11:
        raise BracketError(
            f"root solve stalled with residual {final!r} at theta={theta!r}"
        )
    return theta


def alpha_w(regime: Regime, beta: float) -> ThresholdPoint:
    """Fundamental (epsilon-free) weak-threshold point: alpha = theta_hat."""
    regime = Regime.coerce(regime)
    beta = _check_beta(beta)
    theta_hat = solve_theta(regime, beta, EpsilonSet(), side="lower")
    return ThresholdPoint(beta=beta, theta_hat=theta_hat, alpha=theta_hat, regime=regime)


def alpha_bound(
    regime: Regime,
    side: str,
    beta: float,
    theta_hat: float,
    eps: EpsilonSet | None = None,
) -> float:
    """Closed-form threshold bound evaluated at theta_hat.

    side='lower' gives the largest alpha proven to succeed, side='upper' the
    smallest alpha proven to fail, each as a function of the matching
    characterization root theta_hat and the slack constants.  At eps = 0 both
    sides collapse to theta_hat exactly: the shared middle term equals
    sqrt(2) E D and the characterization equation forces D / theta_hat =
    sqrt(2) E, cancelling it against the squared-density term D^2/theta_hat.
    """
    regime = Regime.coerce(regime)
    side = _check_side(side)
    beta = _check_beta(beta)
    theta_hat = float(theta_hat)
    if not math.isfinite(theta_hat) or not beta < theta_hat < 1.0:
        raise ValueError(f"theta_hat must lie in (beta, 1), got {theta_hat!r}")
    eps = EpsilonSet() if eps is None else eps

    ratio = (1.0 - theta_hat) / (1.0 - beta)
    sqrt_2pi = math.sqrt(2.0 * math.pi)
    if regime is Regime.GENERAL:
        e = erfinv(ratio)
        density = (1.0 - beta) * _SQRT_2_OVER_PI * math.exp(-e * e)
        head_mass = 2.0 * (1.0 - beta) / sqrt_2pi
    else:
        e = erfinv(2.0 * ratio - 1.0)
        density = (1.0 - beta) * _SQRT_1_OVER_2PI * math.exp(-e * e)
        head_mass = (1.0 - beta) / sqrt_2pi
    # sqrt(2 E^2) taken literally: |E| (E can dip below 0 for signed
    # theta_hat > (1+beta)/2).
    sq2e_exp = _SQRT2 * abs(e) * math.exp(-e * e)
    mean_sq = density * density / theta_hat

    if side == "lower":
        if regime is Regime.GENERAL:
            return (
                (1.0 - beta)
                / sqrt_2pi
                * (sqrt_2pi + 2.0 * sq2e_exp - sqrt_2pi * ratio)
                + beta
                - mean_sq
            )
        return (1.0 - beta) / sqrt_2pi * sq2e_exp + theta_hat - mean_sq

    prefactor = 1.0 / (1.0 + eps.eps1_m) ** 2
    return prefactor * (
        (1.0 - eps.eps1_g) * (theta_hat + head_mass * sq2e_exp)
        - (1.0 + eps.eps3_g) ** 2 * mean_sq
    )


def threshold_curve(regime: Regime, betas) -> list[ThresholdPoint]:
    """Pointwise alpha_w over a strictly increasing beta grid."""
    regime = Regime.coerce(regime)
    grid = [float(b) for b in betas]
    if not grid:
        raise ValueError("beta grid must be non-empty")
    for b in grid:
        _check_beta(b)
    for left, right in zip(grid, grid[1:]):
        if not left < right:
            raise ValueError(f"beta grid must be strictly increasing, got {left!r} >= {right!r}")
    points = []
    for b in grid:
        try:
            points.append(alpha_w(regime, b))
        except (BracketError, DomainError) as exc:
            raise BracketError(f"threshold solve failed at beta={b!r}: {exc}") from exc
    return points
