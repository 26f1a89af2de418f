"""Weak-threshold curves for l1 minimization: characterization equations and bounds.

For a proportional regime k = beta*n, m = alpha*n, the asymptotic success of
l1 recovery flips at a weak threshold alpha_w(beta).  This module solves the
scalar characterization equation whose root theta_hat determines that
threshold, for two regimes:

- ``general``: signs of the sparse vector unknown to the solver;
- ``signed``: the sparse vector is known a priori to be nonnegative.

The epsilon-free ("fundamental") characterization is the default public API
(:func:`alpha_w`).  The perturbed epsilon-forms — a family of slack
parameters used to state the matching lower/upper bounds on the threshold —
are exposed through :class:`EpsilonSet`, :func:`char_residual`,
:func:`solve_theta` and :func:`alpha_bound`.  Both bounds share one
expression, so at epsilon = 0 they are the same float, and that float meets
theta_hat (the tests assert both: equality, and the collapse at 1e-9).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

from scipy.optimize import brentq

from .specfn import erfinv

__all__ = [
    "Regime",
    "EpsilonSet",
    "ThresholdPoint",
    "BracketError",
    "char_residual",
    "solve_theta",
    "alpha_w",
    "alpha_bound",
]

_SQRT2 = math.sqrt(2.0)

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


#: How each regime enters the formulas, as (scale, shift, density): a head
#: fraction p enters erfinv as scale*p - shift, and density is the Gaussian
#: density constant of the head.
_REGIME_FORM = {
    Regime.GENERAL: (1.0, 0.0, math.sqrt(2.0 / math.pi)),
    Regime.SIGNED: (2.0, 1.0, math.sqrt(1.0 / (2.0 * math.pi))),
}


def _check_side(side: str) -> str:
    if side not in ("lower", "upper"):
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    return side


def _side_factors(side: str, eps1_c: float, eps2_c: float) -> tuple[float, float]:
    """(density factor, erfinv factor) of the perturbed characterization.

    The lower side moves the density down and the standalone erfinv argument
    up by eps1_c; the upper side moves them the other way by eps2_c.
    """
    if side == "lower":
        return 1.0 - eps1_c, 1.0 + eps1_c
    return 1.0 + eps2_c, 1.0 - eps2_c


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
    """Point (beta, theta_hat) of a weak-threshold curve; ``alpha`` = alpha_w(beta) = theta_hat."""

    beta: float
    theta_hat: float
    regime: Regime

    def __post_init__(self) -> None:
        _check_theta_hat(self.theta_hat, _check_beta(self.beta))

    @property
    def alpha(self) -> float:
        return self.theta_hat


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not math.isfinite(beta) or not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta!r}")
    return beta


def _check_theta_hat(theta_hat: float, beta: float) -> float:
    theta_hat = float(theta_hat)
    if not math.isfinite(theta_hat) or not beta < theta_hat < 1.0:
        raise ValueError(f"theta_hat must lie in (beta, 1), got {theta_hat!r}")
    return theta_hat


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
    regime = Regime.coerce(regime)
    side = _check_side(side)
    beta = _check_beta(beta)
    for name, value in (("eps1_c", eps1_c), ("eps2_c", eps2_c)):
        if not 0.0 <= float(value) < 0.1:
            raise ValueError(f"{name} must lie in [0, 0.1), got {value!r}")
    return _residual_function(regime, beta, eps1_c, eps2_c, side, {})(theta)


def _residual_function(
    regime: Regime,
    beta: float,
    eps1_c: float,
    eps2_c: float,
    side: str,
    values: dict[float, float],
):
    """:func:`char_residual` as a function of theta alone, from validated arguments.

    The returned function checks only that theta lies in (beta, 1) before
    evaluating the formula, and records each value it returns in ``values``,
    keyed by theta.
    """
    density_factor, erfinv_factor = _side_factors(side, eps1_c, eps2_c)
    scale, shift, density = _REGIME_FORM[regime]
    tail = 1.0 - beta
    prefactor = density_factor * tail * density

    def residual(theta: float) -> float:
        theta = float(theta)
        if not math.isfinite(theta) or not beta < theta < 1.0:
            raise ValueError(f"theta must lie in (beta, 1), got {theta!r}")
        ratio = (1.0 - theta) / tail
        e0 = erfinv(scale * ratio - shift)  # raises DomainError outside (-1, 1)
        values[theta] = value = (
            prefactor * math.exp(-e0 * e0) / theta
            - _SQRT2 * erfinv(scale * (erfinv_factor * ratio) - shift)
        )
        return value

    return residual


def _bracket_interval(beta: float, eps: EpsilonSet, side: str):
    """Open interval of theta on which char_residual is defined."""
    _, factor = _side_factors(side, eps.eps1_c, eps.eps2_c)
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
    are also the sign check; the final check reads Brent's own value at the
    root.  Raises :class:`BracketError` when the residual has the same sign
    at both ends.
    """
    regime = Regime.coerce(regime)
    side = _check_side(side)
    beta = _check_beta(beta)
    eps = EpsilonSet() if eps is None else eps
    lo, hi = _bracket_interval(beta, eps, side)
    values: dict[float, float] = {}
    residual = _residual_function(regime, beta, eps.eps1_c, eps.eps2_c, side, values)

    try:
        theta = brentq(residual, lo, hi, xtol=1e-16)
    except ValueError:
        # Brent's refusal of a bracket without a sign change, made after it
        # evaluated both ends; any other ValueError is raised as it is.
        if lo in values and hi in values and values[lo] * values[hi] > 0.0:
            raise BracketError(
                f"no sign change of the {regime.value} {side} characterization on "
                f"({lo!r}, {hi!r}) for beta={beta!r}"
            ) from None
        raise
    final = values[theta]  # Brent returns a point it has evaluated
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
    return ThresholdPoint(beta=beta, theta_hat=theta_hat, regime=regime)


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
    characterization root theta_hat and the slack constants.  The lower
    bound is the upper one's expression with eps1_m = eps1_g = eps3_g = 0, so
    at eps = 0 both sides are one float, and that float is theta_hat: the
    middle term equals sqrt(2) E D and the characterization equation forces
    D / theta_hat = sqrt(2) E, cancelling it against the squared-density
    term D^2/theta_hat.
    """
    regime = Regime.coerce(regime)
    side = _check_side(side)
    beta = _check_beta(beta)
    theta_hat = _check_theta_hat(theta_hat, beta)

    scale, shift, density = _REGIME_FORM[regime]
    e = erfinv(scale * ((1.0 - theta_hat) / (1.0 - beta)) - shift)
    head_mass = (1.0 - beta) * density
    gauss = math.exp(-e * e)
    # sqrt(2 E^2) taken literally: |E| (E can dip below 0 for signed
    # theta_hat > (1+beta)/2).
    sq2e_exp = _SQRT2 * abs(e) * gauss
    head_density = head_mass * gauss
    mean_sq = head_density * head_density / theta_hat

    if side == "lower":
        return theta_hat + head_mass * sq2e_exp - mean_sq
    eps = EpsilonSet() if eps is None else eps
    prefactor = 1.0 / (1.0 + eps.eps1_m) ** 2
    return prefactor * (
        (1.0 - eps.eps1_g) * (theta_hat + head_mass * sq2e_exp)
        - (1.0 + eps.eps3_g) ** 2 * mean_sq
    )

