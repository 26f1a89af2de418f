"""Independent oracles that the tests compare the package against.

Nothing here imports the package under test (``tests/test_oracles.py``
checks that).  The special functions and threshold characterizations are
written against mpmath arbitrary-precision arithmetic: the error function
is summed from its Taylor series (not math.erf), inverses are plain
bisection, and the characterizations are re-transcribed from scratch.
Frozen constants in the unit tests carry a comment pointing back at the
generating function here; rerun ``python tests/oracles.py`` to regenerate
them.  The certificate number tau is evaluated in double precision by
:func:`tau_primal`, from SciPy's null space and NNLS alone, and the
basis-pursuit optimum by :func:`basis_pursuit_optimum`, from SciPy's HiGHS
dual simplex at tolerances tighter than its defaults.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np
from scipy.linalg import null_space
from scipy.optimize import linprog, nnls

mp.mp.dps = 60


def erf_taylor(x) -> mp.mpf:
    """erf(x) summed from the Maclaurin series until terms drop below 1e-40.

    erf(x) = 2/sqrt(pi) * sum_{j>=0} (-1)^j x^(2j+1) / (j! (2j+1)).
    At 60 working digits the alternating cancellation up to |x| ~ 6 is
    harmless (peak term ~ 1e20, so ~40 digits survive).
    """
    x = mp.mpf(x)
    total = mp.mpf(0)
    term = x  # j = 0: x^1 / (0! * 1)
    j = 0
    power = x
    factorial = mp.mpf(1)
    while abs(term) > mp.mpf("1e-40"):
        total += term
        j += 1
        power *= x * x
        factorial *= j
        term = (-1) ** j * power / (factorial * (2 * j + 1))
    return 2 / mp.sqrt(mp.pi) * total


def bisect(fn, lo, hi, iterations: int = 200, width=None) -> mp.mpf:
    """Plain bisection; fn(lo) and fn(hi) must differ in sign.

    Stops after ``iterations`` halvings, or earlier once the bracket is
    narrower than ``width``.
    """
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    flo = fn(lo)
    if flo == 0:
        return lo
    for _ in range(iterations):
        if width is not None and hi - lo < width:
            break
        mid = (lo + hi) / 2
        fmid = fn(mid)
        if fmid == 0:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return (lo + hi) / 2


#: Bracket widths at which the bisections stop: far below the 17 printed
#: digits, and the inner one far below the outer one, so that the outer
#: root sees the inner inverse as exact.
_INNER_WIDTH = mp.mpf("1e-30")
_OUTER_WIDTH = mp.mpf("1e-25")


def erfinv_bisect(p) -> mp.mpf:
    p = mp.mpf(p)
    if p == 0:
        return mp.mpf(0)
    if p < 0:
        return -erfinv_bisect(-p)
    return bisect(lambda y: erf_taylor(y) - p, 0, 8, width=_INNER_WIDTH)


def std_normal_cdf(x) -> mp.mpf:
    return (1 + erf_taylor(mp.mpf(x) / mp.sqrt(2))) / 2


def std_normal_quantile_bisect(p) -> mp.mpf:
    return bisect(lambda x: std_normal_cdf(x) - mp.mpf(p), -10, 10, width=_INNER_WIDTH)


def halfnormal_quantile(p) -> mp.mpf:
    return mp.sqrt(2) * erfinv_bisect(p)


def char_residual_general(theta, beta) -> mp.mpf:
    """Epsilon-free general characterization, independent transcription:

    (1-b) * sqrt(2/pi) * exp(-erfinv((1-t)/(1-b))^2) / t
        - sqrt(2) * erfinv((1-t)/(1-b))
    """
    theta, beta = mp.mpf(theta), mp.mpf(beta)
    ratio = (1 - theta) / (1 - beta)
    e = erfinv_bisect(ratio)
    return (1 - beta) * mp.sqrt(2 / mp.pi) * mp.e ** (-(e**2)) / theta - mp.sqrt(2) * e


def char_residual_signed(theta, beta) -> mp.mpf:
    """Epsilon-free signed characterization, independent transcription:

    (1-b) * sqrt(1/(2 pi)) * exp(-erfinv(2(1-t)/(1-b)-1)^2) / t
        - sqrt(2) * erfinv(2(1-t)/(1-b)-1)
    """
    theta, beta = mp.mpf(theta), mp.mpf(beta)
    arg = 2 * (1 - theta) / (1 - beta) - 1
    e = erfinv_bisect(arg)
    return (1 - beta) * mp.sqrt(1 / (2 * mp.pi)) * mp.e ** (-(e**2)) / theta - mp.sqrt(2) * e


def solve_theta_bisect(regime: str, beta) -> mp.mpf:
    """Bisection to a 1e-25 bracket for the epsilon-free root theta in (beta, 1)."""
    beta = mp.mpf(beta)
    residual = char_residual_general if regime == "general" else char_residual_signed
    lo = beta + mp.mpf("1e-12")
    hi = 1 - mp.mpf("1e-12")
    # residual -> -inf as theta -> beta+ (erfinv blows up), > 0 as theta -> 1-
    return bisect(lambda t: residual(t, beta), lo, hi, width=_OUTER_WIDTH)


def _cone_factor(regime: str) -> int:
    """Columns off the support that a descent direction may move: both signs or one."""
    return 2 if regime == "general" else 1


def statistical_dimension(regime: str, beta, t) -> mp.mpf:
    """f(t) = beta (1 + t^2) + c (1 - beta) E[(g - t)_+^2], g standard normal.

    The statistical dimension of the l1 descent cone at a k = beta n sparse
    point is n min_{t >= 0} f(t) (Amelunxen, Lotz, McCoy & Tropp, "Living on
    the edge", 2014), with c = 2 in the general regime and 1 in the signed
    one; its minimum is the weak threshold alpha_w(beta).  The Gaussian
    moment is closed form, E[(g - t)_+^2] = (1 + t^2) Q(t) - t phi(t), with
    Q the upper normal tail and phi the normal density, both from mpmath.
    """
    beta, t = mp.mpf(beta), mp.mpf(t)
    tail = mp.ncdf(-t)
    moment = (1 + t**2) * tail - t * mp.npdf(t)
    return beta * (1 + t**2) + _cone_factor(regime) * (1 - beta) * moment


def statistical_dimension_slope(regime: str, beta, t) -> mp.mpf:
    """f'(t) = 2 beta t - 2 c (1 - beta) (phi(t) - t Q(t)), the derivative of
    :func:`statistical_dimension` in t (d/dt E[(g - t)_+^2] = -2 E[(g - t)_+])."""
    beta, t = mp.mpf(beta), mp.mpf(t)
    tail = mp.ncdf(-t)
    return 2 * beta * t - 2 * _cone_factor(regime) * (1 - beta) * (mp.npdf(t) - t * tail)


def statistical_dimension_minimizer(regime: str, beta, alpha) -> mp.mpf:
    """The minimizer t* of :func:`statistical_dimension` when alpha = alpha_w(beta).

    With r = (1 - alpha)/(1 - beta): t* = sqrt(2) erfinv(r) in the general
    regime (P(|g| <= t*) = r) and t* = Phi^{-1}(r) in the signed one.  The
    paper's root theta_hat = alpha_w enters only through alpha.
    """
    ratio = (1 - mp.mpf(alpha)) / (1 - mp.mpf(beta))
    if regime == "general":
        return mp.sqrt(2) * mp.erfinv(ratio)
    return mp.sqrt(2) * mp.erfinv(2 * ratio - 1)


#: Null-basis rows with a norm at or below this are roundoff: a null space
#: that misses a cone coordinate puts no constraint on it.
_CONE_ROW_CUTOFF = 1e-12


def tau_primal(a, support, signs, regime: str) -> float:
    """tau = min { phi(w) : A w = 0, ||w||_2 <= 1 } from its primal form.

    phi is sum(|w_head|) + sum(signs * w_support) in the general regime and
    sum(w) with w_head >= 0 in the signed one (head = off support).  Both
    become a linear cost c.x over a cone in null(L), L the lifted matrix:
    general [A_head, -A_head, A_S] with costs [1, 1, signs] (the head split
    into nonnegative parts; an optimum never has both parts of a coordinate
    positive), signed [A_head, A_S] with costs 1; the cone rows (the head,
    both copies in the general regime) are >= 0.  Over an orthonormal basis
    N of null(L) the minimum is -||P_K(q)|| with q = -N^T c and
    K = {v : H v >= 0}, H the cone rows of N (Moreau decomposition), and
    P_K(q) = q + H^T lam with lam = argmin_{lam >= 0} ||q + H^T lam||.
    """
    a = np.asarray(a, dtype=float)
    head = np.setdiff1d(np.arange(a.shape[1]), support)
    a_head, a_support = a[:, head], a[:, list(support)]
    if regime == "general":
        lifted = np.hstack([a_head, -a_head, a_support])
        cost = np.concatenate([np.ones(2 * head.size), np.asarray(signs, dtype=float)])
        cone_rows = 2 * head.size
    else:
        lifted = np.hstack([a_head, a_support])
        cost = np.ones(a.shape[1])
        cone_rows = head.size
    basis = null_space(lifted)
    q = -(basis.T @ cost)
    cone = basis[:cone_rows]
    cone = cone[np.linalg.norm(cone, axis=1) > _CONE_ROW_CUTOFF]
    # SciPy's nnls aborts the process on a matrix with no columns.
    v = q + cone.T @ nnls(cone.T, -q)[0] if cone.shape[0] else q
    return -float(np.linalg.norm(v))


#: HiGHS primal and dual feasibility tolerances, 1e-7 by default.  At the
#: defaults the l1 norm of its vertex strays from a certified vertex's by up
#: to 5.2e-9 at n = 200; tightened, its optimal value agrees to 5.4e-10.
_BP_FEASIBILITY_TOL = 1e-10


def basis_pursuit_optimum(a, y, signed: bool) -> float:
    """min ||x||_1 subject to A x = y, and x >= 0 when ``signed``.

    Written as the LP min 1^T (u + v), A (u - v) = y, u, v >= 0
    (min 1^T x, A x = y, x >= 0 when signed) and solved by the HiGHS dual
    simplex with primal and dual feasibility tolerances of 1e-10; returns
    the LP's optimal value as HiGHS reports it.  Raises ``RuntimeError``
    unless HiGHS reports an optimum.
    """
    a = np.asarray(a, dtype=float)
    columns = a if signed else np.hstack([a, -a])
    tol = _BP_FEASIBILITY_TOL
    result = linprog(
        np.ones(columns.shape[1]),
        A_eq=columns,
        b_eq=np.asarray(y, dtype=float),
        bounds=(0, None),
        method="highs-ds",
        options={"primal_feasibility_tolerance": tol, "dual_feasibility_tolerance": tol},
    )
    if result.status != 0:
        raise RuntimeError(f"basis-pursuit oracle failed: {result.message}")
    return float(result.fun)


def _fmt(value) -> str:
    return mp.nstr(value, 17)


if __name__ == "__main__":
    print("# specfn")
    for x in (0.1, 0.5, 0.7, 1.0, 2.0, 3.5):
        print(f"erf({x})".ljust(31), "=", _fmt(erf_taylor(x)))
    for p in ("0.1", "0.5", "0.9", "0.99"):
        print(f"erfinv({p})".ljust(31), "=", _fmt(erfinv_bisect(p)))
    for p in ("0.1", "0.5", "0.975"):
        print(f"std_normal_quantile({p})".ljust(31), "=", _fmt(std_normal_quantile_bisect(p)))
    for p in ("0.3", "0.5", "0.9"):
        print(f"halfnormal_quantile({p})".ljust(31), "=", _fmt(halfnormal_quantile(p)))
    print()
    print("# threshold roots (epsilon = 0)")
    for regime in ("general", "signed"):
        for beta in ("0.1", "0.3", "0.5", "0.9"):
            root = solve_theta_bisect(regime, beta)
            print(f"theta_hat({regime:7s}, beta={beta}) =", _fmt(root))
    print()
    print("# char residual spot values")
    print("char_signed(theta=0.6, beta=0.3) =", _fmt(char_residual_signed("0.6", "0.3")))
    print("char_general(theta=0.6, beta=0.3) =", _fmt(char_residual_general("0.6", "0.3")))
