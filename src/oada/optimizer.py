"""Quasi-Newton minimization of ansatz angles.

One BFGS loop (Nocedal & Wright, Numerical Optimization, Alg. 6.1): the
inverse-Hessian update of their eq. 6.17 after every accepted step, and a
strong-Wolfe line search (their Alg. 3.5 and 3.6, c1=1e-4, c2=0.9) with
BFGS's usual first-step guess. The line search follows the rules of
scipy's `scalar_search_wolfe2` and its zoom step for step, so every trial
point and accepted step is the one scipy's `line_search` would take. It
is written here because importing that one function loaded scipy's
optimize, linalg and sparse-linalg packages and their Fortran libraries,
about 27 MB of resident memory, into every process. Each trial point is
evaluated once, for both value and gradient, and the lowest value
evaluated is kept, so a line-search failure still returns the best point
seen, and the returned objective is never above the starting one. The
final inverse-Hessian estimate, updated by the last step too, is returned,
so a caller re-optimizing a grown parameter vector can start the next
solve from the curvature already learned instead of from the identity.
A caller that already knows the objective at the starting point passes it
in (`start`), and the solve evaluates only new points.

A solve also stops at the objective's floating-point floor: once an
accepted step has lowered the objective by no more than
`FLOOR_K` * eps * |f| (eps the float64 machine epsilon) while the largest
gradient component is already below `NEAR_MISS` * gtol, the next line
search could only compare rounding errors, so the loop ends there
instead of spending tens of evaluations on a search that fails.

A failed line search is reported by the result's `stop` alone: nothing
warns, so every warning the caller sees is the objective's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ObjectiveError

__all__ = ["FLOOR_K", "GTOL", "NEAR_MISS", "OptimizeResult", "minimize"]

# The floor stop's decrease bound, in units of eps * |f|, chosen by
# measurement. On the 50-operator beh2_3.0 cold start (eps=1e-8) every K
# from 16 to 1024 selects the same operators, but the 49th solve, the
# longest (143 evaluations at K = 256), falls into one of three minima
# depending on where earlier solves stopped, and the run ends 1.232424e-3 Ha
# above FCI for K = 16, 64, 128 and 256, 1.210405e-3 Ha for K = 32 and
# 1.189765e-3 Ha for K = 512 and 1024. The run spends 705-793 evaluations
# over these K, 718 at K = 256.
FLOOR_K = 256
# The gradient infinity norm at which a solve converges; both growth stages
# solve to it.
GTOL = 1e-8
# A solve that ends with max|g| below NEAR_MISS * gtol missed gtol only by
# rounding; the floor stop fires only there, and `adapt.grow` logs nothing
# louder than DEBUG for it.
NEAR_MISS = 10.0

_EPS = np.finfo(float).eps

# The strong Wolfe conditions' sufficient-decrease and curvature constants.
_C1, _C2 = 1e-4, 0.9
# The bracketing phase doubles its step at most _MAX_BRACKET times, and the
# zoom tries at most 1 + _MAX_ZOOM steps.
_MAX_BRACKET = _MAX_ZOOM = 10
# Zoom rejects a cubic (quadratic) step within _DELTA_CUBIC (_DELTA_QUAD)
# bracket widths of either end, falling back to quadratic (bisection).
_DELTA_CUBIC, _DELTA_QUAD = 0.2, 0.1


@dataclass
class OptimizeResult:
    theta_opt: np.ndarray
    objective_value: float
    n_evaluations: int
    converged: bool
    gradient_norm: float
    n_iterations: int = 0
    hess_inv: np.ndarray = None
    stop: str = "gtol"  # "gtol", "floor", "line search" or "max_iter"
    gradient: np.ndarray = None  # the objective's gradient at theta_opt
    extra: tuple = ()  # the objective's further return items at theta_opt


def _initial_hess_inv(hess_inv0, n):
    """`hess_inv0` symmetrized and bordered with the identity up to n x n;
    the identity itself when none is given or the result is not positive
    definite (BFGS needs a descent direction)."""
    if hess_inv0 is None:
        return np.eye(n)
    hess_inv0 = np.asarray(hess_inv0, dtype=float)
    m = len(hess_inv0)
    if hess_inv0.shape != (m, m) or m > n:
        raise ValueError(f"hess_inv0 of shape {hess_inv0.shape} does not fit {n} parameters")
    matrix = np.eye(n)
    matrix[:m, :m] = 0.5 * (hess_inv0 + hess_inv0.T)
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return np.eye(n)
    return matrix


def _cubicmin(a, fa, fpa, b, fb, c, fc):
    """Minimizer of the cubic through (a, fa), (b, fb) and (c, fc) with
    slope fpa at a, or None if it has none or it is not finite."""
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            db, dc = b - a, c - a
            denom = (db * dc) ** 2 * (db - dc)
            d1 = np.empty((2, 2))
            d1[0, 0] = dc ** 2
            d1[0, 1] = -db ** 2
            d1[1, 0] = -dc ** 3
            d1[1, 1] = db ** 3
            # the 2x2 product, not its two scalar rows, keeps scipy's bits
            cubic, quad = np.dot(d1, np.asarray([fb - fa - fpa * db, fc - fa - fpa * dc]))
            cubic /= denom
            quad /= denom
            xmin = a + (-quad + np.sqrt(quad * quad - 3 * cubic * fpa)) / (3 * cubic)
        except ArithmeticError:
            return None
    return xmin if np.isfinite(xmin) else None


def _quadmin(a, fa, fpa, b, fb):
    """Minimizer of the parabola through (a, fa) and (b, fb) with slope fpa
    at a, or None if it has none or it is not finite."""
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            db = b - a * 1.0
            xmin = a - fpa / (2.0 * ((fb - fa - fpa * db) / (db * db)))
        except ArithmeticError:
            return None
    return xmin if np.isfinite(xmin) else None


def _zoom(trial, a_lo, a_hi, phi_lo, phi_hi, slope_lo, phi0, slope0):
    """Nocedal & Wright Alg. 3.6: shrink the bracket [a_lo, a_hi] (a_lo the
    end with the lower value) to a strong-Wolfe step. Each trial step is
    the cubic through both ends and the end dropped last, else the
    parabola through both ends, else the midpoint. Returns
    (alpha, value, gradient), or None after 1 + `_MAX_ZOOM` trials."""
    phi_rec, a_rec = phi0, 0
    for i in range(_MAX_ZOOM + 1):
        dalpha = a_hi - a_lo
        a, b = (a_hi, a_lo) if dalpha < 0 else (a_lo, a_hi)
        if i > 0:
            cchk = _DELTA_CUBIC * dalpha
            a_j = _cubicmin(a_lo, phi_lo, slope_lo, a_hi, phi_hi, a_rec, phi_rec)
        if i == 0 or a_j is None or a_j > b - cchk or a_j < a + cchk:
            qchk = _DELTA_QUAD * dalpha
            a_j = _quadmin(a_lo, phi_lo, slope_lo, a_hi, phi_hi)
            if a_j is None or a_j > b - qchk or a_j < a + qchk:
                a_j = a_lo + 0.5 * dalpha
        phi_j, grad_j, slope_j = trial(a_j)
        if phi_j > phi0 + _C1 * a_j * slope0 or phi_j >= phi_lo:
            phi_rec, a_rec = phi_hi, a_hi
            a_hi, phi_hi = a_j, phi_j
            continue
        if abs(slope_j) <= -_C2 * slope0:
            return a_j, phi_j, grad_j
        if slope_j * (a_hi - a_lo) >= 0:
            phi_rec, a_rec = phi_hi, a_hi
            a_hi, phi_hi = a_lo, phi_lo
        else:
            phi_rec, a_rec = phi_lo, a_lo
        a_lo, phi_lo, slope_lo = a_j, phi_j, slope_j
    return None


def _line_search(evaluate, theta, direction, value, grad, old_value):
    """A step along `direction` from `theta` that meets the strong Wolfe
    conditions (Nocedal & Wright Alg. 3.5).

    `evaluate(x) -> (value, gradient)` is called once per trial point. The
    first trial step is 1.01 times the minimizer of the parabola with the
    current slope whose minimum lies `old_value - value` below `value`,
    capped at 1 (1 when it is negative); it doubles until the sufficient
    decrease fails, the value stops falling or the slope turns
    non-negative, and `_zoom` then searches the bracket.
    Returns (alpha, value, gradient) at the accepted point, or None when
    rounding has made the first step 0, or the bracketing phase or the zoom
    runs out of trials.
    """
    slope0 = np.dot(grad, direction)

    def trial(alpha):
        value_a, grad_a = evaluate(theta + alpha * direction)
        return value_a, grad_a, np.dot(grad_a, direction)

    alpha1 = min(1.0, 1.01 * 2 * (value - old_value) / slope0) if slope0 != 0 else 1.0
    if alpha1 < 0:
        alpha1 = 1.0
    if alpha1 == 0:
        return None
    alpha0, phi_a0, slope_a0 = 0, value, slope0
    phi_a1, grad_a1, slope_a1 = trial(alpha1)
    for i in range(_MAX_BRACKET):
        if phi_a1 > value + _C1 * alpha1 * slope0 or (i > 0 and phi_a1 >= phi_a0):
            return _zoom(trial, alpha0, alpha1, phi_a0, phi_a1, slope_a0, value, slope0)
        if abs(slope_a1) <= -_C2 * slope0:
            return alpha1, phi_a1, grad_a1
        if slope_a1 >= 0:
            return _zoom(trial, alpha1, alpha0, phi_a1, phi_a0, slope_a1, value, slope0)
        alpha0, phi_a0, slope_a0 = alpha1, phi_a1, slope_a1
        alpha1 = 2 * alpha1
        phi_a1, grad_a1, slope_a1 = trial(alpha1)
    return None


def minimize(objective, theta0, gtol=GTOL, max_iter=500, callback=None,
             hess_inv0=None, start=None) -> OptimizeResult:
    """Minimize `objective(theta) -> (value, gradient, *extra)` from theta0
    with BFGS.

    The solve ends when max|g| <= gtol ("gtol"), at the floating-point
    floor described in the module docstring ("floor"), when the line search
    fails ("line search") or after `max_iter` iterations ("max_iter"); the
    result's `stop` names the cause. `converged` means that the solve ended
    by gtol and max|g| <= gtol at the returned point, so a floor stop, which
    fires only above gtol, is never converged.

    Args:
        objective: callable returning the value, its analytic gradient and
            any further items, which the result keeps (`extra`) for the
            point it returns.
        theta0: starting angles.
        gtol: convergence threshold on the gradient infinity norm.
        max_iter: BFGS iteration cap.
        callback: called as callback(theta) once per accepted iterate.
        hess_inv0: starting inverse-Hessian estimate, typically the
            `hess_inv` of a solve over the leading angles; it is bordered
            with 1 on the diagonal for the angles it lacks. None, or a
            matrix that is not positive definite, starts from the identity.
        start: what `objective(theta0)` returns, when the caller already
            knows it; the solve then does not evaluate theta0, and
            `n_evaluations` counts only the evaluations it makes.

    Raises:
        ObjectiveError: if the objective evaluates to NaN or infinity.
    """
    theta = np.array(theta0, dtype=float)
    hess_inv = _initial_hess_inv(hess_inv0, len(theta))
    # (theta, value, gradient, extra) of the lowest evaluation
    n_evals, best = 0, None

    def record(x, returned):
        nonlocal best
        value, grad, *extra = returned
        if not math.isfinite(value):
            raise ObjectiveError(f"objective evaluated to {value} at theta={x}")
        value, grad = float(value), np.asarray(grad, dtype=float)
        if best is None or value < best[1]:
            best = x, value, grad, extra
        return value, grad

    def evaluate(x):
        nonlocal n_evals
        n_evals += 1
        return record(x, objective(x))

    value, grad = evaluate(theta) if start is None else record(theta, start)
    # scipy's BFGS guess for the first line search: a step of length about 1
    old_value = value + np.linalg.norm(grad) / 2
    gnorm = np.max(np.abs(grad), initial=0.0)
    n_iter, stop = 0, "gtol"
    while gnorm > gtol:
        if n_iter == max_iter:
            stop = "max_iter"
            break
        direction = -hess_inv @ grad
        accepted = _line_search(evaluate, theta, direction, value, grad, old_value)
        if accepted is None:
            stop = "line search"
            break
        alpha, new_value, new_grad = accepted
        step = alpha * direction
        theta = theta + step
        n_iter += 1
        if callback is not None:
            callback(np.copy(theta))
        old_value, value = value, new_value
        change, grad = new_grad - grad, new_grad
        curvature = change @ step
        if curvature > 0:
            # Nocedal & Wright eq. 6.17, expanded to O(n^2) and applied in
            # place; the cross term step h_change^T + h_change step^T is one
            # outer product and its transpose
            rho, h_change = 1.0 / curvature, hess_inv @ change
            column = step[:, None]
            cross = column * h_change
            hess_inv += (rho * rho * (change @ h_change) + rho) * (column * step)
            hess_inv -= rho * (cross + cross.T)
        gnorm = np.abs(grad).max()
        if old_value - value <= FLOOR_K * _EPS * abs(value) and gtol < gnorm < NEAR_MISS * gtol:
            stop = "floor"
            break
    theta, value, grad, extra = best
    gnorm = float(np.max(np.abs(grad), initial=0.0))
    return OptimizeResult(theta, value, n_evals, stop == "gtol" and gnorm <= gtol, gnorm,
                          n_iterations=n_iter, hess_inv=hess_inv, stop=stop, gradient=grad,
                          extra=tuple(extra))
