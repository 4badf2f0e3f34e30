"""Quasi-Newton minimization of ansatz angles.

One BFGS loop (Nocedal & Wright, Numerical Optimization, Alg. 6.1): the
inverse-Hessian update of their eq. 6.17 after every accepted step, and
scipy's strong-Wolfe line search (`scipy.optimize.line_search`, c1=1e-4,
c2=0.9) with scipy BFGS's first-step guess. Each point is evaluated once,
for both value and gradient, and the lowest value evaluated is kept, so a
line-search failure still returns the best point seen, and the returned
objective is never above the starting one. The final inverse-Hessian
estimate, updated by the last step too, is returned, so a caller
re-optimizing a grown parameter vector can start the next solve from the
curvature already learned instead of from the identity.

A solve also stops at the objective's floating-point floor: once an
accepted step has lowered the objective by no more than
`FLOOR_K` * eps * |f| (eps the float64 machine epsilon) while the largest
gradient component is already below `NEAR_MISS` * gtol, the next line
search could only compare rounding errors, so the loop ends there
instead of spending tens of evaluations on a search that fails.

A failed line search is reported by the result's `stop`, not by scipy's
warning: one filter, entered once per solve around the loop, ignores the
RuntimeWarnings whose message matches ".*line search". Every other
warning, the objective's own included, reaches the caller.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import line_search

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


def minimize(objective, theta0, gtol=GTOL, max_iter=500, callback=None,
             hess_inv0=None) -> OptimizeResult:
    """Minimize `objective(theta) -> (value, gradient)` from theta0 with BFGS.

    The solve ends when max|g| <= gtol ("gtol"), at the floating-point
    floor described in the module docstring ("floor"), when the line search
    fails ("line search") or after `max_iter` iterations ("max_iter"); the
    result's `stop` names the cause. `converged` means that the solve ended
    by gtol and max|g| <= gtol at the returned point, so a floor stop, which
    fires only above gtol, is never converged.

    Args:
        objective: callable returning the value and its analytic gradient.
        theta0: starting angles.
        gtol: convergence threshold on the gradient infinity norm.
        max_iter: BFGS iteration cap.
        callback: called as callback(theta) once per accepted iterate.
        hess_inv0: starting inverse-Hessian estimate, typically the
            `hess_inv` of a solve over the leading angles; it is bordered
            with 1 on the diagonal for the angles it lacks. None, or a
            matrix that is not positive definite, starts from the identity.

    Raises:
        ObjectiveError: if the objective evaluates to NaN or infinity.
    """
    theta = np.array(theta0, dtype=float)
    hess_inv = _initial_hess_inv(hess_inv0, len(theta))
    # the memo: (theta, value, gradient) of the latest and of the lowest
    # evaluation, and the latest theta as a list of floats, which compares as
    # np.array_equal does (by value, and a NaN never equals itself) in a
    # fraction of its time
    n_evals, latest, latest_key, best = 0, None, None, None

    def evaluate(x):
        nonlocal n_evals, latest, latest_key, best
        key = x.tolist()
        if key != latest_key:
            n_evals += 1
            value, grad = objective(x)
            if not np.isfinite(value):
                raise ObjectiveError(f"objective evaluated to {value} at theta={x}")
            latest, latest_key = (x, float(value), np.asarray(grad, dtype=float)), key
            if best is None or latest[1] < best[1]:
                best = latest
        return latest

    _, value, grad = evaluate(theta)
    # scipy's BFGS guess for the first line search: a step of length about 1
    old_value = value + np.linalg.norm(grad) / 2
    gnorm = np.max(np.abs(grad), initial=0.0)
    n_iter, stop = 0, "gtol"
    with warnings.catch_warnings():
        # scipy warns when a line search fails (its LineSearchWarning, a
        # RuntimeWarning); the result reports it as the stop "line search"
        warnings.filterwarnings("ignore", ".*line search", RuntimeWarning)
        while gnorm > gtol:
            if n_iter == max_iter:
                stop = "max_iter"
                break
            direction = -hess_inv @ grad
            alpha, _, _, new_value, _, new_grad = line_search(
                lambda x: evaluate(x)[1], lambda x: evaluate(x)[2], theta, direction,
                grad, value, old_value, c1=1e-4, c2=0.9)
            if new_grad is None:
                stop = "line search"
                break
            step = alpha * direction
            theta = theta + step
            n_iter += 1
            if callback is not None:
                callback(np.copy(theta))
            old_value, value = value, new_value
            change, grad = new_grad - grad, new_grad
            curvature = change @ step
            if curvature > 0:
                # Nocedal & Wright eq. 6.17, expanded to O(n^2); the outer
                # products are np.outer's own broadcast multiply
                rho, h_change = 1.0 / curvature, hess_inv @ change
                column, h_column = step[:, None], h_change[:, None]
                hess_inv = (hess_inv + (rho * rho * (change @ h_change) + rho) * (column * step)
                            - rho * (column * h_change + h_column * step))
            gnorm = np.max(np.abs(grad))
            if old_value - value <= FLOOR_K * _EPS * abs(value) and gtol < gnorm < NEAR_MISS * gtol:
                stop = "floor"
                break
    theta, value, grad = best
    gnorm = float(np.max(np.abs(grad), initial=0.0))
    return OptimizeResult(theta, value, n_evals, stop == "gtol" and gnorm <= gtol, gnorm,
                          n_iterations=n_iter, hess_inv=hess_inv, stop=stop)
