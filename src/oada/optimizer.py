"""Quasi-Newton minimization of ansatz angles.

Thin wrapper around scipy's BFGS (inverse-Hessian update, strong-Wolfe
line search with c1=1e-4, c2=0.9) that tracks the best iterate ever
evaluated, so a line-search failure still returns the best point seen,
and the returned objective is never above the starting one. The final
inverse-Hessian estimate is returned, so a caller re-optimizing a grown
parameter vector can start the next solve from the curvature already
learned instead of from the identity.

A solve also stops at the objective's floating-point floor: once an
accepted step has lowered the objective by no more than
`FLOOR_K` * eps * |f| (eps the float64 machine epsilon) while the largest
gradient component is already below `NEAR_MISS` * gtol, the next line
search could only compare rounding errors, so BFGS is halted there
instead of spending tens of evaluations on a search that fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cholesky
from scipy.optimize import minimize as _scipy_minimize

from .errors import ObjectiveError

__all__ = ["FLOOR_K", "GTOL", "NEAR_MISS", "OptimizeResult", "minimize"]

# The floor stop's decrease bound, in units of eps * |f|, chosen by
# measurement. On the 50-operator beh2_3.0 cold start (eps=1e-8) every K
# selects the same operators, but the 49th solve, 150-190 evaluations long,
# falls into one of two minima depending on where earlier solves stopped:
# K = 32, 128 and 256 end at 1.189765e-3 Ha above FCI, as without the floor
# stop; K = 16, 64, 512 and 1024 end at 1.232424e-3 Ha.
FLOOR_K = 256
# The gradient infinity norm at which a solve converges; both growth stages
# solve to it.
GTOL = 1e-8
# A solve that ends with max|g| below NEAR_MISS * gtol missed gtol only by
# rounding; the floor stop fires only there, and `adapt.grow` logs nothing
# louder than DEBUG for it.
NEAR_MISS = 10.0

_EPS = np.finfo(float).eps
_SCIPY_STOPS = {0: "gtol", 1: "max_iter", 2: "line search"}


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
    definite (scipy's BFGS would reject it)."""
    if hess_inv0 is None:
        return None
    hess_inv0 = np.asarray(hess_inv0, dtype=float)
    m = len(hess_inv0)
    if hess_inv0.shape != (m, m) or m > n:
        raise ValueError(f"hess_inv0 of shape {hess_inv0.shape} does not fit "
                         f"{n} parameters")
    matrix = np.eye(n)
    matrix[:m, :m] = 0.5 * (hess_inv0 + hess_inv0.T)
    try:
        cholesky(matrix)
    except LinAlgError:
        return None
    return matrix


def minimize(objective, theta0, gtol=GTOL, max_iter=500, callback=None,
             hess_inv0=None) -> OptimizeResult:
    """Minimize `objective(theta) -> (value, gradient)` from theta0 with BFGS.

    The solve ends when max|g| <= gtol ("gtol"), at the floating-point
    floor described in the module docstring ("floor"), when the line search
    fails ("line search") or after `max_iter` iterations ("max_iter"); the
    result's `stop` names the cause. `converged` means that BFGS ended by
    gtol and max|g| <= gtol at the returned point, so a floor stop, which
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
    theta0 = np.asarray(theta0, dtype=float)
    n_evals = 0
    best = None  # (value, gradient inf-norm, theta)
    last = None  # (theta, gradient inf-norm) of the latest evaluation
    accepted_value = None  # objective at the latest accepted iterate
    at_floor = False

    def wrapped(theta):
        nonlocal n_evals, best, last, accepted_value
        n_evals += 1
        value, grad = objective(theta)
        if not np.isfinite(value):
            raise ObjectiveError(f"objective evaluated to {value} at theta={theta}")
        gnorm = float(np.max(np.abs(grad))) if len(grad) else 0.0
        theta = np.array(theta, dtype=float)
        last = (theta, gnorm)
        if accepted_value is None:
            accepted_value = float(value)
        if best is None or value < best[0]:
            best = (float(value), gnorm, theta)
        return value, np.asarray(grad, dtype=float)

    def on_iterate(intermediate_result):
        # scipy passes the accepted iterate and its value; its gradient is
        # the latest evaluation's when that was taken at the same point.
        nonlocal accepted_value, at_floor
        x, value = intermediate_result.x, float(intermediate_result.fun)
        if callback is not None:
            callback(np.copy(x))
        decrease = accepted_value - value
        accepted_value = value
        theta, gnorm = last
        if (decrease <= FLOOR_K * _EPS * abs(value) and gtol < gnorm < NEAR_MISS * gtol
                and np.array_equal(x, theta)):
            at_floor = True
            raise StopIteration

    if len(theta0) == 0:
        value, _ = wrapped(theta0)
        return OptimizeResult(theta0, value, n_evals, True, 0.0, hess_inv=np.eye(0))

    res = _scipy_minimize(wrapped, theta0, jac=True, method="BFGS",
                          callback=on_iterate,
                          options={"gtol": gtol, "maxiter": max_iter,
                                   "hess_inv0": _initial_hess_inv(hess_inv0, len(theta0))})
    value = float(res.fun)
    theta = np.asarray(res.x, dtype=float)
    gnorm = float(np.max(np.abs(res.jac)))
    if best is not None and best[0] < value:
        value, gnorm, theta = best
    converged = bool(res.success) and gnorm <= gtol
    stop = "floor" if at_floor else _SCIPY_STOPS.get(res.status, res.message)
    return OptimizeResult(theta, value, n_evals, converged, gnorm,
                          n_iterations=int(res.nit),
                          hess_inv=np.asarray(res.hess_inv, dtype=float), stop=stop)
