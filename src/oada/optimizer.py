"""Quasi-Newton minimization of ansatz angles.

Thin wrapper around scipy's BFGS (inverse-Hessian update, strong-Wolfe
line search with c1=1e-4, c2=0.9) that tracks the best iterate ever
evaluated, so a line-search failure still returns the best point seen,
and the returned objective is never above the starting one. The final
inverse-Hessian estimate is returned, so a caller re-optimizing a grown
parameter vector can start the next solve from the curvature already
learned instead of from the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cholesky
from scipy.optimize import minimize as _scipy_minimize

from .errors import ObjectiveError

__all__ = ["OptimizeResult", "minimize"]


@dataclass
class OptimizeResult:
    theta_opt: np.ndarray
    objective_value: float
    n_evaluations: int
    converged: bool
    gradient_norm: float
    n_iterations: int = 0
    hess_inv: np.ndarray = None


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


def minimize(objective, theta0, gtol=1e-8, max_iter=500, callback=None,
             hess_inv0=None) -> OptimizeResult:
    """Minimize `objective(theta) -> (value, gradient)` from theta0 with BFGS.

    Args:
        objective: callable returning the value and its analytic gradient.
        theta0: starting angles.
        gtol: convergence threshold on the gradient infinity norm.
        max_iter: BFGS iteration cap.
        callback: forwarded to scipy, called once per accepted iterate.
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

    def wrapped(theta):
        nonlocal n_evals, best
        n_evals += 1
        value, grad = objective(theta)
        if not np.isfinite(value):
            raise ObjectiveError(f"objective evaluated to {value} at theta={theta}")
        gnorm = float(np.max(np.abs(grad))) if len(grad) else 0.0
        if best is None or value < best[0]:
            best = (float(value), gnorm, np.array(theta, dtype=float))
        return value, np.asarray(grad, dtype=float)

    if len(theta0) == 0:
        value, _ = wrapped(theta0)
        return OptimizeResult(theta0, value, n_evals, True, 0.0, hess_inv=np.eye(0))

    res = _scipy_minimize(wrapped, theta0, jac=True, method="BFGS",
                          callback=callback,
                          options={"gtol": gtol, "maxiter": max_iter,
                                   "hess_inv0": _initial_hess_inv(hess_inv0, len(theta0))})
    value = float(res.fun)
    theta = np.asarray(res.x, dtype=float)
    gnorm = float(np.max(np.abs(res.jac)))
    if best is not None and best[0] < value:
        value, gnorm, theta = best
    converged = bool(res.success) and gnorm <= gtol
    return OptimizeResult(theta, value, n_evals, converged, gnorm,
                          n_iterations=int(res.nit),
                          hess_inv=np.asarray(res.hess_inv, dtype=float))
