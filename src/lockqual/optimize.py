"""Dense quasi-Newton minimizer used by the covariance-structure fit.

BFGS on the inverse Hessian approximation with an Armijo backtracking
line search. Accepted iterates are monotonically nonincreasing in the
objective; convergence is declared on the max-norm of the gradient.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["OptimResult", "minimize_qn"]

_ARMIJO_C = 1e-4  # sufficient-decrease fraction of the predicted decrease
_BACKTRACK = 0.5  # step factor per failed trial
_MAX_HALVINGS = 60  # trials before the line search gives up


@dataclass(frozen=True)
class OptimResult:
    x: np.ndarray
    fun: float
    grad: np.ndarray
    n_iter: int
    converged: bool
    message: str


def minimize_qn(
    fun: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    gtol: float = 1e-6,
    max_iter: int = 500,
) -> OptimResult:
    x = np.asarray(x0, dtype=float).copy()
    f = fun(x)
    if not math.isfinite(f):
        raise ValueError("objective not finite at the starting point")
    g = grad(x)
    n = x.size
    H = np.eye(n)
    n_iter = 0
    message = "max iterations reached"
    converged = False
    for n_iter in range(1, max_iter + 1):
        gmax = float(np.max(np.abs(g))) if n else 0.0
        if gmax < gtol:
            converged = True
            message = "gradient tolerance reached"
            n_iter -= 1
            break
        d = -H @ g
        slope = float(g @ d)
        if slope >= 0:
            # stale curvature; fall back to steepest descent
            H = np.eye(n)
            d = -g
            slope = float(g @ d)
        step = 1.0
        f_new = None
        x_new = None
        for _ in range(_MAX_HALVINGS):
            cand = x + step * d
            fc = fun(cand)
            if math.isfinite(fc) and fc <= f + _ARMIJO_C * step * slope:
                f_new, x_new = fc, cand
                break
            step *= _BACKTRACK
        if f_new is None:
            message = "line search failed to find a decrease"
            break
        g_new = grad(x_new)
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12:
            rho = 1.0 / sy
            Hy = H @ y
            sh = np.outer(s, Hy)  # its transpose is outer(Hy, s), product for product
            ss = np.outer(s, s)
            H = H - rho * (sh + sh.T) + rho**2 * float(y @ Hy) * ss + rho * ss
        x, f, g = x_new, f_new, g_new
    else:
        n_iter = max_iter
    gmax = float(np.max(np.abs(g))) if n else 0.0
    if gmax < gtol:
        converged = True
        message = "gradient tolerance reached"
    return OptimResult(x=x, fun=f, grad=g, n_iter=n_iter, converged=converged, message=message)
