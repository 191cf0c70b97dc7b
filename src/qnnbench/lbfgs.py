"""Unconstrained limited-memory quasi-Newton minimiser (L-BFGS).

Search directions come from the standard two-loop recursion over the last
``memory`` curvature pairs, with the initial inverse-Hessian scaled by
gamma = s.y / y.y.  Steps use a strong-Wolfe line search (c1 = 1e-4,
c2 = 0.9) with cubic interpolation, followed by one secant refinement of
the step length; the refinement makes line searches exact on quadratics,
so the method inherits conjugate-gradient-style finite termination there.

The objective and gradient callbacks are only ever invoked from the
calling thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9

MAX_ITER_TERMINATION = "max_iter"
GRAD_TOL_TERMINATION = "grad_tol"
LINE_SEARCH_FAIL_TERMINATION = "line_search_fail"


@dataclass
class OptimizeOptions:
    max_iter: int = 25
    grad_tol: float = 1e-8
    memory: int = 10

    def validate(self) -> None:
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be > 0")
        if self.memory < 1:
            raise ValueError("memory must be >= 1")


@dataclass
class OptimizeResult:
    x_final: np.ndarray
    f_final: float
    f_history: np.ndarray = field(repr=False)  # objective at each accepted iterate
    n_iters: int
    termination: str


def _grad_norm(g):
    return float(np.max(np.abs(g))) if g.size else 0.0


def _two_loop_direction(g, s_hist, y_hist, rho_hist):
    q = g.copy()
    alphas = []
    for s, y, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    if y_hist:
        s, y = s_hist[-1], y_hist[-1]
        q *= float(s @ y) / float(y @ y)
    for (s, y, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
        b = rho * float(y @ q)
        q += (a - b) * s
    return -q


def _cubic_step(a_lo, f_lo, g_lo, a_hi, f_hi, g_hi):
    """Minimiser of the cubic Hermite interpolant; NaN when degenerate."""
    d1 = g_lo + g_hi - 3.0 * (f_lo - f_hi) / (a_lo - a_hi)
    radical = d1 * d1 - g_lo * g_hi
    if radical < 0:
        return np.nan
    d2 = np.sign(a_hi - a_lo) * np.sqrt(radical)
    denom = g_hi - g_lo + 2.0 * d2
    if denom == 0:
        return np.nan
    return a_hi - (a_hi - a_lo) * (g_hi + d2 - d1) / denom


class _LineFunction:
    """phi(alpha) = f(x + alpha*d), keeping every evaluation so the accepted
    step's objective and gradient are read back, never recomputed."""

    def __init__(self, f, grad, x, d):
        self.f, self.grad, self.x, self.d = f, grad, x, d
        self.evals = {}  # alpha -> (f, g)

    def __call__(self, alpha):
        xa = self.x + alpha * self.d
        fa = float(self.f(xa))
        if not np.isfinite(fa):
            fa = np.inf
        ga = np.asarray(self.grad(xa), dtype=float)
        dphi = float(ga @ self.d)
        self.evals[alpha] = (fa, ga)
        return fa, dphi


def _wolfe_accept(phi0, dphi0, alpha, fa, dphia):
    armijo = fa <= phi0 + WOLFE_C1 * alpha * dphi0
    curvature = abs(dphia) <= -WOLFE_C2 * dphi0
    return armijo and curvature


def _secant_refine(line, phi0, dphi0, alpha, fa, dphia):
    """One secant step of phi' toward the line minimum; exact on quadratics.

    Only replaces the already-acceptable ``alpha`` when the refined point
    also satisfies strong Wolfe and does not increase phi.
    """
    if abs(dphia) <= 1e-12 * max(1.0, abs(dphi0)):
        return alpha
    denom = dphi0 - dphia
    if denom == 0:
        return alpha
    alpha_s = alpha * dphi0 / denom
    if not np.isfinite(alpha_s) or not 0.0 < alpha_s < 10.0 * alpha or alpha_s == alpha:
        return alpha
    fs, dphis = line(alpha_s)
    if fs <= fa and _wolfe_accept(phi0, dphi0, alpha_s, fs, dphis):
        return alpha_s
    return alpha


def _zoom(line, phi0, dphi0, a_lo, f_lo, g_lo, a_hi, f_hi, g_hi, max_iter=30):
    for _ in range(max_iter):
        a = _cubic_step(a_lo, f_lo, g_lo, a_hi, f_hi, g_hi)
        span = abs(a_hi - a_lo)
        inner_lo, inner_hi = min(a_lo, a_hi), max(a_lo, a_hi)
        if not np.isfinite(a) or not inner_lo + 0.05 * span < a < inner_hi - 0.05 * span:
            a = 0.5 * (a_lo + a_hi)
        fa, dphia = line(a)
        if fa > phi0 + WOLFE_C1 * a * dphi0 or fa >= f_lo:
            a_hi, f_hi, g_hi = a, fa, dphia
        else:
            if abs(dphia) <= -WOLFE_C2 * dphi0:
                return a
            if dphia * (a_hi - a_lo) >= 0:
                a_hi, f_hi, g_hi = a_lo, f_lo, g_lo
            a_lo, f_lo, g_lo = a, fa, dphia
        if span <= 1e-16 * max(1.0, abs(a_lo)):
            break
    return None


def _wolfe_line_search(line, phi0, dphi0, alpha_init, max_expand=25):
    """Strong-Wolfe step length, or None on failure."""
    a_prev, f_prev, g_prev = 0.0, phi0, dphi0
    a = alpha_init
    for i in range(max_expand):
        fa, dphia = line(a)
        if fa > phi0 + WOLFE_C1 * a * dphi0 or (i > 0 and fa >= f_prev):
            return _zoom(line, phi0, dphi0, a_prev, f_prev, g_prev, a, fa, dphia)
        if abs(dphia) <= -WOLFE_C2 * dphi0:
            return _secant_refine(line, phi0, dphi0, a, fa, dphia)
        if dphia >= 0:
            return _zoom(line, phi0, dphi0, a, fa, dphia, a_prev, f_prev, g_prev)
        a_prev, f_prev, g_prev = a, fa, dphia
        a = 2.0 * a
    return None


def minimize(f, grad, x0, options: OptimizeOptions | None = None) -> OptimizeResult:
    """Minimise ``f`` from ``x0`` using its gradient callback.

    Stops when the gradient infinity-norm drops to ``options.grad_tol``,
    after ``options.max_iter`` accepted iterations, or when the line search
    cannot make progress (the best iterate found so far is returned in that
    case).
    """
    opts = options if options is not None else OptimizeOptions()
    x = np.array(x0, dtype=float).reshape(-1).copy()
    opts.validate()

    fx = float(f(x))
    if not np.isfinite(fx):
        raise ValueError("objective is not finite at x0")
    g = np.asarray(grad(x), dtype=float)

    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    rho_hist: list[float] = []
    f_history: list[float] = []
    termination = None

    for _ in range(opts.max_iter):
        if _grad_norm(g) <= opts.grad_tol:
            termination = GRAD_TOL_TERMINATION
            break
        d = _two_loop_direction(g, s_hist, y_hist, rho_hist)
        if float(d @ g) >= 0:  # keep a descent direction under bad curvature
            d = -g

        if s_hist:
            alpha_init = 1.0
        else:
            alpha_init = min(1.0, 1.0 / max(1e-12, float(np.linalg.norm(g))))
        line = _LineFunction(f, grad, x, d)
        alpha = _wolfe_line_search(line, fx, float(g @ d), alpha_init)
        if alpha is None:
            termination = LINE_SEARCH_FAIL_TERMINATION
            break
        f_new, g_new = line.evals[alpha]
        x_new = x + alpha * d

        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            s_hist.append(s)
            y_hist.append(y)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > opts.memory:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)
        x, fx, g = x_new, f_new, g_new
        f_history.append(fx)

    if termination is None:
        if _grad_norm(g) <= opts.grad_tol:
            termination = GRAD_TOL_TERMINATION
        else:
            termination = MAX_ITER_TERMINATION

    return OptimizeResult(
        x_final=x,
        f_final=fx,
        f_history=np.asarray(f_history, dtype=float),
        n_iters=len(f_history),
        termination=termination,
    )
