import numpy as np
import pytest

from qnnbench.lbfgs import (
    GRAD_TOL_TERMINATION,
    LINE_SEARCH_FAIL_TERMINATION,
    MAX_ITER_TERMINATION,
    WOLFE_C1,
    WOLFE_C2,
    OptimizeOptions,
    minimize,
)


def quadratic(target):
    target = np.asarray(target, dtype=float)
    return (
        lambda x: float(np.sum((x - target) ** 2)),
        lambda x: 2.0 * (x - target),
    )


def rosenbrock(x):
    return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)


def rosenbrock_grad(x):
    return np.array(
        [
            -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
            200.0 * (x[1] - x[0] ** 2),
        ]
    )


class TestQuadratics:
    def test_shifted_quadratic_in_three_iterations(self):
        f, g = quadratic([1.0, 2.0, 3.0])
        result = minimize(f, g, np.zeros(3), OptimizeOptions(max_iter=3, grad_tol=1e-10))
        np.testing.assert_allclose(result.x_final, [1.0, 2.0, 3.0], atol=1e-8)
        assert result.n_iters <= 3

    def test_random_spd_quadratics_terminate_in_dim_plus_one(self, rng):
        # finite termination on quadratics of any dimension up to the memory
        for _ in range(40):
            dim = int(rng.integers(2, 11))
            basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
            eigenvalues = rng.uniform(0.5, 50.0, dim)
            matrix = basis @ np.diag(eigenvalues) @ basis.T
            offset = rng.normal(size=dim)
            f = lambda x: float(0.5 * x @ matrix @ x + offset @ x)
            g = lambda x: matrix @ x + offset
            result = minimize(
                f, g, rng.normal(size=dim),
                OptimizeOptions(max_iter=dim + 1, grad_tol=1e-10, memory=10),
            )
            assert result.termination == GRAD_TOL_TERMINATION
            assert float(np.max(np.abs(g(result.x_final)))) <= 1e-10


class TestRosenbrock:
    def test_reaches_reference_minimum(self):
        result = minimize(
            rosenbrock, rosenbrock_grad, np.array([-1.2, 1.0]),
            OptimizeOptions(max_iter=100, grad_tol=1e-10),
        )
        assert result.f_final < 1e-6
        np.testing.assert_allclose(result.x_final, [1.0, 1.0], atol=1e-4)

    def test_agrees_with_independent_optimizer(self):
        scipy_opt = pytest.importorskip("scipy.optimize")
        reference = scipy_opt.minimize(
            rosenbrock, np.array([-1.2, 1.0]), jac=rosenbrock_grad, method="L-BFGS-B"
        )
        result = minimize(
            rosenbrock, rosenbrock_grad, np.array([-1.2, 1.0]),
            OptimizeOptions(max_iter=100, grad_tol=1e-10),
        )
        assert result.f_final <= reference.fun + 1e-6


class TestContracts:
    def test_iteration_and_history_caps(self):
        f, g = quadratic(np.arange(30.0))
        result = minimize(f, g, np.zeros(30), OptimizeOptions(max_iter=25))
        assert result.n_iters <= 25
        assert len(result.f_history) <= 25
        assert len(result.f_history) == result.n_iters

    def test_history_is_non_increasing(self, rng):
        result = minimize(
            rosenbrock, rosenbrock_grad, np.array([-1.2, 1.0]),
            OptimizeOptions(max_iter=100),
        )
        assert np.all(np.diff(result.f_history) <= 1e-14)

    def test_max_iter_termination_reported(self):
        result = minimize(
            rosenbrock, rosenbrock_grad, np.array([-1.2, 1.0]),
            OptimizeOptions(max_iter=3, grad_tol=1e-12),
        )
        assert result.termination == MAX_ITER_TERMINATION
        assert result.n_iters == 3

    def test_strong_wolfe_conditions_hold_at_accepted_steps(self, rng):
        """The line search only returns steps satisfying both strong-Wolfe
        conditions, checked here directly on assorted 1-D sections."""
        from qnnbench.lbfgs import _LineFunction, _wolfe_line_search

        cases = [(rosenbrock, rosenbrock_grad, np.array([-1.2, 1.0]))]
        for _ in range(10):
            target = rng.normal(size=4)
            cases.append(
                (
                    lambda x, t=target: float(np.sum((x - t) ** 4 + (x - t) ** 2)),
                    lambda x, t=target: 4.0 * (x - t) ** 3 + 2.0 * (x - t),
                    rng.normal(size=4),
                )
            )
        for f, g, x0 in cases:
            gx = np.asarray(g(x0), dtype=float)
            direction = -gx
            line = _LineFunction(f, g, x0, direction)
            phi0, dphi0 = float(f(x0)), float(gx @ direction)
            alpha = _wolfe_line_search(line, phi0, dphi0, 1.0)
            assert alpha is not None
            fa, dphia = line(alpha)
            assert fa <= phi0 + WOLFE_C1 * alpha * dphi0 + 1e-15
            assert abs(dphia) <= -WOLFE_C2 * dphi0 + 1e-15

    def test_non_finite_start_rejected(self):
        f = lambda x: float("nan")
        g = lambda x: np.zeros_like(x)
        with pytest.raises(ValueError):
            minimize(f, g, np.zeros(2))

    def test_line_search_failure_returns_best_iterate(self):
        # gradient deliberately inconsistent with f: claims descent where
        # none exists, so no step can satisfy the Armijo condition
        f = lambda x: float(np.sum(x**2))
        g = lambda x: -np.ones_like(x)
        result = minimize(f, g, np.array([1.0, 1.0]), OptimizeOptions(max_iter=10))
        assert result.termination == LINE_SEARCH_FAIL_TERMINATION
        np.testing.assert_allclose(result.x_final, [1.0, 1.0])


class TestOptionValidation:
    def test_bad_options_rejected(self):
        f, g = quadratic([0.0])
        for options in (
            OptimizeOptions(max_iter=0),
            OptimizeOptions(grad_tol=0.0),
            OptimizeOptions(memory=0),
        ):
            with pytest.raises(ValueError):
                minimize(f, g, np.zeros(1), options)
