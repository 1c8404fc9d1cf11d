"""Forward-mode duals and the damped Newton driver."""

import math

import numpy as np
import pytest

from bidisc.errors import NoConvergence, SingularJacobian
from bidisc.solve import Dual, newton_solve


def grad_of(f, x, i):
    """i-th partial of scalar f at point x via Dual evaluation."""
    duals = Dual.seed(np.asarray(x, dtype=float))
    out = f(duals)
    return out.grad[i]


def test_dual_arithmetic_derivatives():
    # d/dx of x*y + y/x - x**3 + 2 at (2, 5)
    f = lambda q: q[0] * q[1] + q[1] / q[0] - q[0] ** 3 + 2
    assert math.isclose(grad_of(f, (2.0, 5.0), 0), 5.0 - 5.0 / 4.0 - 12.0, rel_tol=1e-14)
    assert math.isclose(grad_of(f, (2.0, 5.0), 1), 2.0 + 0.5, rel_tol=1e-14)


def test_dual_right_hand_operators():
    f = lambda q: 3.0 - q[0]
    assert grad_of(f, (1.0,), 0) == -1.0
    g = lambda q: 2.0 / q[0]
    assert math.isclose(grad_of(g, (4.0,), 0), -2.0 / 16.0, rel_tol=1e-14)
    h = lambda q: 5 + q[0]
    assert grad_of(h, (1.0,), 0) == 1.0


def test_dual_pow():
    f = lambda q: q[0] ** 4
    assert math.isclose(grad_of(f, (3.0,), 0), 4 * 27.0, rel_tol=1e-14)
    g = lambda q: q[0] ** -2
    assert math.isclose(grad_of(g, (2.0,), 0), -2.0 / 8.0, rel_tol=1e-14)
    assert grad_of(lambda q: q[0] ** 0, (7.0,), 0) == 0.0


def test_newton_circle_line():
    # x^2 + y^2 = 25 and x + y = 7 -> (3, 4) from a nearby start
    def system(q):
        return [q[0] ** 2 + q[1] ** 2 - 25.0, q[0] + q[1] - 7.0]
    sol = newton_solve(system, [2.5, 4.5])
    assert np.allclose(sol, [3.0, 4.0], atol=1e-10)
    assert abs(sol[0] ** 2 + sol[1] ** 2 - 25.0) <= 1e-11


def test_newton_tangent_triangle():
    # mutually tangent discs: unit at origin, unit at (2, 0), third of
    # radius 1/2 above; exact center x=1, y=sqrt(5)/2
    r = 0.5
    def system(q):
        return [q[0] ** 2 + q[1] ** 2 - (1 + r) ** 2,
                (q[0] - 2.0) ** 2 + q[1] ** 2 - (1 + r) ** 2]
    sol = newton_solve(system, [1.1, 1.0])
    assert np.allclose(sol, [1.0, math.sqrt(5.0) / 2.0], atol=1e-12)


def test_newton_needs_square_system():
    with pytest.raises(ValueError):
        newton_solve(lambda q: [q[0]], [1.0, 2.0])
    with pytest.raises(ValueError):
        newton_solve(lambda q: [q[0], q[0] - 1.0], [1.0])


def test_newton_singular_jacobian():
    # second equation is a multiple of the first, so the Jacobian has
    # rank 1 everywhere and the very first linear solve must fail
    def system(q):
        return [q[0] ** 2 + q[1] - 1.0, 2.0 * (q[0] ** 2 + q[1] - 1.0)]
    with pytest.raises(SingularJacobian):
        newton_solve(system, [3.0, 3.0])


def test_newton_plain_number_residual_has_zero_gradient():
    # the second residual does not depend on q, so it stays a float on
    # Dual input; its Jacobian row is zero and the linear solve fails
    with pytest.raises(SingularJacobian):
        newton_solve(lambda q: [q[0] - 1.0, 0.5], [0.0, 0.0])


def test_newton_no_convergence():
    # residual 1 everywhere but nonzero slope: every step fails to improve
    system = lambda q: [1.0 + 0.0 * q[0]]
    with pytest.raises((NoConvergence, SingularJacobian)):
        newton_solve(system, [0.0], max_iter=5)


def test_newton_damping_reaches_distant_root():
    # steep exponential-free analogue: x^5 = 32, full steps overshoot badly
    system = lambda q: [q[0] ** 5 - 32.0]
    sol = newton_solve(system, [40.0])
    assert math.isclose(sol[0], 2.0, rel_tol=1e-12)


def test_newton_immediate_return_at_root():
    system = lambda q: [q[0] - 1.0, q[1] + 2.0]
    sol = newton_solve(system, [1.0, -2.0])
    assert sol.tolist() == [1.0, -2.0]
