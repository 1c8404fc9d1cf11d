"""Forward-mode Jacobians of compiled systems and the damped Newton driver."""

import math
import warnings

import numpy as np
import pytest

from bidisc import solve
from bidisc.errors import NoConvergence
from bidisc.expressions import Expr, compile_system
from bidisc.solve import newton_solve


def grad_of(src, x, i):
    """i-th partial of the expression src in q0, q1, ... at point x, from
    the compiled Jacobian."""
    unknowns = tuple(f"q{k}" for k in range(len(x)))
    jacobian = compile_system(unknowns, (), [Expr(src, unknowns)], ())[1]
    return jacobian(x, 0.0)[0][i]


def test_jacobian_arithmetic_derivatives():
    # d/dx of x*y + y/x - x**3 + 2 at (2, 5)
    f = "q0 * q1 + q1 / q0 - q0 ** 3 + 2"
    assert math.isclose(grad_of(f, (2.0, 5.0), 0), 5.0 - 5.0 / 4.0 - 12.0, rel_tol=1e-14)
    assert math.isclose(grad_of(f, (2.0, 5.0), 1), 2.0 + 0.5, rel_tol=1e-14)


def test_jacobian_right_hand_operators():
    assert grad_of("3.0 - q0", (1.0,), 0) == -1.0
    assert math.isclose(grad_of("2.0 / q0", (4.0,), 0), -2.0 / 16.0, rel_tol=1e-14)
    assert grad_of("5 + q0", (1.0,), 0) == 1.0


def test_jacobian_pow():
    assert math.isclose(grad_of("q0 ** 4", (3.0,), 0), 4 * 27.0, rel_tol=1e-14)
    assert math.isclose(grad_of("q0 ** -2", (2.0,), 0), -2.0 / 8.0, rel_tol=1e-14)
    assert grad_of("q0 ** 0", (7.0,), 0) == 0.0


def test_newton_circle_line():
    # x^2 + y^2 = 25 and x + y = 7 -> (3, 4) from a nearby start
    def system(q):
        return [q[0] ** 2 + q[1] ** 2 - 25.0, q[0] + q[1] - 7.0]

    def jacobian(q):
        return [[2.0 * q[0], 2.0 * q[1]], [1.0, 1.0]]
    sol = newton_solve(system, jacobian, [2.5, 4.5])
    assert np.allclose(sol, [3.0, 4.0], atol=1e-10)
    assert abs(sol[0] ** 2 + sol[1] ** 2 - 25.0) <= 1e-11


def test_newton_tangent_triangle():
    # mutually tangent discs: unit at origin, unit at (2, 0), third of
    # radius 1/2 above; exact center x=1, y=sqrt(5)/2
    r = 0.5
    def system(q):
        return [q[0] ** 2 + q[1] ** 2 - (1 + r) ** 2,
                (q[0] - 2.0) ** 2 + q[1] ** 2 - (1 + r) ** 2]

    def jacobian(q):
        return [[2.0 * q[0], 2.0 * q[1]], [2.0 * (q[0] - 2.0), 2.0 * q[1]]]
    sol = newton_solve(system, jacobian, [1.1, 1.0])
    assert np.allclose(sol, [1.0, math.sqrt(5.0) / 2.0], atol=1e-12)


def test_newton_needs_square_system():
    with pytest.raises(ValueError):
        newton_solve(lambda q: [q[0]], lambda q: [[1.0, 0.0]], [1.0, 2.0])
    with pytest.raises(ValueError):
        newton_solve(lambda q: [q[0], q[0] - 1.0], lambda q: [[1.0], [1.0]], [1.0])



def test_newton_singular_jacobian():
    # second equation is a multiple of the first, so the Jacobian has
    # rank 1 everywhere and the very first linear solve must fail
    def system(q):
        return [q[0] ** 2 + q[1] - 1.0, 2.0 * (q[0] ** 2 + q[1] - 1.0)]

    def jacobian(q):
        return [[2.0 * q[0], 1.0], [4.0 * q[0], 2.0]]
    with pytest.raises(NoConvergence, match="^Newton step is not finite$"):
        newton_solve(system, jacobian, [3.0, 3.0])


def test_newton_plain_number_residual_has_zero_gradient():
    # the second residual does not depend on q, so its Jacobian row is
    # zero and the linear solve fails
    with pytest.raises(NoConvergence, match="^Newton step is not finite$"):
        newton_solve(lambda q: [q[0] - 1.0, 0.5], lambda q: [[1.0, 0.0], [0.0, 0.0]],
                     [0.0, 0.0])


def test_newton_no_convergence(monkeypatch):
    # residual 1 everywhere but nonzero slope: every step fails to improve
    monkeypatch.setattr(solve, "_MAX_ITER", 5)
    system = lambda q: [1.0 + 0.0 * q[0]]
    with pytest.raises(NoConvergence):
        newton_solve(system, lambda q: [[0.0]], [0.0])


def test_newton_budget_runs_out(monkeypatch):
    # x^5 = 32 from 40 needs more than two iterations
    monkeypatch.setattr(solve, "_MAX_ITER", 2)
    with pytest.raises(NoConvergence, match=r"after 2 iterations \(tol 1\.0e-12\)$"):
        newton_solve(lambda q: [q[0] ** 5 - 32.0], lambda q: [[5.0 * q[0] ** 4]], [40.0])


def test_newton_damping_reaches_distant_root():
    # steep exponential-free analogue: x^5 = 32, full steps overshoot badly
    system = lambda q: [q[0] ** 5 - 32.0]
    sol = newton_solve(system, lambda q: [[5.0 * q[0] ** 4]], [40.0])
    assert math.isclose(sol[0], 2.0, rel_tol=1e-12)


def test_newton_immediate_return_at_root():
    system = lambda q: [q[0] - 1.0, q[1] + 2.0]
    guess = [1.0, -2.0]
    sol = newton_solve(system, lambda q: [[1.0, 0.0], [0.0, 1.0]], guess)
    assert sol == [1.0, -2.0] and sol is not guess


# The numpy form of newton_solve, as it was before the iteration moved to
# Python floats: the point and the residuals are ndarrays, and the callbacks
# see an ndarray point.  A singular matrix, where np.linalg.solve raises, is
# a NoConvergence as in newton_solve, and the solution is returned as a list.

def _numpy_newton(residuals, jacobian, guess, tol=1e-12):
    def evaluate(x):
        return np.array([float(v) for v in residuals(x)], dtype=float)

    x = np.asarray(guess, dtype=float).copy()
    fx = evaluate(x)
    if fx.size != x.size:
        raise ValueError(f"system of {fx.size} equations with {x.size} unknowns is not square")
    norm = np.max(np.abs(fx))
    for _ in range(solve._MAX_ITER):
        if norm <= tol:
            return x.tolist()
        jac = np.array(jacobian(x), dtype=float)
        try:
            step = np.linalg.solve(jac, -fx)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(str(exc)) from exc
        if not np.all(np.isfinite(step)):
            raise NoConvergence("Newton step is not finite")
        scale = 1.0
        for _ in range(41):
            x_new = x + scale * step
            f_new = evaluate(x_new)
            n_new = np.max(np.abs(f_new))
            if n_new < norm or n_new <= tol:
                x, fx, norm = x_new, f_new, n_new
                break
            scale *= 0.5
        else:
            raise NoConvergence(f"no damped step reduced the residual below {norm:.3e}")
    if norm <= tol:
        return x.tolist()
    raise NoConvergence(f"residual {norm:.3e} after {solve._MAX_ITER} iterations "
                        f"(tol {tol:.1e})")


def _outcome(solver, residuals, jacobian, guess, log):
    """The solver's result or error, with every point its callbacks saw
    appended to log as ("F" or "J", repr of the point's floats)."""
    def traced(kind, fn):
        def call(q):
            log.append((kind, repr([float(v) for v in q])))
            return fn(q)
        return call

    try:
        with np.errstate(all="ignore"):
            sol = solver(traced("F", residuals), traced("J", jacobian), guess)
    except (ValueError, NoConvergence) as exc:
        return type(exc).__name__, str(exc)
    assert type(sol) is list and all(type(v) is float for v in sol)
    return repr(sol)


def test_replays_lower_sweep_as_numpy_form(monkeypatch):
    # every Newton solve of a cold lower sweep, replayed from its recorded
    # system and guess: the same solutions, at the same points, with the
    # same number of linear solves
    import io
    from contextlib import redirect_stderr, redirect_stdout

    from bidisc import cli, flows

    recorded = []
    real = flows.newton_solve

    def recording(residuals, jacobian, guess):
        recorded.append((residuals, jacobian, [float(v) for v in guess]))
        return real(residuals, jacobian, guess)

    flows.clear_continuation_cache()
    with monkeypatch.context() as mp:
        mp.setattr(flows, "newton_solve", recording)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert cli.main(["lower", "--range", "0.36:0.99", "--step", "0.001"]) == 0
    flows.clear_continuation_cache()
    assert len(recorded) > 600

    # the numpy form calls np.linalg.solve once per Jacobian; the float
    # form calls the gufunc behind it, once per Jacobian too, so its solves
    # are counted by its "J" log entries
    numpy_solves = 0
    lapack = np.linalg.solve

    def counting(a, b):
        nonlocal numpy_solves
        numpy_solves += 1
        return lapack(a, b)

    replays = {}
    for side, solver in (("numpy", _numpy_newton), ("floats", newton_solve)):
        logs, outcomes = [], []
        with monkeypatch.context() as mp:
            mp.setattr(np.linalg, "solve", counting)
            for residuals, jacobian, guess in recorded:
                log = []
                outcomes.append(_outcome(solver, residuals, jacobian, guess, log))
                logs.append(log)
        replays[side] = outcomes, logs
    assert replays["floats"] == replays["numpy"]
    assert numpy_solves == sum(kind == "J" for log in replays["floats"][1] for kind, _ in log)


def test_compiled_code_on_floats_matches_float64():
    # the continuation calls the compiled recipe code on lists of floats;
    # it must give the bits that ndarray points (numpy float64 scalars) gave
    from bidisc.flows import builtin_recipes

    recipe = builtin_recipes()["flow-r6-1"]
    residuals, _, values = recipe.compiled
    scope = ("x", "y", "r", "d")
    mixed = compile_system(
        ("x", "y"), [("d", Expr("x / y - y ** -2 + 3 * x ** 2 * r", scope[:3]))],
        [Expr("d ** -2 - x / (y + 2)", scope), Expr("(x - y) ** 3 / d - 1", scope)],
        [Expr("d / x ** -1 - r ** -2", scope), Expr("0", scope)])
    systems = [(residuals, values, np.array(recipe.guess), 0.05),
               (mixed[0], mixed[2], np.array([0.7, 1.3]), 0.5)]
    rng = np.random.default_rng(20261019)
    for fresiduals, fvalues, centre, spread in systems:
        for _ in range(1000):
            q = centre + rng.uniform(-spread, spread, size=centre.size)
            r = float(rng.uniform(0.36, 0.99))
            for fn in (fresiduals, fvalues):
                on_floats = fn(q.tolist(), r)
                assert all(type(v) in (float, int) for v in on_floats)
                assert (repr([float(v) for v in on_floats])
                        == repr([float(v) for v in fn(q, r)]))


@pytest.mark.parametrize("residuals,jacobian,guess", [
    # the full step lands on q0 = 0, where q0 / q0 divides by zero
    (lambda q: [q[0] - 1.0 + q[0] / q[0] - 1.0], lambda q: [[0.5]], [2.0]),
    # ... and where a negative power of zero is taken
    (lambda q: [q[0] ** -2 - 4.0], lambda q: [[-3.0]], [1.0]),
    # steps that overflow q0 ** 400 before the damping reaches the root
    (lambda q: [q[0] - 2.0 + 0.0 * q[0] ** 400], lambda q: [[0.1]], [1.0]),
    # a guess at the zero denominator leaves no finite step
    (lambda q: [q[0] - 1.0 + q[0] / q[0] - 1.0], lambda q: [[0.5]], [0.0]),
], ids=["division", "negative-power", "overflow", "guess"])
def test_arithmetic_error_at_trial_point_ends_as_numpy_form(residuals, jacobian, guess):
    # Python floats raise where numpy gave inf or nan; a trial point there
    # is a rejected step, as numpy's non-finite residual was
    expect = _outcome(_numpy_newton, residuals, jacobian, guess, [])
    assert _outcome(newton_solve, residuals, jacobian, guess, []) == expect


def test_compiled_guess_at_a_pole_has_no_step():
    # the guess case on compiled code, whose Jacobian divides by zero at
    # the guess too: the Jacobian is never evaluated there
    residuals, jacobian = compile_system(
        ("q0",), (), [Expr("q0 - 1 + q0 / q0 - 1", ("q0",))], ())[:2]
    with pytest.raises(ZeroDivisionError):
        jacobian([0.0], 0.0)
    with pytest.raises(NoConvergence, match="^Newton step is not finite$"):
        newton_solve(lambda q: residuals(q, 0.0), lambda q: jacobian(q, 0.0), [0.0])


def _first_step(jacobian, b):
    """newton_solve's first Newton step for J q = b from q = 0: its first
    trial point, 0 + 1.0 * step, which is the step's value."""
    points = []

    def residuals(q):
        points.append(list(q))
        return [sum(a * v for a, v in zip(row, q)) - c for row, c in zip(jacobian, b)]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solve, "_MAX_ITER", 1)
        try:
            newton_solve(residuals, lambda q: jacobian, [0.0] * len(b))
        except NoConvergence:
            pass
    return points[1]


@pytest.mark.parametrize("n", [1, 2, 6])
@pytest.mark.parametrize("condition", [1.0, 1e12])
def test_step_bits_equal_numpy_solve(n, condition):
    # the gufunc called directly gives np.linalg.solve's bits, on well and
    # badly conditioned systems
    rng = np.random.default_rng(20261020 + n)
    for _ in range(50):
        left, _ = np.linalg.qr(rng.normal(size=(n, n)))
        right, _ = np.linalg.qr(rng.normal(size=(n, n)))
        scales = np.logspace(0.0, -math.log10(condition), n) * rng.uniform(0.1, 10.0)
        jacobian = (left * scales) @ right.T
        b = rng.normal(size=n)
        expect = np.linalg.solve(jacobian, b)
        got = _first_step(jacobian.tolist(), b.tolist())
        assert np.array_equal(got, expect)


def test_singular_jacobian_does_not_warn():
    # a singular matrix is a nan step from the gufunc, a NoConvergence
    # from newton_solve, and no RuntimeWarning on the way
    jacobian = [[1.0, 2.0], [2.0, 4.0]]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(jacobian, [1.0, 1.0])
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConvergence, match="Newton step is not finite"):
            newton_solve(lambda q: [q[0] - 1.0, q[1]], lambda q: jacobian, [0.0, 0.0])
    assert np.geterr() == before


@pytest.mark.parametrize("jacobian", [
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    [[1.0], [1.0]],
    [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
    [[1.0, 0.0], [1.0]],
], ids=["wide", "narrow", "tall", "ragged"])
def test_jacobian_not_n_by_n_is_value_error(jacobian):
    with pytest.raises(ValueError):
        newton_solve(lambda q: [q[0] - 1.0, q[1] - 1.0], lambda q: jacobian, [0.0, 0.0])
