"""Damped Newton iteration for small square systems.

A system is two callables on a point (a list of n unknowns, as Python
floats): one gives the list of its n residuals, the other the n rows of its
Jacobian.  Recipe systems get both from ``expressions.compile_system``,
which differentiates the equations in forward mode, exactly to roundoff; no
finite-difference step tuning is involved.

The systems are small (six unknowns for the densest recipe), so a numpy
call costs more than the arithmetic it does.  The point, the residuals,
their max-norm and the damped updates are Python floats, and each iteration
makes one numpy call: the linear solve for the Newton step.  That call is
``solve1``, the LAPACK gufunc that ``np.linalg.solve`` itself calls for a
one-dimensional right side, from numpy's private ``_umath_linalg`` module
(the same name in numpy 1.24 through 2.4).  Called directly it gives the same bits in
about half the time on a 6×6 system, whose solve costs less than the
wrapper's shape checks, type promotion and error-state setup;
``tests/test_solve.py`` pins it to ``np.linalg.solve``.  The gufunc returns
nan for a singular matrix where the wrapper raises, and the iteration's
finiteness check turns that into NoConvergence.
"""

import math

import numpy as np
from numpy.linalg._umath_linalg import solve1

from .errors import NoConvergence

_TOL = 1e-12
_MAX_ITER = 60
_MAX_HALVINGS = 40


def _norm(fx: list[float]) -> float:
    """Max-norm of fx; nan when any entry is nan, as ``np.max`` gives."""
    # max() would pass a nan over, as it compares false with everything
    return math.nan if any(map(math.isnan, fx)) else max(map(abs, fx))


def _trial(residuals, x: list[float]) -> tuple[list[float], float]:
    """Residuals at a trial point and their max-norm, which is inf where the
    arithmetic divides by zero or overflows: Python floats raise there, and
    the step is rejected, as numpy's inf or nan rejected it."""
    try:
        f = [float(v) for v in residuals(x)]
    except (ZeroDivisionError, OverflowError):
        return [math.inf] * len(x), math.inf
    return f, _norm(f)


def newton_solve(residuals, jacobian, guess) -> list[float]:
    """Solve the square system F(x) = 0 to max-norm residual <= ``_TOL``.

    ``residuals`` maps a point, a list of floats, to the list of its
    residuals, one per unknown; a system whose residual count differs from
    the unknown count raises ValueError on its first evaluation.
    ``jacobian`` maps a point to the rows of the residuals' partial
    derivatives, one row per residual.  The solution is returned as a new
    list of floats.

    Each of at most ``_MAX_ITER`` iterations takes the full Newton step and
    halves it (up to ``_MAX_HALVINGS`` times) until the residual max-norm
    decreases.  NoConvergence is raised if no damped step improves, if the
    iteration budget runs out, or if the Newton step is not finite, as at a
    singular Jacobian.  A point where the residuals divide by zero or
    overflow (ZeroDivisionError or OverflowError) has an infinite norm: a
    trial step there is rejected, and a guess there leaves no finite Newton
    step, so NoConvergence is raised without evaluating the Jacobian.  A
    Jacobian that is not n×n raises ValueError.

    The only numpy call of an iteration is the ``solve1`` gufunc for the
    step, the one behind ``np.linalg.solve``, under one ``np.errstate`` for
    the whole solve, so a singular matrix's nan step warns nowhere; the rest
    is the same IEEE arithmetic on Python floats that numpy would do element
    by element, so every iterate has numpy's bits.
    """
    x = [float(v) for v in guess]
    fx, norm = _trial(residuals, x)
    if len(fx) != len(x):
        raise ValueError(f"system of {len(fx)} equations with {len(x)} unknowns is not square")
    if not math.isfinite(norm):
        # a non-finite residual gives a non-finite step whatever the Jacobian
        raise NoConvergence("Newton step is not finite")
    with np.errstate(all="ignore"):
        for _ in range(_MAX_ITER):
            if norm <= _TOL:
                return x
            step = solve1(jacobian(x), [-v for v in fx], signature="dd->d").tolist()
            if not all(map(math.isfinite, step)):
                raise NoConvergence("Newton step is not finite")
            scale = 1.0
            for _ in range(_MAX_HALVINGS + 1):
                x_new = [a + scale * d for a, d in zip(x, step)]
                f_new, n_new = _trial(residuals, x_new)
                if n_new < norm or n_new <= _TOL:
                    x, fx, norm = x_new, f_new, n_new
                    break
                scale *= 0.5
            else:
                raise NoConvergence(f"no damped step reduced the residual below {norm:.3e}")
    if norm <= _TOL:
        return x
    raise NoConvergence(f"residual {norm:.3e} after {_MAX_ITER} iterations (tol {_TOL:.1e})")
