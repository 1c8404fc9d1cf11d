"""Damped Newton iteration for small square systems.

A system is two callables on a point (a sequence of n unknowns): one gives
the list of its n residuals, the other the n rows of its Jacobian.  Recipe
systems get both from ``expressions.compile_system``, which differentiates
the equations in forward mode, exactly to roundoff; no finite-difference
step tuning is involved.
"""

import numpy as np

from .errors import NoConvergence, SingularJacobian

_MAX_HALVINGS = 40


def _residuals(residuals, x):
    return np.array([float(v) for v in residuals(x)], dtype=float)


def newton_solve(residuals, jacobian, guess, tol: float = 1e-12, *,
                 max_iter: int = 60) -> np.ndarray:
    """Solve the square system F(x) = 0 to max-norm residual <= tol.

    ``residuals`` maps a point to the list of its residuals, one per
    unknown; a system whose residual count differs from the unknown count
    raises ValueError on its first evaluation.  ``jacobian`` maps a point
    to the rows of the residuals' partial derivatives, one row per
    residual.

    Each iteration takes the full Newton step and halves it (up to
    ``_MAX_HALVINGS`` times) until the residual max-norm decreases; if no
    damped step improves, or the iteration budget runs out, NoConvergence is
    raised.  A singular Jacobian raises SingularJacobian.
    """
    x = np.asarray(guess, dtype=float).copy()
    fx = _residuals(residuals, x)
    if fx.size != x.size:
        raise ValueError(f"system of {fx.size} equations with {x.size} unknowns is not square")
    norm = np.max(np.abs(fx))
    for _ in range(max_iter):
        if norm <= tol:
            return x
        jac = np.array(jacobian(x), dtype=float)
        try:
            step = np.linalg.solve(jac, -fx)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(str(exc)) from exc
        if not np.all(np.isfinite(step)):
            raise SingularJacobian("Newton step is not finite")
        scale = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            x_new = x + scale * step
            f_new = _residuals(residuals, x_new)
            n_new = np.max(np.abs(f_new))
            if n_new < norm or n_new <= tol:
                x, fx, norm = x_new, f_new, n_new
                break
            scale *= 0.5
        else:
            raise NoConvergence(f"no damped step reduced the residual below {norm:.3e}")
    if norm <= tol:
        return x
    raise NoConvergence(f"residual {norm:.3e} after {max_iter} iterations (tol {tol:.1e})")
