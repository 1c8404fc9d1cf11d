"""Damped Newton iteration for small square systems.

A system is one callable that maps a point (a sequence of n unknowns) to the
list of its n residuals, so work shared by the equations is done once per
point.  The Jacobian is obtained by forward-mode differentiation: the system
is evaluated on ``Dual`` numbers, so any function written with plain
arithmetic (+, -, *, /, integer **) differentiates exactly to roundoff.  No
finite-difference step tuning is involved.
"""

import numpy as np

from .errors import NoConvergence, SingularJacobian


class Dual:
    """Scalar value paired with a gradient vector."""

    __slots__ = ("val", "grad")

    def __init__(self, val: float, grad):
        self.val = float(val)
        self.grad = np.asarray(grad, dtype=float)

    @classmethod
    def seed(cls, values) -> list["Dual"]:
        values = np.asarray(values, dtype=float)
        eye = np.eye(values.size)
        return [cls(v, row) for v, row in zip(values, eye)]

    def _lift(self, other):
        if isinstance(other, Dual):
            return other
        if isinstance(other, (int, float)):
            return Dual(other, np.zeros_like(self.grad))
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Dual(self.val + o.val, self.grad + o.grad)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, -self.grad)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Dual(self.val - o.val, self.grad - o.grad)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Dual(self.val * o.val, self.grad * o.val + self.val * o.grad)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        inv = 1.0 / o.val
        return Dual(self.val * inv, (self.grad - self.val * inv * o.grad) * inv)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return Dual(1.0, np.zeros_like(self.grad))
        if n < 0:
            return 1.0 / self.__pow__(-n)
        v = self.val ** (n - 1)
        return Dual(v * self.val, n * v * self.grad)

    def __repr__(self):
        return f"Dual({self.val!r}, {self.grad!r})"


def _residuals(system, x):
    return np.array([float(v) for v in system(x)], dtype=float)


def newton_solve(system, guess, tol: float = 1e-12, *,
                 max_iter: int = 60, max_halvings: int = 40) -> np.ndarray:
    """Solve the square system F(x) = 0 to max-norm residual <= tol.

    ``system`` maps a point to the list of its residuals, one per unknown;
    a system whose residual count differs from the unknown count raises
    ValueError on its first evaluation.  Jacobian rows come from evaluating
    it on ``Dual.seed(x)``; a residual that comes back as a plain number
    (one that does not depend on x) has a zero gradient.

    Each iteration takes the full Newton step and halves it (up to
    ``max_halvings`` times) until the residual max-norm decreases; if no
    damped step improves, or the iteration budget runs out, NoConvergence is
    raised.  A singular Jacobian raises SingularJacobian.
    """
    x = np.asarray(guess, dtype=float).copy()
    fx = _residuals(system, x)
    if fx.size != x.size:
        raise ValueError(f"system of {fx.size} equations with {x.size} unknowns is not square")
    norm = np.max(np.abs(fx))
    for _ in range(max_iter):
        if norm <= tol:
            return x
        jac = np.empty((x.size, x.size), dtype=float)
        for i, out in enumerate(system(Dual.seed(x))):
            jac[i] = out.grad if isinstance(out, Dual) else 0.0
        try:
            step = np.linalg.solve(jac, -fx)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(str(exc)) from exc
        if not np.all(np.isfinite(step)):
            raise SingularJacobian("Newton step is not finite")
        scale = 1.0
        for _ in range(max_halvings + 1):
            x_new = x + scale * step
            f_new = _residuals(system, x_new)
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
