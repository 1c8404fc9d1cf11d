"""Whitelisted arithmetic expressions used by recipe files, and the
Newton code compiled from them."""

import ast
import random

import numpy as np
import pytest

from bidisc.errors import RecipeError
from bidisc.expressions import _MAX_DEPTH, Expr, compile_system
from bidisc.flows import builtin_recipes, recipe_from_dict


def value_of(source, names, point):
    """``source`` over ``names`` at ``point``, through the compiled ``values``."""
    values = compile_system(names, (), (), [Expr(source, names)])[2]
    return values(point, 0.0)[0]


def test_eval_basic():
    assert value_of("x1/2 + 3*y2 - 1", ("x1", "y2"), (4.0, 2.0)) == 2.0 + 6.0 - 1.0


def test_eval_power_and_unary():
    assert value_of("-(a**2) + 2**3", ("a",), (3.0,)) == -9.0 + 8.0


def test_expr_is_not_callable():
    assert not callable(Expr("x1 + 1", ("x1",)))


def test_unknown_name_rejected():
    with pytest.raises(RecipeError):
        Expr("x1 + zz", ("x1",))


def test_calls_rejected():
    with pytest.raises(RecipeError):
        Expr("abs(x1)", ("x1",))


def test_attributes_rejected():
    with pytest.raises(RecipeError):
        Expr("x1.real", ("x1",))


def test_non_integer_exponent_rejected():
    with pytest.raises(RecipeError):
        Expr("x1**0.5", ("x1",))


def test_negated_integer_exponent_accepted():
    assert value_of("x1**-2", ("x1",), (2.0,)) == 0.25
    with pytest.raises(RecipeError):
        Expr("x1**--2", ("x1",))
    with pytest.raises(RecipeError):
        Expr("x1**-0.5", ("x1",))


def test_non_numeric_constant_rejected():
    # bool subclasses int, but True and False are not numeric constants,
    # nor exponents
    for source in ("x1 + 'a'", "x1 + True", "x1 ** True", "-True"):
        with pytest.raises(RecipeError, match="non-numeric constant"):
            Expr(source, ("x1",))


def test_constants_are_floats():
    # integer constants compile as the floats they round to, so a huge
    # power overflows at once instead of running in integer arithmetic
    assert repr(value_of("2**3 - 7", (), ())) == "1.0"
    assert repr(value_of("(2**53 + 1) - 2**53", (), ())) == "0.0"
    with pytest.raises(OverflowError):
        value_of("0*3**3000000", (), ())
    with pytest.raises(OverflowError):
        compile_system(("a",), (), [Expr("a + 0*3**3000000", ("a",))], ())[1]([1.0], 0.0)
    with pytest.raises(RecipeError, match="constant too large for a float"):
        Expr("x1 + 1" + "0" * 400, ("x1",))
    with pytest.raises(RecipeError, match="constant too large for a float"):
        Expr("x1**1" + "0" * 400, ("x1",))


def test_syntax_error_rejected():
    with pytest.raises(RecipeError):
        Expr("x1 +", ("x1",))


def test_statements_rejected():
    with pytest.raises(RecipeError):
        Expr("__import__('os')", ("x1",))
    with pytest.raises(RecipeError):
        Expr("[x1 for x1 in (1,)]", ("x1",))


def operator_depth(node):
    """The most operators on one path from node to a leaf."""
    if isinstance(node, ast.BinOp):
        return 1 + max(operator_depth(node.left), operator_depth(node.right))
    if isinstance(node, ast.UnaryOp):
        return 1 + operator_depth(node.operand)
    return 0


@pytest.mark.parametrize("chain, slope", [
    (lambda d: "x" + " + x" * d, _MAX_DEPTH + 1.0),
    (lambda d: "x" + " / 3" * d, 3.0 ** -_MAX_DEPTH),
    (lambda d: "(" * (d - 1) + "x" + ")**-1" * (d - 1), -0.25),
], ids=["sum", "quotient", "inverse"])
def test_nesting_bound(chain, slope):
    # an expression at the bound compiles in all three functions and
    # evaluates, and one operator deeper is refused when it is read.  The
    # partials of a quotient nest two parentheses per operator, those of a
    # negative power three, and Python's parser stops at 200
    source = chain(_MAX_DEPTH)
    assert operator_depth(ast.parse(source, mode="eval").body) == _MAX_DEPTH
    expr = Expr(source, ("x",))
    residuals, jacobian, values = compile_system(("x",), (), [expr], [expr])
    want = eval(source, {"__builtins__": {}}, {"x": 2.0})
    assert residuals((2.0,), 0.0) == values((2.0,), 0.0) == [want]
    assert jacobian((2.0,), 0.0)[0][0] == pytest.approx(slope, rel=1e-12)
    with pytest.raises(RecipeError, match=f"more than {_MAX_DEPTH} nested operators"):
        Expr(chain(_MAX_DEPTH + 1), ("x",))


def test_too_deep_to_parse_rejected():
    # deep enough that ast.parse itself raises RecursionError
    with pytest.raises(RecipeError, match="cannot parse expression"):
        Expr("x" + " + x" * 10000, ("x",))


# ---------------------------------------------------------------------------
# compiled recipe code against eval and forward-mode dual numbers
#
# The oracles are the evaluation the recipe expressions had before they were
# compiled: ``eval`` of each source on a name map, filled with the unknowns,
# r and then each define in order, and the dual-number class the Jacobian
# was computed with, a value paired with a numpy gradient vector, pushed
# through that evaluation.  The compiled code must do the same floating-point
# operations in the same order, so both agree by repr, signed zeros included.


class _FloatConstants(ast.NodeTransformer):
    """Every constant a float, as the compiled code has it."""

    def visit_Constant(self, node):
        return ast.copy_location(ast.Constant(float(node.value)), node)


def oracle(expr, env):
    tree = _FloatConstants().visit(ast.parse(expr.source, mode="eval"))
    return eval(compile(tree, "<recipe>", "eval"), {"__builtins__": {}}, env)


def environment(recipe, q, r):
    env = {"r": r}
    for name, value in zip(recipe.variables, q):
        env[name] = value
    for name, expr in recipe.defines:
        env[name] = oracle(expr, env)
    return env


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
        # the source's integer exponents reach the oracle as floats
        if isinstance(n, float) and n.is_integer():
            n = int(n)
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return Dual(1.0, np.zeros_like(self.grad))
        if n < 0:
            return 1.0 / self.__pow__(-n)
        v = self.val ** (n - 1)
        return Dual(v * self.val, n * v * self.grad)


def newton_equations(recipe):
    return [e for k, e in enumerate(recipe.equations) if k != recipe.verify_index]


def dual_rows(recipe, q, r):
    """Jacobian rows as the dual numbers gave them."""
    env = environment(recipe, Dual.seed(q), r)
    rows = []
    for e in newton_equations(recipe):
        out = oracle(e, env)
        rows.append(out.grad.tolist() if isinstance(out, Dual) else [0.0] * len(q))
    return rows


def assert_matches_oracle(recipe, points, seed, lo=-3.0, hi=3.0):
    residuals, jacobian, _ = recipe.compiled
    rng = random.Random(seed)
    for _ in range(points):
        q = np.array([rng.uniform(lo, hi) for _ in recipe.variables])
        r = rng.uniform(0.1, 1.0)
        assert repr(jacobian(q, r)) == repr(dual_rows(recipe, q, r))
        env = environment(recipe, q, r)
        expected = [oracle(e, env) for e in newton_equations(recipe)]
        got = residuals(q, r)
        assert [type(v) for v in got] == [type(v) for v in expected]
        assert repr([float(v) for v in got]) == repr([float(v) for v in expected])


def assert_geometry_matches_oracle(recipe, points, seed, lo=-3.0, hi=3.0):
    """The held-out value and ``cell_from``'s cell equal the oracle's."""
    values = recipe.compiled[2]
    rng = random.Random(seed)
    for _ in range(points):
        q = np.array([rng.uniform(lo, hi) for _ in recipe.variables])
        r = rng.uniform(0.1, 1.0)
        env = environment(recipe, q, r)
        held = oracle(recipe.equations[recipe.verify_index], env)
        got = values(q, r)[0]
        assert (type(got), repr(got)) == (type(held), repr(held))
        (ux, uy), (vx, vy) = recipe.lattice
        cell = ((oracle(ux, env), oracle(uy, env)), (oracle(vx, env), oracle(vy, env)),
                tuple(v for ex, ey, sel in recipe.cell
                      for v in (oracle(ex, env), oracle(ey, env), 1.0 if sel == "one" else r)))
        assert repr(recipe.cell_from(q, r)) == repr(cell)


def constrained(variables, defines, equations, verify_index,
                lattice=(("1", "0"), ("0", "1")), cell=(("0", "0", "one"),), census=(1, 0)):
    return recipe_from_dict({
        "name": "test", "kind": "constrained", "valid_range": [0.1, 1.0],
        "census": {"unit": census[0], "ratio": census[1]}, "variables": list(variables),
        "defines": defines, "equations": equations, "verify_index": verify_index,
        "r0": 0.5, "guess": {v: 1.0 for v in variables},
        "lattice": {"u": list(lattice[0]), "v": list(lattice[1])},
        "cell": [list(row) for row in cell]})


def test_flow_r6_jacobian_and_residuals_match_duals():
    assert_matches_oracle(builtin_recipes()["flow-r6-1"], 1000, seed=1)


def test_flow_r6_matches_duals_near_its_solution():
    recipe = builtin_recipes()["flow-r6-1"]
    residuals, jacobian, _ = recipe.compiled
    q = np.array(recipe.guess)
    assert repr(jacobian(q, recipe.r0)) == repr(dual_rows(recipe, q, recipe.r0))
    assert max(abs(v) for v in residuals(q, recipe.r0)) < 1e-12


def every_operator_recipe():
    return constrained(
        ("u", "v", "w", "z"),
        {"y1": "0", "k": "2*r - 1", "s": "-u + v/3", "p": "y1 - w"},
        ["-u + v/3 - 2/w + (1 - v)*w + s*k + 2",
         "u/v + 3*w - 2.5*u**3 + v**0 + w**-2 + (k - r)**-2 + (s*w)**3 - (u*v + 1)**-2",
         "y1*u + k*v - p + u*k**2 - r/(u*v) + (-w)**3*z",
         "r**2 - 3 + k",
         "u - v + z"],
        verify_index=4,
        lattice=(("k*u - 3", "y1 + r"), ("s**2 + 1/p", "-(w*r)**-2")),
        cell=(("0", "0", "one"), ("u/k - p", "-s + r**3", "ratio"),
              ("2.5*p*w", "k**0 - z/3", "ratio")),
        census=(1, 2))


def test_every_operator_matches_duals():
    recipe = every_operator_recipe()
    rows = recipe.compiled[1](np.array([1.0, 2.0, 3.0, 4.0]), 0.5)
    assert rows[3] == [0.0, 0.0, 0.0, 0.0]
    assert_matches_oracle(recipe, 1000, seed=2)


def test_signed_zero_partials_match_duals():
    # a partial with respect to an unknown an equation does not use is a
    # signed zero, and adding a constant's 0.0 gradient or subtracting from
    # 0.0 turns -0.0 into 0.0; leaving either step out shows up here
    recipe = constrained(("u", "v"), {}, ["-u + 1", "u**-2 - 3", "u + v"], verify_index=2)
    assert repr(recipe.compiled[1]((2.0, 1.0), 0.5)) == "[[-1.0, 0.0], [-0.25, 0.0]]"
    assert_matches_oracle(recipe, 100, seed=4)


def test_shadowing_names_match_duals():
    # recipe names that are the generator's own names: the function
    # parameter, a temporary, an inverse and a builtin
    recipe = constrained(
        ("q", "t0", "inv"),
        {"float": "q*t0 - inv/2", "x0": "float**2 + r", "d0": "t0 - q"},
        ["q + float*inv - x0", "t0**2 - d0*float", "inv/float - q/t0 + d0", "q - 1"],
        verify_index=3)
    assert_matches_oracle(recipe, 1000, seed=3)


def test_flow_r6_geometry_matches_eval():
    recipe = builtin_recipes()["flow-r6-1"]
    assert_geometry_matches_oracle(recipe, 300, seed=5)


def test_every_operator_geometry_matches_eval():
    assert_geometry_matches_oracle(every_operator_recipe(), 300, seed=6)


def test_compiled_code_refuses_other_syntax():
    e = Expr("x1 + 1", ("x1",))
    e.source = "abs(x1)"            # past validation, as a corrupted object
    with pytest.raises(RecipeError):
        compile_system(("x1",), (), [e], ())
    with pytest.raises(RecipeError):
        compile_system(("x1",), (), (), [e])
