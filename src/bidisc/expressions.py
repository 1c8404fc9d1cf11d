"""Safe arithmetic expressions for recipe files, and the code built from them.

Recipe equations are stored as plain strings like
``(x4 - x3)**2 + (y4 - y3)**2 - (2*r)**2``.  They are parsed with ``ast``
and checked against a whitelist of arithmetic node types (+, -, *, / and
integer-constant **).  An ``Expr`` holds the checked source and its names.

``compile_system`` turns a recipe's defines and expressions into three
straight-line functions on local variables: the Newton residuals, their
Jacobian by forward-mode differentiation, one float per partial derivative,
and ``values``, which evaluates any other expressions of the recipe (its
held-out equation, lattice and cell) by the same arithmetic as the residuals.
"""

import ast
import math
import re
from collections.abc import Sequence

from .errors import RecipeError

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_UNARY = (ast.UAdd, ast.USub)
# the most operators from an expression's root to a leaf: Python stops at 200
# nested parentheses, and a negative power's inline partials nest three
_MAX_DEPTH = 64
# a temporary of the generated Jacobian code, and an operation in it that
# may raise: a float quotient or power (ZeroDivisionError, OverflowError)
_TEMP = re.compile(r"\bt\d+\b")
_MAY_RAISE = re.compile(r"/|\*\*")


def _exponent(node: ast.AST):
    """The integer an exponent node stands for, ``n`` or ``-n``, else None."""
    sign = 1
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        sign, node = -1, node.operand
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return sign * node.value
    return None


def _check(node: ast.AST, names: set[str], src: str, depth: int = 0) -> None:
    if depth > _MAX_DEPTH:
        raise RecipeError(f"more than {_MAX_DEPTH} nested operators in {src!r}")
    if isinstance(node, ast.Expression):
        _check(node.body, names, src)
    elif isinstance(node, ast.BinOp):
        if not isinstance(node.op, _ALLOWED_BINOPS):
            raise RecipeError(f"operator not allowed in {src!r}")
        if isinstance(node.op, ast.Pow) and _exponent(node.right) is None:
            raise RecipeError(f"only integer constant exponents allowed in {src!r}")
        _check(node.left, names, src, depth + 1)
        _check(node.right, names, src, depth + 1)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, _ALLOWED_UNARY):
            raise RecipeError(f"operator not allowed in {src!r}")
        _check(node.operand, names, src, depth + 1)
    elif isinstance(node, ast.Name):
        if node.id not in names:
            raise RecipeError(f"unknown name {node.id!r} in {src!r}")
    elif isinstance(node, ast.Constant):
        # bool subclasses int, but True and False are not numbers here
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            raise RecipeError(f"non-numeric constant in {src!r}")
        try:
            float(node.value)
        except OverflowError:
            raise RecipeError(f"constant too large for a float in {src!r}") from None
    else:
        raise RecipeError(f"syntax not allowed in {src!r}: {type(node).__name__}")


class Expr:
    """A validated arithmetic expression over named scalars."""

    __slots__ = ("source", "names")

    def __init__(self, source: str, names: Sequence[str]):
        self.source = source
        self.names = tuple(names)
        _tree(self)

    def __repr__(self):
        return f"Expr({self.source!r})"


# ---------------------------------------------------------------------------
# straight-line code

_OPERATOR = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "**",
             ast.UAdd: "+", ast.USub: "-"}


def _tree(expr: Expr) -> ast.AST:
    """The expression's ast, parsed and passed through ``_check`` on every
    call: code is only ever generated from whitelisted nodes."""
    try:
        tree = ast.parse(expr.source, mode="eval")
    except (SyntaxError, RecursionError) as exc:
        raise RecipeError(f"cannot parse expression {expr.source!r}: {exc}") from exc
    _check(tree, set(expr.names), expr.source)
    return tree.body


def _literal(value) -> str:
    # every constant a float, so no integer power runs unbounded (3 ** 3000000
    # takes half a second); a literal is never negative or nan, 1e999 is inf
    value = float(value)
    return repr(value) if math.isfinite(value) else "1e999"


def _plain(node: ast.AST, local: dict[str, str]) -> str:
    """Source evaluating ``node`` as written, over renamed locals."""
    if isinstance(node, ast.BinOp):
        op = _OPERATOR[type(node.op)]
        return f"({_plain(node.left, local)} {op} {_plain(node.right, local)})"
    if isinstance(node, ast.UnaryOp):
        return f"({_OPERATOR[type(node.op)]}{_plain(node.operand, local)})"
    if isinstance(node, ast.Name):
        return local[node.id]
    return _literal(node.value)


class _Forward:
    """Forward-mode code: each node becomes a value and n partials.

    ``emit`` returns ``(value, grads)`` source fragments.  ``grads`` is None
    for a node free of the unknowns, whose value is plain arithmetic;
    otherwise the value is a float and ``grads`` holds one fragment per
    unknown.  A plain operand meeting such a node joins as ``float(value)``
    with ``0.0`` partials, and ``p + u`` and ``p * u`` are computed as
    ``u + p`` and ``u * p``.  Values that several fragments read are bound
    to temporaries ``t0, t1, ...`` in ``lines``; partials are used once and
    stay inline.
    """

    def __init__(self, local: dict[str, tuple[str, list[str] | None]], n: int):
        self.local = local
        self.n = n
        self.lines: list[str] = []

    def bind(self, src: str) -> str:
        name = f"t{len(self.lines)}"
        self.lines.append(f"    {name} = {src}")
        return name

    def lift(self, node: ast.AST, value: str) -> tuple[str, list[str]]:
        if isinstance(node, ast.Constant):
            value = _literal(node.value)
        else:
            value = self.bind(f"float({value})")
        return value, ["0.0"] * self.n

    def emit(self, node: ast.AST) -> tuple[str, list[str] | None]:
        if isinstance(node, ast.Name):
            return self.local[node.id]
        if isinstance(node, ast.Constant):
            return _literal(node.value), None
        op = _OPERATOR[type(node.op)]
        if isinstance(node, ast.UnaryOp):
            a, ga = self.emit(node.operand)
            if ga is None:
                return f"({op}{a})", None
            if op == "+":
                return a, ga
            return self.bind(f"-{a}"), [f"(-{g})" for g in ga]
        if op == "**":
            return self.power(node)
        a, ga = self.emit(node.left)
        b, gb = self.emit(node.right)
        if ga is None and gb is None:
            return f"({a} {op} {b})", None
        if ga is None:
            if op in ("+", "*"):
                (a, ga), (b, gb) = (b, gb), self.lift(node.left, a)
            else:
                a, ga = self.lift(node.left, a)
        elif gb is None:
            b, gb = self.lift(node.right, b)
        if op == "/":
            inv = self.bind(f"1.0 / {b}")
            si = self.bind(f"{a} * {inv}")
            return si, [f"(({x} - {si} * {y}) * {inv})" for x, y in zip(ga, gb)]
        if op == "*":
            return (self.bind(f"{a} * {b}"),
                    [f"({x} * {b} + {a} * {y})" for x, y in zip(ga, gb)])
        return self.bind(f"{a} {op} {b}"), [f"({x} {op} {y})" for x, y in zip(ga, gb)]

    def power(self, node: ast.BinOp) -> tuple[str, list[str] | None]:
        n = _exponent(node.right)
        a, ga = self.emit(node.left)
        if ga is None:
            return f"({a} ** {_plain(node.right, {})})", None
        if n == 0:
            return "1.0", ["0.0"] * self.n
        w = self.bind(f"{a} ** {abs(n) - 1}")
        value = self.bind(f"{w} * {a}")
        nw = self.bind(f"{abs(n)} * {w}")
        grads = [f"({nw} * {g})" for g in ga]
        if n > 0:
            return value, grads
        inv = self.bind(f"1.0 / {value}")
        si = self.bind(f"1.0 * {inv}")
        return si, [f"((0.0 - {si} * {g}) * {inv})" for g in grads]

    def define(self, node: ast.AST) -> tuple[str, list[str] | None]:
        """``emit`` with the value and partials bound, for repeated use."""
        value, grads = self.emit(node)
        if grads is None:
            return self.bind(value), None
        return value, [g if g in ("0.0", "1.0") else self.bind(g) for g in grads]


def compile_system(unknowns: Sequence[str], defines: Sequence[tuple[str, Expr]],
                   equations: Sequence[Expr], outputs: Sequence[Expr]):
    """Straight-line ``residuals``, ``jacobian`` and ``values``, each ``(q, r)``.

    ``q`` holds the values of ``unknowns`` in order and ``r`` the value of
    the name ``r``.  Each function evaluates the defines in order first.
    ``residuals`` returns the values of ``equations`` and ``values`` those
    of ``outputs``, each the source's operations, every constant a float,
    done on the scalar types it is given: a numpy ``q`` gives numpy floats.
    ``jacobian`` returns one row of partial derivatives per equation, in
    Python floats; the row of an equation free of the unknowns is zero.  It
    binds only the temporaries that its partials read, and those that may
    raise.
    Every recipe name becomes a generated local, so none can shadow a
    temporary, a parameter or a builtin.
    """
    n = len(unknowns)
    names = {"r": "r"}
    local = {"r": ("r", None)}
    for i, name in enumerate(unknowns):
        names[name] = f"x{i}"
        local[name] = (f"x{i}", ["1.0" if k == i else "0.0" for k in range(n)])
    forward = _Forward(local, n)
    prelude = [f"    {', '.join(f'x{i}' for i in range(n))}, = q"] if n else []
    for j, (name, expr) in enumerate(defines):
        tree = _tree(expr)
        prelude.append(f"    d{j} = {_plain(tree, names)}")
        names[name] = f"d{j}"
        local[name] = forward.define(tree)
    trees = [_tree(e) for e in equations]
    rows = []
    for tree in trees:
        grads = forward.emit(tree)[1] or ["0.0"] * n
        rows.append("[" + ", ".join(grads) + "]")
    # bind only the temporaries that a partial reads, directly or through
    # other temporaries (an equation's own value feeds no partial), and those
    # that may raise, so that the function raises where it did with them all
    needed = set(_TEMP.findall(" ".join(rows)))
    body = []
    for line in reversed(forward.lines):
        name, src = line.split(" = ", 1)
        if name.strip() in needed or _MAY_RAISE.search(src):
            needed.update(_TEMP.findall(src))
            body.append(line)
    source = "\n".join([
        "def residuals(q, r):",
        *prelude,
        f"    return [{', '.join(_plain(tree, names) for tree in trees)}]",
        "",
        "def values(q, r):",
        *prelude,
        f"    return [{', '.join(_plain(_tree(e), names) for e in outputs)}]",
        "",
        "def jacobian(q, r):",
        *(f"    x{i} = float(q[{i}])" for i in range(n)),
        *reversed(body),
        f"    return [{', '.join(rows)}]",
    ])
    namespace = {"__builtins__": {}, "float": float}
    exec(compile(source, "<recipe system>", "exec"), namespace)
    return namespace["residuals"], namespace["jacobian"], namespace["values"]
