"""The package's public surface."""

import ast
import inspect
import pathlib
import re
import shlex

import bidisc
from bidisc import cli, harness, solve

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def test_all_names_resolve_once():
    assert len(bidisc.__all__) == len(set(bidisc.__all__))
    for name in bidisc.__all__:
        assert hasattr(bidisc, name), name


def test_readme_layout_lists_modules():
    section = README.split("## Layout", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `bidisc\.(\w+)` \|", section, re.MULTILINE)
    modules = {path.stem for path in (ROOT / "src" / "bidisc").glob("*.py")} - {"__init__"}
    assert len(listed) == len(set(listed))
    assert set(listed) == modules


def test_readme_library_sketch_runs():
    # the README's example exactly as written, so the docs cannot go on
    # naming an API the package no longer has
    section = README.split("## Library sketch", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md#library-sketch", "exec"), {})


def test_readme_command_line_runs(capsys):
    # each command of the README's command line block, comments stripped,
    # exits 0 with output
    section = README.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines() if line]
    assert commands
    for argv in commands:
        assert argv[0] == "bidisc"
        assert cli.main(argv[1:]) == 0, argv
        assert capsys.readouterr().out, argv


def _uses(tree, names):
    """(qualified enclosing definition, name) of each use of one of names."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        used = getattr(node, "attr", None) or getattr(node, "id", None)
        if used in names and not isinstance(getattr(node, "ctx", None), ast.Store):
            found.add((scope, used))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_one_rounded_arithmetic():
    # outward rounding is written once: in the pair operations of
    # endpoints, and in the two nudges that serve Interval.from_fraction
    found = set()
    for path in sorted((ROOT / "src" / "bidisc").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.stem != "endpoints":
            found |= {(path.stem, *use) for use in _uses(tree, {"nextafter", "_down", "_up"})}
        if path.stem == "intervals":
            (interval,) = [node for node in tree.body
                           if isinstance(node, ast.ClassDef) and node.name == "Interval"]
            defined = {node.name for node in interval.body if isinstance(node, ast.FunctionDef)}
            defined |= {target.id for node in interval.body if isinstance(node, ast.Assign)
                        for target in node.targets}
            assert not defined & {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                                  "__rmul__", "__truediv__", "square", "sqrt", "abs"}
    assert found == {("intervals", "_down", "nextafter"), ("intervals", "_up", "nextafter"),
                     ("intervals", "Interval.from_fraction", "_down"),
                     ("intervals", "Interval.from_fraction", "_up")}


def _defined_in_src():
    """(module, name) of each function, class and assigned name in src,
    methods and nested definitions included."""
    found = set()
    for path in sorted((ROOT / "src" / "bidisc").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found |= {(path.name, node.name) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        found |= {(path.name, target.id) for node in ast.walk(tree)
                  if isinstance(node, ast.Assign)
                  for target in node.targets if isinstance(target, ast.Name)}
        found |= {(path.name, node.target.id) for node in ast.walk(tree)
                  if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)}
    return found


def test_only_tests_use_the_doubles_and_oracles():
    # the certifier classes, the dichotomy's start error and the closed-form
    # densities are gone from the package: a certifier is its bound
    # function, and the test doubles and oracles live under tests/
    gone = {"Certifier", "BlindCertifier", "FlorianCertifier", "ThresholdCertifier",
            "_each", "InitialBoundsInvalid", "closed_form_841", "closed_form_r6"}
    assert not {(module, name) for module, name in _defined_in_src() if name in gone}
    assert not set(bidisc.__all__) & gone


def test_no_layer_restates_what_it_wraps():
    # a recipe's census is checked when the file is read, so no built cell
    # is recounted; a proof is the root TraceNode of its bisection tree; a
    # singular Jacobian is a NoConvergence; a continuation path is searched
    # by its own ratios; Newton's iteration budget and tolerance are module
    # constants; a failed certification returns its root, not an error that
    # wraps it; the overlap scan and the envelope share one blocked row walk;
    # a bound sample comes from sweep alone, at one precision; the interstitial
    # census decides each test once, in integers; a recipe cell is its floats
    gone = {"build_checked", "radius_census", "ProofTrace", "SingularJacobian", "_path_keys",
            "DepthExceeded", "_blocks", "find_delta", "_check_precision", "DEFAULT_PRECISION",
            "_decide", "_FILTER", "_first", "build_from"}
    assert not {(module, name) for module, name in _defined_in_src() if name in gone}
    assert not set(bidisc.__all__) & gone
    assert "max_iter" not in inspect.signature(solve.newton_solve).parameters
    assert "tol" not in inspect.signature(solve.newton_solve).parameters
    assert "precision" not in inspect.signature(harness.sweep).parameters
