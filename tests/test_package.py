"""The package's public surface."""

import pathlib
import re
import shlex

import bidisc
from bidisc import cli

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
