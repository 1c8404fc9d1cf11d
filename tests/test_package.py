"""The package's public surface."""

import pathlib

import bidisc


def test_all_names_resolve_once():
    assert len(bidisc.__all__) == len(set(bidisc.__all__))
    for name in bidisc.__all__:
        assert hasattr(bidisc, name), name


def test_readme_library_sketch_runs():
    # the README's example exactly as written, so the docs cannot go on
    # naming an API the package no longer has
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library sketch", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md#library-sketch", "exec"), {})
