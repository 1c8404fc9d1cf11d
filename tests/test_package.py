"""The package's public surface."""

import bidisc


def test_all_names_resolve_once():
    assert len(bidisc.__all__) == len(set(bidisc.__all__))
    for name in bidisc.__all__:
        assert hasattr(bidisc, name), name
