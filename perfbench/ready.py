"""Bring bidisc from a fresh interpreter to ready, and time it.

"Ready" means what every ``bidisc`` invocation pays before its command
runs: ``import bidisc``, loading the built-in recipes, and the Sturm
isolation of the twelve tabulated ratios.  Run as a script, this prints
the seconds that took; ``run.py`` starts it several times per run and
reports the median as ``setup_s``.

The package is always imported from ``src/`` of the checkout this file
sits in, never from an installed copy, so the benchmark measures the tree
it was checked out with and fails when that tree holds no sources.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_bidisc():
    """Import bidisc from this checkout's sources; exit 1 when absent."""
    package = SRC / "bidisc"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bidisc sources at {package}")
    sys.path.insert(0, str(SRC))
    import bidisc
    if Path(bidisc.__file__).resolve().parent != package:
        raise SystemExit(f"perfbench: bidisc imported from {bidisc.__file__}, "
                         f"not from {package}")
    return bidisc


def ready():
    """Load the built-in recipes and isolate every tabulated ratio."""
    from bidisc.flows import builtin_recipes
    from bidisc.ratios import RATIO_TABLE, ratio_interval
    builtin_recipes()
    for name in RATIO_TABLE:
        ratio_interval(name)


if __name__ == "__main__":
    start = time.perf_counter()
    import_bidisc()
    ready()
    print(repr(time.perf_counter() - start))
