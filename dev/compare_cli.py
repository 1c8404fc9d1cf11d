"""One ``bidisc`` invocation at a git revision and in the working tree.

    python3 dev/compare_cli.py --rev HEAD -- lower --range 0.36:0.99 --step 0.001

Run from anywhere inside the checkout.  The revision is exported with
``git archive`` into a temporary directory, as ``dev/paired_bench.py`` does.
Each side then runs ``bidisc ARGS`` in a fresh interpreter, in the current
directory, with its own ``src`` first on the import path; the base runs
first.  For each side the tool prints the exit code, the sha256 of stdout,
the peak RSS of the child (its own resource usage, as ``RUSAGE_CHILDREN``
reports it for one child) and the wall time.  Then it says whether the two
stdouts are identical, and whether the two stderrs are identical once the
``wall time`` line is dropped.  It exits 0 when both are and the exit
codes agree, else 1.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from paired_bench import ROOT, export


def run(tree: Path, args: list[str]) -> dict:
    """``bidisc ARGS`` from ``tree``'s sources in a new interpreter."""
    main = (f"import sys; sys.path.insert(0, {str(tree / 'src')!r}); "
            "from bidisc.cli import main; sys.exit(main(sys.argv[1:]))")
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", main, *args], stdout=out, stderr=err)
        # wait4 reaps this child alone, with its resource usage
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {"exit": proc.returncode, "stdout": out.read(), "stderr": err.read(),
                "rss_mb": usage.ru_maxrss / 1024.0, "wall_s": wall}


def without_wall_time(stderr: bytes) -> list[bytes]:
    return [line for line in stderr.splitlines() if not line.startswith(b"wall time ")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="base revision (default HEAD)")
    parser.add_argument("args", nargs=argparse.REMAINDER,
                        help="-- then the bidisc arguments")
    opts = parser.parse_args(argv)
    args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args
    if not args:
        parser.error("give the bidisc arguments after --")

    with tempfile.TemporaryDirectory() as tmp:
        export(opts.rev, Path(tmp))
        runs = {f"base ({opts.rev})": run(Path(tmp), args),
                "change (working tree)": run(ROOT, args)}
    for side, res in runs.items():
        print(f"{side}: exit {res['exit']}, "
              f"stdout sha256 {hashlib.sha256(res['stdout']).hexdigest()}, "
              f"peak RSS {res['rss_mb']:.1f} MB, wall {res['wall_s']:.3f} s")
    base, change = runs.values()
    same_out = base["stdout"] == change["stdout"]
    same_err = without_wall_time(base["stderr"]) == without_wall_time(change["stderr"])
    print(f"stdout identical: {'yes' if same_out else 'no'}")
    print(f"stderr identical apart from wall time: {'yes' if same_err else 'no'}")
    return 0 if same_out and same_err and base["exit"] == change["exit"] else 1


if __name__ == "__main__":
    sys.exit(main())
