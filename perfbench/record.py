"""Record the outcome of every part and variant into expected.json.

    python3 perfbench/record.py

Run on the commit whose behaviour the benchmark's correctness gate should
hold later commits to.  It refuses to record a CLI invocation that exits
non-zero or an interstitial packing with an overlap.
"""

import json
from pathlib import Path

from ready import import_bidisc, ready

if __name__ == "__main__":
    import_bidisc()
    from workloads import PARTS, VARIANTS

    ready()
    recorded = {}
    for name, part in PARTS.items():
        outcomes = [part.execute(part.inputs(j)) for j in range(VARIANTS)]
        for outcome in outcomes:
            rows = outcome if isinstance(outcome, list) else [outcome]
            if any(row.get("exit", 0) != 0 or row.get("violations", 0) != 0
                   for row in rows):
                raise SystemExit(f"{name}: refusing to record a failing outcome {outcome}")
        recorded[name] = outcomes
        print(name, "recorded", flush=True)
    path = Path(__file__).resolve().parent / "expected.json"
    path.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
