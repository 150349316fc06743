"""Write the capacity reference values the benchmark checks against.

Run from the repository root, on the commit whose values are the reference:

    python3 perfbench/make_reference.py

It sweeps the full fig8 and fig7 presets and stores every row plus the fig8
crossover and the fig7 peaks in ``perfbench/reference_capacity.json``.  The
capacity sweeps draw no random numbers, so the values hold for every seed.
"""

import json
import subprocess
import sys

from checks import REFERENCE_FILE
from run import ROOT, import_jamlink


def main():
    import_jamlink()
    from jamlink import harness

    doc = {}
    for preset in ("fig8", "fig7"):
        res = harness.run_capacity_sweep(harness.preset_config(preset))
        entry = {"columns": list(res.columns),
                 "rows": [list(map(float, row)) for row in res.rows]}
        if "crossover_jnr_db" in res.meta:
            entry["crossover_jnr_db"] = res.meta["crossover_jnr_db"]
        if "peaks" in res.meta:
            entry["peaks"] = res.meta["peaks"]
        doc[preset] = entry
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True, check=False)
    doc["source_commit"] = commit.stdout.strip() or None
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
