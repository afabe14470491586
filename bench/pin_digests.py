"""Record the golden SHA-256 digests of every op output into digests.json.

Usage (from the repository root):

    python3 bench/pin_digests.py

For each workload and each list seed 0..PINNED_SEEDS-1 this runs every op of
the seed's list once, checks its outputs, and stores one digest per output:
the sweep CSV and the validate stdout, the noise_scan report JSON, the
map_large plan JSON.  digests.json is written afresh.  The benchmark fails an
op whose outputs no longer match.  Re-pin only when a change is meant to
alter output bytes, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # sets the thread limits and the import path before qbos is imported
import workloads

WORK = run.WORK / "pin"


def pin(wl, seed: int) -> list[dict[str, str]]:
    inputs = wl.inputs(seed)
    runner = run.Runner(wl, wl.prepare(WORK, seed, inputs), None)
    digests = []
    for index, item in enumerate(inputs):
        result = runner.execute(index, item)
        if result is None:
            raise SystemExit(f"{wl.name} seed {seed}: {runner.errors[-1]}")
        digests.append(workloads.digest_outputs(result.outputs))
    return digests


def main() -> int:
    workloads.require_qbos_from(run.SRC)
    pinned: dict[str, dict[str, list]] = {}
    try:
        for name, wl in workloads.WORKLOADS.items():
            pinned[name] = {}
            for seed in range(workloads.PINNED_SEEDS):
                pinned[name][str(seed)] = pin(wl, seed)
                print(f"pinned {name} seed {seed}", file=sys.stderr)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    path = run.BENCH / "digests.json"
    path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
