"""Record ``golden.json``: the digest of every rep the benchmark can run.

Run from the root of a checkout::

    python3 perfbench/record_golden.py

For each workload it builds every pool seed and the held-out seed at
full rep length, plus the pool's first seed and the held-out seed at
smoke length, runs each with one plain ``Experiment.run()`` and stores
``digest_run``'s digest.  The benchmark drives the same reps in
``Simulator.run`` slices, so matching these digests also shows that
slicing changes nothing.  Re-record only when behaviour is meant to
change; a performance change must leave every digest as it is.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, os.path.abspath("src"))
    from repro.harness.fingerprint import digest_run
    from workloads import (HELD_OUT_SEED, SMOKE_REP_S, WORKLOADS,
                           pool_seeds)

    golden = {}
    for name, workload in WORKLOADS.items():
        entry = {"full": {}, "smoke": {}}
        plan = ([("full", s, workload.rep_s)
                 for s in pool_seeds() + [HELD_OUT_SEED]]
                + [("smoke", s, SMOKE_REP_S)
                   for s in (pool_seeds()[0], HELD_OUT_SEED)])
        for size, seed, rep_s in plan:
            experiment, handles = workload.build(seed, rep_s)
            results = experiment.run()
            entry[size][str(seed)] = digest_run(experiment, handles,
                                                results)
            print(f"{name} {size} seed {seed}: {entry[size][str(seed)]}",
                  file=sys.stderr)
        golden[name] = entry
    (HERE / "golden.json").write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
