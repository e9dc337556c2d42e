"""Paired A/B comparison of two source trees on this benchmark.

Usage, from the root of a checkout::

    git worktree add ../parent HEAD~1
    python3 perfbench/ab.py --a ../parent --b . --pairs 10

Both sides run *this* copy of the benchmark (``run.py --src
TREE/src``) at the run length ``BENCHMARK.json`` sets, so only the
program differs.  Pair ``i`` runs seed ``i`` on both sides, and the
side that runs first alternates from pair to pair.  For every
workload and end-to-end metric it prints each side's median and
quartiles, the ratio of the medians, and the fraction of pairs B won
(ties count for neither).
Following the claim rule the benchmark documents, a gain is marked
``gain`` only when at least ten pairs ran, B won at least nine tenths
of them and the medians differ by more than A's own spread (its
interquartile range).  A metric whose median got worse by more than
its bound in ``BENCHMARK.json`` is marked ``REGRESSION``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Fewest pairs on which a gain may be claimed.
MIN_PAIRS = 10


def _run(tree: Path, workload: str, seed: int, seconds: int,
         held_out: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
           "--src", str(tree / "src")]
    if held_out:
        cmd.append("--held-out")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          check=False, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited with "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(a: list[dict], b: list[dict], declared: list[dict]) -> list[str]:
    """Report lines for one workload's paired runs (``a[i]``/``b[i]``)."""
    lines = [f"  failed ops: A {sum(r['failed'] for r in a)}/"
             f"{sum(r['attempted'] for r in a)}, "
             f"B {sum(r['failed'] for r in b)}/"
             f"{sum(r['attempted'] for r in b)}"]
    for metric in declared:
        name, higher = metric["name"], metric["better"] == "higher"
        va = [r["metrics"][name]["value"] for r in a]
        vb = [r["metrics"][name]["value"] for r in b]
        a1, am, a3 = _quartiles(va)
        b1, bm, b3 = _quartiles(vb)
        wins = sum((y > x) if higher else (y < x) for x, y in zip(va, vb))
        win_fraction = wins / len(va)
        worse = (am - bm if higher else bm - am) / am if am else 0.0
        verdict = ""
        if (len(va) >= MIN_PAIRS and win_fraction >= 0.9
                and abs(bm - am) > a3 - a1):
            verdict = "gain"
        elif worse > metric["bound"]:
            verdict = "REGRESSION"
        lines.append(
            f"  {name:14s} A {am:.4g} [{a1:.4g}, {a3:.4g}]  "
            f"B {bm:.4g} [{b1:.4g}, {b3:.4g}]  B/A {bm / am if am else 0:.4f}"
            f"  B wins {win_fraction:.2f} {verdict}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--a", required=True, type=Path,
                        help="baseline source tree (repository root)")
    parser.add_argument("--b", required=True, type=Path,
                        help="changed source tree (repository root)")
    parser.add_argument("--workload", action="append",
                        help="workloads to compare (default: all)")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--held-out", action="store_true",
                        help="run every rep on the held-out seed")
    args = parser.parse_args()
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(
        encoding="utf-8"))
    seconds = declared["run_seconds"]
    workloads = args.workload or [w["name"] for w in declared["workloads"]]
    for workload in workloads:
        runs: dict = {"a": [], "b": []}
        for i in range(args.pairs):
            order = ("a", "b") if i % 2 == 0 else ("b", "a")
            for side in order:
                tree = args.a if side == "a" else args.b
                runs[side].append(_run(tree, workload, i, seconds,
                                       args.held_out))
            print(f"{workload}: pair {i + 1}/{args.pairs} done",
                  file=sys.stderr, flush=True)
        print(f"{workload} ({args.pairs} pairs, {seconds} s runs)")
        for line in compare(runs["a"], runs["b"], declared["end_to_end"]):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
