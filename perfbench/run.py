"""The repository's benchmark: one workload, one run, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload busy_pbe --seed 3 --seconds 15 \\
        --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run; ``BENCHMARK.json`` at the
checkout root declares both lists, their units and directions.  The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; a rep counts as failed when it raises or when its
``digest_run`` digest differs from ``perfbench/golden.json``.

End-to-end metrics (``--trace 0``):

``sim_speed_rel``
    simulated seconds per host second, divided by the speed of the
    fixed reference loop run interleaved with the simulation (million
    iterations per host second).  This is the gated speed metric; the
    division largely cancels the host's drift (``perfbench/README.md``).
    The raw speed and the loop's speed go to standard error for
    readers; the raw speed is too noisy on a shared host to carry a
    bound.
``setup_s``
    host time from starting a fresh interpreter to the first simulated
    event (imports, scenario, grid and population build, experiment
    wiring), rescaled to a host whose reference loop runs at
    ``refloop.NOMINAL_SPEED``: each probe's time is multiplied by the
    loop's speed measured just before and just after it, divided by
    the nominal speed.  The median of ``SETUP_PROBES`` probes.  The raw
    median goes to standard error.
``peak_rss_mb``
    high-water RSS of the measured process, which runs one workload.
``tput_mbps``, ``delay_p95_ms``
    goodput and p95 one-way delay of the PBE flows, each averaged over
    the run's reps (§6.1 conventions, ``summarize_flow``).

Options beyond the four every run takes: ``--src`` points at
another source tree (the A/B driver uses it), ``--smoke`` runs one
short rep, ``--held-out`` runs the held-out seed, and ``--spans-out``
writes a traced run's spans as CSV.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Fresh-interpreter set-up probes per run.
SETUP_PROBES = 7
#: Wall-clock limits per child process, seconds.
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150


def _args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src", default="src",
                        help="source tree holding the repro package")
    parser.add_argument("--smoke", action="store_true",
                        help="one short rep (the smoke test's size)")
    parser.add_argument("--held-out", action="store_true",
                        help="run every rep on the held-out seed")
    parser.add_argument("--spans-out",
                        help="with --trace 1, write the spans here as CSV")
    return parser.parse_args()


def _child(mode: str, args: argparse.Namespace,
           timeout_s: float) -> dict:
    """Run ``child.py`` in a fresh interpreter; its last stdout line."""
    cmd = [sys.executable, str(HERE / "child.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--src", args.src]
    if args.smoke:
        cmd.append("--smoke")
    if args.held_out:
        cmd.append("--held-out")
    if args.spans_out:
        cmd += ["--spans-out", args.spans_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=timeout_s, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} process exited with {proc.returncode}")
    return json.loads(lines[-1])


def _end_to_end(args: argparse.Namespace) -> dict:
    from refloop import NOMINAL_SPEED, SETUP_REF_CHUNKS, ReferenceLoop
    reference = ReferenceLoop()
    setups = []
    rescaled = []
    for _ in range(SETUP_PROBES):
        ref_before = reference.speed(SETUP_REF_CHUNKS)
        start = time.monotonic()
        probe = _child("setup", args, SETUP_TIMEOUT_S)
        setups.append(probe["ready"] - start)
        rescaled.append(setups[-1] * (ref_before + probe["ref_speed"]) / 2
                        / NOMINAL_SPEED)
    run = _child("measure", args, RUN_TIMEOUT_S)
    # Totals over the run's reps: sums weight each slice by its host
    # time, which tracked the host's drift better than per-rep medians.
    sim_speed = sum(run["sim_s"]) / sum(run["sim_host_s"])
    ref_speed = sum(run["ref_iterations"]) / 1e6 / sum(run["ref_host_s"])
    figures = run["figures"]
    print(f"{args.workload}: raw speed {sim_speed:.4f} simulated s per host "
          f"s, reference loop {ref_speed:.4f} M iterations per host s, raw "
          f"set-up {statistics.median(setups):.4f} s", file=sys.stderr)
    run["metrics"] = {
        "sim_speed_rel": sim_speed / ref_speed,
        "setup_s": statistics.median(rescaled),
        "peak_rss_mb": run["peak_rss_mb"],
        "tput_mbps": statistics.fmean(t for t, _ in figures),
        "delay_p95_ms": statistics.fmean(d for _, d in figures),
    }
    return run


def main() -> int:
    args = _args()
    if not (Path(args.src) / "repro" / "__init__.py").is_file():
        print(f"no repro package under {args.src!r}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(
        encoding="utf-8"))
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    try:
        run = (_child("trace", args, RUN_TIMEOUT_S) if args.trace
               else _end_to_end(args))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    metrics = run.get("metrics", {})
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"run produced no value for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
