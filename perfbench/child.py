"""One benchmark process: set-up probe, measured run or traced run.

``run.py`` starts this script in a fresh interpreter for every probe
and run, so set-up time starts from a cold interpreter and the peak
RSS belongs to one workload.  It prints one JSON object as its last
line of standard output.

Modes:

``setup``
    import the program, build the run's first rep, and print the
    monotonic clock at the moment the first simulated event would run,
    then the reference loop's speed measured right after.
``measure``
    run every rep of the run with the reference loop interleaved
    between simulation slices (see ``refloop.py``), check each rep's
    digest, and report speed, memory, goodput and delay.
``trace``
    run the first rep three times: untraced to warm up, with the layer
    tracer and ``PerfCounters`` attached, and untraced again to time
    it; every digest must equal the golden one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from pathlib import Path

#: Simulated microseconds per slice of ``Simulator.run``.
SLICE_US = 25_000


def _args() -> argparse.Namespace:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--held-out", action="store_true")
    parser.add_argument("--spans-out")
    return parser.parse_args()


class _Clock:
    """Per-rep host time of the simulation slices and reference chunks."""

    def __init__(self) -> None:
        self.sim_s: list[float] = []
        self.sim_host_s: list[float] = []
        self.ref_iterations: list[int] = []
        self.ref_host_s: list[float] = []


def _plain_slices(sim, end_us: int) -> None:
    t = sim.now
    while t < end_us:
        t = min(t + SLICE_US, end_us)
        sim.run(until_us=t)


def _interleaved_slices(clock: _Clock):
    from refloop import CHUNK_ITERATIONS, ReferenceLoop
    reference_chunk = ReferenceLoop().chunk
    now = time.perf_counter

    def run(sim, end_us: int) -> None:
        t = sim.now
        ref_s = sim_s = 0.0
        chunks = 0
        while t < end_us:
            t = min(t + SLICE_US, end_us)
            t0 = now()
            reference_chunk()
            t1 = now()
            sim.run(until_us=t)
            t2 = now()
            ref_s += t1 - t0
            sim_s += t2 - t1
            chunks += 1
        clock.sim_s.append(end_us / 1e6)
        clock.sim_host_s.append(sim_s)
        clock.ref_iterations.append(chunks * CHUNK_ITERATIONS)
        clock.ref_host_s.append(ref_s)

    return run


def _run_rep(workload, scenario_seed: int, rep_s: float, slicer):
    """Build, simulate and digest one rep: ``(digest, handles, results)``."""
    import repro.harness.fingerprint as fingerprint
    experiment, handles = workload.build(scenario_seed, rep_s)
    slicer(experiment.sim, round(rep_s * 1e6))
    results = experiment.run()
    return (fingerprint.digest_run(experiment, handles, results),
            handles, results)


def _pbe_figures(results) -> list[tuple[float, float]]:
    """``(goodput Mbit/s, p95 one-way delay ms)`` per PBE flow."""
    return [(r.summary.average_throughput_bps / 1e6, r.summary.p95_delay_ms)
            for r in results if r.spec.scheme == "pbe"]


def main() -> int:
    args = _args()
    sys.path.insert(0, os.path.abspath(args.src))
    from workloads import WORKLOADS, rep_seconds, rep_seeds
    workload = WORKLOADS[args.workload]
    seeds = rep_seeds(workload, args.seed, args.seconds, smoke=args.smoke,
                      held_out=args.held_out)
    rep_s = rep_seconds(workload, args.smoke)
    golden_path = Path(__file__).resolve().parent / "golden.json"
    golden = json.loads(golden_path.read_text(encoding="utf-8"))[
        args.workload]["smoke" if args.smoke else "full"]

    if args.mode == "setup":
        workload.build(seeds[0], rep_s)
        ready = time.monotonic()
        from refloop import SETUP_REF_CHUNKS, ReferenceLoop
        print(json.dumps({
            "ready": ready,
            "ref_speed": ReferenceLoop().speed(SETUP_REF_CHUNKS)}))
        return 0

    out: dict = {"attempted": 0, "failed": 0, "digests": []}

    def check(scenario_seed: int, digest: str) -> None:
        out["digests"].append(digest)
        if golden.get(str(scenario_seed)) != digest:
            out["failed"] += 1
            print(f"digest mismatch: {args.workload} seed {scenario_seed}: "
                  f"{digest} != {golden.get(str(scenario_seed))}",
                  file=sys.stderr)

    if args.mode == "measure":
        clock = _Clock()
        slicer = _interleaved_slices(clock)
        figures = []
        for scenario_seed in seeds:
            out["attempted"] += 1
            try:
                digest, _handles, results = _run_rep(workload, scenario_seed,
                                                     rep_s, slicer)
            except Exception:
                traceback.print_exc()
                out["failed"] += 1
                continue
            check(scenario_seed, digest)
            figures.extend(_pbe_figures(results))
        import resource
        out.update(
            sim_s=clock.sim_s, sim_host_s=clock.sim_host_s,
            ref_iterations=clock.ref_iterations,
            ref_host_s=clock.ref_host_s,
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            figures=figures)
        print(json.dumps(out))
        return 0

    # Trace mode: the same rep untraced, traced, and untraced again.  The
    # first leg warms the interpreter up; the last times the untraced rep.
    from repro.perf import PerfCounters
    from layertrace import Tracer, layer_metrics
    tracer = Tracer(PerfCounters())
    walls = {}
    for leg in ("warm-up", "traced", "untraced"):
        out["attempted"] += 1
        if leg == "traced":
            tracer.install()
        t0 = time.perf_counter()
        try:
            digest, _handles, rep_results = _run_rep(
                workload, seeds[0], rep_s, _plain_slices)
        except Exception:
            traceback.print_exc()
            out["failed"] += 1
            print(json.dumps(out))
            return 0
        finally:
            tracer.uninstall()
        walls[leg] = time.perf_counter() - t0
        check(seeds[0], digest)
        if leg == "traced":
            results = rep_results
    if args.spans_out:
        tracer.write_spans(args.spans_out)
    out["metrics"] = layer_metrics(tracer, results,
                                   traced_wall_s=walls["traced"],
                                   untraced_wall_s=walls["untraced"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
