"""The benchmark's four workloads and the seeds each run draws from.

Every workload is closed and single-process: the simulator runs as
fast as it can.  A run is a fixed list of *reps*; each rep builds one
fresh experiment from a scenario seed, simulates it for the
workload's rep length and digests it with
``repro.harness.fingerprint.digest_run``.  The digest is checked
against ``golden.json``, so a rep is correct only if the program
behaved byte-for-byte as it did when the digests were recorded.

Scenario seeds come from a per-workload pool, not straight from
``--seed``: golden digests exist only for pool seeds.  ``--seed n``
runs the reps ``pool[n % P], pool[(n + 1) % P], ...``.  A run of the
benchmark's length has at least ``P`` reps, so every run covers the
whole pool and ``--seed`` only picks which seeds run twice: the seed
mix, and with it goodput, delay and the simulator's work, moves by
one or two reps in eight or nine.  Each workload also has one held-out
seed outside its pool, recorded the same way, for checking a claim on
a seed not used while writing it (``run.py --held-out``).

This module drives the program only through its public surface:
``Experiment``, ``FlowSpec``, ``Scenario``, ``repro.metro.shard_jobs``
and ``build_shard``, and ``digest_run``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

#: Scenario seeds a run's reps cycle through (index 0 is the default).
POOL_SIZE = 7
POOL_BASE = 101
HELD_OUT_SEED = 9001
#: Simulated seconds per rep in smoke mode (one rep, pool seed 0).
SMOKE_REP_S = 1.0


def pool_seeds() -> list[int]:
    return [POOL_BASE + i for i in range(POOL_SIZE)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Simulated seconds per rep.
    rep_s: float
    #: Simulated seconds per host second at the commit that defined the
    #: benchmark (2-core x86 container).  Only sizes a run: the number
    #: of reps is fixed by ``--seconds`` and this constant, never by a
    #: clock, so every run of a seed simulates exactly the same work.
    nominal_speed: float
    #: ``build(scenario_seed, duration_s) -> (experiment, handles)``.
    build: Callable


def _busy_pbe(seed: int, duration_s: float):
    from repro.harness import Experiment, FlowSpec, Scenario
    experiment = Experiment(Scenario(
        name="busy_pbe", aggregated_cells=2, mean_sinr_db=18.0,
        busy=True, background_users=4, duration_s=duration_s,
        seed=seed))
    return experiment, [experiment.add_flow(FlowSpec(scheme="pbe"))]


def _idle_ca_pbe(seed: int, duration_s: float):
    from repro.harness import Experiment, FlowSpec, Scenario
    experiment = Experiment(Scenario(
        name="idle_ca_pbe", aggregated_cells=3, mean_sinr_db=23.0,
        busy=False, duration_s=duration_s, seed=seed))
    return experiment, [experiment.add_flow(FlowSpec(scheme="pbe"))]


def _contended_faulted(seed: int, duration_s: float):
    from repro.harness import Experiment, FlowSpec, Scenario
    experiment = Experiment(Scenario(
        name="contended_faulted", aggregated_cells=2, mean_sinr_db=18.0,
        busy=True, background_users=2, duration_s=duration_s,
        seed=seed))
    faults = {"seed": seed, "dci_miss_rate": 0.05,
              "dci_false_rate": 0.002, "ack_loss_rate": 0.01}
    specs = [
        FlowSpec(scheme="pbe", rnti=100, faults=faults,
                 pbe_monitor_kwargs={"decode_latency_subframes": 2}),
        FlowSpec(scheme="cubic", rnti=101),
        FlowSpec(scheme="bbr", rnti=102),
    ]
    return experiment, [experiment.add_flow(spec) for spec in specs]


def _metro_sparse(seed: int, duration_s: float):
    import repro.metro as metro
    # Two diurnal hours, so the population churns at the boundary; one
    # hotspot (0.5% of 240 cells) carries the pbe/cubic/bbr fleet.
    mset = metro.MetroSet(
        name="metro_sparse", description="sparse 240-cell benchmark shard",
        grid=metro.GridSpec(name="metro_sparse", n_cells=240,
                            hotspot_fraction=0.005, seed=seed),
        hours=(13, 14), hour_s=duration_s / 2, shard_cells=240,
        users_scale=0.01, max_users_per_cell=2, walkers_per_shard=3,
        fleet=("pbe", "cubic", "bbr"), seed=seed)
    (job,) = metro.shard_jobs(mset)
    shard = metro.build_shard(job.params)
    return shard.experiment, shard.handles


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("busy_pbe",
             "busy 2-carrier 18 dB cell, 4 on/off users, one PBE flow: "
             "cell tick, scheduler and monitor DCI ingest dominate",
             rep_s=4.5, nominal_speed=2.2, build=_busy_pbe),
    Workload("idle_ca_pbe",
             "idle 3-carrier CA at 23 dB, one ~230 Mbit/s PBE flow: the "
             "per-packet path dominates and the monitor sees empty records",
             rep_s=3.0, nominal_speed=1.31, build=_idle_ca_pbe),
    Workload("contended_faulted",
             "busy 2-carrier cell, PBE vs CUBIC vs BBR with DCI faults, "
             "decode latency and ACK loss: per-record ingest, loss recovery",
             rep_s=4.0, nominal_speed=1.86, build=_contended_faulted),
    Workload("metro_sparse",
             "240-cell sparse metro shard, one hotspot fleet, walkers and "
             "hour-boundary churn: per-cell tick cost and idle fast-forward",
             rep_s=3.6, nominal_speed=1.7, build=_metro_sparse),
)}


def rep_seeds(workload: Workload, seed: int, seconds: float,
              smoke: bool = False, held_out: bool = False) -> list[int]:
    """The scenario seeds of one run's reps, in order."""
    if smoke:
        return [HELD_OUT_SEED if held_out else pool_seeds()[0]]
    n_reps = max(1, round(seconds * workload.nominal_speed
                          / workload.rep_s))
    if held_out:
        return [HELD_OUT_SEED] * n_reps
    pool = pool_seeds()
    return [pool[(seed + k) % POOL_SIZE] for k in range(n_reps)]


def rep_seconds(workload: Workload, smoke: bool) -> float:
    return SMOKE_REP_S if smoke else workload.rep_s
