"""Hot-path observability: lightweight counters and wall-time probes.

The ROADMAP's "fast as the hardware allows" goal is gated on the
per-subframe tick, so this package gives the simulator a cheap,
opt-in instrumentation surface plus a benchmark harness
(:mod:`repro.perf.bench`) that turns it into a recorded trajectory
(``BENCH_hotpath.json``, emitted by ``python -m repro perf``).

Design constraints:

* **Zero overhead when off.**  Every hook site holds an optional
  reference that defaults to ``None``; the hot loops pay one attribute
  load and an ``is None`` test, nothing else.
* **No behavioural footprint.**  Counters never feed back into
  simulation decisions, so an instrumented run is byte-identical to an
  uninstrumented one (the determinism suite is the oracle for this).
* **Cheap counters, opt-in timers.**  Integer counters are always
  maintained once a :class:`PerfCounters` is attached; wall-clock
  subsystem timers additionally require ``time_subsystems=True``
  because ``perf_counter()`` calls in a per-subframe loop are not free.
"""

from __future__ import annotations

import time

__all__ = ["PerfCounters"]


class PerfCounters:
    """Shared counter block for one simulation's hot paths.

    Attach one instance to the pieces you want to observe::

        perf = PerfCounters(time_subsystems=True)
        sim = Simulator(perf_counters=perf)
        network = CellularNetwork(sim, carriers, perf_counters=perf)
        ...
        print(perf.format())

    or pass it to :class:`repro.harness.runner.Experiment`, which wires
    both for you.  Counters:

    ``ticks``
        subframes the MAC engine processed.
    ``events_popped``
        events the simulator executed (live pops).
    ``events_cancelled_popped``
        lazily-deleted events that were popped and skipped.
    ``events_scheduled``
        total events pushed onto the heap.
    ``heap_compactions``
        times the simulator rebuilt its heap to evict cancelled
        entries (see :meth:`Simulator.schedule`'s lazy deletion).
    ``ack_batches`` / ``acks_batched``
        grant-cycle flushes the columnar transport engine delivered as
        one :class:`~repro.net.packet.AckBatch` event, and how many
        ACKs rode in them (single-ACK flushes stay scalar).
    ``packets_paced_inline``
        data packets a sender sent inside an earlier pacing callback,
        after :meth:`~repro.net.sim.Simulator.advance_to`, instead of
        from their own event.
    ``arrivals_staged``
        wired arrivals handed to the base station ahead of time
        (:meth:`~repro.cell.basestation.CellularNetwork.stage`) instead
        of through a delivery event.
    ``cells_ticked``
        :meth:`~repro.cell.basestation.CellularNetwork._tick_cell`
        calls: the live cells the MAC engine visited, summed over
        ticks (the batched engine skips unobservable cells).
    ``timers``
        ``{subsystem: seconds}`` wall time, populated only with
        ``time_subsystems=True``.
    """

    __slots__ = ("ticks", "events_popped", "events_cancelled_popped",
                 "events_scheduled", "heap_compactions", "ack_batches",
                 "acks_batched", "packets_paced_inline", "arrivals_staged",
                 "cells_ticked", "timers", "time_subsystems", "_t0")

    def __init__(self, time_subsystems: bool = False) -> None:
        self.time_subsystems = time_subsystems
        self.reset()

    def reset(self) -> None:
        """Zero every counter (the attachment points are kept)."""
        self.ticks = 0
        self.events_popped = 0
        self.events_cancelled_popped = 0
        self.events_scheduled = 0
        self.heap_compactions = 0
        self.ack_batches = 0
        self.acks_batched = 0
        self.packets_paced_inline = 0
        self.arrivals_staged = 0
        self.cells_ticked = 0
        self.timers: dict[str, float] = {}
        self._t0 = time.perf_counter()

    # ------------------------------------------------------------------
    # Subsystem wall-time probes
    # ------------------------------------------------------------------
    def add_time(self, key: str, seconds: float) -> None:
        self.timers[key] = self.timers.get(key, 0.0) + seconds

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def cancelled_event_ratio(self) -> float:
        """Fraction of popped events that were dead on arrival."""
        total = self.events_popped + self.events_cancelled_popped
        if total == 0:
            return 0.0
        return self.events_cancelled_popped / total

    def ticks_per_second(self) -> float:
        """Subframes processed per wall-clock second since reset."""
        elapsed = time.perf_counter() - self._t0
        if elapsed <= 0.0:
            return 0.0
        return self.ticks / elapsed

    def as_dict(self) -> dict:
        """JSON-ready snapshot (the ``counters`` block of the bench)."""
        return {
            "ticks": self.ticks,
            "events_popped": self.events_popped,
            "events_cancelled_popped": self.events_cancelled_popped,
            "events_scheduled": self.events_scheduled,
            "heap_compactions": self.heap_compactions,
            "ack_batches": self.ack_batches,
            "acks_batched": self.acks_batched,
            "packets_paced_inline": self.packets_paced_inline,
            "arrivals_staged": self.arrivals_staged,
            "cells_ticked": self.cells_ticked,
            "cancelled_event_ratio": round(self.cancelled_event_ratio, 6),
            "timers_s": {k: round(v, 6)
                         for k, v in sorted(self.timers.items())},
        }

    def format(self) -> str:
        """One-line human summary for progress/stderr output."""
        parts = [f"ticks={self.ticks}",
                 f"events={self.events_popped}",
                 f"cancelled={self.events_cancelled_popped} "
                 f"({100 * self.cancelled_event_ratio:.1f}%)",
                 f"compactions={self.heap_compactions}"]
        if self.timers:
            timing = ", ".join(f"{k}={v:.3f}s"
                               for k, v in sorted(self.timers.items()))
            parts.append(timing)
        return " ".join(parts)
