"""Live-cell list: the batched engine ticks only observable cells.

The batched engine keeps a cached list of the cells that are not
skippable (no monitor, no configured user, no pending HARQ
retransmission, no PF state) and visits only those each subframe; a
skipped cell records the subframe it was first skipped and replays its
control-traffic generator from there when it becomes observable again.
The scalar reference (``batched=False``) never skips, so every liveness
flip is checked by driving both engines through the same script and
comparing whole-run digests, and the ``cells_ticked`` counter pins that
the batched engine really stops visiting a cell once it may.
"""

from __future__ import annotations

import hashlib

from repro.cell.basestation import CellularNetwork
from repro.harness import FlowSpec, Scenario
from repro.harness.checkpoint import CheckpointConfig, CheckpointManager
from repro.harness.fingerprint import digest_run
from repro.harness.runner import Experiment
from repro.net.packet import Packet
from repro.net.sim import Simulator
from repro.net.units import MSS_BITS, us_from_seconds
from repro.perf import PerfCounters
from repro.phy.carrier import CarrierConfig
from repro.phy.channel import StaticChannel

N_CELLS = 8
#: Structural events sit half-way between ticks, so no tie-breaking
#: between an event and a tick is involved.
HALF = 500


def _offer(sim: Simulator, network: CellularNetwork, rnti: int,
           start_us: int, stop_us: int, per_ms: int) -> None:
    """Enqueue ``per_ms`` MSS packets for ``rnti`` every millisecond."""
    seq = [0]

    def send() -> None:
        for _ in range(per_ms):
            network.enqueue(rnti, Packet(rnti, seq[0], MSS_BITS,
                                         sent_time_us=sim.now))
            seq[0] += 1
        if sim.now + 1_000 < stop_us:
            sim.schedule(1_000, send)

    sim.schedule(start_us - sim.now, send)


class _Script:
    """A small many-cell network driven through every liveness flip.

    * cell 0: monitored, one busy user throughout;
    * cell 2: user A is served briefly, then removed at 300 ms (its
      last user; no HARQ pending by then);
    * cell 3: users B and C at low SINR; soon after 1 000 ms, once C
      has a retransmission pending, C departs and B is handed over to
      cell 4, so cell 3 stays live only until C's retransmissions
      drain;
    * cell 4: B's cell until B is handed over to the live cell 0 at
      2 000 ms;
    * cell 6: idle until a monitor attaches at 3 000 ms;
    * cell 7: idle until user D is added at 3 500 ms;
    * cells 1 and 5: idle until the end, when every cell is monitored.
    """

    def __init__(self, batched: bool) -> None:
        self.sim = sim = Simulator()
        self.perf = PerfCounters()
        self.net = net = CellularNetwork(
            sim, [CarrierConfig(c, 10.0) for c in range(N_CELLS)],
            control_arrivals_per_subframe=0.3, seed=5,
            perf_counters=self.perf, batched=batched)
        self.log: list[tuple] = []
        net.attach_monitor(0, self._record)
        self._add(1, [0], StaticChannel(18.0, fading_std_db=1.0, seed=1))
        self._add(2, [2], StaticChannel(30.0, seed=2))
        self._add(3, [3], StaticChannel(7.0, fading_std_db=4.0, seed=3))
        self._add(4, [3], StaticChannel(7.0, fading_std_db=4.0, seed=4))
        net.start()
        _offer(sim, net, 1, 0, 4_100_000, 2)
        _offer(sim, net, 2, 0, 50_000, 1)
        _offer(sim, net, 3, 0, 2_000_000, 3)
        _offer(sim, net, 4, 0, 1_000_000, 3)
        _offer(sim, net, 5, 3_500_000 + HALF, 4_100_000, 2)
        sim.schedule(300_000 + HALF, net.remove_user, 2)
        self.departed_at: int | None = None
        sim.schedule(1_000_000 + HALF, self._depart_with_harq_pending)
        sim.schedule(2_000_000 + HALF, net.handover, 3, [0])
        sim.schedule(3_000_000 + HALF, net.attach_monitor, 6, self._record)
        sim.schedule(3_500_000 + HALF, self._add, 5, [7],
                     StaticChannel(15.0, fading_std_db=2.0, seed=5))
        sim.schedule(4_000_000 + HALF, self._monitor_all)

    def _add(self, rnti: int, cells: list[int], channel) -> None:
        def delivered(packet: Packet) -> None:
            self.log.append(("pkt", rnti, self.sim.now, packet.seq))
        self.net.add_user(rnti, cells, channel, on_packet=delivered)

    def _depart_with_harq_pending(self) -> None:
        """At the first half-tick C has a retransmission pending on
        cell 3, C departs and B is handed over to cell 4."""
        if not any(harq.tb.rnti == 4
                   for (cell, _), due in self.net._retx.items()
                   if cell == 3 for harq in due):
            self.sim.schedule(1_000, self._depart_with_harq_pending)
            return
        self.net.remove_user(4)
        self.net.handover(3, [4])
        self.departed_at = self.sim.now

    def _record(self, record) -> None:
        self.log.append(("rec", record.cell_id, record.subframe,
                         tuple(record.messages)))

    def _monitor_all(self) -> None:
        for cell in range(N_CELLS):
            if cell not in (0, 6):
                self.net.attach_monitor(cell, self._record)

    def run(self, until_us: int) -> tuple[int, int]:
        """Run on; return the (ticks, cells ticked) during the stretch."""
        ticks, cells = self.perf.ticks, self.perf.cells_ticked
        self.sim.run(until_us=until_us)
        return self.perf.ticks - ticks, self.perf.cells_ticked - cells

    def digest(self) -> str:
        hasher = hashlib.sha256(repr(self.log).encode())
        hasher.update(repr(self.net._rng.bit_generator.state).encode())
        return hasher.hexdigest()


def _scalar_digest() -> str:
    script = _Script(batched=False)
    ticks, cells = script.run(4_100_000)
    assert cells == N_CELLS * ticks  # the reference never skips
    return script.digest()


def test_every_liveness_flip_matches_the_scalar_engine():
    script = _Script(batched=True)
    script.run(400_000)
    # Cell 2 lost its last user: only cells 0 and 3 are visited.
    ticks, cells = script.run(900_000)
    assert cells == 2 * ticks

    while script.departed_at is None:
        script.run(script.sim.now + 1_000)
    assert script.departed_at < 1_500_000
    assert script.net._cell_retx_count[3] > 0  # left behind by C
    # Cell 3 stays live while they drain, then drops out: cells 0 and
    # 4 (B's new cell) remain.
    ticks, cells = script.run(script.departed_at + 100_000)
    assert 2 * ticks < cells < 3 * ticks
    ticks, cells = script.run(1_900_000)
    assert cells == 2 * ticks
    # B moved on to cell 0, which was live already: cell 4 drops out.
    script.run(2_100_000)
    ticks, cells = script.run(2_900_000)
    assert cells == ticks

    script.run(3_100_000)
    ticks, cells = script.run(3_400_000)
    assert cells == 2 * ticks  # + cell 6's monitor
    script.run(3_600_000)
    ticks, cells = script.run(3_900_000)
    assert cells == 3 * ticks  # + cell 7's user D
    script.run(4_001_000)
    ticks, cells = script.run(4_100_000)
    assert cells == N_CELLS * ticks

    assert script.digest() == _scalar_digest()


def test_live_list_is_stable_without_structural_change():
    script = _Script(batched=True)
    script.run(400_000)
    live = script.net._live_cells
    script.run(900_000)
    assert script.net._live_cells is live
    assert [cell for cell, _ in live] == [0, 3]

    # Proportional-fair cells never leave the list, users or not.
    sim = Simulator()
    net = CellularNetwork(sim, [CarrierConfig(c) for c in range(3)],
                          scheduler_policy="proportional_fair")
    net.start()
    sim.run(until_us=5_000)
    live = net._live_cells
    sim.run(until_us=50_000)
    assert net._live_cells is live and len(live) == 3


# ---------------------------------------------------------------------------
# Checkpoint taken while cells are skipped
# ---------------------------------------------------------------------------

def _experiment(batched: bool = True) -> tuple:
    """A CUBIC flow (no monitor) walking onto cells idle since t=0."""
    scenario = Scenario(
        name="live-cells-ckpt",
        carriers=[CarrierConfig(c, 10.0) for c in range(6)],
        aggregated_cells=1, busy=False, background_users=0,
        control_arrivals_by_cell={c: 0.4 for c in range(6)},
        duration_s=0.5, seed=77)
    experiment = Experiment(scenario, batched=batched)
    handle = experiment.add_flow(FlowSpec(
        scheme="cubic", cells=[0],
        channel=StaticChannel(16.0, fading_std_db=1.5, seed=8)))
    experiment.schedule_handover(handle, 0.15, [3])
    experiment.schedule_handover(handle, 0.35, [5])
    return experiment, [handle]


def test_checkpoint_while_cells_are_skipped_resumes_identically(tmp_path):
    experiment, handles = _experiment()
    straight = digest_run(experiment, handles, experiment.run())
    experiment, handles = _experiment(batched=False)
    assert digest_run(experiment, handles, experiment.run()) == straight

    config = CheckpointConfig(directory=str(tmp_path),
                              interval_subframes=200, wall_budget=None)
    experiment, _ = _experiment()
    manager = CheckpointManager(config)
    manager.run_to(experiment, us_from_seconds(0.25))  # "crash" here
    assert manager.saved == 1
    # Cell 5 has been skipped since t=0; the resumed run must replay
    # its control traffic from there when the flow arrives at 350 ms.
    assert experiment.network._skipped_from[5] == 0
    assert {1, 2, 4, 5} <= set(experiment.network._skipped_from)

    experiment, handles = _experiment()
    manager = CheckpointManager(config)
    manager.try_restore(experiment)
    assert experiment.sim.now == us_from_seconds(0.2)
    resumed = digest_run(experiment, handles,
                         experiment.run(checkpoint=manager))
    assert resumed == straight
