"""Computed packet timing: staged cell ingress and paced runs.

The wired link computes each packet's arrival at the base station when
the packet enters the link and stages it there
(``CellularNetwork.stage``); senders send runs of paced packets from
one callback (``Simulator.advance_to``).  Neither may change what a
run does.  These tests pin that down four ways:

* the staging tie rule against the per-packet delivery events it
  replaced (an event-driven reference link kept in this file), for
  Internet delays on both sides of one subframe;
* staging edge cases: arrivals at a tick instant, departed and
  not-yet-attached users;
* run slicing: a flow simulated in 1/7/25 ms ``sim.run`` slices digests
  the same as one ``Experiment.run()``;
* checkpoint/restore while staged arrivals are in flight.
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.cell.basestation import CellularNetwork
from repro.harness import Experiment, FlowSpec, Scenario
from repro.harness.checkpoint import (
    read_snapshot,
    restore_experiment,
    snapshot_experiment,
    write_snapshot,
)
from repro.harness.fingerprint import digest_run
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.sim import Simulator
from repro.net.units import MSS_BITS, transmission_time_us, us_from_seconds
from repro.perf import PerfCounters
from repro.phy.carrier import CarrierConfig
from repro.phy.channel import StaticChannel


class _EventLink:
    """The per-packet link state machine the closed-form Link replaced.

    One event per serialization end, then one delivery event per
    packet queued at that instant -- the heap order the base station's
    staging rule has to reproduce.
    """

    def __init__(self, sim, sink, rate_bps, delay_us, queue_packets):
        self.sim = sim
        self.sink = sink
        self.rate_bps = rate_bps
        self.delay_us = delay_us
        self.queue_packets = queue_packets
        self._queue = deque()
        self._transmitting = False

    def receive(self, packet):
        if len(self._queue) >= self.queue_packets:
            return
        self._queue.append(packet)
        if not self._transmitting:
            self._start_next()

    def _start_next(self):
        if not self._queue:
            self._transmitting = False
            return
        self._transmitting = True
        packet = self._queue.popleft()
        self.sim.schedule(
            transmission_time_us(packet.size_bits, self.rate_bps),
            self._finish, packet)

    def _finish(self, packet):
        self.sim.schedule(self.delay_us, self.sink.receive, packet)
        self._start_next()


#: Send gaps (µs), cycled: irregular enough that departures, and with
#: them arrivals, land on every residue of the 1 ms tick grid.
_GAPS = (37, 211, 5, 400, 90, 1, 163)


def _cell_delivery_log(link_cls, delay_us, rate_bps=150e6,
                       duration_us=400_000):
    """Drive a packet stream through ``link_cls`` into one cell user."""
    sim = Simulator()
    # A 5 MHz carrier serves less than the stream offers, so the
    # user's queue overflows: drops must land on the same packets.
    net = CellularNetwork(sim, [CarrierConfig(0, 5.0)])
    log = []
    net.add_user(1, [0], StaticChannel(20.0, fading_std_db=1.0, seed=4),
                 on_packet=lambda p: log.append((sim.now, p.seq)),
                 queue_packets=400)
    net.start()
    link = link_cls(sim, net.ingress(1), rate_bps=rate_bps,
                    delay_us=delay_us, queue_packets=300)
    state = {"seq": 0}

    def send():
        seq = state["seq"]
        state["seq"] = seq + 1
        link.receive(Packet(1, seq, MSS_BITS if seq % 3 else 4_000,
                            sent_time_us=sim.now))
        if sim.now < duration_us:
            sim.schedule(_GAPS[seq % len(_GAPS)], send)

    sim.schedule(0, send)
    sim.run(until_us=duration_us + delay_us + 50_000)
    queue = net.user(1).queue
    return log, queue.enqueued, queue.dropped


@pytest.mark.parametrize("delay_us", [0, 500, 999, 1_000, 1_001, 18_000])
def test_staged_ingress_matches_per_packet_delivery_events(delay_us):
    # 150 Mbit/s serializes 12 000 bits in 80 µs: below one subframe,
    # so a 1 000 µs delay is decided by the departure-time rule alone.
    expected = _cell_delivery_log(_EventLink, delay_us)
    got = _cell_delivery_log(Link, delay_us)
    assert got == expected
    log, enqueued, dropped = got
    assert len(log) > 1_000 and dropped > 0   # the cell queue overflowed


def _network_with_user(perf=None):
    sim = Simulator()
    net = CellularNetwork(sim, [CarrierConfig(0, 20.0)],
                          perf_counters=perf)
    net.add_user(1, [0], StaticChannel(20.0))
    net.start()
    return sim, net


def test_arrival_at_a_tick_instant_precedes_the_tick_after_a_long_delay():
    sim, net = _network_with_user()
    net.stage(1, Packet(1, 0, MSS_BITS), arrive_us=5_000, depart_us=0)
    sim.run(until_us=4_999)
    assert net.user(1).queue.enqueued == 0
    sim.run(until_us=5_000)              # the tick at 5 000 µs has run
    assert net.user(1).queue.enqueued == 1


def test_arrival_at_a_tick_instant_follows_the_tick_after_a_short_delay():
    sim, net = _network_with_user()
    net.stage(1, Packet(1, 0, MSS_BITS), arrive_us=5_000,
              depart_us=4_500)
    sim.run(until_us=5_000)
    assert net.user(1).queue.enqueued == 0
    sim.run(until_us=6_000)
    assert net.user(1).queue.enqueued == 1


def test_staged_arrivals_for_a_departed_user_are_dropped():
    sim, net = _network_with_user()
    net.stage(1, Packet(1, 0, MSS_BITS), arrive_us=3_000, depart_us=0)
    sim.run(until_us=2_000)
    net.remove_user(1)
    sim.run(until_us=10_000)
    assert not net._staged[1]


def test_arrivals_due_before_a_user_exists_are_not_delivered_to_it():
    sim, net = _network_with_user()
    net.stage(7, Packet(7, 0, MSS_BITS), arrive_us=2_000, depart_us=0)
    net.stage(7, Packet(7, 1, MSS_BITS), arrive_us=9_000, depart_us=0)
    sim.run(until_us=5_000)
    net.add_user(7, [0], StaticChannel(20.0))
    assert net.queue_backlog_bits(7) == 0
    sim.run(until_us=9_000)
    assert net.user(7).queue.enqueued == 1


def test_staging_is_counted_when_counters_are_attached():
    perf = PerfCounters()
    sim, net = _network_with_user(perf)
    for seq in range(3):
        net.stage(1, Packet(1, seq, MSS_BITS), arrive_us=2_000,
                  depart_us=0)
    assert perf.arrivals_staged == 3
    assert perf.as_dict()["arrivals_staged"] == 3


# ---------------------------------------------------------------------------
# Whole flows: run slicing and checkpoints
# ---------------------------------------------------------------------------

DURATION_S = 0.6


def _experiment(scheme, delay_us, perf=None):
    experiment = Experiment(Scenario(
        name="timing", aggregated_cells=2, mean_sinr_db=20.0,
        busy=True, background_users=1, duration_s=DURATION_S, seed=11),
        perf_counters=perf)
    handles = [experiment.add_flow(FlowSpec(
        scheme=scheme, internet_delay_us=delay_us))]
    return experiment, handles


def _digest(scheme, delay_us, slice_us=None):
    experiment, handles = _experiment(scheme, delay_us)
    if slice_us is not None:
        end_us = us_from_seconds(DURATION_S)
        for t in range(slice_us, end_us, slice_us):
            experiment.sim.run(until_us=t)
            assert experiment.sim.now == t   # paced runs stop at until
    results = experiment.run()
    return digest_run(experiment, handles, results)


@pytest.mark.parametrize("scheme", ["pbe", "cubic"])
@pytest.mark.parametrize("delay_us", [500, 18_000])
def test_sliced_runs_match_one_run(scheme, delay_us):
    whole = _digest(scheme, delay_us)
    for slice_us in (1_000, 7_000, 25_000):
        assert _digest(scheme, delay_us, slice_us) == whole, slice_us


def test_paced_runs_replace_pacing_events():
    perf = PerfCounters()
    experiment, _ = _experiment("pbe", 18_000, perf)
    experiment.run()
    assert perf.packets_paced_inline > 0
    assert perf.arrivals_staged > 0


@pytest.mark.parametrize("delay_us", [500, 18_000])
def test_restore_with_staged_arrivals_in_flight(delay_us, tmp_path):
    experiment, handles = _experiment("pbe", delay_us)
    straight = digest_run(experiment, handles, experiment.run())

    experiment, _ = _experiment("pbe", delay_us)
    experiment.sim.run(until_us=us_from_seconds(DURATION_S / 2))
    staged = experiment.network._staged
    assert sum(len(q) for q in staged.values()) > 0
    path = write_snapshot(tmp_path, experiment.network.subframe,
                          snapshot_experiment(experiment))

    resumed, handles = _experiment("pbe", delay_us)
    restore_experiment(resumed, read_snapshot(path)[1])
    assert digest_run(resumed, handles, resumed.run()) == straight
