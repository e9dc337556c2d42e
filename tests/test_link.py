"""Tests for wired links, delay pipes and droptail queues."""

from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.link import DelayPipe, FlowDemux, Link, PacketSink
from repro.net.packet import Packet
from repro.net.sim import Simulator
from repro.net.units import transmission_time_us


def _packet(seq=0, bits=12_000):
    return Packet(flow_id=1, seq=seq, size_bits=bits)


def test_delay_pipe_delivers_after_exact_delay():
    sim = Simulator()
    sink = PacketSink(sim)
    pipe = DelayPipe(sim, sink, delay_us=5_000)
    pipe.receive(_packet())
    sim.run()
    assert len(sink.packets) == 1
    assert sink.packets[0].recv_time_us == 5_000


def test_delay_pipe_rejects_negative_delay():
    with pytest.raises(ValueError):
        DelayPipe(Simulator(), PacketSink(), delay_us=-1)


def test_link_serialization_plus_propagation():
    sim = Simulator()
    sink = PacketSink(sim)
    # 12000 bits at 12 Mbit/s = 1 ms serialization, plus 2 ms propagation.
    link = Link(sim, sink, rate_bps=12e6, delay_us=2_000)
    link.receive(_packet())
    sim.run()
    assert sink.packets[0].recv_time_us == 3_000


def test_link_queue_serializes_back_to_back():
    sim = Simulator()
    sink = PacketSink(sim)
    link = Link(sim, sink, rate_bps=12e6, delay_us=0)
    for seq in range(3):
        link.receive(_packet(seq))
    sim.run()
    arrivals = [p.recv_time_us for p in sink.packets]
    assert arrivals == [1_000, 2_000, 3_000]


def test_link_droptail_drops_beyond_queue_limit():
    sim = Simulator()
    sink = PacketSink(sim)
    link = Link(sim, sink, rate_bps=12e6, delay_us=0, queue_packets=2)
    # One packet starts transmitting immediately; 2 queue; rest drop.
    for seq in range(6):
        link.receive(_packet(seq))
    sim.run()
    assert len(sink.packets) == 3
    assert link.dropped == 3
    assert link.forwarded == 3


def test_link_preserves_fifo_order():
    sim = Simulator()
    sink = PacketSink(sim)
    link = Link(sim, sink, rate_bps=100e6, delay_us=100)
    for seq in range(10):
        link.receive(_packet(seq))
    sim.run()
    assert [p.seq for p in sink.packets] == list(range(10))


def test_link_queue_depth_and_estimate():
    sim = Simulator()
    link = Link(sim, PacketSink(sim), rate_bps=12e6, delay_us=0)
    for seq in range(4):
        link.receive(_packet(seq))
    # One being transmitted, three queued.
    assert link.queue_depth == 3
    est = link.queue_delay_estimate_us(12_000)
    # 3 queued + the new one + the untransmitted remainder of the
    # in-flight packet, 1 ms each.
    assert est == 5_000


def test_link_estimate_counts_inflight_remainder():
    sim = Simulator()
    link = Link(sim, PacketSink(sim), rate_bps=12e6, delay_us=0)
    link.receive(_packet(0))  # serializes over [0, 1000) µs
    assert link.queue_delay_estimate_us(12_000) == 2_000
    # Halfway through serialization only half the packet remains.
    sim.run(until_us=500)
    assert link.queue_delay_estimate_us(12_000) == 1_000 + 500


def test_link_rejects_bad_config():
    sim = Simulator()
    with pytest.raises(ValueError):
        Link(sim, PacketSink(), rate_bps=0, delay_us=0)
    with pytest.raises(ValueError):
        Link(sim, PacketSink(), rate_bps=1e6, delay_us=0, queue_packets=0)


def test_link_resumes_after_idle():
    sim = Simulator()
    sink = PacketSink(sim)
    link = Link(sim, sink, rate_bps=12e6, delay_us=0)
    link.receive(_packet(0))
    sim.run()
    sim.schedule_at(10_000, link.receive, _packet(1))
    sim.run()
    assert [p.recv_time_us for p in sink.packets] == [1_000, 11_000]


def test_hop_counter_increments():
    sim = Simulator()
    sink = PacketSink(sim)
    pipe2 = DelayPipe(sim, sink, 10)
    pipe1 = DelayPipe(sim, pipe2, 10)
    p = _packet()
    pipe1.receive(p)
    sim.run()
    assert p.hops == 2


# ---------------------------------------------------------------------------
# Closed-form Link vs an event-driven FIFO model
# ---------------------------------------------------------------------------

class _FifoModel:
    """Event-driven droptail FIFO: one packet on the wire, the rest wait.

    Time only moves through :meth:`advance`, which completes every
    serialization ending at or before the new instant first -- the
    ``Link`` tie rule (a departure at ``t`` happens before an arrival
    or a probe at ``t``).
    """

    def __init__(self, rate_bps, delay_us, limit):
        self.rate_bps = rate_bps
        self.delay_us = delay_us
        self.limit = limit
        self.now = 0
        self.waiting = deque()      # (index, size_bits)
        self.wire = None            # (index, size_bits, end_us)
        self.forwarded = 0
        self.departed = {}          # index -> departure time
        self.dropped = set()

    def _start(self, index, size, at_us):
        self.wire = (index, size,
                     at_us + transmission_time_us(size, self.rate_bps))

    def advance(self, t):
        while self.wire is not None and self.wire[2] <= t:
            index, _size, end = self.wire
            self.departed[index] = end
            self.forwarded += 1
            self.wire = None
            if self.waiting:
                self._start(*self.waiting.popleft(), end)
        self.now = t

    def arrive(self, index, size):
        if len(self.waiting) >= self.limit:
            self.dropped.add(index)
        elif self.wire is None:
            self._start(index, size, self.now)
        else:
            self.waiting.append((index, size))

    def probe(self, size):
        backlog = sum(bits for _i, bits in self.waiting) + size
        remaining = 0 if self.wire is None else self.wire[2] - self.now
        return (len(self.waiting),
                transmission_time_us(backlog, self.rate_bps) + remaining,
                self.forwarded)


class _TimestampSink:
    """A sink taking the timestamped hand-off."""

    def __init__(self):
        self.arrivals = {}

    def receive(self, packet):  # pragma: no cover - never used
        raise AssertionError("timestamped sinks get receive_at only")

    def receive_at(self, packet, arrive_us, depart_us):
        self.arrivals[packet.seq] = (arrive_us, depart_us)


_SIZES = (1_500, 6_000, 12_000)
_RATES = (6e6, 12e6, 24e6, 48e6)


@st.composite
def _link_scripts(draw):
    rate = draw(st.sampled_from(_RATES))
    delay = draw(st.sampled_from((0, 1, 250, 1_000, 18_000)))
    limit = draw(st.integers(1, 6))
    # Bursts of same-instant arrivals fill the queue; gaps in whole
    # serialization times of the dominant size make later bursts land
    # exactly on departure instants.  Free sizes and gaps cover the
    # rest.
    size = draw(st.sampled_from(_SIZES))
    tx = transmission_time_us(size, rate)
    bursts = draw(st.lists(st.tuples(
        st.one_of(st.sampled_from((tx, 2 * tx, 3 * tx)),
                  st.integers(0, 3_000)),
        st.integers(1, limit + 2)), min_size=1, max_size=12))
    gaps = []
    for gap, count in bursts:
        gaps += [gap] + [0] * (count - 1)
    sizes = draw(st.lists(st.sampled_from((size, size, size) + _SIZES),
                          min_size=len(gaps), max_size=len(gaps)))
    probes = draw(st.lists(st.integers(0, sum(gaps) + 3_000),
                           max_size=12))
    return rate, delay, limit, gaps, sizes, probes


def _script_ops(gaps, sizes, probes):
    """Arrivals and probes in execution order: ``(time, kind, arg)``."""
    ops = []
    t = 0
    for index, (gap, size) in enumerate(zip(gaps, sizes)):
        t += gap
        ops.append((t, 0, (index, size)))
    ops += [(p, 1, 12_000) for p in probes]
    ops.sort(key=lambda op: (op[0], op[1]))
    return ops


@settings(max_examples=150, deadline=None)
@given(_link_scripts(), st.booleans())
# A full one-slot queue and an arrival at the next departure instant.
@example((12e6, 0, 1, [0, 0, 1_000], [12_000] * 3, [1_000]), False)
def test_closed_form_link_matches_event_driven_fifo(script, timestamped):
    rate, delay, limit, gaps, sizes, probes = script
    ops = _script_ops(gaps, sizes, probes)

    model = _FifoModel(rate, delay, limit)
    expected_probes = []
    for t, kind, arg in ops:
        model.advance(t)
        if kind == 0:
            model.arrive(*arg)
        else:
            expected_probes.append(model.probe(arg))
    model.advance(float("inf"))

    sim = Simulator()
    sink = _TimestampSink() if timestamped else PacketSink(sim)
    link = Link(sim, sink, rate_bps=rate, delay_us=delay,
                queue_packets=limit)
    seen_probes = []

    def probe(size):
        seen_probes.append((link.queue_depth,
                            link.queue_delay_estimate_us(size),
                            link.forwarded))

    for t, kind, arg in ops:
        if kind == 0:
            index, size = arg
            sim.schedule_at(t, link.receive,
                            Packet(flow_id=1, seq=index, size_bits=size))
        else:
            sim.schedule_at(t, probe, arg)
    # Run past the last departure: timestamped sinks leave no events.
    sim.run(until_us=max([d + delay for d in model.departed.values()]
                         + [op[0] for op in ops]))

    assert seen_probes == expected_probes
    expected = {i: (d + delay, d) for i, d in model.departed.items()}
    if timestamped:
        assert sink.arrivals == expected
    else:
        assert {p.seq: p.recv_time_us for p in sink.packets} == \
            {i: a for i, (a, _d) in expected.items()}
    assert set(range(len(gaps))) - set(expected) == model.dropped
    assert link.dropped == len(model.dropped)
    assert link.forwarded == model.forwarded


def test_arrival_at_a_departure_instant_sees_the_freed_slot():
    # 12 Mbit/s: packet 0 on the wire over [0, 1000), packet 1 waits
    # (the queue's one slot).  At t = 1000 packet 0 departs and packet
    # 1 starts, so an arrival at exactly 1000 finds the queue empty.
    sim = Simulator()
    sink = PacketSink(sim)
    link = Link(sim, sink, rate_bps=12e6, delay_us=0, queue_packets=1)
    link.receive(_packet(0))
    link.receive(_packet(1))
    link.receive(_packet(2))          # dropped: queue full at t = 0
    sim.schedule_at(1_000, link.receive, _packet(3))
    sim.run()
    assert [p.seq for p in sink.packets] == [0, 1, 3]
    assert link.dropped == 1


def test_link_hands_timestamped_sinks_one_call_and_no_event():
    sim = Simulator()
    sink = _TimestampSink()
    link = Link(sim, sink, rate_bps=12e6, delay_us=2_000)
    link.receive(_packet(0))
    link.receive(_packet(1))
    assert sink.arrivals == {0: (3_000, 1_000), 1: (4_000, 2_000)}
    assert sim.pending_events == 0


def test_flow_demux_routes_timestamped_arrivals():
    sim = Simulator()
    stamped = _TimestampSink()
    demux = FlowDemux({1: stamped})
    link = Link(sim, demux, rate_bps=12e6, delay_us=500)
    link.receive(Packet(1, 0, 12_000))
    link.receive(Packet(3, 0, 12_000))
    assert stamped.arrivals == {0: (1_500, 1_000)}
    assert demux.unrouted == 1
