"""Wired network elements.

* :class:`Link` — finite-rate droptail FIFO, timed in closed form: the
  Internet segment of the end-to-end path, or its shared bottleneck.
* :class:`DelayPipe` — infinite-rate, pure-propagation-delay pipe.
* :class:`BatchingPipe` — pure-delay pipe released on the LTE uplink
  grant cycle (the ACK return path).
* :class:`FlowDemux` and :class:`PacketSink` — routing and test sinks.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .packet import AckBatch, Packet
from .sim import Simulator
from .units import transmission_time_us


class Receiver:
    """Anything that can accept a packet (duck-typed protocol)."""

    def receive(self, packet: Packet) -> None:  # pragma: no cover
        raise NotImplementedError


class DelayPipe(Receiver):
    """Infinite-bandwidth link: every packet arrives ``delay_us`` later."""

    #: Checkpointing: the simulator and downstream sink are wiring,
    #: restored from the rebuilt experiment (see repro.statedict).
    SNAPSHOT_SKIP = ("sim", "sink")

    def __init__(self, sim: Simulator, sink: Receiver, delay_us: int,
                 name: str = "pipe") -> None:
        if delay_us < 0:
            raise ValueError("delay must be non-negative")
        self.sim = sim
        self.sink = sink
        self.delay_us = delay_us
        self.name = name
        self.forwarded = 0

    def receive(self, packet: Packet) -> None:
        packet.hops += 1
        self.forwarded += 1
        self.sim.schedule(self.delay_us, self.sink.receive, packet)


class BatchingPipe(Receiver):
    """Pure-delay pipe that releases packets in periodic batches.

    Models the LTE *uplink* path for ACKs: a mobile cannot transmit
    whenever it likes — uplink transmissions ride on the scheduling-
    request/grant cycle, so ACKs leave the phone in bursts every few
    milliseconds.  Client-side one-way-delay measurements never see
    this, but sender-side RTT/delay estimators do (it is a major source
    of the "ACK delay, ACK compression" problems §2 attributes to
    delay-based schemes on cellular paths).

    With ``batched=True`` each flush delivers the whole burst — single
    ACKs included — as **one** scheduled event carrying an
    :class:`AckBatch`, handed to the sink's ``receive_batch`` method
    when it has one (per-packet ``receive`` loop otherwise).  Scalar
    same-instant deliveries form a contiguous run of event sequence
    numbers with nothing interleaved between them, so collapsing the
    run into a single event only relabels subsequent sequence numbers
    uniformly — relative event order, and therefore behaviour, is
    unchanged (pinned by the ``repro.harness.fingerprint`` byte-identity
    suite).

    The batch is *staged columnar*: arriving ACKs append straight into
    the flush cycle's :class:`AckBatch` columns (``_stage``), so the
    flush itself is O(1) instead of a second pass over the burst.
    ``_held`` stays the canonical packet list (it doubles as the staged
    batch's ``packets`` column); after a checkpoint restore the stage is
    gone (it is derived state) and the flush rebuilds it.
    """

    SNAPSHOT_SKIP = ("sim", "sink", "_stage")

    def __init__(self, sim: Simulator, sink: Receiver, delay_us: int,
                 batch_interval_us: int = 5_000,
                 name: str = "uplink", batched: bool = False) -> None:
        if delay_us < 0:
            raise ValueError("delay must be non-negative")
        if batch_interval_us < 1:
            raise ValueError("batch interval must be positive")
        self.sim = sim
        self.sink = sink
        self.delay_us = delay_us
        self.batch_interval_us = batch_interval_us
        self.name = name
        self.batched = batched
        self._held: list[Packet] = []
        #: Columnar view of ``_held`` for the current flush cycle
        #: (``None`` while idle, in scalar mode, or after a restore).
        self._stage: Optional[AckBatch] = None
        self.forwarded = 0
        self.batches = 0

    def _open_cycle(self, flow_id: int) -> None:
        # Align the flush to the next grant boundary.  A packet
        # landing exactly on a boundary rides that grant (wait 0),
        # not the next one a full cycle later.
        wait = -self.sim.now % self.batch_interval_us
        self.sim.schedule(wait, self._flush)
        if self.batched:
            stage = AckBatch.stage(flow_id)
            stage.packets = self._held  # one list, two views
            self._stage = stage

    def receive(self, packet: Packet) -> None:
        packet.hops += 1
        if not self._held:
            self._open_cycle(packet.flow_id)
        stage = self._stage
        if stage is None:
            self._held.append(packet)
        else:
            stage.append(packet)  # appends to _held via the alias

    def receive_block(self, packets: list[Packet]) -> None:
        """Accept one burst of ACKs (same effects as per-packet calls).

        The columnar ACK-generation path hands a whole released
        transport block's ACKs over in one call, staged with one
        :meth:`AckBatch.extend`.
        """
        if not packets:
            return
        held = self._held
        if not held:
            self._open_cycle(packets[0].flow_id)
        for packet in packets:
            packet.hops += 1
        stage = self._stage
        if stage is None:
            held.extend(packets)
        else:
            stage.extend(packets)  # extends _held via the alias

    def _flush(self) -> None:
        batch, self._held = self._held, []
        stage, self._stage = self._stage, None
        self.batches += 1
        n = len(batch)
        self.forwarded += n
        if self.batched and n >= 1:
            if (stage is None or stage.packets is not batch
                    or len(stage.acked_seq) != n):
                # Stage lost (checkpoint restore mid-cycle): rebuild.
                stage = AckBatch.from_packets(batch)
            perf = self.sim.perf
            if perf is not None:
                perf.ack_batches += 1
                perf.acks_batched += n
            self.sim.schedule(self.delay_us, self._deliver, stage)
        else:
            for packet in batch:
                self.sim.schedule(self.delay_us, self.sink.receive, packet)

    def _deliver(self, batch: AckBatch) -> None:
        receive_batch = getattr(self.sink, "receive_batch", None)
        if receive_batch is not None:
            receive_batch(batch)
        else:
            receive = self.sink.receive
            for packet in batch.packets:
                receive(packet)


class Link(Receiver):
    """Finite-rate link with a droptail FIFO queue, in closed form.

    Packets are serialized one at a time at ``rate_bps``, then propagate
    for ``delay_us`` to ``sink``.  Nothing is simulated per packet: at
    enqueue, ``depart_i = max(arrive_i, depart_{i-1}) + tx_i``, and the
    queue holds the accepted packets whose serialization has not
    started.  An arrival finding ``queue_packets`` of them is dropped.
    Tie rule: a departure at ``t`` happens before an arrival at ``t``.

    A sink with ``receive_at(packet, arrive_us, depart_us)`` gets each
    packet once, at enqueue (see :meth:`repro.cell.basestation.
    CellularNetwork.stage` for why the departure rides along); any
    other sink gets one ``_finish`` event at ``depart + delay_us``.
    """

    SNAPSHOT_SKIP = ("sim", "sink", "_sink_at")

    def __init__(self, sim: Simulator, sink: Receiver, rate_bps: float,
                 delay_us: int, queue_packets: int = 1000,
                 name: str = "link") -> None:
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        if queue_packets < 1:
            raise ValueError("queue must hold at least one packet")
        self.sim = sim
        self.sink = sink
        self._sink_at = getattr(sink, "receive_at", None)
        self.rate_bps = rate_bps
        self.delay_us = delay_us
        self.queue_packets = queue_packets
        self.name = name
        #: When the wire is free of every packet accepted so far.
        self._free_us = 0
        #: ``(start_us, size_bits)`` of packets not yet on the wire.
        self._waiting: deque[tuple[int, int]] = deque()
        self._accepted = 0
        self.dropped = 0

    def _queued(self) -> deque:
        """``_waiting`` after retiring packets whose serialization began."""
        waiting = self._waiting
        now = self.sim.now
        while waiting and waiting[0][0] <= now:
            waiting.popleft()
        return waiting

    @property
    def queue_depth(self) -> int:
        """Packets currently queued (excluding the one being serialized)."""
        return len(self._queued())

    @property
    def forwarded(self) -> int:
        """Packets that have departed (serialization complete)."""
        waiting = self._queued()
        on_wire = bool(waiting) or self._free_us > self.sim.now
        return self._accepted - len(waiting) - on_wire

    def queue_delay_estimate_us(self, size_bits: int) -> int:
        """Serialization delay a new arrival of ``size_bits`` would see:
        the queued backlog, the arrival itself and the remainder of the
        packet on the wire."""
        waiting = self._queued()
        backlog = sum(bits for _start, bits in waiting) + size_bits
        wire_free = waiting[0][0] if waiting else self._free_us
        return (transmission_time_us(backlog, self.rate_bps)
                + max(0, wire_free - self.sim.now))

    def receive(self, packet: Packet) -> None:
        waiting = self._queued()
        if len(waiting) >= self.queue_packets:
            self.dropped += 1
            return
        packet.hops += 1
        self._accepted += 1
        now = self.sim.now
        start = max(self._free_us, now)
        if start > now:
            waiting.append((start, packet.size_bits))
        depart = self._free_us = start + transmission_time_us(
            packet.size_bits, self.rate_bps)
        arrive = depart + self.delay_us
        if self._sink_at is not None:
            self._sink_at(packet, arrive, depart)
        else:
            self.sim.schedule(arrive - now, self._finish, packet)

    def _finish(self, packet: Packet) -> None:
        self.sink.receive(packet)


class FlowDemux(Receiver):
    """Route packets to per-flow sinks by ``flow_id``.

    Used behind a shared bottleneck :class:`Link`: several senders pour
    into one queue, and the demux fans the survivors out to each flow's
    cellular ingress (the §4.2.3 shared-Internet-bottleneck topology).
    Behind a link, routes get the timestamped hand-off (``receive_at``).
    """

    #: Routes map to per-flow ingress adapters (rebuilt wiring).
    SNAPSHOT_SKIP = ("_routes",)

    def __init__(self, routes: Optional[dict] = None) -> None:
        self._routes: dict[int, Receiver] = dict(routes or {})
        self.unrouted = 0

    def add_route(self, flow_id: int, sink: Receiver) -> None:
        self._routes[flow_id] = sink

    def receive(self, packet: Packet) -> None:
        sink = self._routes.get(packet.flow_id)
        if sink is None:
            self.unrouted += 1
        else:
            sink.receive(packet)

    def receive_at(self, packet: Packet, arrive_us: int,
                   depart_us: int) -> None:
        sink = self._routes.get(packet.flow_id)
        if sink is None:
            self.unrouted += 1
        else:
            sink.receive_at(packet, arrive_us, depart_us)


class PacketSink(Receiver):
    """Terminal node that records everything it receives (tests/debug)."""

    def __init__(self, sim: Optional[Simulator] = None) -> None:
        self.sim = sim
        self.packets: list[Packet] = []

    def receive(self, packet: Packet) -> None:
        if self.sim is not None:
            packet.recv_time_us = self.sim.now
        self.packets.append(packet)
