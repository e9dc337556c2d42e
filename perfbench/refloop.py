"""The fixed pure-Python reference loop behind ``sim_speed_rel``.

The host's speed drifts: on a shared 2-core container the same rep of
the same code ran at 2.9 to 4.4 simulated seconds per host second in
three back-to-back rounds.  The benchmark therefore runs this loop in
short chunks interleaved with the simulation slices, in the same
process, and divides the simulator's speed by the loop's.  Whatever
slows the host slows both, so the ratio keeps the simulator's own
speed.

The loop is a miniature of the simulator's event loop -- it allocates
small slotted packet objects, pushes ``(time, seq, packet)`` tuples on
a heap, pops them and hands each to a receiver that updates counters
and a moving average -- because a loop that exercises the same parts
of the interpreter and allocator tracks the host's slowdowns best (a
plain arithmetic loop left about three times the spread).  The cyclic
garbage collector is off inside a chunk: its cost grows with the
simulation's live objects, so a collection firing in the chunk would
time the simulation's heap instead of the host.  The loop belongs to
the benchmark and must never change: every ``sim_speed_rel`` value is
measured against it.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Loop iterations per chunk (about 2 ms on a 2-core x86 container).
CHUNK_ITERATIONS = 2_000
#: Chunks run on each side of a set-up probe.
SETUP_REF_CHUNKS = 30
#: Loop speed, million iterations per host second, that ``setup_s`` is
#: rescaled to.
NOMINAL_SPEED = 1.0


class _Packet:
    __slots__ = ("seq", "size_bits", "sent_us")

    def __init__(self, seq: int, size_bits: int, sent_us: int) -> None:
        self.seq = seq
        self.size_bits = size_bits
        self.sent_us = sent_us


class _Receiver:
    __slots__ = ("bits", "count", "delay")

    def __init__(self) -> None:
        self.bits = 0
        self.count = 0
        self.delay = 0.0

    def receive(self, packet: _Packet, now_us: int) -> None:
        self.bits += packet.size_bits
        self.count += 1
        self.delay = 0.875 * self.delay + 0.125 * (now_us - packet.sent_us)


class ReferenceLoop:
    """Owns the loop's receivers and heap across chunks."""

    def __init__(self) -> None:
        self._receivers = {k: _Receiver() for k in range(64)}
        self._heap: list = []

    def chunk(self, iterations: int = CHUNK_ITERATIONS) -> float:
        """Run one chunk; the return value only keeps the work observable."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            heap = self._heap
            heap.clear()
            receivers = self._receivers
            push = heapq.heappush
            pop = heapq.heappop
            for i in range(iterations):
                push(heap, (i + (i * 7919) % 1009, i, _Packet(i, 12_000, i)))
                if len(heap) > 48:
                    now_us, seq, packet = pop(heap)
                    receivers[seq & 63].receive(packet, now_us)
            return receivers[0].delay
        finally:
            if collecting:
                gc.enable()

    def speed(self, chunks: int) -> float:
        """Million loop iterations per host second over ``chunks`` chunks."""
        start = time.perf_counter()
        for _ in range(chunks):
            self.chunk()
        return chunks * CHUNK_ITERATIONS / 1e6 / (time.perf_counter() - start)
