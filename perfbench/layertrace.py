"""Span tracing of the simulator's layers, from outside the program.

:class:`Tracer` replaces layer entry points -- the methods the event
loop and neighbouring layers call -- at class or module level with
wrappers that record one span per call: name, start, end and parent.
Spans are kept in four flat arrays while the run executes and are
reduced (or written out) when it ends.  A span's self time is its
duration minus the durations of its child spans.

The wrappers only observe: they call the original with the original
arguments and return its result, so a traced run must produce the same
``digest_run`` digest as an untraced one; the benchmark checks that on
every traced run.  The single exception is ``Experiment.__init__``,
whose wrapper also passes the tracer's ``PerfCounters`` through the
constructor's public ``perf_counters`` argument, so that experiments
built inside the program (a metro shard's) are counted too.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from typing import Callable, Optional

import numpy as np


def _second_arg_len(args: tuple) -> int:
    return len(args[1])


def _block_length(args: tuple) -> int:
    return args[2]


#: Wrapped entry points: ``(module, class or None, attributes, span,
#: size)``.  ``None`` as the class wraps a module-level name -- the
#: name the caller looks up, e.g. ``allocate_prbs`` as imported by the
#: base station.  ``size``, when set, gives a call's size from its
#: positional arguments (subframes per channel block, packets per
#: client block, contexts per sender block).  Every callback the event
#: loop pops at this commit goes through one of these, so ``net.sim``
#: self time is the loop itself.
ENTRY_POINTS = (
    ("repro.net.sim", "Simulator", ("run",), "net.sim", None),
    ("repro.net.link", "Link", ("receive", "_finish"), "net.link", None),
    ("repro.net.link", "BatchingPipe",
     ("receive", "receive_block", "_flush", "_deliver"), "net.link", None),
    ("repro.net.link", "DelayPipe", ("receive",), "net.link", None),
    ("repro.phy.channel", "StaticChannel", ("sinr_block",), "phy.channel",
     _block_length),
    ("repro.phy.channel", "GaussMarkovChannel", ("sinr_block",),
     "phy.channel", _block_length),
    ("repro.phy.channel", "TraceChannel", ("sinr_block",), "phy.channel",
     _block_length),
    ("repro.phy.channel", "StaticChannel", ("sinr_db",), "phy.channel",
     None),
    ("repro.phy.channel", "GaussMarkovChannel", ("sinr_db",),
     "phy.channel", None),
    ("repro.phy.channel", "TraceChannel", ("sinr_db",), "phy.channel",
     None),
    ("repro.cell.basestation", "CellularNetwork", ("_tick",), "cell.tick",
     None),
    ("repro.cell.basestation", None, ("allocate_prbs",), "cell.scheduler",
     None),
    ("repro.cell.basestation", "_Ingress", ("receive",), "cell.ingress",
     None),
    ("repro.cell.basestation", "CellularNetwork",
     ("add_user", "add_exogenous_user", "remove_user", "handover"),
     "cell.churn", None),
    ("repro.cell.ue", "UserEquipment", ("receive_tb", "abandon_tb"),
     "cell.ue", None),
    ("repro.monitor.decoder", "ControlChannelDecoder", ("on_subframe",),
     "monitor.decode", None),
    ("repro.monitor.pbe", "PbeMonitor", ("report",), "monitor.report",
     None),
    ("repro.core.client", "PbeClient", ("receive_block",), "core.client",
     _second_arg_len),
    ("repro.core.sender", "PbeSender", ("on_ack_block",), "core.sender",
     _second_arg_len),
    ("repro.core.sender", "PbeSender", ("on_timeout",), "core.sender",
     None),
    ("repro.baselines.base", "Sender",
     ("receive", "receive_batch", "_on_rto", "start", "stop"),
     "baselines.transport", None),
    ("repro.baselines.base", "AckingReceiver", ("receive", "receive_block"),
     "baselines.transport", None),
    ("repro.baselines.base", "Sender", ("_pace",), "baselines.pace", None),
    ("repro.baselines.bbr", "Bbr", ("on_ack_block", "on_timeout"),
     "baselines.cc", None),
    ("repro.baselines.cubic", "Cubic",
     ("on_ack_block", "on_loss", "on_timeout"), "baselines.cc", None),
    ("repro.baselines.copa", "Copa",
     ("on_ack_block", "on_loss", "on_timeout"), "baselines.cc", None),
    ("repro.faults.pipe", "ImpairedPipe", ("receive",), "faults", None),
    ("repro.faults.decoder", "LossyDecoder", ("on_subframe",), "faults",
     None),
    ("repro.harness.runner", "Experiment", ("add_flow",), "harness.build",
     None),
    # After the benchmark's slices, Experiment.run only summarizes.
    ("repro.harness.runner", "Experiment", ("run",), "harness.summary",
     None),
    ("repro.harness.fingerprint", None, ("digest_run",), "harness.digest",
     None),
    ("repro.metro", None, ("shard_jobs", "build_shard"), "metro.build",
     None),
)


class Tracer:
    """Records spans at the layer entry points it wraps."""

    def __init__(self, perf_counters) -> None:
        self.perf = perf_counters
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        #: ``{span name: [sized calls, total size]}``.
        self.sizes: dict[str, list] = {}
        self._undo: list = []

    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn: Callable, name: str,
              size: Optional[Callable] = None) -> Callable:
        nid = self._name_id(name)
        names_append = self.span_name.append
        parents_append = self.span_parent.append
        starts_append = self.span_start.append
        ends_append = self.span_end.append
        ends = self.span_end
        stack = self._stack
        clock = time.perf_counter
        tally = self.sizes.setdefault(name, [0, 0]) if size else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(ends)
            names_append(nid)
            parents_append(stack[-1])
            ends_append(0.0)
            stack.append(index)
            if tally is not None:
                tally[0] += 1
                tally[1] += size(args)
            starts_append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return wrapper

    def _replace(self, owner: object, attr: str, value: Callable) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every entry point (before the experiment is built)."""
        def owner_of(module: str, cls: Optional[str]) -> object:
            mod = importlib.import_module(module)
            return mod if cls is None else getattr(mod, cls)

        for module, cls, attrs, name, size in ENTRY_POINTS:
            owner = owner_of(module, cls)
            for attr in attrs:
                self._replace(owner, attr,
                              self._wrap(getattr(owner, attr), name, size))
        self._install_monitor_callbacks()
        self._install_experiment_init()

    def _install_monitor_callbacks(self) -> None:
        """Span every control-channel callback passed to attach_monitor."""
        from repro.cell.basestation import CellularNetwork
        attach = CellularNetwork.attach_monitor
        wrap = self._wrap

        def message_count(args: tuple) -> int:
            return len(args[0].messages)

        @functools.wraps(attach)
        def attach_monitor(network, cell_id, callback):
            return attach(network, cell_id,
                          wrap(callback, "monitor.ingest", message_count))

        self._replace(CellularNetwork, "attach_monitor", attach_monitor)

    def _install_experiment_init(self) -> None:
        from repro.harness.runner import Experiment
        init = self._wrap(Experiment.__init__, "harness.build")
        perf = self.perf

        @functools.wraps(Experiment.__init__)
        def __init__(experiment, scenario, perf_counters=None, **kwargs):
            init(experiment, scenario,
                 perf_counters=perf if perf_counters is None
                 else perf_counters, **kwargs)

        self._replace(Experiment, "__init__", __init__)

    def uninstall(self) -> None:
        """Put every original back, newest replacement first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def reduce(self) -> tuple[dict, dict, dict]:
        """``({name: self seconds}, {name: calls}, {name: direct
        children of that name's spans})``."""
        n_names = len(self.names)
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        duration = (np.frombuffer(self.span_end, dtype=np.float64)
                    - np.frombuffer(self.span_start, dtype=np.float64))
        nested = parents >= 0
        child_time = np.bincount(parents[nested], weights=duration[nested],
                                 minlength=len(duration))
        self_time = duration - child_time
        self_by_name = np.bincount(names, weights=self_time,
                                   minlength=n_names)
        calls_by_name = np.bincount(names, minlength=n_names)
        children_by_name = np.bincount(names[parents[nested]],
                                       minlength=n_names)
        return ({n: float(self_by_name[i]) for i, n in enumerate(self.names)},
                {n: int(calls_by_name[i]) for i, n in enumerate(self.names)},
                {n: int(children_by_name[i])
                 for i, n in enumerate(self.names)})

    def write_spans(self, path: str) -> None:
        """Write every span as CSV: index, name, parent, start, end."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("index,name,parent,start_s,end_s\n")
            for i, (nid, parent, start, end) in enumerate(zip(
                    self.span_name, self.span_parent, self.span_start,
                    self.span_end)):
                out.write(f"{i},{self.names[nid]},{parent},{start!r},"
                          f"{end!r}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, results: list, traced_wall_s: float,
                  untraced_wall_s: float) -> dict[str, float]:
    """The benchmark's per-layer metrics from one traced rep.

    ``results`` are the rep's :class:`FlowResult` objects (loss and
    fault counters); ``traced_wall_s``/``untraced_wall_s`` are the host
    times of the same rep with and without tracing.
    """
    self_s, calls, children = tracer.reduce()
    perf = tracer.perf

    def layer(prefix: str) -> float:
        return sum(v for k, v in self_s.items()
                   if k == prefix or k.startswith(prefix + "."))

    def per_call(name: str) -> float:
        sized, total = tracer.sizes.get(name, (0, 0))
        return _ratio(total, sized)

    sent = sum(r.sent_packets for r in results)
    lost = sum(r.lost_packets for r in results)
    dropped = 0
    for result in results:
        stats = result.fault_stats or {}
        dropped += stats.get("ack_pipe", {}).get("dropped", 0)
        for decoder in stats.get("decoders", {}).values():
            dropped += decoder["messages_missed"] + decoder["records_dropped"]
    monitor_records = calls.get("monitor.ingest", 0)
    # The faults layer and the metro build run on only some workloads;
    # they are reported as shares of the traced wall time.
    return {
        "net.sim.events_per_tick": _ratio(perf.events_popped, perf.ticks),
        "net.sim.cancelled_ratio": perf.cancelled_event_ratio,
        "net.sim.self_s": self_s.get("net.sim", 0.0),
        "net.link.calls": calls.get("net.link", 0),
        "net.link.self_s": layer("net.link"),
        "phy.channel.calls": calls.get("phy.channel", 0),
        "phy.channel.subframes_per_call": per_call("phy.channel"),
        "phy.channel.self_s": layer("phy.channel"),
        "cell.ticks": perf.ticks,
        "cell.self_us_per_tick":
            _ratio(self_s.get("cell.tick", 0.0) * 1e6, perf.ticks),
        "cell.scheduler.calls": calls.get("cell.scheduler", 0),
        "cell.scheduler.self_s": self_s.get("cell.scheduler", 0.0),
        "cell.ue.self_s": self_s.get("cell.ue", 0.0),
        "cell.ingress.self_s": self_s.get("cell.ingress", 0.0),
        "cell.churn_calls": calls.get("cell.churn", 0),
        "monitor.records": monitor_records,
        "monitor.msgs_per_record": per_call("monitor.ingest"),
        "monitor.self_s": layer("monitor"),
        "monitor.reports": calls.get("monitor.report", 0),
        "core.client.pkts_per_block": per_call("core.client"),
        "core.client.self_s": self_s.get("core.client", 0.0),
        "core.sender.ctx_per_block": per_call("core.sender"),
        "core.sender.self_s": self_s.get("core.sender", 0.0),
        "baselines.transport.acks_per_batch":
            _ratio(perf.acks_batched, perf.ack_batches),
        "baselines.transport.self_s":
            self_s.get("baselines.transport", 0.0),
        "baselines.pace.calls": calls.get("baselines.pace", 0),
        "baselines.pace.self_s": self_s.get("baselines.pace", 0.0),
        "baselines.cc.self_s": self_s.get("baselines.cc", 0.0),
        "baselines.loss_ratio": _ratio(lost, sent),
        "faults.self_share": _ratio(layer("faults"), traced_wall_s),
        "faults.dropped": dropped,
        "harness.build_s": self_s.get("harness.build", 0.0),
        "metro.build_share":
            _ratio(self_s.get("metro.build", 0.0), traced_wall_s),
        "harness.summary_s": self_s.get("harness.summary", 0.0),
        "harness.digest_s": self_s.get("harness.digest", 0.0),
        "trace.coverage": _ratio(sum(self_s.values()), traced_wall_s),
        "trace.overhead": _ratio(traced_wall_s, untraced_wall_s),
        # Each popped event should open exactly one span directly under
        # the loop; below 1, some callback runs unwrapped and its time
        # lands in net.sim self time.
        "trace.event_attribution":
            _ratio(children.get("net.sim", 0), perf.events_popped),
    }
