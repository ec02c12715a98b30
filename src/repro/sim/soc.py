"""Event-driven heterogeneous SoC simulation.

Each device replays its trace: a request becomes eligible ``gap``
cycles after the previous one was issued, but a device with a full
memory-level-parallelism window stalls until an outstanding read
completes.  Requests from all devices are processed in global issue
order through one protection scheme and one shared memory channel, so
a bursty NPU naturally delays CPU/GPU requests (the contention effect
of Sec. 3.2 / 5.4).

Execution time of a device = completion cycle of its last request; the
figures normalize this against the unsecured run of the same trace.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.common.config import DeviceConfig, SoCConfig
from repro.common.types import AccessType, DeviceKind, MemoryRequest
from repro.devices.issue import DeviceIssueState, device_config_for
from repro.mem.channel import ChannelStats, MemoryChannel
from repro.mem.dram import make_channel
from repro.obs import EventType, TraceEvent
from repro.schemes.base import ProtectionScheme
from repro.workloads.generator import Trace


@dataclass
class DeviceResult:
    """Per-device outcome of one simulation."""

    name: str
    workload: str
    kind: DeviceKind
    requests: int
    finish_cycle: float
    compute_cycles: float
    #: Integrity-engine work attributed to this device (MAC
    #: verifications, serialized tree levels walked, ...).
    integrity_events: Dict[str, int] = field(default_factory=dict)

    @property
    def stall_cycles(self) -> float:
        return max(0.0, self.finish_cycle - self.compute_cycles)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "workload": self.workload,
            "kind": self.kind.value,
            "requests": self.requests,
            "finish_cycle": self.finish_cycle,
            "compute_cycles": self.compute_cycles,
            "stall_cycles": self.stall_cycles,
            "integrity_events": dict(self.integrity_events),
        }


class ResultView:
    """Shared read API of one (scenario, scheme) simulation result.

    Implemented by :class:`RunResult` (live objects attached) and by
    :class:`repro.sim.parallel.SlimRunResult` (the picklable payload
    that crosses the worker pipe).  Everything here only touches the
    attributes both carry -- ``scheme_name``, ``devices``, ``channel``,
    ``metrics``, ``total_traffic_bytes``, ``security_cache_misses`` --
    so serial and parallel results render byte-identically.
    """

    @property
    def finish_cycle(self) -> float:
        return max((d.finish_cycle for d in self.devices), default=0.0)

    def normalized_exec_times(self, baseline: "ResultView") -> List[float]:
        """Per-device execution time relative to ``baseline`` (same traces)."""
        if len(self.devices) != len(baseline.devices):
            raise ValueError("cannot normalize against a different scenario")
        out = []
        for mine, base in zip(self.devices, baseline.devices):
            if base.finish_cycle <= 0:
                out.append(1.0)
            else:
                out.append(mine.finish_cycle / base.finish_cycle)
        return out

    def mean_normalized_exec_time(self, baseline: "ResultView") -> float:
        times = self.normalized_exec_times(baseline)
        return sum(times) / len(times) if times else 1.0

    def to_dict(self, baseline: Optional["ResultView"] = None) -> Dict[str, object]:
        """JSON-friendly view of the run (the ``--json`` payload)."""
        out: Dict[str, object] = {
            "scheme": self.scheme_name,
            "finish_cycle": self.finish_cycle,
            "total_traffic_bytes": self.total_traffic_bytes,
            "security_cache_misses": self.security_cache_misses,
            "channel": {
                "transactions": self.channel.transactions,
                "bytes_transferred": self.channel.bytes_transferred,
                "busy_cycles": self.channel.busy_cycles,
                "queue_cycles": self.channel.queue_cycles,
            },
            "devices": [device.to_dict() for device in self.devices],
            "metrics": dict(self.metrics),
        }
        if baseline is not None and baseline is not self:
            out["normalized_exec_times"] = self.normalized_exec_times(baseline)
            out["mean_normalized_exec_time"] = self.mean_normalized_exec_time(
                baseline
            )
        return out


@dataclass
class RunResult(ResultView):
    """Everything one (scenario, scheme) simulation produced."""

    scheme_name: str
    devices: List[DeviceResult]
    channel: ChannelStats
    scheme: ProtectionScheme
    #: Uniform metrics snapshot (hierarchical names -> values) taken at
    #: the end of the measured run; {} when no registry was attached.
    metrics: Dict[str, object] = field(default_factory=dict)
    #: Recorded trace events (empty unless tracing was enabled).
    trace: List[TraceEvent] = field(default_factory=list)
    #: Execution tier that actually ran ("scalar" or "fast").  Not part
    #: of :meth:`ResultView.to_dict` -- both tiers are bit-identical,
    #: so the payload must not depend on which one produced it.
    engine: str = "scalar"
    #: Why a requested fast run fell back to scalar
    #: (:func:`repro.engine_fast.core.fallback_reason`); None when the
    #: fast engine ran or was not requested.  Also outside ``to_dict``.
    engine_fallback: Optional[str] = None

    @property
    def total_traffic_bytes(self) -> int:
        return self.scheme.stats.traffic.total_bytes

    @property
    def security_cache_misses(self) -> int:
        return self.scheme.metadata_cache.misses + self.scheme.mac_cache.misses


def simulate(
    traces: Sequence[Trace],
    scheme: ProtectionScheme,
    soc_config: Optional[SoCConfig] = None,
    device_configs: Optional[Sequence[DeviceConfig]] = None,
    warmup: bool = False,
) -> RunResult:
    """Run one scheme over a set of concurrent device traces.

    With ``warmup=True`` the traces are replayed once to train the
    scheme's persistent state (granularity table, tracker, metadata
    caches, subtree roots), statistics are reset, and the *second*
    replay is measured -- the steady state the paper's long simulations
    report, without the cold-start transient of short traces.
    """
    soc_config = soc_config or SoCConfig()
    if device_configs is None:
        device_configs = [
            device_config_for(trace.spec.kind, f"{trace.spec.kind.value}{i}")
            for i, trace in enumerate(traces)
        ]
    if len(device_configs) != len(traces):
        raise ValueError("one device config per trace required")

    # Engine dispatch: the fast tier returns a drop-in for _run_loop
    # (or None, falling back to the scalar loop -- results are
    # bit-identical either way, see docs/performance.md).
    fast_run = None
    fallback = None
    if getattr(soc_config, "sim_engine", "scalar") == "fast":
        from repro.engine_fast import core as fast_core

        fast_run = fast_core.prepare(
            traces, scheme, soc_config, device_configs
        )
        if fast_run is None:
            fallback = fast_core.fallback_reason(scheme, soc_config)
    run_loop = fast_run if fast_run is not None else _run_loop

    if warmup:
        # Warmup replays untraced: its events would only pollute the
        # steady-state trace reset_stats() is about to clear anyway.
        warm_channel = make_channel(soc_config.memory)
        warm_states = [
            DeviceIssueState(i, trace, cfg)
            for i, (trace, cfg) in enumerate(zip(traces, device_configs))
        ]
        run_loop(warm_states, scheme, warm_channel)
        scheme.reset_stats()

    channel = make_channel(soc_config.memory, tracer=scheme.tracer)
    channel.metrics_into(scheme.obs.registry, "channel")
    states = [
        DeviceIssueState(i, trace, cfg)
        for i, (trace, cfg) in enumerate(zip(traces, device_configs))
    ]
    run_loop(states, scheme, channel)
    return finalize_run(
        states, scheme, channel,
        engine="fast" if fast_run is not None else "scalar",
        engine_fallback=fallback,
    )


def finalize_run(
    states: Sequence[DeviceIssueState],
    scheme: ProtectionScheme,
    channel: MemoryChannel,
    engine: str = "scalar",
    engine_fallback: Optional[str] = None,
) -> RunResult:
    """Settle a drained run and assemble its :class:`RunResult`.

    Shared by :func:`simulate` and by incrementally driven
    :class:`~repro.secure_memory.session.EngineSession` objects, so a
    stepped session and a one-shot simulation of the same traces
    produce byte-identical payloads.
    """
    scheme.finish(channel)
    registry = scheme.obs.registry
    devices = [
        DeviceResult(
            name=st.config.name,
            workload=st.trace.spec.name,
            kind=st.kind,
            requests=len(st.trace.entries),
            finish_cycle=st.finish,
            compute_cycles=st.compute,
            integrity_events=(
                dict(scheme.stats.device(st.index).as_dict())
                if st.index in scheme.stats.per_device
                else {}
            ),
        )
        for st in states
    ]
    total_stall = 0.0
    for device in devices:
        registry.gauge(f"sched.device.{device.name}.stall_cycles").set(
            device.stall_cycles
        )
        registry.gauge(f"sched.device.{device.name}.finish_cycle").set(
            device.finish_cycle
        )
        total_stall += device.stall_cycles
    registry.gauge("sched.stall_cycles").set(total_stall)
    return RunResult(
        scheme_name=scheme.name,
        devices=devices,
        channel=channel.stats,
        scheme=scheme,
        metrics=registry.snapshot(),
        trace=list(scheme.tracer.events()),
        engine=engine,
        engine_fallback=engine_fallback,
    )


class SessionCore:
    """Resumable run-loop state: the driver decoupled from the loop.

    The former monolithic ``_run_loop`` body, owned by an object: the
    issue heap, device states, scheme and channel persist between
    calls, and :meth:`step` advances by a bounded number of requests.
    One full drain is byte-identical to the old one-shot loop (it *is*
    the old loop); a sequence of bounded steps is byte-identical to one
    full drain because every piece of inter-request state lives on the
    scheme/channel/state objects, never on the stack.

    Devices are kept in an index-heap ordered by next-issue time.  A
    device's issue time only changes when *it* issues (issue-window and
    dependency state are private), so each heap entry stays valid until
    its device is popped -- one ``next_issue_time`` evaluation per
    issued request instead of one per active device per request.  Ties
    break on device index, matching the original list-scan order.
    """

    __slots__ = ("states", "scheme", "channel", "issued", "_heap")

    def __init__(
        self,
        states: Sequence[DeviceIssueState],
        scheme: ProtectionScheme,
        channel: MemoryChannel,
    ) -> None:
        self.states = states
        self.scheme = scheme
        self.channel = channel
        self.issued = 0
        self._heap = [
            (st.next_issue_time(), st.index, st) for st in states if not st.done
        ]
        heapq.heapify(self._heap)

    @property
    def done(self) -> bool:
        return not self._heap

    def step(self, limit: Optional[int] = None, sink: Optional[list] = None) -> int:
        """Issue up to ``limit`` requests (all remaining when ``None``).

        ``sink``, when given, receives one
        ``(issue_cycle, device, addr, is_write, completion)`` tuple per
        issued request -- the per-request observables served to daemon
        tenants.  Returns the number of requests issued.
        """
        heap = self._heap
        scheme = self.scheme
        channel = self.channel
        tracer = scheme.tracer
        process = scheme.process
        heappush, heappop = heapq.heappush, heapq.heappop
        write_access, read_access = AccessType.WRITE, AccessType.READ
        issued = 0

        while heap and (limit is None or issued < limit):
            issue_at, index, best = heappop(heap)
            entry = best.trace.entries[best.cursor]
            gap, addr, is_write = entry
            req = MemoryRequest(
                cycle=int(issue_at),
                addr=addr,
                size=64,
                access=write_access if is_write else read_access,
                device=index,
                kind=best.kind,
            )
            completion = process(req, issue_at, channel)
            if tracer:
                tracer.emit(
                    EventType.REQUEST,
                    issue_at,
                    device=index,
                    latency=completion - issue_at,
                    write=is_write,
                    stalled=issue_at > best.clock + gap,
                )
            if sink is not None:
                sink.append((issue_at, index, addr, is_write, completion))
            best.issue(issue_at, completion, is_write)
            if not best.done:
                heappush(heap, (best.next_issue_time(), index, best))
            issued += 1
        self.issued += issued
        return issued


def _run_loop(
    states: Sequence[DeviceIssueState],
    scheme: ProtectionScheme,
    channel: MemoryChannel,
    sink: Optional[list] = None,
) -> None:
    """Drive every device trace to completion (one-shot SessionCore)."""
    SessionCore(states, scheme, channel).step(sink=sink)
