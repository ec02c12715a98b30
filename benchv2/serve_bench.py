"""``serve-durable``: the durable daemon under closed-loop tenant lanes.

One client process drives ``python -m repro serve --state-dir ...``
over two ``AsyncServiceClient`` connections.  Each connection is one
closed-loop lane serving one tenant at a time: ``open`` (1 MiB data
shard), then ``{think, step(window), put 64 B, get 64 B}`` until the
session is drained, then ``report`` and ``close``.  An open-loop
``ping`` probe rides on lane 2 every 5 ms and is timed from when it was
due.  put/get latencies count only requests with no other lane's step
in flight; the rest are counted apart as head-of-line blocking.
"""

from __future__ import annotations

import asyncio
import contextvars
import itertools
import os
import random
import shutil
import socket
import statistics
import struct
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional

from common import (
    OUT_DIR,
    Ledger,
    SetupSampler,
    child_env,
    metric,
    percentile,
    proc_cpu_s,
    proc_hwm_mb,
    self_cpu_s,
    tail_percentile,
)
from tracing import END, NAME, PARENT, START, Tracer, write_spans

SCENARIOS = ("cc1", "ff1", "c1")
SCHEMES = ("ours", "conventional", "adaptive", "unsecure")
ENGINES = ("scalar", "fast")
WINDOWS = (64, 113, 257)
TENANT_DURATION_CYCLES = 4000.0
DATA_BYTES = 1 << 20
LINE_BYTES = 64
LANES = 2
PING_PERIOD_S = 0.005
#: Upper end of the uniform, seeded think time before each step.  Without
#: it the two closed loops phase-lock: which op of one lane meets the
#: other lane's step was fixed for a whole run, and get p50 read 0.42 or
#: 2.63 ms on identical code.
THINK_S = 0.002
REQUEST_TIMEOUT_S = 30.0
#: Set-up launches per run, taken between the timed region's segments.
SETUP_RUNS = 15
SEGMENTS = 5
#: CPU placement of the load client and the daemon (one CPU each when
#: there are two or more).
CLIENT_CPU = min(os.sched_getaffinity(0))
DAEMON_CPU = max(os.sched_getaffinity(0))
#: Fixed report-signing key, so attestations verify after the run.
SERVICE_SECRET = bytes(range(32))
SOCKET = "s.sock"
PROBE_SOCKET = "p.sock"


def tenant_params(seed: int, index: int) -> Dict[str, object]:
    """Deterministic tenant parameters: the full rotation in 72 tenants."""
    return {
        "scenario": SCENARIOS[index % 3],
        "scheme": SCHEMES[index // 3 % 4],
        "engine": ENGINES[index // 12 % 2],
        "window": WINDOWS[index // 24 % 3],
        "seed": seed * 100_003 + index,
    }


class Samples:
    """Client-side latency samples and counters of one load phase."""

    def __init__(self) -> None:
        self.lat: Dict[str, List[float]] = {
            "step": [], "put": [], "get": [], "ping": [],
        }
        #: put/get round trips sent while another lane had a step in
        #: flight.  They wait out that step (head-of-line blocking, which
        #: the ping probe measures), so they are kept out of ``lat``.
        self.behind_step: Dict[str, List[float]] = {"put": [], "get": []}
        #: Clients (lanes) with a step in flight.
        self.stepping: set = set()
        self.lateness: List[float] = []
        self.rows = 0
        self.tenants: List[Dict[str, object]] = []


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------

async def _timed(samples: Samples, op: str, coro, client=None):
    """Time one request; with ``client``, file it under ``behind_step``
    when another lane's step was in flight as it was sent."""
    behind = client is not None and bool(samples.stepping - {client})
    started = time.perf_counter()
    out = await asyncio.wait_for(coro, REQUEST_TIMEOUT_S)
    (samples.behind_step if behind else samples.lat)[op].append(
        time.perf_counter() - started
    )
    return out


async def drive_tenant(client, seed: int, index: int, samples: Samples,
                       ledger: Ledger) -> None:
    """One tenant, open to close; failures are counted, never raised."""
    from repro.service.client import ServiceError
    from repro.service.protocol import WireError

    params = tenant_params(seed, index)
    tenant = f"t{seed}-{index}"
    secret = f"benchv2:{seed}:{index}".encode()
    rng = random.Random(f"{seed}:{index}")
    think = random.Random(f"think:{seed}:{index}")
    written: Dict[int, bytes] = {}
    op = "open"
    try:
        await asyncio.wait_for(client.open(
            tenant, secret,
            scenario=params["scenario"], scheme=params["scheme"],
            engine=params["engine"], duration=TENANT_DURATION_CYCLES,
            seed=params["seed"], data_bytes=DATA_BYTES,
        ), REQUEST_TIMEOUT_S)
        ledger.ok()
        while True:
            op = "step"
            await asyncio.sleep(think.uniform(0.0, THINK_S))
            samples.stepping.add(client)
            try:
                stepped = await _timed(samples, "step", client.step(
                    tenant, secret, requests=params["window"]
                ))
            finally:
                samples.stepping.discard(client)
            ledger.ok()
            samples.rows += len(stepped["observables"])
            op = "put"
            addr = rng.randrange(DATA_BYTES // LINE_BYTES) * LINE_BYTES
            data = rng.randbytes(LINE_BYTES)
            await _timed(
                samples, "put", client.put(tenant, secret, addr, data), client
            )
            ledger.ok()
            written[addr] = data
            op = "get"
            addr = rng.choice(list(written))
            got = await _timed(
                samples, "get", client.get(tenant, secret, addr), client
            )
            ledger.check(
                got == written[addr], f"{tenant}: get {addr:#x} != last put"
            )
            if stepped["done"]:
                break
        op = "report"
        report = await asyncio.wait_for(
            client.report(tenant, secret), REQUEST_TIMEOUT_S
        )
        ledger.ok()
        op = "close"
        closed = await asyncio.wait_for(
            client.close(tenant, secret), REQUEST_TIMEOUT_S
        )
        ledger.ok()
    except (WireError, ServiceError, asyncio.TimeoutError, OSError) as exc:
        ledger.fail(f"{tenant}: {op} failed: {type(exc).__name__}: {exc}")
        return
    samples.tenants.append({
        "tenant": tenant,
        "secret": secret,
        "params": params,
        "digest": stepped["digest"],
        "close_digest": closed["digest"],
        "report": report,
    })


async def lane(client, seed: int, lane_no: int, next_tenant: List[int],
               deadline: float, samples: Samples, ledger: Ledger) -> None:
    """Closed loop: the next tenant starts only when the previous closed."""
    while time.perf_counter() < deadline:
        k = next_tenant[lane_no]
        next_tenant[lane_no] += 1
        await drive_tenant(client, seed, lane_no + LANES * k, samples, ledger)


async def probe(client, deadline: float, samples: Samples,
                ledger: Ledger) -> None:
    """Open loop: a ping every 5 ms, each timed from its due time."""
    from repro.service.client import ServiceError
    from repro.service.protocol import WireError

    async def one(due: float) -> None:
        try:
            await asyncio.wait_for(client.request("ping"), REQUEST_TIMEOUT_S)
        except (WireError, ServiceError, asyncio.TimeoutError, OSError) as exc:
            ledger.fail(f"ping failed: {type(exc).__name__}: {exc}")
            return
        ledger.ok()
        samples.lat["ping"].append(time.perf_counter() - due)

    pending = []
    start = time.perf_counter()
    k = 0
    while True:
        due = start + k * PING_PERIOD_S
        if due >= deadline:
            break
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        samples.lateness.append(time.perf_counter() - due)
        pending.append(asyncio.ensure_future(one(due)))
        k += 1
    await asyncio.gather(*pending)


async def drive(seed: int, seconds: float, ledger: Ledger,
                daemon_pid: Optional[int] = None, segments: int = 1,
                between: Optional[Callable[[float], None]] = None
                ) -> Dict[str, object]:
    """Warm up, then run the lanes and the probe for ``seconds``.

    The timed region is cut into ``segments``; after each one, with no
    request in flight, ``between(fraction done)`` runs and its time is
    left out of the wall and CPU totals.
    """
    from repro.service.client import AsyncServiceClient

    # No retries: a dropped connection or damaged frame must reach the
    # ledger instead of being re-sent and answered from the dedupe cache.
    clients = [
        AsyncServiceClient(socket_path=SOCKET, retries=0) for _ in range(LANES)
    ]
    await asyncio.gather(*(c.connect() for c in clients))
    try:
        # The first fast tenant imports numpy inside the daemon: keep
        # that (and first-use allocation) out of the timed region.
        warm = Samples()
        await asyncio.gather(*(
            drive_tenant(c, seed, -1 - i, warm, ledger)
            for i, c in enumerate(clients)
        ))
        samples = Samples()
        samples.tenants = warm.tenants
        next_tenant = [0] * LANES
        wall = cpu = daemon_cpu = 0.0
        for segment in range(segments):
            cpu0 = self_cpu_s()
            daemon0 = proc_cpu_s(daemon_pid) if daemon_pid else 0.0
            started = time.perf_counter()
            deadline = started + seconds / segments
            await asyncio.gather(
                probe(clients[-1], deadline, samples, ledger),
                *(lane(c, seed, i, next_tenant, deadline, samples, ledger)
                  for i, c in enumerate(clients)),
            )
            wall += time.perf_counter() - started
            cpu += self_cpu_s() - cpu0
            if daemon_pid:
                daemon_cpu += proc_cpu_s(daemon_pid) - daemon0
            if between is not None:
                between((segment + 1) / segments)
        stats = await asyncio.wait_for(
            clients[0].request("stats"), REQUEST_TIMEOUT_S
        )
    finally:
        for client in clients:
            await client.close_connection()
    return {"samples": samples, "wall": wall, "cpu": cpu,
            "daemon_cpu": daemon_cpu, "stats": stats["metrics"]}


# ----------------------------------------------------------------------
# The daemon subprocess
# ----------------------------------------------------------------------

def _ping_once(socket_path: str) -> bool:
    """One blocking ping over a fresh connection; False if not up yet."""
    from repro.service import protocol

    frame = protocol.encode_frame(protocol.make_request(1, "ping"))
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(10.0)
            sock.connect(socket_path)
            sock.sendall(frame)
            header = sock.recv(4, socket.MSG_WAITALL)
            (length,) = struct.unpack(">I", header)
            body = protocol.decode_body(sock.recv(length, socket.MSG_WAITALL))
    except (FileNotFoundError, ConnectionRefusedError):
        return False
    return bool(body.get("ok"))


def start_daemon(socket_path: str, state_dir: str, cpu: int):
    """Spawn the daemon on ``cpu``; returns (process, seconds until it
    answers a ping)."""
    if os.path.exists(socket_path):
        os.unlink(socket_path)
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", socket_path,
         "--state-dir", state_dir, "--service-secret", SERVICE_SECRET.hex()],
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        os.sched_setaffinity(proc.pid, {cpu})
        limit = started + 60.0
        while not _ping_once(socket_path):
            if proc.poll() is not None or time.monotonic() > limit:
                raise RuntimeError("daemon did not come up")
            time.sleep(0.002)
    except BaseException:
        stop_daemon(proc)
        raise
    return proc, time.monotonic() - started


def stop_daemon(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=20)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def setup_launcher(cpu: int) -> Callable[[], float]:
    """One set-up sample: a fresh daemon on its own socket and state
    directory, from spawn until its first ping is answered."""
    launches = itertools.count()

    def launch() -> float:
        state = f"probe-{next(launches)}"
        try:
            proc, ready = start_daemon(PROBE_SOCKET, state, cpu)
            stop_daemon(proc)
        finally:
            shutil.rmtree(state, ignore_errors=True)
        return ready

    return launch


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------

def check_tenants(tenants: List[Dict[str, object]], ledger: Ledger) -> None:
    """Daemon digests and attestations against in-process replays."""
    from repro.secure_memory.session import EngineSession
    from repro.service.protocol import verify_report

    replayed: Dict[tuple, str] = {}
    for entry in tenants:
        params = entry["params"]
        key = (params["scenario"], params["scheme"], params["engine"],
               params["seed"])
        if key not in replayed:
            session = EngineSession.from_params(
                scenario=params["scenario"], scheme=params["scheme"],
                engine=params["engine"], duration=TENANT_DURATION_CYCLES,
                seed=params["seed"],
            )
            while not session.done:
                session.step(None)
            replayed[key] = session.observable_digest()
        want = replayed[key]
        name = entry["tenant"]
        ledger.check(
            entry["digest"] == want and entry["close_digest"] == want,
            f"{name}: daemon digest differs from in-process replay",
        )
        report = entry["report"]
        ledger.check(
            verify_report(report, SERVICE_SECRET)
            and report.get("observables", {}).get("sha256") == want,
            f"{name}: attestation does not verify",
        )


def check_stats(stats: Dict[str, object], ledger: Ledger) -> None:
    for key in ("service.shed_requests", "service.rejected_frames",
                "service.duplicate_replays"):
        ledger.check(not stats.get(key), f"daemon {key} = {stats.get(key)}")


def ms(values: List[float], pct: Optional[float] = None) -> float:
    """Percentile in milliseconds; by default the tail percentile."""
    pct = pct or tail_percentile(len(values)) or 50.0
    return percentile(values, pct) * 1000.0


# ----------------------------------------------------------------------
# Untraced run: the end-to-end metrics
# ----------------------------------------------------------------------

def subprocess_phase(seed: int, seconds: float, ledger: Ledger,
                     setup_runs: int) -> Dict[str, object]:
    """One load phase against the daemon subprocess, with ``setup_runs``
    set-up samples taken between its segments."""
    proc, _ = start_daemon(SOCKET, "state", DAEMON_CPU)
    try:
        setup = None
        if setup_runs:
            setup = SetupSampler(setup_launcher(DAEMON_CPU), setup_runs)
        phase = asyncio.run(drive(
            seed, seconds, ledger, daemon_pid=proc.pid,
            segments=SEGMENTS if setup else 1,
            between=setup.catch_up if setup else None,
        ))
        phase["daemon_hwm_mb"] = proc_hwm_mb(proc.pid)
    finally:
        stop_daemon(proc)
    phase["setup"] = setup.samples if setup else []
    check_stats(phase["stats"], ledger)
    check_tenants(phase["samples"].tenants, ledger)
    return phase


def e2e_metrics(phase: Dict[str, object]) -> Dict[str, dict]:
    samples: Samples = phase["samples"]
    lat = samples.lat
    for op in ("step", "put", "get", "ping"):
        pct = tail_percentile(len(lat[op]))
        print(f"{op}: {len(lat[op])} samples, tail p{pct}")
    return {
        # One observable row per simulated request stepped.
        "sim_reqs_per_s": metric(samples.rows / phase["wall"], "1/s"),
        "setup_s": metric(statistics.median(phase["setup"]), "s"),
        "peak_rss_mb": metric(phase["daemon_hwm_mb"], "MB"),
    }


# ----------------------------------------------------------------------
# Traced run: the per-layer metrics
# ----------------------------------------------------------------------

_SIDE: contextvars.ContextVar = contextvars.ContextVar("side", default="load")


def install(tracer: Tracer) -> None:
    """Wrap the serving layers' entry points with spans."""
    from repro.engine_fast import core as fast_core
    from repro.schemes.base import ProtectionScheme
    from repro.secure_memory import engine
    from repro.secure_memory.engine import SecureMemory
    from repro.secure_memory.session import EngineSession
    from repro.service import protocol
    from repro.service.daemon import ServiceDaemon
    from repro.service.store import TenantJournal
    from repro.sim.soc import SessionCore
    from repro.tree.integrity_tree import CounterTree

    def serve_connection(fn):
        async def wrapper(*args, **kwargs):
            _SIDE.set("service")
            return await fn(*args, **kwargs)

        return wrapper

    def daemon_side(stage: str):
        """Span the daemon's calls only; the client's go untimed."""

        def wrap(fn):
            span = tracer.stored(f"service.protocol.{stage}")(fn)

            def wrapper(*args, **kwargs):
                if _SIDE.get() == "service":
                    return span(*args, **kwargs)
                return fn(*args, **kwargs)

            return wrapper

        return wrap

    def request_id(*args):
        return str(args[-1].get("id"))

    tracer.patch(ServiceDaemon, "_serve_connection", serve_connection)
    tracer.patch(protocol, "decode_body", daemon_side("decode"))
    tracer.patch(protocol, "encode_frame", daemon_side("encode"))
    tracer.patch(protocol, "validate_envelope",
                 tracer.stored("service.protocol.verify"))
    tracer.patch(protocol, "verify_tag",
                 tracer.stored("service.protocol.verify"))
    tracer.patch(ServiceDaemon, "_op_open",
                 tracer.stored("service.open", rid_of=request_id))
    tracer.patch(ServiceDaemon, "_tenant_op",
                 tracer.stored("service.handle", rid_of=request_id))
    tracer.patch(ServiceDaemon, "_service_op", tracer.stored("service.handle"))
    tracer.patch(fast_core, "prepare", tracer.stored("engine_fast.prepare"))
    tracer.patch(EngineSession, "step",
                 tracer.stored("secure_memory.session.step"))
    tracer.patch(SessionCore, "step", tracer.stored("sim.loop"))
    tracer.patch(ProtectionScheme, "process", tracer.hot_span("schemes.process"))
    tracer.patch(SecureMemory, "write",
                 tracer.stored("secure_memory.engine.write"))
    tracer.patch(SecureMemory, "read",
                 tracer.stored("secure_memory.engine.read"))
    for name in ("compute_mac", "nested_mac"):
        tracer.patch(engine, name, tracer.hot_span("crypto.mac"))
    for name in ("encrypt_line", "decrypt_line"):
        tracer.patch(engine, name, tracer.hot_span("crypto.otp"))
    for name in ("read_counter", "increment_counter", "set_counter"):
        tracer.patch(CounterTree, name, tracer.hot_span("tree.counter"))
    tracer.patch(TenantJournal, "append", tracer.stored("service.store.append"))


async def inprocess(seed: int, seconds: float, ledger: Ledger,
                    state_dir: str) -> Dict[str, object]:
    """One load phase against a daemon hosted in this event loop."""
    from repro.service.daemon import ServiceDaemon

    daemon = ServiceDaemon(
        socket_path=SOCKET, service_secret=SERVICE_SECRET, state_dir=state_dir
    )
    await daemon.start()
    try:
        return await drive(seed, seconds, ledger)
    finally:
        await daemon.close()


def traced_metrics(phase: Dict[str, object], untraced: Dict[str, object],
                   traced: Dict[str, object], tracer: Tracer
                   ) -> Dict[str, dict]:
    totals = tracer.totals()

    def seconds(name: str, key: str = "total_s") -> dict:
        return metric(totals.get(name, {}).get(key, 0.0), "s")

    lat = phase["samples"].lat
    behind = phase["samples"].behind_step
    lateness = phase["samples"].lateness
    stats = phase["stats"]
    # Daemon time spent in request handlers: its top-level spans.
    busy = sum(
        row[END] - row[START] for row in tracer.spans
        if row[PARENT] < 0 and row[NAME].startswith("service.")
    )
    step_self = totals.get("secure_memory.session.step", {})
    untraced_rate = untraced["samples"].rows / untraced["wall"]
    traced_rate = traced["samples"].rows / traced["wall"]
    out = {
        "service.protocol.decode_s": seconds("service.protocol.decode"),
        "service.protocol.verify_s": seconds("service.protocol.verify"),
        "service.protocol.encode_s": seconds("service.protocol.encode"),
        "service.open_s": seconds("service.open"),
        "engine_fast.prepare_s": seconds("engine_fast.prepare"),
        "secure_memory.session.step_s": seconds("secure_memory.session.step"),
        "secure_memory.session.rows_digest_s": metric(
            step_self.get("self_s", 0.0), "s"
        ),
        "sim.loop_s": seconds("sim.loop"),
        "sim.loop_self_s": seconds("sim.loop", "self_s"),
        "secure_memory.engine.write_s": seconds("secure_memory.engine.write"),
        "secure_memory.engine.read_s": seconds("secure_memory.engine.read"),
        "crypto.mac_s": seconds("crypto.mac"),
        "crypto.otp_s": seconds("crypto.otp"),
        "tree.counter_s": seconds("tree.counter"),
        "service.store.append_s": seconds("service.store.append"),
        "service.store.appends": metric(
            totals.get("service.store.append", {}).get("count", 0), "count"
        ),
        "service.loop_busy_frac": metric(busy / traced["wall"], "ratio"),
        "trace.overhead_frac": metric(untraced_rate / traced_rate - 1.0,
                                      "ratio"),
        # From the untraced subprocess phase.
        "service.cpu_frac": metric(phase["daemon_cpu"] / phase["wall"],
                                   "ratio"),
        "load.cpu_frac": metric(phase["cpu"] / phase["wall"], "ratio"),
        "load.ping_lateness_ms": metric(ms(lateness, 50), "ms"),
        "load.ping_lateness_tail_ms": metric(ms(lateness), "ms"),
        "step_p50_ms": metric(ms(lat["step"], 50), "ms"),
        "put_p50_ms": metric(ms(lat["put"], 50), "ms"),
        "get_p50_ms": metric(ms(lat["get"], 50), "ms"),
        "ping_p50_ms": metric(ms(lat["ping"], 50), "ms"),
        "ping_p99_ms": metric(ms(lat["ping"], 99), "ms"),
        "step_p99_ms": metric(ms(lat["step"]), "ms"),
        "put_p99_ms": metric(ms(lat["put"]), "ms"),
        "get_p99_ms": metric(ms(lat["get"]), "ms"),
        **{
            f"load.{op}_behind_step_frac": metric(
                len(behind[op]) / (len(behind[op]) + len(lat[op])), "ratio"
            )
            for op in ("put", "get")
        },
        "load.pings": metric(len(lat["ping"]), "count"),
        "load.steps": metric(len(lat["step"]), "count"),
        "service.shed_requests": metric(
            stats.get("service.shed_requests", 0), "count"),
        "service.rejected_frames": metric(
            stats.get("service.rejected_frames", 0), "count"),
        "service.duplicate_replays": metric(
            stats.get("service.duplicate_replays", 0), "count"),
    }
    return out


# ----------------------------------------------------------------------
# Entry
# ----------------------------------------------------------------------

def main(seed: int, seconds: float, trace: bool):
    """Run ``serve-durable``; returns (ledger, metrics)."""
    run_dir = os.path.join(OUT_DIR, f"serve-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    # Unix socket paths are capped near 100 bytes: work from the run
    # directory so the socket path stays short wherever the checkout is.
    os.chdir(run_dir)
    # Fixed placement: the client on one CPU, the daemon on another.
    # Left to the scheduler on a 2-vCPU VM, the pair was co-located or
    # split for a whole run, so rows/s was bimodal (~14k vs ~21k).
    os.sched_setaffinity(0, {CLIENT_CPU})
    ledger = Ledger()
    try:
        if not trace:
            phase = subprocess_phase(seed, seconds, ledger, SETUP_RUNS)
            metrics = e2e_metrics(phase)
        else:
            phase = subprocess_phase(seed, seconds, ledger, 0)
            # The in-process phases only feed spans and the overhead
            # ratio, so half length each keeps the traced run short.
            untraced = asyncio.run(
                inprocess(seed, seconds / 2, ledger, "state-untraced")
            )
            check_tenants(untraced["samples"].tenants, ledger)
            tracer = Tracer()
            install(tracer)
            try:
                traced = asyncio.run(
                    inprocess(seed, seconds / 2, ledger, "state-traced")
                )
            finally:
                tracer.restore()
            check_tenants(traced["samples"].tenants, ledger)
            write_spans(
                tracer, os.path.join(OUT_DIR, f"spans-serve-durable-{seed}.jsonl")
            )
            metrics = traced_metrics(phase, untraced, traced, tracer)
    finally:
        os.chdir(OUT_DIR)
        shutil.rmtree(run_dir, ignore_errors=True)
    return ledger, metrics
