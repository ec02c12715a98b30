"""``sim-scalar`` and ``sim-fast``: the figure-regeneration sweep.

Each timed repetition is one ``repro.sim.runner.run_many`` over the
Table-4 scenarios ``ff1``, ``f1``, ``c1`` and ``cc1`` with all 13
schemes, warmup on, ``jobs=nproc`` through the default supervised
executor.  The workloads differ only in ``SoCConfig.sim_engine``.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import time
from typing import Dict, List

from common import (
    HERE,
    OUT_DIR,
    Ledger,
    SetupSampler,
    canonical_digest,
    compare_digests,
    metric,
    peak_rss_mb,
    time_import_probe,
)
from tracing import Tracer, write_spans

SCENARIOS = ("ff1", "f1", "c1", "cc1")
#: Per-device compute cycles.  A 20k-cycle scalar sweep takes ~17 s on
#: two vCPUs, too long for several repetitions plus the parity sweep in
#: one run of the benchmark's length; 10k keeps three or more.
DURATION_CYCLES = 10_000.0
#: The seed whose digests are stored in ``expected_digests.json``.
DEFAULT_SEED = 0
EXPECTED_PATH = os.path.join(HERE, "expected_digests.json")
#: Input sets per untraced run.  Sweep rates depend on the inputs: on
#: one host, seed 104 swept at 117k req/s and seed 105 at 104k, run after
#: run.  Cycling through four sets averages that out of the figure.
INPUT_SETS = 4
#: Set-up launches per run, spread between the timed sweeps.
SETUP_RUNS = 15

_IMPORTS = (
    "import time\n"
    "from repro.common.config import SoCConfig\n"
    "from repro.schemes.registry import SCHEME_NAMES\n"
    "from repro.sim import parallel, resilient, runner\n"
    "from repro.sim.scenario import selected_scenario\n"
)
SETUP_PROBES = {
    "scalar": _IMPORTS + "print(time.monotonic())\n",
    "fast": _IMPORTS
    + "from repro.engine_fast import numpy_or_none\n"
    "assert numpy_or_none() is not None\n"
    "runner.run_scenario(selected_scenario('cc1'), ['ours'], "
    "SoCConfig(sim_engine='fast'), duration_cycles=500.0)\n"
    "print(time.monotonic())\n",
}

#: ``model.*`` counter -> RunResult.metrics key.
MODEL_KEYS = {
    "model.traffic.data_bytes": "traffic.data_bytes",
    "model.traffic.counter_bytes": "traffic.counter_bytes",
    "model.traffic.mac_bytes": "traffic.mac_bytes",
    "model.traffic.gran_table_bytes": "traffic.gran_table_bytes",
    "model.traffic.switch_bytes": "traffic.switch_bytes",
    "model.cache.security_misses": "engine.cache.security_misses",
    "model.tree.serialized_fetches": "tree.walk.serialized_fetches",
    "model.switch.total": "switch.total",
    "model.region.overfetch_lines": "region.overfetch_lines",
}
CACHE_ROLES = (("metadata", "metadata_cache"), ("mac", "mac_cache"),
               ("table", "table_cache"))


def jobs() -> int:
    return len(os.sched_getaffinity(0))


def sweep(engine: str, seed: int, workers: int, scenarios=None):
    """One cleared-memo ``run_many``; returns (results, wall seconds)."""
    from repro.common.config import SoCConfig
    from repro.schemes.registry import SCHEME_NAMES
    from repro.sim import runner
    from repro.sim.scenario import selected_scenario

    chosen = [selected_scenario(name) for name in scenarios or SCENARIOS]
    runner.clear_static_best_cache()
    started = time.perf_counter()
    out = runner.run_many(
        chosen,
        SCHEME_NAMES,
        SoCConfig(sim_engine=engine),
        duration_cycles=DURATION_CYCLES,
        seed=seed,
        warmup=True,
        jobs=workers,
    )
    return out, time.perf_counter() - started


def measured_requests(out) -> int:
    return sum(
        device.requests
        for _, results in out
        for result in results.values()
        for device in result.devices
    )


def digests(out) -> Dict[str, str]:
    """``scenario/scheme`` -> SHA-256 of the canonical ``to_dict()``."""
    return {
        f"{scenario.name}/{name}": canonical_digest(result.to_dict())
        for scenario, results in out
        for name, result in results.items()
    }


def fallback_runs(out) -> int:
    return sum(
        1
        for _, results in out
        for result in results.values()
        if getattr(result, "engine", "scalar") == "scalar"
    )


def model_counts(out) -> Dict[str, int]:
    counts = {name: 0 for name in MODEL_KEYS}
    for _, results in out:
        for result in results.values():
            for name, key in MODEL_KEYS.items():
                counts[name] += result.metrics.get(key, 0)
    return counts


def check_cells(ledger: Ledger, got: Dict[str, str], want: Dict[str, str],
                what: str) -> None:
    """One attempt per (scenario, scheme) cell; a differing cell fails."""
    bad = compare_digests(got, want)
    if bad:
        ledger.fail(f"{what}: {len(bad)} cells differ, e.g. {bad[0]}", len(bad))
    ledger.ok(len(set(got) | set(want)) - len(bad))


def load_expected() -> Dict[str, str]:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)["digests"]


def input_seeds(seed: int):
    """The run's input sets: ``INPUT_SETS`` trace seeds derived from
    ``seed``, the first equal to ``seed * INPUT_SETS`` (so seed 0's first
    set is the one ``expected_digests.json`` stores)."""
    return [seed * INPUT_SETS + i for i in range(INPUT_SETS)]


def parity(ledger: Ledger, engine: str, seed: int,
           reference: Dict[str, str], workers: int,
           scenarios=SCENARIOS) -> None:
    """The other engine on the same inputs must give the same cells; at
    the default seed the stored digests must match as well."""
    other = "fast" if engine == "scalar" else "scalar"
    out, _ = sweep(other, seed, workers, scenarios=scenarios)
    want = digests(out)
    got = {key: value for key, value in reference.items()
           if key.split("/")[0] in scenarios}
    check_cells(ledger, got, want, f"seed {seed}: {engine} vs {other} engine")
    if seed == DEFAULT_SEED:
        check_cells(ledger, reference, load_expected(), "stored digests")


def warm(engine: str, workers: int) -> None:
    """Pay lazy imports, the first fast ``prepare`` and (with ``workers``
    above 1) the worker pool's first dispatch before timing."""
    sweep(engine, DEFAULT_SEED, workers, scenarios=("cc1",))


# ----------------------------------------------------------------------
# Untraced run: the end-to-end metrics
# ----------------------------------------------------------------------

def run_untraced(engine: str, seed: int, seconds: float,
                 ledger: Ledger) -> Dict[str, dict]:
    probe = SETUP_PROBES[engine]
    setup = None
    workers = jobs()
    warm(engine, workers)
    seeds = input_seeds(seed)
    walls: Dict[int, List[float]] = {sub: [] for sub in seeds}
    requests: Dict[int, int] = {}
    references: Dict[int, Dict[str, str]] = {}
    swept = 0.0
    for sub in itertools.cycle(seeds):
        if swept >= seconds and all(walls.values()):
            break
        out, wall = sweep(engine, sub, workers)
        swept += wall
        walls[sub].append(wall)
        got = digests(out)
        if sub not in references:
            references[sub] = got
            requests[sub] = measured_requests(out)
        else:
            check_cells(ledger, got, references[sub],
                        f"seed {sub}: repeated sweep")
            ledger.check(measured_requests(out) == requests[sub],
                         f"seed {sub}: request count changed")
        if setup is None:
            # The workers' peak, read before set-up probes add children.
            workers_rss = peak_rss_mb()
            setup = SetupSampler(lambda: time_import_probe(probe), SETUP_RUNS)
        setup.catch_up(swept / seconds)
    rss = max(workers_rss, peak_rss_mb(children=False))
    setup_s = setup.median()
    # Engine parity on one scenario per input set, every scenario once:
    # one sweep's worth of work instead of one per set.
    for k, sub in enumerate(seeds):
        parity(ledger, engine, sub, references[sub], workers,
               scenarios=(SCENARIOS[k % len(SCENARIOS)],))
    for sub in seeds:
        print(f"seed {sub}: {requests[sub]} requests, sweep s: "
              + ", ".join(f"{wall:.3f}" for wall in walls[sub]))
    print("setup s: " + ", ".join(f"{t:.3f}" for t in setup.samples))
    # Median sweep time per input set, so one slow sweep does not move
    # the figure; summed over the sets, so no single set's mix does.
    rate = sum(requests.values()) / sum(
        statistics.median(walls[sub]) for sub in seeds
    )
    metrics = {
        "sim_reqs_per_s": metric(rate, "1/s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    return metrics


# ----------------------------------------------------------------------
# Traced run: the per-layer metrics
# ----------------------------------------------------------------------

def install(tracer: Tracer, ledger: Ledger) -> None:
    """Wrap the simulator's layer entry points with spans."""
    from repro.engine_fast import core as fast_core
    from repro.mem.channel import MemoryChannel
    from repro.mem.dram import BankedMemoryChannel
    from repro.schemes.base import ProtectionScheme
    from repro.sim import runner
    from repro.sim.scenario import Scenario
    from repro.sim.soc import SessionCore

    state = {"scenario": ""}

    def build_traces(fn):
        span = tracer.stored("workloads.build_traces")(fn)

        def wrapper(self, *args, **kwargs):
            state["scenario"] = tracer.rid = self.name
            return span(self, *args, **kwargs)

        return wrapper

    def static_search(fn):
        span = tracer.stored("sim.static_search")(fn)

        def wrapper(*args, **kwargs):
            tracer.rid = f"{state['scenario']}/static_device"
            return span(*args, **kwargs)

        return wrapper

    def build_scheme(fn):
        span = tracer.stored("schemes.build")(fn)

        def wrapper(name, *args, **kwargs):
            tracer.rid = f"{state['scenario']}/{name}"
            scheme = span(name, *args, **kwargs)
            # The program's own tracer disables the fast engine.
            ledger.check(not scheme.tracer, f"{tracer.rid}: tracer on")
            return scheme

        return wrapper

    def scheme_init(fn):
        def wrapper(self, *args, **kwargs):
            fn(self, *args, **kwargs)
            for role, attr in CACHE_ROLES:
                cache = getattr(self, attr)
                if role == "mac" and cache is self.metadata_cache:
                    continue  # unified cache: counted as metadata
                cache.access = tracer.hot_span(
                    f"mem.cache.{role}.access", outcome=lambda r: not r.hit
                )(cache.access)

        return wrapper

    def prepare(fn):
        span = tracer.stored("engine_fast.prepare")(fn)

        def wrapper(*args, **kwargs):
            run = span(*args, **kwargs)
            if run is None:
                return None
            return tracer.stored("engine_fast.loop")(run)

        return wrapper

    tracer.patch(Scenario, "build_traces", build_traces)
    tracer.patch(runner, "best_static_granularities", static_search)
    tracer.patch(runner, "build_scheme", build_scheme)
    tracer.patch(ProtectionScheme, "__init__", scheme_init)
    tracer.patch(ProtectionScheme, "process", tracer.hot_span("schemes.process"))
    tracer.patch(MemoryChannel, "submit", tracer.hot_span("mem.channel.submit"))
    tracer.patch(
        BankedMemoryChannel, "submit", tracer.hot_span("mem.channel.submit")
    )
    tracer.patch(SessionCore, "step", tracer.stored("sim.loop"))
    tracer.patch(fast_core, "prepare", prepare)


def layer_metrics(totals: Dict[str, Dict[str, float]],
                  tracer: Tracer) -> Dict[str, dict]:
    def seconds(name: str, key: str = "total_s") -> dict:
        return metric(totals.get(name, {}).get(key, 0.0), "s")

    out = {
        "workloads.build_traces_s": seconds("workloads.build_traces"),
        "sim.static_search_s": seconds("sim.static_search"),
        "schemes.build_s": seconds("schemes.build"),
        "schemes.process_self_s": seconds("schemes.process", "self_s"),
        "mem.channel.submit_s": seconds("mem.channel.submit"),
        "mem.channel.transactions": metric(
            totals.get("mem.channel.submit", {}).get("count", 0), "count"
        ),
        "sim.loop_s": seconds("sim.loop"),
        "sim.loop_self_s": seconds("sim.loop", "self_s"),
        "engine_fast.prepare_s": seconds("engine_fast.prepare"),
        "engine_fast.loop_s": seconds("engine_fast.loop"),
    }
    for role, _ in CACHE_ROLES:
        name = f"mem.cache.{role}.access"
        accesses, misses = tracer.counts.get(name, (0, 0))
        out[f"{name}_s"] = seconds(name)
        out[f"mem.cache.{role}.accesses"] = metric(accesses, "count")
        out[f"mem.cache.{role}.miss_ratio"] = metric(
            misses / accesses if accesses else 0.0, "ratio"
        )
    return out


def run_traced(engine: str, seed: int, workload: str,
               ledger: Ledger) -> Dict[str, dict]:
    workers = jobs()
    warm(engine, 1)
    warm(engine, workers)
    # One input set: the untraced run's first.
    seed = input_seeds(seed)[0]

    # Untraced serial pass, one scenario at a time (the efficiency base).
    from repro.sim import runner

    runner.clear_static_best_cache()
    serial_s = 0.0
    serial_out = []
    for name in SCENARIOS:
        part, wall = sweep(engine, seed, 1, scenarios=(name,))
        serial_out.extend(part)
        serial_s += wall
    reference = digests(serial_out)

    fanout, fanout_s = sweep(engine, seed, workers)
    check_cells(ledger, digests(fanout), reference, "serial vs fan-out")

    tracer = Tracer()
    install(tracer, ledger)
    try:
        traced, traced_s = sweep(engine, seed, 1)
    finally:
        tracer.restore()
    check_cells(ledger, digests(traced), reference, "traced vs untraced")
    fallbacks = fallback_runs(traced)
    ledger.check(
        fallbacks == fallback_runs(fanout),
        f"traced run fell back {fallbacks} times, untraced "
        f"{fallback_runs(fanout)}",
    )
    parity(ledger, engine, seed, reference, workers)

    os.makedirs(OUT_DIR, exist_ok=True)
    write_spans(tracer, os.path.join(OUT_DIR, f"spans-{workload}-{seed}.jsonl"))
    metrics = layer_metrics(tracer.totals(), tracer)
    metrics["engine_fast.fallback_runs"] = metric(
        fallbacks if engine == "fast" else 0, "count"
    )
    metrics["exec.parallel_efficiency"] = metric(
        serial_s / (workers * fanout_s), "ratio"
    )
    metrics["trace.overhead_frac"] = metric(traced_s / serial_s - 1.0, "ratio")
    for name, value in model_counts(traced).items():
        metrics[name] = metric(value, "count" if "bytes" not in name else "B")
    return metrics


def main(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (ledger, metrics)."""
    engine = "scalar" if workload == "sim-scalar" else "fast"
    ledger = Ledger()
    if trace:
        metrics = run_traced(engine, seed, workload, ledger)
    else:
        metrics = run_untraced(engine, seed, seconds, ledger)
    return ledger, metrics


def record_expected() -> None:
    """Rewrite ``expected_digests.json`` from a scalar default-seed sweep."""
    out, _ = sweep("scalar", DEFAULT_SEED, jobs())
    payload = {
        "seed": DEFAULT_SEED,
        "duration_cycles": DURATION_CYCLES,
        "scenarios": list(SCENARIOS),
        "digests": digests(out),
    }
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
