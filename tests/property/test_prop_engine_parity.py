"""Property-based scalar/fast engine parity over random trace windows.

Hypothesis picks arbitrary contiguous windows of each device's trace
(plus scheme, seed and warmup mode); the fast engine must reproduce
``RunResult.to_dict()`` byte for byte on every window.  Windows start
and end at arbitrary request boundaries, so cold caches, mid-phase
granularity switches and partially trained tables are all exercised.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engine_fast
from repro.common.config import SoCConfig
from repro.schemes.registry import SCHEME_NAMES
from repro.sim.scenario import selected_scenario

pytestmark = pytest.mark.skipif(
    not engine_fast.fast_engine_available(), reason="needs numpy ([fast])"
)

_SCENARIO_DURATION = 2500.0
_traces_cache = {}


def _base_traces(seed: int):
    if seed not in _traces_cache:
        _traces_cache[seed] = selected_scenario("cc1").build_traces(
            _SCENARIO_DURATION, seed
        )
    return _traces_cache[seed]


def _window(traces, footprint, starts, length):
    sliced = [
        dataclasses.replace(
            trace,
            entries=trace.entries[
                start % max(1, len(trace.entries)):
            ][:length],
        )
        for trace, start in zip(traces, starts)
    ]
    return sliced, footprint


def _simulate(traces, footprint, scheme_name, engine, warmup):
    from repro.schemes.registry import build_scheme
    from repro.sim.runner import best_static_granularities
    from repro.sim.soc import simulate

    config = SoCConfig(sim_engine=engine)
    device_granularities = None
    if scheme_name == "static_device":
        device_granularities = best_static_granularities(traces, config)
    scheme = build_scheme(
        scheme_name,
        config,
        footprint_bytes=footprint,
        device_granularities=device_granularities,
    )
    return simulate(traces, scheme, config, warmup=warmup)


@settings(max_examples=39, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2),
    starts=st.tuples(*[st.integers(min_value=0, max_value=5000)] * 4),
    length=st.integers(min_value=1, max_value=300),
    scheme=st.sampled_from(SCHEME_NAMES),
    warmup=st.booleans(),
)
def test_random_windows_bit_identical(seed, starts, length, scheme, warmup):
    traces, footprint = _base_traces(seed)
    window, footprint = _window(traces, footprint, starts, length)
    scalar = _simulate(window, footprint, scheme, "scalar", warmup)
    fast = _simulate(window, footprint, scheme, "fast", warmup)
    assert fast.engine == "fast"
    assert json.dumps(scalar.to_dict(), sort_keys=True, default=str) == (
        json.dumps(fast.to_dict(), sort_keys=True, default=str)
    )
    assert scalar.metrics == fast.metrics


@settings(max_examples=6, deadline=None)
@given(
    starts=st.tuples(*[st.integers(min_value=0, max_value=3000)] * 4),
    length=st.integers(min_value=1, max_value=200),
)
def test_static_device_windows_bit_identical(starts, length):
    # static_device resolves per-device granularities through the
    # memoized best-static search; exercised separately because that
    # search itself simulates (slower per example).
    traces, footprint = _base_traces(0)
    window, footprint = _window(traces, footprint, starts, length)
    scalar = _simulate(window, footprint, "static_device", "scalar", False)
    fast = _simulate(window, footprint, "static_device", "fast", False)
    assert fast.engine == "fast"
    assert json.dumps(scalar.to_dict(), sort_keys=True, default=str) == (
        json.dumps(fast.to_dict(), sort_keys=True, default=str)
    )
