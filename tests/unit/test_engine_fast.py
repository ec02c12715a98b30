"""Unit tests for the fast-engine plumbing that works without numpy.

The parity suites live in ``tests/integration/test_engine_parity.py``
and ``tests/property/test_prop_engine_parity.py``; this file covers
the availability gate, the scalar-fallback warning, the bounded layout
cache and the bench/platform surface -- all of which must behave on a
stdlib-only install (CI's no-numpy leg runs this file too).
"""

import dataclasses
import warnings

import pytest

from repro import engine_fast
from repro.common.config import ConfigError, MemoryConfig, SoCConfig
from repro.common.constants import GRANULARITIES
from repro.core import addressing, stream_part


@pytest.fixture
def no_numpy(monkeypatch):
    monkeypatch.setenv(engine_fast.FORCE_NO_NUMPY_ENV, "1")


class TestAvailabilityGate:
    def test_force_disable_wins_over_import(self, no_numpy):
        assert engine_fast.numpy_or_none() is None
        assert not engine_fast.numpy_available()
        assert not engine_fast.fast_engine_available()
        assert engine_fast.numpy_version() is None

    def test_zero_means_enabled(self, monkeypatch):
        monkeypatch.setenv(engine_fast.FORCE_NO_NUMPY_ENV, "0")
        # "0" does not force-disable; availability now reflects the
        # real import result, whatever it is on this machine.
        assert engine_fast.numpy_available() == (
            engine_fast.numpy_or_none() is not None
        )

    def test_version_matches_module(self):
        np = engine_fast.numpy_or_none()
        if np is None:
            assert engine_fast.numpy_version() is None
        else:
            assert engine_fast.numpy_version() == np.__version__


class TestConfigValidation:
    def test_default_is_scalar(self):
        assert SoCConfig().sim_engine == "scalar"

    def test_fast_accepted(self):
        assert SoCConfig(sim_engine="fast").sim_engine == "fast"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError):
            SoCConfig(sim_engine="turbo")


class TestScalarFallback:
    def _tiny_run(self, config, obs=None):
        from repro.schemes.registry import build_scheme
        from repro.sim.scenario import selected_scenario
        from repro.sim.soc import simulate

        traces, footprint = selected_scenario("cc1").build_traces(300.0, 3)
        scheme = build_scheme(
            "ours", config, footprint_bytes=footprint, obs=obs
        )
        return simulate(traces, scheme, config)

    def test_missing_numpy_warns_and_matches_scalar(self, no_numpy):
        fast_cfg = SoCConfig(sim_engine="fast")
        with pytest.warns(RuntimeWarning, match="falling back to the scalar"):
            degraded = self._tiny_run(fast_cfg)
        assert degraded.engine == "scalar"
        assert degraded.engine_fallback == "numpy_missing"
        scalar = self._tiny_run(SoCConfig())
        assert scalar.engine_fallback is None
        assert degraded.to_dict() == scalar.to_dict()
        assert "engine_fallback" not in degraded.to_dict()

    def test_missing_numpy_reason_on_session(self, no_numpy):
        from repro.secure_memory.session import EngineSession
        from repro.sim.parallel import slim_result

        with pytest.warns(RuntimeWarning, match="falling back"):
            session = EngineSession.from_params(
                scheme="ours", engine="fast", duration=300.0
            )
        assert session.engine == "scalar"
        assert session.engine_fallback == "numpy_missing"
        session.run()
        result = session.result()
        assert result.engine_fallback == "numpy_missing"
        assert slim_result(result).engine_fallback == "numpy_missing"

    def test_banked_channel_falls_back_silently(self):
        if not engine_fast.fast_engine_available():
            pytest.skip("needs numpy")
        banked = dataclasses.replace(
            SoCConfig(sim_engine="fast"),
            memory=MemoryConfig(banks=2),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no fallback warning expected
            result = self._tiny_run(banked)
        assert result.engine == "scalar"
        assert result.engine_fallback == "banked_channel"

    def test_tracing_falls_back_silently(self):
        if not engine_fast.fast_engine_available():
            pytest.skip("needs numpy")
        from repro.obs.context import ObsContext

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no fallback warning expected
            result = self._tiny_run(
                SoCConfig(sim_engine="fast"), obs=ObsContext.enabled()
            )
        assert result.engine == "scalar"
        assert result.engine_fallback == "tracing"
        assert result.trace  # the tracer really recorded the run

    def test_engaged_fast_run_records_no_reason(self):
        if not engine_fast.fast_engine_available():
            pytest.skip("needs numpy")
        result = self._tiny_run(SoCConfig(sim_engine="fast"))
        assert result.engine == "fast"
        assert result.engine_fallback is None

    def test_scalar_engine_never_imports_fast_core(self):
        # The scalar tier must stay importable/pure-stdlib: the simulate
        # dispatch only imports engine_fast.core when fast is requested.
        result = self._tiny_run(SoCConfig())
        assert result.engine == "scalar"
        assert result.engine_fallback is None


class TestLazyArenas:
    """prepare() validates eagerly but builds arenas on the first run."""

    @pytest.fixture
    def builds(self, monkeypatch):
        if not engine_fast.fast_engine_available():
            pytest.skip("needs numpy")
        from repro.engine_fast import core

        calls = []
        real = core._build_arenas

        def counting(*args, **kwargs):
            calls.append(args[3])
            return real(*args, **kwargs)

        monkeypatch.setattr(core, "_build_arenas", counting)
        return calls

    def test_windowed_only_session_builds_no_arena(self, builds):
        from repro.secure_memory.session import EngineSession

        session = EngineSession.from_params(
            scheme="adaptive", engine="fast", duration=300.0
        )
        assert session.engine == "fast"
        while not session.done:
            session.step(40)
        session.result()
        assert builds == []

    def test_whole_run_step_builds_once(self, builds):
        from repro.secure_memory.session import EngineSession

        session = EngineSession.from_params(
            scheme="adaptive", engine="fast", duration=300.0, warmup=True
        )
        assert builds == ["adaptive"]  # the warmup replay built them
        session.run()
        assert session.result().engine == "fast"
        assert builds == ["adaptive"]  # the measured replay reused them


class TestLayoutCache:
    def setup_method(self):
        addressing.clear_layout_cache()

    def teardown_method(self):
        addressing.clear_layout_cache()

    def test_stats_count_hits_misses(self):
        stats = addressing.layout_cache_stats()
        assert stats["entries"] == 0
        assert stats["capacity"] == addressing.LAYOUT_CACHE_CAPACITY
        base = (stats["hits"], stats["misses"])
        addressing.mac_index_in_chunk(0x5, 0, GRANULARITIES[3])
        after_miss = addressing.layout_cache_stats()
        assert after_miss["misses"] == base[1] + 1
        assert after_miss["entries"] == 1
        addressing.mac_index_in_chunk(0x5, 64, GRANULARITIES[3])
        after_hit = addressing.layout_cache_stats()
        assert after_hit["hits"] == base[0] + 1
        assert after_hit["entries"] == 1

    def test_capacity_bound_evicts(self, monkeypatch):
        monkeypatch.setattr(addressing, "LAYOUT_CACHE_CAPACITY", 4)
        addressing.clear_layout_cache()
        for bits in range(1, 8):
            addressing.mac_index_in_chunk(bits, 0, GRANULARITIES[3])
        stats = addressing.layout_cache_stats()
        assert stats["entries"] <= 4
        assert stats["evictions"] >= 3

    def test_obs_binding_is_tracer_gated(self):
        from repro.obs.context import ObsContext
        from repro.schemes.registry import build_scheme

        config = SoCConfig()
        silent = build_scheme("ours", config)
        silent.attach_obs(ObsContext.disabled())
        snap = silent.obs.registry.snapshot()
        assert not any(k.startswith("engine.layout_cache.") for k in snap)

        traced = build_scheme("ours", config)
        traced.attach_obs(ObsContext.enabled())
        snap = traced.obs.registry.snapshot()
        assert "engine.layout_cache.hits" in snap
        assert snap["engine.layout_cache.capacity"] == (
            addressing.LAYOUT_CACHE_CAPACITY
        )


class TestVectorizedLayout:
    """The numpy cumulative-sum derivation vs the scalar walk."""

    def test_layout_arrays_match_scalar_memo(self):
        if not engine_fast.fast_engine_available():
            pytest.skip("needs numpy")
        from repro.engine_fast import tables

        bitmaps = [
            0,
            1,
            stream_part.FULL_MASK,
            stream_part.FULL_MASK & ~1,
            0x00FF,
            0xFF00_0000_0000_00FF & stream_part.FULL_MASK,
            0x0F0F_0F0F_0F0F_0F0F & stream_part.FULL_MASK,
        ]
        for bits in bitmaps:
            for max_g in GRANULARITIES[1:]:
                s_index, s_merged, s_total = addressing._chunk_mac_layout(
                    bits, max_g
                )
                f_index, f_merged, f_total = tables.mac_layout_arrays(
                    bits, max_g
                )
                assert list(f_index) == list(s_index), (bits, max_g)
                assert [bool(m) for m in f_merged] == list(s_merged)
                assert f_total == s_total


class TestBenchSurface:
    def test_platform_block_records_engine_and_numpy(self):
        from repro.obs import bench

        sim = {"schema": bench.SIM_SCHEMA, "scenario": "x", "schemes": {}}
        snap = bench.make_snapshot(
            sim, {"ours": {"runs": [0.1], "min": 0.1, "mean": 0.1}}, 1,
            engine="fast",
        )
        plat = snap["platform"]
        assert plat["engine"] == "fast"
        assert plat["fast_available"] == engine_fast.fast_engine_available()
        assert plat["numpy"] == engine_fast.numpy_version()

    def test_snapshot_path_engine_suffix(self):
        from repro.obs import bench

        assert bench.snapshot_path(generated="2026-08-08") == (
            "BENCH_2026-08-08.json"
        )
        assert bench.snapshot_path(
            generated="2026-08-08", engine="fast"
        ) == "BENCH_2026-08-08_fast.json"
        assert bench.snapshot_path(
            generated="2026-08-08", engine="both"
        ) == "BENCH_2026-08-08.json"

    def test_engines_comparison_speedups(self):
        from repro.obs import bench

        section = bench.engines_comparison(
            {
                "scalar": {"ours": {"runs": [0.4], "min": 0.4, "mean": 0.4}},
                "fast": {"ours": {"runs": [0.1], "min": 0.1, "mean": 0.1}},
            },
            {
                "scalar": {"wall_seconds": {"min": 2.0}},
                "fast": {"wall_seconds": {"min": 0.5}},
            },
        )
        assert section["speedup"]["ours"] == pytest.approx(4.0)
        assert section["speedup"]["sweep"] == pytest.approx(4.0)
        assert section["scalar"]["wall_seconds"]["ours"]["min"] == 0.4


class TestMinSpeedupGate:
    def _snapshot(self, sweep_min, scheme_min, engine):
        from repro.obs import bench

        return {
            "schema": bench.BENCH_SCHEMA,
            "generated": "2026-08-08",
            "platform": {"engine": engine},
            "repeat": 1,
            "wall_seconds": {
                "ours": {"runs": [scheme_min], "min": scheme_min,
                         "mean": scheme_min},
            },
            "sim": {"schema": bench.SIM_SCHEMA, "scenario": "cc1",
                    "schemes": {}},
            "sweep": {
                "wall_seconds": {"runs": [sweep_min], "min": sweep_min,
                                 "mean": sweep_min},
                "scenarios": 6, "schemes": ["ours"],
                "duration_cycles": 800.0, "jobs": 1, "engine": engine,
            },
        }

    @pytest.fixture(scope="class")
    def gate(self):
        import importlib.util
        import os

        script = os.path.join(
            os.path.dirname(__file__), "..", "..", "scripts",
            "check_bench_regression.py",
        )
        spec = importlib.util.spec_from_file_location(
            "check_bench_regression_speedup", script
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_floor_met_and_missed(self, gate, tmp_path, capsys):
        import json

        base = tmp_path / "scalar.json"
        cur = tmp_path / "fast.json"
        base.write_text(json.dumps(self._snapshot(3.0, 0.3, "scalar")))
        cur.write_text(json.dumps(self._snapshot(1.0, 0.1, "fast")))
        argv = [str(base), str(cur), "--min-speedup"]
        assert gate.main(argv + ["2.0"]) == 0
        assert "3.00x" in capsys.readouterr().out
        assert gate.main(argv + ["5.0"]) == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_scheme_floor_gates_when_requested(self, gate, tmp_path, capsys):
        import json

        base = tmp_path / "scalar.json"
        cur = tmp_path / "fast.json"
        # Sweep speeds up 3x but the scheme only 1.5x.
        base.write_text(json.dumps(self._snapshot(3.0, 0.3, "scalar")))
        cur.write_text(json.dumps(self._snapshot(1.0, 0.2, "fast")))
        argv = [str(base), str(cur), "--min-speedup", "2.0"]
        assert gate.main(argv) == 0  # schemes report-only by default
        capsys.readouterr()
        assert gate.main(argv + ["--min-scheme-speedup", "2.0"]) == 1
        assert "scheme ours" in capsys.readouterr().err

    def test_shape_mismatch_is_usage_error(self, gate, tmp_path, capsys):
        import json

        base_snap = self._snapshot(3.0, 0.3, "scalar")
        cur_snap = self._snapshot(1.0, 0.1, "fast")
        cur_snap["sweep"]["scenarios"] = 11
        base = tmp_path / "scalar.json"
        cur = tmp_path / "fast.json"
        base.write_text(json.dumps(base_snap))
        cur.write_text(json.dumps(cur_snap))
        assert gate.main([str(base), str(cur), "--min-speedup", "2.0"]) == 2
        assert "sweep shapes differ" in capsys.readouterr().err
