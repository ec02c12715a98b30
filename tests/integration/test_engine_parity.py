"""Scalar-vs-fast engine parity: bit-for-bit identical observables.

The fast engine's contract is not "approximately the same" -- it is
byte equality of every payload the repo publishes: ``RunResult.
to_dict()`` (devices, channel, metrics snapshot), golden-corpus
digests, and the differential harness's observation records.  These
tests skip cleanly on a stdlib-only install (numpy is the ``[fast]``
extra, not a requirement).
"""

import dataclasses
import json

import pytest

from repro import engine_fast
from repro.common.config import SoCConfig
from repro.schemes.registry import SCHEME_NAMES
from repro.sim.runner import run_scenario
from repro.sim.scenario import selected_scenario

needs_numpy = pytest.mark.skipif(
    not engine_fast.fast_engine_available(), reason="needs numpy ([fast])"
)

#: The fast engine supports every Table-5 scheme, so parity covers all.
PARITY_SCHEMES = SCHEME_NAMES


def _payload(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True, default=str)


@needs_numpy
class TestScenarioParity:
    @pytest.fixture(scope="class")
    def both_runs(self):
        scenario = selected_scenario("cc1")
        scalar = run_scenario(
            scenario, PARITY_SCHEMES, config=SoCConfig(),
            duration_cycles=1200.0, jobs=1,
        )
        fast = run_scenario(
            scenario, PARITY_SCHEMES,
            config=SoCConfig(sim_engine="fast"),
            duration_cycles=1200.0, jobs=1,
        )
        return scalar, fast

    @pytest.mark.parametrize("scheme", PARITY_SCHEMES)
    def test_payloads_byte_identical(self, both_runs, scheme):
        scalar, fast = both_runs
        assert fast[scheme].engine == "fast"
        assert _payload(scalar[scheme]) == _payload(fast[scheme])

    @pytest.mark.parametrize("scheme", PARITY_SCHEMES)
    def test_fast_engine_actually_engaged(self, both_runs, scheme):
        scalar, fast = both_runs
        assert scalar[scheme].engine == "scalar"
        assert fast[scheme].engine == "fast"

    @pytest.mark.parametrize("scheme", PARITY_SCHEMES)
    def test_metrics_snapshots_equal(self, both_runs, scheme):
        scalar, fast = both_runs
        assert fast[scheme].engine == "fast"
        assert scalar[scheme].metrics == fast[scheme].metrics

    def test_bmf_unused_engages_fast(self):
        # Subtree-root caches are an option of the fused walk, not a
        # fallback: the BMF&Unused scheme runs fast with its subtree
        # LRU in the same final state as a scalar run.
        from repro.schemes.registry import build_scheme
        from repro.sim.soc import simulate

        traces, footprint = selected_scenario("cc1").build_traces(400.0, 0)
        subtrees = []
        for engine in ("scalar", "fast"):
            config = SoCConfig(sim_engine=engine)
            scheme = build_scheme(
                "bmf_unused", config, footprint_bytes=footprint
            )
            assert scheme.subtree is not None
            result = simulate(traces, scheme, config)
            assert result.engine == engine
            assert result.engine_fallback is None
            subtree = scheme.subtree
            subtrees.append((
                list(subtree._table), subtree.hits,
                subtree.admissions, subtree.evictions,
            ))
        assert subtrees[0] == subtrees[1]
        assert subtrees[1][1] > 0  # walks did stop at cached roots


def _scheme_state(scheme) -> dict:
    """Learned state a run leaves behind, for scalar/fast comparison."""
    state = {
        "caches": [
            [list(s.items()) for s in cache._sets]
            for cache in (
                scheme.metadata_cache, scheme.mac_cache, scheme.table_cache
            )
        ],
        "regions": list(scheme.region_buffer._regions.items()),
    }
    subtree = getattr(scheme, "subtree", None)
    if subtree is not None:
        state["subtree"] = (
            list(subtree._table), subtree.hits,
            subtree.admissions, subtree.evictions,
        )
    if hasattr(scheme, "_shared"):
        state["shared"] = (
            list(scheme._shared), scheme.shared_hits, scheme.scans
        )
    if hasattr(scheme, "table"):
        state["table"] = [
            (chunk, vars(entry)) for chunk, entry in scheme.table.chunks()
        ]
    return state


@needs_numpy
class TestBarrierPaths:
    """Traces built to drive the rare paths of the fused loop.

    Device 0 (CPU) writes sparsely across many chunks (subtree-root
    evictions in a small LRU), device 1 (GPU) write-streams twelve
    chunks and then touches them sparsely (promoted regions left
    partially covered: over-fetch settlements, misprediction
    demotions, scale-downs), device 2 (NPU) streams whole chunks
    several times (tracker ``full`` evictions: shared-counter
    admission scans, lazy scale-up switches).
    """

    @pytest.fixture(scope="class")
    def traces(self):
        base, _ = selected_scenario("cc1").build_traces(300.0, 0)
        chunk, line = 32768, 64
        streams = [
            (1.0, c * chunk + i * line, False)
            for _ in range(3) for c in range(4) for i in range(512)
        ]
        promoted = [
            (2.0, (8 + c) * chunk + i * line, True)
            for c in range(12) for i in range(512)
        ] + [
            (2.0, (8 + c) * chunk + (i * 67 % 512) * line, k % 2 == 1)
            for k in range(4) for c in range(12) for i in range(4)
        ]
        scattered = [
            (9.0, (16 + (k * 7) % 40) * chunk + (k * 13 % 512) * line, True)
            for k in range(600)
        ]
        return [
            dataclasses.replace(trace, entries=tuple(entries))
            for trace, entries in zip(base, (scattered, promoted, streams))
        ]

    @staticmethod
    def _build(name, config):
        from repro.schemes.conventional import ConventionalScheme
        from repro.schemes.multigran import MultiGranularScheme
        from repro.schemes.registry import build_scheme
        from repro.subtree.bmf import SubtreeRootCache

        region = 64 << 20
        if name == "bmf_small":
            return ConventionalScheme(
                config, region, subtree=SubtreeRootCache(entries=4)
            )
        if name == "bmf_ours_small":
            return MultiGranularScheme(
                config, region, subtree=SubtreeRootCache(entries=4)
            )
        return build_scheme(name, config)

    @pytest.mark.parametrize(
        "name",
        ["ours", "adaptive", "common_ctr", "bmf_small", "bmf_ours_small"],
    )
    @pytest.mark.parametrize("warmup", [False, True])
    def test_rare_paths_match_scalar(self, traces, name, warmup):
        from repro.sim.soc import simulate

        runs = {}
        for engine in ("scalar", "fast"):
            config = SoCConfig(sim_engine=engine)
            scheme = self._build(name, config)
            result = simulate(traces, scheme, config, warmup=warmup)
            assert result.engine == engine
            runs[engine] = (result, _scheme_state(scheme))
        (scalar, scalar_state), (fast, fast_state) = (
            runs["scalar"], runs["fast"]
        )
        assert _payload(scalar) == _payload(fast)
        assert scalar_state == fast_state
        # The barrier paths really ran.
        if name in ("ours", "adaptive", "bmf_ours_small"):
            assert fast.metrics["switch.total"] > 0
            assert fast.metrics["region.overfetch_lines"] > 0
        if name == "common_ctr":
            _, shared_hits, scans = fast_state["shared"]
            assert shared_hits > 0 and scans > 0
        if name.startswith("bmf"):
            _, hits, _, evictions = fast_state["subtree"]
            assert hits > 0 and evictions > 0


@needs_numpy
class TestDifferentialParity:
    """The six quick stream profiles through ``--engine fast``."""

    def test_records_and_digests_match_scalar(self):
        from repro.check.differential import DifferentialHarness
        from repro.check.runner import quick_specs
        from repro.check.streams import generate_stream

        specs = quick_specs()
        assert len(specs) == 6
        profiles = {spec.profile for spec in specs}
        assert profiles == {
            "stream", "sparse", "mixed", "boundary", "phase", "permute"
        }
        for spec in specs[:3]:  # full record comparison on a subset
            ops = generate_stream(spec)
            scalar = DifferentialHarness(spec.region_bytes, seed=spec.seed)
            scalar.replay(ops)
            fast = DifferentialHarness(
                spec.region_bytes, seed=spec.seed, engine_mode="fast"
            )
            fast.replay(ops)
            assert scalar.records == fast.records
            assert scalar.record_digest() == fast.record_digest()

    def test_golden_corpus_digests_under_fast(self):
        # The committed corpus was produced by the scalar harness; the
        # fast harness must reproduce the exact digests.
        from repro.check import golden as golden_mod
        from repro.check.differential import DifferentialHarness
        from repro.check.runner import quick_specs
        from repro.check.streams import generate_stream

        committed = golden_mod.load_corpus(
            golden_mod.corpus_path("tests/golden", "quick")
        )
        specs = quick_specs()
        digests = []
        for spec in specs:
            harness = DifferentialHarness(
                spec.region_bytes, seed=spec.seed, engine_mode="fast"
            )
            harness.replay(generate_stream(spec))
            digests.append(golden_mod.corpus_digest(harness))
        actual = golden_mod.make_corpus("quick", specs, digests)
        assert golden_mod.diff_corpus(committed, actual) == []

    def test_injected_layout_bug_caught_under_fast(self):
        from repro.check.differential import DivergenceError
        from repro.check.runner import inject_layout_bug, quick_specs
        from repro.check.streams import generate_stream

        spec = quick_specs()[0]
        ops = generate_stream(spec)[:80]
        with inject_layout_bug():
            from repro.check.differential import DifferentialHarness

            harness = DifferentialHarness(
                spec.region_bytes, seed=spec.seed, engine_mode="fast"
            )
            with pytest.raises(DivergenceError):
                harness.replay(ops)

    def test_fast_harness_requires_numpy(self, monkeypatch):
        from repro.check.differential import DifferentialHarness

        monkeypatch.setenv(engine_fast.FORCE_NO_NUMPY_ENV, "1")
        with pytest.raises(ValueError, match="requires numpy"):
            DifferentialHarness(1 << 20, engine_mode="fast")

    def test_run_check_fast_degrades_without_numpy(self, monkeypatch):
        from repro.check.runner import run_check

        monkeypatch.setenv(engine_fast.FORCE_NO_NUMPY_ENV, "1")
        notices = []
        with pytest.warns(RuntimeWarning, match="falling back"):
            report = run_check(
                "quick", golden_dir=None, echo=notices.append,
                engine="fast",
            )
        assert report.passed
        assert any("numpy unavailable" in n for n in notices)
        diff = [s for s in report.sections if s.name == "differential"][0]
        assert "engine=scalar" in diff.detail


@needs_numpy
class TestBenchBothEngines:
    def test_side_by_side_snapshot(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "bench_both.json"
        code = main(
            [
                "bench", "cc1", "--engine", "both",
                "--schemes", "unsecure,ours",
                "--duration", "400", "--repeat", "1", "--no-sweep",
                "-o", str(out), "--jobs", "1",
            ]
        )
        assert code == 0
        snapshot = json.loads(out.read_text())
        assert snapshot["platform"]["engine"] == "both"
        engines = snapshot["engines"]
        assert set(engines) == {"scalar", "fast", "speedup"}
        assert "ours" in engines["speedup"]
        for tier in ("scalar", "fast"):
            assert "ours" in engines[tier]["wall_seconds"]


class TestSimEnginePropagation:
    def test_slim_result_carries_engine(self):
        from repro.sim.parallel import slim_result

        scenario = selected_scenario("cc1")
        engine = (
            "fast" if engine_fast.fast_engine_available() else "scalar"
        )
        runs = run_scenario(
            scenario, ("unsecure",),
            config=SoCConfig(sim_engine=engine)
            if engine == "fast" else SoCConfig(),
            duration_cycles=300.0, jobs=1,
        )
        slim = slim_result(runs["unsecure"])
        assert slim.engine == engine

    def test_replace_roundtrip(self):
        config = SoCConfig()
        fast = dataclasses.replace(config, sim_engine="fast")
        assert fast.sim_engine == "fast"
        back = dataclasses.replace(fast, sim_engine="scalar")
        assert back == config
