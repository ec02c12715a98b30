"""Tests of the benchmark's own helpers (``python -m pytest benchv2``)."""

from __future__ import annotations

import types

import pytest

import common
import serve_bench
import sim_bench
import tracing
from common import Ledger, canonical_digest, compare_digests, percentile
from common import tail_percentile
from tracing import Tracer, covered, self_times


# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "count, expected",
    [
        (10_000, 99.9),
        (9_999, 99.0),
        (1_000, 99.0),
        (999, 90.0),
        (100, 90.0),
        (99, 50.0),
        (20, 50.0),
        (19, None),
        (0, None),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # unsorted input
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------

def span(name, start, end, parent=-1, folded=0.0):
    return [name, start, end, parent, "", folded]


def test_self_time_of_nested_children():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 4.0, parent=0),
        span("c", 2.0, 3.0, parent=1),
    ]
    assert self_times(spans) == [7.0, 2.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 5.0, parent=0),
        span("c", 3.0, 8.0, parent=0),
        span("d", 3.5, 4.0, parent=0),  # inside b and c
    ]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_self_time_clips_children_to_the_parent_and_subtracts_folded():
    spans = [
        span("a", 0.0, 10.0, folded=1.5),
        span("b", 8.0, 12.0, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(6.5)
    assert covered([(1.0, 2.0), (1.5, 3.0), (5.0, 6.0)], 0.0, 5.5) == 2.5


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_tracer_folds_hot_children_into_stored_parents(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracing, "_clock", clock)
    tracer = Tracer()

    @tracer.hot_span("leaf", outcome=lambda missed: missed)
    def leaf(missed):
        clock.now += 2.0
        return missed

    @tracer.hot_span("mid")
    def mid():
        clock.now += 1.0
        leaf(True)
        leaf(False)

    @tracer.stored("top")
    def top():
        clock.now += 1.0
        mid()
        clock.now += 1.0

    top()
    totals = tracer.totals()
    assert totals["top"] == {"count": 1, "total_s": 7.0, "self_s": 2.0}
    assert totals["mid"] == {"count": 1, "total_s": 5.0, "self_s": 1.0}
    assert totals["leaf"] == {"count": 2, "total_s": 4.0, "self_s": 4.0}
    assert tracer.counts["leaf"] == [2, 1]


def test_tracer_rejects_stored_span_under_hot_span():
    tracer = Tracer()
    inner = tracer.stored("inner")(lambda: None)
    outer = tracer.hot_span("outer")(inner)
    with pytest.raises(RuntimeError):
        outer()


def test_tracer_request_ids_flow_to_children():
    tracer = Tracer()
    child = tracer.stored("child")(lambda: None)
    parent = tracer.stored("parent", rid_of=lambda rid: rid)(lambda rid: child())
    parent("r-7")
    assert [row[tracing.RID] for row in tracer.spans] == ["r-7", "r-7"]
    assert tracer.spans[1][tracing.PARENT] == 0


def test_patch_and_restore():
    class Thing:
        def method(self):
            return "m"

        @classmethod
        def make(cls):
            return cls()

    module = types.SimpleNamespace(fn=lambda: "f")
    originals = (Thing.__dict__["method"], Thing.__dict__["make"], module.fn)
    tracer = Tracer()
    tracer.patch(Thing, "method", tracer.stored("method"))
    tracer.patch(Thing, "make", tracer.stored("make"))
    tracer.patch(module, "fn", tracer.stored("fn"))
    assert isinstance(Thing.make(), Thing)
    assert Thing().method() == "m" and module.fn() == "f"
    assert sorted(tracer.totals()) == ["fn", "make", "method"]
    tracer.restore()
    restored = (Thing.__dict__["method"], Thing.__dict__["make"], module.fn)
    assert restored == originals


# ----------------------------------------------------------------------
# Digests and failure counting
# ----------------------------------------------------------------------

def test_canonical_digest_ignores_key_order():
    assert canonical_digest({"a": 1, "b": [1, 2]}) == canonical_digest(
        {"b": [1, 2], "a": 1}
    )
    assert canonical_digest({"a": 1}) != canonical_digest({"a": 1.5})


def test_compare_digests_reports_changed_and_one_sided_keys():
    got = {"x/ours": "1", "x/unsecure": "2", "y/ours": "3"}
    want = {"x/ours": "1", "x/unsecure": "9", "z/ours": "4"}
    assert compare_digests(got, want) == ["x/unsecure", "y/ours", "z/ours"]
    assert compare_digests(got, dict(got)) == []


def test_ledger_counts_failures_against_attempts():
    ledger = Ledger()
    ledger.ok(3)
    assert ledger.check(True, "fine")
    assert not ledger.check(False, "broken")
    ledger.fail("two more", count=2)
    assert (ledger.attempted, ledger.failed) == (7, 3)
    assert ledger.notes == ["broken", "two more"]


def test_check_cells_counts_one_attempt_per_cell():
    ledger = Ledger()
    sim_bench.check_cells(
        ledger, {"a": "1", "b": "2", "c": "3"}, {"a": "1", "b": "0", "c": "3"},
        "parity",
    )
    assert (ledger.attempted, ledger.failed) == (3, 1)


def test_emit_exits_non_zero_on_failure(capsys):
    ledger = Ledger()
    ledger.fail("digest mismatch")
    code = common.emit(ledger, {"setup_s": common.metric(0.5, "s")})
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert code == 1
    assert '"correct": false' in last and '"failed": 1' in last


# ----------------------------------------------------------------------
# Result line against the manifest
# ----------------------------------------------------------------------

WANTED = {"layer_s": "s", "layer.calls": "count"}


def test_complete_fills_unexercised_layers_with_zero():
    got = common.complete({"layer_s": common.metric(0.25, "s")}, WANTED, True)
    assert got == {
        "layer_s": {"value": 0.25, "unit": "s"},
        "layer.calls": {"value": 0, "unit": "count"},
    }


def test_complete_requires_every_end_to_end_metric():
    with pytest.raises(ValueError, match="not measured"):
        common.complete({"layer_s": common.metric(0.25, "s")}, WANTED, False)


@pytest.mark.parametrize("trace", [False, True])
def test_complete_rejects_unknown_metrics_and_units(trace):
    full = {"layer_s": common.metric(1.0, "s"),
            "layer.calls": common.metric(3, "count")}
    with pytest.raises(ValueError, match="not in the manifest"):
        common.complete({**full, "other": common.metric(1, "s")}, WANTED, trace)
    with pytest.raises(ValueError, match="unit"):
        common.complete({**full, "layer_s": common.metric(1.0, "ms")},
                        WANTED, trace)


def test_manifest_lists_both_modes():
    end_to_end = common.manifest_metrics(False)
    per_layer = common.manifest_metrics(True)
    assert end_to_end["setup_s"] == "s"
    assert "sim_reqs_per_s" in end_to_end
    assert not set(end_to_end) & set(per_layer)


def test_serve_rotation_covers_every_combination():
    combos = {
        tuple(sorted(
            (k, v) for k, v in serve_bench.tenant_params(0, i).items()
            if k != "seed"
        ))
        for i in range(72)
    }
    assert len(combos) == 72


# ----------------------------------------------------------------------
# Set-up sampling
# ----------------------------------------------------------------------

def test_setup_sampler_spreads_launches_and_discards_the_warm_one():
    times = iter([9.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    sampler = common.SetupSampler(lambda: next(times), total=5)
    assert sampler.samples == []  # the warm launch is not a sample
    sampler.catch_up(0.2)
    assert sampler.samples == [1.0]
    sampler.catch_up(0.2)
    assert sampler.samples == [1.0]
    sampler.catch_up(0.5)
    assert sampler.samples == [1.0, 2.0, 3.0]
    sampler.catch_up(7.0)  # never more than the total
    assert sampler.median() == 3.0 and len(sampler.samples) == 5
