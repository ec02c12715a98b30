"""Helpers shared by the benchmark's workloads: statistics, digests,
failure counting, resource and set-up probes and the result line."""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Mapping, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: The manifest: the metrics every result line must hold, with units.
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
#: Scratch space for sockets, tenant journals and span dumps.
OUT_DIR = os.path.join(ROOT, ".benchv2_out")

#: Candidate percentiles for a tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def _rank(count: int, pct: float) -> int:
    """1-based nearest rank of percentile ``pct`` in ``count`` samples."""
    return max(1, math.ceil(round(count * pct / 100.0, 9)))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    return sorted(values)[_rank(len(values), pct) - 1]


def tail_percentile(count: int) -> Optional[float]:
    """Highest percentile with at least ten samples beyond it, or None."""
    for pct in TAIL_PERCENTILES:
        if count and count - _rank(count, pct) >= 10:
            return pct
    return None


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------

def canonical_digest(payload) -> str:
    """SHA-256 of the canonical JSON (sorted keys, no whitespace)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def compare_digests(
    got: Mapping[str, str], want: Mapping[str, str]
) -> List[str]:
    """Keys whose digests differ, including keys present on one side only."""
    return sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))


# ----------------------------------------------------------------------
# Failure counting
# ----------------------------------------------------------------------

class Ledger:
    """Attempted/failed operation counts plus the first few failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, note: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(note)

    def check(self, condition: bool, note: str) -> bool:
        """Count one attempted check; a false condition is a failure."""
        if condition:
            self.ok()
        else:
            self.fail(note)
        return condition


# ----------------------------------------------------------------------
# Resource probes
# ----------------------------------------------------------------------

def peak_rss_mb(children: bool = True) -> float:
    """Peak resident set of this process or (optionally) its largest
    reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        own = max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return own / 1024.0  # ru_maxrss is in KiB on Linux


def proc_hwm_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError(f"no VmHWM for pid {pid}")


def proc_cpu_s(pid: int) -> float:
    """User+system CPU seconds of a live process."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def self_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def child_env() -> Dict[str, str]:
    """Environment for program subprocesses: ``src`` importable."""
    return dict(os.environ, PYTHONPATH=SRC)


def time_import_probe(code: str) -> float:
    """Seconds from spawning ``python -c code`` until it reports ready.

    ``code`` must print ``time.monotonic()`` as its last line once its
    set-up is done.
    """
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1]) - started


class SetupSampler:
    """Set-up samples spread over a run instead of taken in one burst.

    The host's speed drifts on a scale of seconds, so a burst of launches
    samples one host state; launches spread between units of work sample
    as many as the rest of the run does.  ``launch`` performs one set-up
    and returns its seconds.  One unmeasured launch first warms byte-code
    and page caches, which a user's second launch would also find warm.
    """

    def __init__(self, launch: Callable[[], float], total: int) -> None:
        self.launch = launch
        self.total = total
        self.samples: List[float] = []
        launch()

    def catch_up(self, fraction: float) -> None:
        """Launch until ``fraction`` (0..1) of the samples are taken."""
        want = min(self.total, math.ceil(round(self.total * fraction, 9)))
        while len(self.samples) < want:
            self.samples.append(self.launch())

    def median(self) -> float:
        self.catch_up(1.0)
        return statistics.median(self.samples)


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------

def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def manifest_metrics(trace: bool) -> Dict[str, str]:
    """Metric name -> unit that a result line must hold: the manifest's
    ``end_to_end`` list untraced, its ``per_layer`` list traced."""
    with open(MANIFEST) as fh:
        manifest = json.load(fh)
    return {
        entry["name"]: entry["unit"]
        for entry in manifest["per_layer" if trace else "end_to_end"]
    }


def complete(metrics: Dict[str, Dict[str, object]],
             wanted: Mapping[str, str], trace: bool
             ) -> Dict[str, Dict[str, object]]:
    """Check ``metrics`` against the manifest's names and units.

    Every workload prints every metric of the manifest.  A traced run
    reports 0 for the layers its workload does not exercise (the serving
    layers in a ``sim-*`` run, ``engine_fast`` in ``sim-scalar``);
    an untraced run must measure every end-to-end metric itself.
    Raises ``ValueError`` on a metric the manifest does not name, a
    wrong unit, or a missing end-to-end metric.
    """
    extra = sorted(set(metrics) - set(wanted))
    if extra:
        raise ValueError(f"metrics not in the manifest: {extra}")
    wrong = sorted(n for n, m in metrics.items() if m["unit"] != wanted[n])
    if wrong:
        raise ValueError(f"metrics with a unit other than the manifest's: {wrong}")
    missing = sorted(set(wanted) - set(metrics))
    if missing and not trace:
        raise ValueError(f"end-to-end metrics not measured: {missing}")
    out = dict(metrics)
    for name in missing:
        out[name] = metric(0, wanted[name])
    return out


def emit(ledger: Ledger, metrics: Dict[str, Dict[str, object]]) -> int:
    """Print every metric by name and unit, then the JSON result line.

    Returns the process exit code: non-zero on any correctness failure.
    """
    for name in sorted(metrics):
        entry = metrics[name]
        print(f"{name:44s} {entry['value']:>16.6g} {entry['unit']}")
    for note in ledger.notes:
        print(f"FAIL {note}")
    correct = ledger.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, ledger.attempted),
                "failed": ledger.failed,
                "metrics": metrics,
            },
            sort_keys=True,
        )
    )
    sys.stdout.flush()
    return 0 if correct else 1

