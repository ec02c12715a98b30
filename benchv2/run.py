"""Benchmark entry point: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 benchv2/run.py --workload sim-scalar --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` runs the separate traced run and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``, holding
every metric ``BENCHMARK.json`` lists for that mode.  The exit
code is non-zero on any correctness failure, and when the program's
sources are missing.  See ``benchv2/README.md``.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import SRC, complete, emit, manifest_metrics  # noqa: E402

WORKLOADS = ("sim-scalar", "sim-fast", "serve-durable")
#: Environment knobs that change how the program runs; the benchmark
#: always measures the defaults, in this process and its children.
REPRO_KNOBS = ("REPRO_EXEC", "REPRO_JOBS", "REPRO_SIM_DURATION",
               "REPRO_FORCE_NO_NUMPY")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-expected", action="store_true",
        help="rewrite expected_digests.json from a default-seed scalar "
        "sweep, then exit",
    )
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    wanted = manifest_metrics(trace)
    sys.path.insert(0, SRC)
    for knob in REPRO_KNOBS:
        os.environ.pop(knob, None)

    if args.record_expected:
        import sim_bench

        sim_bench.record_expected()
        return 0
    if args.workload.startswith("sim-"):
        import sim_bench

        ledger, metrics = sim_bench.main(
            args.workload, args.seed, args.seconds, trace
        )
    else:
        import serve_bench

        ledger, metrics = serve_bench.main(args.seed, args.seconds, trace)
    return emit(ledger, complete(metrics, wanted, trace))


if __name__ == "__main__":
    sys.exit(main())
