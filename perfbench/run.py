"""Run one lipimm benchmark workload and print its metrics.

    python3 perfbench/run.py --workload circle-chain --seed 1 --seconds 30 --trace 0

Run from the root of a source tree: lipimm is imported from ``src/``.  A run
repeats whole rounds of the workload for about ``--seconds`` seconds; every
round builds its immersions afresh, so the program's caches start cold as
they do for each CLI invocation.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A traced run also writes its spans to ``perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACE_DIR = HERE / "traces"
# BLAS may use at most the cores there are, and never more than two
BLAS_THREADS = str(min(2, os.cpu_count() or 1))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_lipimm():
    """Import lipimm from this tree's ``src/``; return (module, seconds)."""
    if not (SRC / "lipimm" / "__init__.py").is_file():
        raise SystemExit(f"no lipimm sources under {SRC}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import lipimm
    seconds = time.perf_counter() - start
    if Path(lipimm.__file__).resolve().parent != SRC / "lipimm":
        raise SystemExit(f"imported lipimm from {lipimm.__file__}, not {SRC}")
    return lipimm, seconds


def run_rounds(workload, lp, seed, seconds, tracer=None):
    """Whole rounds, until the next one is expected to end after ``seconds``."""
    from workloads import OperationFailed, Round

    rounds = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if tracer is not None:
            tracer.begin_round()
        inputs = workload.build(lp, seed)
        setup = time.perf_counter() - round_start
        rnd = Round()
        try:
            workload.run(lp, inputs, rnd)
        except OperationFailed:
            pass
        rounds.append({"setup": setup, "round": rnd,
                       "layers": tracer.layer_metrics() if tracer else None,
                       "spans": tracer.span_rows() if tracer and not rounds
                       else None})
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def main(argv=None) -> int:
    args = parse_args(argv)
    lp, import_s = import_lipimm()
    # imported after lipimm, so that import_s includes numpy and scipy
    from spans import Tracer, per_layer_units
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        rounds = run_rounds(workload, lp, args.seed, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()

    results = [r["round"] for r in rounds]
    for rnd in results:
        for label, problems in rnd.wrong:
            print(f"WRONG {label}: {'; '.join(problems)}", file=sys.stderr)
        for label, error in rnd.errors:
            print(f"FAILED {label}: {error}", file=sys.stderr)
    verdict_s = statistics.median(rnd.wall for rnd in results)
    print(f"{args.workload} seed {args.seed}: verdict_s of {len(rounds)} "
          f"rounds: {' '.join(f'{rnd.wall:.3f}' for rnd in results)}",
          file=sys.stderr)
    if tracer:
        metrics = {}
        for name, unit in per_layer_units().items():
            value = statistics.median(r["layers"][name] for r in rounds)
            metrics[name] = {"value": value, "unit": unit}
        write_trace(args, rounds, import_s)
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "verdict_s": {"value": verdict_s, "unit": "s"},
            "cpu_s": {"value": statistics.median(rnd.cpu for rnd in results),
                      "unit": "s"},
            "setup_s": {"value": import_s + statistics.median(
                r["setup"] for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
        }
    print(json.dumps({
        "correct": not any(rnd.wrong for rnd in results),
        "attempted": sum(rnd.attempted for rnd in results),
        "failed": sum(rnd.failed for rnd in results),
        "metrics": metrics,
    }))
    return 0


def write_trace(args, rounds, import_s):
    """Spans of the first round, and every round's per-layer metrics."""
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
    payload = {
        "workload": args.workload, "seed": args.seed,
        "import_s": import_s,
        "traced_verdict_s": [r["round"].wall for r in rounds],
        "setup_s": [r["setup"] for r in rounds],
        "layers": [r["layers"] for r in rounds],
        "span_fields": ["name", "start", "end", "parent"],
        "spans": rounds[0]["spans"],
    }
    path.write_text(json.dumps(payload))


if __name__ == "__main__":
    sys.exit(main())
