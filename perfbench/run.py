#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-logs --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
workload with the layer tracer and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
1 when an output check fails and 2 when the checkout holds no program.
"""

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

#: BLAS threads, pinned before numpy loads: one per process keeps the
#: two-worker fleet from oversubscribing a 2-CPU box and the numbers steady.
BLAS_THREADS = 1
ROOT = Path(__file__).resolve().parent.parent
#: Artifact cache, spans and records live here, inside the checkout.
BUILD_DIR = ROOT / ".bench_build" / "perfbench"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def fingerprint(workloads, seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": BLAS_THREADS,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "dtype": workloads.DTYPE,
        "scale": workloads.SCALE,
        "model_seed": workloads.MODEL_SEED,
        "workload_seed": seed,
        "start_method": workloads.START_METHOD,
        "git_commit": _git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    trace = bool(args.trace)
    cache_root = BUILD_DIR / "cache"
    workloads.prime(cache_root)
    if args.workload == workloads.SWEEP_WORKLOAD:
        outcome = workloads.run_sweep(args.seed, args.seconds, trace, cache_root)
    else:
        outcome = workloads.run_serve(workloads.SERVE_WORKLOADS[args.workload],
                                      args.seed, args.seconds, trace, cache_root)

    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    unknown = sorted(set(outcome.metrics) - set(units))
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {unknown}")
    if not trace and set(outcome.metrics) != set(units):
        raise RuntimeError("end-to-end metrics missing: "
                           f"{sorted(set(units) - set(outcome.metrics))}")
    # A layer this workload does not run did no work: it reports 0.
    values = {name: float(outcome.metrics.get(name, 0.0)) for name in units}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": int(trace), "fingerprint": fingerprint(workloads, args.seed),
              "checks": outcome.checks}
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={int(trace)}")
    for name, unit in units.items():
        samples = outcome.samples.get(name)
        print(f"  {name:36s} {values[name]:14.6g} {unit:9s}"
              + (f" ({samples})" if samples is not None else ""))
    print(f"  {'failed_frac':36s} {outcome.failed / outcome.attempted:14.6g} "
          f"{'fraction':9s} ({outcome.failed} of {outcome.attempted} attempted)")
    if trace:
        for phase, (spans, wall_s) in outcome.traced.items():
            print(tracer.render_table(phase, spans, wall_s))
        BUILD_DIR.mkdir(parents=True, exist_ok=True)
        spans_file = BUILD_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump_spans(spans_file,
                          {phase: spans for phase, (spans, _) in outcome.traced.items()},
                          started, extra=record)
        print(f"  spans written to {spans_file.relative_to(ROOT)}")
    print("record " + json.dumps(record, sort_keys=True, default=str))
    correct = bool(outcome.checks.get("ok"))
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
