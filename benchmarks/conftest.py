"""Shared state for the benchmark harness.

Every bench regenerates one table or figure of the paper.  The experiment
context (corpus + trained models) is built once per session at the scale
selected by ``REPRO_SCALE`` (default ``small``) so that individual benches
measure the cost of *their* experiment, not of retraining the models.

The context is additionally backed by a persistent
:class:`~repro.utils.artifact_cache.ArtifactCache` (``benchmarks/.cache``
unless ``REPRO_CACHE_DIR`` points elsewhere; set ``REPRO_BENCH_NO_CACHE=1``
to disable), so warm benchmark sessions skip corpus generation and model
retraining entirely and go straight to the measured experiment.

Rendered outputs are written to ``benchmarks/results/<experiment>.txt`` so
the regenerated rows/series can be inspected after a run and compared with
the paper's values (see EXPERIMENTS.md).
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from statistics import median

import pytest

from repro.config import default_profile
from repro.experiments.context import ExperimentContext
from repro.utils.artifact_cache import ArtifactCache

RESULTS_DIR = Path(__file__).parent / "results"

#: Master seed used by the benchmark harness (EXPERIMENTS.md records results
#: from this seed at the ``small`` scale).
BENCH_SEED = 2019


@pytest.fixture(scope="session")
def bench_scale():
    """Scale profile used by the benchmark harness."""
    return default_profile()


@pytest.fixture(scope="session")
def bench_cache():
    """Persistent artifact cache shared by benchmark sessions (or None)."""
    if os.environ.get("REPRO_BENCH_NO_CACHE") == "1":
        return None
    root = os.environ.get("REPRO_CACHE_DIR", str(Path(__file__).parent / ".cache"))
    return ArtifactCache(root)


@pytest.fixture(scope="session")
def bench_context(bench_scale, bench_cache):
    """Shared experiment context (corpus and models built lazily, once)."""
    return ExperimentContext(scale=bench_scale, seed=BENCH_SEED, cache=bench_cache)


@pytest.fixture(scope="session")
def results_dir():
    """Directory where rendered tables/figures are written."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def save_rendering(results_dir: Path, name: str, rendered: str) -> None:
    """Persist a rendered experiment output for post-run inspection."""
    (results_dir / f"{name}.txt").write_text(rendered + "\n", encoding="utf-8")


def run_once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark timing.

    The experiments train models and run full attack sweeps; repeating them
    dozens of times per bench would make the harness needlessly slow, so each
    bench measures a single end-to-end execution.
    """
    return benchmark.pedantic(func, rounds=1, iterations=1)


def abba_blocks(run_plain, armed, blocks: int = 4):
    """Palindromic interleave: per block, plain brackets the armed runs.

    ``run_plain`` and every ``armed[name]`` are callables returning a tuple
    whose first item is the elapsed time of one run.  Returns
    ``(ratios, last)`` where ``ratios[name]`` holds one armed/plain
    elapsed-time ratio per block (drift-cancelling: each variant's two runs
    in a block sit symmetrically around the block's midpoint) and ``last``
    keeps each variant's most recent full result for identity checks.
    """
    names = list(armed)
    schedule = names + names[::-1]          # p a b | b a p  (p = bracket)
    ratios = {name: [] for name in names}
    last = {}
    last["plain"] = run_plain()             # warm-up: interpreter + caches
    for name in names:
        last[name] = armed[name]()
    for _ in range(blocks):
        elapsed = {name: 0.0 for name in names}
        plain_elapsed = 0.0
        result = run_plain()
        plain_elapsed += result[0]
        last["plain"] = result
        for name in schedule:
            result = armed[name]()
            elapsed[name] += result[0]
            last[name] = result
        result = run_plain()
        plain_elapsed += result[0]
        last["plain"] = result
        for name in names:
            # Two armed runs over two plain runs: the block ratio.
            ratios[name].append(elapsed[name] / plain_elapsed)
    return ratios, last


def min_overhead(ratios) -> float:
    """The least-contaminated overhead estimate: min block ratio − 1.

    Noise only ever adds time, so the smallest armed/plain ratio across
    blocks is the estimate least disturbed by it.
    """
    return min(ratios) - 1.0


def abba_speedup(baseline, candidate, blocks: int = 6, number: int = 1) -> dict:
    """Speedup of ``candidate`` over ``baseline`` from ABBA blocks of CPU time.

    Each run is the CPU time of ``number`` back-to-back calls;
    ``time.process_time`` is immune to scheduler preemption, the main noise
    on a shared machine.  Returns a record: ``speedup`` is baseline over
    candidate in the best block (the gated estimate, the speedup form of
    :func:`min_overhead`), ``speedup_median`` the median block's, and
    ``block_speedups`` every block's, in run order.
    """
    def cpu_timed(func):
        def run():
            start = time.process_time()
            for _ in range(number):
                func()
            return (time.process_time() - start,)
        return run

    ratios, _ = abba_blocks(cpu_timed(baseline),
                            {"candidate": cpu_timed(candidate)}, blocks=blocks)
    ratios = ratios["candidate"]
    return {"speedup": 1.0 / min(ratios), "speedup_median": 1.0 / median(ratios),
            "block_speedups": [round(1.0 / ratio, 4) for ratio in ratios]}
