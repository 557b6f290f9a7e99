"""Micro-benchmarks for the fast-compute-core hot paths.

Unlike the experiment benches (which regenerate whole tables/figures), these
measure the primitives every experiment reduces to:

* ``class_gradients`` — fused single-backward binary Jacobian vs. the
  per-class loop the seed implementation used;
* one JSMA step — Jacobian + early-stop prediction from the same forward
  pass vs. the seed-equivalent cost (per-class Jacobian + a second
  ``predict`` forward pass);
* one training epoch of the Table IV substitute;
* an :class:`ExperimentContext` build with a cold vs. warm artifact cache;
* the per-log cost of a raw API log's life: sandbox execution, Table II
  text parsing and bulk count extraction, recorded side by side so work
  moved from featurisation into building or parsing a log shows.

Measured numbers are appended to ``BENCH_hotpaths.json`` at the repository
root so the speedups are recorded evidence, not assertions alone.  The two
speedup gates (fused Jacobian, JSMA step) use ABBA blocks of CPU time and
the minimum block ratio (:func:`conftest.abba_speedup`); the recorded-only
timings are best of several repeats.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import BENCH_SEED, abba_speedup, bench_recorder, best_of

from repro.apilog.log_format import ApiLog
from repro.apilog.sandbox import Sandbox
from repro.attacks.constraints import PerturbationConstraints
from repro.attacks.jsma import JsmaAttack
from repro.config import CLASS_MALWARE, TINY_PROFILE
from repro.experiments.context import ExperimentContext
from repro.models.substitute_model import SubstituteModel
from repro.nn.engine import use_dtype
from repro.nn.optimizers import Adam
from repro.nn.training import Trainer
from repro.utils.artifact_cache import ArtifactCache

_record, _write_bench_json = bench_recorder("BENCH_hotpaths.json")


@pytest.fixture(scope="module")
def hot_network(bench_scale):
    """An (untrained) Table IV substitute network at the bench scale."""
    return SubstituteModel.for_scale(bench_scale, random_state=7).network


@pytest.fixture(scope="module")
def hot_batch(bench_scale, hot_network):
    """A malware-feature-shaped batch (values in [0, 1], mostly sparse)."""
    rng = np.random.default_rng(BENCH_SEED)
    batch = rng.random((256, hot_network.input_dim))
    batch[batch < 0.6] = 0.0
    return np.clip(batch, 0.0, 1.0)


def test_bench_class_gradients_fused(hot_network, hot_batch):
    """The fused binary Jacobian beats the per-class backward loop."""
    measured = abba_speedup(
        lambda: hot_network.class_gradients(hot_batch, fused=False),
        lambda: hot_network.class_gradients(hot_batch), number=3)
    _record("class_gradients", batch=hot_batch.shape[0], **measured)
    print(f"\nclass_gradients: fused over per-class loop "
          f"{measured['speedup']:.2f}x (median {measured['speedup_median']:.2f}x, "
          f"blocks {measured['block_speedups']})")
    # One backward instead of two; the shared forward bounds the gain below 2x.
    assert measured["speedup"] > 1.1


def test_bench_jsma_step(hot_network, hot_batch):
    """One JSMA step is >= 1.5x faster than the seed-equivalent step.

    Seed cost per iteration: per-class Jacobian (forward + two backwards)
    plus a separate early-stop ``predict`` (another forward).  Current cost:
    one forward + one fused backward, with the early-stop prediction read
    from the Jacobian pass's probabilities.
    """
    def current_step():
        jacobian, probs = hot_network.class_gradients(hot_batch, return_probs=True)
        np.argmax(probs, axis=1)

    def seed_equivalent_step():
        hot_network.class_gradients(hot_batch, fused=False)
        hot_network.predict(hot_batch)

    measured = abba_speedup(seed_equivalent_step, current_step, number=3)
    _record("jsma_step", batch=hot_batch.shape[0], **measured)
    print(f"\njsma_step: current over seed-equivalent "
          f"{measured['speedup']:.2f}x (median {measured['speedup_median']:.2f}x, "
          f"blocks {measured['block_speedups']})")
    assert measured["speedup"] >= 1.5


def test_bench_jsma_attack(benchmark, hot_network, hot_batch):
    """End-to-end JSMA run at the paper's operating point (crafting model)."""
    constraints = PerturbationConstraints(theta=0.1, gamma=0.025)
    attack = JsmaAttack(hot_network, constraints=constraints, early_stop=True)
    result = benchmark.pedantic(lambda: attack.run(hot_batch[:64]),
                                rounds=3, iterations=1)
    _record("jsma_attack_64x025", mean_perturbed=result.mean_perturbed_features)
    assert result.adversarial.shape == hot_batch[:64].shape


def test_bench_float32_engine(bench_scale, hot_batch):
    """float32 engine throughput on the same Jacobian workload (recorded)."""
    with use_dtype("float32"):
        network32 = SubstituteModel.for_scale(bench_scale, random_state=7).network
    batch32 = hot_batch.astype(np.float32)
    f32, _ = best_of(lambda: network32.class_gradients(batch32),
                     repeats=7, number=3)
    _record("class_gradients_float32", fused_s=f32, batch=hot_batch.shape[0])
    print(f"\nclass_gradients float32: {f32 * 1e3:.3f} ms")
    jac64 = SubstituteModel.for_scale(bench_scale, random_state=7) \
        .network.class_gradients(hot_batch[:8])
    jac32 = network32.class_gradients(batch32[:8])
    np.testing.assert_allclose(jac32, jac64, atol=1e-4)


def test_bench_train_epoch(benchmark, bench_scale, hot_network, hot_batch):
    """One substitute training epoch at the bench scale."""
    rng = np.random.default_rng(BENCH_SEED + 1)
    n = min(bench_scale.train_total, 1024)
    x = rng.random((n, hot_network.input_dim))
    y = rng.integers(0, 2, size=n)
    network = SubstituteModel.for_scale(bench_scale, random_state=11).network
    trainer = Trainer(network, optimizer=Adam(learning_rate=1e-3),
                      batch_size=bench_scale.batch_size, epochs=1,
                      random_state=3)
    history = benchmark.pedantic(lambda: trainer.fit(x, y), rounds=3, iterations=1)
    assert history.epochs_run == 1


def test_bench_context_warm_vs_cold(tmp_path):
    """A warm-cache context build is >= 5x faster than the cold build."""
    cache = ArtifactCache(tmp_path / "cache")

    def build(seed_context: ExperimentContext) -> None:
        _ = seed_context.corpus
        _ = seed_context.target_model
        _ = seed_context.substitute_model

    start = time.perf_counter()
    build(ExperimentContext(scale=TINY_PROFILE, seed=BENCH_SEED, cache=cache))
    cold = time.perf_counter() - start

    start = time.perf_counter()
    build(ExperimentContext(scale=TINY_PROFILE, seed=BENCH_SEED, cache=cache))
    warm = time.perf_counter() - start

    speedup = cold / warm
    _record("context_build_tiny", cold_s=cold, warm_s=warm, speedup=speedup)
    print(f"\ncontext build: cold {cold:.2f} s, warm {warm:.3f} s, "
          f"speedup {speedup:.1f}x")
    assert speedup >= 5.0


def test_bench_log_encoding(bench_context):
    """Per-log µs to execute, parse and featurise a raw API log (recorded).

    No gate: the record shows where a log's cost sits.  Extraction runs in
    16-log micro-batches, the serving path's shape; parsed logs must
    featurise to the executed logs' rows bit for bit.
    """
    n_logs, batch = 48, 16
    samples = bench_context.generator.generate_source_samples(
        n_logs, CLASS_MALWARE, source="test", rng_name="bench:log-encoding")

    def execute():
        sandbox = Sandbox(os_version="win7", random_state=BENCH_SEED,
                          record_args=False)
        return [sandbox.execute(sample).log for sample in samples]

    extractor = bench_context.pipeline.extractor
    execute_s, logs = best_of(execute, repeats=3)
    texts = [log.to_text() for log in logs]
    parse_s, parsed = best_of(
        lambda: [ApiLog.from_text(text) for text in texts], repeats=3)
    extract_s, rows = best_of(
        lambda: [extractor.extract_batch(logs[start:start + batch])
                 for start in range(0, n_logs, batch)], repeats=7)
    assert np.vstack(rows).tobytes() == extractor.extract_batch(parsed).tobytes()
    per_log = 1e6 / n_logs
    _record("log_encoding", n_logs=n_logs, batch=batch,
            calls_per_log=sum(map(len, logs)) / n_logs,
            sandbox_execute_us_per_log=execute_s * per_log,
            from_text_us_per_log=parse_s * per_log,
            extract_batch_us_per_log=extract_s * per_log)
    print(f"\nlog encoding per log: execute {execute_s * per_log:.0f} us, "
          f"from_text {parse_s * per_log:.0f} us, "
          f"extract_batch {extract_s * per_log:.1f} us")
