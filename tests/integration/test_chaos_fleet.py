"""Chaos integration tests: fleet and grid recovery under injected faults.

Every plan here is deterministic (site + 1-based hit index + ``where``
filter), so the recovery counters in the resulting
:class:`~repro.reliability.report.ReliabilityReport` are asserted exactly —
and the surviving verdicts must match a fault-free baseline, the
dependability contract the paper-reproduction pipeline relies on.
"""

import pytest

from repro.exceptions import ParallelError
from repro.obs import Instrumentation
from repro.parallel import GridExecutor, WorkerFleet
from repro.reliability import FaultPlan, FaultSpec, InjectedFault, RetryPolicy
from repro.reliability.report import COUNTERS, FAULT_PREFIX
from repro.scenarios import ScenarioSpec
from repro.serving import ModelRegistry, ScoringService


@pytest.fixture(scope="module")
def tiny_servable(tiny_context):
    return ModelRegistry().get("target", context=tiny_context)


@pytest.fixture(scope="module")
def malware_rows(tiny_context):
    return tiny_context.attack_malware.features[:32]


@pytest.fixture(scope="module")
def baseline_verdicts(tiny_servable, malware_rows):
    return ScoringService(tiny_servable).score_many(list(malware_rows))


def _retry_policy() -> RetryPolicy:
    return RetryPolicy(max_retries=2, base_delay_s=0.01, seed=7)


def _crash_and_flush_error_plan() -> FaultPlan:
    return FaultPlan(specs=(
        FaultSpec(site="fleet.dispatch", action="crash", at=3,
                  where={"worker": 1}),
        FaultSpec(site="service.flush", action="error", at=1,
                  where={"worker": 0}),
    ))


def _assert_each_answered_once(verdicts, n_submitted: int) -> None:
    """Nothing lost, nothing duplicated: the submitted ids, in order."""
    assert [verdict.request_id for verdict in verdicts] == \
           [f"req-{seq + 1:06d}" for seq in range(n_submitted)]


def _reliability_counters(counters) -> dict:
    """A report's ``as_dict()`` rebuilt from raw counters by hand."""
    payload = {name: counters.get(counter, 0)
               for name, counter in COUNTERS.items()}
    payload["faults"] = {name[len(FAULT_PREFIX):]: value
                         for name, value in counters.items()
                         if name.startswith(FAULT_PREFIX)}
    return payload


class TestChaosFleet:
    def test_crash_and_flush_error_full_recovery(self, tiny_context,
                                                 malware_rows,
                                                 baseline_verdicts):
        fleet = WorkerFleet(n_workers=2, context=tiny_context,
                            max_batch_size=8, restart_budget=2,
                            fault_plan=_crash_and_flush_error_plan(),
                            retry_policy=_retry_policy())
        verdicts, report = fleet.score_stream(list(malware_rows))

        # Zero lost, zero duplicated, and every surviving verdict identical
        # to the fault-free single-service baseline.
        assert len(verdicts) == len(baseline_verdicts)
        for ours, theirs in zip(verdicts, baseline_verdicts):
            assert ours.status == "ok"
            assert ours.malware_probability == theirs.malware_probability
            assert ours.label == theirs.label
            assert ours.model_version == theirs.model_version
        _assert_each_answered_once(verdicts, len(malware_rows))
        reliability = report.reliability
        assert reliability.duplicates == 0
        assert reliability.restarts == 1          # worker 1 was replaced
        assert reliability.redispatches >= 1      # its in-flight work re-ran
        assert reliability.flush_retries == 1     # worker 0's injected error
        assert reliability.faults == {"fleet.dispatch": 1, "service.flush": 1}
        assert "restarts=1" in report.render()

    def test_crash_mid_chunk_redispatches_the_chunk_once(self, tiny_context,
                                                          malware_rows,
                                                          baseline_verdicts):
        from repro.parallel.fleet import chunk_size

        # Worker 1 dies on the second request of the first chunk it pulls:
        # its claim listed the whole chunk, so the rest of the chunk (and
        # the one request already in its batcher) must re-run exactly once.
        plan = FaultPlan(specs=(
            FaultSpec(site="fleet.dispatch", action="crash", at=2,
                      where={"worker": 1}),
        ))
        rows = list(malware_rows)
        fleet = WorkerFleet(n_workers=2, context=tiny_context,
                            max_batch_size=8, restart_budget=1,
                            fault_plan=plan)
        verdicts, report = fleet.score_stream(rows)
        assert [verdict.request_id for verdict in verdicts] == \
               [f"req-{seq + 1:06d}" for seq in range(len(rows))]
        assert [verdict.malware_probability for verdict in verdicts] == \
               [verdict.malware_probability for verdict in baseline_verdicts]
        _assert_each_answered_once(verdicts, len(rows))
        reliability = report.reliability
        assert reliability.duplicates == 0
        assert reliability.restarts == 1
        assert 1 <= reliability.redispatches <= chunk_size(len(rows), 8, 2)
        assert reliability.faults == {"fleet.dispatch": 1}

    def test_malformed_payload_isolated_as_error_verdict(self, tiny_context,
                                                         malware_rows,
                                                         baseline_verdicts):
        plan = FaultPlan(specs=(
            FaultSpec(site="fleet.dispatch", action="malformed", at=2,
                      where={"worker": 0}),
        ))
        fleet = WorkerFleet(n_workers=2, context=tiny_context,
                            max_batch_size=8, fault_plan=plan)
        verdicts, report = fleet.score_stream(list(malware_rows))
        assert len(verdicts) == len(baseline_verdicts)
        errored = [verdict for verdict in verdicts if not verdict.is_scored]
        assert len(errored) == 1                  # exactly the corrupted one
        assert errored[0].status == "error"
        baseline_by_id = {verdict.request_id: verdict
                          for verdict in baseline_verdicts}
        for verdict in verdicts:
            if verdict.is_scored:
                baseline = baseline_by_id[verdict.request_id]
                assert verdict.malware_probability == \
                       baseline.malware_probability
                assert verdict.label == baseline.label
        _assert_each_answered_once(verdicts, len(malware_rows))
        reliability = report.reliability
        assert reliability.isolated == 1
        assert reliability.duplicates == 0
        assert reliability.faults == {"fleet.dispatch": 1}

    def test_latency_spike_changes_nothing_but_timing(self, tiny_context,
                                                      malware_rows,
                                                      baseline_verdicts):
        plan = FaultPlan(specs=(
            FaultSpec(site="service.flush", action="delay", at=1,
                      delay_ms=50.0, where={"worker": 0}),
        ))
        fleet = WorkerFleet(n_workers=2, context=tiny_context,
                            max_batch_size=8, fault_plan=plan)
        verdicts, report = fleet.score_stream(list(malware_rows))
        assert [v.malware_probability for v in verdicts] == \
               [v.malware_probability for v in baseline_verdicts]
        assert report.reliability.total_events() == 0
        assert report.reliability.faults == {"service.flush": 1}

    def test_exhausted_restart_budget_raises(self, tiny_context, malware_rows):
        # Every replica (original and replacements) crashes on its first
        # dispatch; once the budget is spent the stream must fail loudly.
        plan = FaultPlan(specs=(
            FaultSpec(site="fleet.dispatch", action="crash", at=1),))
        fleet = WorkerFleet(n_workers=1, context=tiny_context,
                            restart_budget=1, fault_plan=plan)
        with pytest.raises(ParallelError, match="restart budget"):
            fleet.score_stream(list(malware_rows[:4]))
        # The failed stream tore the fleet down; a fault-free fleet works.
        clean = WorkerFleet(n_workers=1, context=tiny_context)
        verdicts, _ = clean.score_stream(list(malware_rows[:4]))
        assert len(verdicts) == 4

    def test_negative_restart_budget_rejected(self, tiny_context):
        with pytest.raises(ParallelError):
            WorkerFleet(n_workers=1, context=tiny_context, restart_budget=-1)


class TestOneLedgerFleet:
    def test_reliability_equals_the_merged_counters(self, tiny_context,
                                                   malware_rows):
        fleet = WorkerFleet(n_workers=2, context=tiny_context,
                            max_batch_size=8, restart_budget=2,
                            fault_plan=_crash_and_flush_error_plan(),
                            retry_policy=_retry_policy(),
                            instrumentation=Instrumentation())
        verdicts, report = fleet.score_stream(list(malware_rows))
        _assert_each_answered_once(verdicts, len(malware_rows))
        counters = report.obs["metrics"]["counters"]
        assert report.reliability.as_dict() == _reliability_counters(counters)
        assert report.reliability.restarts == 1
        assert report.reliability.flush_retries == 1
        assert report.reliability.faults == {"fleet.dispatch": 1,
                                             "service.flush": 1}

    def test_back_to_back_streams_report_only_their_own_events(
            self, tiny_context, malware_rows):
        fleet = WorkerFleet(n_workers=2, context=tiny_context,
                            max_batch_size=8, restart_budget=2,
                            fault_plan=_crash_and_flush_error_plan(),
                            retry_policy=_retry_policy(),
                            instrumentation=Instrumentation())
        _, first = fleet.score_stream(list(malware_rows))
        verdicts, second = fleet.score_stream(list(malware_rows))
        _assert_each_answered_once(verdicts, len(malware_rows))
        before = first.obs["metrics"]["counters"]
        after = second.obs["metrics"]["counters"]
        assert first.reliability.as_dict() == _reliability_counters(before)
        assert first.reliability.restarts == 1
        delta = {name: value - before.get(name, 0)
                 for name, value in after.items()}
        assert second.reliability.as_dict() == _reliability_counters(
            {name: value for name, value in delta.items() if value})


class TestChaosGrid:
    def _specs(self) -> list:
        return [ScenarioSpec(attack="random_addition", scale="tiny", seed=123),
                ScenarioSpec(attack="random_addition", scale="tiny", seed=123,
                             gamma=0.03)]

    def test_serial_retry_recovers_injected_cell_failure(self, tiny_context):
        specs = self._specs()
        clean = GridExecutor(n_workers=1).run(specs, context=tiny_context)
        plan = FaultPlan(specs=(FaultSpec(site="grid.cell", action="error"),))
        chaotic = GridExecutor(
            n_workers=1, retries=1,
            retry_policy=RetryPolicy(max_retries=1, base_delay_s=0.0),
            fault_plan=plan).run(specs, context=tiny_context)
        assert [r.to_json(include_timing=False) for r in chaotic.reports] == \
               [r.to_json(include_timing=False) for r in clean.reports]
        assert chaotic.reliability.cell_retries == 1
        assert chaotic.reliability.faults == {"grid.cell": 1}
        assert chaotic.to_dict()["reliability"]["cell_retries"] == 1

    def test_serial_without_retries_fails_fast(self, tiny_context):
        plan = FaultPlan(specs=(FaultSpec(site="grid.cell", action="error"),))
        executor = GridExecutor(n_workers=1, fault_plan=plan)
        with pytest.raises(InjectedFault):
            executor.run(self._specs(), context=tiny_context)

    def test_pool_retry_recovers_targeted_cell_failure(self, tiny_context):
        specs = self._specs()
        clean = GridExecutor(n_workers=1).run(specs, context=tiny_context)
        # Hit counters are per worker process, so the attempt number is the
        # only deterministic cross-process trigger: fail cell 0's first
        # attempt wherever it lands.
        plan = FaultPlan(specs=(
            FaultSpec(site="grid.cell", action="error",
                      where={"cell": 0, "attempt": 0}),))
        chaotic = GridExecutor(
            n_workers=2, retries=1,
            retry_policy=RetryPolicy(max_retries=1, base_delay_s=0.01),
            fault_plan=plan).run(specs, context=tiny_context)
        assert [r.to_json(include_timing=False) for r in chaotic.reports] == \
               [r.to_json(include_timing=False) for r in clean.reports]
        assert chaotic.reliability.cell_retries == 1

    def test_pool_reports_the_serial_runs_fault_counts(self, tiny_context):
        # Pool workers ship each attempt's fired faults home with its
        # outcome, so a pooled grid counts the same faults as a serial one.
        plan = FaultPlan(specs=(
            FaultSpec(site="grid.cell", action="error",
                      where={"cell": 1, "attempt": 0}),))
        results = [GridExecutor(
            n_workers=workers, retries=1,
            retry_policy=RetryPolicy(max_retries=1, base_delay_s=0.01),
            fault_plan=plan).run(self._specs(), context=tiny_context)
            for workers in (1, 2)]
        serial, pooled = results
        assert pooled.n_workers == 2
        assert serial.reliability.faults == {"grid.cell": 1}
        assert pooled.reliability.faults == serial.reliability.faults
        assert pooled.reliability.as_dict() == serial.reliability.as_dict()

    def test_shard_timeout_abandons_and_redispatches(self, tiny_context):
        specs = self._specs()
        clean = GridExecutor(n_workers=1).run(specs, context=tiny_context)
        plan = FaultPlan(specs=(
            FaultSpec(site="grid.cell", action="delay", delay_ms=5000.0,
                      where={"cell": 0, "attempt": 0}),))
        chaotic = GridExecutor(
            n_workers=2, retries=1, shard_timeout_s=1.0,
            retry_policy=RetryPolicy(max_retries=1, base_delay_s=0.01),
            fault_plan=plan).run(specs, context=tiny_context)
        assert [r.to_json(include_timing=False) for r in chaotic.reports] == \
               [r.to_json(include_timing=False) for r in clean.reports]
        assert chaotic.reliability.cell_timeouts == 1
        assert chaotic.reliability.cell_retries == 0  # timeout, not failure

    def test_invalid_reliability_knobs_rejected(self):
        with pytest.raises(ParallelError):
            GridExecutor(retries=-1)
        with pytest.raises(ParallelError):
            GridExecutor(shard_timeout_s=0.0)
