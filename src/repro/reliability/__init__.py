"""Fault injection, supervision policies, and reliability accounting.

The dependability layer of the serving stack: deterministic chaos
(:mod:`~repro.reliability.faults`), retry/backoff and circuit breaking
(:mod:`~repro.reliability.retry`), and the read-only report over the
reliability counters (:mod:`~repro.reliability.report`) that the chaos
soak benchmark asserts against.
"""

from repro.reliability.faults import (
    FAULT_ACTIONS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    WorkerCrash,
    maybe_fire,
)
from repro.reliability.report import ReliabilityReport, record_faults
from repro.reliability.retry import CircuitBreaker, RetryPolicy

__all__ = [
    "FAULT_ACTIONS",
    "CircuitBreaker",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "ReliabilityReport",
    "RetryPolicy",
    "WorkerCrash",
    "maybe_fire",
    "record_faults",
]
