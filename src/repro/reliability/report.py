"""A read-only view of the reliability events counted in one scope.

Every supervision or degradation event is counted exactly once, as a
counter of the :class:`~repro.obs.metrics.MetricsRegistry` inside the
:class:`~repro.obs.Instrumentation` its component holds — the caller's, or
a private one without a sink when the caller passed none.  Injected faults
that fired are folded in as ``fault.<site>`` counters by
:func:`record_faults`.  Reliability counts therefore cross the fleet's
process boundary the way every metric does: inside one
:meth:`~repro.obs.Instrumentation.snapshot`, folded by ``merge_snapshot``.

A :class:`ReliabilityReport` reads those counters.  Its scope — a service
since it was built, one fleet ``score_stream`` call, one grid ``run`` — is
the counter delta since the scope began (:meth:`ReliabilityReport.of` with
``since``).  After a run under a known
:class:`~repro.reliability.faults.FaultPlan` the counts must match the plan
exactly — that is the dependability claim the chaos benchmark asserts.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

__all__ = ["COUNTERS", "FAULT_PREFIX", "ReliabilityReport", "record_faults"]

#: Report field -> the counter that records the event, in report order.
COUNTERS: Dict[str, str] = {
    "restarts": "fleet.restarts",
    "redispatches": "fleet.redispatches",
    "flush_retries": "serve.flush_retries",
    "isolated": "serve.errors",
    "sheds": "serve.sheds",
    "fallbacks": "serve.fallbacks",
    "breaker_trips": "serve.breaker_trips",
    "cell_retries": "grid.cell_retries",
    "cell_timeouts": "grid.cell_timeouts",
    "duplicates": "fleet.duplicates",
}

#: Counter-name prefix of the per-site counts of fired injected faults.
FAULT_PREFIX = "fault."

_COUNTER_NAMES = frozenset(COUNTERS.values())


def record_faults(instrumentation, fired: Mapping[str, int]) -> None:
    """Count an injector's per-site fired faults as ``fault.<site>``."""
    for site, count in fired.items():
        instrumentation.count(FAULT_PREFIX + site, count)


def _field(name: str) -> property:
    counter = COUNTERS[name]
    return property(lambda self: self._counts.get(counter, 0))


class ReliabilityReport:
    """Counts of every fault seen and every recovery action taken.

    Attributes
    ----------
    restarts:
        Fleet replicas restarted after a detected death.
    redispatches:
        In-flight requests re-enqueued after their replica died.
    flush_retries:
        Micro-batch flushes re-attempted under a retry policy.
    isolated:
        Poison requests bisected out of a batch into ``error`` verdicts.
    sheds:
        Requests answered with ``status="shed"`` instead of being scored.
    fallbacks:
        Defended endpoints that fell back to the undefended fast path.
    breaker_trips:
        Circuit-breaker open transitions.
    cell_retries:
        Grid cells re-run after a failure.
    cell_timeouts:
        Grid cells abandoned after exceeding the per-shard timeout.
    duplicates:
        Duplicate verdicts discarded by the dispatcher (must stay 0).
    faults:
        Injected faults actually fired, per site.
    """

    __slots__ = ("_counts",)

    restarts = _field("restarts")
    redispatches = _field("redispatches")
    flush_retries = _field("flush_retries")
    isolated = _field("isolated")
    sheds = _field("sheds")
    fallbacks = _field("fallbacks")
    breaker_trips = _field("breaker_trips")
    cell_retries = _field("cell_retries")
    cell_timeouts = _field("cell_timeouts")
    duplicates = _field("duplicates")

    def __init__(self, counters: Optional[Mapping[str, float]] = None) -> None:
        """View the reliability counters among ``counters`` (name -> value).

        No argument gives the empty report.
        """
        self._counts: Dict[str, int] = {
            name: int(value) for name, value in (counters or {}).items()
            if value and (name in _COUNTER_NAMES
                          or name.startswith(FAULT_PREFIX))}

    @classmethod
    def of(cls, metrics, since: Optional["ReliabilityReport"] = None
           ) -> "ReliabilityReport":
        """The view of a :class:`~repro.obs.metrics.MetricsRegistry` now.

        With ``since`` — an earlier view of the same registry — each count
        is only what was counted after it: the scope of one run.
        """
        base = since._counts if since is not None else {}
        return cls({name: value - base.get(name, 0)
                    for name, value in metrics.counters().items()})

    @property
    def faults(self) -> Dict[str, int]:
        """Injected faults actually fired, per site."""
        return {name[len(FAULT_PREFIX):]: count
                for name, count in sorted(self._counts.items())
                if name.startswith(FAULT_PREFIX)}

    def total_events(self) -> int:
        """Every recovery/degradation event counted (faults excluded)."""
        return sum(getattr(self, name) for name in COUNTERS)

    def empty(self) -> bool:
        """True when nothing at all happened (clean, fault-free run)."""
        return not self._counts

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for CLI JSON and benchmark records."""
        payload: Dict[str, object] = {name: getattr(self, name)
                                      for name in COUNTERS}
        payload["faults"] = self.faults
        return payload

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReliabilityReport):
            return NotImplemented
        return self._counts == other._counts

    def __repr__(self) -> str:
        return f"ReliabilityReport({self.as_dict()!r})"

    def render(self) -> str:
        """Human-readable summary for CLI output."""
        lines: List[str] = ["reliability:"]
        active = [f"{name.replace('_', ' ')}={getattr(self, name)}"
                  for name in COUNTERS if getattr(self, name)]
        lines.append("  " + (", ".join(active) if active else "no events"))
        if self.faults:
            fired = ", ".join(f"{site}={count}"
                              for site, count in self.faults.items())
            lines.append(f"  faults fired: {fired}")
        return "\n".join(lines)
