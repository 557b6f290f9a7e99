"""Retry with exponential backoff + deterministic jitter, and a circuit breaker.

The recovery half of :mod:`repro.reliability`: :class:`RetryPolicy` decides
*how long to wait* between attempts and :class:`CircuitBreaker` decides
*whether to attempt at all*.  Both are deterministic — jitter is drawn from
a seeded generator keyed on ``(seed, token, attempt)`` so two processes
retrying different shards never sync up, yet every run of the same plan
produces the same schedule.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Type

import numpy as np

from repro.exceptions import ReproError

__all__ = ["CircuitBreaker", "RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic, seeded jitter.

    Parameters
    ----------
    max_retries:
        Extra attempts after the first (``0`` disables retrying).
    base_delay_s:
        Delay before the first retry; attempt ``k`` waits
        ``base_delay_s * multiplier**k`` (capped at ``max_delay_s``).
    multiplier:
        Exponential growth factor.
    max_delay_s:
        Ceiling on any single delay.
    jitter:
        Fraction of the capped delay added as jitter in ``[0, jitter)``;
        drawn deterministically from ``(seed, token, attempt)``.
    seed:
        Root of the jitter stream.
    """

    max_retries: int = 2
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ReproError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ReproError("retry delays must be >= 0")
        if self.multiplier < 1.0:
            raise ReproError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ReproError(f"jitter must be in [0, 1], got {self.jitter}")

    @property
    def max_attempts(self) -> int:
        """Total attempts including the first."""
        return self.max_retries + 1

    def delay(self, attempt: int, token: int = 0) -> float:
        """Backoff before retry ``attempt`` (0-based) of work item ``token``.

        ``token`` keys the jitter stream — pass a shard index or a stable
        hash so concurrent retriers spread out instead of thundering back
        together, while the whole schedule stays reproducible.
        """
        if attempt < 0:
            raise ReproError(f"attempt must be >= 0, got {attempt}")
        base = min(self.base_delay_s * self.multiplier ** attempt,
                   self.max_delay_s)
        if self.jitter == 0.0 or base == 0.0:
            return base
        rng = np.random.default_rng((self.seed, token, attempt))
        return float(base * (1.0 + self.jitter * rng.random()))

    def run(self, fn: Callable[[], object], *,
            retry_on: Tuple[Type[BaseException], ...] = (Exception,),
            token: int = 0,
            sleep: Callable[[float], None] = time.sleep,
            on_retry: Optional[Callable[[int, BaseException], None]] = None):
        """Call ``fn`` with up to ``max_retries`` backed-off re-attempts.

        ``retry_on`` lists the exception types worth retrying — anything
        else (including ``BaseException`` crashes) propagates immediately.
        ``on_retry(attempt, error)`` fires before each re-attempt sleep.
        """
        attempt = 0
        while True:
            try:
                return fn()
            except retry_on as error:
                if attempt >= self.max_retries:
                    raise
                if on_retry is not None:
                    on_retry(attempt, error)
                sleep(self.delay(attempt, token=token))
                attempt += 1

    def to_dict(self) -> dict:
        """JSON-serialisable representation (rides in worker configs)."""
        return {"max_retries": self.max_retries,
                "base_delay_s": self.base_delay_s,
                "multiplier": self.multiplier,
                "max_delay_s": self.max_delay_s,
                "jitter": self.jitter,
                "seed": self.seed}

    @classmethod
    def from_dict(cls, payload: Optional[dict]) -> "RetryPolicy":
        """Inverse of :meth:`to_dict`; ``None`` yields the defaults."""
        return cls(**(payload or {}))


class CircuitBreaker:
    """Trip after consecutive failures; re-admit one trial after a cooldown.

    States follow the classic pattern:

    * **closed** — everything flows; failures are counted.
    * **open** — ``failure_threshold`` consecutive failures seen;
      :meth:`allow` answers ``False`` until ``reset_after_s`` elapses.
    * **half-open** — cooldown elapsed; :meth:`allow` admits trial calls.
      A success closes the breaker, a failure re-opens it (cooldown
      restarts).

    ``clock`` is injectable so tests can step time explicitly.
    """

    def __init__(self, failure_threshold: int = 3, reset_after_s: float = 1.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if failure_threshold < 1:
            raise ReproError(
                f"failure_threshold must be >= 1, got {failure_threshold}")
        if reset_after_s < 0:
            raise ReproError(f"reset_after_s must be >= 0, got {reset_after_s}")
        self.failure_threshold = failure_threshold
        self.reset_after_s = reset_after_s
        self._clock = clock
        self._failures = 0
        self._opened_at: Optional[float] = None
        self.n_trips = 0

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half-open"``."""
        if self._opened_at is None:
            return "closed"
        if self._clock() - self._opened_at >= self.reset_after_s:
            return "half-open"
        return "open"

    def allow(self) -> bool:
        """Whether the protected call may proceed right now."""
        return self.state != "open"

    def record_success(self) -> None:
        """Note a successful call: closes the breaker, clears the count."""
        self._failures = 0
        self._opened_at = None

    def record_failure(self) -> bool:
        """Note a failed call; trips the breaker at the threshold.

        Returns whether this failure opened the breaker (a new trip).
        """
        self._failures += 1
        tripped = False
        if self._failures >= self.failure_threshold:
            tripped = self._opened_at is None
            self.n_trips += tripped
            self._opened_at = self._clock()
        return tripped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CircuitBreaker(state={self.state!r}, "
                f"failures={self._failures}, trips={self.n_trips})")
