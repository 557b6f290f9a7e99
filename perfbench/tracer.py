"""Span tracing of the program's public functions, done from outside.

:class:`Tracer` replaces each function named in :data:`LAYER_POINTS` with a
wrapper that records one span per call — name, start, end, parent and the
number of rows the call handled — and :meth:`Tracer.restore` puts the
originals back.  Spans live in memory until the benchmark writes them out
at the end of the run.  Nothing in the package under ``src/`` is modified.

A span's *self time* is its duration minus the durations of its direct
children.  The benchmark process drives the program from one thread, so
children never overlap and the self times of every span in a phase add up
to the time covered by that phase's root spans; whatever the phase's wall
time has beyond that is reported as the untraced remainder.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence


def _rows_of_result(args, result) -> int:
    return int(result.shape[0])


def _rows_of_input(args, result) -> int:
    inputs = args[1]
    return int(inputs.shape[0]) if getattr(inputs, "ndim", 1) > 1 else 1


def _one(args, result) -> int:
    return 1


def _n_results(args, result) -> int:
    return len(result)


def _decide_rows(args, result) -> int:
    return int(result[1].shape[0])


def _points_rows(args, result) -> int:
    return sum(int(matrix.shape[0]) for matrix in args[1])


#: ``(module, attribute path, span name, rows counter)`` for every public
#: call the benchmark times.  Attribute paths are ``Class.method`` (a method
#: or property) or a module-level function name.
LAYER_POINTS = (
    # apilog / features: the featurisation path of a raw-log request.
    ("repro.apilog.log_format", "ApiLog.api_counts", "apilog.api_counts", _one),
    ("repro.features.extraction", "CountExtractor.extract_batch",
     "features.extract_batch", _rows_of_result),
    ("repro.features.transformation", "CountTransformer.transform",
     "features.transform", _rows_of_result),
    # serving: one micro-batch flush scores every pending request.
    ("repro.serving.batcher", "MicroBatcher.flush", "serving.flush", _n_results),
    # nn / defenses: forwards, input gradients and the squeezing decision.
    ("repro.nn.network", "NeuralNetwork.forward", "nn.forward", _rows_of_result),
    ("repro.nn.network", "NeuralNetwork.class_gradients",
     "nn.class_gradients", _rows_of_input),
    ("repro.defenses.feature_squeezing", "SqueezedDetector.decide",
     "defenses.decide", _decide_rows),
    # attacks / evaluation: the security-curve machinery.
    ("repro.attacks.jsma", "JsmaAttack.run", "attacks.jsma_run", _rows_of_input),
    ("repro.attacks.trajectory", "JsmaTrajectory.materialize",
     "attacks.materialize", _one),
    ("repro.evaluation.sweep", "score_sweep_points",
     "evaluation.score_points", _points_rows),
    # experiments / utils.artifact_cache: set-up from the primed cache.
    ("repro.experiments.context", "ExperimentContext.corpus",
     "experiments.corpus", _one),
    ("repro.experiments.context", "ExperimentContext.target_model",
     "experiments.target_model", _one),
    ("repro.experiments.context", "ExperimentContext.substitute_model",
     "experiments.substitute_model", _one),
    ("repro.experiments.context", "ExperimentContext.attack_malware",
     "experiments.attack_malware", _one),
    ("repro.experiments.context", "ExperimentContext.greybox_adversarial",
     "experiments.greybox_adversarial", _one),
    ("repro.serving.registry", "ModelRegistry.get", "serving.registry_get", _one),
    ("repro.scenarios.registry", "build_defense", "defenses.fit", _one),
    ("repro.parallel.fleet", "WorkerFleet.start", "fleet.start", _one),
    ("repro.serving.loadgen", "LoadGenerator.generate", "serving.loadgen",
     _n_results),
)


class Span:
    """One timed call: ``parent`` is the index of the enclosing span or -1."""

    __slots__ = ("name", "start", "end", "parent", "rows")

    def __init__(self, name: str, start: float, parent: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rows = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped calls; single-threaded by design."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._saved: List[tuple] = []

    # -- recording -------------------------------------------------------
    def open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(),
                    self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def take(self) -> List[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans, self.spans = self.spans, []
        return spans

    # -- installing wrappers ----------------------------------------------
    def _wrap(self, original: Callable, name: str, rows) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            span.rows = rows(args, result)
            return result

        traced.__wrapped__ = original
        return traced

    def install(self) -> "Tracer":
        """Wrap every layer point; :meth:`restore` undoes it (also on error)."""
        try:
            for module_name, path, name, rows in LAYER_POINTS:
                owner = importlib.import_module(module_name)
                *owner_path, attribute = path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part)
                original = (owner.__dict__[attribute] if owner_path
                            else getattr(owner, attribute))
                if isinstance(original, property):
                    replacement = property(self._wrap(original.fget, name, rows))
                else:
                    replacement = self._wrap(original, name, rows)
                self._saved.append((owner, attribute, original))
                setattr(owner, attribute, replacement)
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.restore()


def span_table(*phases: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, rows, total seconds and self seconds.

    Each phase is one list from :meth:`Tracer.take`; parent indices point
    into the list they came from.
    """
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "rows": 0, "total_s": 0.0, "self_s": 0.0})
    for spans in phases:
        child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                child_time[span.parent] += span.duration
        for index, span in enumerate(spans):
            entry = table[span.name]
            entry["calls"] += 1
            entry["rows"] += span.rows
            entry["total_s"] += span.duration
            entry["self_s"] += span.duration - child_time[index]
    return dict(table)


def root_time(spans: Sequence[Span]) -> float:
    """Seconds covered by root spans (= the sum of every span's self time)."""
    return sum(span.duration for span in spans if span.parent < 0)


def durations(spans: Sequence[Span], name: str) -> List[float]:
    return [span.duration for span in spans if span.name == name]


def render_table(phase: str, spans: Sequence[Span], wall_s: float) -> str:
    """The layer table of one traced phase, untraced remainder included."""
    table = span_table(spans)
    lines = [f"-- layer table: {phase} (traced wall {wall_s * 1e3:.1f} ms)",
             f"   {'span':34s} {'calls':>8s} {'rows':>9s} {'total ms':>10s} "
             f"{'self ms':>10s} {'self %':>7s}"]
    for name, entry in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        lines.append(
            f"   {name:34s} {entry['calls']:8d} {entry['rows']:9d} "
            f"{entry['total_s'] * 1e3:10.2f} {entry['self_s'] * 1e3:10.2f} "
            f"{100.0 * entry['self_s'] / wall_s:6.1f}%")
    untraced = wall_s - root_time(spans)
    lines.append(f"   {'(untraced remainder)':34s} {'':8s} {'':9s} {'':10s} "
                 f"{untraced * 1e3:10.2f} {100.0 * untraced / wall_s:6.1f}%")
    return "\n".join(lines)


def dump_spans(path, phases: Dict[str, List[Span]], origin: float,
               extra: Optional[dict] = None) -> None:
    """Write every phase's spans as ``[name, start_ms, end_ms, parent, rows]``."""
    payload = dict(extra or {})
    payload["phases"] = {
        phase: [[span.name, round((span.start - origin) * 1e3, 4),
                 round((span.end - origin) * 1e3, 4), span.parent, span.rows]
                for span in spans]
        for phase, spans in phases.items()}
    path.write_text(json.dumps(payload), encoding="utf-8")
