"""The append-only columnar store behind ``cli report``.

:class:`AnalyticsStore` persists runs as numpy structured-array *segments*:
every :meth:`~AnalyticsStore.append` writes one immutable ``.npy`` file
under ``<root>/<table>/`` and never touches an existing one.  Publication
follows the artifact-cache discipline — write to a ``.tmp-`` sibling, then
``os.replace`` — and segment names embed ``pid`` plus a random suffix, so
two fleet workers (or two concurrent CLI invocations) can record into the
same store without locks: the worst interleaving yields two complete
segments, never a torn file.

Reads are schema-evolution tolerant: :meth:`~AnalyticsStore.scan` upgrades
segments written before a column existed by filling the new column's
default (see :mod:`repro.analytics.schema`).

The query API is deliberately small — :meth:`query` (column filters),
:meth:`group_by` (single-pass aggregation) and :meth:`top_k` — and runs on
pure numpy.
"""

from __future__ import annotations

import os
import uuid
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.analytics import schema
from repro.exceptions import AnalyticsError

__all__ = ["AnalyticsStore"]

_TMP_PREFIX = ".tmp-"

#: Aggregations :meth:`AnalyticsStore.group_by` understands.
_AGGREGATIONS: Dict[str, Callable[[np.ndarray], float]] = {
    "mean": lambda values: float(values.mean()),
    "sum": lambda values: float(values.sum()),
    "min": lambda values: float(values.min()),
    "max": lambda values: float(values.max()),
    "count": lambda values: int(values.size),
}

#: A ``where`` value: exact match, an explicit set, or a predicate over the
#: whole column (vectorised, must return a boolean mask).
Condition = Union[object, Sequence[object], Callable[[np.ndarray], np.ndarray]]


class AnalyticsStore:
    """Columnar run/verdict/metric storage rooted at one directory."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def append(self, table: str,
               rows: Union[np.ndarray, Sequence[Mapping[str, object]]]) -> Optional[Path]:
        """Persist ``rows`` as one new immutable segment of ``table``.

        ``rows`` may be row dicts (missing columns take their defaults) or
        a ready structured array.  Empty input writes nothing.  Returns the
        published segment path (``None`` for empty input).
        """
        if isinstance(rows, np.ndarray):
            array = schema.upgrade(table, rows)
        else:
            array = schema.make_rows(table, list(rows))
        if len(array) == 0:
            return None
        table_dir = self.root / table
        table_dir.mkdir(parents=True, exist_ok=True)
        name = f"seg-{os.getpid()}-{uuid.uuid4().hex[:12]}.npy"
        tmp_path = table_dir / f"{_TMP_PREFIX}{name}"
        final_path = table_dir / name
        with open(tmp_path, "wb") as handle:
            np.save(handle, array, allow_pickle=False)
        os.replace(tmp_path, final_path)  # atomic publication
        return final_path

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def segments(self, table: str) -> List[Path]:
        """The published segment files of ``table`` (sorted, stable)."""
        schema.table_dtype(table)  # validate the table name
        table_dir = self.root / table
        if not table_dir.is_dir():
            return []
        return sorted(path for path in table_dir.glob("seg-*.npy")
                      if not path.name.startswith(_TMP_PREFIX))

    def scan(self, table: str) -> np.ndarray:
        """Every row of ``table`` across all segments (current schema).

        Old segments missing newer columns are upgraded in memory; an
        empty or missing table scans to a zero-row array with the current
        schema, so downstream filters never special-case emptiness.
        """
        parts = []
        for path in self.segments(table):
            try:
                array = np.load(path, allow_pickle=False)
            except (OSError, ValueError) as error:
                raise AnalyticsError(
                    f"unreadable analytics segment {path}: {error}") from error
            parts.append(schema.upgrade(table, array))
        if not parts:
            return schema.empty_table(table)
        return np.concatenate(parts)

    def query(self, table: str,
              where: Optional[Mapping[str, Condition]] = None,
              columns: Optional[Sequence[str]] = None) -> np.ndarray:
        """Filtered scan: rows matching every ``where`` condition.

        Conditions combine with AND.  A scalar matches exactly, a
        list/tuple/set matches membership, and a callable receives the
        whole column and must return a boolean mask.
        """
        array = self.scan(table)
        if where:
            mask = np.ones(len(array), dtype=bool)
            for column, condition in where.items():
                if column not in (array.dtype.names or ()):
                    raise AnalyticsError(
                        f"unknown column {column!r} for table {table!r}")
                values = array[column]
                if callable(condition):
                    mask &= np.asarray(condition(values), dtype=bool)
                elif isinstance(condition, (list, tuple, set, frozenset)):
                    mask &= np.isin(values, list(condition))
                else:
                    mask &= values == condition
            array = array[mask]
        if columns is not None:
            array = array[list(columns)]
        return array

    def group_by(self, table: str, key: Union[str, Sequence[str]],
                 value: str, agg: str = "mean",
                 where: Optional[Mapping[str, Condition]] = None) -> Dict:
        """``{key: agg(value)}`` over the (optionally filtered) table.

        ``key`` may be one column name or several (tuple keys in the
        result).  ``agg`` is one of ``mean``/``sum``/``min``/``max``/
        ``count``.
        """
        if agg not in _AGGREGATIONS:
            raise AnalyticsError(
                f"unknown aggregation {agg!r}; "
                f"known: {', '.join(sorted(_AGGREGATIONS))}")
        array = self.query(table, where=where)
        keys = [key] if isinstance(key, str) else list(key)
        result: Dict = {}
        if len(array) == 0:
            return result
        reduce = _AGGREGATIONS[agg]
        key_view = array[keys[0]] if len(keys) == 1 else array[keys]
        groups, inverse = np.unique(key_view, return_inverse=True)
        values = array[value]
        for index, group in enumerate(groups):
            label = group.item() if len(keys) == 1 else tuple(
                group[name].item() for name in keys)
            result[label] = reduce(values[inverse == index])
        return result

    def top_k(self, table: str, value: str, k: int = 5,
              where: Optional[Mapping[str, Condition]] = None,
              largest: bool = True) -> np.ndarray:
        """The ``k`` rows with the largest (or smallest) ``value``."""
        if k < 1:
            raise AnalyticsError(f"top_k needs k >= 1, got {k}")
        array = self.query(table, where=where)
        if len(array) == 0:
            return array
        order = np.argsort(array[value], kind="stable")
        if largest:
            order = order[::-1]
        return array[order[:k]]

    # ------------------------------------------------------------------ #
    # Run helpers
    # ------------------------------------------------------------------ #
    def run_ids(self) -> List[str]:
        """Distinct recorded run ids (sorted)."""
        runs = self.scan("runs")
        return sorted(set(runs["run_id"].tolist()))

    def runs(self) -> np.ndarray:
        """One row per run id, earliest ``started_at`` wins on duplicates.

        Re-recording a run id (a crashed CLI retried, two fleet workers
        double-reporting) appends a duplicate ``runs`` row; the merge rule
        here makes that harmless rather than corrupting cross-run reports.
        """
        runs = self.scan("runs")
        if len(runs) == 0:
            return runs
        order = np.argsort(runs["started_at"], kind="stable")
        runs = runs[order]
        _, first = np.unique(runs["run_id"], return_index=True)
        deduped = runs[np.sort(first)]
        return deduped[np.argsort(deduped["started_at"], kind="stable")]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AnalyticsStore(root={str(self.root)!r})"
