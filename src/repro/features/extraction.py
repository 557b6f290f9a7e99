"""Raw API-call-count extraction from logs."""

from __future__ import annotations

from itertools import chain
from typing import Iterable, List, Mapping, Union

import numpy as np

from repro.apilog.api_catalog import ApiCatalog, default_catalog
from repro.apilog.log_format import ApiLog, api_code_names, api_codes
from repro.exceptions import ShapeError

CountSource = Union[ApiLog, Mapping[str, int]]


class _ColumnLookup(dict):
    """Raw API spelling → feature column; unmonitored names → the sink.

    Seeded with the catalog names that are already lower-case, so a
    monitored call spelled as in the catalog is a plain C-level ``dict``
    hit.  Any other spelling resolves case-insensitively against the
    catalog and is not stored, so the lookup never grows past its seed.
    """

    __slots__ = ("catalog", "sink")

    def __init__(self, catalog: ApiCatalog) -> None:
        super().__init__((name, column) for column, name in enumerate(catalog.names)
                         if name == name.lower())
        self.catalog = catalog
        self.sink = len(catalog)

    def __missing__(self, name: str) -> int:
        return self.catalog.index_of(name) if name in self.catalog else self.sink


class CountExtractor:
    """Turn an API log (or a pre-aggregated count mapping) into a count vector.

    Only APIs present in the monitored catalog contribute; every other call
    is ignored, exactly as an instrumentation-based monitor only records the
    hooked APIs.

    Extraction is bulk: :meth:`extract_batch` counts a whole micro-batch
    with one ``np.bincount``.  A log's calls enter as the interned codes
    their records carry (see :mod:`repro.apilog.log_format`), gathered
    through a code → column table; a mapping's names go through a raw-name
    → column lookup and contribute their counts as weights.  Unmonitored
    calls land in a sink column ``n_features`` that is dropped from the
    result.  A call whose name has no code (``-1``) resolves by name only
    when the catalog monitors names outside the code space; name lookups
    resolve unseeded spellings case-insensitively and never store them, so
    hostile logs cannot grow either table.

    Parameters
    ----------
    catalog:
        The monitored-API catalog; defaults to the canonical 491-API catalog.
    """

    def __init__(self, catalog: ApiCatalog | None = None) -> None:
        self.catalog = catalog if catalog is not None else default_catalog()
        self._columns = _ColumnLookup(self.catalog)
        code_names = api_code_names()
        # Code -> column; the extra last entry is what code -1 gathers.
        self._column_of_code = np.array(
            [self._columns[name] for name in code_names] + [self._columns.sink],
            dtype=np.intp)
        self._names_outside_codes = not set(self._columns) <= set(code_names)

    @property
    def n_features(self) -> int:
        """Dimensionality of the extracted vectors."""
        return len(self.catalog)

    def _counts_of(self, source: CountSource) -> Mapping[str, int]:
        if isinstance(source, ApiLog):
            return source.api_counts()
        if isinstance(source, Mapping):
            return source
        raise ShapeError(
            f"expected an ApiLog or a mapping of api->count, got {type(source).__name__}"
        )

    def extract(self, source: CountSource) -> np.ndarray:
        """Extract a single raw-count vector of shape ``(n_features,)``."""
        return self.extract_batch([source])[0]

    def extract_batch(self, sources: Iterable[CountSource]) -> np.ndarray:
        """Extract a matrix of raw counts, one row per source.

        An empty iterable yields a well-formed ``(0, n_features)`` matrix —
        the serving path sees empty micro-batches and must not raise.
        Likewise a log whose APIs are all unmonitored extracts to an all-zero
        row rather than an error (the detector simply observes nothing).
        """
        column_of = self._columns.__getitem__
        logs: List[list] = []
        log_rows: List[int] = []
        mappings: List[Mapping[str, int]] = []
        mapping_rows: List[int] = []
        weights: List[np.ndarray] = []
        n_rows = 0
        for source in sources:
            if isinstance(source, ApiLog):
                logs.append(source.records)
                log_rows.append(n_rows)
            elif isinstance(source, Mapping):
                counts = np.fromiter(source.values(), dtype=np.float64, count=len(source))
                if (counts < 0).any():
                    api = list(source)[int(np.argmax(counts < 0))]
                    raise ShapeError(f"negative count for API {api!r}")
                mappings.append(source)
                mapping_rows.append(n_rows)
                weights.append(counts)
            else:
                raise ShapeError(
                    "expected an ApiLog or a mapping of api->count, "
                    f"got {type(source).__name__}")
            n_rows += 1
        width = self.n_features + 1
        lengths = list(map(len, logs))
        codes = api_codes(chain.from_iterable(logs), sum(lengths))
        ids = self._column_of_code[codes]
        if self._names_outside_codes:
            uncoded = np.flatnonzero(codes < 0).tolist()
            if uncoded:
                calls = list(chain.from_iterable(logs))
                ids[uncoded] = [column_of(calls[i].api) for i in uncoded]
        ids += np.repeat(np.asarray(log_rows, dtype=np.intp) * width, lengths)
        weight = None
        if mappings:
            lengths = list(map(len, mappings))
            mapping_ids = np.fromiter(map(column_of, chain.from_iterable(mappings)),
                                      dtype=np.intp, count=sum(lengths))
            mapping_ids += np.repeat(np.asarray(mapping_rows, dtype=np.intp) * width,
                                     lengths)
            weight = np.concatenate([np.ones(ids.size), *weights])
            ids = np.concatenate([ids, mapping_ids])
        raw = np.bincount(ids, weights=weight, minlength=n_rows * width)
        return np.ascontiguousarray(raw.reshape(n_rows, width)[:, :-1], dtype=np.float64)

    def monitored_fraction(self, source: CountSource) -> float:
        """Fraction of the source's calls that hit monitored APIs.

        Useful as a sanity diagnostic of the synthetic profiles: it should be
        close to 1.0 because profiles are built from the catalog.
        """
        counts = self._counts_of(source)
        total = sum(counts.values())
        if total == 0:
            return 0.0
        monitored = sum(count for api, count in counts.items()
                        if self.catalog.monitored(api))
        return monitored / total
