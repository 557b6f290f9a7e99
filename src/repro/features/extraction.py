"""Raw API-call-count extraction from logs."""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Iterable, List, Mapping, Tuple, Union

import numpy as np

from repro.apilog.api_catalog import ApiCatalog, default_catalog
from repro.apilog.log_format import ApiLog
from repro.exceptions import ShapeError

CountSource = Union[ApiLog, Mapping[str, int]]

_api_of = attrgetter("api")


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

    Extraction is bulk: :meth:`extract_batch` maps every API call of every
    log through one raw-name → column lookup and counts the whole batch with
    one ``np.bincount`` (mappings contribute their counts as weights).  The
    lookup is seeded with the catalog's lower-case names; an unmonitored
    name maps to a sink column ``n_features`` that is dropped from the
    result.  Any other spelling is resolved case-insensitively on every call
    and never stored, so hostile logs cannot grow the lookup.

    Parameters
    ----------
    catalog:
        The monitored-API catalog; defaults to the canonical 491-API catalog.
    """

    def __init__(self, catalog: ApiCatalog | None = None) -> None:
        self.catalog = catalog if catalog is not None else default_catalog()
        self._columns = _ColumnLookup(self.catalog)

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
        columns: List[Iterable[int]] = []
        lengths: List[int] = []
        weighted: List[Tuple[int, np.ndarray]] = []
        n_ids = 0
        for source in sources:
            if isinstance(source, ApiLog):
                names = map(_api_of, source.records)
                length = len(source.records)
            elif isinstance(source, Mapping):
                counts = np.fromiter(source.values(), dtype=np.float64, count=len(source))
                if (counts < 0).any():
                    api = list(source)[int(np.argmax(counts < 0))]
                    raise ShapeError(f"negative count for API {api!r}")
                weighted.append((n_ids, counts))
                names = iter(source)
                length = len(counts)
            else:
                raise ShapeError(
                    "expected an ApiLog or a mapping of api->count, "
                    f"got {type(source).__name__}")
            columns.append(map(column_of, names))
            lengths.append(length)
            n_ids += length
        n_rows = len(lengths)
        width = self.n_features + 1
        ids = np.fromiter(chain.from_iterable(columns), dtype=np.intp, count=n_ids)
        ids += np.repeat(np.arange(n_rows, dtype=np.intp) * width, lengths)
        weights = None
        if weighted:
            weights = np.ones(n_ids, dtype=np.float64)
            for start, counts in weighted:
                weights[start:start + len(counts)] = counts
        raw = np.bincount(ids, weights=weights, minlength=n_rows * width)
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
