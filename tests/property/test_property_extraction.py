"""Property-based tests for bulk count extraction.

``CountExtractor.extract_batch`` counts a whole batch with one
``np.bincount``: log calls through their records' interned API codes,
mapping keys through one raw-name → column lookup.  These properties pin it
bitwise to the per-log reference built from ``ApiLog.api_counts()`` and
``ApiCatalog.index_of``, and pin the code space itself: bounded, the same
in a spawned process, carried through pickling and through the fleet's
wire mapping.
"""

import multiprocessing
import pickle
import re
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apilog.api_catalog import ApiCatalog, build_catalog, default_catalog
from repro.apilog.log_format import _API_CODES, ApiLog, LogRecord
from repro.exceptions import ShapeError
from repro.features.extraction import CountExtractor
from repro.parallel.fleet import wire_counts

# One extractor per catalog lives across examples, so a lookup that kept
# state between batches would show up here.
EXTRACTORS = {
    "default": CountExtractor(default_catalog()),
    "small": CountExtractor(build_catalog(n_features=24)),
}
_NAME_POOL = default_catalog().names
_IDENT = st.text(alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_0123456789",
                 min_size=1, max_size=12)


@st.composite
def api_names(draw):
    """A catalog name in a random mix of cases, or a made-up name."""
    if draw(st.integers(0, 3)) == 0:
        return "x_" + draw(_IDENT)
    name = draw(st.sampled_from(_NAME_POOL))
    upper = draw(st.integers(0, 2 ** len(name) - 1))
    return "".join(c.upper() if upper >> i & 1 else c for i, c in enumerate(name))


def logs():
    return st.lists(api_names(), max_size=40).map(
        lambda names: ApiLog(sample_id="s", os_version="win7",
                             records=[LogRecord(name, i) for i, name in enumerate(names)]))


@st.composite
def mappings(draw):
    """A count mapping: case-variant duplicate keys and zero counts allowed."""
    counts = {}
    for name in draw(st.lists(api_names(), max_size=20)):
        for variant in (name, name.lower()) if draw(st.booleans()) else (name,):
            counts[variant] = draw(st.one_of(
                st.just(0), st.integers(0, 5000),
                st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)))
    return counts


sources = st.one_of(logs(), mappings())
batches = st.lists(sources, max_size=12)
extractor_names = st.sampled_from(sorted(EXTRACTORS))


def reference(extractor, batch):
    """Per-source extraction: ``api_counts()`` then ``catalog.index_of``."""
    catalog = extractor.catalog
    out = np.zeros((len(batch), len(catalog)), dtype=np.float64)
    for row, source in enumerate(batch):
        counts = source.api_counts() if isinstance(source, ApiLog) else source
        for api, count in counts.items():
            if catalog.monitored(api):
                out[row, catalog.index_of(api)] += count
    return out


class TestBulkExtractionProperties:
    @given(batch=batches, which=extractor_names)
    @settings(max_examples=100, deadline=None)
    def test_batch_is_bitwise_equal_to_reference(self, batch, which):
        extractor = EXTRACTORS[which]
        got = extractor.extract_batch(batch)
        want = reference(extractor, batch)
        assert got.dtype == np.float64 and got.flags["C_CONTIGUOUS"]
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert len(extractor._columns) == extractor.n_features

    @given(source=sources, which=extractor_names)
    @settings(max_examples=100, deadline=None)
    def test_extract_is_the_one_row_batch(self, source, which):
        extractor = EXTRACTORS[which]
        single = extractor.extract(source)
        assert single.shape == (extractor.n_features,)
        assert single.tobytes() == extractor.extract_batch([source])[0].tobytes()

    @given(which=extractor_names, as_generator=st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_empty_iterable_gives_zero_row_matrix(self, which, as_generator):
        extractor = EXTRACTORS[which]
        empty = (source for source in ()) if as_generator else []
        matrix = extractor.extract_batch(empty)
        assert matrix.shape == (0, extractor.n_features)
        assert matrix.dtype == np.float64

    @given(batch=st.lists(sources, min_size=1, max_size=8), data=st.data(),
           api=api_names(), which=extractor_names)
    @settings(max_examples=60, deadline=None)
    def test_negative_count_raises_naming_the_api(self, batch, data, api, which):
        row = data.draw(st.integers(0, len(batch)))
        counts = data.draw(mappings())
        counts.pop(api, None)
        keys = list(counts)
        position = data.draw(st.integers(0, len(keys)))
        poisoned = {key: counts[key] for key in keys[:position]}
        poisoned[api] = data.draw(st.one_of(st.integers(-100, -1),
                                            st.floats(-1e6, -1e-9)))
        poisoned.update((key, counts[key]) for key in keys[position:])
        batch = batch[:row] + [poisoned] + batch[row:]
        with pytest.raises(ShapeError, match=re.escape(repr(api))):
            EXTRACTORS[which].extract_batch(batch)


# The code path: every catalog the codes must serve exactly, including one
# with a mixed-case entry (never matched) and a name outside the code space.
_MIXED_CATALOG = ApiCatalog(("WriteFile", "createfilea", "readfile", "x_custom"))
CODE_EXTRACTORS = {**EXTRACTORS, "mixed": CountExtractor(_MIXED_CATALOG)}
_CODE_NAME_POOL = sorted(set(_NAME_POOL) | set(EXTRACTORS["small"].catalog.names)
                         | set(_MIXED_CATALOG.names))


@st.composite
def code_path_names(draw):
    """A catalog name of any of the code-path catalogs in a random mix of
    cases, or a made-up name: codes, case variants and ``-1`` names mixed."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(["x_", "X_", "Zw"])) + draw(_IDENT)
    name = draw(st.sampled_from(_CODE_NAME_POOL))
    upper = draw(st.integers(0, 2 ** len(name) - 1))
    return "".join(c.upper() if upper >> i & 1 else c for i, c in enumerate(name))


def code_path_logs():
    return st.lists(code_path_names(), max_size=60).map(
        lambda names: ApiLog(sample_id="c", os_version="win10",
                             records=[LogRecord(name, i) for i, name in enumerate(names)]))


def _expected_code(name: str) -> int:
    catalog = default_catalog()
    return catalog.index_of(name) if catalog.monitored(name) else -1


code_extractor_names = st.sampled_from(sorted(CODE_EXTRACTORS))


class TestApiCodeProperties:
    @given(batch=st.lists(st.one_of(code_path_logs(), mappings()), max_size=10),
           which=code_extractor_names)
    @settings(max_examples=150, deadline=None)
    def test_coded_logs_are_bitwise_equal_to_reference(self, batch, which):
        extractor = CODE_EXTRACTORS[which]
        got = extractor.extract_batch(batch)
        want = reference(extractor, batch)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @given(name=st.one_of(code_path_names(), st.text(max_size=8)),
           address=st.integers(0, 2 ** 44), thread=st.integers(0, 99999))
    @settings(max_examples=100, deadline=None)
    def test_code_is_the_default_column_and_survives_pickling(self, name, address,
                                                              thread):
        record = LogRecord(name, address, ("a", "b"), thread)
        assert record.code == _expected_code(name)
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record
        assert clone.code == record.code
        assert type(clone) is LogRecord
        assert record._replace(api="WriteFile").code == _expected_code("WriteFile")

    @given(log=code_path_logs(), which=code_extractor_names)
    @settings(max_examples=100, deadline=None)
    def test_wire_mapping_featurises_to_the_logs_row(self, log, which):
        extractor = CODE_EXTRACTORS[which]
        wire = wire_counts(log)
        assert sum(wire.values()) == len(log)
        assert extractor.extract(wire).tobytes() == extractor.extract(log).tobytes()

    def test_code_table_does_not_grow_under_hostile_names(self):
        n = len(default_catalog())
        LogRecord("writefile", 0)           # seeds the table if nothing has yet
        seeded = len(_API_CODES)
        assert seeded == n
        hostile = [LogRecord(f"NotMonitored{i}", i) for i in range(10 * n)]
        hostile += [LogRecord(name.upper(), i) for i, name in enumerate(_NAME_POOL)]
        assert len(_API_CODES) == seeded
        assert all(record.code == -1 for record in hostile[:10 * n])
        assert [record.code for record in hostile[10 * n:]] == list(range(n))

    def test_spawned_process_derives_the_same_codes(self):
        names = list(_CODE_NAME_POOL[::7]) + ["WriteFile", "WRITEFILE", "x_nope",
                                               "NotMonitored9", "x_custom"]
        records = [LogRecord(name, i) for i, name in enumerate(names)]
        # Pickling drops the code, so the child derives it from its own table.
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            child_codes = pool.map(attrgetter("code"), records)
        assert child_codes == [record.code for record in records]
        assert child_codes == [_expected_code(name) for name in names]
