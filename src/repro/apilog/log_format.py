"""API-log record format, rendering and parsing.

Table II of the paper shows an excerpt of a monitored-execution log::

    GetStartupInfoW:7FEFDD39C37 ()"61468"
    GetProcAddress:13FBC34D6 (76D30000,"FlsAlloc")"61484"

i.e. ``<ApiName>:<ReturnAddress> (<args>)"<ThreadId>"``.  This module defines
:class:`LogRecord` for one such line, :class:`ApiLog` for a whole execution
trace (with the sample / OS metadata the generator attaches), and round-trip
``format_line`` / ``parse_line`` helpers used by the feature-extraction
pipeline and by the tests that validate the substrate end to end.

Every record carries an interned integer ``code`` for its API name, derived
once when the record is built: the default catalog's column of the
lower-cased name, or ``-1`` for any other name.  The code space is fixed,
bounded and the same in every process, so featurisation counts a batch of
logs with one gather and one ``np.bincount`` over the codes
(:func:`api_codes`) instead of one string lookup per call.  The code sits on
the record rather than in per-log columns because copies of a log share
their records.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.exceptions import SandboxError

_LINE_RE = re.compile(
    r"^(?P<api>[A-Za-z_][A-Za-z0-9_]*)"      # API name
    r":(?P<address>[0-9A-Fa-f]+)"             # return address (hex)
    r"\s+\((?P<args>.*)\)"                    # argument list (possibly empty)
    r"\"(?P<thread>\d+)\"$"                   # thread identifier
)


def api_code_names() -> Tuple[str, ...]:
    """The API name of every code: code ``i`` stands for entry ``i``.

    The code space is the default catalog's columns, in order.
    """
    from repro.apilog.api_catalog import default_catalog

    return default_catalog().names


class _ApiCodes(dict):
    """Raw API spelling → interned code: default-catalog column or ``-1``.

    Seeded on first use with the code space's lower-case names, so a call
    spelled as in the catalog is a plain C-level ``dict`` hit.  Any other
    spelling resolves case-insensitively and is not stored, so hostile
    names never grow the table past its seed.
    """

    __slots__ = ()

    def __missing__(self, name: str) -> int:
        if not self:
            self.update((api, code) for code, api in enumerate(api_code_names())
                        if api == api.lower())
        return self.get(name.lower(), -1)


#: The process's one code table; its contents are a pure function of the
#: default catalog, so every process derives the same codes.
_API_CODES = _ApiCodes()
_code_of = _API_CODES.__getitem__


class _RecordFields(NamedTuple):
    api: str
    address: int
    args: Tuple[str, ...] = ()
    thread_id: int = 0
    code: int = -1


class LogRecord(_RecordFields):
    """A single monitored API call.

    Built as ``LogRecord(api, address, args=(), thread_id=0)``; ``code`` is
    derived from ``api`` (see the module docstring) and cannot be passed.
    """

    __slots__ = ()

    def __new__(cls, api: str, address: int, args: Tuple[str, ...] = (),
                thread_id: int = 0) -> "LogRecord":
        return tuple.__new__(cls, (api, address, args, thread_id, _code_of(api)))

    def __reduce__(self):
        # Rebuilt through ``__new__``, so the receiving process derives the
        # code from its own (identical) table.
        return LogRecord, self[:4]

    def _replace(self, **changes) -> "LogRecord":
        fields = dict(zip(self._fields[:4], self))
        fields.update(changes)
        return LogRecord(**fields)

    def canonical_api(self) -> str:
        """The lower-cased API name used for feature lookup."""
        return self.api.lower()


_record_code = itemgetter(_RecordFields._fields.index("code"))


def api_codes(records: Iterable[LogRecord], count: int) -> np.ndarray:
    """The codes of ``count`` records, in order, as one ``intp`` array."""
    return np.fromiter(map(_record_code, records), dtype=np.intp, count=count)


def format_line(record: LogRecord) -> str:
    """Render a :class:`LogRecord` in the Table II line format."""
    args = ",".join(record.args)
    return f"{record.api}:{record.address:X} ({args})\"{record.thread_id}\""


def parse_line(line: str) -> LogRecord:
    """Parse a Table II-format line back into a :class:`LogRecord`.

    Raises
    ------
    SandboxError
        If the line does not match the expected format.
    """
    match = _LINE_RE.match(line.strip())
    if match is None:
        raise SandboxError(f"malformed log line: {line!r}")
    args_text = match.group("args")
    args = tuple(part for part in args_text.split(",") if part) if args_text else ()
    return LogRecord(match.group("api"), int(match.group("address"), 16),
                     args, int(match.group("thread")))


@dataclass
class ApiLog:
    """A full execution trace for one sample.

    Attributes
    ----------
    sample_id:
        Identifier of the source sample that produced the log.
    os_version:
        The simulated OS the sample was executed on (``win7``, ``winxp``,
        ``win8``, ``win10``) — the paper's "mixed data".
    label:
        Ground-truth class of the sample (0 clean, 1 malware) when known.
    records:
        Ordered monitored API calls.
    """

    sample_id: str
    os_version: str
    label: Optional[int] = None
    records: List[LogRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self.records)

    def append(self, record: LogRecord) -> None:
        """Append one record to the trace."""
        self.records.append(record)

    def api_names(self) -> List[str]:
        """Lower-cased API name of every record, in call order."""
        return [record.canonical_api() for record in self.records]

    def api_counts(self) -> dict[str, int]:
        """Raw per-API call counts (the detector's raw feature values)."""
        counts: dict[str, int] = {}
        for record in self.records:
            key = record.canonical_api()
            counts[key] = counts.get(key, 0) + 1
        return counts

    def to_text(self) -> str:
        """Render the whole log in the Table II text format."""
        return "\n".join(format_line(record) for record in self.records)

    @classmethod
    def from_text(cls, text: str, sample_id: str = "unknown",
                  os_version: str = "win7", label: Optional[int] = None) -> "ApiLog":
        """Parse a Table II-format text blob into an :class:`ApiLog`."""
        records = [parse_line(line) for line in text.splitlines() if line.strip()]
        return cls(sample_id=sample_id, os_version=os_version, label=label,
                   records=records)

    def head(self, n: int = 10) -> "ApiLog":
        """A copy containing only the first ``n`` records (for excerpts)."""
        return ApiLog(sample_id=self.sample_id, os_version=self.os_version,
                      label=self.label, records=list(self.records[:n]))
