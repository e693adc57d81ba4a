"""Run counters and the per-iteration trace table written by the solvers."""

from collections.abc import Mapping, Sequence
from dataclasses import asdict, dataclass, field
from typing import List

import numpy as np


@dataclass
class Counters:
    """Cumulative per-run oracle/work counters (single-threaded ownership)."""

    sfo_calls: int = 0
    fo_calls: int = 0
    exact_lmo_calls: int = 0
    weak_sep_calls: int = 0
    cache_hits: int = 0
    cache_misses: int = 0        # includes hint_answers
    hint_answers: int = 0        # answered from the held exact minimizer, no scan

    def as_dict(self):
        """The counters by name, as run metadata records them."""
        return asdict(self)


_TRACE_DTYPE = np.dtype([
    ("outer_k", "i8"), ("wall_ms", "f8"), ("f_value", "f8"), ("sfo_calls", "i8"),
    ("fo_calls", "i8"), ("exact_lmo_calls", "i8"), ("weak_sep_calls", "i8"), ("cache_hits", "i8"),
    ("inner_iters", "i8"), ("phi_final", "f8"), ("cert_gap", "f8")])

TRACE_COLUMNS = _TRACE_DTYPE.names

TRACE_HEADER = ",".join(TRACE_COLUMNS)

_INDEX = {name: i for i, name in enumerate(TRACE_COLUMNS)}


@dataclass
class RunTrace:
    """One row per outer iteration plus run-level metadata."""

    metadata: dict = field(default_factory=dict)
    rows: List[tuple] = field(default_factory=list)

    def append(self, outer_k, wall_ms, f_value, counters, phi_final, cert_gap):
        self.rows.append((
            int(outer_k), float(wall_ms), float(f_value),
            int(counters.sfo_calls), int(counters.fo_calls),
            int(counters.exact_lmo_calls), int(counters.weak_sep_calls),
            # an inner iteration is one weak separation query
            int(counters.cache_hits), int(counters.weak_sep_calls),
            float(phi_final), float(cert_gap),
        ))

    def column(self, name):
        i = TRACE_COLUMNS.index(name)
        return [r[i] for r in self.rows]

    def write_csv(self, path):
        # no field needs CSV quoting: integers, and floats as %.17g (nan, inf too)
        with open(path, "w", newline="") as fh:
            fh.write(TRACE_HEADER + "\n")
            fh.writelines(",".join(map(_fmt, r)) + "\n" for r in self.rows)


def _fmt(v):
    return str(v) if isinstance(v, int) else "%.17g" % (v,)


class TraceRow(Mapping):
    """One trace row, read-only: its values by column name as Python ints and floats."""

    __slots__ = ("_values",)

    def __init__(self, values):
        self._values = values

    def __getitem__(self, name):
        return self._values[_INDEX[name]]

    def __iter__(self):
        return iter(TRACE_COLUMNS)

    def __len__(self):
        return len(TRACE_COLUMNS)

    def __repr__(self):
        return repr(dict(self.items()))


class TraceTable(Sequence):
    """Read-only trace rows held in one `_TRACE_DTYPE` structured array.

    A row is a `TraceRow`, made when it is read, so the table keeps 88 bytes
    per row where a dict per row keeps about 700.  ``column(name)`` is the
    column as a read-only ndarray.  A table equals a list of rows (dicts or
    `TraceRow`s) with the same values.
    """

    __slots__ = ("_array",)

    def __init__(self, rows):
        """``rows``: a `_TRACE_DTYPE` array, or a sequence of `RunTrace.rows` tuples."""
        # a read-only view: an array handed in keeps its own flags
        self._array = np.asarray(rows, dtype=_TRACE_DTYPE).view()
        self._array.flags.writeable = False

    def __getitem__(self, i):
        if isinstance(i, slice):
            return TraceTable(self._array[i])
        return TraceRow(self._array[i].item())

    def __iter__(self):
        return map(TraceRow, self._array.tolist())

    def __len__(self):
        return len(self._array)

    def __eq__(self, other):
        if isinstance(other, (TraceTable, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return "TraceTable(%r)" % (list(self),)

    def __reduce__(self):
        return TraceTable, (self._array,)

    def column(self, name):
        return self._array[name]


def read_trace_csv(path):
    """The rows of a trace CSV as a `TraceTable`.

    Another header, or a row without exactly one field per column, raises
    ValueError; a header-only file (an ``error`` run) reads as no rows.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if lines[:1] != [TRACE_HEADER]:
        raise ValueError("unexpected trace header in %s" % (path,))
    if len(lines) == 1:
        return TraceTable([])  # np.loadtxt warns on a file with no data
    return TraceTable(np.loadtxt(lines[1:], delimiter=",", dtype=_TRACE_DTYPE, ndmin=1))
