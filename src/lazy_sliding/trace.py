"""Run counters and the per-iteration trace table written by the solvers."""

import csv
from dataclasses import asdict, dataclass, field
from typing import List


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


TRACE_COLUMNS = (
    "outer_k", "wall_ms", "f_value", "sfo_calls", "fo_calls",
    "exact_lmo_calls", "weak_sep_calls", "cache_hits", "inner_iters",
    "phi_final", "cert_gap",
)

TRACE_HEADER = ",".join(TRACE_COLUMNS)


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
        with open(path, "w", newline="") as fh:
            fh.write(TRACE_HEADER + "\n")
            w = csv.writer(fh, lineterminator="\n")
            for r in self.rows:
                w.writerow([_fmt(v) for v in r])


def _fmt(v):
    if isinstance(v, int):
        return str(v)
    return "%.17g" % (v,)


def read_trace_csv(path):
    """Read a trace CSV back into a list of dict rows (floats/ints)."""
    out = []
    with open(path, newline="") as fh:
        rd = csv.DictReader(fh)
        if rd.fieldnames != list(TRACE_COLUMNS):
            raise ValueError("unexpected trace header in %s" % (path,))
        for row in rd:
            parsed = {}
            for k, v in row.items():
                if k in ("outer_k", "sfo_calls", "fo_calls", "exact_lmo_calls",
                         "weak_sep_calls", "cache_hits", "inner_iters"):
                    parsed[k] = int(v)
                else:
                    parsed[k] = float(v)
            out.append(parsed)
    return out
