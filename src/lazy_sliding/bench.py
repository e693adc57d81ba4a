"""Benchmark harness: instance generation, experiment runs, and summaries.

Instances are least-squares problems f(x) = ||A x - b||^2 over one of the
feasible regions, with b = A x_star for a feasible x_star so the optimum
value is exactly zero and objective thresholds are meaningful across
instances.  Everything is JSON on disk and deterministic given the seed
alone: A is drawn a block of rows at a time and b = A @ x_star is formed 4
rows at a time, so no BLAS thread count moves its rounding.

An instance's region is the region's own spec (``to_spec``).  In an
instance file the numeric arrays (A or its CSR parts, b, x_star, and the
arrays a region holds: a box's bounds, an enumerated region's vertices) are
``{"__ndarray__": dtype, "shape": [...], "base64": ...}`` objects holding
the base64 of the array's C-order little-endian bytes, so a round trip is
exact and no load builds Python float lists.  Arrays written as plain JSON
lists are still accepted; a dag_path's edges stay a list of pairs.
"""

import base64
import binascii
import copy
import hashlib
import json
import numbers
import os
from dataclasses import fields, replace

import numpy as np

from . import __version__
from .errors import BudgetExceeded, ConfigError, NumericalError
from .objectives import CsrMatrix, LeastSquares, estimate_L, estimate_sigma2
from .regions import region_from_spec, svec
from .schedules import SCHEDULES, ProblemConstants, ScheduleVariant, _integer, schedule_eval
from .solvers import RESTARTS, SolverConfig, run_solver
from .trace import RunTrace, TraceTable, read_trace_csv

THRESHOLDS = tuple(10.0 ** (-e) for e in range(1, 7))
_THRESHOLD_COLUMN = np.array(THRESHOLDS)[:, None]
_FAILED = ("budget_error", "error")  # the statuses of a failed run
_CSV_NAME = "%s__s%d.csv"  # a run's trace file, by solver name and seed


# ---------------------------------------------------------------------------
# instance generation


def _sample_x_star(region, rng, averages=10):
    if region.kind == "spectrahedron":
        return svec(np.eye(region.n) / region.n)
    pts = [region.lmo(rng.standard_normal(region.dim)).point for _ in range(averages)]
    return np.mean(pts, axis=0)


def _draw(rng, region, m, density, csr):
    """(``A`` as a dense or CSR dict, ``b``, ``x_star``), drawn a block of rows at a time.

    The mask takes stream positions [0, m n) of ``rng``, the values and
    ``x_star`` copies of its bit generator advanced by m n and 2 m n: an
    entry of ``A`` is its value where its mask draw is below ``density``,
    else 0.0.  A dense ``A`` is drawn straight into its m x n array; a CSR
    ``A`` holds what ``scipy.sparse.csr_matrix`` holds: C order, no entry
    of value 0.0, int32 indices unless a count does not fit.  ``b`` is
    formed 4 rows at a time (the last group takes the left-over rows), as
    one-thread OpenBLAS forms ``A @ x_star``, so it does not depend on the
    BLAS thread count (tested at 1 and 2).
    """
    n = region.dim
    values, rest = (np.random.Generator(copy.deepcopy(rng.bit_generator).advance(k * m * n))
                    for k in (1, 2))
    x_star = _sample_x_star(region, rest)
    height = max(4, (1 << 18) // n // 4 * 4)  # rows of a block: about 2 MB of doubles
    bounds = list(range(0, max(m - 3, 1), height)) + [m]  # the last block has 4+ rows if A has
    b, counts, data, cols = np.empty(m), np.empty(m, dtype=np.intp), [], []
    draws = np.empty((min(m, height + 3), n))  # reused, so no page is faulted twice
    A = np.empty_like(draws) if csr else np.empty((m, n))  # a CSR A: a reused row block
    for lo, hi in zip(bounds, bounds[1:]):
        block = values.random(out=A[:hi - lo] if csr else A[lo:hi])
        block *= rng.random(out=draws[:hi - lo]) < density  # values >= 0: where(mask, value, 0)
        head = max(hi - lo - 4, 0) // 4 * 4  # rows in 4-row groups before the last
        b[lo:lo + head] = np.matmul(block[:head].reshape(-1, 4, n), x_star).reshape(-1)
        b[lo + head:hi] = block[head:] @ x_star
        if csr:
            stored = block != 0.0
            data.append(block[stored])
            cols.append(np.flatnonzero(stored) % n)
            counts[lo:hi] = np.count_nonzero(stored, axis=1)
    if not csr:
        return {"format": "dense", "data": A}, b, x_star
    data, cols = np.concatenate(data), np.concatenate(cols)
    itype = np.int32 if max(m, n, len(data)) <= np.iinfo(np.int32).max else np.int64
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(itype)
    return ({"format": "csr", "data": data, "indices": cols.astype(itype), "indptr": indptr,
             "shape": [m, n]}, b, x_star)


def gen_instance(spec: dict) -> dict:
    """Generate an instance dict from a generator spec (deterministic in seed)."""
    _object(spec, "generator spec", {"region", "objective", "seed"})
    seed = _integer(spec.get("seed", 0), "seed", 0)
    ospec = _object(spec.get("objective", {}), "objective", {"type", "m", "density"})
    if ospec.get("type", "least_squares") != "least_squares":
        raise ConfigError("only least_squares objectives are generated")
    m = _integer(ospec.get("m", 100), "m", 1)
    density = ospec.get("density", 1.0)
    if (isinstance(density, bool) or not isinstance(density, numbers.Real)
            or not 0.0 < density <= 1.0):
        raise ConfigError("density must be a number in (0, 1], got %r" % (density,))
    try:
        region = region_from_spec(spec["region"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError("bad region spec: %s %s" % (type(exc).__name__, exc)) from exc

    amat, b, x_star = _draw(np.random.default_rng(seed), region, m, density,
                            csr=density <= 0.25 and m * region.dim > 10000)
    return {
        "version": __version__,
        "region": region.to_spec(),
        "objective": {"type": "least_squares", "A": amat, "b": b, "x_star": x_star},
        "generator": dict(spec, seed=seed),
    }


_NDARRAY = "__ndarray__"


def _encode_array(obj):
    """`json.dumps` hook: an ndarray as dtype, shape and base64 little-endian bytes."""
    if isinstance(obj, np.ndarray) and not obj.dtype.hasobject:
        dtype = obj.dtype.newbyteorder("<")
        raw = np.ascontiguousarray(obj, dtype=dtype).tobytes()
        return {_NDARRAY: dtype.str, "shape": list(obj.shape),
                "base64": base64.b64encode(raw).decode("ascii")}
    raise TypeError("Object of type %s is not JSON serializable" % type(obj).__name__)


def _decode_array(d):
    """The inverse of `_encode_array`: a read-only array in native byte order.

    The base64 text is popped from ``d`` and decoded from the str itself
    (``a2b_base64`` takes ASCII text without the bytes copy ``b64decode``
    makes), and the array views the decoded bytes; only an array stored in
    non-native byte order is converted.
    """
    dtype = np.dtype(d[_NDARRAY])
    flat = np.frombuffer(binascii.a2b_base64(d.pop("base64")), dtype=dtype)
    array = flat.reshape(d["shape"]).astype(dtype.newbyteorder("="), copy=False)
    array.flags.writeable = False
    return array


def _decode_arrays(node):
    """``node`` with every `_encode_array` object in it decoded, containers in place."""
    if isinstance(node, dict):
        if _NDARRAY in node:
            return _decode_array(node)
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return node
    for key, value in items:
        if isinstance(value, (dict, list)):
            node[key] = _decode_arrays(value)
    return node


def write_json(path, obj):
    # json.dumps runs the C encoder; json.dump streams through the Python one.
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_encode_array)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_instance(path_or_dict):
    """(region, objective, instance_dict) from an instance file or dict.

    A file is parsed first and its arrays decoded after, so the file text is
    gone before the first array is made: the load peaks at about twice the
    file size.  Every encoded array, in a file or in a dict (which is decoded
    in place), becomes a read-only array that views its decoded bytes;
    instances are immutable.
    """
    if isinstance(path_or_dict, str):
        with open(path_or_dict) as fh:
            inst = json.load(fh)
    else:
        inst = path_or_dict
    _decode_arrays(inst)
    region = region_from_spec(inst["region"])
    ospec = inst["objective"]
    amat = ospec["A"]
    if amat["format"] == "csr":
        A = CsrMatrix(amat["data"], amat["indices"], amat["indptr"], amat["shape"])
    else:
        A = np.asarray(amat["data"], dtype=float)
    obj = LeastSquares(A, np.asarray(ospec["b"], dtype=float))
    return region, obj, inst


# ---------------------------------------------------------------------------
# experiments


def _default_x0(region, how, inst):
    if how == "vertex":
        return region.lmo(np.ones(region.dim)).point  # deterministic vertex
    if how == "x_star":  # checked as a given point: an instance's x_star may not fit
        how = inst["objective"]["x_star"]
    elif not isinstance(how, list):
        raise ConfigError("x0 must be a list, 'x_star' or 'vertex', got %r" % (how,))
    x0 = np.asarray(how, dtype=float)
    if x0.shape != (region.dim,):
        raise ConfigError("x0 has shape %s, the region needs (%d,)" % (x0.shape, region.dim))
    if not region.contains(x0):
        raise ConfigError("x0 lies outside the region")
    return x0


def resolve_constants(entry, region, objective, inst, x0):
    """The constants of a solver entry: every one it gives, plus estimates.

    The estimated ones are those of L, sigma^2, D_0 and delta0 that the
    entry's schedule reads (its ``SCHEDULES`` row's ``needs``; a restart
    variant reads its phase schedule's, mu among them, which is never
    estimated) and the entry does not give; sigma^2 is `estimate_sigma2`'s
    closed form at x0.  D_X defaults to the region's diameter.  A
    NumericalError raised while estimating a constant carries its name
    (``L``, ``sigma2``, ``D_0`` or ``delta0``) in ``constant``.
    """
    out = {name: float(v) for name, v in entry.get("constants", {}).items()}
    out.setdefault("D_X", region.diameter())
    x_star = np.asarray(inst["objective"]["x_star"], dtype=float)
    estimators = {
        "L": lambda: estimate_L(objective),
        "sigma2": lambda: estimate_sigma2(objective, x0),
        "D_0": lambda: min(float(np.linalg.norm(x0 - x_star)), out["D_X"]),
        "delta0": lambda: objective.value(x0),  # f* = 0 by construction
    }
    row = SCHEDULES.get(_schedule_tag(entry))
    for name in row.needs if row else ():
        if name not in out and name in estimators:
            try:
                out[name] = estimators[name]()
            except NumericalError as exc:
                exc.constant = name
                raise
    return ProblemConstants(**out)


def _schedule_tag(entry):
    """The tag of the schedule the entry's runs read: a restart variant's phase tag."""
    if entry.get("variant") in RESTARTS:
        return RESTARTS[entry["variant"]]
    return (entry.get("schedule") or {}).get("tag")


def _prepare_entry(entry, budgets, region, objective, inst):
    """The SolverConfig (seed 0) shared by every run of a solver entry.

    Raises if a run of the entry would reject it, including a schedule that
    needs a constant the entry neither gives nor gets estimated, or would
    ignore its ``batch`` under a schedule that takes exact gradients, or its
    ``alpha``, ``cache_capacity``, ``eps`` or ``outer`` where its variant runs
    another; the budget's ``outer`` is every entry's default, never rejected.  A
    NumericalError from estimating a constant is returned in place of the
    config, so that each run of the entry records it.
    """
    _object(entry, "entry", {"name", "variant", "constants", "alpha", "x0", "outer", "schedule",
                             "batch", "cache_capacity", "eps"})
    outer = _integer(entry.get("outer", budgets.get("outer", 100)), "outer")
    sd = entry.get("schedule")
    if sd is not None:
        _object(sd, "schedule", {"tag", "N"})
    given = _object(entry.get("constants", {}), "constants",
                    {f.name for f in fields(ProblemConstants)})
    for name, value in given.items():
        if value is None:  # JSON null: neither a value nor left out
            raise ConfigError("constant %s is null; give a number or leave it out" % (name,))
    # Built from the given constants first, so that a bad variant, schedule
    # tag, outer, batch, eps or constant name fails before any estimate.
    config = SolverConfig(
        variant=entry.get("variant"),
        constants=ProblemConstants(**given),
        x0=_default_x0(region, entry.get("x0", "vertex"), inst),
        outer_limit=outer,
        schedule=None if sd is None else ScheduleVariant(sd["tag"], N=sd.get("N", outer)),
        time_limit=budgets.get("wall_seconds"),
        batch=entry.get("batch"),
        cache_capacity=entry.get("cache_capacity", SolverConfig.cache_capacity),
        eps=entry.get("eps"),
        alpha=entry.get("alpha", SolverConfig.alpha),
    )
    settled = {"alpha": config.alpha, "cache_capacity": config.cache_capacity,
               "eps": config.eps, "outer": config.outer_limit}  # as SolverConfig settled them
    for key, value in settled.items():
        if key in entry and entry[key] != value:
            raise ConfigError("variant %r runs with %s %r, not the entry's %r"
                              % (config.variant, key, value, entry[key]))
    if config.variant == "calgd_saddle" and not hasattr(objective, "smoothed"):
        raise ConfigError("variant 'calgd_saddle' needs a saddle objective; %s has no "
                          "smoothed max-function" % type(objective).__name__)
    try:
        constants = resolve_constants(entry, region, objective, inst, config.x0)
    except NumericalError as exc:
        return exc
    config = replace(config, constants=constants)
    tag = _schedule_tag(entry)
    if tag is not None:  # a restart config has no schedule; check its first phase's
        params = schedule_eval(config.schedule or ScheduleVariant(tag, N=1, s=1), 1, constants)
        if params.batch is None and config.batch is not None:
            raise ConfigError("schedule %r takes exact gradients; it has no batch" % (tag,))
    return config


def config_hash(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:12]


def _run_one(task):
    """Worker: run one (solver entry, seed) pair under the entry's name and write its trace files.

    Returns ``(record, rows)``, the rows a `TraceTable` equal to what
    `read_trace_csv` reads back.
    A BudgetExceeded marks this run ``budget_error``; a NumericalError or
    ConfigError (including one raised while the entry's constants were
    estimated) marks it ``error``.  Either way the run keeps the rows
    computed before the failing outer iteration, its ``final_counters``,
    and that iteration as ``failed_outer_k``, and the other runs of the
    experiment still go ahead.  An error raised before the run started (a
    constant's estimate) leaves no rows and a null ``failed_outer_k``; a
    constant's estimate that failed is named in ``failed_constant`` (null
    otherwise).  The record of a failed run carries both fields too.
    """
    (entry, name, seed, config, region, objective, instance_name, out_dir) = task
    csv_path = os.path.join(out_dir, _CSV_NAME % (name, seed))
    status, message, failure = "completed", "", {}
    try:
        if isinstance(config, NumericalError):
            raise config
        trace = run_solver(replace(config, seed=seed), objective, region)
        status = trace.metadata.get("status", "completed")
    except (BudgetExceeded, NumericalError, ConfigError) as exc:
        if isinstance(exc, BudgetExceeded):
            status, message = "budget_error", str(exc)
        else:
            status, message = "error", "%s: %s" % (type(exc).__name__, exc)
        trace = getattr(exc, "trace", None)
        if trace is None:
            trace = RunTrace(metadata={"variant": entry["variant"]})
        failure = {"failed_outer_k": getattr(exc, "outer_k", None),
                   "failed_constant": getattr(exc, "constant", None)}
    trace.metadata.update(failure, solver_name=name, seed=seed, status=status, message=message,
                          config_hash=config_hash({"entry": entry, "seed": seed}),
                          instance=instance_name)
    trace.write_csv(csv_path)
    write_json(csv_path[:-4] + ".meta.json", trace.metadata)
    record = dict(failure, solver=name, seed=seed, status=status, message=message)
    return record, TraceTable(trace.rows)


def run_experiment(config: dict, base_dir=".", out_dir=None, seeds=None,
                   time_limit=None, jobs=1):
    """Run every (solver, seed) pair of an experiment config.

    Returns (summary_dict, exit_code); exit code is nonzero if any run hit a
    budget error or ended in ``error`` status.  Trace CSVs, per-run metadata,
    and summary.json land in the output directory.  The summary covers the
    runs of this experiment only, from the rows they return: no file is read
    back.  The instance is loaded once, and each solver entry's x0 and
    constants are resolved once and checked (schedule included) before the
    first run.  Bad seeds or ``jobs`` (checked first, so they cost no
    estimate), a config without an instance path or a solvers list, an
    unread key, an unreadable instance file, a bad entry, or a solver name
    (the variant's, if the entry gives none) that is not a file name or
    repeats another raise ConfigError before anything is written.
    """
    _object(config, "experiment config", {"instance", "seeds", "budgets", "solvers", "out_dir"})
    seeds = parse_seeds(config.get("seeds", [0]) if seeds is None else seeds)
    jobs = _integer(jobs, "jobs", 1)
    instance, entries = config.get("instance"), config.get("solvers", [])
    if not isinstance(instance, str) or not isinstance(entries, list):
        raise ConfigError("a config needs an instance path and a solvers list, got "
                          "instance %r and solvers of type %s" % (instance, type(entries).__name__))
    instance_path = instance if os.path.isabs(instance) else os.path.join(base_dir, instance)
    try:
        region, objective, inst = load_instance(instance_path)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError("cannot load instance %r: %s %s"
                          % (instance_path, type(exc).__name__, exc)) from exc
    budgets = dict(_object(config.get("budgets", {}), "budgets", {"outer", "wall_seconds"}))
    if time_limit is not None:
        budgets["wall_seconds"] = time_limit
    prepared, names = [], {}
    for i, entry in enumerate(entries):
        _object(entry, "solver entry %d" % i)
        try:
            prepared.append(_prepare_entry(entry, budgets, region, objective, inst))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError("solver entry %d (%s): %s"
                              % (i, entry.get("name", entry.get("variant")), exc)) from exc
        # a name is a file name prefix, checked after the variant it defaults to
        name = entry.get("name", entry["variant"])
        if (not isinstance(name, str) or name in ("", ".", "..")
                or any(sep and sep in name for sep in (os.sep, os.altsep))):
            raise ConfigError("solver entry %d: name %r cannot name a run file" % (i, name))
        if name in names:
            raise ConfigError("solver entries %d and %d both have the name %r"
                              % (names[name], i, name))
        names[name] = i
    out_dir = out_dir or config.get("out_dir") or os.path.join(base_dir, "runs")
    os.makedirs(out_dir, exist_ok=True)

    instance_name = os.path.basename(instance_path)
    tasks = [(entry, name, seed, solver_config, region, objective, instance_name, out_dir)
             for entry, name, solver_config in zip(entries, names, prepared) for seed in seeds]
    if jobs > 1 and len(tasks) > 1:
        # Deferred: multiprocessing is ~2 MB that a serial run never uses.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_one, tasks))
    else:
        results = [_run_one(t) for t in tasks]

    # in file-name order, as summarize(out_dir) reads a fresh directory
    summary = _summary(sorted(results, key=lambda r: _CSV_NAME % (r[0]["solver"], r[0]["seed"])))
    summary["runs"] = [record for record, _ in results]
    write_json(os.path.join(out_dir, "summary.json"), summary)
    return summary, 1 if summary["budget_errors"] or summary["errors"] else 0


def parse_seeds(seeds):
    """Seeds from "a..b" (inclusive), "a", or a list; ConfigError unless at least one.

    A list entry must be an integer number: a bool, a string or a number
    with a fractional part is rejected, not truncated.
    """
    try:
        if isinstance(seeds, str):
            a, sep, b = seeds.partition("..")
            parsed = list(range(int(a), int(b if sep else a) + 1))
        else:
            parsed = [_integer(s, "seed") for s in seeds]
    except (TypeError, ValueError) as exc:
        raise ConfigError("malformed seeds %r: %s" % (seeds, exc)) from exc
    if not parsed:
        raise ConfigError("seeds %r name no seed" % (seeds,))
    return parsed


def _object(value, name, keys=None):
    """``value`` if it is a JSON object (a dict) with no key outside ``keys``, when given;
    a ConfigError naming it and the keys it does not read otherwise."""
    if not isinstance(value, dict):
        raise ConfigError("%s must be a JSON object, got %r" % (name, value))
    unknown = [key for key in value if keys is not None and key not in keys]
    if unknown:
        raise ConfigError("%s has unknown key(s) %s; it takes %s"
                          % (name, ", ".join(map(repr, unknown)), ", ".join(sorted(keys))))
    return value


def summarize(trace_dir) -> dict:
    """The summary of the runs whose trace CSVs are in a directory, in file-name order.

    A run's solver is its metadata's ``solver_name`` (without a .meta.json,
    the file name up to ``__``); the CSV of a run that failed is not read.
    A trace or metadata file that cannot be read or parsed raises
    ConfigError naming it.
    """
    runs = []
    for fname in sorted(os.listdir(trace_dir)):
        if not fname.endswith(".csv"):
            continue
        path = os.path.join(trace_dir, fname)
        meta = {}
        if os.path.exists(path[:-4] + ".meta.json"):
            meta = _read_run_file(path[:-4] + ".meta.json", _read_meta)
        record = dict(meta, solver=meta.get("solver_name", fname.split("__")[0]))
        failed = meta.get("status") in _FAILED
        runs.append((record, None if failed else _read_run_file(path, read_trace_csv)))
    return _summary(runs)


def _read_meta(path):
    with open(path) as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict):
        raise ValueError("not a JSON object")
    return meta


def _read_run_file(path, read):
    """``read(path)``; a ConfigError naming the file if it cannot be read or parsed."""
    try:
        return read(path)
    except (OSError, ValueError) as exc:
        raise ConfigError("cannot read run file %r: %s %s"
                          % (path, type(exc).__name__, exc)) from exc


def _summary(runs):
    """The summary table of ``(record, rows)`` runs; failed runs are listed in their order.

    ``rows`` is a `TraceTable` (None for a failed run).  A failed run's entry
    holds its solver, seed, message, ``failed_outer_k`` and ``failed_constant``.
    """
    per_solver = {}
    failed = {status: [] for status in _FAILED}
    for record, rows in runs:
        if record.get("status") in failed:
            failed[record["status"]].append({"solver": record["solver"], "seed": record.get("seed"),
                                             "message": record.get("message", ""),
                                             "failed_outer_k": record.get("failed_outer_k"),
                                             "failed_constant": record.get("failed_constant")})
        else:
            per_solver.setdefault(record["solver"], []).append(rows)

    solvers = {}
    for name, traces in per_solver.items():
        # per run and threshold, the first row with f <= it (-1: none)
        firsts = [_first_crossings(rows.column("f_value")) for rows in traces]
        table = {}
        for j, thr in enumerate(THRESHOLDS):
            crossings = [rows[first[j]] for rows, first in zip(traces, firsts) if first[j] >= 0]
            cell = {"reached": len(crossings), "of": len(traces)}
            if crossings:
                for key in ("outer_k", "sfo_calls", "exact_lmo_calls", "wall_ms"):
                    cell[key] = float(np.median([c[key] for c in crossings]))
            table["%.0e" % thr] = cell
        solvers[name] = {"runs": len(traces), "thresholds": table}
    return {"version": __version__, "thresholds": ["%.0e" % t for t in THRESHOLDS],
            "solvers": solvers, "budget_errors": failed["budget_error"], "errors": failed["error"]}


def _first_crossings(f):
    """Per threshold, the index of the first ``f`` value at or below it, or -1."""
    if not len(f):  # a time-limited run may end before its first row
        return np.full(len(THRESHOLDS), -1)
    below = f <= _THRESHOLD_COLUMN
    return np.where(below.any(axis=1), below.argmax(axis=1), -1)
