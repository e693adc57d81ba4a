"""Benchmark harness: instance generation, experiment runs, and summaries.

Instances are least-squares problems f(x) = ||A x - b||^2 over one of the
feasible regions, with b = A x_star for a feasible x_star so the optimum
value is exactly zero and objective thresholds are meaningful across
instances.  Everything is JSON on disk and deterministic given the seed.

In an instance file the numeric arrays (A or its CSR parts, b, x_star) are
``{"__ndarray__": dtype, "shape": [...], "base64": ...}`` objects holding the
base64 of the array's C-order little-endian bytes, so a round trip is exact
and no load builds Python float lists.  Arrays written as plain JSON lists
are still accepted.  Region specs stay plain lists.
"""

import base64
import hashlib
import itertools
import json
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from . import __version__
from .errors import BudgetExceeded, ConfigError, NumericalError
from .objectives import LeastSquares, estimate_L, estimate_sigma2
from .regions import region_from_spec, svec
from .schedules import NEEDS, ProblemConstants, ScheduleVariant, schedule_eval
from .solvers import RESTARTS, SolverConfig, run_solver
from .trace import RunTrace, TraceTable, read_trace_csv

SIGMA2_SAMPLES = 2000  # samples behind an estimated sigma^2, drawn with seed 0
THRESHOLDS = tuple(10.0 ** (-e) for e in range(1, 7))
_THRESHOLD_COLUMN = np.array(THRESHOLDS)[:, None]
_FAILED = ("budget_error", "error")  # the statuses of a failed run
_CSV_NAME = "%s__s%d.csv"  # a run's trace file, by solver name and seed


# ---------------------------------------------------------------------------
# polytope generators that expand to concrete region specs


def hamiltonian_cycle_vertices(nodes):
    """Indicator vectors (over undirected edges of K_nodes) of all Hamiltonian cycles."""
    if nodes < 3:
        raise ValueError("hamiltonian cycles need at least 3 nodes")
    index = np.zeros((nodes, nodes), dtype=np.intp)  # the coordinate of edge {a, b}
    index[np.triu_indices(nodes, 1)] = np.arange(nodes * (nodes - 1) // 2)
    index += index.T
    # tours from node 0, each undirected cycle once
    tours = np.array([(0,) + perm for perm in itertools.permutations(range(1, nodes))
                      if perm[0] < perm[-1]])
    verts = np.zeros((len(tours), nodes * (nodes - 1) // 2))
    np.put_along_axis(verts, index[tours, np.roll(tours, -1, axis=1)], 1.0, axis=1)
    return verts


def cut_polytope_vertices(nodes):
    """Cut vectors (over undirected edges of K_nodes) of all vertex bipartitions."""
    if nodes < 2:
        raise ValueError("cut polytope needs at least 2 nodes")
    if 2 ** (nodes - 1) > 5000:
        raise ValueError("cut polytope enumeration capped at 5000 vertices")
    # node 0 on side 0; node b + 1 on the side of bit b of the mask
    side = (2 * np.arange(2 ** (nodes - 1)))[:, None] >> np.arange(nodes) & 1
    i, j = np.triu_indices(nodes, 1)
    return (side[:, i] != side[:, j]).astype(float)


def layered_dag_edges(layers, width):
    """Edge list of a source -> (layers x width grid) -> sink layered DAG."""
    if layers < 1 or width < 1:
        raise ValueError("layered dag needs layers >= 1 and width >= 1")
    def node(l, i):
        return 1 + l * width + i
    source, sink = 0, 1 + layers * width
    edges = [(source, node(0, i)) for i in range(width)]
    for l in range(layers - 1):
        edges += [(node(l, i), node(l + 1, j)) for i in range(width) for j in range(width)]
    edges += [(node(layers - 1, i), sink) for i in range(width)]
    return edges


def expand_region_spec(spec):
    """Expand generator shorthands into concrete region specs."""
    kind = spec.get("kind")
    if kind == "hamiltonian_cycles":
        return {"kind": "enumerated",
                "vertices": hamiltonian_cycle_vertices(spec["nodes"]).tolist()}
    if kind == "cut_polytope":
        return {"kind": "enumerated",
                "vertices": cut_polytope_vertices(spec["nodes"]).tolist()}
    if kind == "layered_dag":
        return {"kind": "dag_path",
                "edges": [[u, v] for u, v in layered_dag_edges(spec["layers"], spec["width"])]}
    return dict(spec)


# ---------------------------------------------------------------------------
# instance generation


def _sample_x_star(region, rng, averages=10):
    if region.kind == "spectrahedron":
        return svec(np.eye(region.n) / region.n)
    pts = [region.lmo(rng.standard_normal(region.dim)).point for _ in range(averages)]
    return np.mean(pts, axis=0)


def gen_instance(spec: dict) -> dict:
    """Generate an instance dict from a generator spec (deterministic in seed)."""
    seed = _integer(spec.get("seed", 0), "seed")
    if seed < 0:
        raise ConfigError("seed must be >= 0, got %r" % (seed,))
    rng = np.random.default_rng(seed)
    try:
        region_spec = expand_region_spec(spec["region"])
        region = region_from_spec(region_spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError("bad region spec: %s %s" % (type(exc).__name__, exc)) from exc

    ospec = spec.get("objective", {})
    if ospec.get("type", "least_squares") != "least_squares":
        raise ConfigError("only least_squares objectives are generated")
    m = _integer(ospec.get("m", 100), "m")
    if m < 1:
        raise ConfigError("m must be >= 1, got %r" % (m,))
    density = ospec.get("density", 1.0)
    if (isinstance(density, bool) or not isinstance(density, numbers.Real)
            or not 0.0 < density <= 1.0):
        raise ConfigError("density must be a number in (0, 1], got %r" % (density,))
    n = region.dim
    mask = rng.random((m, n)) < density
    A = np.where(mask, rng.random((m, n)), 0.0)
    x_star = _sample_x_star(region, rng)
    b = A @ x_star

    fmt = ospec.get("format", "auto")
    if fmt == "auto":
        fmt = "csr" if density <= 0.25 and m * n > 10000 else "dense"
    if fmt == "csr":
        import scipy.sparse as sp
        Asp = sp.csr_matrix(A)
        amat = {"format": "csr", "data": Asp.data, "indices": Asp.indices,
                "indptr": Asp.indptr, "shape": [m, n]}
    else:
        amat = {"format": "dense", "data": A}

    return {
        "version": __version__,
        "region": region_spec,
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
    """`json.load` object hook: the inverse of `_encode_array`, in native byte order."""
    if _NDARRAY not in d:
        return d
    dtype = np.dtype(d[_NDARRAY])
    flat = np.frombuffer(base64.b64decode(d["base64"]), dtype=dtype)
    return flat.reshape(d["shape"]).astype(dtype.newbyteorder("="))


def write_json(path, obj):
    # json.dumps runs the C encoder; json.dump streams through the Python one.
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_encode_array)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_instance(path_or_dict):
    """(region, objective, instance_dict) from an instance file or dict."""
    if isinstance(path_or_dict, str):
        with open(path_or_dict) as fh:
            inst = json.load(fh, object_hook=_decode_array)
    else:
        inst = path_or_dict
    region = region_from_spec(inst["region"])
    ospec = inst["objective"]
    amat = ospec["A"]
    if amat["format"] == "csr":
        import scipy.sparse as sp
        A = sp.csr_matrix((amat["data"], amat["indices"], amat["indptr"]),
                          shape=tuple(amat["shape"]))
    else:
        A = np.asarray(amat["data"], dtype=float)
    obj = LeastSquares(A, np.asarray(ospec["b"], dtype=float))
    return region, obj, inst


# ---------------------------------------------------------------------------
# experiments


def _default_x0(region, how, inst):
    if isinstance(how, list):
        x0 = np.asarray(how, dtype=float)
        if x0.shape != (region.dim,):
            raise ConfigError("x0 has shape %s, the region needs (%d,)" % (x0.shape, region.dim))
        if not region.contains(x0):
            raise ConfigError("x0 lies outside the region")
        return x0
    if how == "x_star":
        return np.asarray(inst["objective"]["x_star"], dtype=float)
    if how == "vertex":
        return region.lmo(np.ones(region.dim)).point  # deterministic vertex
    raise ConfigError("x0 must be a list, 'x_star' or 'vertex', got %r" % (how,))


def resolve_constants(entry, region, objective, inst, x0):
    """The constants of a solver entry: every one it gives, plus estimates.

    The estimated ones are those of L, sigma^2, D_0 and delta0 that the
    entry's schedule reads (``NEEDS``; a restart variant reads its phase
    schedule's) and the entry does not give.  D_X defaults to the region's
    diameter.
    """
    out = {name: float(v) for name, v in entry.get("constants", {}).items()}
    out["alpha"] = float(entry.get("alpha", 1.0))
    out.setdefault("D_X", region.diameter())
    x_star = np.asarray(inst["objective"]["x_star"], dtype=float)
    estimators = {
        "L": lambda: estimate_L(objective),
        "sigma2": lambda: estimate_sigma2(objective, x0, SIGMA2_SAMPLES,
                                          np.random.default_rng(0)),
        "D_0": lambda: min(float(np.linalg.norm(x0 - x_star)), out["D_X"]),
        "delta0": lambda: objective.value(x0),  # f* = 0 by construction
    }
    for name in NEEDS.get(_schedule_tag(entry), ()):
        if name not in out and name in estimators:
            out[name] = estimators[name]()
    return ProblemConstants(**out)


def _schedule_tag(entry):
    """The tag of the schedule the entry's runs read: a restart variant's phase tag."""
    if entry.get("variant") in RESTARTS:
        return RESTARTS[entry["variant"]]
    return (entry.get("schedule") or {}).get("tag")


def _entry_schedule(entry, outer):
    sd = entry.get("schedule")
    if sd is None:
        return None
    return ScheduleVariant(sd["tag"], N=_integer(sd.get("N", outer), "schedule N"),
                           s=_optional_integer(sd.get("s"), "schedule s"))


def _prepare_entry(entry, budgets, region, objective, inst):
    """The SolverConfig (seed 0) shared by every run of a solver entry.

    Raises if a run of the entry would reject it, including a schedule that
    needs a constant the entry neither gives nor gets estimated, or would
    ignore its ``batch`` under a schedule that takes exact gradients.  A
    NumericalError from estimating a constant is returned in place of the
    config, so that each run of the entry records it.
    """
    outer = _integer(entry.get("outer", budgets.get("outer", 100)), "outer")
    # Built from the given constants first, so that a bad variant, schedule
    # tag, outer, batch, eps or constant name fails before any estimate.
    config = SolverConfig(
        variant=entry.get("variant"),
        constants=ProblemConstants(**dict(entry.get("constants", {}),
                                          alpha=float(entry.get("alpha", 1.0)))),
        x0=_default_x0(region, entry.get("x0", "vertex"), inst),
        outer_limit=outer,
        schedule=_entry_schedule(entry, outer),
        time_limit=budgets.get("wall_seconds"),
        batch=_optional_integer(entry.get("batch"), "batch"),
        cache_capacity=_integer(entry.get("cache_capacity", 512), "cache_capacity"),
        eps=entry.get("eps"),
    )
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
    """Worker: run one (solver entry, seed) pair and write its trace files.

    Returns ``(record, rows)``, the rows a `TraceTable` equal to what
    `read_trace_csv` reads back.
    A BudgetExceeded keeps the rows computed before the failing outer
    iteration and records that iteration as ``failed_outer_k``.  A
    NumericalError or ConfigError (including one raised while the entry's
    constants were estimated) marks this run ``error``; the other runs of
    the experiment still go ahead.
    """
    (entry, seed, config, region, objective, instance_name, out_dir) = task
    name = entry.get("name", entry["variant"])
    csv_path = os.path.join(out_dir, _CSV_NAME % (name, seed))
    status, message = "completed", ""
    try:
        if isinstance(config, NumericalError):
            raise config
        trace = run_solver(replace(config, seed=seed), objective, region)
        status = trace.metadata.get("status", "completed")
    except BudgetExceeded as exc:
        trace = exc.trace
        trace.metadata["failed_outer_k"] = exc.outer_k
        status, message = "budget_error", str(exc)
    except (NumericalError, ConfigError) as exc:
        trace = RunTrace(metadata={"variant": entry["variant"]})
        status, message = "error", "%s: %s" % (type(exc).__name__, exc)
    trace.metadata.update(solver_name=name, seed=seed, status=status, message=message,
                          config_hash=config_hash({"entry": entry, "seed": seed}),
                          instance=instance_name)
    trace.write_csv(csv_path)
    write_json(csv_path[:-4] + ".meta.json", trace.metadata)
    record = {"solver": name, "seed": seed, "status": status, "message": message}
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
    first run.  Bad seeds (parsed first, so they cost no estimate), a config
    without an instance path or a solvers list, an unreadable instance file,
    or a bad entry raise ConfigError before anything is written.
    """
    seeds = parse_seeds(config.get("seeds", [0]) if seeds is None else seeds)
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
    budgets = dict(config.get("budgets", {}))
    if time_limit is not None:
        budgets["wall_seconds"] = time_limit
    prepared = []
    for i, entry in enumerate(entries):
        try:
            prepared.append(_prepare_entry(entry, budgets, region, objective, inst))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError("solver entry %d (%s): %s"
                              % (i, entry.get("name", entry.get("variant")), exc)) from exc
    out_dir = out_dir or config.get("out_dir") or os.path.join(base_dir, "runs")
    os.makedirs(out_dir, exist_ok=True)

    instance_name = os.path.basename(instance_path)
    tasks = [(entry, seed, solver_config, region, objective, instance_name, out_dir)
             for entry, solver_config in zip(entries, prepared) for seed in seeds]
    if jobs > 1 and len(tasks) > 1:
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


def _integer(value, name):
    """``value`` as an int; a ConfigError unless it is a number with an integer value.

    A bool, a string or a number with a fractional part is rejected, not
    converted or truncated: an entry runs what it names or nothing.
    """
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not float(value).is_integer()):
        raise ConfigError("%s %r is not an integer" % (name, value))
    return int(value)


def _optional_integer(value, name):
    return None if value is None else _integer(value, name)


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

    ``rows`` is a `TraceTable` (None for a failed run).
    """
    per_solver = {}
    failed = {status: [] for status in _FAILED}
    for record, rows in runs:
        if record.get("status") in failed:
            failed[record["status"]].append({"solver": record["solver"], "seed": record.get("seed"),
                                             "message": record.get("message", "")})
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
