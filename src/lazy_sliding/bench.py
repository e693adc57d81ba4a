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
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .errors import BudgetExceeded, ConfigError, NumericalError
from .objectives import LeastSquares, estimate_L, estimate_sigma2
from .regions import region_from_spec, svec
from .schedules import _FIXED_N_TAGS, ProblemConstants, ScheduleVariant, schedule_eval
from .solvers import SolverConfig, run_solver
from .trace import RunTrace, read_trace_csv

DETERMINISTIC_ENV = "LAZY_SLIDING_DETERMINISTIC"
THRESHOLDS = tuple(10.0 ** (-e) for e in range(1, 7))


# ---------------------------------------------------------------------------
# polytope generators that expand to concrete region specs


def hamiltonian_cycle_vertices(nodes):
    """Indicator vectors (over undirected edges of K_nodes) of all Hamiltonian cycles."""
    if nodes < 3:
        raise ValueError("hamiltonian cycles need at least 3 nodes")
    pairs = [(i, j) for i in range(nodes) for j in range(i + 1, nodes)]
    index = {p: k for k, p in enumerate(pairs)}
    verts = []
    rest = list(range(1, nodes))
    for perm in itertools.permutations(rest):
        if perm[0] > perm[-1]:
            continue  # each undirected cycle once
        tour = (0,) + perm
        v = np.zeros(len(pairs))
        for a, b in zip(tour, tour[1:] + (0,)):
            v[index[(min(a, b), max(a, b))]] = 1.0
        verts.append(v)
    return np.array(verts)


def cut_polytope_vertices(nodes):
    """Cut vectors (over undirected edges of K_nodes) of all vertex bipartitions."""
    if nodes < 2:
        raise ValueError("cut polytope needs at least 2 nodes")
    if 2 ** (nodes - 1) > 5000:
        raise ValueError("cut polytope enumeration capped at 5000 vertices")
    pairs = [(i, j) for i in range(nodes) for j in range(i + 1, nodes)]
    verts = []
    for mask in range(2 ** (nodes - 1)):
        side = [0] + [(mask >> b) & 1 for b in range(nodes - 1)]
        v = np.array([1.0 if side[i] != side[j] else 0.0 for i, j in pairs])
        verts.append(v)
    return np.array(verts)


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
    seed = int(spec.get("seed", 0))
    rng = np.random.default_rng(seed)
    region_spec = expand_region_spec(spec["region"])
    region = region_from_spec(region_spec)

    ospec = spec.get("objective", {})
    if ospec.get("type", "least_squares") != "least_squares":
        raise ConfigError("only least_squares objectives are generated")
    m = int(ospec.get("m", 100))
    density = float(ospec.get("density", 1.0))
    if not (0.0 < density <= 1.0):
        raise ConfigError("density must lie in (0, 1], got %r" % (density,))
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
        return np.asarray(how, dtype=float)
    if how == "x_star":
        return np.asarray(inst["objective"]["x_star"], dtype=float)
    if how == "vertex":
        return region.lmo(np.ones(region.dim)).point  # deterministic vertex
    raise ConfigError("x0 must be a list, 'x_star' or 'vertex', got %r" % (how,))


def resolve_constants(entry, region, objective, inst, x0, sigma2_samples=2000):
    """Fill the constants a solver entry needs, estimating what is not given."""
    given = dict(entry.get("constants", {}))
    tag = (entry.get("schedule") or {}).get("tag")
    out = {}
    out["alpha"] = float(entry.get("alpha", 1.0))
    if "mu" in given:
        out["mu"] = float(given["mu"])
    needs_L = tag in ("smooth_stochastic", "smooth_stochastic_fixed_n",
                      "smooth_deterministic", "smooth_deterministic_fixed_n",
                      "strongly_convex_det_phase", "strongly_convex_stoch_phase") \
        or entry["variant"] in ("calgd_sc", "calsgd_sc")
    if needs_L:
        out["L"] = float(given["L"]) if "L" in given else estimate_L(objective)
    out["D_X"] = float(given["D_X"]) if "D_X" in given else region.diameter()
    if "D_0" in given:
        out["D_0"] = float(given["D_0"])
    elif tag in ("smooth_stochastic_fixed_n", "smooth_deterministic_fixed_n"):
        x_star = np.asarray(inst["objective"]["x_star"], dtype=float)
        out["D_0"] = min(float(np.linalg.norm(x0 - x_star)), out["D_X"])
    needs_sigma2 = tag in ("smooth_stochastic", "smooth_stochastic_fixed_n",
                           "strongly_convex_stoch_phase") or entry["variant"] == "calsgd_sc"
    if needs_sigma2:
        if "sigma2" in given:
            out["sigma2"] = float(given["sigma2"])
        else:
            rng = np.random.default_rng(int(entry.get("sigma2_seed", 0)))
            out["sigma2"] = estimate_sigma2(objective, x0, sigma2_samples, rng)
    if "delta0" in given:
        out["delta0"] = float(given["delta0"])
    elif entry["variant"] in ("calgd_sc", "calsgd_sc"):
        out["delta0"] = objective.value(x0)  # f* = 0 by construction
    for name in ("M", "A_norm", "sigma_omega", "D_YW"):
        if name in given:
            out[name] = float(given[name])
    return ProblemConstants(**out)


def _entry_schedule(entry, outer):
    sd = entry.get("schedule")
    if sd is None:
        return None
    N = sd.get("N", outer if sd["tag"] in _FIXED_N_TAGS else None)
    return ScheduleVariant(sd["tag"], N=N, s=sd.get("s"))


def _solver_config(entry, budgets, constants, x0, seed):
    """The SolverConfig of one run of a solver entry."""
    outer = int(entry.get("outer", budgets.get("outer", 100)))
    return SolverConfig(
        variant=entry.get("variant"),
        constants=constants,
        x0=x0,
        outer_limit=outer,
        schedule=_entry_schedule(entry, outer),
        seed=seed,
        time_limit=budgets.get("wall_seconds"),
        batch=entry.get("batch"),
        cache_capacity=int(entry.get("cache_capacity", 512)),
        eps=entry.get("eps"),
        ofw_rho_exp=float(entry.get("ofw_rho_exp", 2.0 / 3.0)),
        ofw_gamma_exp=float(entry.get("ofw_gamma_exp", 3.0 / 4.0)),
    )


def _prepare_entry(entry, budgets, region, objective, inst, sigma2_samples):
    """(x0, constants) shared by every run of a solver entry.

    Raises if a run of the entry would reject it, including a schedule that
    needs a constant the entry neither gives nor gets estimated.  A
    NumericalError from estimating a constant is returned in place of the
    constants, so that each run of the entry records it.
    """
    # resolve_constants ignores unknown names; building from them catches typos.
    given = ProblemConstants(**dict(entry.get("constants", {}),
                                    alpha=float(entry.get("alpha", 1.0))))
    if int(entry.get("cache_capacity", 512)) < 0:
        raise ConfigError("cache_capacity must be >= 0, got %r" % (entry["cache_capacity"],))
    x0 = _default_x0(region, entry.get("x0", "vertex"), inst)
    # Variant, schedule tag, outer, batch and eps need no estimated constant.
    schedule = _solver_config(entry, budgets, given, x0, 0).schedule
    try:
        constants = resolve_constants(entry, region, objective, inst, x0, sigma2_samples)
    except NumericalError as exc:
        return x0, exc
    if schedule is not None:
        schedule_eval(schedule, 1, constants)
    return x0, constants


def config_hash(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:12]


def _run_one(task):
    """Worker: run one (solver entry, seed) pair and write its trace files.

    A BudgetExceeded keeps the rows computed before the failing outer
    iteration and records that iteration as ``failed_outer_k``.  A
    NumericalError or ConfigError (including one raised while the entry's
    constants were estimated) marks this run ``error``; the other runs of
    the experiment still go ahead.
    """
    (entry, seed, x0, constants, region, objective, instance_name, out_dir, budgets) = task
    name = entry.get("name", entry["variant"])
    stem = "%s__s%d" % (name, seed)
    status, message = "completed", ""
    try:
        if isinstance(constants, NumericalError):
            raise constants
        trace = run_solver(_solver_config(entry, budgets, constants, x0, seed),
                           objective, region)
        status = trace.metadata.get("status", "completed")
    except BudgetExceeded as exc:
        trace = exc.trace
        trace.metadata["failed_outer_k"] = exc.outer_k
        status, message = "budget_error", str(exc)
    except (NumericalError, ConfigError) as exc:
        trace = RunTrace(metadata={"variant": entry["variant"]})
        status, message = "error", "%s: %s" % (type(exc).__name__, exc)
    trace.metadata.update({
        "solver_name": name,
        "seed": seed,
        "status": status,
        "message": message,
        "config_hash": config_hash({"entry": entry, "seed": seed}),
        "instance": instance_name,
    })
    csv_path = os.path.join(out_dir, stem + ".csv")
    trace.write_csv(csv_path)
    write_json(os.path.join(out_dir, stem + ".meta.json"), trace.metadata)
    return {"solver": name, "seed": seed, "status": status, "message": message}


def run_experiment(config: dict, base_dir=".", out_dir=None, seeds=None,
                   time_limit=None, jobs=1):
    """Run every (solver, seed) pair of an experiment config.

    Returns (summary_dict, exit_code); exit code is nonzero if any run hit a
    budget error or ended in ``error`` status.  Trace CSVs, per-run metadata,
    and summary.json land in the output directory.  The instance is loaded
    once, and each solver entry's x0 and constants are resolved once and
    checked (schedule included) before the first run; a bad entry raises
    ConfigError naming it, and a bad instance file raises, before anything
    is written.
    """
    instance = config["instance"]
    instance_path = instance if os.path.isabs(instance) else os.path.join(base_dir, instance)
    region, objective, inst = load_instance(instance_path)
    budgets = dict(config.get("budgets", {}))
    if time_limit is not None:
        budgets["wall_seconds"] = time_limit
    sigma2_samples = int(config.get("sigma2_samples", 2000))
    entries = config.get("solvers", [])
    prepared = []
    for i, entry in enumerate(entries):
        try:
            prepared.append(_prepare_entry(entry, budgets, region, objective, inst,
                                           sigma2_samples))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError("solver entry %d (%s): %s"
                              % (i, entry.get("name", entry.get("variant")), exc)) from exc
    seeds = parse_seeds(config.get("seeds", [0]) if seeds is None else seeds)
    out_dir = out_dir or config.get("out_dir") or os.path.join(base_dir, "runs")
    os.makedirs(out_dir, exist_ok=True)

    if os.environ.get(DETERMINISTIC_ENV) == "1":
        jobs = 1
    instance_name = os.path.basename(instance_path)
    tasks = [(entry, seed, x0, constants, region, objective, instance_name, out_dir, budgets)
             for entry, (x0, constants) in zip(entries, prepared) for seed in seeds]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_one, tasks))
    else:
        results = [_run_one(t) for t in tasks]

    summary = summarize(out_dir)
    summary["runs"] = results
    write_json(os.path.join(out_dir, "summary.json"), summary)
    exit_code = 1 if any(r["status"] in ("budget_error", "error") for r in results) else 0
    return summary, exit_code


def parse_seeds(seeds):
    if isinstance(seeds, str):
        if ".." in seeds:
            a, b = seeds.split("..")
            return list(range(int(a), int(b) + 1))
        return [int(seeds)]
    return [int(s) for s in seeds]


def summarize(trace_dir) -> dict:
    """Recompute the summary table by scanning the trace CSVs in a directory."""
    per_solver = {}
    failed = {"budget_error": [], "error": []}
    for fname in sorted(os.listdir(trace_dir)):
        if not fname.endswith(".csv"):
            continue
        meta_path = os.path.join(trace_dir, fname[:-4] + ".meta.json")
        meta = {}
        if os.path.exists(meta_path):
            with open(meta_path) as fh:
                meta = json.load(fh)
        name = meta.get("solver_name", fname.split("__")[0])
        if meta.get("status") in failed:
            failed[meta["status"]].append({"solver": name, "seed": meta.get("seed"),
                                           "message": meta.get("message", "")})
            continue
        rows = read_trace_csv(os.path.join(trace_dir, fname))
        per_solver.setdefault(name, []).append(rows)

    solvers = {}
    for name, runs in per_solver.items():
        table = {}
        for thr in THRESHOLDS:
            crossings = []
            for rows in runs:
                hit = next((r for r in rows if r["f_value"] <= thr), None)
                if hit is not None:
                    crossings.append(hit)
            cell = {"reached": len(crossings), "of": len(runs)}
            if crossings:
                for key in ("outer_k", "sfo_calls", "exact_lmo_calls", "wall_ms"):
                    cell[key] = float(np.median([c[key] for c in crossings]))
            table["%.0e" % thr] = cell
        solvers[name] = {"runs": len(runs), "thresholds": table}
    return {"version": __version__,
            "thresholds": ["%.0e" % t for t in THRESHOLDS],
            "solvers": solvers,
            "budget_errors": failed["budget_error"],
            "errors": failed["error"]}
