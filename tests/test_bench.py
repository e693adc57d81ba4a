import base64
import csv
import functools
import itertools
import json
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import lazy_sliding
import lazy_sliding.bench as bench
from lazy_sliding.bench import (
    cut_polytope_vertices,
    gen_instance,
    hamiltonian_cycle_vertices,
    layered_dag_edges,
    load_instance,
    parse_seeds,
    run_experiment,
    summarize,
    write_json,
)
from lazy_sliding.cli import _print_summary, main
from lazy_sliding.errors import ConfigError, NumericalError
from lazy_sliding.lcg import lcg_solve
from lazy_sliding.trace import TRACE_COLUMNS, TRACE_HEADER, RunTrace, TraceTable, read_trace_csv

SIMPLEX_SPEC = {
    "region": {"kind": "simplex", "n": 6},
    "objective": {"type": "least_squares", "m": 40, "density": 1.0},
    "seed": 5,
}


def _write_instance(tmp_path, spec=None):
    inst = gen_instance(spec or SIMPLEX_SPEC)
    path = tmp_path / "instance.json"
    write_json(str(path), inst)
    return str(path), inst


def _experiment(tmp_path, solvers, seeds=(0,), outer=40):
    inst_path, _ = _write_instance(tmp_path)
    return {
        "instance": inst_path,
        "seeds": list(seeds),
        "budgets": {"outer": outer},
        "solvers": solvers,
    }


def test_gen_is_deterministic_and_byte_identical(tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    write_json(str(p1), gen_instance(SIMPLEX_SPEC))
    write_json(str(p2), gen_instance(dict(SIMPLEX_SPEC)))
    assert p1.read_bytes() == p2.read_bytes()
    # a different seed must produce different data
    other = gen_instance(dict(SIMPLEX_SPEC, seed=6))
    assert not np.array_equal(other["objective"]["b"], gen_instance(SIMPLEX_SPEC)["objective"]["b"])


def _f8_array(a):
    return {"__ndarray__": "<f8", "shape": list(a.shape),
            "base64": base64.b64encode(a.astype("<f8").tobytes()).decode("ascii")}


def test_write_json_bytes_are_compact_sorted_dumps(tmp_path):
    obj = dict(gen_instance(SIMPLEX_SPEC), extra={"b": [1.5, -0.0, 1e-300], "a": None})
    path = tmp_path / "out.json"
    write_json(str(path), obj)
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_f8_array) + "\n"
    assert path.read_bytes() == text.encode()


def test_import_does_not_load_scipy_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(lazy_sliding.__file__)))
    code = "import sys, lazy_sliding; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True).stdout
    assert out.strip() == "False"


def test_import_does_not_load_scipy_sparse(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(lazy_sliding.__file__)))
    code = ("import json, sys\n"
            "from lazy_sliding.bench import gen_instance, load_instance, write_json\n"
            "write_json(sys.argv[1], gen_instance(json.loads(sys.argv[2])))\n"
            "load_instance(sys.argv[1])\n"
            "print('scipy.sparse' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "i.json"),
                          json.dumps(SIMPLEX_SPEC)], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True).stdout
    assert out.strip() == "False"


CSR_SPEC = {
    "region": {"kind": "simplex", "n": 60},
    "objective": {"m": 300, "density": 0.1},
    "seed": 1,
}


def _array_fields(inst):
    amat = inst["objective"]["A"]
    keys = ("data", "indices", "indptr") if amat["format"] == "csr" else ("data",)
    fields = {k: amat[k] for k in keys}
    fields.update(b=inst["objective"]["b"], x_star=inst["objective"]["x_star"])
    return fields


def _as_lists(obj):
    """The instance as files held it before arrays were stored as binary."""
    if isinstance(obj, dict):
        return {k: _as_lists(v) for k, v in obj.items()}
    return obj.tolist() if isinstance(obj, np.ndarray) else obj


@pytest.mark.parametrize("spec", [SIMPLEX_SPEC, CSR_SPEC], ids=["dense", "csr"])
def test_instance_arrays_round_trip_exactly(tmp_path, spec):
    path, inst = _write_instance(tmp_path, spec)
    stored = json.loads(open(path).read())["objective"]
    assert stored["b"]["__ndarray__"] == "<f8"
    if stored["A"]["format"] == "csr":
        assert stored["A"]["indices"]["__ndarray__"] == "<i4"
        assert len(inst["objective"]["A"]["indptr"]) > 2  # several rows
    _, objective, loaded = load_instance(path)
    want, got = _array_fields(inst), _array_fields(loaded)
    for key in want:
        assert got[key].dtype == want[key].dtype, key
        assert np.array_equal(got[key], want[key]), key
    _, direct, _ = load_instance(inst)
    x = np.asarray(inst["objective"]["x_star"]) + 0.25
    assert objective.value(x) == direct.value(x)


@pytest.mark.parametrize("spec", [SIMPLEX_SPEC, CSR_SPEC], ids=["dense", "csr"])
def test_list_form_instance_loads_bit_identical(tmp_path, spec):
    path, inst = _write_instance(tmp_path, spec)
    old = tmp_path / "lists.json"
    old.write_text(json.dumps(_as_lists(inst), sort_keys=True, separators=(",", ":")) + "\n")
    _, binary, _ = load_instance(path)
    _, lists, _ = load_instance(str(old))
    x = np.asarray(inst["objective"]["x_star"]) + 0.25
    assert lists.value(x) == binary.value(x)
    assert np.array_equal(lists.grad(x), binary.grad(x))
    assert np.array_equal(lists.b, binary.b)


def test_load_instance_memory_bounded(tmp_path):
    import scipy.sparse  # noqa: F401  (the load is measured, not the import)
    spec = {"region": {"kind": "simplex", "n": 2500},
            "objective": {"m": 2000, "density": 0.05, "format": "csr"}, "seed": 3}
    path, _ = _write_instance(tmp_path, spec)
    tracemalloc.start()
    try:
        load_instance(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6  # the same file with list-form arrays peaks at ~23 MB


def test_generated_instance_has_zero_optimum(tmp_path):
    path, inst = _write_instance(tmp_path)
    region, objective, inst2 = load_instance(path)
    x_star = np.asarray(inst2["objective"]["x_star"])
    assert region.contains(x_star, tol=1e-9)
    m = len(inst2["objective"]["b"])
    assert objective.value(x_star) <= 1e-18 * m


def test_gen_density_validation_and_formats():
    with pytest.raises(ConfigError):
        gen_instance(dict(SIMPLEX_SPEC, objective={"m": 10, "density": 0.0}))
    with pytest.raises(ConfigError):
        gen_instance(dict(SIMPLEX_SPEC, objective={"m": 10, "density": 1.5}))
    # counts are integers, never truncated: m >= 1 and seed >= 0
    for objective, seed, fault in (({"m": 7.9}, 5, "m 7.9"), ({"m": 0}, 5, "m must"),
                                   ({"m": True}, 5, "m True"), ({"m": 10}, 2.5, "seed 2.5"),
                                   ({"m": 10}, True, "seed True"), ({"m": 10}, -1, "seed must")):
        with pytest.raises(ConfigError, match=fault):
            gen_instance(dict(SIMPLEX_SPEC, objective=objective, seed=seed))
    assert gen_instance(dict(SIMPLEX_SPEC, seed=5.0))["generator"]["seed"] == 5
    dense = gen_instance(SIMPLEX_SPEC)
    assert dense["objective"]["A"]["format"] == "dense"
    A = np.asarray(dense["objective"]["A"]["data"])
    assert np.count_nonzero(A) == A.size  # density 1.0 keeps every entry
    big = gen_instance({
        "region": {"kind": "simplex", "n": 60},
        "objective": {"m": 300, "density": 0.1},
        "seed": 1,
    })
    assert big["objective"]["A"]["format"] == "csr"
    region, objective, _ = load_instance(big)
    x_star = np.asarray(big["objective"]["x_star"])
    assert objective.value(x_star) <= 1e-18 * 300


def _loop_hamiltonian_cycle_vertices(nodes):
    """Reference: one vector per tour from node 0, in permutation order."""
    pairs = [(i, j) for i in range(nodes) for j in range(i + 1, nodes)]
    verts = []
    for perm in itertools.permutations(range(1, nodes)):
        if perm[0] > perm[-1]:
            continue  # each undirected cycle once
        tour = (0,) + perm
        v = np.zeros(len(pairs))
        for a, b in zip(tour, tour[1:] + (0,)):
            v[pairs.index((min(a, b), max(a, b)))] = 1.0
        verts.append(v)
    return np.array(verts)


def _loop_cut_polytope_vertices(nodes):
    """Reference: one cut vector per bitmask of nodes 1.., node 0 on side 0."""
    pairs = [(i, j) for i in range(nodes) for j in range(i + 1, nodes)]
    verts = []
    for mask in range(2 ** (nodes - 1)):
        side = [0] + [(mask >> b) & 1 for b in range(nodes - 1)]
        verts.append([1.0 if side[i] != side[j] else 0.0 for i, j in pairs])
    return np.array(verts)


def test_hamiltonian_cycle_vertices():
    for nodes in range(3, 9):
        V = hamiltonian_cycle_vertices(nodes)
        assert V.dtype == np.float64
        assert np.array_equal(V, _loop_hamiltonian_cycle_vertices(nodes)), nodes
    V5 = hamiltonian_cycle_vertices(5)
    assert V5.shape == (12, 10)  # (5-1)!/2 cycles over C(5,2) edge coords
    assert np.all(V5.sum(axis=1) == 5.0)  # every cycle uses 5 edges
    assert len({tuple(r) for r in V5}) == 12
    V7 = hamiltonian_cycle_vertices(7)
    assert V7.shape == (360, 21)
    assert np.all(V7.sum(axis=1) == 7.0)


def test_cut_polytope_vertices():
    for nodes in range(2, 12):
        V = cut_polytope_vertices(nodes)
        assert V.dtype == np.float64
        assert np.array_equal(V, _loop_cut_polytope_vertices(nodes)), nodes
    V = cut_polytope_vertices(3)
    assert V.shape == (4, 3)
    assert any(np.all(r == 0.0) for r in V)  # the empty cut
    assert len({tuple(r) for r in V}) == 4


def test_layered_dag_edges():
    edges = layered_dag_edges(2, 2)
    assert len(edges) == 8  # source->2, 2x2 crossing, 2->sink
    nodes = {u for u, _ in edges} | {v for _, v in edges}
    indeg = {n: 0 for n in nodes}
    outdeg = {n: 0 for n in nodes}
    for u, v in edges:
        outdeg[u] += 1
        indeg[v] += 1
    assert sum(1 for n in nodes if indeg[n] == 0) == 1  # single source
    assert sum(1 for n in nodes if outdeg[n] == 0) == 1  # single sink


def test_parse_seeds():
    assert parse_seeds("0..3") == [0, 1, 2, 3]
    assert parse_seeds("7") == [7]
    assert parse_seeds([1, 2]) == [1, 2]
    assert parse_seeds([3.0, np.int64(4)]) == [3, 4]
    for bad in ("5..2", [], "", "x", "1..x", "1..", "1..2..3", [0, None]):
        with pytest.raises(ConfigError, match="seed"):
            parse_seeds(bad)
    # a fractional or boolean seed is named, not truncated to another seed
    for bad, named in (([1.5, 2.9], "1.5"), ([True, 2], "True"), ([0, float("inf")], "inf")):
        with pytest.raises(ConfigError, match="seed %s is not an integer" % named):
            parse_seeds(bad)


def test_bad_seeds_fail_before_any_work(tmp_path, monkeypatch):
    estimated = []
    real = bench.resolve_constants
    monkeypatch.setattr(bench, "resolve_constants",
                        lambda *args: estimated.append(args) or real(*args))
    out = tmp_path / "runs"
    # (the config's seeds, the --seeds override)
    for seeds, override in (("5..2", None), ([], None), ("x", None), ([0], "5..2"), ([0], "x")):
        config = _experiment(tmp_path, _paired_entries(outer=10), seeds=seeds)
        with pytest.raises(ConfigError, match="seed"):
            run_experiment(config, out_dir=str(out), seeds=override)
        assert not out.exists()
        assert estimated == []


def test_empty_solver_list_exits_zero(tmp_path):
    config = _experiment(tmp_path, [])
    out = tmp_path / "runs"
    summary, code = run_experiment(config, out_dir=str(out))
    assert code == 0
    assert summary["solvers"] == {}
    assert (out / "summary.json").exists()


CALGD_ENTRY = {
    "name": "calgd",
    "variant": "calgd",
    "schedule": {"tag": "smooth_deterministic"},
    "outer": 60,
}


def test_batch_on_an_exact_gradient_entry_is_rejected(tmp_path):
    # a run whose schedule takes exact gradients would ignore the batch
    for entry in (dict(CALGD_ENTRY, batch=128), dict(CALGD_ENTRY, variant="scgs", batch=128),
                  dict(CALGD_ENTRY, variant="calgd_sc", schedule=None, eps=1e-3, batch=4,
                       constants={"mu": 1.0})):
        out = tmp_path / "runs"
        with pytest.raises(ConfigError, match="takes exact gradients"):
            run_experiment(_experiment(tmp_path, [entry]), out_dir=str(out))
        assert not out.exists()
    # ofw and a stochastic schedule keep theirs
    region, objective, inst = load_instance(_write_instance(tmp_path)[0])
    for entry in ({"variant": "ofw", "batch": 4},
                  dict(CALGD_ENTRY, variant="scgs", schedule={"tag": "smooth_stochastic"},
                       batch=4)):
        assert bench._prepare_entry(entry, {}, region, objective, inst).batch == 4


def test_bad_entry_fails_before_any_run(tmp_path):
    bad_entries = [
        dict(CALGD_ENTRY, name="bad", constants={"L": -1}),
        dict(CALGD_ENTRY, name="bad", constants={"L_typo": 1.0}),
        dict(CALGD_ENTRY, name="bad", variant="nope"),
        dict(CALGD_ENTRY, name="bad", schedule={"tag": "nope"}),
        dict(CALGD_ENTRY, name="bad", outer=0),
        dict(CALGD_ENTRY, name="bad", batch=0),
        dict(CALGD_ENTRY, name="bad", cache_capacity=-1),
        # rejected only by the SolverConfig each run would build
        dict(CALGD_ENTRY, name="bad", variant="calsgd", schedule={"tag": "saddle_static"}),
        dict(CALGD_ENTRY, name="bad", variant="calsgd", schedule=None),
        dict(CALGD_ENTRY, name="bad", variant="calgd_sc"),
        dict(CALGD_ENTRY, name="bad", alpha=0.5),
        # rejected only when the schedule is evaluated with the resolved constants
        dict(CALGD_ENTRY, name="bad", variant="calgd_saddle", schedule={"tag": "saddle_dynamic"}),
        # generated least-squares instances have no smoothed max-function
        dict(CALGD_ENTRY, name="bad", variant="calgd_saddle", schedule={"tag": "saddle_dynamic"},
             constants={"A_norm": 1.0, "D_YW": 1.0, "sigma_omega": 1.0}),
        # x0 = x_star estimates D_0 = 0, and a fixed-horizon eta divides by D_0
        dict(CALGD_ENTRY, name="bad", x0="x_star",
             schedule={"tag": "smooth_deterministic_fixed_n"}),
        dict(CALGD_ENTRY, name="bad", variant="calsgd", x0="x_star",
             schedule={"tag": "smooth_stochastic_fixed_n"}),
        dict(CALGD_ENTRY, name="bad", x0="origin"),
        # a zero constant gives eta = 0 or divides by zero
        dict(CALGD_ENTRY, name="bad", constants={"L": 0}),
        dict(CALGD_ENTRY, name="bad", constants={"D_X": 0.0}),
        dict(CALGD_ENTRY, name="bad", constants={"L": float("nan")}),  # JSON NaN
        dict(CALGD_ENTRY, name="bad", constants={"L": float("inf")}),
        dict(CALGD_ENTRY, name="bad", variant="calsgd", schedule={"tag": "smooth_stochastic"},
             constants={"L": 0.0}),
        dict(CALGD_ENTRY, name="bad", variant="calgd_sc", schedule=None, eps=1e-3,
             constants={"L": 0.0, "mu": 1.0}),
        # a fractional, boolean or string count is not truncated or converted
        dict(CALGD_ENTRY, name="bad", batch=1.5),
        dict(CALGD_ENTRY, name="bad", batch=True),
        dict(CALGD_ENTRY, name="bad", outer=2.7),
        dict(CALGD_ENTRY, name="bad", outer="4"),
        dict(CALGD_ENTRY, name="bad", cache_capacity=3.9),
        dict(CALGD_ENTRY, name="bad", schedule={"tag": "smooth_deterministic_fixed_n", "N": 10.5}),
        dict(CALGD_ENTRY, name="bad", schedule={"tag": "smooth_deterministic", "s": "1"}),
        dict(CALGD_ENTRY, name="bad", variant="calgd_sc", schedule=None, eps=1e-3),  # no mu
        # a NaN eps plans zero restart phases
        dict(CALGD_ENTRY, name="bad", variant="calgd_sc", schedule=None, eps=float("nan"),
             constants={"mu": 1.0}),
        # a list x0 must be a point of the region
        dict(CALGD_ENTRY, name="bad", x0=[1.0, 0.0]),
        dict(CALGD_ENTRY, name="bad", x0=[2, 0, 0, 0, 0, 0]),
    ]
    for bad in bad_entries:
        config = _experiment(tmp_path, [CALGD_ENTRY, bad])
        out = tmp_path / "runs"
        with pytest.raises(ConfigError, match=r"solver entry 1 \(bad\)"):
            run_experiment(config, out_dir=str(out))
        assert not out.exists() or not any(out.iterdir())
    # a time budget that is not a finite number of seconds >= 0: a string
    # fails in the first run, NaN never stops a run and -1 stops every one
    for wall_seconds in ("10", float("nan"), -1):
        config = _experiment(tmp_path, [CALGD_ENTRY])
        config["budgets"]["wall_seconds"] = wall_seconds
        out = tmp_path / "timed_runs"
        with pytest.raises(ConfigError, match="time_limit"):
            run_experiment(config, out_dir=str(out))
        assert not out.exists()


def test_integer_fields_must_be_integers(tmp_path):
    # the budget's outer counts for every entry without its own
    out = tmp_path / "runs"
    entry = {k: v for k, v in CALGD_ENTRY.items() if k != "outer"}
    config = _experiment(tmp_path, [entry])
    config["budgets"]["outer"] = 2.5
    with pytest.raises(ConfigError, match="outer 2.5 is not an integer"):
        run_experiment(config, out_dir=str(out))
    assert not out.exists()
    # an integer value in float form is the integer
    config = _experiment(tmp_path, [dict(CALGD_ENTRY, outer=3.0, cache_capacity=2.0,
                                         schedule={"tag": "smooth_deterministic", "N": 3.0})])
    _, code = run_experiment(config, out_dir=str(out))
    assert code == 0 and len(read_trace_csv(str(out / "calgd__s0.csv"))) == 3


def test_print_summary_shows_fractional_medians(capsys):
    # over two seeds a median crossing count may end in .5; the printed line
    # shows the medians as summary.json holds them
    cell = {"reached": 2, "of": 2, "outer_k": 12.5, "sfo_calls": 1536.0,
            "exact_lmo_calls": 40.5, "wall_ms": 3.25}
    _print_summary({"thresholds": ["1e-01"],
                    "solvers": {"lazy": {"runs": 2, "thresholds": {"1e-01": cell}}}})
    assert "2/2 reached, median outer_k=12.5 sfo=1536.0 lmo=40.5 " in capsys.readouterr().out


def test_nonsmooth_entry_runs_with_given_or_estimated_sigma2(tmp_path):
    entry = {"variant": "calsgd_nonsmooth", "schedule": {"tag": "nonsmooth_stochastic"},
             "outer": 10}
    entries = [dict(entry, name="given", constants={"M": 10.0, "sigma2": 3.0}),
               dict(entry, name="estimated", constants={"M": 10.0})]
    config = _experiment(tmp_path, entries)
    out = tmp_path / "runs"
    _, code = run_experiment(config, out_dir=str(out))
    assert code == 0
    for name in ("given", "estimated"):
        assert len(read_trace_csv(str(out / (name + "__s0.csv")))) == 10
    region, objective, inst = load_instance(config["instance"])
    x0 = region.lmo(np.ones(region.dim)).point
    given = bench.resolve_constants(entries[0], region, objective, inst, x0)
    estimated = bench.resolve_constants(entries[1], region, objective, inst, x0)
    assert given.sigma2 == 3.0 and given.M == estimated.M == 10.0
    assert estimated.sigma2 == lazy_sliding.estimate_sigma2(
        objective, x0, bench.SIGMA2_SAMPLES, np.random.default_rng(0))


def test_list_x0_runs_like_the_named_vertex(tmp_path):
    # "vertex" is the minimizer of <1, x>, e_0 on the simplex; the stochastic
    # fixed-N entry also estimates sigma^2 and D_0 at x0
    lazy = _paired_entries(outer=15)[0]
    entries = [dict(lazy, name="named", x0="vertex"),
               dict(lazy, name="listed", x0=[1, 0, 0, 0, 0, 0])]
    out = tmp_path / "runs"
    _, code = run_experiment(_experiment(tmp_path, entries), out_dir=str(out))
    assert code == 0
    assert _csv_modulo_wall(out / "named__s0.csv") == _csv_modulo_wall(out / "listed__s0.csv")


def test_instance_loaded_once_per_experiment(tmp_path, monkeypatch):
    calls = []
    real = bench.load_instance
    monkeypatch.setattr(bench, "load_instance", lambda path: calls.append(path) or real(path))
    config = _experiment(tmp_path, _paired_entries(outer=10), seeds=(0, 1))
    _, code = run_experiment(config, out_dir=str(tmp_path / "runs"))
    assert code == 0
    assert calls == [config["instance"]]

    out = tmp_path / "missing"
    with pytest.raises(ConfigError, match="nope.json") as info:
        run_experiment(dict(config, instance=str(tmp_path / "nope.json")), out_dir=str(out))
    assert isinstance(info.value.__cause__, FileNotFoundError)
    assert not out.exists()


def test_constant_estimation_error_marks_that_entry_only(tmp_path, monkeypatch):
    def estimate_L(objective):
        raise NumericalError("power iteration did not converge")

    monkeypatch.setattr(bench, "estimate_L", estimate_L)
    given = dict(CALGD_ENTRY, name="given", constants={"L": 200.0})
    config = _experiment(tmp_path, [CALGD_ENTRY, given], seeds=(0, 1))
    out = tmp_path / "runs"
    summary, code = run_experiment(config, out_dir=str(out))
    assert code == 1
    status = {(r["solver"], r["seed"]): r["status"] for r in summary["runs"]}
    assert status == {("calgd", 0): "error", ("calgd", 1): "error",
                      ("given", 0): "completed", ("given", 1): "completed"}
    meta = json.loads((out / "calgd__s1.meta.json").read_text())
    assert meta["message"] == "NumericalError: power iteration did not converge"


def test_calgd_threshold_table_monotone(tmp_path):
    config = _experiment(tmp_path, [CALGD_ENTRY], seeds=(0,), outer=60)
    out = tmp_path / "runs"
    summary, code = run_experiment(config, out_dir=str(out))
    assert code == 0
    table = summary["solvers"]["calgd"]["thresholds"]
    reached = [(thr, cell) for thr, cell in table.items() if cell["reached"]]
    assert len(reached) >= 2  # the run crosses at least 1e-1 and 1e-2
    ks = [cell["outer_k"] for _, cell in reached]
    sfos = [cell["sfo_calls"] for _, cell in reached]
    lmos = [cell["exact_lmo_calls"] for _, cell in reached]
    assert ks == sorted(ks)
    assert sfos == sorted(sfos) and lmos == sorted(lmos)


def test_budget_error_keeps_partial_trace(tmp_path, monkeypatch):
    cap = 2
    monkeypatch.setattr(lazy_sliding.solvers, "lcg_solve", functools.partial(lcg_solve, cap=cap))
    # with the default cache a solve's opening query may be a cache hit, with
    # no exact LMO; without one every opening, the failed solve's too, costs
    # an exact LMO
    for capacity in (None, 0):
        entry = CALGD_ENTRY if capacity is None else dict(CALGD_ENTRY, cache_capacity=capacity)
        config = _experiment(tmp_path, [entry], seeds=(0,), outer=60)
        out = tmp_path / ("runs%s" % capacity)
        summary, code = run_experiment(config, out_dir=str(out))
        assert code == 1
        meta = json.loads((out / "calgd__s0.meta.json").read_text())
        k = meta["failed_outer_k"]
        assert meta["status"] == "budget_error" and k > 1
        rows = read_trace_csv(str(out / "calgd__s0.csv"))
        assert [r["outer_k"] for r in rows] == list(range(1, k))
        final = meta["final_counters"]
        # the failed solve spent its whole budget of cap queries, the opening
        # included
        assert final["weak_sep_calls"] == rows[-1]["weak_sep_calls"] + cap
        if capacity == 0:
            assert final["exact_lmo_calls"] > rows[-1]["exact_lmo_calls"]
        assert [e["solver"] for e in summary["budget_errors"]] == ["calgd"]


def test_run_error_is_recorded_for_that_run_only(tmp_path, monkeypatch):
    real = bench.run_solver

    def run_solver(cfg, objective, region):
        if cfg.variant == "scgs":
            raise NumericalError("no convergence")
        return real(cfg, objective, region)

    monkeypatch.setattr(bench, "run_solver", run_solver)
    config = _experiment(tmp_path, _paired_entries(outer=20) + [CALGD_ENTRY], seeds=(0, 1))
    out = tmp_path / "runs"
    summary, code = run_experiment(config, out_dir=str(out))
    assert code == 1
    status = {(r["solver"], r["seed"]): r["status"] for r in summary["runs"]}
    assert status == {(name, seed): "error" if name == "scgs" else "completed"
                      for name in ("lazy", "scgs", "calgd") for seed in (0, 1)}
    meta = json.loads((out / "scgs__s1.meta.json").read_text())
    assert meta["status"] == "error" and meta["message"] == "NumericalError: no convergence"
    assert sorted(summary["solvers"]) == ["calgd", "lazy"]
    assert [(e["solver"], e["seed"]) for e in summary["errors"]] == [("scgs", 0), ("scgs", 1)]
    assert json.loads((out / "summary.json").read_text())["errors"] == summary["errors"]


def _paired_entries(batch=4, outer=40):
    common = {
        "schedule": {"tag": "smooth_stochastic_fixed_n"},
        "batch": batch,
        "outer": outer,
        "alpha": 1.0,
    }
    lazy = dict(common, name="lazy", variant="calsgd", cache_capacity=512)
    scgs = dict(common, name="scgs", variant="scgs", cache_capacity=0)
    return [lazy, scgs]


def test_paired_runs_share_sfo_and_differ_in_lmo(tmp_path):
    config = _experiment(tmp_path, _paired_entries(), seeds=(0, 1), outer=40)
    out = tmp_path / "runs"
    _, code = run_experiment(config, out_dir=str(out))
    assert code == 0
    for seed in (0, 1):
        lazy = read_trace_csv(str(out / ("lazy__s%d.csv" % seed)))
        scgs = read_trace_csv(str(out / ("scgs__s%d.csv" % seed)))
        assert [r["sfo_calls"] for r in lazy] == [r["sfo_calls"] for r in scgs]
        assert [r["f_value"] for r in lazy] != [r["f_value"] for r in scgs] or \
            lazy[-1]["exact_lmo_calls"] != scgs[-1]["exact_lmo_calls"]
        assert lazy[-1]["exact_lmo_calls"] < scgs[-1]["exact_lmo_calls"]
        assert lazy[-1]["cache_hits"] > 0 and scgs[-1]["cache_hits"] == 0


def _csv_modulo_wall(path):
    # compare the CSV text, which keeps every digit and is nan-safe
    lines = path.read_text().splitlines()
    return [",".join(f for i, f in enumerate(ln.split(",")) if i != 1)
            for ln in lines]


def test_reproducible_across_runs_modulo_wall(tmp_path):
    config = _experiment(tmp_path, _paired_entries(), seeds=(0,), outer=25)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    run_experiment(config, out_dir=str(out1))
    run_experiment(config, out_dir=str(out2))
    for name in ("lazy__s0.csv", "scgs__s0.csv"):
        assert _csv_modulo_wall(out1 / name) == _csv_modulo_wall(out2 / name)
    ma = json.loads((out1 / "lazy__s0.meta.json").read_text())
    mb = json.loads((out2 / "lazy__s0.meta.json").read_text())
    assert ma["config_hash"] == mb["config_hash"]


def test_summary_recomputable_from_traces(tmp_path, monkeypatch):
    # scgs runs end in error and calgd runs in budget_error; over 12 seeds the
    # file-name order (s10 before s2) differs from the run order
    real = bench.run_solver

    def run_solver(cfg, objective, region):
        if cfg.variant == "scgs":
            raise NumericalError("no convergence")
        if cfg.variant == "calgd":
            with monkeypatch.context() as m:
                m.setattr(lazy_sliding.solvers, "lcg_solve", functools.partial(lcg_solve, cap=2))
                return real(cfg, objective, region)
        return real(cfg, objective, region)

    monkeypatch.setattr(bench, "run_solver", run_solver)
    seeds = list(range(12))
    config = _experiment(tmp_path, _paired_entries(outer=25) + [CALGD_ENTRY], seeds=seeds)
    out = tmp_path / "runs"
    _, code = run_experiment(config, out_dir=str(out))
    assert code == 1
    written = json.loads((out / "summary.json").read_text())
    written.pop("runs")
    file_order = [0, 1, 10, 11] + list(range(2, 10))
    for key, solver in (("errors", "scgs"), ("budget_errors", "calgd")):
        assert [(e["solver"], e["seed"]) for e in written[key]] == [(solver, s) for s in file_order]
    assert list(written["solvers"]) == ["lazy"] and written["solvers"]["lazy"]["runs"] == 12
    recomputed = summarize(str(out))
    assert recomputed == written


def test_second_run_into_a_used_directory_summarizes_only_its_runs(tmp_path):
    out = tmp_path / "runs"
    run_experiment(_experiment(tmp_path, _paired_entries(outer=10), seeds=range(4)),
                   out_dir=str(out))
    lazy = _paired_entries(outer=10)[0]
    summary, code = run_experiment(_experiment(tmp_path, [lazy], seeds=[0]), out_dir=str(out))
    assert code == 0
    written = json.loads((out / "summary.json").read_text())
    assert written == summary and len(written["runs"]) == 1
    assert list(written["solvers"]) == ["lazy"] and written["solvers"]["lazy"]["runs"] == 1
    # the directory still holds the first experiment's traces, which summarize reads
    assert summarize(str(out))["solvers"]["scgs"]["runs"] == 4


def test_run_experiment_reads_no_output_back(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("run_experiment read its own output")

    monkeypatch.setattr(bench, "summarize", refuse)
    monkeypatch.setattr(bench, "read_trace_csv", refuse)
    out = tmp_path / "runs"
    config = _experiment(tmp_path, _paired_entries(outer=25), seeds=(0, 1))
    summary, code = run_experiment(config, out_dir=str(out))
    assert code == 0
    monkeypatch.undo()
    assert summary["solvers"]["lazy"]["thresholds"]["1e-01"]["reached"] == 2
    assert {k: v for k, v in summary.items() if k != "runs"} == summarize(str(out))


def test_write_csv_bytes_match_a_csv_writer(tmp_path):
    rows = [(1, 0.25, 1.5e-300, 2, 0, 3, 4, 1, 4, -0.0, float("nan")),
            (2, 1234.5678901234567, -2.0e+20, 10**12, 7, -1, 0, 0, 0, float("inf"), 1e-7)]
    path = tmp_path / "t.csv"
    RunTrace(rows=rows).write_csv(str(path))
    fmt = [str(v) if isinstance(v, int) else "%.17g" % v for row in rows for v in row]
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        writer.writerows([fmt[:11], fmt[11:]])
    assert path.read_bytes() == ref.read_bytes()
    read = read_trace_csv(str(path))
    assert [repr(tuple(r.values())) for r in read] == [repr(r) for r in rows]
    assert [type(v) for v in read[1].values()] == [type(v) for v in rows[1]]


def test_header_only_trace_reads_as_no_rows(tmp_path):
    path = tmp_path / "error.csv"
    RunTrace().write_csv(str(path))
    assert path.read_text() == TRACE_HEADER + "\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert read_trace_csv(str(path)) == []


def test_csv_header_exact_and_roundtrip(tmp_path):
    config = _experiment(tmp_path, [dict(CALGD_ENTRY, outer=10)], seeds=(3,), outer=10)
    out = tmp_path / "runs"
    run_experiment(config, out_dir=str(out))
    path = out / "calgd__s3.csv"
    first = path.read_text().splitlines()[0]
    assert first == TRACE_HEADER == (
        "outer_k,wall_ms,f_value,sfo_calls,fo_calls,exact_lmo_calls,"
        "weak_sep_calls,cache_hits,inner_iters,phi_final,cert_gap")
    rows = read_trace_csv(str(path))
    assert [r["outer_k"] for r in rows] == list(range(1, 11))
    floats = {"wall_ms", "f_value", "phi_final", "cert_gap"}
    assert all(type(v) is (float if k in floats else int) for r in rows for k, v in r.items())
    with pytest.raises(ValueError):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope,header\n1,2\n")
        read_trace_csv(str(bad))


def test_jobs_parallel_matches_sequential(tmp_path):
    config = _experiment(tmp_path, _paired_entries(), seeds=(0,), outer=20)
    seq, par = tmp_path / "seq", tmp_path / "par"
    run_experiment(config, out_dir=str(seq), jobs=1)
    run_experiment(config, out_dir=str(par), jobs=2)
    for name in ("lazy__s0.csv", "scgs__s0.csv"):
        assert _csv_modulo_wall(seq / name) == _csv_modulo_wall(par / name)


def _typed_reprs(rows):
    # every value with its type and exact repr, so NaN equals NaN
    return [[(k, type(v), repr(v)) for k, v in r.items()] for r in rows]


@pytest.mark.parametrize("jobs", [1, 2])
def test_returned_rows_equal_the_written_trace(tmp_path, monkeypatch, jobs):
    # the rows each run hands to the summary, pickled across processes at
    # jobs=2, are the rows its CSV reads back: values, types and NaNs alike
    returned = []
    real = bench._summary
    monkeypatch.setattr(bench, "_summary", lambda runs: returned.extend(runs) or real(runs))
    ofw = {"name": "ofw", "variant": "ofw", "outer": 30}
    config = _experiment(tmp_path, _paired_entries(outer=20) + [ofw], seeds=(0, 1))
    out = tmp_path / "runs"
    _, code = run_experiment(config, out_dir=str(out), jobs=jobs)
    assert code == 0 and len(returned) == 6
    nans = 0
    for record, rows in returned:
        assert isinstance(rows, TraceTable) and len(rows) == (30 if record["solver"] == "ofw" else 20)
        written = read_trace_csv(str(out / ("%s__s%d.csv" % (record["solver"], record["seed"]))))
        assert _typed_reprs(rows) == _typed_reprs(written)
        unpickled = pickle.loads(pickle.dumps(rows))
        assert _typed_reprs(unpickled) == _typed_reprs(rows)
        assert not unpickled.column("f_value").flags.writeable
        nans += sum(math.isnan(v) for v in rows.column("cert_gap"))
    assert nans == 2 * 30  # ofw has no inner solve to certify


def test_trace_table_reads_like_a_list_of_dicts():
    rows = [(k, 0.5 * k, 1.0 / k, 4 * k, 0, k, 2 * k, k // 2, 2 * k, float("nan"), 1e-3)
            for k in range(1, 6)]
    table = TraceTable(rows)
    dicts = [dict(zip(TRACE_COLUMNS, r)) for r in rows]
    assert len(table) == 5 and table and not TraceTable([]) and TraceTable([]) == []
    assert _typed_reprs(table) == _typed_reprs(dicts) == _typed_reprs(table[:])
    assert _typed_reprs([table[-1]]) == _typed_reprs(dicts[-1:])
    assert list(table[1]) == list(TRACE_COLUMNS) and table[1]["outer_k"] == 2
    assert json.dumps(table[-1]["sfo_calls"]) == "20"
    with pytest.raises(KeyError):
        table[0]["no_such"]
    column = table.column("f_value")
    assert column.tolist() == [1.0 / k for k in range(1, 6)]
    with pytest.raises(ValueError):
        column[0] = 0.0  # read-only


def test_first_crossings_match_a_scan_of_the_rows():
    nan = float("nan")
    columns = [[], [nan, nan], [5.0, 0.1, 2.0, 1e-3, nan, 1e-7], [1e-6, 1.0, 1e-2],
               np.random.default_rng(0).lognormal(-6.0, 4.0, 200).tolist()]
    for f in columns:
        scan = [next((i for i, v in enumerate(f) if v <= thr), -1) for thr in bench.THRESHOLDS]
        assert bench._first_crossings(np.array(f, dtype=float)).tolist() == scan


def test_trace_rows_keep_under_200_bytes_each(tmp_path):
    # a dict per row keeps about 700 bytes alive; the structured array 88
    n = 10000
    rows = [(k, 0.25 * k, 1.0 / k, 128 * k, 0, k, 3 * k, k // 2, 3 * k, 1e-3, 2e-4)
            for k in range(1, n + 1)]
    path = tmp_path / "t.csv"
    RunTrace(rows=rows).write_csv(str(path))
    for build in (lambda: read_trace_csv(str(path)), lambda: TraceTable(rows)):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = build()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(table) == n and kept <= 200 * n, kept / n


@pytest.mark.parametrize("fname,text,fault", [
    ("calgd__s0.csv", "a,b\n1,2\n", "unexpected trace header"),
    ("calgd__s0.csv", TRACE_HEADER + "\n" + ",".join(["1"] * 10) + "\n", "ValueError"),
    ("calgd__s0.meta.json", '{"solver_name": "calgd", "sta', "JSONDecodeError"),
], ids=["header", "ten-fields", "truncated-meta"])
def test_summarize_rejects_an_unreadable_run_file(tmp_path, capsys, fname, text, fault):
    out = tmp_path / "runs"
    _, code = run_experiment(_experiment(tmp_path, [CALGD_ENTRY], seeds=(0, 1), outer=10),
                             out_dir=str(out))
    assert code == 0
    (out / "summary.json").unlink()
    (out / fname).write_text(text)
    with pytest.raises(ConfigError, match=fname) as info:
        summarize(str(out))
    assert fault in str(info.value) and isinstance(info.value.__cause__, ValueError)
    assert main(["summarize", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("lazy-sliding: error: cannot read run file") and fname in err
    assert "Traceback" not in err
    assert not (out / "summary.json").exists()


def test_cli_gen_run_summarize(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SIMPLEX_SPEC))
    inst_path = tmp_path / "instance.json"
    assert main(["gen", "--config", str(spec_path), "--out", str(inst_path)]) == 0
    assert inst_path.exists()
    out = capsys.readouterr().out
    assert "region=simplex" in out

    config = {
        "instance": str(inst_path),
        "seeds": [0],
        "budgets": {"outer": 30},
        "solvers": [CALGD_ENTRY],
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    run_dir = tmp_path / "runs"
    assert main(["run", "--config", str(cfg_path), "--out", str(run_dir),
                 "--seeds", "0..1", "--jobs", "1"]) == 0
    assert (run_dir / "calgd__s0.csv").exists()
    assert (run_dir / "calgd__s1.csv").exists()  # --seeds override took effect
    out = capsys.readouterr().out
    assert "calgd" in out and "reached" in out

    assert main(["summarize", "--out", str(run_dir)]) == 0
    assert (run_dir / "summary.json").exists()


def test_cli_gen_seed_override(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SIMPLEX_SPEC))
    p1, p2 = tmp_path / "i1.json", tmp_path / "i2.json"
    main(["gen", "--config", str(spec_path), "--out", str(p1)])
    main(["gen", "--config", str(spec_path), "--out", str(p2), "--seed", "9"])
    a = json.loads(p1.read_text())
    b = json.loads(p2.read_text())
    assert a["generator"]["seed"] == 5 and b["generator"]["seed"] == 9
    assert a["objective"]["b"] != b["objective"]["b"]


def test_cli_rejected_config_exits_2(tmp_path, capsys):
    # 1 means a run failed; a config rejected before any work exits 2
    cfg_path, run_dir = tmp_path / "exp.json", tmp_path / "runs"
    for entry, seeds, fault in ((dict(CALGD_ENTRY, variant="no_such"), [], "no_such"),
                                (CALGD_ENTRY, ["--seeds", "abc"], "seeds 'abc'")):
        cfg_path.write_text(json.dumps(_experiment(tmp_path, [entry])))
        assert main(["run", "--config", str(cfg_path), "--out", str(run_dir)] + seeds) == 2
        err = capsys.readouterr().err
        assert err.startswith("lazy-sliding: error: ") and fault in err
        assert "Traceback" not in err
        assert not run_dir.exists()


@pytest.mark.parametrize("spec,fault", [
    (dict(SIMPLEX_SPEC, region={"kind": "no_such"}), "unknown region kind 'no_such'"),
    (dict(SIMPLEX_SPEC, region={"kind": "simplex"}), "KeyError 'n'"),
    (dict(SIMPLEX_SPEC, objective={"m": 10, "density": "x"}), "density must be a number"),
])
def test_cli_bad_gen_spec_exits_2(tmp_path, capsys, spec, fault):
    spec_path, inst_path = tmp_path / "spec.json", tmp_path / "instance.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["gen", "--config", str(spec_path), "--out", str(inst_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("lazy-sliding: error: ") and fault in err
    assert not inst_path.exists()


@pytest.mark.parametrize("text,fault", [(None, "FileNotFoundError"),
                                        ("{not json", "JSONDecodeError")])
def test_cli_unreadable_instance_exits_2(tmp_path, capsys, text, fault):
    inst_path, cfg_path, run_dir = tmp_path / "inst.json", tmp_path / "exp.json", tmp_path / "runs"
    if text is not None:
        inst_path.write_text(text)
    config = {"instance": str(inst_path), "seeds": [0], "solvers": [CALGD_ENTRY]}
    cfg_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg_path), "--out", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("lazy-sliding: error: cannot load instance")
    assert "inst.json" in err and fault in err
    assert not run_dir.exists()


@pytest.mark.parametrize("command,config,fault", [
    ("gen", None, "FileNotFoundError"),
    ("gen", "{not json", "JSONDecodeError"),
    ("gen", "[1, 2]", "is not a JSON object"),
    ("run", None, "FileNotFoundError"),
    ("run", "{not json", "JSONDecodeError"),
    ("run", '"exp"', "is not a JSON object"),
    ("run", {"seeds": [0], "solvers": [CALGD_ENTRY]}, "got instance None"),
    ("run", {"instance": "INSTANCE", "solvers": CALGD_ENTRY}, "solvers of type dict"),
    ("summarize", None, "no directory"),
], ids=["gen-missing", "gen-not-json", "gen-list", "run-missing", "run-not-json", "run-string",
        "run-no-instance", "run-solvers-dict", "summarize-missing-dir"])
def test_cli_rejected_input_exits_2(tmp_path, capsys, command, config, fault):
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
    if isinstance(config, dict):  # with a valid instance file where it says INSTANCE
        config = json.dumps({k: _write_instance(tmp_path)[0] if v == "INSTANCE" else v
                             for k, v in config.items()})
    if config is not None:
        cfg_path.write_text(config)
    argv = ([command] if command == "summarize" else [command, "--config", str(cfg_path)])
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("lazy-sliding: error: ") and fault in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_verify_runs_pytest_target(tmp_path):
    target = tmp_path / "test_tiny_ok.py"
    target.write_text("def test_ok():\n    assert True\n")
    assert main(["verify", "--tests", str(target)]) == 0


def test_enumerated_instance_round_trip(tmp_path):
    spec = {
        "region": {"kind": "hamiltonian_cycles", "nodes": 5},
        "objective": {"m": 30, "density": 0.8},
        "seed": 2,
    }
    path = tmp_path / "ham.json"
    write_json(str(path), gen_instance(spec))
    region, objective, inst = load_instance(str(path))
    assert region.kind == "enumerated" and region.dim == 10
    assert region.diameter() > 0
    x_star = np.asarray(inst["objective"]["x_star"])
    assert objective.value(x_star) <= 1e-18 * 30
    assert math.isclose(float(x_star.sum()), 5.0, rel_tol=1e-12)
