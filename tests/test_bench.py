import base64
import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc

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
from lazy_sliding.cli import main
from lazy_sliding.errors import ConfigError, NumericalError
from lazy_sliding.trace import TRACE_HEADER, read_trace_csv

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


def test_hamiltonian_cycle_vertices():
    V5 = hamiltonian_cycle_vertices(5)
    assert V5.shape == (12, 10)  # (5-1)!/2 cycles over C(5,2) edge coords
    assert np.all(V5.sum(axis=1) == 5.0)  # every cycle uses 5 edges
    assert len({tuple(r) for r in V5}) == 12
    V7 = hamiltonian_cycle_vertices(7)
    assert V7.shape == (360, 21)
    assert np.all(V7.sum(axis=1) == 7.0)


def test_cut_polytope_vertices():
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
        dict(CALGD_ENTRY, name="bad", x0="origin"),
    ]
    for bad in bad_entries:
        config = _experiment(tmp_path, [CALGD_ENTRY, bad])
        out = tmp_path / "runs"
        with pytest.raises(ConfigError, match=r"solver entry 1 \(bad\)"):
            run_experiment(config, out_dir=str(out))
        assert not out.exists() or not any(out.iterdir())


def test_instance_loaded_once_per_experiment(tmp_path, monkeypatch):
    calls = []
    real = bench.load_instance
    monkeypatch.setattr(bench, "load_instance", lambda path: calls.append(path) or real(path))
    config = _experiment(tmp_path, _paired_entries(outer=10), seeds=(0, 1))
    _, code = run_experiment(config, out_dir=str(tmp_path / "runs"))
    assert code == 0
    assert calls == [config["instance"]]

    out = tmp_path / "missing"
    with pytest.raises(FileNotFoundError):
        run_experiment(dict(config, instance=str(tmp_path / "nope.json")), out_dir=str(out))
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
    real = bench.run_solver
    monkeypatch.setattr(bench, "run_solver", lambda cfg, objective, region: real(
        dataclasses.replace(cfg, lcg_cap=3), objective, region))
    config = _experiment(tmp_path, [CALGD_ENTRY], seeds=(0,), outer=60)
    out = tmp_path / "runs"
    summary, code = run_experiment(config, out_dir=str(out))
    assert code == 1
    meta = json.loads((out / "calgd__s0.meta.json").read_text())
    k = meta["failed_outer_k"]
    assert meta["status"] == "budget_error" and k > 1
    rows = read_trace_csv(str(out / "calgd__s0.csv"))
    assert [r["outer_k"] for r in rows] == list(range(1, k))
    assert meta["final_counters"]["exact_lmo_calls"] > rows[-1]["exact_lmo_calls"]
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


def test_summary_recomputable_from_traces(tmp_path):
    config = _experiment(tmp_path, _paired_entries(), seeds=(0, 1), outer=25)
    out = tmp_path / "runs"
    run_experiment(config, out_dir=str(out))
    written = json.loads((out / "summary.json").read_text())
    written.pop("runs")
    recomputed = summarize(str(out))
    assert recomputed == written


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
    assert all(isinstance(r["f_value"], float) for r in rows)
    assert all(isinstance(r["exact_lmo_calls"], int) for r in rows)
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


def test_deterministic_env_forces_sequential(tmp_path, monkeypatch):
    monkeypatch.setenv("LAZY_SLIDING_DETERMINISTIC", "1")
    config = _experiment(tmp_path, _paired_entries(), seeds=(0,), outer=10)
    out = tmp_path / "runs"
    _, code = run_experiment(config, out_dir=str(out), jobs=8)
    assert code == 0
    assert (out / "lazy__s0.csv").exists() and (out / "scgs__s0.csv").exists()


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
