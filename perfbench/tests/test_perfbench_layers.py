"""Self-test of the benchmark's tracing and output checks.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import copy
import math
import os
import sys

import numpy as np
import pytest

import lazy_sliding.bench as bench
import lazy_sliding.solvers as solvers
from lazy_sliding import (
    NumericalError,
    ProblemConstants,
    ScheduleVariant,
    SolverConfig,
    estimate_L,
    estimate_sigma2,
    gen_instance,
    load_instance,
    run_experiment,
)

import child
import layers
import workloads as wl

NAMES = {v: k for k, v in wl.VARIANTS.items()}

SMALL = {
    "why": "test instance",
    "region": {"kind": "hamiltonian_cycles", "nodes": 5},
    "objective": {"m": 300, "density": 0.6},
    "instance_seed": 3,
    "outer": 40,
    "ofw_steps": 60,
    "solver_seeds": 2,
    "tau": 1e2,
}


@pytest.fixture(scope="module")
def problem():
    inst = gen_instance(wl.generator_spec(SMALL))
    region, objective, inst = load_instance(inst)
    x0 = region.lmo(np.ones(region.dim)).point
    x_star = np.asarray(inst["objective"]["x_star"])
    c = ProblemConstants(L=estimate_L(objective), D_X=region.diameter(),
                         D_0=min(region.diameter(), float(np.linalg.norm(x0 - x_star))),
                         sigma2=estimate_sigma2(objective, x0, 1000, np.random.default_rng(0)))
    return region, objective, x0, c


def _configs(x0, c, seed=0):
    sv = ScheduleVariant(wl.SCHEDULE, N=SMALL["outer"])
    return [
        SolverConfig("calsgd", c, x0, SMALL["outer"], schedule=sv, seed=seed,
                     batch=wl.BATCH, cache_capacity=wl.CACHE),
        SolverConfig("scgs", c, x0, SMALL["outer"], schedule=sv, seed=seed,
                     batch=wl.BATCH, cache_capacity=0),
        SolverConfig("ofw", c, x0, SMALL["ofw_steps"], seed=seed),
    ]


def _rows(trace):
    return [[repr(v) for i, v in enumerate(r) if i != 1] for r in trace.rows]


def test_wrapper_counts_equal_final_counters(problem):
    region, objective, x0, c = problem
    for cfg in _configs(x0, c):
        tracer = layers.Tracer(NAMES)
        with tracer:
            trace = solvers.run_solver(cfg, objective, region)
        fc = trace.metadata["final_counters"]
        m = layers.solver_metrics(tracer, NAMES[cfg.variant])
        assert m["regions.lmo.calls"] == fc["exact_lmo_calls"] > 0
        assert m["oracle.weak_sep.calls"] == fc["weak_sep_calls"]
        assert m["oracle.cache.hits"] == fc["cache_hits"]
        assert m["oracle.cache.misses"] == fc["cache_misses"]
        assert m["objectives.sfo.samples"] == fc["sfo_calls"]
        if cfg.variant == "calsgd":
            assert fc["cache_hits"] > 0 and m["lcg.solve.calls"] == cfg.outer_limit


def test_self_times_add_up_to_the_solve(problem):
    region, objective, x0, c = problem
    tracer = layers.Tracer(NAMES)
    with tracer:
        for cfg in _configs(x0, c):
            solvers.run_solver(cfg, objective, region)
    for name in wl.SOLVERS:
        m = layers.solver_metrics(tracer, name)
        assert m["solvers.self_ms"] >= 0.0 and m["lcg.self_ms"] >= 0.0
        assert layers.self_time_sum_ms(tracer, name) == pytest.approx(m["solve_ms"], abs=1e-9)


def test_traced_and_untraced_traces_match_apart_from_wall(problem):
    region, objective, x0, c = problem
    for cfg in _configs(x0, c, seed=7):
        plain = solvers.run_solver(cfg, objective, region)
        with layers.Tracer(NAMES):
            traced = solvers.run_solver(cfg, objective, region)
        assert _rows(plain) == _rows(traced)


def _snapshot():
    out = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is not None and mod_name.startswith("lazy_sliding"):
            for k, v in vars(mod).items():
                out[(mod_name, k)] = v
                if isinstance(v, type):
                    for a, f in vars(v).items():
                        out[(mod_name, k, a)] = f
    return out


def test_wrappers_are_restored_even_after_an_error(problem):
    before = _snapshot()
    tracer = layers.Tracer(NAMES)
    with pytest.raises(RuntimeError):
        with tracer:
            assert solvers.run_solver is not before[("lazy_sliding.solvers", "run_solver")]
            raise RuntimeError("boom")
    after = _snapshot()
    assert set(before) == set(after)
    assert all(after[k] is before[k] for k in before)


def test_missing_layer_reads_zero(problem, monkeypatch):
    region, objective, x0, c = problem
    # A deleted module and a deleted function are skipped, not fatal.
    monkeypatch.setitem(sys.modules, "lazy_sliding.no_such_layer", None)
    targets = layers.TARGETS + (("linalg.gone", "no_such_layer", "f"),
                                ("linalg.power_iteration", "regions", "no_such_function"))
    tracer = layers.Tracer(NAMES, targets=targets)
    with tracer:
        solvers.run_solver(_configs(x0, c)[0], objective, region)
    m = layers.solver_metrics(tracer, "lazy")
    assert m["linalg.power_iteration.calls"] == 0
    assert m["linalg.power_iteration.ms"] == 0.0
    assert tracer.get("lazy", "linalg.gone").calls == 0


def _small_experiment(tmp_path, seeds):
    inst = gen_instance(wl.generator_spec(SMALL))
    path = str(tmp_path / "instance.json")
    bench.write_json(path, inst)
    return path, wl.experiment_config(SMALL, path, seeds)


def _run_round(tmp_path, w, config, seeds):
    region, objective, _ = load_instance(config["instance"])
    checks = child.Checks()
    out = str(tmp_path / "runs")
    with child.Capture(bench, NAMES) as cap:
        run_experiment(config, base_dir=str(tmp_path), out_dir=out, jobs=1)
    record, _, _, steps = child.analyse_round(w, out, seeds, cap.runs, region, objective,
                                             checks)
    record["experiment_s"] = 1.0
    return child.summarize_rounds(w, [record], steps), checks, cap


def test_output_checks_pass_on_a_good_round(tmp_path):
    seeds = [0, 1]
    _, config = _small_experiment(tmp_path, seeds)
    metrics, checks, _ = _run_round(tmp_path, SMALL, config, seeds)
    assert checks.failures == []
    # per run: status, finite, descent, feasible; per seed: pairing, two targets
    assert checks.attempted == 4 * 3 * len(seeds) + 3 * len(seeds)
    assert metrics["lazy.exact_lmo_total"] <= metrics["eager.exact_lmo_total"]
    assert all(math.isfinite(metrics["%s.time_to_target_s" % s]) for s in ("lazy", "eager"))
    assert metrics["lazy.step_ms.samples"] == SMALL["outer"] * len(seeds)


def test_unreachable_target_fails_its_checks(tmp_path):
    seeds = [0]
    w = dict(SMALL, tau=1e-30)
    _, config = _small_experiment(tmp_path, seeds)
    _, checks, _ = _run_round(tmp_path, w, config, seeds)
    assert len(checks.failures) == 2
    assert all("never reaches" in f for f in checks.failures)


def test_raising_run_is_counted_and_the_rest_continue(tmp_path, monkeypatch):
    seeds = [0, 1]
    _, config = _small_experiment(tmp_path, seeds)
    original = bench.run_solver

    def flaky(cfg, objective, region):
        if cfg.variant == "scgs" and cfg.seed == 1:
            raise NumericalError("injected")
        return original(cfg, objective, region)

    monkeypatch.setattr(bench, "run_solver", flaky)
    _, checks, cap = _run_round(tmp_path, SMALL, config, seeds)
    errors = [r for r in cap.runs if r["error"]]
    assert len(cap.runs) == 3 * len(seeds)
    assert [(r["solver"], r["seed"]) for r in errors] == [("eager", 1)]
    # status + three uncheckable outputs of the failed run, plus its pairing
    # check and its target check
    assert len(checks.failures) == 6
    assert os.path.exists(tmp_path / "runs" / "summary.json")


def test_workload_table_is_valid_and_validation_rejects_bad_fields():
    wl.validate()
    for key, bad in (("outer", 0), ("tau", -1.0), ("solver_seeds", 1.5)):
        table = {"bad": dict(copy.deepcopy(SMALL), **{key: bad})}
        with pytest.raises(ValueError, match=key):
            wl.validate(table)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert wl.tail_percentile(1350) == 99.0
    assert wl.tail_percentile(120) == 90.0
    assert wl.tail_percentile(40) == 75.0
    assert wl.tail_percentile(5) == 50.0


def _benchmark_json():
    import json
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_names_what_the_run_prints():
    import re

    import run
    doc = _benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    tracer = layers.Tracer({})
    exp = {"layers": {"setup": layers.setup_metrics(tracer),
                      "solvers": {s: layers.solver_metrics(tracer, s) for s in wl.SOLVERS}},
           "traced": {"f_final": {"lazy": {"0": 1.0}}, "experiment_s": 1.0},
           "summary": {k: 1.0 for k in run.WALL_METRICS + run.STEP_METRICS}}
    setups = [{"phases": {k: 1.0 for k in ("import.ms", "bench.gen_instance.ms",
                                           "bench.write_json.ms")},
               "instance_bytes": 1}]
    printed = run.per_layer(setups, exp, {"laziness.wall_ratio": 1.0,
                                          "laziness.lmo_saved_frac": 0.0})
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {
        k: run.layer_unit(k) for k in printed}
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(name_re.match(n) for n in names)
    assert all(unit_re.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
