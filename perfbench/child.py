"""Child processes of the benchmark: one set-up, or one timed experiment.

    python3 perfbench/child.py setup WORKLOAD WORKDIR
    python3 perfbench/child.py experiment WORKLOAD WORKDIR SEED SECONDS TRACE

Each prints one JSON object as its last line of standard output.  The
package is driven only through the path its CLI takes: ``gen_instance`` ->
instance file -> ``load_instance`` / ``resolve_constants`` ->
``run_experiment(jobs=1)`` -> trace CSVs and ``summary.json``.
"""

import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback

import workloads as wl

MIN_ROUNDS = 3


def _x0(region):
    # The experiment's default start: the vertex minimizing <1, x>.
    import numpy as np
    return region.lmo(np.ones(region.dim)).point


def setup(name, workdir):
    """Fresh process -> import -> gen -> write -> reload -> constants resolved."""
    w = wl.WORKLOADS[name]
    t = time.perf_counter()
    import lazy_sliding
    from lazy_sliding import gen_instance, load_instance
    from lazy_sliding.bench import resolve_constants, write_json
    phases = {"import.ms": time.perf_counter() - t}

    t = time.perf_counter()
    inst = gen_instance(wl.generator_spec(w))
    phases["bench.gen_instance.ms"] = time.perf_counter() - t
    path = os.path.join(workdir, "instance.json")
    t = time.perf_counter()
    write_json(path, inst)
    phases["bench.write_json.ms"] = time.perf_counter() - t
    t = time.perf_counter()
    region, objective, inst = load_instance(path)
    phases["bench.load_instance.ms"] = time.perf_counter() - t
    t = time.perf_counter()
    x0 = _x0(region)
    config = wl.experiment_config(w, path, [0])
    constants = [resolve_constants(entry, region, objective, inst, x0)
                 for entry in config["solvers"]]
    phases["bench.resolve_constants.ms"] = time.perf_counter() - t
    phases = {k: v * 1e3 for k, v in phases.items()}

    _validate_entries(config, constants, x0)
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return {"phases": phases, "instance_bytes": os.path.getsize(path),
            "instance_sha256": digest, "version": lazy_sliding.__version__}


def _validate_entries(config, constants, x0):
    """Build every solver config the experiment will build; raises ConfigError."""
    from lazy_sliding import ScheduleVariant, SolverConfig, schedule_eval
    outer = config["budgets"]["outer"]
    for entry, c in zip(config["solvers"], constants):
        steps = entry.get("outer", outer)
        sched = entry.get("schedule")
        schedule = None if sched is None else ScheduleVariant(sched["tag"], N=steps)
        SolverConfig(variant=entry["variant"], constants=c, x0=x0, outer_limit=steps,
                     schedule=schedule, batch=entry.get("batch"),
                     cache_capacity=entry.get("cache_capacity", 512))
        if schedule is not None:
            schedule_eval(schedule, 1, c)


class Capture:
    """Boundary wrapper of `run_solver` as `run_experiment` calls it.

    Times each solve, keeps its start and final point (the argument of the
    last objective evaluation, which every solver spends on its output
    point), and turns a NumericalError or ConfigError into an ``error`` run
    so that the remaining runs of the experiment still go ahead.
    """

    def __init__(self, bench_module, names):
        self.bench = bench_module
        self.names = names
        self.original = None
        self.runs = []

    def __enter__(self):
        from lazy_sliding import ConfigError, NumericalError, RunTrace
        original = self.original = self.bench.run_solver
        runs, names = self.runs, self.names

        def run_solver(config, objective, region):
            last = {}
            value = objective.value

            def recording_value(x):
                last["x"] = x
                return value(x)

            record = {"solver": names.get(config.variant, config.variant),
                      "seed": config.seed, "x0": config.x0, "error": None}
            objective.value = recording_value
            t0 = time.perf_counter()
            try:
                return original(config, objective, region)
            except (NumericalError, ConfigError) as exc:
                record["error"] = "%s: %s" % (type(exc).__name__, exc)
                return RunTrace(metadata={"variant": config.variant, "status": "error"})
            except Exception as exc:
                record["error"] = "%s: %s" % (type(exc).__name__, exc)
                raise
            finally:
                record["solve_s"] = time.perf_counter() - t0
                record["y"] = last.get("x")
                del objective.value
                runs.append(record)

        self.bench.run_solver = run_solver
        return self

    def __exit__(self, *exc):
        self.bench.run_solver = self.original
        return False


class Checks:
    """Output checks; every failure is kept with its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def _percentile(values, p):
    import numpy as np
    return float(np.percentile(np.asarray(values, dtype=float), p))


def _median(values):
    return _percentile(values, 50.0) if values else float("nan")


def _count_columns(rows):
    last = rows[-1]
    return (last["exact_lmo_calls"], last["weak_sep_calls"], last["cache_hits"],
            last["sfo_calls"], last["inner_iters"])


def analyse_round(w, round_dir, seeds, capture_runs, region, objective, checks,
                  reference=None):
    """Check one round's outputs; per-run records, final counts, traces and steps.

    A record holds, per solver and seed, the solve time, the wall time at the
    first ``f <= tau`` (None if never), the final exact-LMO count and the
    final objective.  `steps` holds per-outer-iteration wall times per solver.
    """
    from lazy_sliding import read_trace_csv
    tau = w["tau"]
    runs = {(r["solver"], r["seed"]): r for r in capture_runs}
    traces, counts = {}, {}
    record = {key: {name: {} for name in wl.SOLVERS}
              for key in ("solve_s", "crossing_s", "exact_lmo_calls", "f_final")}
    steps = {name: [] for name in wl.SOLVERS}
    for name in wl.SOLVERS:
        for seed in seeds:
            tag = "%s seed %d" % (name, seed)
            run = runs.get((name, seed))
            stem = os.path.join(round_dir, "%s__s%d" % (name, seed))
            meta = {}
            if os.path.exists(stem + ".meta.json"):
                with open(stem + ".meta.json") as fh:
                    meta = json.load(fh)
            rows = read_trace_csv(stem + ".csv") if os.path.exists(stem + ".csv") else []
            status = meta.get("status", "missing")
            if run is not None and run["error"]:
                status = run["error"]
            if not checks.check(status == "completed" and run is not None and rows,
                                "%s: status %s" % (tag, status)):
                for what in ("finite", "descent", "feasible"):
                    checks.check(False, "%s: %s not checkable" % (tag, what))
                continue
            traces[(name, seed)] = rows
            f = [r["f_value"] for r in rows]
            checks.check(all(math.isfinite(v) for v in f), "%s: non-finite f_value" % tag)
            f0 = objective.value(run["x0"])
            checks.check(f[-1] <= f0, "%s: f_final %.6g > f(x0) %.6g" % (tag, f[-1], f0))
            y = run["y"]
            checks.check(y is not None and bool(region.contains(y)),
                         "%s: final point infeasible" % tag)
            counts[(name, seed)] = _count_columns(rows)
            if reference is not None:
                checks.check(reference.get((name, seed)) == counts[(name, seed)],
                             "%s: counts differ from the first round" % tag)
            key = str(seed)
            record["solve_s"][name][key] = run["solve_s"]
            hit = next((r for r in rows if r["f_value"] <= tau), None)
            record["crossing_s"][name][key] = None if hit is None else hit["wall_ms"] / 1e3
            record["exact_lmo_calls"][name][key] = rows[-1]["exact_lmo_calls"]
            record["f_final"][name][key] = f[-1]
            wall = [r["wall_ms"] for r in rows]
            steps[name] += [b - a for a, b in zip([0.0] + wall[:-1], wall)]
    for seed in seeds:
        lazy, eager = traces.get(("lazy", seed)), traces.get(("eager", seed))
        tag = "seed %d" % seed
        checks.check(lazy is not None and eager is not None
                     and [r["sfo_calls"] for r in lazy] == [r["sfo_calls"] for r in eager],
                     "%s: lazy and eager sfo_calls columns differ" % tag)
        for name, rows in (("lazy", lazy), ("eager", eager)):
            checks.check(rows is not None and any(r["f_value"] <= tau for r in rows),
                         "%s %s: never reaches f <= %g" % (name, tag, tau))
    return record, counts, traces, steps


def summarize_rounds(w, rounds, steps):
    """Aggregate untraced rounds into the run's metrics.

    Times are medians over rounds, taken per (solver, seed) before summing
    or taking the median over seeds, so one slow round moves no metric by
    itself.  Step percentiles pool every step of every round; the tail
    percentile is chosen from the steps of one round.
    """
    out = {"experiment_s": _median([r["experiment_s"] for r in rounds])}
    first = rounds[0]
    for name in wl.SOLVERS:
        seeds = sorted(first["solve_s"][name])

        def per_seed(key):
            return [_median([r[key][name][s] for r in rounds
                             if r[key][name].get(s) is not None]) for s in seeds]

        out["%s.solve_s" % name] = sum(per_seed("solve_s"))
        out["%s.time_to_target_s" % name] = _median(per_seed("crossing_s"))
        lmo = [first["exact_lmo_calls"][name][s] for s in seeds]
        out["%s.exact_lmo_calls" % name] = _median(lmo)
        out["%s.exact_lmo_total" % name] = sum(lmo)
        out["%s.f_final" % name] = _median([first["f_final"][name][s] for s in seeds])
        pooled = steps[name]
        if pooled:
            p = wl.tail_percentile(len(pooled) // len(rounds))
            out["%s.step_ms.p50" % name] = _percentile(pooled, 50.0)
            out["%s.step_ms.tail" % name] = _percentile(pooled, p)
            out["%s.step_ms.tail_percentile" % name] = p
            out["%s.step_ms.samples" % name] = len(pooled)
    return out


def experiment(name, workdir, seed, seconds, trace):
    """Untraced rounds for `seconds` (at least MIN_ROUNDS), then one traced round."""
    import lazy_sliding.bench as bench
    from lazy_sliding import load_instance, run_experiment
    import layers

    w = wl.WORKLOADS[name]
    seeds = wl.solver_seeds(w, seed)
    path = os.path.join(workdir, "instance.json")
    config = wl.experiment_config(w, path, seeds)
    with open(os.path.join(workdir, "experiment.json"), "w") as fh:
        json.dump(config, fh, indent=1)
    region, objective, _ = load_instance(path)
    names = {v: k for k, v in wl.VARIANTS.items()}
    checks = Checks()

    def one_round(label, reference=None):
        round_dir = os.path.join(workdir, "runs", label)
        with Capture(bench, names) as cap:
            t0 = time.perf_counter()
            try:
                run_experiment(config, base_dir=workdir, out_dir=round_dir, jobs=1)
                raised = None
            except Exception as exc:
                traceback.print_exc()
                raised = "%s: %s" % (type(exc).__name__, exc)
            elapsed = time.perf_counter() - t0
        checks.check(raised is None, "round %s: run_experiment raised %s" % (label, raised))
        record, counts, traces, steps = analyse_round(w, round_dir, seeds, cap.runs, region,
                                                      objective, checks, reference)
        record["experiment_s"] = elapsed
        return record, counts, traces, steps

    start = time.perf_counter()
    rounds, reference, first_traces = [], None, None
    pooled = {name: [] for name in wl.SOLVERS}
    while True:
        t = time.perf_counter()
        record, counts, traces, steps = one_round("r%d" % len(rounds), reference)
        rounds.append(record)
        for key in pooled:
            pooled[key] += steps[key]
        if reference is None:
            reference, first_traces = counts, traces
        took = time.perf_counter() - t
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() - start + took > seconds:
            break

    result = {"rounds": rounds, "summary": summarize_rounds(w, rounds, pooled),
              "peak_rss_mb": _peak_rss_mb()}
    if trace:
        tracer = layers.Tracer(names)
        with tracer:
            traced, _, traces, _ = one_round("traced", reference)
        result["traced"] = traced
        result["layers"] = _traced_layers(tracer, traces, first_traces, checks)
    result["attempted"] = checks.attempted
    result["failures"] = checks.failures
    return result


def _traced_layers(tracer, traces, first_traces, checks):
    """Per-layer metrics of the traced round, checked against the program's counters."""
    import layers
    out = {"setup": layers.setup_metrics(tracer), "solvers": {}}
    for name in wl.SOLVERS:
        m = layers.solver_metrics(tracer, name)
        out["solvers"][name] = m
        finals = [rows[-1] for (solver, _), rows in traces.items() if solver == name]
        expect = {
            "regions.lmo.calls": sum(r["exact_lmo_calls"] for r in finals),
            "oracle.weak_sep.calls": sum(r["weak_sep_calls"] for r in finals),
            "oracle.cache.hits": sum(r["cache_hits"] for r in finals),
            "objectives.sfo.samples": sum(r["sfo_calls"] for r in finals),
        }
        for key, want in expect.items():
            checks.check(m[key] == want, "traced %s %s = %s, program counted %s"
                         % (name, key, m[key], want))
        total = layers.self_time_sum_ms(tracer, name)
        checks.check(abs(total - m["solve_ms"]) <= 1e-6 * max(1.0, m["solve_ms"]),
                     "traced %s: layer self times sum to %.6f ms, solve took %.6f ms"
                     % (name, total, m["solve_ms"]))
    for key, rows in traces.items():
        checks.check(_without_wall(rows) == _without_wall(first_traces.get(key, [])),
                     "traced %s seed %d: trace differs from untraced" % key)
    return out


def _without_wall(rows):
    """Trace rows minus `wall_ms`, as exact reprs (NaN compares equal to NaN)."""
    return [[repr(v) for k, v in r.items() if k != "wall_ms"] for r in rows]


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv):
    mode, name, workdir = argv[0], argv[1], argv[2]
    if mode == "setup":
        out = setup(name, workdir)
    elif mode == "experiment":
        out = experiment(name, workdir, int(argv[3]), float(argv[4]), argv[5] == "1")
    else:
        raise SystemExit("unknown mode %r" % mode)
    out["provenance"] = provenance()
    print(json.dumps(out))


def provenance():
    import platform

    import numpy
    import scipy
    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (info.get("name"), info.get("version"))
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


if __name__ == "__main__":
    main(sys.argv[1:])
