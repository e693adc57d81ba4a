"""Golden traces: the runs of fixed experiments, checked bit for bit.

Each case generates its instance from a spec and runs an experiment config
on it: the three benchmark workloads (their generator specs and experiment
configs, copied here so that these tests do not import the benchmark) at
their first solver seeds, and one short run of every solver variant that an
experiment config can name.  `golden_traces.json` holds, per run, the final
counters and row count, ``float.hex`` of the final f, a sha256 over every
trace column but ``wall_ms`` and one over the ``.meta.json`` bytes, per
case the sha256 of the instance file, and once the provenance (numpy,
scipy and the BLAS each was built against).

When the provenance matches, every hash must match.  Otherwise the counts
must still match exactly and f to 1e-9 relative, and the test warns that
bit identity went unchecked.  A change that moves bits on purpose rewrites
the file with

    PYTHONPATH=src python tests/test_golden_traces.py

and lists the drift it shows in ``git diff``.
"""

import hashlib
import json
import os
import tempfile
import warnings

import numpy as np
import pytest
import scipy

from lazy_sliding.bench import gen_instance, run_experiment, write_json

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_traces.json")


def _workload(region, m, density, outer, ofw_steps, seeds):
    """The benchmark's generator spec and experiment config of one workload."""
    spec = {"region": region, "objective": {"type": "least_squares", "m": m, "density": density},
            "seed": 11}
    fixed_n = {"tag": "smooth_stochastic_fixed_n"}
    config = {"seeds": list(range(seeds)), "budgets": {"outer": outer}, "solvers": [
        {"name": "lazy", "variant": "calsgd", "batch": 128, "cache_capacity": 512,
         "schedule": dict(fixed_n)},
        {"name": "eager", "variant": "scgs", "batch": 128, "cache_capacity": 0,
         "schedule": dict(fixed_n)},
        {"name": "ofw", "variant": "ofw", "outer": ofw_steps},
    ]}
    return spec, config


# Every variant an experiment config can run (calgd_saddle needs a saddle
# objective, which no generated instance is), on a small layered-DAG instance.
_VARIANTS = (
    {"region": {"kind": "layered_dag", "layers": 3, "width": 3},
     "objective": {"type": "least_squares", "m": 200, "density": 0.5}, "seed": 3},
    {"seeds": [0], "budgets": {"outer": 20}, "solvers": [
        {"variant": "calsgd", "schedule": {"tag": "smooth_stochastic"}, "batch": 16},
        {"variant": "calgd", "schedule": {"tag": "smooth_deterministic_fixed_n"}},
        {"variant": "calgd_sc", "eps": 0.1, "constants": {"mu": 100.0}},
        {"variant": "calsgd_sc", "eps": 0.1, "constants": {"mu": 100.0}, "batch": 16},
        {"variant": "calsgd_nonsmooth", "schedule": {"tag": "nonsmooth_stochastic"},
         "constants": {"M": 10.0}},
        {"variant": "scgs", "schedule": {"tag": "smooth_deterministic"}},
        {"variant": "ofw", "outer": 50},
    ]},
)

CASES = {
    "ham7": _workload({"kind": "hamiltonian_cycles", "nodes": 7}, 10000, 0.6, 450, 1000, 5),
    "birkhoff50": _workload({"kind": "birkhoff", "n": 50}, 2000, 0.05, 60, 300, 2),
    "spectra30": _workload({"kind": "spectrahedron", "n": 30}, 2000, 0.1, 30, 40, 3),
    "variants": _VARIANTS,
}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def provenance():
    """numpy's and scipy's versions and the BLAS (name and version) each was built with."""
    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):  # a numpy or scipy too old to report it
            return "unknown"
        return "%s %s" % (info.get("name"), info.get("version"))
    return {"numpy": np.__version__, "numpy_blas": blas(np),
            "scipy": scipy.__version__, "scipy_blas": blas(scipy)}


def record(case, workdir):
    """The golden record of a case's runs, made in ``workdir``."""
    spec, config = CASES[case]
    instance = os.path.join(workdir, "instance.json")
    write_json(instance, gen_instance(spec))
    out = os.path.join(workdir, "runs")
    summary, code = run_experiment(dict(config, instance=instance), out_dir=out)
    assert code == 0, summary
    runs = {}
    for fname in sorted(os.listdir(out)):
        if not fname.endswith(".csv"):
            continue
        path = os.path.join(out, fname)
        with open(path) as fh:
            lines = [line.split(",") for line in fh.read().splitlines()]
        wall = lines[0].index("wall_ms")
        with open(path[:-4] + ".meta.json", "rb") as fh:
            meta = fh.read()
        runs[fname[:-4]] = {
            "counts": dict(json.loads(meta)["final_counters"], rows=len(lines) - 1),
            "f_final": float(lines[-1][lines[0].index("f_value")]).hex(),
            "trace_sha256": _sha256("\n".join(
                ",".join(row[:wall] + row[wall + 1:]) for row in lines).encode()),
            "meta_sha256": _sha256(meta),
        }
    with open(instance, "rb") as fh:
        return {"instance_sha256": _sha256(fh.read()), "runs": runs}


@pytest.mark.parametrize("case", sorted(CASES))
def test_runs_match_golden_traces(tmp_path, case):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    want, got = golden["cases"][case], record(case, str(tmp_path))
    assert sorted(got["runs"]) == sorted(want["runs"])
    for name, run in want["runs"].items():
        assert got["runs"][name]["counts"] == run["counts"], name
        f_want, f_got = (float.fromhex(r["f_final"]) for r in (run, got["runs"][name]))
        assert abs(f_got - f_want) <= 1e-9 * abs(f_want), name
    if golden["provenance"] != provenance():
        warnings.warn("golden traces of %r: counts and f checked, bit identity unchecked, "
                      "since numpy, scipy or their BLAS differ from %s"
                      % (case, golden["provenance"]))
        return
    assert got == want


def main():
    """Rewrite `golden_traces.json` from the runs of this checkout."""
    cases = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as workdir:
            cases[case] = record(case, workdir)
    with open(GOLDEN, "w") as fh:
        json.dump({"provenance": provenance(), "cases": cases}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % (GOLDEN,))


if __name__ == "__main__":
    main()
