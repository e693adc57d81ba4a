import base64
import csv
import itertools
import json
import math
import os
import pickle
import warnings

import numpy as np
import pytest

import lazy_sliding
import lazy_sliding.bench as bench
import lazy_sliding.cli as cli
import lazy_sliding.lcg as lcg
import lazy_sliding.regions as regions
from lazy_sliding.bench import (
    gen_instance,
    load_instance,
    parse_seeds,
    run_experiment,
    summarize,
    write_json,
)
from lazy_sliding.cli import _print_summary, main
from lazy_sliding.errors import ConfigError, NumericalError
from lazy_sliding.objectives import CsrMatrix
from lazy_sliding.regions import (
    cut_polytope_vertices,
    hamiltonian_cycle_vertices,
    layered_dag_edges,
    svec,
)
from lazy_sliding.trace import TRACE_COLUMNS, TRACE_HEADER, RunTrace, TraceTable, read_trace_csv

from helpers import b64decode_array, run_fresh, traced_peak

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


def _encoded(a, dtype="<f8"):
    """``a`` as an instance file stores it, in the byte order ``dtype`` names."""
    a = np.asarray(a, dtype=dtype)
    return {"__ndarray__": a.dtype.str, "shape": list(a.shape),
            "base64": base64.b64encode(a.tobytes()).decode("ascii")}


def test_write_json_bytes_are_compact_sorted_dumps(tmp_path):
    obj = dict(gen_instance(SIMPLEX_SPEC), extra={"b": [1.5, -0.0, 1e-300], "a": None})
    path = tmp_path / "out.json"
    write_json(str(path), obj)
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_encoded) + "\n"
    assert path.read_bytes() == text.encode()


def test_import_does_not_load_scipy_optimize():
    out = run_fresh("import sys, lazy_sliding; print('scipy.optimize' in sys.modules)")
    assert out.strip() == "False"


def _experiment_loads(tmp_path, spec, *modules):
    """Per module, whether a fresh process that runs lazy, scgs and ofw on the
    instance of ``spec`` (two seeds, 20 outer iterations) has it in
    sys.modules, and {extension: name of the module loaded for it} of what
    `compiled.kernel` then holds; every point whose value a trace row
    records must be in the region."""
    config = {"seeds": [0, 1], "budgets": {"outer": 20},
              "solvers": _paired_entries(outer=20) + [{"name": "ofw", "variant": "ofw"}]}
    code = ("import json, sys\n"
            "from lazy_sliding import compiled, objectives\n"
            "from lazy_sliding.bench import gen_instance, load_instance, run_experiment, write_json\n"
            "points, value = [], objectives.LeastSquares.value\n"
            "objectives.LeastSquares.value = lambda self, x: points.append(x) or value(self, x)\n"
            "path, out = sys.argv[1], sys.argv[2]\n"
            "write_json(path, gen_instance(json.loads(sys.argv[3])))\n"
            "config = dict(json.loads(sys.argv[4]), instance=path)\n"
            "assert run_experiment(config, out_dir=out)[1] == 0\n"
            "region = load_instance(path)[0]\n"
            "assert len(points) > 100 and all(region.contains(x) for x in points)\n"
            "held = {name: module.__name__ for name, module in compiled.loaded.items()}\n"
            "print(json.dumps([[m in sys.modules for m in sys.argv[5:]], held]))")
    out = run_fresh(code, str(tmp_path / "instance.json"), str(tmp_path / "runs"),
                    json.dumps(spec), json.dumps(config), *modules)
    return json.loads(out)


def test_enumerated_experiment_does_not_load_scipy_optimize(tmp_path):
    # membership in an enumerated region is a minimum-norm point, not an LP:
    # one NNLS from scipy's compiled module, loaded without importing scipy
    spec = {"region": {"kind": "hamiltonian_cycles", "nodes": 5},
            "objective": {"m": 40, "density": 0.8}, "seed": 3}
    loaded, held = _experiment_loads(tmp_path, spec, "scipy.optimize", "scipy")
    assert loaded == [False, False]
    assert held == {"scipy.optimize._slsqplib": "scipy.optimize._slsqplib"}


def test_birkhoff_experiment_loads_only_the_assignment_solver(tmp_path):
    # the Birkhoff LMO loads scipy's compiled assignment module by itself,
    # without importing scipy, not even its top-level package
    spec = {"region": {"kind": "birkhoff", "n": 6},
            "objective": {"m": 40, "density": 0.8}, "seed": 3}
    loaded, held = _experiment_loads(tmp_path, spec, "scipy.optimize", "scipy")
    assert loaded == [False, False]
    assert held == {"scipy.optimize._lsap": "scipy.optimize._lsap"}


def test_csr_experiment_loads_only_the_sparse_kernels(tmp_path):
    # CSR least squares runs scipy's compiled CSR kernels, loaded by themselves
    loaded, held = _experiment_loads(tmp_path, CSR_SPEC, "scipy.sparse", "scipy")
    assert loaded == [False, False]
    assert held == {"scipy.sparse._sparsetools": "scipy.sparse._sparsetools"}


def test_instance_with_a_non_finite_vertex_exits_2(tmp_path, capsys):
    # a non-finite vertex, dense A entry, CSR A entry or b entry is rejected
    # at load, before any run
    def vertex(inst):
        inst["region"]["vertices"][3][2] = float("nan")

    def entry(key, bad):
        def spoil(inst):
            values = inst["objective"]["A"]["data"] if key == "A" else inst["objective"]["b"]
            values.flat[values.size // 2] = bad
        return spoil

    ham5 = {"region": {"kind": "hamiltonian_cycles", "nodes": 5}, "objective": {"m": 20}, "seed": 1}
    for spec, spoil in [(ham5, vertex), (ham5, entry("A", np.nan)), (CSR_SPEC, entry("A", np.inf)),
                        (CSR_SPEC, entry("A", np.nan)), (CSR_SPEC, entry("b", np.nan)),
                        (ham5, entry("b", -np.inf))]:
        inst = gen_instance(spec)
        spoil(inst)
        write_json(str(tmp_path / "bad.json"), inst)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instance": str(tmp_path / "bad.json"), "solvers": [CALGD_ENTRY]}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "NaN or infinite" in err and "Traceback" not in err
        assert not out.exists()


def test_import_does_not_load_multiprocessing():
    # only an experiment run with jobs > 1 needs the process pool
    out = run_fresh("import sys, lazy_sliding; print('multiprocessing' in sys.modules)")
    assert out.strip() == "False"


def test_import_does_not_load_scipy_sparse(tmp_path):
    code = ("import json, sys\n"
            "from lazy_sliding.bench import gen_instance, load_instance, write_json\n"
            "write_json(sys.argv[1], gen_instance(json.loads(sys.argv[2])))\n"
            "load_instance(sys.argv[1])\n"
            "print('scipy.sparse' in sys.modules)")
    out = run_fresh(code, str(tmp_path / "i.json"), json.dumps(SIMPLEX_SPEC))
    assert out.strip() == "False"


@pytest.mark.parametrize("packages_first", [False, True], ids=["after", "before"])
def test_packages_imported_around_a_lone_extension_hold_it(packages_first):
    # an extension loaded alone leaves no sys.modules entry behind, so a
    # later import of its package loads it there and sets the attribute;
    # the entry of a package imported before stays
    imports = "import scipy.optimize, scipy.sparse\n"
    code = ("import sys\n"
            "import numpy as np\n"
            "from lazy_sliding.compiled import kernel\n"
            + (imports if packages_first else "") +
            "lsap, matvec = kernel('linear_sum_assignment'), kernel('csr_matvec')\n"
            + ("" if packages_first else imports) +
            "assert scipy.optimize._lsap.linear_sum_assignment is lsap\n"
            "assert scipy.sparse._sparsetools.csr_matvec is matvec\n"
            "assert sys.modules['scipy.optimize._lsap'] is scipy.optimize._lsap\n"
            "assert sys.modules['scipy.sparse._sparsetools'] is scipy.sparse._sparsetools\n"
            "rows, cols = scipy.optimize.linear_sum_assignment(1.0 - np.eye(3))\n"
            "y = scipy.sparse.csr_matrix(np.diag([1.0, 2.0])) @ np.ones(2)\n"
            "print(cols.tolist(), y.tolist())")
    assert run_fresh(code).strip() == "[0, 1, 2] [1.0, 2.0]"


CSR_SPEC = {
    "region": {"kind": "simplex", "n": 60},
    "objective": {"m": 300, "density": 0.1},
    "seed": 1,
}


@pytest.mark.parametrize("density,seed", [(0.02, 1), (0.02, 2), (0.1, 3)])
def test_gen_csr_arrays_are_the_arrays_of_scipy_csr_matrix(density, seed):
    # gen_instance builds the CSR arrays with numpy; they must be the very
    # arrays scipy.sparse.csr_matrix makes of the generator's dense draw
    import scipy.sparse as sp

    m, n = CSR_SPEC["objective"]["m"], CSR_SPEC["region"]["n"]
    rng = np.random.default_rng(seed)
    mask = rng.random((m, n)) < density
    want = sp.csr_matrix(np.where(mask, rng.random((m, n)), 0.0))
    got = gen_instance(dict(CSR_SPEC, seed=seed, objective=dict(CSR_SPEC["objective"],
                                                                density=density)))["objective"]["A"]
    assert got["shape"] == list(want.shape)
    for key in ("data", "indices", "indptr"):
        assert got[key].dtype == getattr(want, key).dtype, key
        assert np.array_equal(got[key], getattr(want, key)), key
    if density < 0.1:
        assert np.count_nonzero(np.diff(want.indptr) == 0) > 0  # empty rows


# CSR specs whose m is neither a multiple of 4 nor of the generator's block
# height (372 rows at n = 700, 872 at 300, 84 at 3001), one with fewer than 4
# rows, and one whose blocks would leave a last block of 2 rows; then dense
# specs: one in several blocks, one of fewer than 4 rows, one of 5 rows, and
# birkhoff n = 50 at m = 1001, whose b one BLAS call rounds differently at 2
# threads than at 1
ROW_BLOCK_SPECS = [
    {"region": {"kind": "simplex", "n": 700}, "objective": {"m": 1390, "density": 0.2}, "seed": 2},
    {"region": {"kind": "simplex", "n": 700}, "objective": {"m": 746, "density": 0.2}, "seed": 3},
    {"region": {"kind": "box", "n": 300}, "objective": {"m": 901, "density": 0.25}, "seed": 4},
    {"region": {"kind": "simplex", "n": 3001}, "objective": {"m": 517, "density": 0.01}, "seed": 5},
    {"region": {"kind": "simplex", "n": 5001}, "objective": {"m": 3, "density": 0.01}, "seed": 6},
    {"region": {"kind": "simplex", "n": 700}, "objective": {"m": 1390, "density": 0.5}, "seed": 7},
    {"region": {"kind": "box", "n": 40}, "objective": {"m": 3, "density": 0.6}, "seed": 8},
    {"region": {"kind": "hamiltonian_cycles", "nodes": 5}, "objective": {"m": 5, "density": 1.0},
     "seed": 9},
    {"region": {"kind": "birkhoff", "n": 50}, "objective": {"m": 1001, "density": 0.3}, "seed": 0},
]


def _row_block_draws(threads):
    """Per spec of ROW_BLOCK_SPECS, A's format and the sha256 of each array (A's dense or CSR
    parts, b, x_star) of `gen_instance` and of the whole-matrix reference, in a fresh process
    at ``threads`` BLAS threads."""
    code = ("import hashlib, json, os, sys\n"
            "os.environ['OPENBLAS_NUM_THREADS'] = sys.argv[1]  # read when numpy loads\n"
            "sys.path.insert(0, sys.argv[2])\n"
            "from helpers import dense_csr_draw\n"
            "from lazy_sliding.bench import gen_instance\n"
            "out = []\n"
            "for spec in json.loads(sys.argv[3]):\n"
            "    o = gen_instance(spec)['objective']\n"
            "    got = dict(o['A'], b=o['b'], x_star=o['x_star'])\n"
            "    out.append([{k: a[k] if k == 'format' else\n"
            "                 hashlib.sha256(a[k].tobytes()).hexdigest() + str(a[k].dtype)\n"
            "                 for k in a if k != 'shape'} for a in (got, dense_csr_draw(spec))])\n"
            "print(json.dumps(out))")
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    return json.loads(run_fresh(code, str(threads), tests_dir, json.dumps(ROW_BLOCK_SPECS)))


def test_row_block_draw_is_the_whole_draw_at_one_and_two_blas_threads():
    # every array is the whole-matrix draw's bit for bit at one BLAS thread,
    # dense or CSR; b is the same at 2 threads, because it is formed in the
    # 4-row groups one thread forms, while the reference's b at 2 threads
    # follows OpenBLAS's thread split
    one, two = _row_block_draws(1), _row_block_draws(2)
    assert [got["format"] for got, _ in one] == ["csr"] * 5 + ["dense"] * 4
    for (got1, want1), (got2, want2) in zip(one, two):
        assert got1 == want1
        assert got2 == got1
        assert dict(got2, b=None) == dict(want2, b=None)


def test_csr_gen_holds_no_dense_matrix():
    # the birkhoff50 benchmark instance: 2000 x 2500 at density 0.05, whose
    # dense draw peaked at 82 MB of Python allocations
    spec = {"region": {"kind": "birkhoff", "n": 50}, "objective": {"m": 2000, "density": 0.05},
            "seed": 11}
    with traced_peak() as usage:
        inst = gen_instance(spec)
    assert inst["objective"]["A"]["format"] == "csr"
    assert usage.peak < 24 * 2 ** 20


def test_dense_gen_holds_one_matrix():
    # A (3000 x 2000, 45.8 MiB) is drawn into place; the whole-matrix draw
    # held the mask, the values and A at once and peaked at 97.3 MiB
    spec = {"region": {"kind": "simplex", "n": 2000}, "objective": {"m": 3000, "density": 0.5},
            "seed": 1}
    with traced_peak() as usage:
        inst = gen_instance(spec)
    assert inst["objective"]["A"]["format"] == "dense"
    assert usage.peak < 60 * 2 ** 20


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
    CsrMatrix([], [], [0], (0, 1))  # loads the CSR kernels: the load is measured, not that
    spec = {"region": {"kind": "simplex", "n": 2500},
            "objective": {"m": 2000, "density": 0.05}, "seed": 3}
    path, _ = _write_instance(tmp_path, spec)
    with traced_peak() as usage:
        load_instance(path)
    assert usage.peak <= 16e6  # the same file with list-form arrays peaks at ~23 MB


def _ndarrays(node, path=()):
    """(path, array) of every ndarray in an instance tree."""
    if isinstance(node, np.ndarray):
        yield path, node
    elif isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _ndarrays(value, path + (key,))


def test_loaded_arrays_equal_the_first_decoders(tmp_path):
    # a hand-written instance: an empty CSR matrix (4 x 3, int32 indices and
    # int64 indptr), a big-endian b, a list-form x_star, and more arrays
    # under a key that load_instance only decodes
    rng = np.random.default_rng(4)
    inst = {"region": {"kind": "simplex", "n": 3},
            "objective": {"A": {"format": "csr", "data": _encoded([], "<f8"),
                                "indices": _encoded([], "<i4"),
                                "indptr": _encoded(np.zeros(5), "<i8"), "shape": [4, 3]},
                          "b": _encoded(rng.standard_normal(4), ">f8"),
                          "x_star": [0.25, 0.25, 0.5]},
            "extra": [_encoded(rng.standard_normal((2, 3)), "<f8"),
                      {"i": _encoded(np.arange(-3, 3).reshape(3, 2), "<i4"),
                       "empty": _encoded(np.zeros((0, 4)), "<f8"),
                       "rows": [[1.5, -0.0], [1e-300, 2.0]]}]}
    path = tmp_path / "hand.json"
    path.write_text(json.dumps(inst))
    # the reference: the file decoded the way instance files were first read
    old = json.loads(path.read_text(), object_hook=lambda d: (
        b64decode_array(d) if "__ndarray__" in d else d))
    _, objective, loaded = load_instance(str(path))
    want, got = dict(_ndarrays(old)), dict(_ndarrays(loaded))
    assert set(got) == set(want) and len(got) == 7
    for key, array in got.items():
        assert (array.dtype, array.shape) == (want[key].dtype, want[key].shape), key
        assert array.tobytes() == want[key].tobytes(), key
    assert got[("objective", "b")].dtype == np.dtype("=f8")
    assert loaded["objective"]["x_star"] == old["objective"]["x_star"] == [0.25, 0.25, 0.5]
    assert loaded["extra"][1]["rows"] == old["extra"][1]["rows"] == [[1.5, -0.0], [1e-300, 2.0]]
    assert np.array_equal(objective.A @ np.ones(3), np.zeros(4))


@pytest.mark.parametrize("spec", [SIMPLEX_SPEC, CSR_SPEC], ids=["dense", "csr"])
def test_loaded_arrays_are_read_only(tmp_path, spec):
    path, _ = _write_instance(tmp_path, spec)
    big_endian = tmp_path / "big_endian.json"
    big_endian.write_text(json.dumps(dict(json.loads(open(path).read()), extra=_encoded(
        np.arange(3.0), ">f8"))))
    for file in (path, str(big_endian)):
        arrays = [a for _, a in _ndarrays(load_instance(file)[2])]
        assert len(arrays) >= 3
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                array += 1


@pytest.mark.parametrize("spec", [
    {"region": {"kind": "hamiltonian_cycles", "nodes": 7},
     "objective": {"m": 4000, "density": 0.6}, "seed": 11},
    {"region": {"kind": "simplex", "n": 2500},
     "objective": {"m": 2000, "density": 0.05}, "seed": 3},
], ids=["ham7_dense", "csr"])
def test_load_instance_peaks_near_twice_the_file(tmp_path, spec):
    # the read holds the file's bytes and text, the parse its text and the
    # base64 strings; each array is decoded only once the text is gone
    CsrMatrix([], [], [0], (0, 1))  # loads the CSR kernels: the load is measured, not that
    path, _ = _write_instance(tmp_path, spec)
    with traced_peak() as usage:
        load_instance(path)
    assert usage.peak <= 2.25 * os.path.getsize(path)


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


def _work_before_the_check(*args):
    raise AssertionError("work done before the spec was checked")


class _NoDraws:
    """A stand-in generator whose every draw fails."""

    def __getattr__(self, name):
        return _work_before_the_check


@pytest.mark.parametrize("objective,fault", [
    ({"format": "csr"}, "'format'; it takes density, m, type"),  # the data decides CSR
    ({"type": "logistic"}, "only least_squares objectives"),
    ({"m": 0}, "m must be >= 1"),
    ({"density": 0.0}, "density must be a number"),
])
def test_bad_objective_spec_fails_before_any_work(monkeypatch, objective, fault):
    monkeypatch.setattr(bench.np.random, "default_rng", lambda *args: _NoDraws())
    monkeypatch.setattr(bench, "region_from_spec", _work_before_the_check)
    with pytest.raises(ConfigError, match=fault):
        gen_instance(dict(SIMPLEX_SPEC, objective=dict(SIMPLEX_SPEC["objective"], **objective)))


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


def test_enumerations_are_capped_before_they_are_enumerated(monkeypatch):
    def no_permutations(*args):
        raise AssertionError("permutations listed before the cap was checked")

    monkeypatch.setattr(regions.itertools, "permutations", no_permutations)
    # K_9 has 8!/2 = 20160 Hamiltonian cycles
    with pytest.raises(ConfigError, match="hamiltonian cycle enumeration capped at 5000"):
        gen_instance(dict(SIMPLEX_SPEC, region={"kind": "hamiltonian_cycles", "nodes": 9}))
    with pytest.raises(ValueError, match="cut polytope enumeration capped at 5000 vertices"):
        cut_polytope_vertices(14)


def test_enumeration_caps_are_checked_without_computing_the_count():
    # (10**5 - 1)! has 456569 digits and 2**(10**7 - 1) has 3010300: neither
    # is formed just to be compared with the cap
    for enumerate_vertices, nodes, what in [(hamiltonian_cycle_vertices, 10 ** 5, "hamiltonian"),
                                            (cut_polytope_vertices, 10 ** 7, "cut polytope")]:
        with traced_peak() as usage:
            with pytest.raises(ValueError, match=what + ".* capped at 5000 vertices"):
                enumerate_vertices(nodes)
        assert usage.peak <= 64 << 10, (what, usage.peak)


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

# a restart's phase plan, not an outer, sets its length, so it takes no outer
RESTART_ENTRY = {"name": "calgd_sc", "variant": "calgd_sc", "eps": 1e-3}


def test_batch_on_an_exact_gradient_entry_is_rejected(tmp_path):
    # a run whose schedule takes exact gradients would ignore the batch
    for entry in (dict(CALGD_ENTRY, batch=128), dict(CALGD_ENTRY, variant="scgs", batch=128),
                  dict(RESTART_ENTRY, batch=4, constants={"mu": 1.0})):
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
        {"name": "bad", "variant": "calgd_sc"},
        dict(CALGD_ENTRY, name="bad", alpha=0.5),
        # alpha is the solver's setting, not a problem constant
        dict(CALGD_ENTRY, name="bad", constants={"alpha": 4}),
        # a value the variant never reads: the baselines run at alpha = 1 with
        # no cache, and only a restart variant reads eps
        dict(CALGD_ENTRY, name="bad", variant="scgs", alpha=4),
        dict(CALGD_ENTRY, name="bad", variant="scgs", cache_capacity=64),
        dict(CALGD_ENTRY, name="bad", variant="ofw", schedule=None, alpha=3),
        dict(CALGD_ENTRY, name="bad", variant="ofw", schedule=None, cache_capacity=7),
        dict(CALGD_ENTRY, name="bad", variant="calsgd", schedule={"tag": "smooth_stochastic"},
             eps=0.5),
        dict(RESTART_ENTRY, name="bad", constants={"mu": 1.0}, outer=60),
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
        dict(RESTART_ENTRY, name="bad", constants={"L": 0.0, "mu": 1.0}),
        # a fractional, boolean or string count is not truncated or converted
        dict(CALGD_ENTRY, name="bad", batch=1.5),
        dict(CALGD_ENTRY, name="bad", batch=True),
        dict(CALGD_ENTRY, name="bad", outer=2.7),
        dict(CALGD_ENTRY, name="bad", outer="4"),
        dict(CALGD_ENTRY, name="bad", cache_capacity=3.9),
        dict(CALGD_ENTRY, name="bad", schedule={"tag": "smooth_deterministic_fixed_n", "N": 10.5}),
        dict(CALGD_ENTRY, name="bad", schedule={"tag": "smooth_deterministic", "s": "1"}),
        dict(RESTART_ENTRY, name="bad"),  # no mu
        # a NaN eps plans zero restart phases
        dict(RESTART_ENTRY, name="bad", eps=float("nan"), constants={"mu": 1.0}),
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
    # an unknown constant is named with the constants an entry takes
    config = _experiment(tmp_path, [dict(CALGD_ENTRY, constants={"L_typo": 1.0})])
    with pytest.raises(ConfigError, match=r"unknown key\(s\) 'L_typo'; it takes .*\bL, M\b"):
        run_experiment(config, out_dir=str(tmp_path / "typo_runs"))
    # a time budget that is not a finite number of seconds >= 0: a string
    # fails in the first run, NaN never stops a run and -1 stops every one
    for wall_seconds in ("10", float("nan"), -1):
        config = _experiment(tmp_path, [CALGD_ENTRY])
        config["budgets"]["wall_seconds"] = wall_seconds
        out = tmp_path / "timed_runs"
        with pytest.raises(ConfigError, match="time_limit"):
            run_experiment(config, out_dir=str(out))
        assert not out.exists()


def test_restart_run_length_is_its_phase_plan(tmp_path):
    # the budget's outer is only a default, which a restart entry does not read
    for variant in ("calgd_sc", "calsgd_sc"):
        lengths = set()
        for outer in (1, 500):
            entry = dict(RESTART_ENTRY, name=variant, variant=variant, eps=0.1,
                         constants={"mu": 100.0})
            out = tmp_path / ("%s_%d" % (variant, outer))
            _, code = run_experiment(_experiment(tmp_path, [entry], outer=outer), out_dir=str(out))
            meta = json.loads((out / ("%s__s0.meta.json" % variant)).read_text())
            rows = read_trace_csv(str(out / ("%s__s0.csv" % variant)))
            assert code == 0 and meta["outer_limit"] is None and meta["phases"] > 1
            assert len(rows) == meta["phase_length"] * meta["phases"]
            lengths.add(len(rows))
        assert len(lengths) == 1


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


def test_print_summary_names_the_failed_iteration_and_constant(capsys):
    _print_summary({"thresholds": [], "solvers": {},
                    "budget_errors": [{"solver": "lazy", "seed": 3, "message": "cap hit",
                                       "failed_outer_k": 7, "failed_constant": None}],
                    "errors": [{"solver": "calgd", "seed": 0, "message": "no L",
                                "failed_outer_k": None, "failed_constant": "L"}]})
    assert capsys.readouterr().err.splitlines() == [
        "BUDGET ERROR lazy seed=3 failed_outer_k=7: cap hit",
        "ERROR calgd seed=0 failed_outer_k=None failed_constant=L: no L"]


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
    assert estimated.sigma2 == lazy_sliding.estimate_sigma2(objective, x0)


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


@pytest.mark.parametrize("x_star,fault", [(np.full(6, 0.5), "x0 lies outside the region"),
                                          (np.full(3, 1 / 3), r"x0 has shape \(3,\)")])
def test_x_star_x0_is_checked_like_a_given_point(tmp_path, x_star, fault):
    inst_path, inst = _write_instance(tmp_path)
    region, objective, _ = load_instance(inst_path)
    entry = dict(CALGD_ENTRY, x0="x_star")
    x0 = bench._prepare_entry(entry, {}, region, objective, inst).x0
    assert np.array_equal(x0, inst["objective"]["x_star"])
    inst["objective"]["x_star"] = x_star
    write_json(inst_path, inst)
    out = tmp_path / "runs"
    with pytest.raises(ConfigError, match=r"solver entry 0 \(calgd\): " + fault):
        run_experiment({"instance": inst_path, "seeds": [0], "solvers": [entry]},
                       out_dir=str(out))
    assert not out.exists()


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


def test_failed_estimate_names_its_constant(tmp_path, monkeypatch):
    from lazy_sliding.objectives import LeastSquares

    def lipschitz(self):
        raise NumericalError("power iteration did not converge")

    monkeypatch.setattr(LeastSquares, "lipschitz", lipschitz)
    given = dict(CALGD_ENTRY, name="given", constants={"L": 200.0})
    config = _experiment(tmp_path, [CALGD_ENTRY, given], seeds=(0, 1))
    out = tmp_path / "runs"
    summary, code = run_experiment(config, out_dir=str(out))
    assert code == 1
    message = "NumericalError: power iteration did not converge"
    written = json.loads((out / "summary.json").read_text())
    assert written["errors"] == summary["errors"] == [
        {"solver": "calgd", "seed": seed, "message": message, "failed_outer_k": None,
         "failed_constant": "L"} for seed in (0, 1)]
    for seed in (0, 1):
        meta = json.loads((out / ("calgd__s%d.meta.json" % seed)).read_text())
        assert (meta["status"], meta["failed_constant"], meta["failed_outer_k"]) == ("error", "L", None)
        given_meta = json.loads((out / ("given__s%d.meta.json" % seed)).read_text())
        assert "failed_constant" not in given_meta and "failed_outer_k" not in given_meta
    written.pop("runs")
    assert summarize(str(out)) == written


def test_nan_gradient_fails_its_run_only(tmp_path, monkeypatch):
    # the first sampled gradient of the experiment is NaN: that run's LMO
    # raises NumericalError, and the runs after it still complete
    from lazy_sliding.objectives import LeastSquares

    sfo_batch, calls = LeastSquares.sfo_batch, []

    def poisoned(self, z, size, rng):
        calls.append(size)
        g = sfo_batch(self, z, size, rng)
        return np.full_like(g, np.nan) if len(calls) == 1 else g

    monkeypatch.setattr(LeastSquares, "sfo_batch", poisoned)
    config = _experiment(tmp_path, [{"variant": "ofw", "batch": 4}, CALGD_ENTRY],
                         seeds=(0, 1, 2), outer=20)
    out = tmp_path / "runs"
    summary, code = run_experiment(config, out_dir=str(out))
    assert code == 1
    status = {(r["solver"], r["seed"]): r["status"] for r in summary["runs"]}
    assert status == {("ofw", 0): "error", ("ofw", 1): "completed", ("ofw", 2): "completed",
                      ("calgd", 0): "completed", ("calgd", 1): "completed",
                      ("calgd", 2): "completed"}
    meta = json.loads((out / "ofw__s0.meta.json").read_text())
    assert meta["message"] == "NumericalError: simplex LMO got a cost with a NaN or infinite entry"
    # solver, seed, status and the failing iteration, from summary.json alone
    written = json.loads((out / "summary.json").read_text())
    assert written["budget_errors"] == [] and written["errors"] == [
        {"solver": "ofw", "seed": 0, "message": meta["message"], "failed_outer_k": 1,
         "failed_constant": None}]
    assert meta["failed_outer_k"] == 1 and meta["failed_constant"] is None
    written.pop("runs")
    assert summarize(str(out)) == written


@pytest.mark.parametrize("entry, method", [({"variant": "ofw", "batch": 4}, "sfo_batch"),
                                           (CALGD_ENTRY, "grad")])
def test_failed_run_keeps_the_rows_before_its_nan_gradient(tmp_path, monkeypatch, entry, method):
    # one gradient per outer iteration; the 7th is NaN, so that iteration's
    # LMO raises and the run ends in error with the rows of iterations 1..6
    from lazy_sliding.objectives import LeastSquares

    config = _experiment(tmp_path, [entry], seeds=(0,), outer=20)
    assert run_experiment(config, out_dir=str(tmp_path / "clean"))[1] == 0
    name = entry.get("name", entry["variant"])
    clean = _csv_modulo_wall(tmp_path / "clean" / ("%s__s0.csv" % name))
    gradient, calls = getattr(LeastSquares, method), []

    def poisoned(self, *args):
        calls.append(1)
        g = gradient(self, *args)
        return np.full_like(g, np.nan) if len(calls) == 7 else g

    monkeypatch.setattr(LeastSquares, method, poisoned)
    out = tmp_path / "runs"
    summary, code = run_experiment(config, out_dir=str(out))
    assert code == 1 and [e["solver"] for e in summary["errors"]] == [name]
    meta = json.loads((out / ("%s__s0.meta.json" % name)).read_text())
    assert meta["status"] == "error" and meta["failed_outer_k"] == 7
    assert "NaN or infinite" in meta["message"]
    rows = read_trace_csv(str(out / ("%s__s0.csv" % name)))
    assert [r["outer_k"] for r in rows] == list(range(1, 7))
    assert _csv_modulo_wall(out / ("%s__s0.csv" % name)) == clean[:7]  # header + 6 rows
    assert meta["final_counters"]["sfo_calls"] >= rows[-1]["sfo_calls"]
    assert meta["final_counters"]["fo_calls"] >= rows[-1]["fo_calls"]


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
    monkeypatch.setattr(lcg, "iteration_bound", lambda *args: cap / 4)  # the cap is 4x the bound
    # with the default cache a solve's opening query may be a cache hit, with
    # no exact LMO; without one every opening, the failed solve's too, costs
    # an exact LMO
    for capacity in (None, 0):
        entry = CALGD_ENTRY if capacity is None else dict(CALGD_ENTRY, cache_capacity=capacity)
        config = _experiment(tmp_path, [entry], seeds=(0,), outer=60)
        out = tmp_path / ("runs%s" % capacity)
        summary, code = run_experiment(config, out_dir=str(out))
        assert code == 1
        # solver, seed, status and the failing iteration, from summary.json alone
        written = json.loads((out / "summary.json").read_text())
        assert written["errors"] == [] and len(written["budget_errors"]) == 1
        failure = written["budget_errors"][0]
        assert (failure["solver"], failure["seed"], failure["failed_constant"]) == ("calgd", 0, None)
        k = failure["failed_outer_k"]
        assert k > 1 and "cap" in failure["message"]
        written.pop("runs")
        assert summarize(str(out)) == written
        meta = json.loads((out / "calgd__s0.meta.json").read_text())
        assert meta["status"] == "budget_error" and meta["failed_outer_k"] == k
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
                m.setattr(lcg, "iteration_bound", lambda *args: 0.5)  # a cap of 2 queries
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


@pytest.mark.parametrize("jobs", [0, -3, 1.5, True])
def test_jobs_below_one_is_rejected(tmp_path, jobs):
    config = _experiment(tmp_path, [CALGD_ENTRY])
    out = tmp_path / "runs"
    with pytest.raises(ConfigError, match="jobs"):
        run_experiment(config, out_dir=str(out), jobs=jobs)
    assert not out.exists()


def test_baselines_record_what_they_run(tmp_path):
    # scgs and ofw run at alpha = 1 with no cache, and ofw one sample a step;
    # meta.json says so, and an entry that says the same is accepted
    entries = [dict(CALGD_ENTRY, name="scgs", variant="scgs", alpha=1, cache_capacity=0),
               {"name": "ofw", "variant": "ofw", "outer": 5}]
    out = tmp_path / "runs"
    _, code = run_experiment(_experiment(tmp_path, entries), out_dir=str(out))
    assert code == 0
    for name in ("scgs", "ofw"):
        meta = json.loads((out / ("%s__s0.meta.json" % name)).read_text())
        assert meta["alpha"] == 1.0 and meta["cache_capacity"] == 0, meta
        assert meta["final_counters"]["cache_hits"] == 0
    ofw = json.loads((out / "ofw__s0.meta.json").read_text())
    assert ofw["batch_override"] == 1 and ofw["final_counters"]["sfo_calls"] == 5


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


def test_trace_table_reads_like_a_list_of_dicts(tmp_path):
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
    # a row is a plain dict, made on read: writing to it changes no other read
    path = tmp_path / "t.csv"
    RunTrace(rows=rows).write_csv(str(path))
    assert type(table[0]) is dict and all(type(r) is dict for r in table)
    assert all(type(r) is dict for r in read_trace_csv(str(path)))
    row = table[0]
    row["f_value"], row["extra"] = -1.0, 0
    assert _typed_reprs([table[0]]) == _typed_reprs(dicts[:1])
    assert table.column("f_value").tolist() == [1.0 / k for k in range(1, 6)]


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
        with traced_peak() as usage:
            table = build()
        assert len(table) == n and usage.held <= 200 * n, usage.held / n


@pytest.mark.parametrize("fname,text,fault", [
    ("calgd__s0.csv", "a,b\n1,2\n", "unexpected trace header"),
    ("calgd__s0.csv", TRACE_HEADER + "\n" + ",".join(["1"] * 10) + "\n", "ValueError"),
    ("calgd__s0.meta.json", '{"solver_name": "calgd", "sta', "JSONDecodeError"),
    ("calgd__s0.meta.json", '["calgd", "completed"]', "not a JSON object"),
], ids=["header", "ten-fields", "truncated-meta", "list-meta"])
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


def test_cli_gen_into_a_directory_writes_instance_json(tmp_path, capsys):
    spec_path, out_dir = tmp_path / "spec.json", tmp_path / "instances"
    spec_path.write_text(json.dumps(SIMPLEX_SPEC))
    out_dir.mkdir()
    assert main(["gen", "--config", str(spec_path), "--out", str(out_dir)]) == 0
    assert capsys.readouterr().out.startswith("wrote %s " % (out_dir / "instance.json"))
    written = tmp_path / "direct.json"
    write_json(str(written), gen_instance(SIMPLEX_SPEC))
    assert (out_dir / "instance.json").read_bytes() == written.read_bytes()


def test_cli_gen_makes_a_missing_directory(tmp_path, capsys):
    spec_path, inst_path = tmp_path / "spec.json", tmp_path / "a" / "b" / "inst.json"
    spec_path.write_text(json.dumps(SIMPLEX_SPEC))
    assert main(["gen", "--config", str(spec_path), "--out", str(inst_path)]) == 0
    assert inst_path.exists()
    # an --out ending in a separator names a directory
    assert main(["gen", "--config", str(spec_path), "--out", str(tmp_path / "d") + os.sep]) == 0
    assert (tmp_path / "d" / "instance.json").exists()
    # a spec it rejects makes no directory
    spec_path.write_text(json.dumps(dict(SIMPLEX_SPEC, sead=3)))
    assert main(["gen", "--config", str(spec_path), "--out", str(tmp_path / "c" / "i.json")]) == 2
    assert not (tmp_path / "c").exists()


def test_cli_gen_into_an_unwritable_path_exits_2_before_any_work(tmp_path, capsys, monkeypatch):
    spec_path, parent = tmp_path / "spec.json", tmp_path / "file"
    spec_path.write_text(json.dumps(SIMPLEX_SPEC))
    parent.write_text("")

    def no_generation(spec):
        raise AssertionError("generated before checking where it writes")

    monkeypatch.setattr(cli, "gen_instance", no_generation)
    assert main(["gen", "--config", str(spec_path), "--out", str(parent / "inst.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("lazy-sliding: error: cannot write") and "Traceback" not in err
    # a directory this process may not write to
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    assert main(["gen", "--config", str(spec_path), "--out", str(tmp_path / "inst.json")]) == 2
    assert "is not a writable directory" in capsys.readouterr().err
    assert not (tmp_path / "inst.json").exists()


def test_cli_run_time_limit_overrides_the_budget(tmp_path):
    # --time-limit replaces budgets.wall_seconds: at 0 s every run stops
    # before its first iteration, which is a time-limited run, not a failure
    config = dict(_experiment(tmp_path, [CALGD_ENTRY], seeds=(0, 1), outer=10),
                  budgets={"outer": 10, "wall_seconds": 600.0})
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    for limit, status, rows in (("0", "time_limit", 0), ("600", "completed", 60)):
        out = tmp_path / ("runs" + limit)
        assert main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--time-limit", limit]) == 0
        for seed in (0, 1):
            meta = json.loads((out / ("calgd__s%d.meta.json" % seed)).read_text())
            assert meta["status"] == status
            assert len(read_trace_csv(str(out / ("calgd__s%d.csv" % seed)))) == rows


@pytest.mark.parametrize("region,kind,dim", [
    ({"kind": "cut_polytope", "nodes": 5}, "enumerated", 10),
    ({"kind": "layered_dag", "layers": 3, "width": 3}, "dag_path", 24),
    ({"kind": "spectrahedron", "n": 4}, "spectrahedron", 10),
], ids=["cut_polytope", "layered_dag", "spectrahedron"])
def test_generated_region_kinds_load_and_run(tmp_path, region, kind, dim):
    spec = {"region": region, "objective": {"m": 30, "density": 0.8}, "seed": 4}
    path = str(tmp_path / "instance.json")
    write_json(path, gen_instance(spec))
    loaded, objective, inst = load_instance(path)
    x_star = inst["objective"]["x_star"]
    assert loaded.kind == kind and loaded.dim == dim and loaded.contains(x_star)
    assert objective.value(x_star) == 0.0  # b = A x_star
    if kind == "spectrahedron":  # the maximally mixed state, not an average of vertices
        assert np.array_equal(x_star, svec(np.eye(4) / 4))
    config = {"instance": path, "seeds": [0], "solvers": [dict(CALGD_ENTRY, outer=5)]}
    summary, code = run_experiment(config, out_dir=str(tmp_path / "runs"))
    assert code == 0 and summary["solvers"]["calgd"]["runs"] == 1
    assert len(read_trace_csv(str(tmp_path / "runs" / "calgd__s0.csv"))) == 5


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
    (dict(SIMPLEX_SPEC, region={"kind": "simplex"}), "missing 1 required positional argument: 'n'"),
    (dict(SIMPLEX_SPEC, objective={"m": 10, "density": "x"}), "density must be a number"),
    (dict(SIMPLEX_SPEC, objective=7), "objective must be a JSON object, got 7"),
    (dict(SIMPLEX_SPEC, region="simplex"), "region must be a JSON object, got 'simplex'"),
    (dict(SIMPLEX_SPEC, objective=dict(SIMPLEX_SPEC["objective"], format="dense")),
     "objective has unknown key(s) 'format'"),
    (dict(SIMPLEX_SPEC, region={"kind": "box", "n": 3, "lo": float("nan")}), "NaN or infinite"),
    (dict(SIMPLEX_SPEC, region={"kind": "box", "n": 3, "hi": [1.0, float("inf"), 1.0]}),
     "NaN or infinite"),
    (dict(SIMPLEX_SPEC, region={"kind": "l1_ball", "n": 3, "radius": float("nan")}),
     "finite radius"),
    (dict(SIMPLEX_SPEC, region={"kind": "box", "n": 3, "low": -1, "hi": 2}),
     "region box has unknown key(s) 'low'; it takes n, lo, hi"),
    (dict(SIMPLEX_SPEC, region={"kind": "l1_ball", "n": 3, "raduis": 2.0}), "key(s) 'raduis'"),
    (dict(SIMPLEX_SPEC, region={"kind": "hamiltonian_cycles", "node": 5}), "key(s) 'node'"),
    (dict(SIMPLEX_SPEC, region={"kind": "simplex", "n": 2.5}), "simplex n 2.5 is not an integer"),
    (dict(SIMPLEX_SPEC, region={"kind": "simplex", "n": True}), "simplex n True is not an integer"),
    (dict(SIMPLEX_SPEC, region={"kind": "layered_dag", "layers": 1.5, "width": 2}),
     "layers 1.5 is not an integer"),
    (dict(SIMPLEX_SPEC, region={"kind": "dag_path", "edges": [[0, 1.5], [1.5, 2.9]]}),
     "dag_path node 1.5 is not an integer"),
])
def test_cli_bad_gen_spec_exits_2(tmp_path, capsys, spec, fault):
    spec_path, inst_path = tmp_path / "spec.json", tmp_path / "instance.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["gen", "--config", str(spec_path), "--out", str(inst_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("lazy-sliding: error: ") and fault in err
    assert not inst_path.exists()


@pytest.mark.parametrize("text,fault", [(None, "FileNotFoundError"),
                                        ("{not json", "JSONDecodeError")] + [
    (json.dumps({"region": region}), fault) for region, fault in [
        ([], "region must be a JSON object, got []"),
        ("simplex", "region must be a JSON object, got 'simplex'"),
        (None, "region must be a JSON object, got None"),
        ({"kind": "box", "n": 3, "low": -1}, "key(s) 'low'"),
        ({"kind": "l1_ball", "n": 3, "raduis": 2.0}, "key(s) 'raduis'"),
        ({"kind": "hamiltonian_cycles", "node": 5}, "key(s) 'node'"),
        ({"kind": "birkhoff", "n": 2.5}, "birkhoff n 2.5 is not an integer"),
    ]])
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


def test_cli_csr_instance_with_a_column_past_n_exits_2(tmp_path, capsys):
    # the compiled kernels trust the CSR arrays, so a bad one fails at load
    inst = gen_instance(CSR_SPEC)
    inst["objective"]["A"]["indices"][-1] = CSR_SPEC["region"]["n"]
    write_json(str(tmp_path / "bad.json"), inst)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instance": str(tmp_path / "bad.json"), "solvers": [CALGD_ENTRY]}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "cannot load instance" in err and "ValueError" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command,config,fault", [
    ("gen", None, "FileNotFoundError"),
    ("gen", "{not json", "JSONDecodeError"),
    ("gen", "[1, 2]", "is not a JSON object"),
    ("run", None, "FileNotFoundError"),
    ("run", "{not json", "JSONDecodeError"),
    ("run", '"exp"', "is not a JSON object"),
    ("run", {"seeds": [0], "solvers": [CALGD_ENTRY]}, "got instance None"),
    ("run", {"instance": "INSTANCE", "solvers": CALGD_ENTRY}, "solvers of type dict"),
    ("run", {"instance": "INSTANCE", "solvers": ["calgd"]},
     "solver entry 0 must be a JSON object, got 'calgd'"),
    ("run", {"instance": "INSTANCE", "budgets": 5, "solvers": [CALGD_ENTRY]},
     "budgets must be a JSON object, got 5"),
    ("run", {"instance": "INSTANCE", "solvers": [dict(CALGD_ENTRY, constants={"L": True})]},
     "constant L must be a finite nonnegative number, got True"),
    ("run", {"instance": "INSTANCE", "solvers": [dict(CALGD_ENTRY, constants={"mu": True})]},
     "mu must be finite and nonnegative, got True"),
    ("run", {"instance": "INSTANCE", "solvers": [dict(CALGD_ENTRY, alpha=True)]},
     "alpha must be finite and >= 1, got True"),
    ("run", {"instance": "INSTANCE", "solvers": [dict(RESTART_ENTRY, eps=True)]},
     "eps > 0, got True"),
    ("summarize", None, "no directory"),
    # a key nothing reads, which would otherwise leave its default in force
    ("gen", dict(SIMPLEX_SPEC, sead=3), "generator spec has unknown key(s) 'sead'"),
    ("gen", dict(SIMPLEX_SPEC, objective={"m": 10, "densty": 0.1}),
     "objective has unknown key(s) 'densty'; it takes density, m, type"),
    ("gen", dict(SIMPLEX_SPEC, objective={"m": 10, "fromat": "csr"}),
     "objective has unknown key(s) 'fromat'"),
    ("run", {"instance": "INSTANCE", "solvers": [CALGD_ENTRY], "budget": {"outer": 5}},
     "experiment config has unknown key(s) 'budget'"),
    ("run", {"instance": "INSTANCE", "budgets": {"outre": 5}, "solvers": [CALGD_ENTRY]},
     "budgets has unknown key(s) 'outre'; it takes outer, wall_seconds"),
    ("run", {"instance": "INSTANCE", "solvers": [dict(CALGD_ENTRY, cache_capcity=0)]},
     "solver entry 0 (calgd): entry has unknown key(s) 'cache_capcity'"),
    ("run", {"instance": "INSTANCE",
             "solvers": [CALGD_ENTRY, dict(CALGD_ENTRY, name="two",
                                           schedule={"tag": "smooth_deterministic", "s": 2})]},
     "solver entry 1 (two): schedule has unknown key(s) 's'; it takes N, tag"),
    # constants are one JSON object of numbers, and alpha is a number
    ("run", {"instance": "INSTANCE", "solvers": [dict(CALGD_ENTRY, constants=[["L", 1.0]])]},
     "solver entry 0 (calgd): constants must be a JSON object, got [['L', 1.0]]"),
    ("run", {"instance": "INSTANCE", "solvers": [dict(CALGD_ENTRY, constants={"L": "1"})]},
     "constant L must be a finite nonnegative number, got '1'"),
    ("run", {"instance": "INSTANCE", "solvers": [dict(CALGD_ENTRY, alpha="2")]},
     "alpha must be finite and >= 1, got '2'"),
    ("run", {"instance": "INSTANCE", "solvers": [dict(CALGD_ENTRY, constants={"alpha": 4})]},
     "solver entry 0 (calgd): constants has unknown key(s) 'alpha'; it takes A_norm, D_0, "
     "D_X, D_YW, L, M, delta0, mu, sigma2, sigma_omega"),
    ("run", {"instance": "INSTANCE", "solvers": [dict(CALGD_ENTRY, constants={"L": None})]},
     "solver entry 0 (calgd): constant L is null"),
    # a solver name prefixes its run files: one file name, not shared
    ("run", {"instance": "INSTANCE", "solvers": [dict(CALGD_ENTRY, name="a/b")]},
     "solver entry 0: name 'a/b' cannot name a run file"),
    ("run", {"instance": "INSTANCE", "solvers": [dict(CALGD_ENTRY, name="..")]},
     "solver entry 0: name '..' cannot name a run file"),
    ("run", {"instance": "INSTANCE", "solvers": [CALGD_ENTRY, dict(CALGD_ENTRY, name=7)]},
     "solver entry 1: name 7 cannot name a run file"),
    ("run", {"instance": "INSTANCE", "solvers": [dict(CALGD_ENTRY, name="")]},
     "solver entry 0: name '' cannot name a run file"),
    ("run", {"instance": "INSTANCE", "seeds": [0, 1], "solvers": [
        {k: v for k, v in CALGD_ENTRY.items() if k != "name"},
        {k: v for k, v in CALGD_ENTRY.items() if k != "name"}]},
     "solver entries 0 and 1 both have the name 'calgd'"),
], ids=["gen-missing", "gen-not-json", "gen-list", "run-missing", "run-not-json", "run-string",
        "run-no-instance", "run-solvers-dict", "run-entry-string", "run-budgets-number",
        "run-constant-bool", "run-mu-bool", "run-alpha-bool", "run-eps-bool",
        "summarize-missing-dir", "gen-spec-key", "gen-objective-density-key",
        "gen-objective-format-key", "run-config-key", "run-budgets-key", "run-entry-key",
        "run-schedule-key", "run-constants-pairs", "run-constant-string", "run-alpha-string",
        "run-constants-alpha",
        "run-constant-null", "run-name-slash", "run-name-dotdot", "run-name-number",
        "run-name-empty", "run-names-repeat"])
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


def test_cli_verify_finds_the_acceptance_tests_from_any_directory(tmp_path, monkeypatch):
    calls = []
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli.subprocess, "call", lambda argv, env: calls.append((argv, env)) or 0)
    assert main(["verify"]) == 0
    (argv, env), = calls
    target = argv[argv.index("pytest") + 1]
    assert os.path.isabs(target) and os.path.isfile(target)
    assert os.path.samefile(target, os.path.join(os.path.dirname(__file__), "test_acceptance.py"))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    assert env["PYTHONPATH"].split(os.pathsep)[0] == src


def test_cli_verify_without_acceptance_tests_exits_2(tmp_path, monkeypatch, capsys):
    # an installed package has no tests beside it: nothing to run by default
    monkeypatch.setattr(cli, "__file__", str(tmp_path / "site" / "lazy_sliding" / "cli.py"))
    monkeypatch.setattr(cli.subprocess, "call", lambda *args, **kwargs: pytest.fail("ran pytest"))
    assert main(["verify"]) == 2
    assert "no acceptance tests" in capsys.readouterr().err


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
