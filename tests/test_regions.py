import itertools
import math

import numpy as np
import pytest

from lazy_sliding.bench import layered_dag_edges
from lazy_sliding.regions import (
    Birkhoff,
    Box,
    DagPath,
    Enumerated,
    L1Ball,
    Simplex,
    Spectrahedron,
    region_from_spec,
    smat,
    svec,
)

from helpers import brute_birkhoff_min, brute_dag_min, dense_spectra_min, enumerate_dag_paths

DIAMOND = [(0, 1), (0, 2), (1, 3), (2, 3)]  # two parallel 2-edge paths


def test_simplex_lmo_worked_example():
    r = Simplex(3)
    v = r.lmo(np.array([3.0, -1.0, 2.0]))
    assert np.array_equal(v.point, [0.0, 1.0, 0.0])
    assert v.id == 1


def test_simplex_lmo_tie_lowest_index():
    r = Simplex(4)
    v = r.lmo(np.array([0.0, 0.0, 0.0, 0.0]))
    assert v.id == 0


def test_spectrahedron_lmo_worked_example():
    r = Spectrahedron(2)
    C = np.diag([1.0, -2.0])
    v = r.lmo(svec(C))
    # minimizer of <C, X> over unit-trace PSD is e2 e2^T with value -2
    X = smat(v.point)
    assert np.allclose(X, np.diag([0.0, 1.0]), atol=1e-8)
    assert float(v.point @ svec(C)) == pytest.approx(-2.0, abs=1e-8)


def test_birkhoff_lmo_worked_example():
    r = Birkhoff(3)
    cost = np.array([[5.0, 0.0, 9.0],
                     [4.0, 7.0, 0.0],
                     [0.0, 8.0, 6.0]])
    v = r.lmo(cost.reshape(-1))
    best, brute = brute_birkhoff_min(cost.reshape(-1), 3)
    assert float(cost.reshape(-1) @ v.point) == pytest.approx(best)
    assert np.array_equal(v.point, brute)  # the anti-diagonal permutation
    assert best == 0.0


def test_dag_path_lmo_worked_example():
    r = DagPath(DIAMOND)
    costs = np.array([1.0, 3.0, 1.0, -2.5])
    v = r.lmo(costs)
    assert np.array_equal(v.point, [0.0, 1.0, 0.0, 1.0])  # 3 - 2.5 = 0.5 < 2
    assert float(costs @ v.point) == pytest.approx(0.5)


def test_diameters():
    assert Simplex(3).diameter() == pytest.approx(math.sqrt(2.0))
    assert Simplex(1).diameter() == 0.0
    assert L1Ball(4, radius=2.5).diameter() == pytest.approx(5.0)
    assert Box(3, lo=[0, 0, 0], hi=[1, 2, 2]).diameter() == pytest.approx(3.0)
    assert Birkhoff(3).diameter() == pytest.approx(math.sqrt(6.0))
    assert Spectrahedron(5).diameter() == pytest.approx(math.sqrt(2.0))
    assert DagPath(DIAMOND).diameter() == pytest.approx(2.0)
    assert Enumerated([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]).diameter() == pytest.approx(math.sqrt(2.0))


def test_contains_worked_examples():
    s = Simplex(3)
    assert s.contains(np.array([0.2, 0.3, 0.5]))
    assert not s.contains(np.array([0.2, 0.3, 0.6]))
    assert not s.contains(np.array([-0.1, 0.6, 0.5]))
    sp = Spectrahedron(2)
    assert sp.contains(svec(0.5 * np.eye(2)))
    assert not sp.contains(svec(np.diag([1.5, -0.5])))


ALL_REGIONS = [
    Simplex(5),
    L1Ball(4, radius=2.0),
    Box(3, lo=[-1.0, 0.0, 2.0], hi=[1.0, 0.5, 3.0]),
    Birkhoff(3),
    Spectrahedron(3),
    DagPath(DIAMOND),
    Enumerated([(0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (1.0, 1.0)]),
]


@pytest.mark.parametrize("region", ALL_REGIONS, ids=lambda r: r.kind)
def test_lmo_points_feasible_and_convex_combos(region):
    rng = np.random.default_rng(7)
    pts = []
    for _ in range(20):
        v = region.lmo(rng.standard_normal(region.dim))
        assert v.point.shape == (region.dim,)
        assert region.contains(v.point, tol=1e-9)
        pts.append(v.point)
    w = rng.random(len(pts))
    w /= w.sum()
    combo = np.sum([wi * p for wi, p in zip(w, pts)], axis=0)
    assert region.contains(combo, tol=1e-9)


@pytest.mark.parametrize("region", ALL_REGIONS, ids=lambda r: r.kind)
def test_lmo_optimality_against_feasible_samples(region):
    # every lmo answer must beat random convex combinations of vertices
    rng = np.random.default_rng(11)
    for _ in range(30):
        c = rng.standard_normal(region.dim)
        best = float(c @ region.lmo(c).point)
        w = rng.random(8)
        w /= w.sum()
        x = np.sum([wi * region.lmo(rng.standard_normal(region.dim)).point
                    for wi in w], axis=0)
        assert best <= float(c @ x) + 1e-9


def test_birkhoff_vs_brute_force():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        r = Birkhoff(n)
        for _ in range(40):
            c = rng.standard_normal(n * n)
            v = r.lmo(c)
            best, _ = brute_birkhoff_min(c, n)
            assert float(c @ v.point) == pytest.approx(best, abs=1e-10)


def test_dag_path_vs_brute_force():
    rng = np.random.default_rng(4)
    edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)]
    r = DagPath(edges)
    paths = enumerate_dag_paths(edges, 0, 5)
    assert 2 <= len(paths) <= 20
    for _ in range(60):
        c = rng.standard_normal(len(edges))  # negative costs allowed on a DAG
        v = r.lmo(c)
        best, _ = brute_dag_min(edges, c, 0, 5)
        assert float(c @ v.point) == pytest.approx(best, abs=1e-10)


def _random_dag(rng, n):
    """Edges i -> j (i < j) at random, then patched to one source 0 and one sink n - 1."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    edges += [(0, v) for v in range(1, n) if all(e[1] != v for e in edges)]
    edges += [(v, n - 1) for v in range(n - 1) if all(e[0] != v for e in edges)]
    return edges


def test_dag_path_max_path_edges_is_the_longest_path():
    rng = np.random.default_rng(17)
    graphs = [(layered_dag_edges(layers, width), 1 + layers * width)
              for layers, width in ((1, 1), (1, 4), (2, 3), (3, 2), (5, 1))]
    graphs += [(_random_dag(rng, n), n - 1) for n in rng.integers(2, 9, size=60)]
    for edges, sink in graphs:
        longest = max(len(path) for path in enumerate_dag_paths(edges, 0, sink))
        r = DagPath(edges)
        assert r.max_path_edges == r.support == longest, edges
        assert r.diameter() == pytest.approx(math.sqrt(2.0 * longest))


def test_enumerated_lmo_is_argmin_over_rows():
    rng = np.random.default_rng(5)
    V = rng.standard_normal((50, 6))
    r = Enumerated(V)
    for _ in range(60):
        c = rng.standard_normal(6)
        v = r.lmo(c)
        assert float(c @ v.point) == pytest.approx(float(np.min(V @ c)), abs=1e-12)


def test_spectrahedron_vs_dense_eigensolver():
    rng = np.random.default_rng(6)
    for n in (2, 5, 12, 20):
        r = Spectrahedron(n)
        for _ in range(10):
            A = rng.standard_normal((n, n))
            C = (A + A.T) / 2.0
            v = r.lmo(svec(C))
            lam_min, _ = dense_spectra_min(C)
            assert float(svec(C) @ v.point) == pytest.approx(lam_min, abs=1e-8)
            assert r.contains(v.point, tol=1e-8)


@pytest.mark.parametrize("gap", [0.0, 1e-4], ids=["repeated", "clustered"])
@pytest.mark.parametrize("n", [2, 5, 20, 50])
def test_spectrahedron_lmo_exact_on_clustered_bottom_spectrum(n, gap):
    # C = Q diag(ev) Q^T with the two smallest eigenvalues equal or a relative
    # 1e-4 apart: the vertex value must be lambda_min to rounding.
    rng = np.random.default_rng(100 + n)
    r = Spectrahedron(n)
    for scale in (1e-3, 1.0, 1e3):
        for _ in range(5):
            ev = np.sort(scale * rng.uniform(-1.0, 1.0, n))
            ev[1] = ev[0] + gap * float(np.max(np.abs(ev)))
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            C = (Q * ev) @ Q.T
            v = r.lmo(svec(C))
            excess = float(svec(C) @ v.point) - float(ev.min())
            assert excess <= 1e-12 * max(1.0, float(np.max(np.abs(ev))))
            assert r.contains(v.point, tol=1e-12)


@pytest.mark.parametrize("region", ALL_REGIONS, ids=lambda r: r.kind)
def test_diameter_upper_bounds_vertex_pairs(region):
    rng = np.random.default_rng(8)
    D = region.diameter()
    pts = [region.lmo(rng.standard_normal(region.dim)).point for _ in range(45)]
    for a, b in itertools.combinations(pts, 2):
        assert float(np.linalg.norm(a - b)) <= D + 1e-9


@pytest.mark.parametrize("region", ALL_REGIONS, ids=lambda r: r.kind)
def test_spec_round_trip(region):
    spec = region.to_spec()
    clone = region_from_spec(spec)
    assert clone.kind == region.kind and clone.dim == region.dim
    rng = np.random.default_rng(9)
    for _ in range(10):
        c = rng.standard_normal(region.dim)
        a, b = region.lmo(c), clone.lmo(c)
        assert np.array_equal(a.point, b.point)
        assert a.id == b.id


def test_legacy_spectrahedron_spec_with_eigenvalue_tolerance_loads():
    legacy = region_from_spec({"kind": "spectrahedron", "n": 3, "eig_tol": 1e-6})
    current = region_from_spec({"kind": "spectrahedron", "n": 3})
    assert legacy.to_spec() == current.to_spec()
    rng = np.random.default_rng(9)
    for _ in range(10):
        c = rng.standard_normal(current.dim)
        a, b = legacy.lmo(c), current.lmo(c)
        assert np.array_equal(a.point, b.point)
        assert a.id == b.id


def test_vertex_id_stability():
    rng = np.random.default_rng(10)
    for region in ALL_REGIONS:
        c = rng.standard_normal(region.dim)
        assert region.lmo(c).id == region.lmo(c.copy()).id


def test_svec_smat_round_trip_and_isometry():
    rng = np.random.default_rng(12)
    for n in (1, 2, 5, 9):
        A = rng.standard_normal((n, n))
        M = (A + A.T) / 2.0
        v = svec(M)
        assert v.shape == (n * (n + 1) // 2,)
        assert np.allclose(smat(v), M, atol=1e-14)
        B = rng.standard_normal((n, n))
        N = (B + B.T) / 2.0
        # scaled upper-triangle flattening preserves Frobenius inner products
        assert float(v @ svec(N)) == pytest.approx(float(np.sum(M * N)), rel=1e-12, abs=1e-12)
    with pytest.raises(ValueError):
        smat(np.zeros(4))  # 4 is not a triangular number


def test_shape_and_construction_errors():
    with pytest.raises(ValueError):
        Simplex(3).lmo(np.zeros(4))
    with pytest.raises(ValueError):
        Box(2, lo=[0.0, 1.0], hi=[1.0, 0.0])
    with pytest.raises(ValueError):
        L1Ball(3, radius=0.0)
    with pytest.raises(ValueError):
        DagPath([(0, 1), (2, 3)])  # two sources, two sinks
    with pytest.raises(ValueError):
        DagPath([(0, 1), (1, 0)])  # a 2-cycle: no source and no sink
    with pytest.raises(ValueError, match="cycle"):
        DagPath([(0, 1), (1, 2), (2, 1), (2, 3)])  # one source and one sink around a cycle
    with pytest.raises(ValueError):
        Enumerated(np.zeros((5001, 2)))
    with pytest.raises(ValueError):
        region_from_spec({"kind": "mystery"})
