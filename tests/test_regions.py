import itertools
import math

import numpy as np
import pytest

from lazy_sliding.bench import cut_polytope_vertices, hamiltonian_cycle_vertices, layered_dag_edges
from lazy_sliding.errors import NumericalError
from lazy_sliding import compiled, regions
from lazy_sliding.regions import (
    Birkhoff,
    Box,
    DagPath,
    Enumerated,
    L1Ball,
    Simplex,
    Spectrahedron,
    _min_norm_point,
    region_from_spec,
    smat,
    svec,
)

from helpers import (
    DictDagPath,
    brute_birkhoff_min,
    brute_dag_min,
    dense_spectra_min,
    enumerate_dag_paths,
    hide_scipy_extensions,
    lp_hull_distance,
    traced_peak,
)

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
    tri = Enumerated([(-1.0, 0.0), (1.0, 0.0), (0.0, 0.5)])
    # the nearest vertex, where the search starts, lies straight above the edge
    # point (0, 0): no vertex projects below 0 on that direction, yet the
    # point is a member
    assert tri.contains(np.array([0.0, 0.0]))
    assert not tri.contains(np.array([0.0, -1e-6]))


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


def _random_dag(rng, n, density=0.4):
    """Edges i -> j (i < j) at random, then patched to one source 0 and one sink n - 1."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
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


def _fuzzed_dags(rng):
    """Layered DAGs up to 20 x 20 and 120 random DAGs, in the forms an edge list
    may take: edges shuffled, about a third of them repeated as parallel
    edges, nodes relabelled to spread-out labels, each edge a (u, v, layer)
    triple."""
    graphs = [layered_dag_edges(layers, width)
              for layers, width in ((1, 1), (1, 3), (2, 2), (3, 4), (6, 2), (4, 5), (20, 20))]
    graphs += [_random_dag(rng, n, rng.uniform(0.1, 0.7)) for n in rng.integers(2, 14, size=120)]
    for edges in graphs:
        edges = edges + [edges[i] for i in rng.integers(0, len(edges), size=len(edges) // 3)]
        order = rng.permutation(len(edges))
        labels = 5 + 3 * rng.permutation(1000)[:max(max(e) for e in edges) + 1]
        yield [(int(labels[edges[i][0]]), int(labels[edges[i][1]]), 7) for i in order]


def test_dag_path_matches_the_dict_dp_reference():
    # half the costs are integers in -2..2, so that many paths tie
    rng = np.random.default_rng(28)
    calls = 0
    for edges in _fuzzed_dags(rng):
        r, ref = DagPath(edges), DictDagPath(edges)
        assert (r.source, r.sink, r.max_path_edges) == (ref.source, ref.sink, ref.max_path_edges)
        assert r.support == r.max_path_edges
        for t in range(40):
            c = (rng.integers(-2, 3, size=r.dim).astype(float) if t % 2
                 else rng.standard_normal(r.dim))
            v = r.lmo(c)
            point, path = ref.lmo(c)
            assert v.id == path and all(type(i) is int for i in v.id), edges
            assert np.array_equal(v.point, point)
            calls += 1
    assert calls >= 5000


def test_dag_path_contains_matches_the_per_node_test():
    rng = np.random.default_rng(29)
    answers = []
    for edges in _fuzzed_dags(rng):
        r, ref = DagPath(edges), DictDagPath(edges)
        vertices = [r.lmo(rng.standard_normal(r.dim)).point for _ in range(3)]
        w = rng.dirichlet(np.ones(3))
        mix = w @ vertices
        points = vertices + [
            mix,
            mix + rng.uniform(-1e-12, 1e-12, r.dim),  # within tol
            mix + rng.uniform(-1e-3, 1e-3, r.dim),
            vertices[0] + vertices[1] - vertices[2],  # balanced, but negative where [2] differs
            np.where(np.arange(r.dim) == rng.integers(r.dim), -1e-3, mix),
        ]
        for x in points:
            assert r.contains(x) == ref.contains(x), (edges, x)
            answers.append(r.contains(x))
    assert 0.3 < np.mean(answers) < 0.9  # members and non-members alike


def test_dag_path_rejections_name_their_cause():
    with pytest.raises(ValueError, match="at least one edge"):
        DagPath([])
    with pytest.raises(ValueError, match="self-loop at node 4"):
        DagPath([(0, 1), (1, 2), (4, 4), (2, 2)])
    with pytest.raises(ValueError, match="one source and one sink, got 2/2"):
        DagPath([(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="one source and one sink, got 0/0"):
        DagPath([(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="edge list contains a cycle"):
        DagPath([(5, 9), (9, 2), (2, 7), (7, 9), (2, 3)])


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
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="NaN or infinite"):
            Enumerated([[bad, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="NaN or infinite"):
            Box(2, lo=[bad, 0.0], hi=1.0)
        with pytest.raises(ValueError, match="NaN or infinite"):
            Box(2, lo=-1.0, hi=[0.0, bad])
        with pytest.raises(ValueError, match="finite radius"):
            L1Ball(3, radius=bad)
    with pytest.raises(ValueError):
        region_from_spec({"kind": "mystery"})


@pytest.mark.parametrize("region", ALL_REGIONS + [DagPath([(0, 1), (1, 2), (0, 2)])],
                         ids=lambda r: r.kind)
def test_contains_is_false_for_a_non_finite_point(region):
    member = region.lmo(np.ones(region.dim)).point
    assert region.contains(member)
    for i in (0, region.dim - 1):
        for bad in (np.nan, np.inf, -np.inf):
            x = member.copy()
            x[i] = bad
            assert region.contains(x) is False, (i, bad)


@pytest.mark.parametrize("region", ALL_REGIONS, ids=lambda r: r.kind)
def test_lmo_raises_numerical_error_on_a_non_finite_cost(region):
    # one error for every oracle, where argmin, the assignment solver and
    # the eigensolver would each answer a NaN in their own way
    for i in (0, region.dim - 1):
        for bad in (np.nan, np.inf, -np.inf):
            c = -np.ones(region.dim)
            c[i] = bad
            with pytest.raises(NumericalError, match="NaN or infinite"):
                region.lmo(c)
    assert region.contains(region.lmo(-np.ones(region.dim)).point)


def _tie_heavy_costs(rng, dim):
    """All-ones and zero costs, integer-valued costs that tie often, and continuous ones."""
    costs = [np.ones(dim), np.zeros(dim)]
    costs += [rng.integers(-2, 3, dim).astype(float) for _ in range(60)]
    costs += [rng.integers(0, 2, dim).astype(float) for _ in range(60)]
    return costs + [rng.standard_normal(dim) for _ in range(60)]


@pytest.mark.parametrize("n", [1, 2, 3, 6, 12])
def test_spectrahedron_lmo_matches_svec_formulation(n):
    # the LMO's cost matrix and vertex are smat's and svec's, bit for bit
    region = Spectrahedron(n)
    for c in _tie_heavy_costs(np.random.default_rng(n), region.dim):
        v = np.linalg.eigh(smat(c))[1][:, 0]
        nz = np.nonzero(np.abs(v) > 1e-8)[0]
        if len(nz) and v[nz[0]] < 0:
            v = -v
        got = region.lmo(c)
        assert got.point.tobytes() == svec(np.outer(v, v)).tobytes()
        assert got.id == ("rank1",) + tuple(np.round(v, 12))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 50])
def test_birkhoff_lmo_matches_assignment_formulation(n):
    from scipy.optimize import linear_sum_assignment

    region = Birkhoff(n)
    # the all-ones cost (the first) sets a bench run's x0
    for c in _tie_heavy_costs(np.random.default_rng(n), region.dim):
        rows, cols = linear_sum_assignment(c.reshape(n, n))
        P = np.zeros((n, n))
        P[rows, cols] = 1.0
        got = region.lmo(c)
        assert got.point.tobytes() == P.reshape(-1).tobytes()
        assert got.id == tuple(int(j) for j in cols)
        assert all(type(j) is int for j in got.id)
        # the solver the region loaded answers as the public one does
        loaded = compiled.kernel("linear_sum_assignment")(c.reshape(n, n))
        assert [a.tolist() for a in loaded] == [rows.tolist(), cols.tolist()]


def test_birkhoff_lmo_falls_back_to_the_public_solver(monkeypatch):
    # a scipy layout without the compiled module: the region imports the
    # public name, and answers with the same vertices
    import scipy.optimize

    n = 7
    costs = _tie_heavy_costs(np.random.default_rng(n), n * n)
    loaded = [Birkhoff(n).lmo(c) for c in costs]
    looked_up = hide_scipy_extensions(monkeypatch)
    monkeypatch.setattr(compiled, "loaded", {})
    fallback = [Birkhoff(n).lmo(c) for c in costs]
    assert looked_up == ["scipy.optimize._lsap"]
    assert compiled.loaded == {"scipy.optimize._lsap": scipy.optimize}
    assert compiled.kernel("linear_sum_assignment") is scipy.optimize.linear_sum_assignment
    assert [(v.point.tobytes(), v.id) for v in fallback] == [(v.point.tobytes(), v.id)
                                                             for v in loaded]


def _unblocked_diameter(V):
    sq = np.sum(V ** 2, axis=1)
    return float(math.sqrt(max(0.0, float(np.max(sq[:, None] + sq[None, :] - 2.0 * (V @ V.T))))))


def test_enumerated_diameter_in_row_blocks_equals_the_full_gram_maximum():
    # Integer coordinates make every Gram entry exact, so the blocks must give
    # the very value of the single nv x nv computation; float coordinates
    # agree to rounding (numpy forms V @ V.T by a symmetric rank-k update,
    # whose rounding differs from that of a product of a row block).
    rng = np.random.default_rng(21)
    lists = [hamiltonian_cycle_vertices(n) for n in (5, 6, 7)]
    lists += [cut_polytope_vertices(n) for n in range(6, 14)]
    lists += [rng.integers(-50, 51, size=(3000, 12))]
    for V in lists:
        V = np.asarray(V, dtype=float)
        assert Enumerated(V).diameter() == _unblocked_diameter(V), V.shape
    V = rng.standard_normal((2500, 9))
    assert Enumerated(V).diameter() == pytest.approx(_unblocked_diameter(V), rel=1e-12)


def test_enumerated_diameter_memory_is_a_few_row_blocks():
    V = np.random.default_rng(22).standard_normal((5000, 20))
    region = Enumerated(V)
    with traced_peak() as usage:
        region.diameter()
    # one full 5000 x 5000 matrix alone is 200 MB
    assert usage.peak <= 40e6, usage.peak


def _assert_certified(V, x, tol, distance):
    """The minimum-norm point behind contains(x) proves its answer.

    distance is that of x from the hull, 0 for a member.
    """
    active, weights, p = _min_norm_point(V - x)
    scale = float(np.max(np.abs(V - x)))
    assert len(set(active)) == len(active) <= V.shape[1] + 1
    assert np.all(weights > 0.0) and abs(float(weights.sum()) - 1.0) <= 1e-12
    assert np.allclose(weights @ (V[active] - x), p, rtol=0.0, atol=1e-12 * scale)
    if distance == 0.0:  # a convex combination of vertices within tol of x
        assert float(np.linalg.norm(weights @ V[active] - x)) <= tol + 1e-14 * scale
    else:  # a hyperplane keeps every vertex farther than tol from x
        norm = float(np.linalg.norm(p))
        assert float(np.min((V - x) @ p)) / norm > tol
        assert abs(norm - distance) <= 1e-8 * distance  # the nearest point, not just a near one


def _exposed_faces(V, rng, count=6):
    """(vertex indices, unit cost c) of faces with 2 or 3 vertices: c.v is least on them.

    Small integer costs tie on a list of integer points; a list of generic
    points (full-dimensional, in few dimensions) takes 2-3 vertices of a
    facet of its hull.
    """
    from scipy.spatial import ConvexHull

    faces = []
    if not np.array_equal(V, np.round(V)):
        hull = ConvexHull(V)
        for simplex, eq in zip(hull.simplices[:count], hull.equations):
            size = min(len(simplex), int(rng.integers(2, 4)))
            faces.append((rng.choice(simplex, size=size, replace=False), -eq[:-1]))
        return faces
    while len(faces) < count:
        c = rng.integers(-3, 4, size=V.shape[1]).astype(float)
        values = V @ c
        face = np.flatnonzero(values == values.min())
        if len(face) in (2, 3):
            faces.append((face, c / np.linalg.norm(c)))
    return faces


def _membership_fuzz(V, rng):
    """(point, distance to the hull) pairs: vertices, sparse and dense convex
    combinations and points of 2-3-vertex faces (distance 0), and the face
    points pushed 1e-6 and 1e-3 out along the face's unit cost."""
    nv = len(V)
    cases = [(V[i], 0.0) for i in rng.choice(nv, size=min(nv, 6), replace=False)]
    for _ in range(6):
        idx = rng.choice(nv, size=min(nv, int(rng.integers(2, 5))), replace=False)
        cases.append((rng.dirichlet(np.ones(len(idx))) @ V[idx], 0.0))
        cases.append((rng.dirichlet(np.ones(nv)) @ V, 0.0))
    for face, c in _exposed_faces(V, rng):
        x = rng.dirichlet(np.ones(len(face))) @ V[face]
        cases.append((x, 0.0))
        cases += [(x - delta * c, delta) for delta in (1e-6, 1e-3)]
    return cases


MEMBERSHIP_LISTS = {
    "ham5": hamiltonian_cycle_vertices(5),
    "ham6": hamiltonian_cycle_vertices(6),
    "cut6": cut_polytope_vertices(6),
    "cut7": cut_polytope_vertices(7),
    "cut8": cut_polytope_vertices(8),
    "ham7": hamiltonian_cycle_vertices(7),
    "ham8": hamiltonian_cycle_vertices(8),
    "cut10": cut_polytope_vertices(10),
    "random6": np.random.default_rng(23).standard_normal((40, 6)),
    "square": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
}


@pytest.mark.parametrize("name", sorted(MEMBERSHIP_LISTS))
def test_enumerated_contains_agrees_with_the_lp_and_is_certified(name):
    V = np.asarray(MEMBERSHIP_LISTS[name], dtype=float)
    region, tol = Enumerated(V), 1e-9
    for x, distance in _membership_fuzz(V, np.random.default_rng(24)):
        assert region.contains(x, tol) is (distance == 0.0)
        assert (lp_hull_distance(V, x) <= tol) is (distance == 0.0)
        _assert_certified(V, x, tol, distance)


def _degenerate_lists(rng):
    flat = rng.standard_normal((12, 3)) @ np.linalg.qr(rng.standard_normal((6, 3)))[0].T
    return {
        "duplicates": np.repeat(rng.standard_normal((8, 3)), 2, axis=0)[rng.permutation(16)],
        "single": rng.standard_normal((1, 4)),
        "collinear": np.outer(rng.uniform(-1.0, 1.0, 5), rng.standard_normal(3)) + 1.0,
        "flat": flat + rng.standard_normal(6),
    }


@pytest.mark.parametrize("name", ["duplicates", "single", "collinear", "flat"])
def test_enumerated_contains_on_degenerate_lists(name):
    # Vertices and convex combinations are members; a vertex pushed against a
    # cost it minimizes, and a combination pushed off the affine hull of a
    # lower-dimensional list, lie exactly delta away.
    rng = np.random.default_rng(25)
    V = _degenerate_lists(rng)[name]
    region, tol = Enumerated(V), 1e-9
    _, s, Vt = np.linalg.svd(V - V[0])
    normals = Vt[int(np.sum(s > 1e-9)):]
    cases = [(v, 0.0) for v in V]
    for _ in range(8):
        combo = rng.dirichlet(np.ones(len(V))) @ V
        cases.append((combo, 0.0))
        c = rng.standard_normal(V.shape[1])
        c /= np.linalg.norm(c)
        v = V[np.argmin(V @ c)]
        for delta in (1e-6, 1e-3):
            cases.append((v - delta * c, delta))
            if len(normals):
                cases.append((combo + delta * normals[rng.integers(len(normals))], delta))
    for x, distance in cases:
        assert region.contains(x, tol) is (distance == 0.0)
        assert (lp_hull_distance(V, x) <= tol) is (distance == 0.0)
        _assert_certified(V, x, tol, distance)


def test_enumerated_contains_ends_when_the_lmo_repeats_a_corral_vertex(monkeypatch):
    # Within a few tol of a face, rounding can keep p @ (v - x) just below
    # tol ||p|| for the vertex v that lmo(p) returns from the corral itself.
    # Without the repeat exit such a call would add v again until the cap.
    monkeypatch.setattr(regions, "_MNP_MAX_ITERS", 100)  # well above the steps needed
    rng, tol, repeats = np.random.default_rng(27), 1e-9, 0
    lists = (hamiltonian_cycle_vertices(6), hamiltonian_cycle_vertices(7), cut_polytope_vertices(10))
    for V in lists:
        V = V.astype(float)
        region, returned = Enumerated(V), []

        def lmo(c):
            v = Enumerated.lmo(region, c)
            returned.append(v.id)
            return v

        region.lmo = lmo
        for face, c in _exposed_faces(V, rng):
            y = rng.dirichlet(np.ones(len(face))) @ V[face]
            for k in (0.5, 0.9, 1.1, 2.0, 5.0, 10.0):  # x is k tol from the hull
                x = y - k * tol * c
                returned.clear()
                inside = region.contains(x, tol)
                assert inside is (float(np.linalg.norm(_min_norm_point(V - x)[2])) <= tol)
                assert inside is (k < 1)
                repeats += returned[-1] in returned[:-1]
    assert repeats >= 10, repeats  # 72 of the 108 calls end so


def test_shared_contains_matches_the_closed_forms():
    # the LMO-driven rule that a region without a closed form gets, checked
    # on regions that have one: convex combinations of LMO vertices, and the
    # same points pushed 1e-6 and 1e-3 off in a random direction
    rng = np.random.default_rng(28)
    closed_forms = [r for r in ALL_REGIONS if r.kind in ("box", "simplex", "l1_ball")]
    for region in closed_forms + [Birkhoff(4), DagPath(layered_dag_edges(3, 3))]:
        for _ in range(60):
            points = [region.lmo(rng.standard_normal(region.dim)).point
                      for _ in range(int(rng.integers(1, 5)))]
            x = rng.dirichlet(np.ones(len(points))) @ np.array(points)
            u = rng.standard_normal(region.dim)
            for delta in (0.0, 1e-6, 1e-3):
                y = x + delta * u / np.linalg.norm(u)
                assert regions.Region._contains(region, y, 1e-9) is region.contains(y, 1e-9), (
                    region.kind, delta)


@pytest.mark.parametrize("region", ALL_REGIONS, ids=lambda r: r.kind)
def test_contains_rejects_a_negative_or_nan_tol(region):
    member = region.lmo(np.ones(region.dim)).point
    assert region.contains(member)
    for tol in (-1e-3, -1e-300, np.nan):
        with pytest.raises(ValueError, match="tol >= 0"):
            region.contains(member, tol=tol)


def test_enumerated_contains_raises_at_the_iteration_cap(monkeypatch):
    V = hamiltonian_cycle_vertices(6).astype(float)
    x = np.full(len(V), 1.0 / len(V)) @ V  # needs more than one step
    monkeypatch.setattr(regions, "_MNP_MAX_ITERS", 1)
    with pytest.raises(NumericalError, match="minimum-norm point"):
        Enumerated(V).contains(x)


def test_enumerated_contains_falls_back_to_the_public_nnls(monkeypatch):
    # a scipy layout without the compiled module: the region imports the
    # public name, and gives the same answers and the same minimum-norm points
    from scipy.optimize import nnls

    rng = np.random.default_rng(26)
    lists = {name: np.asarray(MEMBERSHIP_LISTS[name], dtype=float)
             for name in ("ham6", "cut7", "random6")}
    cases = [(V, x) for V in lists.values() for x, _ in _membership_fuzz(V, rng)]

    def answers():
        return [(Enumerated(V).contains(x), float(np.linalg.norm(_min_norm_point(V - x)[2])))
                for V, x in cases]

    loaded = answers()
    assert compiled.kernel("nnls").__module__ == "scipy.optimize._slsqplib"
    looked_up = hide_scipy_extensions(monkeypatch)
    monkeypatch.setattr(compiled, "loaded", {})
    fallback = answers()
    assert looked_up == ["scipy.optimize._slsqplib"]
    assert compiled.kernel("nnls") is nnls
    assert [inside for inside, _ in fallback] == [inside for inside, _ in loaded]
    for (_, norm), (_, expected) in zip(fallback, loaded):
        assert norm == pytest.approx(expected, rel=1e-8, abs=1e-14)


def test_public_nnls_fallback_raises_at_the_iteration_cap(monkeypatch):
    import scipy.optimize

    V = hamiltonian_cycle_vertices(6).astype(float)
    x = np.full(len(V), 1.0 / len(V)) @ V
    # the public function, as on a scipy layout without the compiled module
    monkeypatch.setattr(compiled, "loaded", {"scipy.optimize._slsqplib": scipy.optimize})
    monkeypatch.setattr(regions, "_MNP_MAX_ITERS", 1)
    with pytest.raises(NumericalError, match="minimum-norm point"):
        Enumerated(V).contains(x)
