import numpy as np
import pytest

from lazy_sliding.lcg import Subproblem, lcg_solve
from lazy_sliding.oracle import VertexCache, weak_separation
from lazy_sliding.regions import (
    Birkhoff,
    Box,
    DagPath,
    Enumerated,
    L1Ball,
    Simplex,
    Spectrahedron,
    Vertex,
)
from lazy_sliding.trace import Counters

from helpers import BestHitCache, cache_entries, count_scans, record_queries, traced_peak

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def test_positive_from_exact_fallback():
    cache, ctr = VertexCache(512), Counters()
    resp = weak_separation(cache, Simplex(2), np.array([1.0, 0.0]), E1, 0.5, 1.0, ctr)
    assert resp.positive
    assert np.array_equal(resp.vertex.point, E2)
    assert ctr.exact_lmo_calls == 1 and ctr.cache_hits == 0 and ctr.cache_misses == 1
    assert resp.gap == 1.0
    assert len(cache) == 1  # positive fallback answers are cached


def test_negative_at_minimizer():
    cache, ctr = VertexCache(512), Counters()
    for phi in (1e-6, 0.5, 10.0):
        resp = weak_separation(cache, Simplex(2), np.array([1.0, 0.0]), E2, phi, 1.0, ctr)
        assert not resp.positive
        assert np.array_equal(resp.vertex.point, E2)
        assert resp.gap == 0.0
    assert len(cache) == 0  # negatives are not cached


def test_cache_hit_skips_lmo():
    cache = VertexCache(512)
    c, x = np.array([1.0, 0.0]), E1
    ctr = Counters()
    weak_separation(cache, Simplex(2), c, x, 0.5, 1.0, ctr)
    assert ctr.exact_lmo_calls == 1
    ctr2 = Counters()
    resp = weak_separation(cache, Simplex(2), c, x, 0.5, 1.0, ctr2)
    assert resp.positive and np.array_equal(resp.vertex.point, E2)
    assert ctr2.exact_lmo_calls == 0 and ctr2.cache_hits == 1


def test_boundary_equality_is_negative():
    # improvement exactly phi/alpha must NOT count as positive
    cache = VertexCache(512)
    resp = weak_separation(cache, Simplex(2), np.array([1.0, 0.0]), E1, 1.0, 1.0)
    assert not resp.positive and resp.gap == pytest.approx(1.0)


def test_initial_gap_worked_examples(monkeypatch):
    # with an empty cache an inner solve's opening query is answered by the
    # exact LMO: phi0 is the exact gap max_u <grad psi(u1), u1 - u>, clamped
    # to eta, and a minimizer that beats eta is cached
    def opening(region, g, u1, eta=1e-9):
        cache, ctr = VertexCache(512), Counters()
        # the state when the second query is asked: the opening's doing
        queries = record_queries(monkeypatch, probe=lambda: (
            ctr.exact_lmo_calls, [v.point for v in cache_entries(cache)]))
        res = lcg_solve(Subproblem(g, u1, 1.0), region, u1, 1.0, eta, cache,
                        counters=ctr)
        return res.phi0, [after for _, _, after in queries[1:2]]

    phi0, after = opening(Simplex(3), np.zeros(3), np.array([0.2, 0.3, 0.5]), eta=1e-3)
    assert phi0 == 1e-3 and after == []  # a zero gap certifies at the opening
    phi0, [(lmo_calls, cached)] = opening(Simplex(2), np.array([1.0, 0.0]), E1)
    assert phi0 == 1.0 and len(cached) == 1 and np.array_equal(cached[0], E2)
    assert lmo_calls == 1
    phi0, _ = opening(Box(1, 0.0, 1.0), np.array([-2.0]), np.array([0.0]))
    assert phi0 == 2.0


def test_domain_errors():
    cache = VertexCache(512)
    with pytest.raises(ValueError):
        weak_separation(cache, Simplex(2), E1, E1, 0.0, 1.0)
    with pytest.raises(ValueError):
        weak_separation(cache, Simplex(2), E1, E1, -1.0, 1.0)
    with pytest.raises(ValueError):
        weak_separation(cache, Simplex(2), E1, E1, 1.0, 0.99)
    with pytest.raises(ValueError):
        VertexCache(capacity=-1)


def test_cache_dedupe_move_to_front_evict():
    cache = VertexCache(capacity=3)
    a = Vertex(np.array([1.0, 0.0]), "a")
    b = Vertex(np.array([0.0, 1.0]), "b")
    c = Vertex(np.array([0.5, 0.5]), "c")
    d = Vertex(np.array([0.25, 0.75]), "d")
    for v in (a, b, c):
        cache.insert(v)
    assert [v.id for v in cache_entries(cache)] == ["c", "b", "a"]
    cache.insert(a)  # dedupe by id: moves to front, no growth
    assert [v.id for v in cache_entries(cache)] == ["a", "c", "b"]
    cache.insert(d)  # capacity 3: evicts the back entry
    assert [v.id for v in cache_entries(cache)] == ["d", "a", "c"]
    assert len(cache) == 3


def test_capacity_zero_disables_caching():
    cache = VertexCache(capacity=0)
    ctr = Counters()
    for _ in range(5):
        resp = weak_separation(cache, Simplex(2), np.array([1.0, 0.0]), E1, 0.5, 1.0, ctr)
        assert resp.positive
    assert len(cache) == 0
    assert ctr.exact_lmo_calls == 5 and ctr.cache_hits == 0


def _fuzz_regions():
    return [
        Simplex(5),
        L1Ball(4, radius=2.0),
        Box(3, lo=[-1.0, 0.0, 2.0], hi=[1.0, 0.5, 3.0]),
        DagPath([(0, 1), (0, 2), (1, 3), (2, 3)]),
        Enumerated([(0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (1.0, 1.0)]),
    ]


def _random_feasible(region, rng):
    w = rng.random(6)
    w /= w.sum()
    return np.sum([wi * region.lmo(rng.standard_normal(region.dim)).point for wi in w], axis=0)


def test_soundness_fuzz():
    rng = np.random.default_rng(42)
    regions = _fuzz_regions()
    caches = {id(r): VertexCache(capacity=8) for r in regions}
    n_pos = n_neg = 0
    for q in range(10_000):
        region = regions[q % len(regions)]
        cache = caches[id(region)]
        c = rng.standard_normal(region.dim) * 10.0 ** rng.integers(-2, 3)
        x = _random_feasible(region, rng)
        phi = float(10.0 ** rng.uniform(-6, 1))
        alpha = float(rng.choice([1.0, 1.5, 2.0, 4.0]))
        resp = weak_separation(cache, region, c, x, phi, alpha)
        if resp.positive:
            n_pos += 1
            assert float(c @ (x - resp.vertex.point)) > phi / alpha
            assert region.contains(resp.vertex.point, tol=1e-9)
        else:
            n_neg += 1
            exact = region.lmo(c)
            assert np.array_equal(resp.vertex.point, exact.point)
            assert resp.gap == pytest.approx(float(c @ (x - exact.point)), abs=1e-12)
            assert resp.gap <= phi / alpha
    assert n_pos > 500 and n_neg > 500  # both branches genuinely exercised
    for cache in caches.values():
        region = [r for r in regions if id(r) in caches and caches[id(r)] is cache][0]
        assert len(cache) <= cache.capacity
        for v in cache_entries(cache):
            assert region.contains(v.point, tol=1e-9)


def test_exact_hint_parity_fuzz():
    # a hint-served fallback must reproduce the fresh call bit for bit
    rng = np.random.default_rng(43)
    region = Simplex(6)
    for _ in range(500):
        c = rng.standard_normal(6)
        x = _random_feasible(region, rng)
        phi = float(10.0 ** rng.uniform(-4, 1))
        alpha = float(rng.choice([1.0, 2.0]))
        v = region.lmo(c)
        hint = (v, float(c @ x) - float(c @ v.point))
        fresh_ctr, hint_ctr = Counters(), Counters()
        fresh = weak_separation(VertexCache(0), region, c, x, phi, alpha, fresh_ctr)
        served = weak_separation(VertexCache(0), region, c, x, phi, alpha, hint_ctr,
                                 exact_hint=hint)
        assert fresh.positive == served.positive
        assert np.array_equal(fresh.vertex.point, served.vertex.point)
        assert fresh.vertex.id == served.vertex.id
        if not fresh.positive:
            assert fresh.gap == served.gap
        assert fresh_ctr.exact_lmo_calls == 1 and hint_ctr.exact_lmo_calls == 0
        assert fresh_ctr.weak_sep_calls == hint_ctr.weak_sep_calls == 1


def test_exact_hint_answers_without_scan_fuzz(monkeypatch):
    # with the exact minimizer in hand the oracle never scans: it answers
    # positive iff the minimizer beats phi/alpha, and so is positive
    # whenever a scan of the same cache would have hit
    scans = count_scans(monkeypatch)
    rng = np.random.default_rng(44)
    would_hit = n_pos = n_neg = 0
    for region in (Simplex(8), Birkhoff(6), Spectrahedron(4)):
        cache = VertexCache(64, region.support)
        for _ in range(40):
            cache.insert(region.lmo(rng.standard_normal(region.dim)))
        for _ in range(600):
            c = rng.standard_normal(region.dim)
            x = _random_feasible(region, rng)
            v = region.lmo(c)
            gap = float(c @ x) - float(c @ v.point)
            alpha = float(rng.choice([1.0, 1.5, 2.0, 4.0]))
            phi = alpha * gap * float(10.0 ** rng.uniform(-1.5, 0.5))
            hit = cache.scan(c, float(c @ x), phi / alpha) is not None
            before = len(scans)
            ctr = Counters()
            resp = weak_separation(cache, region, c, x, phi, alpha, ctr, exact_hint=(v, gap))
            assert len(scans) == before
            assert resp.positive == (gap > phi / alpha)
            assert resp.vertex.id == v.id
            if hit:
                would_hit += 1
                assert resp.positive
            if not resp.positive:
                assert resp.gap == gap
            n_pos += resp.positive
            n_neg += not resp.positive
            assert ctr.exact_lmo_calls == 0 and ctr.cache_hits == 0
            assert ctr.hint_answers == ctr.cache_misses == ctr.weak_sep_calls == 1
    assert would_hit > 300 and n_pos > would_hit and n_neg > 300


def test_cache_positive_may_differ_but_is_valid():
    # cache transparency: a cached positive need not be the exact minimizer,
    # it only has to clear the threshold
    region = Simplex(3)
    cache = VertexCache(512)
    cache.insert(Vertex(np.array([0.0, 1.0, 0.0]), 1))
    c = np.array([3.0, 1.0, 0.0])
    x = np.array([1.0, 0.0, 0.0])
    resp = weak_separation(cache, region, c, x, 1.0, 1.0)
    assert resp.positive
    assert np.array_equal(resp.vertex.point, [0.0, 1.0, 0.0])  # hit, not e_3
    assert resp.gap == float(c @ (x - resp.vertex.point)) == 2.0


def _layered_dag(width, depth):
    """Source 0, `depth` layers of `width` nodes fully linked, then one sink."""
    edges, prev, nxt = [], [0], 1
    for _ in range(depth):
        layer = list(range(nxt, nxt + width))
        edges += [(u, v) for u in prev for v in layer]
        prev, nxt = layer, nxt + width
    return edges + [(u, nxt) for u in prev]


_CACHE_REGIONS = {
    "simplex": Simplex(5),
    "l1_ball": L1Ball(4, radius=1.7),  # not a float32 value
    "birkhoff6": Birkhoff(6),
    "dag": DagPath(_layered_dag(3, 4)),
    "box": Box(3, lo=[-1.0, 0.0, 2.0], hi=[1.0, 0.5, 3.0]),
    "enumerated": Enumerated([(np.cos(t), np.sin(t)) for t in np.arange(8) * np.pi / 4]),
    "spectrahedron": Spectrahedron(3),
}


@pytest.mark.parametrize("capacity", [3, 64])
@pytest.mark.parametrize("name", sorted(_CACHE_REGIONS))
def test_cache_matches_move_to_front_list(name, capacity):
    # same best hits, improvements and recency order as a move-to-front list
    # that scans for the largest improvement, evictions included, and every
    # stored point rebuilt exactly as the LMO gave it; scan objectives are
    # fresh continuous draws, so two vertices never tie for the best
    region = _CACHE_REGIONS[name]
    rng = np.random.default_rng(capacity)
    cache, ref = VertexCache(capacity, region.support), BestHitCache(capacity)
    lmo_points = {}
    queries = [rng.standard_normal(region.dim) for _ in range(3 * capacity)]
    assert cache.scan(queries[0], 0.0, -np.inf) is None  # empty
    hits = misses = evicted = 0
    for _ in range(1500):
        if rng.random() < 0.5:
            v = region.lmo(queries[rng.integers(len(queries))])  # repeats re-insert ids
            lmo_points.setdefault(v.id, v.point)
            evicted += len(ref.entries) == capacity and v.id not in [e.id for e in ref.entries]
            cache.insert(v)
            ref.insert(v)
        elif ref.entries:
            c = rng.standard_normal(region.dim)
            scores = np.array([float(c @ e.point) for e in ref.entries])
            cx = float(rng.uniform(scores.min(), scores.max() + 1.0))
            threshold = float(rng.uniform(0.0, 1.0))
            if np.min(np.abs(cx - scores - threshold)) < 1e-9:
                continue  # a score within rounding of the threshold
            want, got = ref.scan(c, cx, threshold), cache.scan(c, cx, threshold)
            assert (want is None) == (got is None)
            if want is None:
                misses += 1
            else:
                hits += 1
                (i, improvement), (slot, gap) = want, got
                assert cache.get(slot).id == ref.entries[i].id
                assert gap == pytest.approx(improvement, rel=0, abs=1e-12)
                ref.move_to_front(i)
                cache.move_to_front(slot)
        assert [v.id for v in cache_entries(cache)] == [v.id for v in ref.entries]
    assert len(cache) == len(ref.entries) <= capacity
    for v in cache_entries(cache):
        assert np.array_equal(v.point, lmo_points[v.id])
    assert hits > 50 and misses > 20
    if capacity == 3:
        assert evicted > 50


def test_cache_rejects_vertex_beyond_support():
    cache = VertexCache(4, support=Simplex(3).support)
    cache.insert(Simplex(3).lmo(np.array([0.0, -1.0, 0.0])))
    with pytest.raises(ValueError, match="nonzeros"):
        cache.insert(Vertex(np.array([0.5, 0.5, 0.0]), "edge midpoint"))
    assert [v.id for v in cache_entries(cache)] == [1]
    with pytest.raises(ValueError):
        VertexCache(4, support=0)


def test_cache_rejects_point_of_another_shape():
    for support in (None, 1):
        cache = VertexCache(4, support=support)
        cache.insert(Simplex(3).lmo(np.array([0.0, -1.0, 0.0])))
        with pytest.raises(ValueError, match=r"shape \(3,\), got \(4,\)"):
            cache.insert(Vertex(np.array([0.0, 0.0, 0.0, 1.0]), "wider"))
        assert [v.id for v in cache_entries(cache)] == [1]


def test_sparse_cache_memory_bounded():
    # 512 dense Birkhoff(50) points take 10 MB; as index/value rows of 50
    # entries they take 0.4 MB
    region = Birkhoff(50)
    rng = np.random.default_rng(7)
    cache = VertexCache(512, region.support)
    region.lmo(np.zeros(region.dim))  # the assignment solver's import, outside the trace
    with traced_peak() as usage:
        for _ in range(2000):
            c = rng.standard_normal(region.dim)
            v = region.lmo(c)
            cache.insert(v)
            cache.scan(c, float(c @ v.point), 0.0)
    assert len(cache) == 512
    assert usage.peak <= 2 * 2 ** 20
