import dataclasses

import numpy as np
import pytest

from lazy_sliding.bench import hamiltonian_cycle_vertices
from lazy_sliding import lcg
from lazy_sliding.errors import BudgetExceeded
from lazy_sliding.lcg import (
    LcgResult,
    Subproblem,
    duality_gap,
    iteration_bound,
    lcg_solve,
    line_search_quadratic,
)
from lazy_sliding.oracle import VertexCache
from lazy_sliding.regions import (
    Birkhoff,
    Box,
    DagPath,
    Enumerated,
    L1Ball,
    Simplex,
    Spectrahedron,
)
from lazy_sliding.trace import Counters

from helpers import (count_scans, kkt_simplex_project, proj_l1_ball, quad_psi_opt, record_queries,
                     subproblem_value)

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def test_optimum_at_start_returns_immediately(monkeypatch):
    # u1 minimizes psi, so at alpha = 1 the opening query at Phi = eta is
    # answered negative by its exact LMO and certifies at once
    sub = Subproblem(g=np.array([0.0, 1.0]), center=E1.copy(), beta=1.0)
    ctr, queries = Counters(), record_queries(monkeypatch)
    res = lcg_solve(sub, Simplex(2), E1, alpha=1.0, eta=1e-3, cache=VertexCache(512),
                    counters=ctr)
    phis = [phi for _, phi in queries]
    assert np.array_equal(res.point, E1)
    assert res.cert_gap == 0.0
    assert res.iterations == ctr.weak_sep_calls == 1
    assert ctr.exact_lmo_calls == 1  # the opening's LMO is the only one
    assert phis == [1e-3] and res.phi0 == 1e-3 and res.h0 is None


def test_eta_above_initial_gap_returns_start(monkeypatch):
    sub = Subproblem(g=np.array([1.0, -1.0]), center=E1.copy(), beta=1.0)
    # initial gap at e1 is 2; choose eta above it: the opening is negative
    queries = record_queries(monkeypatch)
    res = lcg_solve(sub, Simplex(2), E1, alpha=1.0, eta=5.0, cache=VertexCache(512))
    assert np.array_equal(res.point, E1)
    assert res.iterations == 1 and res.cert_gap == 2.0
    assert res.phi0 == 5.0 and queries[-1][1] == 5.0  # the last query is at eta


def test_derived_two_vertex_subproblem():
    # minimizer of psi is the projection of center - g onto the simplex = e2
    sub = Subproblem(g=np.array([1.0, -1.0]), center=E1.copy(), beta=1.0)
    region = Simplex(2)
    res = lcg_solve(sub, region, E1, alpha=1.0, eta=1e-3, cache=VertexCache(512))
    g = sub.grad(res.point)
    for y in (E1, E2):
        assert float(g @ (res.point - y)) <= 1e-3
    assert np.allclose(res.point, E2, atol=1e-3)
    assert res.cert_gap <= 1e-3


def test_line_search_worked_examples():
    u, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    # stationary along the segment: grad orthogonal to u - v
    sub = Subproblem(g=np.array([1.0, 1.0]), center=u.copy(), beta=1.0)
    assert line_search_quadratic(sub, u, v, sub.grad(u)) == 0.0
    # minimizer exactly at v
    sub = Subproblem(g=-(v - u), center=u.copy(), beta=1.0)
    assert line_search_quadratic(sub, u, v, sub.grad(u)) == 1.0
    # interior solution of the 1-D quadratic
    sub = Subproblem(g=np.array([1.0, -1.0]), center=u.copy(), beta=2.0)
    assert line_search_quadratic(sub, u, v, sub.grad(u)) == 0.5
    # degenerate segment
    assert line_search_quadratic(sub, u, u.copy(), sub.grad(u)) == 0.0


def test_duality_gap_worked_examples():
    region = Simplex(2)
    sub = Subproblem(g=np.zeros(2), center=E2.copy(), beta=1.0)
    assert duality_gap(sub, region, E2) == 0.0  # x is the exact minimizer
    sub = Subproblem(g=np.array([1.0, 0.0]), center=E1.copy(), beta=3.0)
    assert duality_gap(sub, region, E1) == 1.0  # grad (1,0), two-vertex check
    sub = Subproblem(g=np.zeros(3), center=np.full(3, 1 / 3), beta=1.0)
    assert duality_gap(sub, Simplex(3), np.full(3, 1 / 3)) == 0.0


def test_iteration_bound_worked_examples():
    assert iteration_bound(1.0, 1.0, 1.0, 1.0) == 10
    assert iteration_bound(1.0, 1.0, 1.0 / 8.0, 1.0) == 69
    b = iteration_bound(1.0, 1.0, 1.0 / 8.0, 2.0)
    assert b == 261 and b > 8 * 4 * 8  # dominant 8 alpha^2 C/eta term = 256
    # positive opening at phi0 = 2: floor(h0 / prog(1)) uncertified positives,
    # then the certified bound from phi1 = 1, prog(1) = min(1/2a, 1/2a^2)
    assert iteration_bound(2.0, 1.0, 1.0 / 8.0, 1.0, h0=3.0) == 6 + 69
    assert iteration_bound(2.0, 1.0, 1.0 / 8.0, 2.0, h0=3.0) == 24 + 261
    # phi1 clamps to eta: prog(1/8) = 1/128
    assert iteration_bound(0.2, 1.0, 1.0 / 8.0, 1.0, h0=1.0) == 128 + 66
    with pytest.raises(ValueError):
        iteration_bound(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        iteration_bound(1.0, 1.0, 1.0, 0.5)


def test_single_point_region_solves_within_the_degenerate_bound():
    # one point has diameter 0, so the curvature proxy c_phi = beta D^2 is 0:
    # the bound is one negative query per halving from phi0 down to eta, plus two
    point = np.full(3, 0.25)
    sub = Subproblem(g=np.array([1.0, -2.0, 0.5]), center=np.zeros(3), beta=4.0)
    for region in (Box(3, lo=0.25, hi=0.25), Enumerated([point])):
        assert region.diameter() == 0.0
        for alpha, eta in [(1.0, 1e-3), (2.0, 1e-3), (3.0, 1.0)]:
            res = lcg_solve(sub, region, point, alpha, eta, VertexCache(512))
            assert res.cert_gap == 0.0 and np.array_equal(res.point, point)
            assert res.iterations <= iteration_bound(res.phi0, 0.0, eta, alpha) == 2
    assert iteration_bound(8.0, 0.0, 1.0, 1.0) == 5  # ceil(2 + log2 8)
    assert iteration_bound(0.5, 0.0, 1.0, 1.0) == 2  # log2 clamped at 0


def test_monotone_descent_and_phi_trace(monkeypatch):
    rng = np.random.default_rng(0)
    region = L1Ball(6, radius=1.5)
    sub = Subproblem(g=rng.standard_normal(6), center=rng.standard_normal(6) * 0.1,
                     beta=0.7)
    queries = record_queries(monkeypatch)
    eta = 1e-4
    res = lcg_solve(sub, region, region.lmo(rng.standard_normal(6)).point,
                    alpha=2.0, eta=eta, cache=VertexCache(512))
    values = [subproblem_value(sub, u) for u, _ in queries]
    phis = [phi for _, phi in queries]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    # the opening asks at alpha * eta; the loop then starts at half its gap
    assert phis[0] == 2.0 * eta and phis[1] == max(res.phi0 / 2.0, eta)
    # phi ladder after the opening: non-increasing, each drop is exactly /2
    # or the clamp to eta
    ladder = phis[1:]
    assert all(b <= a for a, b in zip(ladder, ladder[1:]))
    for a, b in zip(ladder, ladder[1:]):
        assert b == a or b == a / 2.0 or (b == eta and a / 2.0 <= eta)
    assert phis[-1] == eta
    assert min(phis) >= eta


def test_functional_gap_sandwich(monkeypatch):
    # psi(u_t) - psi* <= 2 * Phi_{t-1} at every query after the opening,
    # with psi* from an independent projection oracle; the opening query,
    # at Phi = alpha * eta, only asks whether a vertex beats eta
    rng = np.random.default_rng(1)
    queries = record_queries(monkeypatch)
    cases = [
        (Simplex(5), kkt_simplex_project),
        (Box(4, -0.5, 1.5), lambda v: np.clip(v, -0.5, 1.5)),
        (L1Ball(5, 1.0), proj_l1_ball),
    ]
    for region, project in cases:
        for _ in range(20):
            g = rng.standard_normal(region.dim)
            center = project(rng.standard_normal(region.dim))
            beta = float(10.0 ** rng.uniform(-1, 1))
            sub = Subproblem(g=g, center=center, beta=beta)
            psi_star, _ = quad_psi_opt(g, center, beta, project)
            eta = beta * region.diameter() ** 2 * 1e-5
            queries.clear()
            lcg_solve(sub, region, region.lmo(rng.standard_normal(region.dim)).point,
                      alpha=1.0, eta=eta, cache=VertexCache(512))
            records = [(subproblem_value(sub, u), phi) for u, phi in queries]
            assert records[0][1] == eta
            for val, phi in records[1:]:
                assert val - psi_star <= 2.0 * phi + 1e-9


def test_certification_fuzz():
    rng = np.random.default_rng(2)
    regions = [
        Simplex(8),
        L1Ball(5, radius=1.5),
        Box(4, lo=-1.0, hi=2.0),
        DagPath([(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)]),
    ]
    for trial in range(300):
        region = regions[trial % len(regions)]
        g = rng.standard_normal(region.dim) * 10.0 ** rng.integers(-1, 2)
        center = region.lmo(rng.standard_normal(region.dim)).point
        beta = float(10.0 ** rng.uniform(-1, 1.5))
        sub = Subproblem(g=g, center=center, beta=beta)
        alpha = float(rng.choice([1.0, 2.0]))
        # eta scaled to the curvature: conditional gradient needs ~C_phi/eta
        # steps in the worst case, so absolute tiny eta on large-curvature
        # subproblems is not a sane regime
        c_phi = beta * region.diameter() ** 2
        eta = float(c_phi * 10.0 ** rng.uniform(-4.0, -1.0))
        u1 = region.lmo(rng.standard_normal(region.dim)).point
        cache = VertexCache(capacity=int(rng.choice([0, 4, 512])))
        ctr = Counters()
        res = lcg_solve(sub, region, u1, alpha=alpha, eta=eta, cache=cache,
                        counters=ctr)
        assert region.contains(res.point, tol=1e-9)
        assert res.cert_gap <= eta / alpha
        assert duality_gap(sub, region, res.point) <= eta + 1e-12
        assert res.iterations <= iteration_bound(res.phi0, c_phi, eta, alpha)
        assert res.iterations == ctr.weak_sep_calls
        # every exact LMO backs a scanned weak separation miss
        assert ctr.exact_lmo_calls == ctr.cache_misses - ctr.hint_answers
        assert ctr.cache_hits + ctr.cache_misses == ctr.weak_sep_calls


def test_cache_holding_the_minimizer_opens_without_an_lmo(monkeypatch):
    # psi is minimized at the vertex e3; from e0 the opening query finds e3,
    # in the warm cache as its best vertex, the opening step reaches it, and
    # the only exact LMO of a warm solve is the one behind the certifying
    # negative answer
    region = Simplex(5)
    sub = Subproblem(g=-10.0 * np.eye(5)[3], center=np.eye(5)[0], beta=1.0)
    queries = record_queries(monkeypatch)
    for warm in (True, False):
        cache, ctr = VertexCache(16, region.support), Counters()
        if warm:
            for i in range(5):
                cache.insert(region.lmo(-np.eye(5)[i]))
        queries.clear()
        res = lcg_solve(sub, region, np.eye(5)[0], alpha=2.0, eta=1e-3, cache=cache,
                        counters=ctr)
        phis = [phi for _, phi in queries]
        assert np.array_equal(res.point, np.eye(5)[3]) and res.cert_gap == 0.0
        assert ctr.cache_hits == int(warm)
        # a cold solve's opening is answered by an exact LMO
        assert ctr.exact_lmo_calls == (1 if warm else 2)
        assert res.iterations == ctr.weak_sep_calls
        # either way the opening is positive by 10 at Phi = alpha * eta, and
        # the loop's first query is at phi0 / 2
        assert res.phi0 == 10.0 and phis[:2] == [2e-3, 5.0]
        assert res.h0 == 10.0 * region.diameter()


def test_warm_cache_certification_fuzz(monkeypatch):
    # caches that already hold vertices, as they do across the inner solves
    # of one run: every certificate survives the exact-LMO audit, and a
    # solve whose opening is answered from the cache stays within its
    # derived iteration bound at the default cap
    rng = np.random.default_rng(33)
    regions = [
        Simplex(8),
        L1Ball(5, radius=1.5),
        Box(4, lo=-1.0, hi=2.0),
        Birkhoff(3),
        Spectrahedron(4),
        DagPath([(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)]),
        Enumerated(hamiltonian_cycle_vertices(5)),
    ]
    openings = {region.kind: [0, 0] for region in regions}
    # the cache hits of a solve when its second query is asked: its opening's
    queries = record_queries(monkeypatch, probe=lambda: ctr.cache_hits)
    for trial in range(420):
        region = regions[trial % len(regions)]
        c_phi_unit = region.diameter() ** 2
        cache = VertexCache(int(rng.choice([16, 512])), region.support)
        for _ in range(int(rng.integers(1, 40))):
            cache.insert(region.lmo(rng.standard_normal(region.dim)))
        alpha = float(rng.choice([1.0, 2.0]))
        u = region.lmo(rng.standard_normal(region.dim)).point
        for _ in range(2):  # the second solve starts where the first ended
            g = rng.standard_normal(region.dim) * 10.0 ** rng.integers(-1, 2)
            beta = float(10.0 ** rng.uniform(-1, 1.5))
            sub = Subproblem(g=g, center=u, beta=beta)
            c_phi = beta * c_phi_unit
            eta = float(c_phi * 10.0 ** rng.uniform(-4.0, -1.0))
            ctr = Counters()
            queries.clear()
            res = lcg_solve(sub, region, u, alpha=alpha, eta=eta, cache=cache, counters=ctr)
            opening_hits = [hits for _, _, hits in queries[1:2]]
            assert region.contains(res.point, tol=1e-9)
            assert res.cert_gap <= eta / alpha
            assert duality_gap(sub, region, res.point) <= eta + 1e-12
            assert res.iterations <= iteration_bound(res.phi0, c_phi, eta, alpha, res.h0)
            assert res.iterations == ctr.weak_sep_calls
            # a solve of one query opened negative, and a hit is positive
            from_cache = opening_hits[0] if opening_hits else 0
            assert from_cache <= (res.h0 is not None)
            openings[region.kind][from_cache] += 1
            u = res.point
    # openings answered from the cache and from the LMO occur on every kind
    assert all(lmo > 0 and cached > 0 for lmo, cached in openings.values()), openings


def test_shared_counters_give_per_solve_counts():
    # one run's Counters accumulates over every subproblem; a caller wanting
    # one solve's counts passes it a fresh Counters, and those add up to the
    # shared one
    rng = np.random.default_rng(31)
    gs = [rng.standard_normal(32) for _ in range(2)]

    def solve_all(counters):
        region, cache = Simplex(32), VertexCache(512)
        u = region.lmo(np.ones(32)).point
        for g, ctr in zip(gs, counters):
            sub = Subproblem(g=g, center=u, beta=4.0)
            u = lcg_solve(sub, region, u, alpha=2.0, eta=1e-4, cache=cache, counters=ctr).point
        return u

    shared, first, second = Counters(), Counters(), Counters()
    assert np.array_equal(solve_all([shared, shared]), solve_all([first, second]))
    names = ("exact_lmo_calls", "weak_sep_calls", "cache_hits")
    assert min(getattr(first, name) for name in names) > 0
    for name in names:
        assert getattr(shared, name) == getattr(first, name) + getattr(second, name)
    assert second.weak_sep_calls > 0


def test_scans_only_queries_without_exact_hint(monkeypatch):
    # a query at an iterate whose exact minimizer is held is answered from
    # it; every other query scans the cache once
    scans = count_scans(monkeypatch)
    rng = np.random.default_rng(32)
    for region in (Simplex(32), L1Ball(10), DagPath([(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)])):
        cache, ctr = VertexCache(64, region.support), Counters()
        u = region.lmo(rng.standard_normal(region.dim)).point
        for _ in range(20):
            sub = Subproblem(g=rng.standard_normal(region.dim), center=u, beta=4.0)
            u = lcg_solve(sub, region, u, alpha=2.0, eta=1e-2, cache=cache,
                          counters=ctr).point
        assert len(scans) == ctr.weak_sep_calls - ctr.hint_answers
        assert ctr.cache_hits + ctr.cache_misses == ctr.weak_sep_calls
        assert ctr.hint_answers >= 20 and ctr.cache_hits > 0
        scans.clear()


def test_cap_exhaustion_carries_state(monkeypatch):
    # the cap is 4x the bound of the opening answer, here 2 queries
    monkeypatch.setattr(lcg, "iteration_bound", lambda *args: 0.5)
    sub = Subproblem(g=np.array([1.0, -1.0]), center=E1.copy(), beta=1.0)
    ctr = Counters()
    with pytest.raises(BudgetExceeded, match="cap 2 exhausted") as exc:
        lcg_solve(sub, Simplex(2), E1, alpha=1.0, eta=1e-9, cache=VertexCache(512), counters=ctr)
    err = exc.value
    assert err.best_point is not None and Simplex(2).contains(err.best_point)
    assert err.last_phi is not None and err.last_phi >= 1e-9
    # the queries made, as LcgResult.iterations counts them
    assert err.iterations == ctr.weak_sep_calls == 2


def test_domain_errors():
    sub = Subproblem(g=np.zeros(2), center=E1.copy(), beta=1.0)
    with pytest.raises(ValueError):
        lcg_solve(sub, Simplex(2), E1, alpha=1.0, eta=0.0, cache=VertexCache(512))
    with pytest.raises(ValueError):
        lcg_solve(sub, Simplex(2), E1, alpha=0.5, eta=1e-3, cache=VertexCache(512))


def test_result_is_dataclass_with_expected_fields():
    sub = Subproblem(g=np.array([0.0, 1.0]), center=E1.copy(), beta=1.0)
    ctr = Counters()
    res = lcg_solve(sub, Simplex(2), E1, alpha=1.0, eta=1e-2, cache=VertexCache(512),
                    counters=ctr)
    assert isinstance(res, LcgResult)
    assert [f.name for f in dataclasses.fields(res)] == [
        "point", "cert_gap", "iterations", "phi0", "h0"]
    assert res.phi0 >= 1e-2
    assert ctr.weak_sep_calls >= 1 and ctr.exact_lmo_calls >= 1
