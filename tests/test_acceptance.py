"""End-to-end acceptance checks, one test per shipped guarantee.

``pytest -v tests/test_acceptance.py`` prints one pass/fail line per
guarantee.  Every tolerance below is the library's published contract — do
not loosen one to make a red test green; fix the library instead.
"""

import math
import time

import numpy as np

from lazy_sliding.bench import gen_instance, load_instance
from lazy_sliding.lcg import Subproblem, duality_gap, iteration_bound, lcg_solve
from lazy_sliding.objectives import (
    GaussianSfo,
    L1Distance,
    LeastSquares,
    SmoothedSaddle,
    estimate_L,
    estimate_sigma2,
    simplex_project,
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
    hamiltonian_cycle_vertices,
    smat,
    svec,
)
from lazy_sliding.schedules import ProblemConstants, ScheduleVariant
from lazy_sliding.solvers import SolverConfig, run_solver

from helpers import (
    brute_birkhoff_min,
    brute_dag_min,
    dense_spectra_min,
    enumerate_dag_paths,
    kkt_simplex_project,
    phase_end_values,
)


def _first_crossing(trace, threshold, column="sfo_calls"):
    """Resource spent when f first reaches the threshold; None if never."""
    for f, c in zip(trace.column("f_value"), trace.column(column)):
        if f <= threshold:
            return c
    return None


def test_ac01_anytime_bound_holds_at_every_iteration():
    # f(x) = ||x - x*||^2 over Simplex(10): L = 2 and D = sqrt(2) exactly,
    # f* = 0, and the deterministic anytime guarantee must hold with zero
    # tolerance at every single iterate.
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    xs = rng.random(10)
    xs /= xs.sum()
    obj = LeastSquares(np.eye(10), xs)
    L, D = 2.0, math.sqrt(2.0)
    x0 = np.zeros(10)
    x0[0] = 1.0
    cfg = SolverConfig("calgd", ProblemConstants(L=L, D_X=D), x0, 200,
                       schedule=ScheduleVariant("smooth_deterministic"))
    tr = run_solver(cfg, obj, Simplex(10))
    assert len(tr.rows) == 200
    for k, f in zip(tr.column("outer_k"), tr.column("f_value")):
        assert f <= 15.0 * L * D * D / (2.0 * (k + 1) * (k + 2))
    assert time.monotonic() - t0 < 5.0


def test_ac02_fixed_horizon_bound_holds_at_terminal_iterate():
    t0 = time.monotonic()
    rng = np.random.default_rng(102)
    A = rng.random((12, 10))
    xs = rng.random(10)
    xs /= xs.sum()
    obj = LeastSquares(A, A @ xs)          # f* = 0 at xs inside the simplex
    L = 2.0 * np.linalg.svd(A, compute_uv=False)[0] ** 2
    x0 = np.zeros(10)
    x0[0] = 1.0
    D0 = float(np.linalg.norm(x0 - xs))    # exact distance to the optimum
    N = 50
    c = ProblemConstants(L=L, D_X=math.sqrt(2.0), D_0=D0)
    cfg = SolverConfig("calgd", c, x0, N,
                       schedule=ScheduleVariant("smooth_deterministic_fixed_n", N=N))
    tr = run_solver(cfg, obj, Simplex(10))
    assert tr.column("f_value")[-1] <= 6.0 * L * D0 * D0 / (N * (N + 1))
    assert time.monotonic() - t0 < 5.0


def test_ac03_certified_inner_solves_across_all_region_kinds():
    # 1000 fuzzed prox subproblems spanning every region kind: the returned
    # certificate must survive an exact-LMO audit at eta + 1e-12 and the
    # iteration count must respect the worst-case bound.
    t0 = time.monotonic()
    rng = np.random.default_rng(103)
    regions = [
        Simplex(8),
        L1Ball(5, radius=1.5),
        Box(4, lo=-1.0, hi=2.0),
        Birkhoff(3),
        Spectrahedron(4),
        DagPath([(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)]),
        Enumerated(hamiltonian_cycle_vertices(5)),
    ]
    kinds_seen = set()
    for trial in range(1000):
        region = regions[trial % len(regions)]
        kinds_seen.add(region.kind)
        g = rng.standard_normal(region.dim) * 10.0 ** rng.integers(-1, 2)
        center = region.lmo(rng.standard_normal(region.dim)).point
        beta = float(10.0 ** rng.uniform(-1, 1.5))
        alpha = float(rng.choice([1.0, 2.0]))
        c_phi = beta * region.diameter() ** 2
        eta = float(c_phi * 10.0 ** rng.uniform(-4.0, -1.0))
        sub = Subproblem(g=g, center=center, beta=beta)
        u1 = region.lmo(rng.standard_normal(region.dim)).point
        cache = VertexCache(capacity=int(rng.choice([0, 16, 512])))
        res = lcg_solve(sub, region, u1, alpha=alpha, eta=eta, cache=cache)
        assert region.contains(res.point, tol=1e-9)
        assert res.cert_gap <= eta / alpha
        assert duality_gap(sub, region, res.point) <= eta + 1e-12
        assert res.iterations <= iteration_bound(res.phi0, c_phi, eta, alpha)
    assert len(kinds_seen) == 7
    assert time.monotonic() - t0 < 60.0


def test_ac04_restart_gap_halves_every_phase():
    t0 = time.monotonic()
    rng = np.random.default_rng(104)
    B = rng.standard_normal((12, 10)) + 0.5
    xs = rng.random(10)
    xs /= xs.sum()
    obj = LeastSquares(B, B @ xs)
    s_vals = np.linalg.svd(B, compute_uv=False)
    L = 2.0 * s_vals[0] ** 2               # exact smoothness
    mu = 2.0 * s_vals[-1] ** 2             # exact strong convexity
    x0 = np.zeros(10)
    x0[0] = 1.0
    d0 = obj.value(x0)                     # exact initial gap (f* = 0)
    c = ProblemConstants(L=L, mu=mu, delta0=d0, D_X=math.sqrt(2.0))
    cfg = SolverConfig("calgd_sc", c, x0, 10 ** 9, seed=0, eps=d0 / 64.0)
    tr = run_solver(cfg, obj, Simplex(10))
    ends = phase_end_values(tr)
    assert len(ends) == 6
    for s, f in enumerate(ends, 1):
        assert f <= d0 * 2.0 ** -s
    assert tr.metadata["phases"] == 6
    assert time.monotonic() - t0 < 10.0


def test_ac05_stochastic_seed_mean_within_expectation_bound():
    # 20 independent runs; the seed-mean optimality gap at k in {5, 10, 20}
    # must sit within 1.5x the expectation guarantee (the 1.5 covers
    # Monte-Carlo noise around a bound that only holds in expectation).
    t0 = time.monotonic()
    rng = np.random.default_rng(105)
    A = rng.random((12, 6))
    xs = rng.random(6)
    xs /= xs.sum()
    base = LeastSquares(A, A @ xs)         # f* = 0
    obj = GaussianSfo(base, 1.0)
    L = 2.0 * np.linalg.svd(A, compute_uv=False)[0] ** 2
    D = math.sqrt(2.0)
    x0 = np.zeros(6)
    x0[0] = 1.0
    sigma2 = estimate_sigma2(obj, x0)
    c = ProblemConstants(L=L, sigma2=sigma2, D_X=D)
    checkpoints = (5, 10, 20)
    sums = {k: 0.0 for k in checkpoints}
    n_seeds = 20
    for seed in range(n_seeds):
        cfg = SolverConfig("calsgd", c, x0, 20,
                           schedule=ScheduleVariant("smooth_stochastic"), seed=seed)
        tr = run_solver(cfg, obj, Simplex(6))
        f = tr.column("f_value")
        for k in checkpoints:
            sums[k] += f[k - 1]
    for k in checkpoints:
        bound = (6.0 * L * D * D / (k + 2) ** 2
                 + 9.0 * L * D * D / (2.0 * (k + 1) * (k + 2)))
        assert sums[k] / n_seeds <= 1.5 * bound, k
    assert time.monotonic() - t0 < 60.0


def test_ac06_nonsmooth_terminal_bound():
    t0 = time.monotonic()
    x_star = np.array([0.25, 0.5, 0.75, 0.1, 0.9])
    obj = L1Distance(x_star)
    region = Box(5, 0.0, 1.0)
    M = 2.0 * math.sqrt(5)                 # the sign subgradient's M, 2 sqrt(n), tight
    D = region.diameter()                  # sqrt(5)
    N = 400
    c = ProblemConstants(sigma2=0.0, M=M, D_X=D)
    cfg = SolverConfig("calsgd_nonsmooth", c, np.zeros(5), N,
                       schedule=ScheduleVariant("nonsmooth_stochastic", N=N),
                       seed=0)
    tr = run_solver(cfg, obj, region)
    bound = 5.0 * D * math.sqrt(0.0 + M * M) / (2.0 * math.sqrt(N))
    assert tr.column("f_value")[-1] <= bound   # f* = 0 (x_star inside the box)
    assert tr.column("sfo_calls")[-1] == N
    assert time.monotonic() - t0 < 10.0


def test_ac07_smoothing_sandwich_bounds_max_function():
    t0 = time.monotonic()
    rng = np.random.default_rng(107)
    A = rng.standard_normal((4, 7))
    obj = SmoothedSaddle(A)
    for tau in (1e-3, 1e-2, 1e-1, 1.0, 10.0):
        for _ in range(100):
            x = rng.standard_normal(7) * 3.0
            f = obj.value(x)
            f_tau, _ = obj.smoothed(x, tau)
            assert f <= f_tau + 1e-10
            assert f_tau <= f + tau * obj.d2_yw + 1e-10
    assert time.monotonic() - t0 < 5.0


def test_ac08_sfo_unbiased_with_bounded_variance():
    t0 = time.monotonic()
    rng = np.random.default_rng(108)
    A = rng.random((60, 12))
    xs = rng.random(12)
    xs /= xs.sum()
    obj = LeastSquares(A, A @ xs)
    refs = []
    for i in range(3):
        p = np.random.default_rng(200 + i).random(12)
        refs.append(p / p.sum())
    for i, x in enumerate(refs):
        g = obj.grad(x)
        rng = np.random.default_rng(300 + i)
        S = np.array([obj.sfo_batch(x, 1, rng) for _ in range(10 ** 5)])
        mean = S.mean(axis=0)
        se = S.std(axis=0, ddof=1) / math.sqrt(S.shape[0])
        assert np.all(np.abs(mean - g) <= 3.0 * se)
        emp_var = float(np.mean(np.sum((S - g[None, :]) ** 2, axis=1)))
        est = estimate_sigma2(obj, x)
        assert emp_var <= 1.2 * est
    assert time.monotonic() - t0 < 30.0


def test_ac09_lazy_solver_beats_baselines_on_oracle_counts():
    # Structured regression over the Hamiltonian-cycle polytope (7 nodes,
    # 360 vertices): paired across 20 seeds, the lazy sliding solver must
    # (a) never answer more exact LMO calls than its eager twin, and
    # (b) reach f <= 1e-3 with fewer SFO calls than the one-sample
    #     online baseline needs to reach even 1e-1, on >= 18/20 seeds.
    t0 = time.monotonic()
    inst = gen_instance({
        "region": {"kind": "hamiltonian_cycles", "nodes": 7},
        "objective": {"type": "least_squares", "m": 10000, "density": 0.6},
        "seed": 11,
    })
    region, objective, _ = load_instance(inst)
    x_star = np.asarray(inst["objective"]["x_star"])
    x0 = region.lmo(np.ones(region.dim)).point
    L = estimate_L(objective)
    D = region.diameter()
    D0 = min(D, float(np.linalg.norm(x0 - x_star)))
    sigma2 = estimate_sigma2(objective, x0)
    N = 450
    c = ProblemConstants(L=L, sigma2=sigma2, D_X=D, D_0=D0)
    sv = ScheduleVariant("smooth_stochastic_fixed_n", N=N)
    ofw_budget = 48000
    lazy_wins = 0
    for seed in range(20):
        lazy = run_solver(SolverConfig("calsgd", c, x0, N, schedule=sv,
                                       seed=seed, batch=128,
                                       cache_capacity=512), objective, region)
        eager = run_solver(SolverConfig("scgs", c, x0, N, schedule=sv,
                                        seed=seed, batch=128,
                                        cache_capacity=0), objective, region)
        # (a) paired laziness: identical SFO usage, never more exact LMOs
        assert lazy.column("sfo_calls") == eager.column("sfo_calls")
        assert (lazy.column("exact_lmo_calls")[-1]
                <= eager.column("exact_lmo_calls")[-1]), seed
        lazy_sfo = _first_crossing(lazy, 1e-3)
        assert lazy_sfo is not None, seed   # the lazy solver does converge
        ofw = run_solver(SolverConfig("ofw", c, x0, ofw_budget, seed=seed),
                         objective, region)
        ofw_sfo = _first_crossing(ofw, 1e-1)
        assert lazy_sfo <= ofw_budget
        if ofw_sfo is None or lazy_sfo < ofw_sfo:
            lazy_wins += 1
    assert lazy_wins >= 18
    assert time.monotonic() - t0 < 300.0


def test_ac10_oracles_match_independent_references():
    t0 = time.monotonic()
    rng = np.random.default_rng(110)
    # assignment polytope vs exhaustive permutation search
    for n in (2, 3, 4):
        region = Birkhoff(n)
        for _ in range(25):
            cost = rng.standard_normal(n * n)
            best, _ = brute_birkhoff_min(cost, n)
            assert float(cost @ region.lmo(cost).point) <= best + 1e-10
    # path polytope vs full path enumeration
    edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5),
             (1, 2)]
    region = DagPath(edges)
    assert len(enumerate_dag_paths(edges, 0, 5)) <= 20
    for _ in range(25):
        cost = rng.standard_normal(len(edges))
        best, _ = brute_dag_min(edges, cost, 0, 5)
        assert float(cost @ region.lmo(cost).point) <= best + 1e-10
    # explicit vertex list vs row-wise argmin
    V = rng.random((40, 6))
    region = Enumerated(V)
    for _ in range(25):
        cost = rng.standard_normal(6)
        assert float(cost @ region.lmo(cost).point) <= float((V @ cost).min()) + 1e-12
    # spectrahedron vs dense eigensolve, n up to 20, tolerance 1e-8
    for n in (2, 5, 12, 20):
        region = Spectrahedron(n)
        for _ in range(10):
            C = rng.standard_normal((n, n))
            C = 0.5 * (C + C.T)
            lam_min, _ = dense_spectra_min(C)
            v = region.lmo(svec(C))
            assert abs(float(svec(C) @ v.point) - lam_min) <= 1e-8
            X = smat(v.point)
            assert abs(np.trace(X) - 1.0) <= 1e-9
    # simplex projection vs KKT bisection, tolerance 1e-9
    for _ in range(200):
        dim = int(rng.integers(2, 12))
        v = rng.standard_normal(dim) * 10.0 ** rng.integers(-2, 3)
        assert np.max(np.abs(simplex_project(v) - kkt_simplex_project(v))) <= 1e-9
    assert time.monotonic() - t0 < 30.0
