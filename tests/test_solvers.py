import dataclasses
import math

import numpy as np
import pytest

from lazy_sliding import lcg, solvers
from lazy_sliding.errors import BudgetExceeded, ConfigError
from lazy_sliding.lcg import duality_gap, lcg_solve
from lazy_sliding.objectives import (
    GaussianSfo,
    L1Distance,
    LeastSquares,
    SmoothedSaddle,
    estimate_L,
)
from lazy_sliding.regions import Box, Simplex, Spectrahedron
from lazy_sliding.schedules import ProblemConstants, ScheduleVariant, schedule_eval
from lazy_sliding.solvers import SolverConfig, run_solver

from helpers import EXACT_TAGS, grid_game_value, phase_end_values, reference_ofw


def _simplex_ls(rng, m=8, n=6, noise=0.0):
    """Least squares whose optimum sits inside the simplex with f* = 0."""
    A = rng.random((m, n))
    xs = rng.random(n)
    xs /= xs.sum()
    base = LeastSquares(A, A @ xs)
    obj = GaussianSfo(base, noise) if noise >= 0 else base
    return obj, base, xs


def _vertex(n, i=0):
    x = np.zeros(n)
    x[i] = 1.0
    return x


def _audited_solves(monkeypatch):
    """(LcgResult, audit excess) of every inner solve run_solver makes from now on.

    The excess is the exact duality gap of the solve's point minus its eta;
    the audit's LMOs are not in the run's counters.
    """
    solves = []

    def audited(sub, region, u1, alpha, eta, *args, **kwargs):
        res = lcg_solve(sub, region, u1, alpha, eta, *args, **kwargs)
        solves.append((res, duality_gap(sub, region, res.point) - eta))
        return res

    monkeypatch.setattr(solvers, "lcg_solve", audited)
    return solves


def _spied_run(monkeypatch, config, objective, region):
    """run_solver under spies: the point z of every gradient, the output x of
    every inner solve and the point y of every trace row's objective value."""
    seen = {"z": [], "x": [], "y": []}

    def recording(key, method):
        def spy(point, *args):
            seen[key].append(point)
            return method(point, *args)
        return spy

    def solve(*args, **kwargs):
        res = lcg_solve(*args, **kwargs)
        seen["x"].append(res.point)
        return res

    lcg_solve = solvers.lcg_solve
    with monkeypatch.context() as m:
        m.setattr(solvers, "lcg_solve", solve)
        m.setattr(objective, "value", recording("y", objective.value))
        for name in ("grad", "sfo_batch"):
            m.setattr(objective, name, recording("z", getattr(objective, name)))
        run_solver(config, objective, region)
    return seen


def test_first_iteration_collapses_to_x0(monkeypatch):
    # gamma_1 = 1 forces z_1 = x_0 and y_1 = x_1 for every smooth schedule
    rng = np.random.default_rng(0)
    obj, base, _ = _simplex_ls(rng)
    c = ProblemConstants(L=estimate_L(base), sigma2=0.0, D_X=math.sqrt(2.0))
    x0 = _vertex(6)
    cfg = SolverConfig("calgd", c, x0, 1, schedule=ScheduleVariant("smooth_deterministic"))
    seen = _spied_run(monkeypatch, cfg, obj, Simplex(6))
    assert np.array_equal(seen["z"][0], x0)
    assert np.array_equal(seen["y"][0], seen["x"][0])


def test_zero_noise_calsgd_matches_calgd_bitwise(monkeypatch):
    # both runs read the deterministic schedule's steps, the calsgd one with a
    # batch of one sample, so a zero-noise sample must reproduce the exact
    # gradient's iterates bit for bit
    rng = np.random.default_rng(1)
    obj, base, _ = _simplex_ls(rng, noise=0.0)
    c = ProblemConstants(L=estimate_L(base), sigma2=0.0, D_X=math.sqrt(2.0))
    x0 = _vertex(6)
    sv = ScheduleVariant("smooth_deterministic")
    monkeypatch.setattr(solvers, "schedule_eval",
                        lambda _, k, c: dataclasses.replace(schedule_eval(sv, k, c), batch=1))
    sa = _spied_run(monkeypatch, SolverConfig("calsgd", c, x0, 29, seed=3, batch=1,
                                              schedule=ScheduleVariant("smooth_stochastic")),
                    obj, Simplex(6))
    sb = _spied_run(monkeypatch, SolverConfig("calgd", c, x0, 29, seed=3, schedule=sv),
                    obj, Simplex(6))
    assert len(sa["x"]) == len(sb["x"]) == len(sa["y"]) == len(sb["y"]) == 29
    for key in ("x", "y"):
        assert all(np.array_equal(a, b) for a, b in zip(sa[key], sb[key]))


def test_calgd_anytime_bound(monkeypatch):
    rng = np.random.default_rng(2)
    _, base, _ = _simplex_ls(rng, m=10, n=8)
    L = estimate_L(base)
    D = math.sqrt(2.0)
    c = ProblemConstants(L=L, D_X=D)
    cfg = SolverConfig("calgd", c, _vertex(8), 60,
                       schedule=ScheduleVariant("smooth_deterministic"), alpha=1.0)
    solves = _audited_solves(monkeypatch)
    tr = run_solver(cfg, base, Simplex(8))
    for k, f in zip(tr.column("outer_k"), tr.column("f_value")):
        assert f <= 15.0 * L * D * D / (2.0 * (k + 1) * (k + 2))  # f* = 0
    assert len(solves) == 60 and max(excess for _, excess in solves) <= 1e-12


def test_calgd_fixed_n_bound():
    rng = np.random.default_rng(3)
    _, base, xs = _simplex_ls(rng, m=10, n=8)
    L = estimate_L(base)
    x0 = _vertex(8)
    D0 = float(np.linalg.norm(x0 - xs))
    N = 50
    c = ProblemConstants(L=L, D_X=math.sqrt(2.0), D_0=D0)
    cfg = SolverConfig("calgd", c, x0, N,
                       schedule=ScheduleVariant("smooth_deterministic_fixed_n", N=N), alpha=1.0)
    tr = run_solver(cfg, base, Simplex(8))
    assert tr.column("f_value")[-1] <= 6.0 * L * D0 * D0 / (N * (N + 1))


def _drop_wall(trace):
    return [r[:1] + r[2:] for r in trace.rows]


def test_scgs_identical_to_calsgd_without_cache():
    # scgs is the lazy inner loop at alpha=1 with no cache, so it coincides
    # with calsgd run that way in every column; with a warm cache the lazy
    # one must answer fewer exact LMOs
    rng = np.random.default_rng(4)
    obj, base, xs = _simplex_ls(rng, noise=0.0)
    x0 = _vertex(6)
    c = ProblemConstants(L=estimate_L(base), sigma2=0.0, D_X=math.sqrt(2.0),
                         D_0=min(math.sqrt(2.0), float(np.linalg.norm(x0 - xs))))
    N = 80
    sv = ScheduleVariant("smooth_stochastic_fixed_n", N=N)
    tr_lazy0 = run_solver(SolverConfig("calsgd", c, x0, N, schedule=sv, seed=1,
                                       cache_capacity=0, alpha=1.0), obj, Simplex(6))
    tr_scgs = run_solver(SolverConfig("scgs", c, x0, N, schedule=sv, seed=1,
                                      cache_capacity=0, alpha=1.0), obj, Simplex(6))
    assert _drop_wall(tr_lazy0) == _drop_wall(tr_scgs)
    assert tr_scgs.column("weak_sep_calls")[-1] > 0
    # SolverConfig runs scgs at alpha = 1 with no cache, whatever it is given
    tr_scgs2 = run_solver(SolverConfig("scgs", c, x0, N, schedule=sv, seed=1,
                                       cache_capacity=512, alpha=2.0), obj, Simplex(6))
    assert _drop_wall(tr_scgs2) == _drop_wall(tr_scgs)
    assert tr_scgs2.metadata["final_counters"]["cache_hits"] == 0
    tr_lazy = run_solver(SolverConfig("calsgd", c, x0, N, schedule=sv, seed=1,
                                      cache_capacity=512, alpha=1.0), obj, Simplex(6))
    assert tr_lazy.column("exact_lmo_calls")[-1] < tr_scgs.column("exact_lmo_calls")[-1]
    assert tr_lazy.column("cache_hits")[-1] > 0
    # paired comparison contract: same SFO usage per outer iteration
    assert tr_lazy.column("sfo_calls") == tr_scgs.column("sfo_calls")


def test_the_schedule_decides_the_gradient_oracle():
    ls_obj, ls, _ = _simplex_ls(np.random.default_rng(13), noise=0.5)
    saddle = SmoothedSaddle(np.random.default_rng(14).standard_normal((3, 6)))
    x0 = _vertex(6)
    L = estimate_L(ls)
    c = ProblemConstants(L=L, mu=L, sigma2=0.5, M=1.0, D_X=math.sqrt(2.0), D_0=1.0,
                         delta0=ls.value(x0), A_norm=np.linalg.norm(saddle.A, 2), sigma_omega=1.0,
                         D_YW=math.sqrt(saddle.d2_yw))
    pairs = [(variant, tag) for variant, tags in solvers._ALLOWED_TAGS.items()
             for tag in sorted(tags)] + sorted(solvers.RESTARTS.items())
    assert len(pairs) == 13
    for variant, tag in pairs:
        obj = saddle if tag.startswith("saddle") else ls_obj
        if variant in solvers.RESTARTS:
            cfg = SolverConfig(variant, c, x0, 10, eps=c.delta0 / 2.0)
        else:
            cfg = SolverConfig(variant, c, x0, 5, schedule=ScheduleVariant(tag, N=5))
        tr = run_solver(cfg, obj, Simplex(6))
        fc = tr.metadata["final_counters"]
        assert tr.rows, (variant, tag)
        assert (fc["fo_calls"] > 0) == (tag in EXACT_TAGS), (variant, tag)
        assert (fc["sfo_calls"] > 0) == (tag not in EXACT_TAGS), (variant, tag)


def test_scgs_on_a_deterministic_schedule_is_calgd_without_cache():
    rng = np.random.default_rng(15)
    obj, base, xs = _simplex_ls(rng, noise=0.5)
    x0 = _vertex(6)
    c = ProblemConstants(L=estimate_L(base), D_X=math.sqrt(2.0),
                         D_0=float(np.linalg.norm(x0 - xs)))
    for sv in (ScheduleVariant("smooth_deterministic"),
               ScheduleVariant("smooth_deterministic_fixed_n", N=30)):
        tr_calgd = run_solver(SolverConfig("calgd", c, x0, 30, schedule=sv, seed=2,
                                           cache_capacity=0), obj, Simplex(6))
        tr_scgs = run_solver(SolverConfig("scgs", c, x0, 30, schedule=sv, seed=2),
                             obj, Simplex(6))
        assert _drop_wall(tr_scgs) == _drop_wall(tr_calgd)
        assert tr_scgs.column("sfo_calls")[-1] == 0
        assert tr_scgs.column("fo_calls")[-1] == 30


def test_restart_with_a_zero_scale_constant_is_rejected():
    # L = 0 would plan phases of 0 iterations, delta0 = 0 no phase at all
    c = ProblemConstants(L=1.0, mu=1.0, delta0=1.0, sigma2=0.0, D_X=math.sqrt(2.0))
    obj = _simplex_ls(np.random.default_rng(16))[0]
    for variant in solvers.RESTARTS:
        for name in ("L", "delta0"):
            cfg = SolverConfig(variant, dataclasses.replace(c, **{name: 0.0}), _vertex(6), 10,
                               eps=0.1)
            with pytest.raises(ConfigError, match="'%s' > 0" % name):
                run_solver(cfg, obj, Simplex(6))


def test_oracle_wrappers_count_what_the_run_counts(monkeypatch):
    # the benchmark's tracer wraps weak_separation where lcg imports it and
    # VertexCache.scan; their calls must be the run's own counts, the
    # opening query of every inner solve included
    from lazy_sliding import lcg
    from lazy_sliding.oracle import VertexCache

    queries, scans = [], []
    weak_separation, scan = lcg.weak_separation, VertexCache.scan

    def counted_query(*args, **kwargs):
        queries.append(1)
        return weak_separation(*args, **kwargs)

    def counted_scan(self, *args):
        result = scan(self, *args)
        scans.append(result)
        return result

    monkeypatch.setattr(lcg, "weak_separation", counted_query)
    monkeypatch.setattr(VertexCache, "scan", counted_scan)
    solves = _audited_solves(monkeypatch)
    rng = np.random.default_rng(12)
    obj, base, _ = _simplex_ls(rng, noise=1.0)
    c = ProblemConstants(L=estimate_L(base), sigma2=1.0, D_X=math.sqrt(2.0),
                         D_0=math.sqrt(2.0))
    sv = ScheduleVariant("smooth_stochastic_fixed_n", N=60)
    for variant in ("calsgd", "scgs"):
        queries.clear()
        scans.clear()
        solves.clear()
        tr = run_solver(SolverConfig(variant, c, _vertex(6), 60, schedule=sv, seed=3),
                        obj, Simplex(6))
        fc = tr.metadata["final_counters"]
        assert len(queries) == fc["weak_sep_calls"] == tr.column("weak_sep_calls")[-1]
        assert sum(hit is not None for hit in scans) == fc["cache_hits"]
        # an inner solve's iterations are its queries, the opening included
        assert sum(res.iterations for res, _ in solves) == fc["weak_sep_calls"]
        assert fc["exact_lmo_calls"] == fc["cache_misses"] - fc["hint_answers"]
        # the warm cache answers some queries; scgs has none to answer from
        assert (fc["cache_hits"] > 0) == (variant == "calsgd")


def test_calsgd_stochastic_descends():
    rng = np.random.default_rng(5)
    obj, base, _ = _simplex_ls(rng, noise=4.0)
    c = ProblemConstants(L=estimate_L(base), sigma2=4.0, D_X=math.sqrt(2.0))
    cfg = SolverConfig("calsgd", c, _vertex(6), 40,
                       schedule=ScheduleVariant("smooth_stochastic"), seed=7)
    tr = run_solver(cfg, obj, Simplex(6))
    f = tr.column("f_value")
    assert f[-1] < 0.05 * f[0]
    assert tr.column("sfo_calls")[-1] > 40  # batches grow beyond one sample


def test_deterministic_restart_decays_per_phase(monkeypatch):
    rng = np.random.default_rng(22)
    B = rng.standard_normal((8, 5)) + 0.5
    xs = np.full(5, 0.2)
    ls = LeastSquares(B, B @ xs)
    L = estimate_L(ls)
    mu = 2.0 * np.linalg.svd(B, compute_uv=False)[-1] ** 2
    x0 = _vertex(5)
    d0 = ls.value(x0)
    c = ProblemConstants(L=L, mu=mu, delta0=d0, D_X=math.sqrt(2.0))
    cfg = SolverConfig("calgd_sc", c, x0, 10 ** 9, seed=0, eps=d0 / 64.0)
    tr = run_solver(cfg, ls, Simplex(5))
    ends = phase_end_values(tr)
    assert len(ends) == 6  # ceil(log2(64))
    for s, f in enumerate(ends, 1):
        assert f <= d0 * 2.0 ** -s  # f* = 0
    assert tr.metadata["phases"] == 6
    assert tr.column("outer_k") == list(range(1, 6 * tr.metadata["phase_length"] + 1))
    # restart phases run the same loop body, and every certificate of it
    # survives the exact-LMO audit
    solves = _audited_solves(monkeypatch)
    tr3 = run_solver(cfg, ls, Simplex(5))
    assert tr3.column("f_value") == tr.column("f_value")
    assert len(solves) == len(tr.rows) and max(excess for _, excess in solves) <= 1e-12


def test_stochastic_restart_decays_per_phase():
    rng = np.random.default_rng(22)
    B = rng.standard_normal((8, 5)) + 0.5
    xs = np.full(5, 0.2)
    ls = LeastSquares(B, B @ xs)
    gobj = GaussianSfo(ls, 0.5)
    L = estimate_L(ls)
    mu = 2.0 * np.linalg.svd(B, compute_uv=False)[-1] ** 2
    x0 = _vertex(5)
    d0 = ls.value(x0)
    c = ProblemConstants(L=L, mu=mu, delta0=d0, sigma2=0.5, D_X=math.sqrt(2.0))
    for seed in range(6):
        cfg = SolverConfig("calsgd_sc", c, x0, 10 ** 9, seed=seed, eps=d0 / 16.0)
        for s, f in enumerate(phase_end_values(run_solver(cfg, gobj, Simplex(5))), 1):
            assert f <= d0 * 2.0 ** -s


def test_saddle_converges_to_game_value():
    rng = np.random.default_rng(21)
    A = rng.standard_normal((3, 6))
    obj = SmoothedSaddle(A)
    v_star = grid_game_value(A, steps=600)
    c = ProblemConstants(A_norm=np.linalg.norm(A, 2), sigma_omega=1.0,
                         D_YW=math.sqrt(obj.d2_yw), D_X=math.sqrt(2.0))
    x0 = _vertex(6)
    N = 150
    for tag, tol in (("saddle_static", 0.06), ("saddle_dynamic", 0.30)):
        sv = ScheduleVariant(tag, N=N if tag == "saddle_static" else None)
        cfg = SolverConfig("calgd_saddle", c, x0, N, schedule=sv, seed=0)
        tr = run_solver(cfg, obj, Simplex(6))
        f_n = tr.column("f_value")[-1]
        assert f_n >= v_star - 0.01   # max-function values never undershoot
        assert f_n - v_star <= tol
        assert tr.column("fo_calls")[-1] == N


def test_nonsmooth_bound():
    # l1 distance over the unit box, deterministic subgradients (sigma = 0)
    x_star = np.array([0.25, 0.5, 0.75, 0.1, 0.9])
    obj = L1Distance(x_star)
    region = Box(5, 0.0, 1.0)
    M = 2.0 * math.sqrt(5)  # the sign subgradient's M, 2 sqrt(n), tight
    D = region.diameter()
    N = 100
    c = ProblemConstants(sigma2=0.0, M=M, D_X=D)
    cfg = SolverConfig("calsgd_nonsmooth", c, np.zeros(5), N,
                       schedule=ScheduleVariant("nonsmooth_stochastic", N=N), seed=0)
    tr = run_solver(cfg, obj, region)
    assert tr.column("f_value")[-1] <= 5.0 * D * math.sqrt(M * M) / (2.0 * math.sqrt(N))
    assert tr.column("sfo_calls")[-1] == N  # single-sample rule


def test_nonsmooth_honours_batch_override():
    obj, _, _ = _simplex_ls(np.random.default_rng(11), noise=1.0)
    c = ProblemConstants(sigma2=1.0, M=2.0 * math.sqrt(6), D_X=math.sqrt(2.0))

    def run(batch):
        cfg = SolverConfig("calsgd_nonsmooth", c, _vertex(6), 20, seed=4, batch=batch,
                           schedule=ScheduleVariant("nonsmooth_stochastic", N=20))
        return run_solver(cfg, obj, Simplex(6))

    default, one, four = run(None), run(1), run(4)
    assert default.column("sfo_calls") == list(range(1, 21))
    assert _drop_wall(one) == _drop_wall(default)
    assert four.column("sfo_calls") == [4 * k for k in range(1, 21)]
    assert four.column("f_value") != default.column("f_value")  # the batch reached the sampler


def test_ofw_first_step_and_feasibility():
    rng = np.random.default_rng(6)
    obj, base, _ = _simplex_ls(rng, noise=1.0)
    region = Simplex(6)
    x0 = _vertex(6)
    c = ProblemConstants(L=estimate_L(base), sigma2=1.0, D_X=math.sqrt(2.0))
    cfg = SolverConfig("ofw", c, x0, 50, seed=9)
    tr = run_solver(cfg, obj, region)
    assert len(tr.rows) == 50
    assert tr.column("exact_lmo_calls") == list(range(1, 51))
    assert tr.column("sfo_calls") == list(range(1, 51))  # default batch 1
    # gamma_1 = 1: the first iterate jumps straight to the first LMO vertex,
    # reproduced here from the same seeded stream
    from lazy_sliding.solvers import _stream
    g1 = obj.sfo_batch(x0, 1, _stream(np.random.Generator(np.random.Philox()), 9, 1))
    v1 = region.lmo(g1).point
    f1_expected = obj.value(v1)
    assert tr.column("f_value")[0] == pytest.approx(f1_expected, rel=1e-12)


@pytest.mark.parametrize("batch", [None, 1, 3])
@pytest.mark.parametrize("region", [Simplex(6), Spectrahedron(3)], ids=["simplex", "spectra"])
def test_ofw_matches_reference_loop(batch, region):
    # the spectrahedron LMO moves with any change in the averaged gradient,
    # so a wrong averaging weight shows in f even where simplex vertices do not
    rng = np.random.default_rng(6)
    obj, base, _ = _simplex_ls(rng, noise=1.0)
    x0 = region.lmo(np.arange(6.0)).point
    c = ProblemConstants(L=estimate_L(base), sigma2=1.0, D_X=math.sqrt(2.0))
    cfg = SolverConfig("ofw", c, x0, 40, seed=9, batch=batch)
    tr = run_solver(cfg, obj, region)
    ref = reference_ofw(obj, region, x0, 40, seed=9, batch=batch or 1)
    got = list(zip(tr.column("f_value"), tr.column("sfo_calls"), tr.column("exact_lmo_calls")))
    assert got == ref
    tr = run_solver(dataclasses.replace(cfg, time_limit=0.0), obj, region)
    assert tr.metadata["status"] == "time_limit" and tr.rows == []


def test_iterates_stay_feasible_across_variants(monkeypatch):
    rng = np.random.default_rng(7)
    obj, base, _ = _simplex_ls(rng, noise=0.5)
    region = Simplex(6)
    L = estimate_L(base)
    x0 = _vertex(6)
    cases = [
        ("calsgd", ScheduleVariant("smooth_stochastic"),
         ProblemConstants(L=L, sigma2=0.5, D_X=math.sqrt(2.0))),
        ("calgd", ScheduleVariant("smooth_deterministic"),
         ProblemConstants(L=L, D_X=math.sqrt(2.0))),
    ]
    for variant, sv, c in cases:
        seen = _spied_run(monkeypatch, SolverConfig(variant, c, x0, 24, schedule=sv, seed=11),
                          obj, region)
        assert len(seen["x"]) == len(seen["y"]) == len(seen["z"]) == 24
        for key in ("x", "y", "z"):
            assert all(region.contains(p, tol=1e-9) for p in seen[key]), (variant, key)


def test_run_is_deterministic():
    rng = np.random.default_rng(8)
    obj, base, _ = _simplex_ls(rng, noise=2.0)
    c = ProblemConstants(L=estimate_L(base), sigma2=2.0, D_X=math.sqrt(2.0))
    cfg = SolverConfig("calsgd", c, _vertex(6), 30,
                       schedule=ScheduleVariant("smooth_stochastic"), seed=13)
    a = run_solver(cfg, obj, Simplex(6))
    b = run_solver(cfg, obj, Simplex(6))
    assert _drop_wall(a) == _drop_wall(b)
    assert a.metadata["final_counters"] == b.metadata["final_counters"]


def test_counter_algebra():
    rng = np.random.default_rng(9)
    obj, base, _ = _simplex_ls(rng, noise=1.0)
    c = ProblemConstants(L=estimate_L(base), sigma2=1.0, D_X=math.sqrt(2.0))
    N = 20
    cfg = SolverConfig("calgd", c, _vertex(6), N,
                       schedule=ScheduleVariant("smooth_deterministic"))
    tr = run_solver(cfg, base, Simplex(6))
    assert tr.column("fo_calls")[-1] == N
    assert tr.column("sfo_calls")[-1] == 0
    cfg = SolverConfig("calsgd", c, _vertex(6), N,
                       schedule=ScheduleVariant("smooth_stochastic"), batch=7)
    tr = run_solver(cfg, obj, Simplex(6))
    assert tr.column("sfo_calls") == [7 * k for k in range(1, N + 1)]
    # every counter column is non-decreasing
    for name in ("sfo_calls", "fo_calls", "exact_lmo_calls", "weak_sep_calls",
                 "cache_hits", "inner_iters"):
        col = tr.column(name)
        assert all(b >= a for a, b in zip(col, col[1:]))
    assert tr.column("inner_iters")[-1] >= tr.column("weak_sep_calls")[-1]
    # hint answers are misses that cost neither a scan nor an LMO
    fc = tr.metadata["final_counters"]
    assert fc["cache_hits"] + fc["cache_misses"] == fc["weak_sep_calls"]
    assert 0 < fc["hint_answers"] <= fc["cache_misses"]
    # the inner_iters column counts weak separation queries, the opening of
    # each inner solve included, and every exact LMO is behind a scanned
    # cache miss
    assert tr.column("inner_iters") == tr.column("weak_sep_calls")
    assert "inner_iters" not in fc
    assert fc["cache_hits"] > 0
    assert fc["exact_lmo_calls"] == fc["cache_misses"] - fc["hint_answers"]


def test_time_limit_zero_stops_immediately():
    rng = np.random.default_rng(10)
    obj, base, _ = _simplex_ls(rng)
    c = ProblemConstants(L=estimate_L(base), D_X=math.sqrt(2.0))
    cfg = SolverConfig("calgd", c, _vertex(6), 50,
                       schedule=ScheduleVariant("smooth_deterministic"),
                       time_limit=0.0)
    tr = run_solver(cfg, base, Simplex(6))
    assert tr.metadata["status"] == "time_limit"
    assert len(tr.rows) == 0
    # restart phases stop through the same loop: no rows and no phase points
    d0 = base.value(_vertex(6))
    c = dataclasses.replace(c, mu=1e-3 * c.L, delta0=d0)
    cfg = SolverConfig("calgd_sc", c, _vertex(6), 50, eps=d0 / 64.0, time_limit=0.0)
    tr = run_solver(cfg, base, Simplex(6))
    assert tr.metadata["status"] == "time_limit"
    assert len(tr.rows) == 0 and phase_end_values(tr) == []


def test_lcg_cap_budget_error_propagates(monkeypatch):
    rng = np.random.default_rng(11)
    obj, base, _ = _simplex_ls(rng)
    c = ProblemConstants(L=estimate_L(base), D_X=math.sqrt(2.0))
    cfg = SolverConfig("calgd", c, _vertex(6), 50,
                       schedule=ScheduleVariant("smooth_deterministic"))
    monkeypatch.setattr(lcg, "iteration_bound", lambda *args: 0.25)  # a cap, 4x it, of 1 query
    with pytest.raises(BudgetExceeded):
        run_solver(cfg, base, Simplex(6))


@pytest.mark.parametrize("variant,cap", [("calgd", 2), ("calgd_sc", 6)])
def test_budget_error_carries_partial_trace(variant, cap, monkeypatch):
    rng = np.random.default_rng(11)
    _, base, _ = _simplex_ls(rng)
    x0 = _vertex(6)
    mu = 2.0 * np.linalg.svd(base.A, compute_uv=False)[-1] ** 2
    c = ProblemConstants(L=estimate_L(base), mu=mu, delta0=base.value(x0), D_X=math.sqrt(2.0))
    cfg = SolverConfig(variant, c, x0, 50, eps=base.value(x0) / 64.0,
                       schedule=ScheduleVariant("smooth_deterministic") if variant == "calgd" else None)
    monkeypatch.setattr(lcg, "iteration_bound", lambda *args: cap / 4)  # the cap is 4x the bound
    # with a cache the failed solve's opening query may be a cache hit, with
    # no exact LMO; without one it costs an exact LMO
    for config in (cfg, dataclasses.replace(cfg, cache_capacity=0)):
        with pytest.raises(BudgetExceeded) as info:
            run_solver(config, base, Simplex(6))
        exc = info.value
        assert exc.outer_k > 1
        assert exc.trace.column("outer_k") == list(range(1, exc.outer_k))
        final = exc.trace.metadata["final_counters"]
        # the failed solve spent its whole budget of cap queries, the opening
        # included
        assert final["weak_sep_calls"] == exc.trace.column("weak_sep_calls")[-1] + cap
        if config.cache_capacity == 0:
            assert final["exact_lmo_calls"] > exc.trace.column("exact_lmo_calls")[-1]


@pytest.mark.parametrize("variant", ["calgd", "ofw"])
def test_any_error_carries_partial_trace(variant):
    # the objective's 5th value evaluation (outer iteration 5's trace row) raises
    rng = np.random.default_rng(12)
    _, base, _ = _simplex_ls(rng)
    evaluated = []

    class Failing(LeastSquares):
        def value(self, x):
            evaluated.append(1)
            if len(evaluated) == 5:
                raise ZeroDivisionError("value")
            return super().value(x)

    c = ProblemConstants(L=estimate_L(base), D_X=math.sqrt(2.0))
    cfg = SolverConfig(variant, c, _vertex(6), 20,
                       schedule=ScheduleVariant("smooth_deterministic") if variant == "calgd" else None)
    with pytest.raises(ZeroDivisionError) as info:
        run_solver(cfg, Failing(base.A, base.b), Simplex(6))
    exc = info.value
    assert exc.outer_k == 5 and exc.trace.column("outer_k") == [1, 2, 3, 4]
    final = exc.trace.metadata["final_counters"]
    # iteration 5 spent its oracle calls before its value was evaluated
    assert final["exact_lmo_calls"] > exc.trace.column("exact_lmo_calls")[-1]


def test_config_validation():
    c = ProblemConstants(L=1.0, D_X=1.0)
    x0 = _vertex(3)
    with pytest.raises(ConfigError):
        SolverConfig("no_such", c, x0, 10)
    with pytest.raises(ConfigError):
        SolverConfig("calgd", c, x0, 10)  # schedule missing
    with pytest.raises(ConfigError):
        SolverConfig("calgd", c, x0, 10,
                     schedule=ScheduleVariant("smooth_stochastic"))  # wrong tag
    with pytest.raises(ConfigError):
        SolverConfig("calgd_sc", c, x0, 10)  # restart without eps
    for eps in (True, "0.1", float("nan")):
        with pytest.raises(ConfigError, match="eps > 0, got"):
            SolverConfig("calgd_sc", c, x0, 10, eps=eps)
    with pytest.raises(ConfigError):
        SolverConfig("calgd", c, x0, 0,
                     schedule=ScheduleVariant("smooth_deterministic"))
    with pytest.raises(ConfigError):
        SolverConfig("calsgd", c, x0, 10,
                     schedule=ScheduleVariant("smooth_stochastic"), batch=0)
    for variant in ("ofw", "calgd_sc"):  # neither reads a given schedule
        with pytest.raises(ConfigError, match="takes no schedule"):
            SolverConfig(variant, c, x0, 10, eps=0.1,
                         schedule=ScheduleVariant("smooth_deterministic"))
    with pytest.raises(ConfigError, match="cache_capacity"):
        SolverConfig("calgd", c, x0, 10, schedule=ScheduleVariant("smooth_deterministic"),
                     cache_capacity=-1)


def test_integer_config_fields_must_be_integers():
    # a bool or a fraction used to pass: True < 1 is False, and 2.5 failed
    # later inside range or np.empty while a seed of 1.5 ran as seed 1
    c = ProblemConstants(L=1.0, sigma2=0.0, D_X=1.0)
    stoch = ScheduleVariant("smooth_stochastic")
    with pytest.raises(ConfigError, match="True is not an integer"):
        SolverConfig("calsgd", c, np.zeros(3), 10, schedule=stoch, cache_capacity=True,
                     batch=True)
    for field, value in (("outer_limit", 2.5), ("batch", 2.5), ("batch", True),
                         ("cache_capacity", 2.5), ("seed", 1.5), ("seed", True),
                         ("seed", None), ("outer_limit", None)):
        with pytest.raises(ConfigError, match="%s %r is not an integer" % (field, value)):
            SolverConfig(**dict(dict(variant="calsgd", constants=c, x0=np.zeros(3),
                                     outer_limit=10, schedule=stoch), **{field: value}))
    for tag, field, value in (("smooth_stochastic_fixed_n", "N", 2.5),
                              ("smooth_stochastic_fixed_n", "N", True),
                              ("strongly_convex_det_phase", "s", 1.5)):
        with pytest.raises(ConfigError, match="%s %r is not an integer" % (field, value)):
            ScheduleVariant(tag, **dict(dict(N=3, s=1), **{field: value}))
    # an integral float is its int
    config = SolverConfig("calsgd", c, np.zeros(3), 10.0, seed=2.0, batch=4.0,
                          cache_capacity=8.0,
                          schedule=ScheduleVariant("smooth_stochastic_fixed_n", N=3.0))
    phase = ScheduleVariant("strongly_convex_stoch_phase", N=3.0, s=1.0)
    # an int past the float range is still an int, not an OverflowError
    assert SolverConfig("calsgd", c, np.zeros(3), 10, schedule=stoch, seed=10**400).seed == 10**400
    assert [type(v) for v in (config.outer_limit, config.seed, config.batch,
                              config.cache_capacity, config.schedule.N, phase.s)] == [int] * 6


def test_trace_metadata_fields():
    rng = np.random.default_rng(12)
    obj, base, _ = _simplex_ls(rng)
    c = ProblemConstants(L=estimate_L(base), D_X=math.sqrt(2.0))
    cfg = SolverConfig("calgd", c, _vertex(6), 5,
                       schedule=ScheduleVariant("smooth_deterministic"), seed=42, alpha=2.0)
    tr = run_solver(cfg, base, Simplex(6))
    md = tr.metadata
    assert md["variant"] == "calgd" and md["seed"] == 42
    assert md["schedule"]["tag"] == "smooth_deterministic"
    assert md["alpha"] == 2.0
    assert md["status"] == "completed"
    assert "version" in md and "final_counters" in md
    assert md["final_counters"]["fo_calls"] == 5
