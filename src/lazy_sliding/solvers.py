"""Accelerated sliding outer loops and the projection-free baselines.

All sliding variants share the same three-sequence outer loop: a lookahead
point z_k mixing the running output y with the prox center x, a gradient
estimate at z_k, an inexact prox subproblem solved by lazy conditional
gradient to accuracy eta_k, and the averaged output update.  They differ
only in how the gradient estimate is produced:

- calsgd            mini-batch stochastic gradients
- calgd             exact gradients
- calgd_saddle      gradients of the smoothed max-function (needs tau_k)
- calsgd_nonsmooth  single stochastic subgradients
- calgd_sc / calsgd_sc   restart wrappers giving linear convergence under
                          strong convexity
- scgs              same outer loop, classical conditional gradient inner
                    solver: the lazy loop at alpha = 1 with no vertex cache,
                    so one exact LMO per iterate; ignores cache_capacity
- ofw               one-sample online Frank-Wolfe baseline

Randomness is drawn from counter-based streams keyed (seed, outer index), so
changing one iteration's batch size never reshuffles any other iteration's
samples and runs are bit-reproducible on one platform.
"""

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .errors import BudgetExceeded, ConfigError
from .lcg import Subproblem, duality_gap, lcg_solve
from .oracle import VertexCache
from .schedules import (
    DEFAULT_BATCH_CAP,
    NONSMOOTH_STOCHASTIC,
    SADDLE_DYNAMIC,
    SADDLE_STATIC,
    SMOOTH_DETERMINISTIC,
    SMOOTH_DETERMINISTIC_FIXED_N,
    SMOOTH_STOCHASTIC,
    SMOOTH_STOCHASTIC_FIXED_N,
    STRONGLY_CONVEX_DET_PHASE,
    STRONGLY_CONVEX_STOCH_PHASE,
    ProblemConstants,
    ScheduleVariant,
    restart_phase_plan,
    schedule_eval,
)
from .trace import Counters, RunTrace

VARIANTS = ("calsgd", "calgd", "calgd_sc", "calsgd_sc", "calgd_saddle",
            "calsgd_nonsmooth", "scgs", "ofw")

_ALLOWED_TAGS = {
    "calsgd": {SMOOTH_STOCHASTIC, SMOOTH_STOCHASTIC_FIXED_N},
    "calgd": {SMOOTH_DETERMINISTIC, SMOOTH_DETERMINISTIC_FIXED_N},
    "calgd_saddle": {SADDLE_STATIC, SADDLE_DYNAMIC},
    "calsgd_nonsmooth": {NONSMOOTH_STOCHASTIC},
    "scgs": {SMOOTH_STOCHASTIC, SMOOTH_STOCHASTIC_FIXED_N,
             SMOOTH_DETERMINISTIC, SMOOTH_DETERMINISTIC_FIXED_N},
}


@dataclass
class SolverConfig:
    variant: str
    constants: ProblemConstants
    x0: np.ndarray
    outer_limit: int
    schedule: Optional[ScheduleVariant] = None
    seed: int = 0
    time_limit: Optional[float] = None
    batch: Optional[int] = None          # fixed-batch override for comparability runs
    batch_cap: int = DEFAULT_BATCH_CAP
    cache_capacity: int = 512
    lcg_cap: Optional[int] = None
    eps: Optional[float] = None          # restart target accuracy
    ofw_rho_exp: float = 2.0 / 3.0
    ofw_gamma_exp: float = 3.0 / 4.0
    audit: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError("unknown solver variant %r" % (self.variant,))
        if self.outer_limit < 1:
            raise ConfigError("outer_limit must be >= 1")
        if self.variant in _ALLOWED_TAGS:
            if self.schedule is None:
                raise ConfigError("variant %r requires a schedule" % (self.variant,))
            if self.schedule.tag not in _ALLOWED_TAGS[self.variant]:
                raise ConfigError(
                    "variant %r cannot run schedule %r"
                    % (self.variant, self.schedule.tag))
        if self.variant in ("calgd_sc", "calsgd_sc") and (self.eps is None or self.eps <= 0):
            raise ConfigError("restart variants require a target accuracy eps > 0")
        if self.batch is not None and self.batch < 1:
            raise ConfigError("batch override must be >= 1")


@dataclass
class SolverState:
    """Mutable state threaded through the outer iterations of one run."""

    x: np.ndarray
    y: np.ndarray
    k: int
    cache: VertexCache
    counters: Counters
    seed: int
    stream_offset: int = 0
    last_z: Optional[np.ndarray] = None
    last_sub: Optional[Subproblem] = None
    last_cert_gap: float = float("nan")
    last_phi_final: float = float("nan")


def new_state(x0, seed, cache_capacity=512):
    x0 = np.array(x0, dtype=float, copy=True)
    return SolverState(x=x0, y=x0.copy(), k=0, cache=VertexCache(cache_capacity),
                       counters=Counters(), seed=seed)


def _stream(seed, k):
    key = np.array([seed % 2 ** 64, k % 2 ** 64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _sample_mean(objective, z, size, rng):
    if hasattr(objective, "sfo_batch"):
        return objective.sfo_batch(z, size, rng)
    if size == 1:
        return objective.sfo_sample(z, rng)
    return np.mean([objective.sfo_sample(z, rng) for _ in range(size)], axis=0)


def _gradient(variant, state, objective, params, k, batch):
    """Gradient estimate at z_k plus the SFO/FO bookkeeping."""
    if variant in ("calsgd", "scgs"):
        size = batch if batch is not None else params.batch
        rng = _stream(state.seed, state.stream_offset + k)
        g = _sample_mean(objective, state.last_z, size, rng)
        state.counters.sfo_calls += size
    elif variant == "calgd":
        g = objective.grad(state.last_z)
        state.counters.fo_calls += 1
    elif variant == "calgd_saddle":
        _, g = objective.smoothed(state.last_z, params.tau)
        state.counters.fo_calls += 1
    elif variant == "calsgd_nonsmooth":
        rng = _stream(state.seed, state.stream_offset + k)
        g = objective.sfo_sample(state.last_z, rng)
        state.counters.sfo_calls += 1
    else:
        raise ConfigError("no gradient rule for variant %r" % (variant,))
    return g


def sliding_step(variant, state, objective, region, params, alpha,
                 batch=None, lcg_cap=None):
    """One outer iteration of any sliding variant; mutates and returns state."""
    k = state.k + 1
    gamma = params.gamma
    state.last_z = (1.0 - gamma) * state.y + gamma * state.x
    g = _gradient(variant, state, objective, params, k, batch)
    sub = Subproblem(g, state.x, params.beta)
    res = lcg_solve(sub, region, state.x, 1.0 if variant == "scgs" else alpha,
                    params.eta, state.cache, cap=lcg_cap, counters=state.counters)

    state.counters.inner_iters += res.iterations
    state.x = res.point
    state.y = (1.0 - gamma) * state.y + gamma * res.point
    state.k = k
    state.last_sub = sub
    state.last_cert_gap = res.cert_gap
    state.last_phi_final = res.phi_final
    return state


def _metadata(config, extra=None):
    md = {
        "variant": config.variant,
        "seed": config.seed,
        "schedule": None if config.schedule is None else {
            "tag": config.schedule.tag, "N": config.schedule.N, "s": config.schedule.s},
        "alpha": config.constants.alpha,
        "batch_override": config.batch,
        "batch_cap": config.batch_cap,
        "cache_capacity": config.cache_capacity,
        "outer_limit": config.outer_limit,
        "version": __version__,
        "status": "completed",
    }
    if extra:
        md.update(extra)
    return md


def _outer_loop(config, variant, schedule, steps, state, objective, region, trace, t0):
    """Outer iterations 1..steps of one schedule, one trace row each.

    Rows carry the global index state.stream_offset + k.  Returns False if
    the time limit stopped the run first.  A BudgetExceeded raised in
    iteration k leaves with the rows before it in ``trace`` and the global
    index of k in ``outer_k``.
    """
    if config.audit:
        trace.metadata.setdefault("max_audit_excess", -float("inf"))
    for k in range(1, steps + 1):
        outer_k = state.stream_offset + k
        if config.time_limit is not None and time.perf_counter() - t0 > config.time_limit:
            trace.metadata["status"] = "time_limit"
            return False
        params = schedule_eval(schedule, k, config.constants, config.batch_cap)
        try:
            sliding_step(variant, state, objective, region, params,
                         config.constants.alpha, batch=config.batch, lcg_cap=config.lcg_cap)
        except BudgetExceeded as exc:
            trace.metadata["final_counters"] = state.counters.as_dict()
            exc.trace, exc.outer_k = trace, outer_k
            raise
        if config.audit:
            gap = duality_gap(state.last_sub, region, state.x, state.counters)
            trace.metadata["max_audit_excess"] = max(trace.metadata["max_audit_excess"],
                                                     gap - params.eta)
        f = objective.value(state.y)
        trace.append(outer_k, (time.perf_counter() - t0) * 1e3, f, state.counters,
                     state.last_phi_final, state.last_cert_gap)
    return True


def run_solver(config: SolverConfig, objective, region) -> RunTrace:
    """Run one solver to its outer limit, returning the per-iteration trace.

    A BudgetExceeded raised in outer iteration k carries the trace of
    iterations 1..k-1 in ``trace`` and k in ``outer_k``.
    """
    if config.variant in ("calgd_sc", "calsgd_sc"):
        _, trace = restart_run(config, objective, region)
        return trace
    if config.variant == "ofw":
        return run_ofw(config, objective, region)

    # scgs is the classical baseline: no cache, whatever cache_capacity says
    capacity = 0 if config.variant == "scgs" else config.cache_capacity
    state = new_state(config.x0, config.seed, capacity)
    trace = RunTrace(metadata=_metadata(config))
    _outer_loop(config, config.variant, config.schedule, config.outer_limit, state,
                objective, region, trace, time.perf_counter())
    trace.metadata["final_counters"] = state.counters.as_dict()
    return trace


def restart_run(config: SolverConfig, objective, region):
    """Strongly convex restart scheme: S phases of N sliding iterations each.

    Returns (phase_end_points, trace); the trace concatenates all phases with
    a globally increasing outer index, and the cache persists across phases.
    """
    stochastic = config.variant == "calsgd_sc"
    N, S = restart_phase_plan(config.constants, stochastic, config.eps)
    tag = STRONGLY_CONVEX_STOCH_PHASE if stochastic else STRONGLY_CONVEX_DET_PHASE
    inner_variant = "calsgd" if stochastic else "calgd"

    state = new_state(config.x0, config.seed, config.cache_capacity)
    trace = RunTrace(metadata=_metadata(config, {"phase_length": N, "phases": S}))
    t0 = time.perf_counter()
    points = []
    for s in range(1, S + 1):
        # each phase restarts from the previous phase's output
        state.x, state.y, state.k = state.y.copy(), state.y.copy(), 0
        state.stream_offset = (s - 1) * N
        if not _outer_loop(config, inner_variant, ScheduleVariant(tag, N=N, s=s), N, state,
                           objective, region, trace, t0):
            break
        points.append(state.y.copy())
    trace.metadata["final_counters"] = state.counters.as_dict()
    return points, trace


def run_ofw(config: SolverConfig, objective, region) -> RunTrace:
    """Online Frank-Wolfe baseline: averaged gradient, one exact LMO per step."""
    x = np.array(config.x0, dtype=float, copy=True)
    d = None
    counters = Counters()
    trace = RunTrace(metadata=_metadata(config))
    t0 = time.perf_counter()
    batch = config.batch if config.batch is not None else 1
    for t in range(1, config.outer_limit + 1):
        if config.time_limit is not None and time.perf_counter() - t0 > config.time_limit:
            trace.metadata["status"] = "time_limit"
            break
        rng = _stream(config.seed, t)
        g = _sample_mean(objective, x, batch, rng)
        counters.sfo_calls += batch
        rho = t ** (-config.ofw_rho_exp)
        d = g if d is None else (1.0 - rho) * d + rho * g
        v = region.lmo(d)
        counters.exact_lmo_calls += 1
        gam = t ** (-config.ofw_gamma_exp)
        x = (1.0 - gam) * x + gam * v.point
        trace.append(t, (time.perf_counter() - t0) * 1e3, objective.value(x),
                     counters, float("nan"), float("nan"))
    trace.metadata["final_counters"] = counters.as_dict()
    return trace
