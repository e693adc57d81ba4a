"""Accelerated sliding outer loops and the projection-free baselines.

All sliding variants share the same three-sequence outer loop: a lookahead
point z_k mixing the running output y with the prox center x, a gradient
estimate at z_k, an inexact prox subproblem solved by lazy conditional
gradient to accuracy eta_k, and the averaged output update.  The schedule
decides the gradient estimate: the mean of B_k SFO samples (or ``batch``)
when it sets B_k, else one exact gradient, of the smoothed max-function when
tau_k > 0.  A variant only chooses the schedules it accepts:

- calsgd            smooth stochastic schedules
- calgd             smooth deterministic schedules
- calgd_saddle      saddle schedules (smoothed max-function)
- calsgd_nonsmooth  the nonsmooth schedule: one stochastic subgradient per step
- calgd_sc / calsgd_sc   restarts on the deterministic / stochastic phase
                          schedule, S phases of N iterations, linear
                          convergence under strong convexity
- scgs              any smooth schedule, classical conditional gradient inner
                    solver: the lazy loop at alpha = 1 with no vertex cache,
                    so one exact LMO per iterate
- ofw               online Frank-Wolfe baseline with fixed exponents, one
                    SFO sample per step unless ``batch`` says otherwise

`run_solver` runs every variant in one loop, one trace row per iteration,
and owns the whole state of the run as locals: the prox center x, the
output y, the vertex cache, the counters, the random generator, ofw's
gradient average and the last inner solve's Phi and certified gap.  A run
is steered by its `SolverConfig` alone, every field of which an experiment
config names and which settles what the baselines run with; each inner
solve runs until `lcg_solve`'s query cap.
Every stochastic gradient, ofw's included, is one ``sfo_batch(z, size, rng)``
call: the mean of ``size`` samples, counted as ``size`` SFO calls.
Randomness is drawn from counter-based streams keyed (seed, outer index), so
changing one iteration's batch size never reshuffles any other iteration's
samples and runs are bit-reproducible on one platform.
"""

import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import __version__
from .errors import ConfigError
from .lcg import Subproblem, lcg_solve
from .oracle import VertexCache
from .schedules import (
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
    _in_range,
    _integer,
    restart_phase_plan,
    schedule_eval,
)
from .trace import Counters, RunTrace

OFW_RHO_EXP = 2.0 / 3.0     # online Frank-Wolfe (Hazan and Kale 2012): rho_t = t^(-2/3)
OFW_GAMMA_EXP = 3.0 / 4.0   # and gamma_t = t^(-3/4)

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

# restart variant -> phase schedule tag
RESTARTS = {"calgd_sc": STRONGLY_CONVEX_DET_PHASE,
            "calsgd_sc": STRONGLY_CONVEX_STOCH_PHASE}


@dataclass
class SolverConfig:
    variant: str
    constants: ProblemConstants
    x0: np.ndarray
    outer_limit: Optional[int]           # None for a restart, which runs its phase plan
    schedule: Optional[ScheduleVariant] = None
    seed: int = 0
    time_limit: Optional[float] = None
    batch: Optional[int] = None          # fixed-batch override for comparability runs
    cache_capacity: int = 512
    eps: Optional[float] = None          # restart target accuracy
    alpha: float = 1.0                   # the inner loop's weak separation relaxation K

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError("unknown solver variant %r" % (self.variant,))
        # each integer field is set to its int, so an integral float 3.0 runs as 3
        if not (self.outer_limit is None and self.variant in RESTARTS):
            self.outer_limit = _integer(self.outer_limit, "outer_limit", 1)
        self.seed = _integer(self.seed, "seed")
        if self.time_limit is not None and not _in_range(self.time_limit, 0):
            # a NaN limit never fires, and a negative one ends every run at once
            raise ConfigError("time_limit must be a finite number of seconds >= 0, got %r"
                              % (self.time_limit,))
        if self.variant in RESTARTS and not (_in_range(self.eps, 0) and self.eps > 0):
            # a NaN or infinite eps would plan zero phases and run nothing, and
            # a bool one is no accuracy at all
            raise ConfigError("restart variants require a finite target accuracy eps > 0, got %r"
                              % (self.eps,))
        if self.variant in _ALLOWED_TAGS:
            if self.schedule is None:
                raise ConfigError("variant %r requires a schedule" % (self.variant,))
            if self.schedule.tag not in _ALLOWED_TAGS[self.variant]:
                raise ConfigError(
                    "variant %r cannot run schedule %r"
                    % (self.variant, self.schedule.tag))
        elif self.schedule is not None:
            # ofw has fixed step exponents; a restart runs RESTARTS' phase schedule
            raise ConfigError("variant %r takes no schedule" % (self.variant,))
        if self.batch is not None:
            self.batch = _integer(self.batch, "batch", 1)
        self.cache_capacity = _integer(self.cache_capacity, "cache_capacity", 0)
        if not _in_range(self.alpha, 1):
            raise ConfigError("alpha must be finite and >= 1, got %r" % (self.alpha,))
        # what a run reads, settled once: the baselines call the exact LMO
        # with no cache, ofw takes one sample a step, and only a restart has
        # eps, while its phase plan, not outer_limit, sets its length
        if self.variant in ("scgs", "ofw"):
            self.alpha, self.cache_capacity = 1.0, 0
        if self.variant == "ofw" and self.batch is None:
            self.batch = 1
        if self.variant in RESTARTS:
            self.outer_limit = None
        else:
            self.eps = None


def _stream(rng, seed, k):
    """Re-key the Philox generator ``rng`` to the stream (seed, k) and return it.

    Counter 0 and an empty output buffer make its draws identical to those
    of a new ``Generator(Philox(key=[seed, k]))``, at a fraction of the cost
    of building one.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64),
                  "key": np.array([seed % 2 ** 64, k % 2 ** 64], dtype=np.uint64)},
        "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0,
    }
    return rng


def _gradient(objective, z, params, batch, rng, counters):
    """The gradient estimate at z that the step ``params`` names, plus its bookkeeping."""
    if params.batch is None:
        g = objective.smoothed(z, params.tau)[1] if params.tau > 0 else objective.grad(z)
        counters.fo_calls += 1
    else:
        size = batch if batch is not None else params.batch
        g = objective.sfo_batch(z, size, rng)
        counters.sfo_calls += size
    return g


def _metadata(config, plan):
    md = {
        "variant": config.variant,
        "seed": config.seed,
        "schedule": None if config.schedule is None else {
            "tag": config.schedule.tag, "N": config.schedule.N, "s": config.schedule.s},
        "alpha": config.alpha,
        "batch_override": config.batch,
        "cache_capacity": config.cache_capacity,
        "outer_limit": config.outer_limit,
        "version": __version__,
        "status": "completed",
    }
    if plan is not None:
        md["phase_length"], md["phases"] = plan
    return md


def _iterations(config, plan):
    """(schedule, k) of every outer iteration of a run, in order.

    A restart run is S phases of N iterations of its phase schedule, k = 1..N
    in each; every other run is one phase of outer_limit iterations.
    """
    if plan is None:
        return ((config.schedule, k) for k in range(1, config.outer_limit + 1))
    tag, (N, S) = RESTARTS[config.variant], plan
    phases = [ScheduleVariant(tag, N=N, s=s) for s in range(1, S + 1)]
    return ((schedule, k) for schedule in phases for k in range(1, N + 1))


def run_solver(config: SolverConfig, objective, region) -> RunTrace:
    """Run one solver to its outer limit or phase plan, returning the per-iteration trace.

    Every variant runs through this loop.  A restart run concatenates its
    phases under a globally increasing outer index, keeps its cache across
    phases, and records ``phase_length`` and ``phases``; the value at the end
    of phase s is the row with outer_k = s * phase_length.  An exception
    raised in outer iteration k (a BudgetExceeded, or a NumericalError from
    an LMO on a NaN gradient, say) carries the trace of iterations 1..k-1,
    with ``final_counters``, in ``trace`` and k in ``outer_k``.
    """
    plan = (restart_phase_plan(config.constants, RESTARTS[config.variant], config.eps)
            if config.variant in RESTARTS else None)
    cache = VertexCache(config.cache_capacity, region.support)
    counters = Counters()
    # one Philox generator per run, re-keyed to the stream (seed, outer_k)
    # for the draws of each iteration
    rng = np.random.Generator(np.random.Philox(0))
    y = np.array(config.x0, dtype=float)
    avg_grad = None                      # ofw's running gradient average
    phi_final = cert_gap = float("nan")  # of the last inner solve
    trace = RunTrace(metadata=_metadata(config, plan))
    t0 = time.perf_counter()
    try:
        for outer_k, (schedule, k) in enumerate(_iterations(config, plan), 1):
            if k == 1:  # each phase restarts from the previous phase's output
                x = y
            if config.time_limit is not None and time.perf_counter() - t0 > config.time_limit:
                trace.metadata["status"] = "time_limit"
                break
            if config.variant == "ofw":  # averaged stochastic gradient, one exact LMO
                g = objective.sfo_batch(x, config.batch, _stream(rng, config.seed, outer_k))
                counters.sfo_calls += config.batch
                rho = k ** -OFW_RHO_EXP
                avg_grad = g if avg_grad is None else (1.0 - rho) * avg_grad + rho * g
                v = region.lmo(avg_grad)
                counters.exact_lmo_calls += 1
                gamma = k ** -OFW_GAMMA_EXP
                x = y = (1.0 - gamma) * x + gamma * v.point
            else:
                params = schedule_eval(schedule, k, config.constants)
                gamma = params.gamma
                z = (1.0 - gamma) * y + gamma * x
                g = _gradient(objective, z, params, config.batch,
                              _stream(rng, config.seed, outer_k), counters)
                sub = Subproblem(g, x, params.beta)
                res = lcg_solve(sub, region, x, config.alpha, params.eta, cache, counters=counters)
                x = res.point
                y = (1.0 - gamma) * y + gamma * x
                # a solve returns only at Phi = eta
                phi_final, cert_gap = params.eta, res.cert_gap
            trace.append(outer_k, (time.perf_counter() - t0) * 1e3, objective.value(y),
                         counters, phi_final, cert_gap)
    except Exception as exc:
        # every completed iteration appended one row
        trace.metadata["final_counters"] = asdict(counters)
        exc.trace, exc.outer_k = trace, len(trace.rows) + 1
        raise
    trace.metadata["final_counters"] = asdict(counters)
    return trace
