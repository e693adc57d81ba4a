"""Step-size schedules for the accelerated sliding solvers.

Every schedule maps an outer iteration index k >= 1 plus a bundle of problem
constants to the step parameters (beta_k, gamma_k, eta_k, B_k, tau_k).  The
variants are named after the regime they cover rather than the symbols used
in any particular derivation:

- smooth_stochastic            anytime schedule, smooth f, mini-batch SFO
- smooth_stochastic_fixed_n    fixed-horizon schedule with distance estimate D_0
- smooth_deterministic         anytime schedule, exact gradients
- smooth_deterministic_fixed_n fixed-horizon schedule, exact gradients
- strongly_convex_det_phase    one restart phase s of the deterministic scheme
- strongly_convex_stoch_phase  one restart phase s of the stochastic scheme
- saddle_static                smoothed bilinear saddle, constant smoothing tau
- saddle_dynamic               smoothed bilinear saddle, tau_k ~ 1/sqrt(k)
- nonsmooth_stochastic         subgradient regime, unit batches
"""

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import ConfigError

# Upper bound on every mini-batch size (after the ceil), so a mis-measured
# variance cannot demand astronomically many samples.
BATCH_CAP = 2 ** 20

SMOOTH_STOCHASTIC = "smooth_stochastic"
SMOOTH_STOCHASTIC_FIXED_N = "smooth_stochastic_fixed_n"
SMOOTH_DETERMINISTIC = "smooth_deterministic"
SMOOTH_DETERMINISTIC_FIXED_N = "smooth_deterministic_fixed_n"
STRONGLY_CONVEX_DET_PHASE = "strongly_convex_det_phase"
STRONGLY_CONVEX_STOCH_PHASE = "strongly_convex_stoch_phase"
SADDLE_STATIC = "saddle_static"
SADDLE_DYNAMIC = "saddle_dynamic"
NONSMOOTH_STOCHASTIC = "nonsmooth_stochastic"

# The ProblemConstants each schedule reads, in the order schedule_eval unpacks
# them.  The phase schedules also read mu > 0, which defaults to 0, not None.
NEEDS = {
    SMOOTH_STOCHASTIC: ("L", "sigma2", "D_X"),
    SMOOTH_STOCHASTIC_FIXED_N: ("L", "sigma2", "D_0"),
    SMOOTH_DETERMINISTIC: ("L", "D_X"),
    SMOOTH_DETERMINISTIC_FIXED_N: ("L", "D_0"),
    STRONGLY_CONVEX_DET_PHASE: ("L", "delta0"),
    STRONGLY_CONVEX_STOCH_PHASE: ("L", "delta0", "sigma2"),
    SADDLE_STATIC: ("A_norm", "D_X", "D_YW", "sigma_omega"),
    SADDLE_DYNAMIC: ("A_norm", "D_X", "D_YW", "sigma_omega"),
    NONSMOOTH_STOCHASTIC: ("M", "sigma2", "D_X"),
}

VALID_TAGS = frozenset(NEEDS)

# The constants every schedule that reads them needs > 0: each one scales eta,
# or a schedule divides by it.  sigma2 and M may be 0 (no noise, or noise only).
_POSITIVE = frozenset(["L", "D_X", "D_0", "delta0", "A_norm", "D_YW", "sigma_omega"])

_FIXED_N_TAGS = frozenset([
    SMOOTH_STOCHASTIC_FIXED_N,
    SMOOTH_DETERMINISTIC_FIXED_N,
    STRONGLY_CONVEX_DET_PHASE,
    STRONGLY_CONVEX_STOCH_PHASE,
    SADDLE_STATIC,
    NONSMOOTH_STOCHASTIC,
])

_PHASE_TAGS = frozenset([STRONGLY_CONVEX_DET_PHASE, STRONGLY_CONVEX_STOCH_PHASE])


def _in_range(v, lo):
    """Whether v is a real number, not a bool, in [lo, inf); NaN is not."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and lo <= v < math.inf


@dataclass(frozen=True)
class ScheduleVariant:
    """A schedule tag plus the horizon N / phase index s it may need."""

    tag: str
    N: Optional[int] = None
    s: Optional[int] = None

    def __post_init__(self):
        if self.tag not in VALID_TAGS:
            raise ConfigError("unknown schedule tag %r" % (self.tag,))
        if self.tag in _FIXED_N_TAGS:
            if self.N is None or self.N < 1:
                raise ConfigError("schedule %r requires a horizon N >= 1" % (self.tag,))
        if self.tag in _PHASE_TAGS:
            if self.s is None or self.s < 1:
                raise ConfigError("schedule %r requires a phase index s >= 1" % (self.tag,))


@dataclass
class ProblemConstants:
    """Problem constants consumed by the schedules.

    All fields are optional; `schedule_eval` raises a ConfigError naming any
    constant the chosen variant needs but does not find, or finds 0 where it
    needs a positive value.  Every given value must be a finite number, not
    a bool.  mu defaults to 0 (no strong convexity), alpha to 1 (exact weak
    separation).
    """

    L: Optional[float] = None
    mu: float = 0.0
    sigma2: Optional[float] = None
    M: Optional[float] = None
    D_X: Optional[float] = None
    D_0: Optional[float] = None
    A_norm: Optional[float] = None
    sigma_omega: Optional[float] = None
    D_YW: Optional[float] = None
    alpha: float = 1.0
    delta0: Optional[float] = None

    def __post_init__(self):
        for name in ("L", "sigma2", "M", "D_X", "D_0", "A_norm", "sigma_omega",
                     "D_YW", "delta0"):
            v = getattr(self, name)
            if v is not None and not _in_range(v, 0):
                raise ConfigError("constant %s must be a finite nonnegative number, got %r"
                                  % (name, v))
        if not _in_range(self.mu, 0):
            raise ConfigError("mu must be finite and nonnegative, got %r" % (self.mu,))
        if not _in_range(self.alpha, 1):
            raise ConfigError("alpha must be finite and >= 1, got %r" % (self.alpha,))
        if self.D_X is not None and self.D_0 is not None and self.D_0 > self.D_X * (1 + 1e-12):
            raise ConfigError("D_0 must not exceed D_X (%r > %r)" % (self.D_0, self.D_X))


@dataclass(frozen=True)
class StepParams:
    """One step's parameters; ``batch`` is B_k, or None where the step takes exact gradients."""

    beta: float
    gamma: float
    eta: float
    batch: Optional[int]
    tau: float = 0.0


def _need(c, tag):
    values = [getattr(c, name) for name in NEEDS[tag]]
    for name, v in zip(NEEDS[tag], values):
        if v is None:
            raise ConfigError("schedule %r requires constant %r" % (tag, name))
        if name in _POSITIVE:
            _positive(tag, name, v)
    return values


def _positive(tag, name, v):
    if v <= 0:
        raise ConfigError("schedule %r requires constant %r > 0, got %r" % (tag, name, v))


def _batch(raw):
    return max(1, min(int(math.ceil(raw)), BATCH_CAP))


def schedule_eval(variant, k, c):
    """Evaluate a schedule at outer iteration k.

    Parameters
    ----------
    variant : ScheduleVariant
    k : int
        Outer iteration index, 1-based.
    c : ProblemConstants
        Must hold every constant ``NEEDS[variant.tag]`` names; a missing one,
        or a 0 where the schedule needs a positive value, raises a
        ConfigError naming it.

    Returns
    -------
    StepParams
    """
    if k < 1:
        raise ValueError("iteration index k must be >= 1, got %r" % (k,))
    tag = variant.tag
    tau = 0.0

    if tag == SMOOTH_STOCHASTIC:
        L, sigma2, D = _need(c, tag)
        beta = 4.0 * L / (k + 2)
        gamma = 3.0 / (k + 2)
        eta = L * D * D / (k * (k + 1))
        batch = _batch(sigma2 * (k + 2) ** 3 / (L * L * D * D))

    elif tag == SMOOTH_STOCHASTIC_FIXED_N:
        L, sigma2, D0 = _need(c, tag)
        N = variant.N
        beta = 3.0 * L / k
        gamma = 2.0 / (k + 1)
        eta = 2.0 * L * D0 * D0 / (N * k)
        batch = _batch(sigma2 * N * (k + 1) ** 2 / (L * L * D0 * D0))

    elif tag == SMOOTH_DETERMINISTIC:
        L, D = _need(c, tag)
        beta = 3.0 * L / (k + 1)
        gamma = 3.0 / (k + 2)
        eta = L * D * D / (k * (k + 1))
        batch = None

    elif tag == SMOOTH_DETERMINISTIC_FIXED_N:
        L, D0 = _need(c, tag)
        N = variant.N
        beta = 2.0 * L / k
        gamma = 2.0 / (k + 1)
        eta = 2.0 * L * D0 * D0 / (N * k)
        batch = None

    elif tag == STRONGLY_CONVEX_DET_PHASE:
        L, delta0 = _need(c, tag)
        _positive(tag, "mu", c.mu)
        N, s = variant.N, variant.s
        beta = 2.0 * L / k
        gamma = 2.0 / (k + 1)
        eta = 8.0 * L * delta0 * 2.0 ** (-s) / (c.mu * N * k)
        batch = None

    elif tag == STRONGLY_CONVEX_STOCH_PHASE:
        L, delta0, sigma2 = _need(c, tag)
        _positive(tag, "mu", c.mu)
        N, s = variant.N, variant.s
        beta = 3.0 * L / k
        gamma = 2.0 / (k + 1)
        eta = 8.0 * L * delta0 * 2.0 ** (-s) / (c.mu * N * k)
        batch = _batch(c.mu * sigma2 * N * (k + 1) ** 2 / (4.0 * L * L * delta0 * 2.0 ** (-s)))

    elif tag in (SADDLE_STATIC, SADDLE_DYNAMIC):
        A, D, Dyw, sw = _need(c, tag)
        if tag == SADDLE_STATIC:
            tau = 2.0 * A * D / (Dyw * math.sqrt(sw) * variant.N)
        else:
            tau = 2.0 * A * D / (Dyw * math.sqrt(sw * k))
        L_tau = A * A / (tau * sw)
        beta = 3.0 * L_tau / (k + 1)
        gamma = 3.0 / (k + 2)
        eta = L_tau * D * D / (k * k)
        batch = None

    elif tag == NONSMOOTH_STOCHASTIC:
        M, sigma2, D = _need(c, tag)
        _positive(tag, "sigma2 + M^2", sigma2 + M * M)  # eta and beta scale with it
        N = variant.N
        beta = math.sqrt(N * (sigma2 + M * M)) / D
        gamma = 1.0 / k
        eta = D * math.sqrt(sigma2 + M * M) / math.sqrt(N)
        batch = 1

    else:  # pragma: no cover - guarded by ScheduleVariant validation
        raise ConfigError("unknown schedule tag %r" % (tag,))

    return StepParams(beta=beta, gamma=gamma, eta=eta, batch=batch, tau=tau)


def restart_phase_plan(c, tag, eps) -> Tuple[int, int]:
    """Phase length N and phase count S for the strongly convex restart scheme.

    N = ceil(2 sqrt(6 L / mu)) for the deterministic phase tag and
    N = ceil(4 sqrt(2 L / mu)) for the stochastic one; S = ceil(log2 max(1, delta0/eps))
    phases then guarantee a final gap of at most eps.  The tag's constants
    and mu are checked as `schedule_eval` checks them.
    """
    if tag not in _PHASE_TAGS:
        raise ConfigError("restart plan needs a phase schedule, got %r" % (tag,))
    L, delta0 = _need(c, tag)[:2]
    _positive(tag, "mu", c.mu)
    if not 0 < eps < math.inf:  # a NaN or infinite eps would plan zero phases
        raise ConfigError("target accuracy eps must be finite and positive, got %r" % (eps,))
    if tag == STRONGLY_CONVEX_STOCH_PHASE:
        N = int(math.ceil(4.0 * math.sqrt(2.0 * L / c.mu)))
    else:
        N = int(math.ceil(2.0 * math.sqrt(6.0 * L / c.mu)))
    S = int(math.ceil(math.log2(max(1.0, delta0 / eps))))
    return N, S
