"""Step-size schedules for the accelerated sliding solvers.

Every schedule maps an outer iteration index k >= 1 plus a bundle of problem
constants to the step parameters (beta_k, gamma_k, eta_k, B_k, tau_k).  One
table, `SCHEDULES`, says all a tag means: the constants its step reads,
whether it needs a horizon N, the step itself and, for a restart phase, the
phase length.  The tags are named after the regime they cover rather than
the symbols used in any particular derivation:

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
from typing import Callable, NamedTuple, Optional, Tuple

from .errors import ConfigError

# Upper bound on every mini-batch size, so a mis-measured variance cannot
# demand astronomically many samples.
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

# The constants every schedule that reads them needs > 0: each one scales eta,
# or a schedule divides by it.  sigma2 and M may be 0 (no noise, or noise only).
_POSITIVE = frozenset(["L", "mu", "D_X", "D_0", "delta0", "A_norm", "D_YW", "sigma_omega"])


def _in_range(v, lo):
    """Whether v is a real number, not a bool, in [lo, inf); NaN is not."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and lo <= v < math.inf


def _integer(value, name, lo=None):
    """``value`` as an int, checked to be >= ``lo`` when given; a ConfigError otherwise.

    A bool, a string or a number with a fractional part is rejected, not
    converted or truncated: a run runs what it names or nothing.
    """
    if (isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
            isinstance(value, numbers.Integral) or float(value).is_integer())):
        raise ConfigError("%s %r is not an integer" % (name, value))
    if lo is not None and value < lo:
        raise ConfigError("%s must be >= %d, got %r" % (name, lo, value))
    return int(value)


@dataclass(frozen=True)
class ScheduleVariant:
    """A schedule tag plus the horizon N / phase index s its `SCHEDULES` row needs."""

    tag: str
    N: Optional[int] = None
    s: Optional[int] = None

    def __post_init__(self):
        row = SCHEDULES.get(self.tag)
        if row is None:
            raise ConfigError("unknown schedule tag %r" % (self.tag,))
        for name in ("N", "s"):  # frozen, so set through object: 3.0 becomes 3
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _integer(getattr(self, name), name))
        if row.horizon and (self.N is None or self.N < 1):
            raise ConfigError("schedule %r requires a horizon N >= 1" % (self.tag,))
        if row.phase_length is not None and (self.s is None or self.s < 1):
            raise ConfigError("schedule %r requires a phase index s >= 1" % (self.tag,))


@dataclass
class ProblemConstants:
    """Problem constants consumed by the schedules.

    All fields are optional; `schedule_eval` raises a ConfigError naming any
    constant the chosen variant needs but does not find, or finds 0 where it
    needs a positive value.  Every given value must be a finite number, not
    a bool.  mu defaults to 0 (no strong convexity).
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
    names = SCHEDULES[tag].needs
    values = [getattr(c, name) for name in names]
    for name, v in zip(names, values):
        if v is None:
            raise ConfigError("schedule %r requires constant %r" % (tag, name))
        if name in _POSITIVE:
            _positive(tag, name, v)
    return values


def _positive(tag, name, v):
    if not v > 0:
        raise ConfigError("schedule %r requires constant %r > 0, got %r" % (tag, name, v))


def _batch(raw):
    # clamped before the ceil, so that a raw B_k that overflowed to inf is capped too
    return max(1, int(math.ceil(min(raw, BATCH_CAP))))


def _saddle(k, tau, A, D, sw):
    """The saddle step at smoothing tau; the smoothed f is L_tau-smooth, L_tau = A^2 / (tau sw)."""
    L_tau = A * A / (tau * sw)
    return StepParams(beta=3.0 * L_tau / (k + 1), gamma=3.0 / (k + 2),
                      eta=L_tau * D * D / (k * k), batch=None, tau=tau)


def _nonsmooth(k, N, s, M, sigma2, D):
    _positive(NONSMOOTH_STOCHASTIC, "sigma2 + M^2", sigma2 + M * M)  # eta and beta scale with it
    return StepParams(beta=math.sqrt(N * (sigma2 + M * M)) / D, gamma=1.0 / k,
                      eta=D * math.sqrt(sigma2 + M * M) / math.sqrt(N), batch=1)


class Schedule(NamedTuple):
    """One row of `SCHEDULES`.

    ``needs`` names the ProblemConstants the step reads, in the order it
    takes them; ``horizon`` is whether the tag needs N; ``step(k, N, s,
    *constants)`` returns the StepParams of outer iteration k; and
    ``phase_length(L, mu)``, set only on a restart phase, is the length
    that `restart_phase_plan` rounds up.
    """

    needs: Tuple[str, ...]
    horizon: bool
    step: Callable[..., StepParams]
    phase_length: Optional[Callable[[float, float], float]] = None


SCHEDULES = {
    SMOOTH_STOCHASTIC: Schedule(
        ("L", "sigma2", "D_X"), False,
        lambda k, N, s, L, sigma2, D: StepParams(
            beta=4.0 * L / (k + 2), gamma=3.0 / (k + 2), eta=L * D * D / (k * (k + 1)),
            batch=_batch(sigma2 * (k + 2) ** 3 / (L * L * D * D)))),
    SMOOTH_STOCHASTIC_FIXED_N: Schedule(
        ("L", "sigma2", "D_0"), True,
        lambda k, N, s, L, sigma2, D0: StepParams(
            beta=3.0 * L / k, gamma=2.0 / (k + 1), eta=2.0 * L * D0 * D0 / (N * k),
            batch=_batch(sigma2 * N * (k + 1) ** 2 / (L * L * D0 * D0)))),
    SMOOTH_DETERMINISTIC: Schedule(
        ("L", "D_X"), False,
        lambda k, N, s, L, D: StepParams(
            beta=3.0 * L / (k + 1), gamma=3.0 / (k + 2), eta=L * D * D / (k * (k + 1)),
            batch=None)),
    SMOOTH_DETERMINISTIC_FIXED_N: Schedule(
        ("L", "D_0"), True,
        lambda k, N, s, L, D0: StepParams(
            beta=2.0 * L / k, gamma=2.0 / (k + 1), eta=2.0 * L * D0 * D0 / (N * k), batch=None)),
    STRONGLY_CONVEX_DET_PHASE: Schedule(
        ("L", "delta0", "mu"), True,
        lambda k, N, s, L, delta0, mu: StepParams(
            beta=2.0 * L / k, gamma=2.0 / (k + 1),
            eta=8.0 * L * delta0 * 2.0 ** (-s) / (mu * N * k), batch=None),
        lambda L, mu: 2.0 * math.sqrt(6.0 * L / mu)),
    STRONGLY_CONVEX_STOCH_PHASE: Schedule(
        ("L", "delta0", "sigma2", "mu"), True,
        lambda k, N, s, L, delta0, sigma2, mu: StepParams(
            beta=3.0 * L / k, gamma=2.0 / (k + 1),
            eta=8.0 * L * delta0 * 2.0 ** (-s) / (mu * N * k),
            batch=_batch(mu * sigma2 * N * (k + 1) ** 2 / (4.0 * L * L * delta0 * 2.0 ** (-s)))),
        lambda L, mu: 4.0 * math.sqrt(2.0 * L / mu)),
    SADDLE_STATIC: Schedule(
        ("A_norm", "D_X", "D_YW", "sigma_omega"), True,
        lambda k, N, s, A, D, Dyw, sw: _saddle(
            k, 2.0 * A * D / (Dyw * math.sqrt(sw) * N), A, D, sw)),
    SADDLE_DYNAMIC: Schedule(
        ("A_norm", "D_X", "D_YW", "sigma_omega"), False,
        lambda k, N, s, A, D, Dyw, sw: _saddle(
            k, 2.0 * A * D / (Dyw * math.sqrt(sw * k)), A, D, sw)),
    NONSMOOTH_STOCHASTIC: Schedule(("M", "sigma2", "D_X"), True, _nonsmooth),
}


def schedule_eval(variant, k, c):
    """Evaluate a schedule at outer iteration k: its `SCHEDULES` row's step.

    Parameters
    ----------
    variant : ScheduleVariant
    k : int
        Outer iteration index, 1-based.
    c : ProblemConstants
        Must hold every constant ``SCHEDULES[variant.tag].needs`` names; a
        missing one, or a 0 where the schedule needs a positive value (``mu``
        of a restart phase included), raises a ConfigError naming it.

    Returns
    -------
    StepParams
    """
    if not k >= 1:
        raise ValueError("iteration index k must be >= 1, got %r" % (k,))
    return SCHEDULES[variant.tag].step(k, variant.N, variant.s, *_need(c, variant.tag))


def restart_phase_plan(c, tag, eps) -> Tuple[int, int]:
    """Phase length N and phase count S for the strongly convex restart scheme.

    N = ceil(2 sqrt(6 L / mu)) for the deterministic phase tag and
    N = ceil(4 sqrt(2 L / mu)) for the stochastic one (their rows'
    ``phase_length``); S = ceil(log2 max(1, delta0/eps)) phases then
    guarantee a final gap of at most eps.  The tag's constants, mu among
    them, are checked as `schedule_eval` checks them.
    """
    row = SCHEDULES.get(tag)
    if row is None or row.phase_length is None:
        raise ConfigError("restart plan needs a phase schedule, got %r" % (tag,))
    _need(c, tag)
    if not 0 < eps < math.inf:  # a NaN or infinite eps would plan zero phases
        raise ConfigError("target accuracy eps must be finite and positive, got %r" % (eps,))
    N = int(math.ceil(row.phase_length(c.L, c.mu)))
    S = int(math.ceil(math.log2(max(1.0, c.delta0 / eps))))
    return N, S
