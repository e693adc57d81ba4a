"""Parameter-free lazy conditional gradient solver for quadratic subproblems.

`lcg_solve` minimizes psi(x) = <g, x> + (beta/2) ||x - center||^2 over a
region until the exact duality gap max_y <grad psi(x), x - y> is certified
to be at most eta.  It never calls the exact LMO directly after the first
iteration: every step goes through the weak separation oracle.  While u has
not moved since the last exact LMO (the opening one, or the one behind a
negative answer), the solver holds the exact minimizer for the current query
and the oracle answers from it; only queries at a fresh iterate scan the
vertex cache, and only a cache miss there costs an LMO.  The scale parameter
Phi halves on every negative answer until it reaches eta, at which point a
negative answer is an exact certificate and the solver returns.
"""

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from .errors import BudgetExceeded
from .oracle import initial_gap, weak_separation
from .trace import Counters


@dataclass
class Subproblem:
    """psi(x) = <g, x> + (beta/2)||x - center||^2."""

    g: np.ndarray
    center: np.ndarray
    beta: float

    def value(self, x):
        d = x - self.center
        return float(self.g @ x + 0.5 * self.beta * (d @ d))

    def grad(self, x):
        return self.g + self.beta * (x - self.center)


@dataclass
class LcgResult:
    point: np.ndarray
    cert_gap: float
    iterations: int            # weak separation calls + 1 for the opening LMO
    phi0: float
    phi_final: float
    weak_sep_calls: int
    exact_lmo_calls: int
    cache_hits: int
    phi_trace: List[float] = field(default_factory=list)


def line_search_quadratic(sub, u, v):
    """Exact step length for psi along u -> v, clamped to [0, 1]."""
    d = u - v
    dd = float(d @ d)
    if dd == 0.0:
        return 0.0
    lam = float(sub.grad(u) @ d) / (sub.beta * dd)
    return min(1.0, max(0.0, lam))


def duality_gap(sub, region, x, counters=None):
    """Exact gap max_y <grad psi(x), x - y>; costs one exact LMO."""
    g = sub.grad(x)
    v = region.lmo(g)
    if counters is not None:
        counters.exact_lmo_calls += 1
    return float(g @ (x - v.point))


def _clog2(x):
    return max(0.0, math.log2(x)) if x > 0 else 0.0


def iteration_bound(phi0, c_phi, eta, alpha):
    """Worst-case total iteration count for `lcg_solve`.

    c_phi is the curvature proxy beta * D^2 of the subproblem over the
    region.  Logarithms are base 2 and clamped at 0 for arguments below 1.
    Counts the opening exact-LMO iteration, matching LcgResult.iterations.
    """
    if phi0 <= 0 or eta <= 0 or alpha < 1:
        raise ValueError("iteration_bound needs phi0 > 0, eta > 0, alpha >= 1")
    if c_phi <= 0:
        # Degenerate subproblem (single-point region); one negative call ends it.
        return int(math.ceil(2 + _clog2(phi0 / eta)))
    kappa = 4.0 * alpha * math.ceil(_clog2(phi0 / (alpha * c_phi))) + _clog2(phi0 / eta)
    if eta < alpha * c_phi:
        total = kappa + 8.0 * alpha * alpha * c_phi / eta + 2.0
    else:
        total = kappa + 4.0 * alpha + 4.0 * alpha * alpha * c_phi / eta + 2.0
    return int(math.ceil(total))


def lcg_solve(sub, region, u1, alpha, eta, cache, cap=None, counters=None,
              on_iter=None) -> LcgResult:
    """Run the lazy conditional gradient loop until the gap is certified <= eta.

    Parameters
    ----------
    sub : Subproblem
    region : Region
    u1 : ndarray
        Warm-start point (must lie in the region).
    alpha : float
        Weak separation relaxation, >= 1.
    eta : float
        Target duality gap, > 0.
    cache : VertexCache
        Shared across invocations within one outer solver run.
    cap : int, optional
        Iteration budget; defaults to 4x the worst-case bound.
    counters : Counters, optional
    on_iter : callable, optional
        Called as on_iter(t, u_t, phi) before each weak separation query
        (testing hook).

    Returns
    -------
    LcgResult whose point carries a certified gap cert_gap <= eta.

    Raises
    ------
    BudgetExceeded
        If the cap runs out first; carries the best iterate and last Phi.
    """
    if eta <= 0:
        raise ValueError("eta must be positive, got %r" % (eta,))
    if alpha < 1:
        raise ValueError("alpha must be >= 1, got %r" % (alpha,))
    if counters is None:
        counters = Counters()
    base = replace(counters)  # a copy: this solve's counts are differences from it

    u = np.array(u1, dtype=float, copy=True)
    grad = sub.grad(u)
    phi_raw, v0 = initial_gap(region, grad, u, cache, counters)
    phi = max(phi_raw, eta)  # never start below the target accuracy
    phi0 = phi
    phi_trace = [phi]
    # Exact answer for the current (grad, u) query; stays valid until a step
    # moves u (negative answers never move u, so a whole run of halvings is
    # served by the one LMO call that opened it).
    exact_hint = (v0, phi_raw)
    if cap is None:
        c_phi = sub.beta * region.diameter() ** 2
        cap = 4 * iteration_bound(phi0, c_phi, eta, alpha)

    t = 0
    while True:
        t += 1
        if t > cap:
            raise BudgetExceeded(
                "lazy conditional gradient cap %d exhausted (phi=%.3e, eta=%.3e)"
                % (cap, phi, eta),
                best_point=u, last_phi=phi, iterations=t,
            )
        if on_iter is not None:
            on_iter(t, u, phi)
        resp = weak_separation(cache, region, grad, u, phi, alpha, counters,
                               exact_hint=exact_hint)
        if resp.positive:
            lam = line_search_quadratic(sub, u, resp.vertex.point)
            if lam > 0.0:
                u = (1.0 - lam) * u + lam * resp.vertex.point
                grad = sub.grad(u)
                exact_hint = None
        else:
            exact_hint = (resp.vertex, resp.gap)
            if phi == eta:
                return LcgResult(
                    point=u,
                    cert_gap=resp.gap,
                    iterations=t + 1,
                    phi0=phi0,
                    phi_final=phi,
                    weak_sep_calls=counters.weak_sep_calls - base.weak_sep_calls,
                    exact_lmo_calls=counters.exact_lmo_calls - base.exact_lmo_calls,
                    cache_hits=counters.cache_hits - base.cache_hits,
                    phi_trace=phi_trace,
                )
            phi = max(phi / 2.0, eta)
            phi_trace.append(phi)
