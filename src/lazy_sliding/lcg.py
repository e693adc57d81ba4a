"""Parameter-free lazy conditional gradient solver for quadratic subproblems.

`lcg_solve` minimizes psi(x) = <g, x> + (beta/2) ||x - center||^2 over a
region until the exact duality gap max_y <grad psi(x), x - y> is certified
to be at most eta.  Every vertex a solve uses comes from one weak
separation oracle, which answers in one order: the held exact minimizer,
then the best cached vertex, then the exact LMO.  The solve's first query,
its opening, asks whether any vertex improves on the start point by more
than eta.  The solver holds the exact minimizer behind a negative answer
until a step moves u; only queries at a fresh iterate scan the vertex
cache, and only a cache miss there costs an LMO.  Phi halves on every
negative answer until it reaches eta, at which point a negative answer is
an exact certificate and the solver returns.  A solve is steered by its
inputs alone; to observe every query, wrap `weak_separation` where this
module imports it.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetExceeded
from .oracle import weak_separation
from .trace import Counters


@dataclass
class Subproblem:
    """psi(x) = <g, x> + (beta/2)||x - center||^2."""

    g: np.ndarray
    center: np.ndarray
    beta: float

    def grad(self, x):
        return self.g + self.beta * (x - self.center)


@dataclass
class LcgResult:
    """What one solve returns; its oracle counts are in the caller's Counters."""

    point: np.ndarray
    cert_gap: float
    iterations: int            # weak separation queries, the opening included
    phi0: float
    # Bound on the opening primal gap psi(u1) - psi* after a positive
    # opening (None after a negative one); iteration_bound's h0.
    h0: Optional[float]


def line_search_quadratic(sub, u, v, grad):
    """Exact step length for psi along u -> v, clamped to [0, 1]; ``grad`` is grad psi(u)."""
    d = u - v
    dd = float(d @ d)
    if dd == 0.0:
        return 0.0
    lam = float(grad @ d) / (sub.beta * dd)
    return min(1.0, max(0.0, lam))


def duality_gap(sub, region, x):
    """Exact gap max_y <grad psi(x), x - y>; costs one exact LMO."""
    g = sub.grad(x)
    return float(g @ (x - region.lmo(g).point))


def _clog2(x):
    return max(0.0, math.log2(x)) if x > 0 else 0.0


def iteration_bound(phi0, c_phi, eta, alpha, h0=None):
    """Worst-case total iteration count for `lcg_solve`.

    c_phi is the curvature proxy beta * D^2 of the subproblem over the
    region.  Logarithms are base 2 and clamped at 0 for arguments below 1.
    Counts every weak separation query, the opening one included, matching
    LcgResult.iterations.

    With h0=None the solve starts certified: its gap is at most phi0 when
    the query after the opening is made.  lcg_solve passes it after a
    negative opening, which certifies the gap <= eta and starts the loop at
    phi0 = eta.  Every epoch (the queries at one Phi) then starts from a
    certificate, as in the lazy conditional gradient analysis of Braun,
    Pokutta and Zink (2017), and the opening query is counted on top.

    A solve whose opening answer is positive passes h0 >= psi(u1) - psi*;
    lcg_solve uses ||grad psi(u1)|| * D, since by convexity and
    Cauchy-Schwarz psi(u1) - psi* <= <grad psi(u1), u1 - x*> <=
    ||grad psi(u1)|| * D.  Its phi0 is the improvement of the answer's
    vertex, which certifies nothing when a cache hit gave it, so its first
    epoch, at phi1 = max(phi0/2, eta), is bounded by progress alone.  A
    positive answer at phi1 improves on u by g > phi1/alpha along u -> v,
    whose curvature is beta ||u - v||^2 <= c_phi, so the exact line search
    lowers psi - psi* >= 0 by min(g/2, g^2/(2 c_phi)) or more, that is by
    at least

        prog(phi1) = min(phi1 / (2 alpha), phi1^2 / (2 alpha^2 c_phi)),

    and the opening step is one such answer: it improves by phi0 > phi1
    (phi0 > eta and phi0 > phi0/2), more than phi1/alpha.  So the epoch,
    opening included, has at most h0 / prog(phi1) positive answers.  It
    ends on a negative answer backed by an exact LMO (no minimizer is held
    once u has moved), which certifies the gap <= phi1/alpha <= phi1.  That
    answer and the certified epochs after it are those of a solve that
    starts certified at phi1, with the answer in the place of its opening
    query, so iteration_bound(phi1, ...) bounds them:

        bound = floor(h0 / prog(phi1)) + iteration_bound(phi1, c_phi, eta, alpha).
    """
    if phi0 <= 0 or eta <= 0 or alpha < 1:
        raise ValueError("iteration_bound needs phi0 > 0, eta > 0, alpha >= 1")
    if h0 is not None:
        phi1 = max(phi0 / 2.0, eta)
        prog = phi1 / (2.0 * alpha)
        if c_phi > 0:
            prog = min(prog, phi1 * phi1 / (2.0 * alpha * alpha * c_phi))
        return math.floor(h0 / prog) + iteration_bound(phi1, c_phi, eta, alpha)
    if c_phi <= 0:
        # Degenerate subproblem (single-point region); one negative call ends it.
        return int(math.ceil(2 + _clog2(phi0 / eta)))
    kappa = 4.0 * alpha * math.ceil(_clog2(phi0 / (alpha * c_phi))) + _clog2(phi0 / eta)
    if eta < alpha * c_phi:
        total = kappa + 8.0 * alpha * alpha * c_phi / eta + 2.0
    else:
        total = kappa + 4.0 * alpha + 4.0 * alpha * alpha * c_phi / eta + 2.0
    return int(math.ceil(total))


def lcg_solve(sub, region, u1, alpha, eta, cache, counters=None) -> LcgResult:
    """Run the lazy conditional gradient loop until the gap is certified <= eta.

    Query 1, the opening, is a weak separation query at Phi = alpha * eta
    from u1.  A positive answer with vertex v and improvement
    g = <grad psi(u1), u1 - v> > eta sets Phi0 = g; the first step goes
    toward v and the loop goes on at Phi = max(Phi0/2, eta) with no held
    minimizer.  A negative answer certifies the gap at u1 <= eta, sets
    Phi0 = eta and holds that exact minimizer for the query at Phi = eta.
    Either way the solve ends only on an LMO-backed negative answer at
    Phi = eta.  The opening answer also sets the solve's cap: 4x the
    worst-case bound `iteration_bound(phi0, c_phi, eta, alpha, h0)` on its
    weak separation queries, the opening included.

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
    counters : Counters, optional
        Incremented by every oracle call of the solve.  A run passes one
        Counters to all of its solves; a caller wanting one solve's counts
        passes a fresh one.

    Returns
    -------
    LcgResult whose point carries a certified gap cert_gap <= eta / alpha;
    the solve returns only at Phi = eta.

    Raises
    ------
    BudgetExceeded
        If the cap runs out first; carries the best iterate, the last Phi
        and, as iterations, the queries made (the cap).
    """
    if eta <= 0:
        raise ValueError("eta must be positive, got %r" % (eta,))
    if alpha < 1:
        raise ValueError("alpha must be >= 1, got %r" % (alpha,))
    if counters is None:
        counters = Counters()

    u = np.array(u1, dtype=float, copy=True)
    grad = sub.grad(u)
    diameter = region.diameter()
    phi = alpha * eta          # the opening asks for an improvement beyond eta
    # Exact answer for the current (grad, u) query; stays valid until a step
    # moves u (negative answers never move u, so a whole run of halvings is
    # served by the one LMO call behind the first of them).
    exact_hint = None
    t, cap = 0, 1              # the opening query sets the cap
    while True:
        t += 1
        if t > cap:
            raise BudgetExceeded(
                "lazy conditional gradient cap %d exhausted (phi=%.3e, eta=%.3e)"
                % (cap, phi, eta),
                best_point=u, last_phi=phi, iterations=t - 1,
            )
        resp = weak_separation(cache, region, grad, u, phi, alpha, counters,
                               exact_hint=exact_hint)
        if t == 1:
            phi0 = max(resp.gap, eta)
            h0 = float(np.linalg.norm(grad)) * diameter if resp.positive else None
            cap = 4 * iteration_bound(phi0, sub.beta * diameter ** 2, eta, alpha, h0)
        if resp.positive:
            lam = line_search_quadratic(sub, u, resp.vertex.point, grad)
            if lam > 0.0:
                u = (1.0 - lam) * u + lam * resp.vertex.point
                grad = sub.grad(u)
                exact_hint = None
        else:
            exact_hint = (resp.vertex, resp.gap)
            if phi == eta:
                return LcgResult(point=u, cert_gap=resp.gap, iterations=t, phi0=phi0, h0=h0)
        if t == 1:
            phi = max(phi0 / 2.0, eta)
        elif not resp.positive:
            phi = max(phi / 2.0, eta)
