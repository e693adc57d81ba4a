"""Weak separation oracle with a least-recently-used vertex cache.

A weak separation query either produces a vertex improving on the current
point by more than phi/alpha (a *positive* answer, possibly served straight
from the cache without touching the exact LMO), or falls back to one exact
LMO call and certifies that no vertex improves by more than phi/alpha (a
*negative* answer whose vertex is the exact minimizer of <c, .>).  Every
answer carries the improvement of its vertex in ``gap``.  Answers come in
one order: the held exact minimizer, when the caller passes it as a hint,
then the best cached vertex, then the exact LMO.

The cache keeps its vertices in fixed slots.  A scan scores every slot at
once and answers with the vertex of largest improvement; the recency order
only chooses the slot a new vertex evicts, so no stored row is ever
reordered.  Regions whose vertices have at most ``support`` nonzeros are
stored as padded index/value rows and scored by a gather, so a scan costs
O(capacity * support) rather than O(capacity * dim).
"""

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .regions import Vertex
from .trace import Counters


class VertexCache:
    """Fixed-capacity vertex store in least-recently-used order.

    ``capacity`` slots fill in order; once all are used, inserting a new
    vertex evicts the least recently used slot, the head of the id -> slot
    map.  Inserting a vertex whose id is already cached only moves it to
    the map's end.  Capacity 0 disables caching entirely (every query falls
    through to the exact LMO).  All ``capacity`` rows are allocated
    uninitialized at the first insert.  Rows the cache never fills are never
    written, so they take address space but need not become resident memory.

    With ``support=None`` the points are rows of one dense (rows, dim)
    array.  With an integer ``support`` every point must have at most that
    many nonzeros, and is stored as a (support,) row of indices and a row
    of values, padded with index 0 and value 0.

    Slot numbers are the handles `scan` returns and `get` and
    `move_to_front` take; they are stable until the slot is evicted.
    """

    def __init__(self, capacity, support=None):
        if capacity < 0:
            raise ValueError("cache capacity must be >= 0")
        if support is not None and support < 1:
            raise ValueError("cache support must be >= 1 or None")
        self.capacity = capacity
        self.support = support
        self._ids = []                # slot -> vertex id
        self._slots = OrderedDict()   # vertex id -> slot, least recently used first
        self._dim = None
        self._rows = None             # dense points, or sparse value rows
        self._index = None            # sparse index rows

    def __len__(self):
        return len(self._ids)

    def scan(self, c, cx, threshold) -> Optional[Tuple[int, float]]:
        """(slot, improvement) of the cached y that improves most, if that beats threshold.

        The improvement of y over a point x is cx - <c, y> with cx = <c, x>;
        ties go to the lowest slot.  A miss, an empty cache included, gives
        None.
        """
        n = len(self._ids)
        if n == 0:
            return None
        if self.support is None:
            improvement = cx - self._rows[:n] @ c
        else:
            improvement = cx - np.einsum("ij,ij->i", c[self._index[:n]], self._rows[:n])
        slot = int(improvement.argmax())
        if not improvement[slot] > threshold:
            return None
        return slot, float(improvement[slot])

    def get(self, slot) -> Vertex:
        """The vertex in ``slot``, its point rebuilt bit for bit (padding adds +0.0 at 0)."""
        if self.support is None:
            return Vertex(self._rows[slot].copy(), self._ids[slot])
        return Vertex(np.bincount(self._index[slot], self._rows[slot], self._dim),
                      self._ids[slot])

    def move_to_front(self, slot):
        """Mark ``slot`` as the most recently used entry."""
        self._slots.move_to_end(self._ids[slot])

    def insert(self, vertex: Vertex):
        """Cache ``vertex`` as the most recently used entry."""
        if self.capacity == 0:
            return
        slot = self._slots.get(vertex.id)
        if slot is None:
            row = self._row(np.asarray(vertex.point, dtype=float))
            if len(self._ids) < self.capacity:
                slot = len(self._ids)
                self._ids.append(vertex.id)
            else:
                slot = self._slots.popitem(last=False)[1]
                self._ids[slot] = vertex.id
            self._slots[vertex.id] = slot
            if self.support is None:
                self._rows[slot] = row
            else:
                self._index[slot], self._rows[slot] = row
        self.move_to_front(slot)

    def _row(self, point):
        """The stored form of ``point``; allocates the store at the first insert.

        Only rows [:len(self)] are read, and each is written whole when a
        vertex first takes its slot, so the store is left uninitialized.
        """
        if self._dim is None:
            self._dim = point.shape[0]
            width = self._dim if self.support is None else self.support
            self._rows = np.empty((self.capacity, width))
            if self.support is not None:
                self._index = np.empty((self.capacity, width), dtype=np.intp)
        if point.shape != (self._dim,):
            raise ValueError("cache holds points of shape (%d,), got %r"
                             % (self._dim, point.shape))
        if self.support is None:
            return point
        nonzero = np.flatnonzero(point)
        if len(nonzero) > self.support:
            raise ValueError("vertex has %d nonzeros, more than the cache support %d"
                             % (len(nonzero), self.support))
        index = np.zeros(self.support, dtype=np.intp)
        values = np.zeros(self.support)
        index[:len(nonzero)] = nonzero
        values[:len(nonzero)] = point[nonzero]
        return index, values


@dataclass(frozen=True)
class OracleResponse:
    """``gap`` = <c, x - vertex>, the improvement of the answer's vertex.

    positive=True: gap > phi/alpha.
    positive=False: vertex is the exact minimizer of <c, .>, so gap =
    max_z <c, x - z> <= phi/alpha.
    """

    positive: bool
    vertex: Vertex
    gap: float


def weak_separation(cache, region, c, x, phi, alpha, counters=None,
                    exact_hint=None) -> OracleResponse:
    """One weak separation query.

    Parameters
    ----------
    cache : VertexCache
    region : Region
    c : ndarray
        Linear objective (gradient) of the query.
    x : ndarray
        Current point; must lie in the region.
    phi : float
        Target improvement, > 0.
    alpha : float
        Relaxation factor >= 1; positives only need to beat phi/alpha.
    counters : Counters, optional
        Incrementing weak_sep_calls, cache_hits/misses, hint_answers and
        exact_lmo_calls.  A hint answer counts as a cache miss too, so
        cache_hits + cache_misses == weak_sep_calls.
    exact_hint : (Vertex, float), optional
        The exact minimizer of <c, .> and its gap max_z <c, x - z>, when the
        caller already holds them for this very (c, x) query (e.g. from a
        previous negative answer at the same iterate).  The query is then
        answered from the hint alone, with no cache scan and no LMO call:
        positive with the minimizer if the gap beats phi/alpha, else
        negative with that gap.  This is exactly the answer of a cache miss
        followed by a fresh LMO call, and it loses no positive answer, since
        the minimizer clears phi/alpha whenever any cached vertex does.

    Without a hint the cache is scanned; a hit answers with the cached
    vertex of largest improvement, and a miss costs one exact LMO, whose
    vertex is cached when the answer is positive.
    """
    if phi <= 0:
        raise ValueError("phi must be positive, got %r" % (phi,))
    if alpha < 1:
        raise ValueError("alpha must be >= 1, got %r" % (alpha,))
    if counters is None:
        counters = Counters()
    counters.weak_sep_calls += 1
    threshold = phi / alpha
    if exact_hint is None:
        cx = float(c @ x)
        hit = cache.scan(c, cx, threshold)
        if hit is not None:
            slot, gap = hit
            counters.cache_hits += 1
            cache.move_to_front(slot)
            return OracleResponse(True, cache.get(slot), gap)
        v = region.lmo(c)
        counters.exact_lmo_calls += 1
        gap = cx - float(c @ v.point)
    else:
        counters.hint_answers += 1
        v, gap = exact_hint
    counters.cache_misses += 1
    positive = gap > threshold
    if positive:
        cache.insert(v)
    return OracleResponse(positive, v, gap)
