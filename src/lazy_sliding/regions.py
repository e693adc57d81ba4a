"""Feasible regions with exact linear minimization oracles.

Each region exposes:

- ``lmo(c)``       -> Vertex minimizing <c, x> over the region (exact); a
                      cost with a NaN or infinite entry raises
                      NumericalError,
- ``diameter()``   -> Euclidean diameter (exact or a provable upper bound),
- ``contains(x)``  -> membership test within a tolerance; a point with a
                      NaN or infinite coordinate is never a member,
- ``dim``          -> ambient dimension of the points handed around,
- ``support``      -> the most nonzeros a vertex can have, or None when
                      vertices may be dense; the vertex cache stores
                      vertices of a region with a support as sparse rows.

Every LMO is exact up to rounding; the spectrahedron's is a dense symmetric
eigensolve (LAPACK).

A region's spec is its kind and constructor arguments (``params``), which
``to_spec`` writes and `region_from_spec` reads; the generator kinds
``hamiltonian_cycles``, ``cut_polytope`` and ``layered_dag`` build an
`Enumerated` or `DagPath` region from their own keys.

Points are plain 1-D float64 arrays.  For the spectrahedron the points are
symmetric matrices in scaled upper-triangle form (off-diagonals times
sqrt(2)) so that Euclidean inner products and norms on the flattened
vectors equal their Frobenius counterparts.
"""

import copy
import functools
import heapq
import itertools
import math
import types
from dataclasses import dataclass
from typing import Hashable

import numpy as np

from .compiled import kernel
from .errors import NumericalError
from .schedules import _integer

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class Vertex:
    """An extreme point plus a stable hashable identity for caching."""

    point: np.ndarray
    id: Hashable


def svec_dim(n):
    return n * (n + 1) // 2


@functools.lru_cache
def _svec_index(n):
    """The upper triangle of an n x n matrix, its transpose, and each entry's svec scale."""
    iu = np.triu_indices(n)
    scale = np.where(iu[0] == iu[1], 1.0, _SQRT2)
    for a in iu + (scale,):  # the cache hands these arrays to every caller
        a.flags.writeable = False
    return iu, iu[::-1], scale


def svec(M):
    """Flatten a symmetric matrix to scaled upper-triangle form."""
    iu, _, scale = _svec_index(M.shape[0])
    return M[iu] * scale


def smat(v):
    """Inverse of `svec`."""
    d = v.shape[0]
    n = (math.isqrt(8 * d + 1) - 1) // 2
    if svec_dim(n) != d:
        raise ValueError("length %d is not a valid svec dimension" % (d,))
    iu, iu_t, scale = _svec_index(n)
    M = np.empty((n, n))  # the two triangles write every entry
    M[iu] = M[iu_t] = v / scale
    return M


def _size(n, kind):
    """``n`` as an int >= 1; a bool or a number with a fractional part is rejected."""
    if not n >= 1:
        raise ValueError("%s needs n >= 1" % (kind,))
    return _integer(n, "%s n" % (kind,))


class Region:
    """Base class; subclasses fill in kind, dim, ``_lmo``, ``diameter`` and ``params`` (the
    constructor arguments, each held under its own name, which ``to_spec`` writes), and
    may give ``_contains`` a closed form."""

    kind = None
    params = ()
    dim = None
    support = None

    def _check(self, c):
        c = np.asarray(c, dtype=float)
        if c.shape != (self.dim,):
            raise ValueError(
                "%s expects vectors of shape (%d,), got %r" % (self.kind, self.dim, c.shape))
        return c

    def lmo(self, c) -> Vertex:
        """A vertex minimizing <c, x>, by the region's own exact oracle.

        Raises NumericalError if c has a NaN or infinite entry: no vertex
        minimizes such a cost, and each oracle would answer it differently.
        """
        c = self._check(c)
        if not np.isfinite(c).all():
            raise NumericalError("%s LMO got a cost with a NaN or infinite entry" % (self.kind,))
        return self._lmo(c)

    def _lmo(self, c) -> Vertex:
        raise NotImplementedError

    def diameter(self) -> float:
        raise NotImplementedError

    def contains(self, x, tol=1e-9) -> bool:
        """Whether x is a member up to ``tol``, by the region's own test; False if x
        has a NaN or infinite coordinate.  Raises ValueError for a negative or NaN tol."""
        x = self._check(x)
        if not tol >= 0:
            raise ValueError("contains needs tol >= 0, got %r" % (tol,))
        return bool(np.all(np.isfinite(x))) and self._contains(x, tol)

    def _contains(self, x, tol) -> bool:
        """Wolfe's (1976) algorithm on ``lmo``: p, the minimum-norm point of a corral of
        rows ``v.point - x``, is within tol of 0 for a member; ``v = lmo(p)`` proves
        x is not one if ``p @ (v.point - x) > tol ||p||``, or if v is in the corral
        already (p is then the hull's nearest point, up to rounding)."""
        v = self.lmo(-x)
        corral = {v.id: v.point - x}
        for _ in range(_MNP_MAX_ITERS):
            ids = list(corral)
            active, _, p = _min_norm_point(np.array(list(corral.values())))
            corral = {ids[i]: corral[ids[i]] for i in active}
            norm = float(np.linalg.norm(p))
            if norm <= tol:
                return True
            v = self.lmo(p)
            if v.id in corral or float(p @ (v.point - x)) > tol * norm:
                return False
            corral[v.id] = v.point - x
        raise NumericalError("minimum-norm point: no answer after %d steps" % (_MNP_MAX_ITERS,))

    def to_spec(self) -> dict:
        """The spec `region_from_spec` builds this region from: its kind and a copy of
        each of its ``params``."""
        return {"kind": self.kind, **copy.deepcopy({p: getattr(self, p) for p in self.params})}


class Simplex(Region):
    """Probability simplex {x >= 0, sum x = 1}; vertices are unit basis vectors."""

    kind = "simplex"
    params = ("n",)
    support = 1

    def __init__(self, n):
        self.n = self.dim = _size(n, self.kind)

    def _lmo(self, c):
        i = int(np.argmin(c))  # lowest index on ties
        p = np.zeros(self.n)
        p[i] = 1.0
        return Vertex(p, i)

    def diameter(self):
        return math.sqrt(2.0) if self.n >= 2 else 0.0

    def _contains(self, x, tol):
        return bool(np.all(x >= -tol) and abs(float(np.sum(x)) - 1.0) <= tol)


class L1Ball(Region):
    """Scaled cross-polytope {||x||_1 <= r}; vertices are +-r e_i."""

    kind = "l1_ball"
    params = ("n", "radius")
    support = 1

    def __init__(self, n, radius=1.0):
        self.n = self.dim = _size(n, self.kind)
        if not 0 < radius < math.inf:
            raise ValueError("l1 ball needs a finite radius > 0, got %r" % (radius,))
        self.radius = float(radius)

    def _lmo(self, c):
        i = int(np.argmax(np.abs(c)))
        sign = -1.0 if c[i] > 0 else 1.0
        p = np.zeros(self.n)
        p[i] = sign * self.radius
        return Vertex(p, (i, int(sign)))

    def diameter(self):
        return 2.0 * self.radius

    def _contains(self, x, tol):
        return bool(float(np.sum(np.abs(x))) <= self.radius + tol)


class Box(Region):
    """Axis-aligned box prod_i [lo_i, hi_i]."""

    kind = "box"
    params = ("n", "lo", "hi")

    def __init__(self, n, lo=0.0, hi=1.0):
        self.n = self.dim = _size(n, self.kind)
        self.lo, self.hi = (np.broadcast_to(np.asarray(b, dtype=float), (self.n,)).copy()
                            for b in (lo, hi))
        if not (np.isfinite(self.lo).all() and np.isfinite(self.hi).all()):
            raise ValueError("box has a NaN or infinite bound")
        if np.any(self.hi < self.lo):
            raise ValueError("box needs hi >= lo componentwise")

    def _lmo(self, c):
        at_hi = c < 0  # ties (c_i = 0) go to lo
        p = np.where(at_hi, self.hi, self.lo)
        return Vertex(p, tuple(int(b) for b in at_hi))

    def diameter(self):
        return float(np.linalg.norm(self.hi - self.lo))

    def _contains(self, x, tol):
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))


class Birkhoff(Region):
    """Doubly stochastic matrices (flattened row-major); vertices are permutations."""

    kind = "birkhoff"
    params = ("n",)

    def __init__(self, n):
        self.n = self.support = _size(n, self.kind)
        self.dim = self.n * self.n

    def _lmo(self, c):
        rows, cols = kernel("linear_sum_assignment")(c.reshape(self.n, self.n))
        p = np.zeros(self.dim)
        p[rows * self.n + cols] = 1.0
        return Vertex(p, tuple(cols.tolist()))

    def diameter(self):
        return math.sqrt(2.0 * self.n)

    def _contains(self, x, tol):
        P = x.reshape(self.n, self.n)
        return bool(
            np.all(P >= -tol)
            and np.all(np.abs(P.sum(axis=0) - 1.0) <= tol)
            and np.all(np.abs(P.sum(axis=1) - 1.0) <= tol)
        )


class Spectrahedron(Region):
    """Unit-trace PSD matrices in svec coordinates; vertices are rank-one v v^T.

    The LMO takes v as a unit eigenvector for the smallest eigenvalue of the
    cost matrix C from a dense symmetric eigensolve (LAPACK, through
    ``numpy.linalg.eigh``), so <C, vv^T> equals lambda_min(C) up to rounding
    for every C, including ones whose bottom eigenvalues are clustered or
    repeated.
    """

    kind = "spectrahedron"
    params = ("n",)

    def __init__(self, n):
        self.n = _size(n, self.kind)
        self.dim = svec_dim(self.n)

    def _lmo(self, c):
        v = np.linalg.eigh(smat(c))[1][:, 0]
        # Sign convention for the id: first non-negligible entry positive.
        nz = np.nonzero(np.abs(v) > 1e-8)[0]
        if len(nz) and v[nz[0]] < 0:
            v = -v
        return Vertex(svec(np.outer(v, v)), ("rank1",) + tuple(np.round(v, 12)))

    def diameter(self):
        return math.sqrt(2.0)

    def _contains(self, x, tol):
        X = smat(x)
        ev = np.linalg.eigvalsh(X)
        return bool(ev[0] >= -tol and abs(float(np.trace(X)) - 1.0) <= tol)


class DagPath(Region):
    """Source-sink unit-flow (path) polytope of a layered DAG.

    Points are indicator-like vectors over edges; vertices are source->sink
    paths.  The LMO is a min-cost path by dynamic programming, valid for
    arbitrary (including negative) edge costs: per level (the most edges from
    the source), one ``np.minimum.reduceat`` over ``dist[tail] + c``, keeping
    each head's first minimum in (tail's topological rank, index) order, as a
    strict-``<`` relaxation in Kahn's order (smallest ready node first) does.
    """

    kind = "dag_path"
    params = ("edges",)

    def __init__(self, edges):
        # edges: iterable of (u, v) or (u, v, layer); layer is informational.
        self.edges = [(_integer(e[0], "dag_path node"), _integer(e[1], "dag_path node"))
                      for e in edges]
        if not self.edges:
            raise ValueError("dag_path needs at least one edge")
        self.dim = len(self.edges)
        for u, v in self.edges:
            if u == v:
                raise ValueError("self-loop at node %d" % (u,))
        nodes, ends = np.unique(self.edges, return_inverse=True)
        tail, head = ends.reshape(-1, 2).T
        n = self._n = len(nodes)
        indeg = np.bincount(head, minlength=n)
        sources = np.flatnonzero(indeg == 0)
        sinks = np.flatnonzero(np.bincount(tail, minlength=n) == 0)
        if len(sources) != 1 or len(sinks) != 1:
            raise ValueError(
                "dag_path needs exactly one source and one sink, got %d/%d"
                % (len(sources), len(sinks)))
        self.source, self.sink = int(nodes[sources[0]]), int(nodes[sinks[0]])
        # Kahn's pass: a node's level is final when it leaves the heap.
        succ = [[] for _ in range(n)]
        for u, v in zip(tail.tolist(), head.tolist()):
            succ[u].append(v)
        indeg, level, topo, ready = indeg.tolist(), [0] * n, [], [int(sources[0])]
        while ready:
            u = heapq.heappop(ready)
            topo.append(u)
            above = level[u] + 1
            for v in succ[u]:
                if level[v] < above:
                    level[v] = above
                indeg[v] -= 1
                if indeg[v] == 0:
                    heapq.heappush(ready, v)
        if len(topo) != n:
            raise ValueError("edge list contains a cycle")
        # Numbered by level, the source is node 0 and the sink, alone on the
        # top level, node n - 1; node v's in-edges are first[v]:first[v + 1].
        by_level = np.argsort(level, kind="stable")
        renumber = np.argsort(by_level)
        self._edge = np.lexsort((np.argsort(topo)[tail], renumber[head]))  # index breaks ties
        self._tail, self._head = renumber[tail[self._edge]], renumber[head[self._edge]]
        first = np.searchsorted(self._head, np.arange(n + 1))
        self._first = first[1:-1]
        levels = np.asarray(level)[by_level]
        self.max_path_edges = self.support = int(levels[-1])  # the longest path
        bounds = np.searchsorted(levels, np.arange(1, self.max_path_edges + 2)).tolist()
        self._levels = [(first[a], first[b], a, b, first[a:b] - first[a])
                        for a, b in zip(bounds[:-1], bounds[1:])]

    def _lmo(self, c):
        cost, cand, dist = c[self._edge], np.empty(self.dim), np.zeros(self._n)
        for lo, hi, a, b, groups in self._levels:
            np.add(dist[self._tail[lo:hi]], cost[lo:hi], out=cand[lo:hi])
            dist[a:b] = np.minimum.reduceat(cand[lo:hi], groups)
        # each head's first edge at its minimum, for nodes 1..n-1
        at_min = np.where(cand == dist[self._head], np.arange(self.dim), self.dim)
        best_in = np.minimum.reduceat(at_min, self._first)
        steps, v = [], self._n - 1
        while v:
            steps.append(best_in[v - 1])
            v = self._tail[steps[-1]]
        path = self._edge[steps[::-1]].tolist()
        p = np.zeros(self.dim)
        p[path] = 1.0
        return Vertex(p, tuple(path))

    def diameter(self):
        return math.sqrt(2.0 * self.max_path_edges)

    def _contains(self, x, tol):
        flow = x[self._edge]
        balance = np.bincount(self._tail, flow, self._n) - np.bincount(self._head, flow, self._n)
        balance[[0, -1]] -= (1.0, -1.0)  # the source sends one unit, the sink takes it
        return bool(np.all(x >= -tol) and np.all(np.abs(balance) <= tol))


# A guard, not a budget, on NNLS iterations and on Wolfe's LMO steps: on the
# cut and Hamiltonian-cycle polytopes (up to 4096 vertices, dim 78) NNLS has
# taken at most dim + 2 iterations, and ``Region._contains`` at most 79 LMOs.
_MNP_MAX_ITERS = 10000
# Height of a row block of the diameter's Gram matrix: about 8 MB a block.
_DIAMETER_BLOCK_BYTES = 8 << 20


def _min_norm_point(P):
    """The minimum-norm point p of the convex hull of the (finite) rows of P, by one NNLS.

    Returns ``(active, weights, p)`` with ``p = weights @ P[active]``, the
    weights positive and summing to one.  By Lawson and Hanson's
    least-distance reduction (*Solving Least Squares Problems*, ch. 23), the
    point of the cone of the rows lifted to ``(P_i, 1)`` nearest to
    ``e_{d+1}`` is ``(p, 1) / (1 + ||p||^2)``: so the ``u >= 0`` minimizing
    ``||[P^T; 1^T] u - e_{d+1}||`` gives ``p = P^T u / sum(u)``, exact up to
    rounding.  Raises NumericalError past ``_MNP_MAX_ITERS`` iterations.
    """
    nnls = kernel("nnls")
    A = np.ones((P.shape[1] + 1, P.shape[0]), order="F")  # the kernel reads columns
    A[:-1] = P.T
    b = np.append(np.zeros(P.shape[1]), 1.0)
    try:
        if isinstance(nnls, types.BuiltinFunctionType):
            u, _, info = nnls(A, b, _MNP_MAX_ITERS)
        else:  # the public function, which raises at its cap
            (u, _), info = nnls(A, b, maxiter=_MNP_MAX_ITERS), 1
    except RuntimeError:
        info = None
    if info != 1:
        raise NumericalError("minimum-norm point: no answer after %d iterations" % (_MNP_MAX_ITERS,))
    active = np.flatnonzero(u > 0.0)
    weights = u[active] / u[active].sum()
    return active, weights, weights @ P[active]


class Enumerated(Region):
    """Convex hull of an explicit vertex list (at most 5000 finite vertices).

    ``contains(x, tol)`` holds when the Euclidean distance from x to the hull
    is at most tol, decided by ``Region._contains`` on the list's LMO.
    """

    kind = "enumerated"
    params = ("vertices",)
    MAX_VERTICES = 5000

    def __init__(self, vertices):
        V = np.array(vertices, dtype=float)  # a copy: the caller's array may change later
        if V.ndim != 2 or V.shape[0] < 1:
            raise ValueError("enumerated region needs a (num_vertices, dim) array")
        if V.shape[0] > self.MAX_VERTICES:
            raise ValueError(
                "enumerated region capped at %d vertices, got %d"
                % (self.MAX_VERTICES, V.shape[0]))
        if not np.all(np.isfinite(V)):
            raise ValueError("enumerated region has a vertex with a NaN or infinite coordinate")
        V.flags.writeable = False
        self.vertices = V
        self.dim = V.shape[1]
        self._diameter = None

    def _lmo(self, c):
        i = int(np.argmin(self.vertices @ c))  # lowest index on ties
        return Vertex(self.vertices[i].copy(), i)

    def diameter(self):
        if self._diameter is None:
            # Exact pairwise max via ||v-w||^2 = ||v||^2 + ||w||^2 - 2 v.w, a
            # block of rows at a time so that no nv x nv matrix is held.
            V = self.vertices
            sq = np.sum(V ** 2, axis=1)
            rows = max(1, _DIAMETER_BLOCK_BYTES // (8 * len(V)))
            best = 0.0
            for lo in range(0, len(V), rows):
                d2 = sq[lo:lo + rows, None] + sq[None, :] - 2.0 * (V[lo:lo + rows] @ V.T)
                best = max(best, float(np.max(d2)))
            self._diameter = math.sqrt(best)
        return self._diameter


def hamiltonian_cycle_vertices(nodes):
    """Indicator vectors (over undirected edges of K_nodes) of all Hamiltonian cycles."""
    nodes = _integer(nodes, "hamiltonian cycle nodes", 3)
    cycles = 1
    for k in range(3, nodes):  # (nodes - 1)! / 2, stopped once past the cap
        cycles *= k
        if cycles > Enumerated.MAX_VERTICES:
            raise ValueError("hamiltonian cycle enumeration capped at %d vertices"
                             % Enumerated.MAX_VERTICES)
    index = np.zeros((nodes, nodes), dtype=np.intp)  # the coordinate of edge {a, b}
    index[np.triu_indices(nodes, 1)] = np.arange(nodes * (nodes - 1) // 2)
    index += index.T
    # tours from node 0, each undirected cycle once
    tours = np.array([(0,) + perm for perm in itertools.permutations(range(1, nodes))
                      if perm[0] < perm[-1]])
    verts = np.zeros((len(tours), nodes * (nodes - 1) // 2))
    np.put_along_axis(verts, index[tours, np.roll(tours, -1, axis=1)], 1.0, axis=1)
    return verts


def cut_polytope_vertices(nodes):
    """Cut vectors (over undirected edges of K_nodes) of all vertex bipartitions."""
    nodes = _integer(nodes, "cut polytope nodes", 2)
    if nodes - 1 >= Enumerated.MAX_VERTICES.bit_length():  # 2 ** (nodes - 1) > the cap
        raise ValueError("cut polytope enumeration capped at %d vertices" % Enumerated.MAX_VERTICES)
    # node 0 on side 0; node b + 1 on the side of bit b of the mask
    side = (2 * np.arange(2 ** (nodes - 1)))[:, None] >> np.arange(nodes) & 1
    i, j = np.triu_indices(nodes, 1)
    return (side[:, i] != side[:, j]).astype(float)


def layered_dag_edges(layers, width):
    """Edge list of a source -> (layers x width grid) -> sink layered DAG."""
    layers = _integer(layers, "layered dag layers", 1)
    width = _integer(width, "layered dag width", 1)
    def node(l, i):
        return 1 + l * width + i
    source, sink = 0, 1 + layers * width
    edges = [(source, node(0, i)) for i in range(width)]
    for l in range(layers - 1):
        edges += [(node(l, i), node(l + 1, j)) for i in range(width) for j in range(width)]
    edges += [(node(layers - 1, i), sink) for i in range(width)]
    return edges


# Every region kind: its builder and the spec keys it takes.
_KINDS = {cls.kind: (cls, cls.params)
          for cls in (Simplex, L1Ball, Box, Birkhoff, Spectrahedron, DagPath, Enumerated)}
_KINDS.update({
    "hamiltonian_cycles": (lambda nodes: Enumerated(hamiltonian_cycle_vertices(nodes)), ("nodes",)),
    "cut_polytope": (lambda nodes: Enumerated(cut_polytope_vertices(nodes)), ("nodes",)),
    "layered_dag": (lambda layers, width: DagPath(layered_dag_edges(layers, width)),
                    ("layers", "width")),
})


def region_from_spec(spec) -> Region:
    """Build a region from its spec: a dict of a kind and the kind's keys (see ``_KINDS``).

    The inverse of ``to_spec``.  A spec that is not a dict, an unknown kind or
    a key the kind does not take raise ValueError; a missing key, TypeError.
    """
    if not isinstance(spec, dict):
        raise ValueError("region must be a JSON object, got %r" % (spec,))
    kind = spec.get("kind")
    if kind not in _KINDS:
        raise ValueError("unknown region kind %r" % (kind,))
    build, params = _KINDS[kind]
    # Older files also give a spectrahedron an eigenvalue tolerance, which the exact LMO ignores.
    args = {key: value for key, value in spec.items()
            if key != "kind" and (kind, key) != ("spectrahedron", "eig_tol")}
    unknown = [key for key in args if key not in params]
    if unknown:
        raise ValueError("region %s has unknown key(s) %s; it takes %s"
                         % (kind, ", ".join(map(repr, unknown)), ", ".join(params)))
    return build(**args)
