"""Feasible regions with exact linear minimization oracles.

Each region exposes:

- ``lmo(c)``       -> Vertex minimizing <c, x> over the region (exact),
- ``diameter()``   -> Euclidean diameter (exact or a provable upper bound),
- ``contains(x)``  -> membership test within a tolerance,
- ``dim``          -> ambient dimension of the points handed around.

Every LMO is exact up to rounding; the spectrahedron's is a dense symmetric
eigensolve (LAPACK).

Points are plain 1-D float64 arrays.  For the spectrahedron the points are
symmetric matrices in scaled upper-triangle form (off-diagonals times
sqrt(2)) so that Euclidean inner products and norms on the flattened
vectors equal their Frobenius counterparts.
"""

import math
from dataclasses import dataclass
from typing import Hashable, List, Optional, Tuple

import numpy as np

from .errors import NumericalError

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class Vertex:
    """An extreme point plus a stable hashable identity for caching."""

    point: np.ndarray
    id: Hashable


def svec_dim(n):
    return n * (n + 1) // 2


def svec(M):
    """Flatten a symmetric matrix to scaled upper-triangle form."""
    n = M.shape[0]
    iu = np.triu_indices(n)
    out = M[iu].copy()
    out[iu[0] != iu[1]] *= _SQRT2
    return out


def smat(v):
    """Inverse of `svec`."""
    d = v.shape[0]
    n = int(round((math.sqrt(8 * d + 1) - 1) / 2))
    if svec_dim(n) != d:
        raise ValueError("length %d is not a valid svec dimension" % (d,))
    M = np.zeros((n, n))
    iu = np.triu_indices(n)
    vals = v.copy()
    off = iu[0] != iu[1]
    vals[off] /= _SQRT2
    M[iu] = vals
    M[(iu[1], iu[0])] = vals
    return M


class Region:
    """Base class; subclasses fill in kind, dim and the three operations."""

    kind = None
    dim = None

    def _check(self, c):
        c = np.asarray(c, dtype=float)
        if c.shape != (self.dim,):
            raise ValueError(
                "%s expects vectors of shape (%d,), got %r" % (self.kind, self.dim, c.shape))
        return c

    def lmo(self, c) -> Vertex:
        raise NotImplementedError

    def diameter(self) -> float:
        raise NotImplementedError

    def contains(self, x, tol=1e-9) -> bool:
        raise NotImplementedError

    def to_spec(self) -> dict:
        raise NotImplementedError


class Simplex(Region):
    """Probability simplex {x >= 0, sum x = 1}; vertices are unit basis vectors."""

    kind = "simplex"

    def __init__(self, n):
        if n < 1:
            raise ValueError("simplex needs n >= 1")
        self.n = n
        self.dim = n

    def lmo(self, c):
        c = self._check(c)
        i = int(np.argmin(c))  # lowest index on ties
        p = np.zeros(self.n)
        p[i] = 1.0
        return Vertex(p, i)

    def diameter(self):
        return math.sqrt(2.0) if self.n >= 2 else 0.0

    def contains(self, x, tol=1e-9):
        x = self._check(x)
        return bool(np.all(x >= -tol) and abs(float(np.sum(x)) - 1.0) <= tol)

    def to_spec(self):
        return {"kind": self.kind, "n": self.n}


class L1Ball(Region):
    """Scaled cross-polytope {||x||_1 <= r}; vertices are +-r e_i."""

    kind = "l1_ball"

    def __init__(self, n, radius=1.0):
        if n < 1:
            raise ValueError("l1 ball needs n >= 1")
        if radius <= 0:
            raise ValueError("l1 ball needs radius > 0")
        self.n = n
        self.radius = float(radius)
        self.dim = n

    def lmo(self, c):
        c = self._check(c)
        i = int(np.argmax(np.abs(c)))
        sign = -1.0 if c[i] > 0 else 1.0
        p = np.zeros(self.n)
        p[i] = sign * self.radius
        return Vertex(p, (i, int(sign)))

    def diameter(self):
        return 2.0 * self.radius

    def contains(self, x, tol=1e-9):
        x = self._check(x)
        return bool(float(np.sum(np.abs(x))) <= self.radius + tol)

    def to_spec(self):
        return {"kind": self.kind, "n": self.n, "radius": self.radius}


class Box(Region):
    """Axis-aligned box prod_i [lo_i, hi_i]."""

    kind = "box"

    def __init__(self, n, lo=0.0, hi=1.0):
        if n < 1:
            raise ValueError("box needs n >= 1")
        self.n = n
        self.dim = n
        self.lo = np.broadcast_to(np.asarray(lo, dtype=float), (n,)).copy()
        self.hi = np.broadcast_to(np.asarray(hi, dtype=float), (n,)).copy()
        if np.any(self.hi < self.lo):
            raise ValueError("box needs hi >= lo componentwise")

    def lmo(self, c):
        c = self._check(c)
        at_hi = c < 0  # ties (c_i = 0) go to lo
        p = np.where(at_hi, self.hi, self.lo)
        return Vertex(p, tuple(int(b) for b in at_hi))

    def diameter(self):
        return float(np.linalg.norm(self.hi - self.lo))

    def contains(self, x, tol=1e-9):
        x = self._check(x)
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))

    def to_spec(self):
        return {"kind": self.kind, "n": self.n, "lo": self.lo.tolist(), "hi": self.hi.tolist()}


class Birkhoff(Region):
    """Doubly stochastic matrices (flattened row-major); vertices are permutations."""

    kind = "birkhoff"

    def __init__(self, n):
        if n < 1:
            raise ValueError("birkhoff needs n >= 1")
        self.n = n
        self.dim = n * n

    def lmo(self, c):
        # Deferred: a slow import that most regions never need.
        from scipy.optimize import linear_sum_assignment

        c = self._check(c)
        cost = c.reshape(self.n, self.n)
        rows, cols = linear_sum_assignment(cost)
        P = np.zeros((self.n, self.n))
        P[rows, cols] = 1.0
        return Vertex(P.reshape(-1), tuple(int(j) for j in cols))

    def diameter(self):
        return math.sqrt(2.0 * self.n)

    def contains(self, x, tol=1e-9):
        x = self._check(x)
        P = x.reshape(self.n, self.n)
        return bool(
            np.all(P >= -tol)
            and np.all(np.abs(P.sum(axis=0) - 1.0) <= tol)
            and np.all(np.abs(P.sum(axis=1) - 1.0) <= tol)
        )

    def to_spec(self):
        return {"kind": self.kind, "n": self.n}


class Spectrahedron(Region):
    """Unit-trace PSD matrices in svec coordinates; vertices are rank-one v v^T.

    The LMO takes v as a unit eigenvector for the smallest eigenvalue of the
    cost matrix C from a dense symmetric eigensolve (LAPACK, through
    ``numpy.linalg.eigh``), so <C, vv^T> equals lambda_min(C) up to rounding
    for every C, including ones whose bottom eigenvalues are clustered or
    repeated.
    """

    kind = "spectrahedron"

    def __init__(self, n):
        if n < 1:
            raise ValueError("spectrahedron needs n >= 1")
        self.n = n
        self.dim = svec_dim(n)

    def lmo(self, c):
        c = self._check(c)
        v = np.linalg.eigh(smat(c))[1][:, 0]
        # Sign convention for the id: first non-negligible entry positive.
        nz = np.nonzero(np.abs(v) > 1e-8)[0]
        if len(nz) and v[nz[0]] < 0:
            v = -v
        p = svec(np.outer(v, v))
        return Vertex(p, ("rank1",) + tuple(np.round(v, 12)))

    def diameter(self):
        return math.sqrt(2.0)

    def contains(self, x, tol=1e-9):
        x = self._check(x)
        X = smat(x)
        ev = np.linalg.eigvalsh(X)
        return bool(ev[0] >= -tol and abs(float(np.trace(X)) - 1.0) <= tol)

    def to_spec(self):
        return {"kind": self.kind, "n": self.n}


class DagPath(Region):
    """Source-sink unit-flow (path) polytope of a layered DAG.

    Points are indicator-like vectors over edges; vertices are source->sink
    paths.  The LMO is a min-cost path by dynamic programming in topological
    order, valid for arbitrary (including negative) edge costs.
    """

    kind = "dag_path"

    def __init__(self, edges):
        # edges: iterable of (u, v) or (u, v, layer); layer is informational.
        self.edges = [(int(e[0]), int(e[1])) for e in edges]
        if not self.edges:
            raise ValueError("dag_path needs at least one edge")
        self.dim = len(self.edges)
        nodes = sorted({u for u, _ in self.edges} | {v for _, v in self.edges})
        self._nodes = nodes
        self._in_edges = {v: [] for v in nodes}
        self._out_edges = {v: [] for v in nodes}
        for idx, (u, v) in enumerate(self.edges):
            if u == v:
                raise ValueError("self-loop at node %d" % (u,))
            self._out_edges[u].append(idx)
            self._in_edges[v].append(idx)
        sources = [v for v in nodes if not self._in_edges[v]]
        sinks = [v for v in nodes if not self._out_edges[v]]
        if len(sources) != 1 or len(sinks) != 1:
            raise ValueError(
                "dag_path needs exactly one source and one sink, got %d/%d"
                % (len(sources), len(sinks)))
        self.source, self.sink = sources[0], sinks[0]
        self._topo = self._topo_sort()
        # Longest source->sink path length (edges) for the diameter bound.
        longest = {v: -np.inf for v in nodes}
        longest[self.source] = 0
        for v in self._topo:
            for idx in self._out_edges[v]:
                w = self.edges[idx][1]
                if longest[v] + 1 > longest[w]:
                    longest[w] = longest[v] + 1
        if not np.isfinite(longest[self.sink]):
            raise ValueError("sink is unreachable from source")
        self.max_path_edges = int(longest[self.sink])

    def _topo_sort(self):
        indeg = {v: len(self._in_edges[v]) for v in self._nodes}
        ready = sorted(v for v in self._nodes if indeg[v] == 0)
        order = []
        while ready:
            v = ready.pop(0)
            order.append(v)
            for idx in self._out_edges[v]:
                w = self.edges[idx][1]
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
            ready.sort()
        if len(order) != len(self._nodes):
            raise ValueError("edge list contains a cycle")
        return order

    def lmo(self, c):
        c = self._check(c)
        dist = {v: np.inf for v in self._nodes}
        best_in = {v: None for v in self._nodes}
        dist[self.source] = 0.0
        for v in self._topo:
            if not np.isfinite(dist[v]):
                continue
            for idx in self._out_edges[v]:
                w = self.edges[idx][1]
                cand = dist[v] + c[idx]
                if cand < dist[w]:
                    dist[w] = cand
                    best_in[w] = idx
        path = []
        v = self.sink
        while v != self.source:
            idx = best_in[v]
            path.append(idx)
            v = self.edges[idx][0]
        path.reverse()
        p = np.zeros(self.dim)
        p[path] = 1.0
        return Vertex(p, tuple(path))

    def diameter(self):
        return math.sqrt(2.0 * self.max_path_edges)

    def contains(self, x, tol=1e-9):
        x = self._check(x)
        if np.any(x < -tol):
            return False
        for v in self._nodes:
            out = float(np.sum(x[self._out_edges[v]])) if self._out_edges[v] else 0.0
            inn = float(np.sum(x[self._in_edges[v]])) if self._in_edges[v] else 0.0
            target = 1.0 if v == self.source else (-1.0 if v == self.sink else 0.0)
            if abs(out - inn - target) > tol:
                return False
        return True

    def to_spec(self):
        return {"kind": self.kind, "edges": [[u, v] for u, v in self.edges]}


class Enumerated(Region):
    """Convex hull of an explicit vertex list (at most 5000 vertices)."""

    kind = "enumerated"
    MAX_VERTICES = 5000

    def __init__(self, vertices):
        V = np.asarray(vertices, dtype=float)
        if V.ndim != 2 or V.shape[0] < 1:
            raise ValueError("enumerated region needs a (num_vertices, dim) array")
        if V.shape[0] > self.MAX_VERTICES:
            raise ValueError(
                "enumerated region capped at %d vertices, got %d"
                % (self.MAX_VERTICES, V.shape[0]))
        self.vertices = V
        self.dim = V.shape[1]
        self._diameter = None

    def lmo(self, c):
        c = self._check(c)
        i = int(np.argmin(self.vertices @ c))  # lowest index on ties
        return Vertex(self.vertices[i].copy(), i)

    def diameter(self):
        if self._diameter is None:
            # Exact pairwise max via ||v-w||^2 = ||v||^2 + ||w||^2 - 2 v.w.
            sq = np.sum(self.vertices ** 2, axis=1)
            G = self.vertices @ self.vertices.T
            d2 = sq[:, None] + sq[None, :] - 2.0 * G
            self._diameter = float(math.sqrt(max(0.0, float(np.max(d2)))))
        return self._diameter

    def contains(self, x, tol=1e-9):
        # Deferred: a slow import that most regions never need.
        from scipy.optimize import linprog

        # Chebyshev fit: min t s.t. |V^T lam - x|_inf <= t, lam in simplex.
        x = self._check(x)
        nv = self.vertices.shape[0]
        d = self.dim
        c = np.zeros(nv + 1)
        c[-1] = 1.0
        A_ub = np.zeros((2 * d, nv + 1))
        A_ub[:d, :nv] = self.vertices.T
        A_ub[:d, -1] = -1.0
        A_ub[d:, :nv] = -self.vertices.T
        A_ub[d:, -1] = -1.0
        b_ub = np.concatenate([x, -x])
        A_eq = np.zeros((1, nv + 1))
        A_eq[0, :nv] = 1.0
        res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0],
                      bounds=[(0, None)] * nv + [(0, None)], method="highs")
        if not res.success:
            raise NumericalError("membership LP failed: %s" % (res.message,))
        return bool(res.fun <= tol)

    def to_spec(self):
        return {"kind": self.kind, "vertices": self.vertices.tolist()}


_REGION_KINDS = {
    "simplex": Simplex,
    "l1_ball": L1Ball,
    "box": Box,
    "birkhoff": Birkhoff,
    "spectrahedron": Spectrahedron,
    "dag_path": DagPath,
    "enumerated": Enumerated,
}


def region_from_spec(spec: dict) -> Region:
    """Build a region from its JSON-able spec dict (inverse of ``to_spec``)."""
    kind = spec.get("kind")
    if kind not in _REGION_KINDS:
        raise ValueError("unknown region kind %r" % (kind,))
    if kind == "simplex":
        return Simplex(spec["n"])
    if kind == "l1_ball":
        return L1Ball(spec["n"], spec.get("radius", 1.0))
    if kind == "box":
        return Box(spec["n"], spec.get("lo", 0.0), spec.get("hi", 1.0))
    if kind == "birkhoff":
        return Birkhoff(spec["n"])
    if kind == "spectrahedron":
        # Older files also carry an eigenvalue tolerance, which the exact LMO ignores.
        return Spectrahedron(spec["n"])
    if kind == "dag_path":
        return DagPath(spec["edges"])
    return Enumerated(spec["vertices"])
