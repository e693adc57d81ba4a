"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately written against the *definitions* (exhaustive
enumeration, KKT conditions, dense eigensolves, finite differences) rather
than reusing library code paths, so the tests compare two independent routes
to the same quantity.
"""

import base64
import contextlib
import itertools
import os
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np

# The schedule tags that take exact gradients, and so set no SFO batch: the
# deterministic schemes and the smoothed saddle.
EXACT_TAGS = frozenset(["smooth_deterministic", "smooth_deterministic_fixed_n",
                        "strongly_convex_det_phase", "saddle_static", "saddle_dynamic"])


def brute_birkhoff_min(c_flat, n):
    """Min-cost over all n! permutation matrices; returns (value, flat matrix)."""
    C = c_flat.reshape(n, n)
    best_val, best_P = np.inf, None
    for perm in itertools.permutations(range(n)):
        val = sum(C[i, perm[i]] for i in range(n))
        if val < best_val - 1e-15:
            best_val = val
            P = np.zeros((n, n))
            for i, j in enumerate(perm):
                P[i, j] = 1.0
            best_P = P.ravel()
    return best_val, best_P


def enumerate_dag_paths(edges, source, sink):
    """All source->sink paths as lists of edge indices (recursive DFS)."""
    out = {}
    for idx, (u, v) in enumerate(edges):
        out.setdefault(u, []).append((idx, v))
    paths = []

    def walk(node, acc):
        if node == sink:
            paths.append(list(acc))
            return
        for idx, nxt in out.get(node, []):
            acc.append(idx)
            walk(nxt, acc)
            acc.pop()

    walk(source, [])
    return paths


def brute_dag_min(edges, costs, source, sink):
    """Min-cost path by full enumeration; returns (value, indicator vector)."""
    best_val, best_x = np.inf, None
    for path in enumerate_dag_paths(edges, source, sink):
        val = sum(costs[i] for i in path)
        if val < best_val - 1e-15:
            best_val = val
            x = np.zeros(len(edges))
            x[path] = 1.0
            best_x = x
    return best_val, best_x


class DictDagPath:
    """The path polytope by dicts of in- and out-edges: a sequential DP reference.

    Nodes are relaxed in Kahn's topological order (smallest ready node
    first), each node's out-edges in index order, and an edge replaces a
    head's best only at a strictly smaller distance.  ``lmo(c)`` returns
    ``(point, id)``, the id the path's edge indices in source-to-sink
    order; ``contains(x, tol)`` checks x >= -tol and the flow balance of
    every node, one node at a time.
    """

    def __init__(self, edges):
        self.edges = [(int(e[0]), int(e[1])) for e in edges]
        self.nodes = sorted({u for u, _ in self.edges} | {v for _, v in self.edges})
        self.in_edges = {v: [] for v in self.nodes}
        self.out_edges = {v: [] for v in self.nodes}
        for idx, (u, v) in enumerate(self.edges):
            self.out_edges[u].append(idx)
            self.in_edges[v].append(idx)
        (self.source,) = [v for v in self.nodes if not self.in_edges[v]]
        (self.sink,) = [v for v in self.nodes if not self.out_edges[v]]
        indeg = {v: len(self.in_edges[v]) for v in self.nodes}
        ready, self.topo = [self.source], []
        while ready:
            v = ready.pop(0)
            self.topo.append(v)
            for idx in self.out_edges[v]:
                w = self.edges[idx][1]
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
            ready.sort()
        assert len(self.topo) == len(self.nodes), "edge list contains a cycle"
        self.max_path_edges = len(self.lmo(-np.ones(len(self.edges)))[1])

    def lmo(self, c):
        dist = {v: np.inf for v in self.nodes}
        best_in = {v: None for v in self.nodes}
        dist[self.source] = 0.0
        for v in self.topo:
            for idx in self.out_edges[v]:
                w = self.edges[idx][1]
                cand = dist[v] + c[idx]
                if cand < dist[w]:
                    dist[w] = cand
                    best_in[w] = idx
        path, v = [], self.sink
        while v != self.source:
            path.append(best_in[v])
            v = self.edges[best_in[v]][0]
        path.reverse()
        p = np.zeros(len(self.edges))
        p[path] = 1.0
        return p, tuple(path)

    def contains(self, x, tol=1e-9):
        if np.any(x < -tol):
            return False
        for v in self.nodes:
            out = float(np.sum(x[self.out_edges[v]])) if self.out_edges[v] else 0.0
            inn = float(np.sum(x[self.in_edges[v]])) if self.in_edges[v] else 0.0
            target = 1.0 if v == self.source else (-1.0 if v == self.sink else 0.0)
            if abs(out - inn - target) > tol:
                return False
        return True


def kkt_simplex_project(v, iters=200):
    """Euclidean projection onto the simplex via bisection on the KKT threshold."""
    v = np.asarray(v, dtype=float)
    lo, hi = float(v.min()) - 1.0, float(v.max())
    for _ in range(iters):
        theta = 0.5 * (lo + hi)
        if np.maximum(v - theta, 0.0).sum() > 1.0:
            lo = theta
        else:
            hi = theta
    theta = 0.5 * (lo + hi)
    return np.maximum(v - theta, 0.0)


def proj_l1_ball(v, radius=1.0):
    """Euclidean projection onto the l1 ball, via simplex projection of |v|."""
    v = np.asarray(v, dtype=float)
    if np.abs(v).sum() <= radius:
        return v.copy()
    w = kkt_simplex_project(np.abs(v) / radius) * radius
    return np.sign(v) * w


def dense_spectra_min(C):
    """Exact spectrahedron LMO by dense eigensolve: (lambda_min, unit eigvec)."""
    w, V = np.linalg.eigh(C)
    return float(w[0]), V[:, 0]


def central_diff(f, x, h=1e-6):
    g = np.zeros_like(x, dtype=float)
    for i in range(len(x)):
        e = np.zeros_like(x, dtype=float)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def grid_game_value(A, steps=400):
    """max_{y in grid(Delta_m)} min_j (A^T y)_j -- lower bound on the game value.

    Exact as steps -> inf by LP duality; m <= 3 keeps the grid exhaustive.
    """
    A = np.asarray(A, dtype=float)
    m = A.shape[0]
    if m == 1:
        ys = np.ones((1, 1))
    elif m == 2:
        t = np.linspace(0.0, 1.0, steps + 1)
        ys = np.stack([t, 1.0 - t], axis=1)
    elif m == 3:
        pts = []
        for i in range(steps + 1):
            for j in range(steps + 1 - i):
                pts.append((i / steps, j / steps, (steps - i - j) / steps))
        ys = np.array(pts)
    else:
        raise ValueError("grid oracle only supports m <= 3")
    vals = (ys @ A).min(axis=1)
    return float(vals.max())


def quad_psi_opt(g, center, beta, project):
    """Exact minimum of <g,x> + beta/2 ||x-center||^2 via projection oracle.

    psi(x) = beta/2 ||x - (center - g/beta)||^2 + const, so the minimizer is
    the Euclidean projection of center - g/beta onto the region.
    """
    p = project(center - g / beta)
    return float(g @ p + 0.5 * beta * ((p - center) @ (p - center))), p


def reference_ofw(objective, region, x0, steps, seed, batch=1):
    """Online Frank-Wolfe written out from its definition (Hazan and Kale 2012).

    Step t draws the mean g_t of `batch` samples at x_{t-1} from the Philox
    stream keyed (seed, t), averages d_t = (1 - rho_t) d_{t-1} + rho_t g_t
    with rho_t = t^(-2/3) (d_1 = g_1), calls the LMO once on d_t and moves
    x_t = (1 - gamma_t) x_{t-1} + gamma_t v_t with gamma_t = t^(-3/4).
    Returns one (f(x_t), samples drawn, LMO calls) tuple per step.
    """
    x = np.array(x0, dtype=float)
    d = None
    rows = []
    for t in range(1, steps + 1):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, t], dtype=np.uint64)))
        g = objective.sfo_batch(x, batch, rng)
        rho = t ** (-2.0 / 3.0)
        d = g if d is None else (1.0 - rho) * d + rho * g
        v = region.lmo(d).point
        gamma = t ** (-3.0 / 4.0)
        x = (1.0 - gamma) * x + gamma * v
        rows.append((objective.value(x), t * batch, t))
    return rows


class BestHitCache:
    """A vertex cache as a plain list, most recently used first.

    `scan` scores every vertex y and returns (position, cx - <c, y>) of the
    one with the largest improvement, if it beats the threshold; a hit
    moved to the front and an insert go to position 0, and a full list
    drops its back entry, the least recently used one.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = []

    def scan(self, c, cx, threshold):
        best = None
        for i, v in enumerate(self.entries):
            improvement = cx - float(c @ v.point)
            if improvement > threshold and (best is None or improvement > best[1]):
                best = (i, improvement)
        return best

    def move_to_front(self, i):
        self.entries.insert(0, self.entries.pop(i))

    def insert(self, vertex):
        for i, v in enumerate(self.entries):
            if v.id == vertex.id:
                self.move_to_front(i)
                return
        self.entries.insert(0, vertex)
        del self.entries[self.capacity:]


def cache_entries(cache):
    """The vertices of a `VertexCache`, most recently used first."""
    return [cache.get(slot) for slot in reversed(cache._slots.values())]


def subproblem_value(sub, x):
    """psi(x) = <g, x> + (beta/2)||x - center||^2 of a `Subproblem`."""
    d = x - sub.center
    return float(sub.g @ x + 0.5 * sub.beta * (d @ d))


def phase_end_values(trace):
    """f at the end of each phase of a restart run: rows with outer_k = s * N."""
    N = trace.metadata["phase_length"]
    return [f for k, f in zip(trace.column("outer_k"), trace.column("f_value")) if k % N == 0]


def count_scans(monkeypatch):
    """List that records the threshold of every VertexCache.scan call from now on."""
    from lazy_sliding.oracle import VertexCache

    scan, calls = VertexCache.scan, []

    def counted(self, c, cx, threshold):
        calls.append(threshold)
        return scan(self, c, cx, threshold)

    monkeypatch.setattr(VertexCache, "scan", counted)
    return calls


def record_queries(monkeypatch, probe=None):
    """List that records (u, Phi) of every weak separation query of lcg_solve from now on.

    Wraps `weak_separation` where `lazy_sliding.lcg` imports it, as the
    benchmark's tracer does.  With ``probe``, each entry is (u, Phi,
    probe()), the probe called as the query is asked, before its answer.
    """
    from lazy_sliding import lcg
    from lazy_sliding.oracle import weak_separation

    queries = []

    def recorded(cache, region, c, x, phi, *args, **kwargs):
        queries.append((x, phi) if probe is None else (x, phi, probe()))
        return weak_separation(cache, region, c, x, phi, *args, **kwargs)

    monkeypatch.setattr(lcg, "weak_separation", recorded)
    return queries


def hide_scipy_extensions(monkeypatch):
    """List that records every extension `compiled.kernel` looks up, and finds none of, from now on.

    It stands for a scipy layout without the compiled files, so the loader
    falls back to importing the public module.
    """
    from lazy_sliding import compiled

    looked_up = []

    class NoSpec:
        @staticmethod
        def find_spec(name, path):
            looked_up.append(name)

    def no_module(spec):
        raise AssertionError("no spec to load")

    monkeypatch.setattr(compiled, "PathFinder", NoSpec)
    monkeypatch.setattr(compiled, "module_from_spec", no_module)
    return looked_up


def run_fresh(code, *args):
    """The stdout of ``python -c code *args`` run in a fresh process on this source tree.

    A failing run (nonzero exit) raises ``CalledProcessError``.
    """
    import lazy_sliding

    src = os.path.dirname(os.path.dirname(os.path.abspath(lazy_sliding.__file__)))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True).stdout


def b64decode_array(d):
    """An instance file's encoded array, decoded as instance files were first read.

    ``base64.b64decode`` (which copies the text to ASCII bytes first), then a
    native-order ``astype`` copy of the whole array; the reference for
    `bench.load_instance`'s decoder.
    """
    dtype = np.dtype(d["__ndarray__"])
    flat = np.frombuffer(base64.b64decode(d["base64"]), dtype=dtype)
    return flat.reshape(d["shape"]).astype(dtype.newbyteorder("="))


def lp_hull_distance(V, x):
    """Chebyshev distance from x to the convex hull of the rows of V, by LP (HiGHS).

    min t subject to |V^T lam - x|_inf <= t, lam >= 0, sum lam = 1.
    """
    from scipy.optimize import linprog

    V = np.asarray(V, dtype=float)
    nv, d = V.shape
    c = np.zeros(nv + 1)
    c[-1] = 1.0
    A_ub = np.zeros((2 * d, nv + 1))
    A_ub[:d, :nv] = V.T
    A_ub[d:, :nv] = -V.T
    A_ub[:, -1] = -1.0
    A_eq = np.zeros((1, nv + 1))
    A_eq[0, :nv] = 1.0
    res = linprog(c, A_ub=A_ub, b_ub=np.concatenate([x, -x]), A_eq=A_eq, b_eq=[1.0],
                  bounds=[(0, None)] * (nv + 1), method="highs")
    assert res.success, res.message
    return float(res.fun)


def dense_matrix(A):
    """A as a dense array; a `CsrMatrix` is built from its stored entries."""
    if isinstance(A, np.ndarray):
        return A
    out = np.zeros(A.shape)
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    np.add.at(out, (rows, A.indices), A.data)  # duplicate entries add up
    return out


def dense_csr_draw(spec):
    """{b, data, indices, indptr, x_star} of a CSR generator spec, as `gen_instance` first made them.

    Dense m x n mask and values from one stream, ``x_star`` after them,
    ``b = A @ x_star`` in one BLAS call and the CSR arrays from
    ``np.nonzero(A)``; the reference for the generator's row-block draw.
    """
    from lazy_sliding.bench import _sample_x_star, expand_region_spec
    from lazy_sliding.regions import region_from_spec

    region = region_from_spec(expand_region_spec(spec["region"]))
    m, n, density = spec["objective"]["m"], region.dim, spec["objective"]["density"]
    rng = np.random.default_rng(spec["seed"])
    mask = rng.random((m, n)) < density
    A = np.where(mask, rng.random((m, n)), 0.0)
    x_star = _sample_x_star(region, rng)
    rows, cols = np.nonzero(A)
    itype = np.int32 if max(m, n, len(rows)) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(m + 1, dtype=itype)
    np.cumsum(np.bincount(rows, minlength=m), out=indptr[1:])
    return {"b": A @ x_star, "data": A[rows, cols], "indices": cols.astype(itype),
            "indptr": indptr, "x_star": x_star}


@contextlib.contextmanager
def traced_peak():
    """Trace Python allocations over a with-block.

    Yields a record whose ``peak`` (the most bytes allocated at once) and
    ``held`` (the bytes still allocated at the end) are set when the block
    exits; both count only what the block allocated.
    """
    usage = SimpleNamespace(peak=None, held=None)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        yield usage
        now, peak = tracemalloc.get_traced_memory()
        usage.peak, usage.held = peak - start, now - start
    finally:
        tracemalloc.stop()
