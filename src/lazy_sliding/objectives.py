"""Objective functions, stochastic first-order samplers, and related helpers.

A sampler draws samples only through ``sfo_batch``; ``sfo_variance`` is the
variance of one sample in closed form, which `estimate_sigma2` reads.
"""

import math

import numpy as np

from .compiled import kernel
from .errors import NumericalError


def _sigma_max_sq(A):
    """sigma_max(A)^2 of an (m, n) dense or CSR A by power iteration on A^T A.

    Deterministic start; stops once ||A^T A v - lam v|| <= 1e-9 max(1, |lam|)
    and raises NumericalError after max(500, 10 n log2(n + 1)) steps.
    """
    n = A.shape[1]
    maxiter = max(500, int(np.ceil(10 * n * np.log2(n + 1))))
    v = np.ones(n)
    v[0] += 0.5
    v = v / np.linalg.norm(v)
    resid = np.inf
    for _ in range(maxiter):
        w = A.T @ (A @ v)
        lam = float(v @ w)
        resid = float(np.linalg.norm(w - lam * v))
        if resid <= 1e-9 * max(1.0, abs(lam)):
            return lam
        v = w / np.linalg.norm(w)
    raise NumericalError(
        "power iteration did not converge in %d iterations (residual %.3e)" % (maxiter, resid))


def simplex_project(v):
    """Euclidean projection onto the probability simplex (sort and threshold)."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError("simplex_project expects a 1-D vector")
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    j = np.arange(1, len(v) + 1)
    rho = np.nonzero(u - css / j > 0)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _vector(x, length):
    x = np.asarray(x)
    if x.shape != (length,):
        raise ValueError("expected a vector of length %d, got shape %r" % (length, x.shape))
    return x


class CsrMatrix:
    """An (m, n) CSR matrix held as its arrays and multiplied by scipy's kernels.

    ``A @ x`` runs ``csr_matvec`` and ``A.T @ r`` runs ``csc_matvec`` on the
    same arrays, which is what ``scipy.sparse`` runs for a CSR matrix and its
    transpose, so both products are bit-identical to scipy's.  ``rows``
    gathers rows into another CsrMatrix with ``csr_row_index``, as row
    indexing does in scipy, so products with the gathered rows are scipy's
    too.  Only the compiled module ``scipy.sparse._sparsetools`` is loaded,
    at the first kernel call, never the ``scipy.sparse`` package.
    """

    def __init__(self, data, indices, indptr, shape):
        m, n = (int(s) for s in shape)
        indices, indptr = np.asarray(indices), np.asarray(indptr)
        itype = np.int32 if indices.dtype == indptr.dtype == np.int32 else np.int64
        self.data = np.asarray(data, dtype=float)
        self.indices = indices.astype(itype, copy=False)
        self.indptr = indptr.astype(itype, copy=False)
        self.shape = (m, n)
        self.size = len(self.data)  # stored entries
        # the kernels trust these arrays, so a bad file must fail here
        if (min(m, n) < 0 or self.data.ndim != 1 or self.indices.shape != self.data.shape
                or self.indptr.shape != (m + 1,) or self.indptr[0] != 0
                or self.indptr[-1] != self.size or np.any(self.indptr[1:] < self.indptr[:-1])
                or self.size and not 0 <= self.indices.min() <= self.indices.max() < n):
            raise ValueError("CSR arrays do not describe a %d x %d matrix" % (m, n))

    @property
    def T(self):
        return _CsrTranspose(self)

    def __matmul__(self, x):
        m, n = self.shape
        y = np.zeros(m)
        kernel("csr_matvec")(m, n, self.indptr, self.indices, self.data, _vector(x, n), y)
        return y

    def rows(self, idx):
        """The rows ``idx`` (a 1-D index array) as a (len(idx), n) CsrMatrix, scipy's ``A[idx]``."""
        m, n = self.shape
        idx = np.asarray(idx, dtype=self.indptr.dtype)
        if idx.size and not 0 <= idx.min() <= idx.max() < m:
            raise IndexError("row index out of range for %d rows" % (m,))
        ptr = np.zeros(len(idx) + 1, dtype=idx.dtype)
        np.cumsum(self.indptr[idx + 1] - self.indptr[idx], out=ptr[1:])
        cols, vals = np.empty(ptr[-1], dtype=idx.dtype), np.empty(ptr[-1])
        kernel("csr_row_index")(len(idx), idx, self.indptr, self.indices, self.data, cols, vals)
        # gathered from arrays that passed the constructor's O(nnz) checks, so not checked again
        rows = object.__new__(CsrMatrix)
        rows.data, rows.indices, rows.indptr = vals, cols, ptr
        rows.shape, rows.size = (len(idx), n), len(vals)
        return rows


class _CsrTranspose:
    """A^T of a CsrMatrix A: the same arrays, read as CSC."""

    def __init__(self, A):
        self.A = A
        self.shape = A.shape[::-1]

    def __matmul__(self, r):
        A = self.A
        n, m = self.shape
        y = np.zeros(n)
        kernel("csc_matvec")(n, m, A.indptr, A.indices, A.data, _vector(r, m), y)
        return y


class LeastSquares:
    """f(x) = ||A x - b||^2; one SFO sample is 2 m a_i (a_i . z - b_i), i ~ U{1..m}.

    ``sfo_batch`` returns the mean of a batch of samples, ``sfo_variance``
    the variance of one sample in closed form.  A may be a dense array, a
    `CsrMatrix`, or a scipy sparse matrix (anything with ``tocsr()``), which
    is held as a `CsrMatrix` on the same arrays.  Every entry of A and b
    must be finite.  Instances are immutable and safe to share between
    concurrent runs.
    """

    def __init__(self, A, b):
        if hasattr(A, "tocsr"):
            A = A.tocsr()
            A = CsrMatrix(A.data, A.indices, A.indptr, A.shape)
        if isinstance(A, CsrMatrix):
            self.A = A
            self._dense = None
        else:
            self.A = np.asarray(A, dtype=float)
            self._dense = self.A
        self.b = np.asarray(b, dtype=float)
        self.m, self.n = self.A.shape
        if self.b.shape != (self.m,):
            raise ValueError("b must have shape (%d,)" % (self.m,))
        entries = self.A if self._dense is not None else self.A.data
        if not (np.isfinite(entries).all() and np.isfinite(self.b).all()):
            raise ValueError("least squares needs a finite A and b, got a NaN or infinite entry")
        self._L = None
        self._gram = None
        self._row_sq = None

    def value(self, x):
        """f(x), in Gram form x.Qx - 2 q.x + b.b when Q = A^T A is smaller than A.

        Near a zero of f the Gram form loses everything to cancellation, so a
        Gram value at most 1e3 eps b.b is recomputed from the residual.
        """
        if self._gram is None:
            self._gram = self._gram_form()
        if self._gram:
            Q, q, bb, floor = self._gram
            f = float(x @ (Q @ x)) - 2.0 * float(q @ x) + bb
            if f > floor:
                return f
        r = self.A @ x - self.b
        return float(r @ r)

    def _gram_form(self):
        """(A^T A, A^T b, b.b, fallback floor), or () when n^2 >= the stored entries of A.

        A CSR A^T A is built one column A^T (A e_j) at a time, with the two
        kernels the products run and no dense block of rows.  Entry (i, j)
        sums a_ki a_kj over the rows k in order, so Q is exactly symmetric.
        """
        if self.n * self.n >= self.A.size:  # stored entries, for CSR too
            return ()
        if self._dense is not None:
            Q = self.A.T @ self.A
        else:
            Q = np.column_stack([self.A.T @ (self.A @ e) for e in np.eye(self.n)])
        q = self.A.T @ self.b
        bb = float(self.b @ self.b)
        return Q, q, bb, 1e3 * np.finfo(float).eps * bb

    def grad(self, x):
        r = self.A @ x - self.b
        return 2.0 * (self.A.T @ r)

    def sfo_batch(self, z, size, rng):
        """Mean of `size` independent samples, drawn vectorized from one stream."""
        idx = rng.integers(0, self.m, size=size)
        rows = self._dense[idx] if self._dense is not None else self.A.rows(idx)
        resid = rows @ z - self.b[idx]
        return (2.0 * self.m / size) * (rows.T @ resid)

    def sfo_variance(self, z):
        """E||sample - grad f(z)||^2 = 4 m sum_i r_i^2 ||a_i||^2 - ||grad f(z)||^2, r = A z - b.

        The difference is all cancellation when every sample is (nearly) the
        same, so a value at most 1e3 eps of the first term is returned as 0.
        """
        if self._row_sq is None:  # ||a_i||^2, from the stored entries of A alone
            if self._dense is not None:
                self._row_sq = np.einsum("ij,ij->i", self._dense, self._dense)
            else:
                ptr = self.A.indptr
                filled = ptr[:-1] < ptr[1:]  # reduceat cannot sum an empty row
                self._row_sq = np.zeros(self.m)
                self._row_sq[filled] = np.add.reduceat(np.square(self.A.data), ptr[:-1][filled])
        r = self.A @ z - self.b
        spread = 4.0 * self.m * float((r * r) @ self._row_sq)
        g = 2.0 * (self.A.T @ r)
        var = spread - float(g @ g)
        return var if var > 1e3 * np.finfo(float).eps * spread else 0.0

    def lipschitz(self):
        """L = 2 sigma_max(A)^2, via power iteration on v -> A^T (A v)."""
        if self._L is None:
            self._L = 2.0 * max(_sigma_max_sq(self.A), 0.0)
        return self._L


class GaussianSfo:
    """Additive isotropic Gaussian noise around an exact gradient.

    E||sample - grad||^2 equals ``sigma2`` exactly, making it the reference
    sampler for tests that pin the variance level.
    """

    def __init__(self, base, sigma2):
        if not sigma2 >= 0:
            raise ValueError("sigma2 must be nonnegative, got %r" % (sigma2,))
        self.base = base
        self.sigma2 = float(sigma2)

    def value(self, x):
        return self.base.value(x)

    def grad(self, x):
        return self.base.grad(x)

    def sfo_batch(self, z, size, rng):
        g = self.base.grad(z)
        noise = rng.normal(0.0, math.sqrt(self.sigma2 / len(g)), size=(size, len(g)))
        return g + noise.mean(axis=0)

    def sfo_variance(self, z):
        return self.sigma2

    def lipschitz(self):
        return self.base.lipschitz()


class L1Distance:
    """f(x) = ||x - x_star||_1 with the sign subgradient (0 at kinks)."""

    def __init__(self, x_star):
        self.x_star = np.asarray(x_star, dtype=float)

    def value(self, x):
        return float(np.sum(np.abs(x - self.x_star)))

    def subgrad(self, x):
        return np.sign(x - self.x_star)

    def sfo_batch(self, z, size, rng):
        """The sign subgradient: every sample equals it, so does their mean."""
        return self.subgrad(z)


class SmoothedSaddle:
    """f(x) = max_i (A x)_i and its Euclidean smoothings.

    The smoothing uses the quadratic prox function w(y) = 0.5 ||y - c||^2 on
    the probability simplex with c the uniform center, strong convexity
    modulus 1, so the smoothed inner maximizer is the simplex projection of
    c + A x / tau and f <= f_tau <= f + tau * d2_yw everywhere.
    """

    def __init__(self, A):
        self.A = np.asarray(A, dtype=float)
        self.m, self.n = self.A.shape
        self.center = np.full(self.m, 1.0 / self.m)

    @property
    def d2_yw(self):
        """max over the simplex of W(y) = 0.5 ||y - center||^2 = (m-1)/(2m)."""
        return (self.m - 1) / (2.0 * self.m)

    def value(self, x):
        return float(np.max(self.A @ x))

    def smoothed(self, x, tau):
        """(f_tau(x), grad f_tau(x)); one A-apply and one A^T-apply."""
        if not tau > 0:
            raise ValueError("tau must be positive, got %r" % (tau,))
        ax = self.A @ x
        y = simplex_project(self.center + ax / tau)
        d = y - self.center
        val = float(ax @ y) - tau * 0.5 * float(d @ d) + tau * self.d2_yw
        grad = self.A.T @ y
        return val, grad


def estimate_L(obj):
    """Smoothness constant of the objective (2 sigma_max(A)^2 for least squares)."""
    return obj.lipschitz()


def estimate_sigma2(obj, x_ref, samples=None, rng=None):
    """The SFO variance bound at x_ref: the sampler's ``sfo_variance``, plus 10 percent.

    The variance is exact, not sampled: ``samples`` and ``rng`` are accepted
    from callers written for a sampled estimate, and ignored.
    """
    return 1.1 * obj.sfo_variance(x_ref)
