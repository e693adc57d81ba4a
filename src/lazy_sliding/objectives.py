"""Objective functions, stochastic first-order samplers, and related helpers."""

import math
import sys

import numpy as np

from .errors import NumericalError

# Individual stochastic gradients come out in row blocks of about this many
# bytes, so moment estimates never hold the full (count, n) sample matrix.
SFO_BLOCK_BYTES = 2 * 1024 * 1024
# Block heights are multiples of this many rows (at least one multiple, so a
# block wider than 4096 columns goes over the budget).  gemv kernels work
# through rows in small aligned groups, so an aligned block evaluates each row
# exactly as one full-height product does: bit for bit with single-threaded
# BLAS, and with threaded BLAS whenever its row split is aligned too.
_ROW_ALIGN = 64


def _block_rows(n):
    """Rows per sample block of width n."""
    return max(1, SFO_BLOCK_BYTES // (8 * n * _ROW_ALIGN)) * _ROW_ALIGN


def _row_slices(count, n):
    """Consecutive slices of `count` sample rows, one per block."""
    step = _block_rows(n)
    start = 0
    while start < count:
        stop = start + step
        if stop >= count - 1:
            # A lone last row joins this block: numpy evaluates a (1, n) @ z
            # as a dot product, which rounds differently from gemv.
            stop = count
        yield slice(start, stop)
        start = stop


def _stack(blocks, n):
    """Concatenate sample blocks of width n (a (0, n) array when there are none)."""
    return np.concatenate([np.empty((0, n))] + list(blocks))


def _sigma_max_sq(A):
    """sigma_max(A)^2 of an (m, n) dense or sparse A by power iteration on A^T A.

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
        w = np.asarray(A.T @ (A @ v)).ravel()
        lam = float(v @ w)
        resid = float(np.linalg.norm(w - lam * v))
        if resid <= 1e-9 * max(1.0, abs(lam)):
            return lam
        v = w / np.linalg.norm(w)
    raise NumericalError(
        "power iteration did not converge in %d iterations (residual %.3e)" % (maxiter, resid),
        residual=resid,
    )


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


class LeastSquares:
    """f(x) = ||A x - b||^2 with an unbiased row-sampling gradient estimator.

    A may be a dense ndarray or a scipy CSR matrix.  Instances are immutable
    after construction and safe to share between concurrent solver runs.
    """

    def __init__(self, A, b):
        # A sparse matrix can only exist once scipy.sparse is loaded, so dense
        # callers never pay for importing it.
        sp = sys.modules.get("scipy.sparse")
        if sp is not None and sp.issparse(A):
            self.A = sp.csr_matrix(A)
            self._dense = None
        else:
            self.A = np.asarray(A, dtype=float)
            self._dense = self.A
        self.b = np.asarray(b, dtype=float)
        self.m, self.n = self.A.shape
        if self.b.shape != (self.m,):
            raise ValueError("b must have shape (%d,)" % (self.m,))
        self._L = None

    def value(self, x):
        r = self.A @ x - self.b
        return float(r @ r)

    def grad(self, x):
        r = self.A @ x - self.b
        g = self.A.T @ r
        g = np.asarray(g).ravel()
        return 2.0 * g

    def _rows(self, idx):
        if self._dense is not None:
            return self._dense[idx]
        return self.A[idx].toarray()

    def sfo_sample(self, z, rng):
        """One unbiased stochastic gradient: 2 m a_i (a_i . z - b_i), i ~ U{1..m}."""
        i = int(rng.integers(0, self.m))
        a = self._rows([i])[0]
        return 2.0 * self.m * a * (float(a @ z) - self.b[i])

    def sfo_batch(self, z, size, rng):
        """Mean of `size` independent samples, drawn vectorized from one stream."""
        idx = rng.integers(0, self.m, size=size)
        rows = self._rows(idx)
        resid = rows @ z - self.b[idx]
        return (2.0 * self.m / size) * (rows.T @ resid)

    def sfo_blocks(self, z, count, rng):
        """`count` individual samples as consecutive row blocks.

        All row indices are drawn up front in one call, so the samples do not
        depend on the block height.
        """
        idx = rng.integers(0, self.m, size=count)
        for block in _row_slices(count, self.n):
            sub = idx[block]
            rows = self._rows(sub)
            resid = rows @ z - self.b[sub]
            yield 2.0 * self.m * rows * resid[:, None]

    def sfo_many(self, z, count, rng):
        """A (count, n) matrix of individual samples (for moment checks)."""
        return _stack(self.sfo_blocks(z, count, rng), len(z))

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
        if sigma2 < 0:
            raise ValueError("sigma2 must be nonnegative")
        self.base = base
        self.sigma2 = float(sigma2)

    def value(self, x):
        return self.base.value(x)

    def grad(self, x):
        return self.base.grad(x)

    def _noise(self, n, rng, count=None):
        scale = math.sqrt(self.sigma2 / n)
        shape = (n,) if count is None else (count, n)
        return rng.normal(0.0, scale, size=shape)

    def sfo_sample(self, z, rng):
        g = self.base.grad(z)
        return g + self._noise(len(g), rng)

    def sfo_batch(self, z, size, rng):
        g = self.base.grad(z)
        return g + self._noise(len(g), rng, count=size).mean(axis=0)

    def sfo_blocks(self, z, count, rng):
        g = self.base.grad(z)
        for block in _row_slices(count, len(g)):
            yield g[None, :] + self._noise(len(g), rng, count=block.stop - block.start)

    def sfo_many(self, z, count, rng):
        return _stack(self.sfo_blocks(z, count, rng), len(z))

    def lipschitz(self):
        return self.base.lipschitz()


class L1Distance:
    """f(x) = ||x - x_star||_1 with the sign subgradient (0 at kinks)."""

    def __init__(self, x_star):
        self.x_star = np.asarray(x_star, dtype=float)
        self.n = len(self.x_star)

    def value(self, x):
        return float(np.sum(np.abs(x - self.x_star)))

    def subgrad(self, x):
        return np.sign(x - self.x_star)

    def sfo_sample(self, z, rng):
        return self.subgrad(z)

    def lipschitz_M(self):
        # Constant M of f(y) <= f(x) + <f'(x), y-x> + M||x-y||; for the sign
        # subgradient of an l1 distance in the Euclidean norm this is 2 sqrt(n)
        # (each coordinate can contribute a factor-2 overshoot when y crosses
        # the kink), tight in the limit.
        return 2.0 * math.sqrt(self.n)


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
        self.sigma_omega = 1.0
        self._a_norm = None

    @property
    def d2_yw(self):
        """max over the simplex of W(y) = 0.5 ||y - center||^2 = (m-1)/(2m)."""
        return (self.m - 1) / (2.0 * self.m)

    def value(self, x):
        return float(np.max(self.A @ x))

    def smoothed(self, x, tau):
        """(f_tau(x), grad f_tau(x)); one A-apply and one A^T-apply."""
        if tau <= 0:
            raise ValueError("tau must be positive, got %r" % (tau,))
        ax = self.A @ x
        y = simplex_project(self.center + ax / tau)
        d = y - self.center
        val = float(ax @ y) - tau * 0.5 * float(d @ d) + tau * self.d2_yw
        grad = self.A.T @ y
        return val, grad

    def a_norm(self):
        """Operator norm sigma_max(A) via power iteration on A^T A."""
        if self._a_norm is None:
            self._a_norm = math.sqrt(max(_sigma_max_sq(self.A), 0.0))
        return self._a_norm


def estimate_L(obj):
    """Smoothness constant of the objective (2 sigma_max(A)^2 for least squares)."""
    return obj.lipschitz()


def estimate_sigma2(obj, x_ref, samples, rng):
    """Empirical SFO variance bound at x_ref, inflated by 10 percent.

    Requires at least 1000 samples so the estimate is stable enough to feed
    batch-size rules, and a sampler with ``sfo_blocks``.  Samples are reduced
    one row block at a time, so memory is bounded by SFO_BLOCK_BYTES and the
    value does not depend on it.
    """
    if samples < 1000:
        raise ValueError("estimate_sigma2 needs samples >= 1000, got %d" % (samples,))
    g = obj.grad(x_ref)
    sq = np.concatenate([np.sum((S - g[None, :]) ** 2, axis=1)
                         for S in obj.sfo_blocks(x_ref, samples, rng)])
    return 1.1 * float(np.mean(sq))
