"""Objective functions, stochastic first-order samplers, and related helpers.

A sampler draws samples only through ``sfo_batch``; ``sfo_variance`` is the
variance of one sample in closed form, which `estimate_sigma2` reads.
"""

import math
import sys

import numpy as np

from .errors import NumericalError


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
    """f(x) = ||A x - b||^2; one SFO sample is 2 m a_i (a_i . z - b_i), i ~ U{1..m}.

    ``sfo_batch`` returns the mean of a batch of samples, ``sfo_variance``
    the variance of one sample in closed form.  A may be a dense ndarray or
    a scipy CSR matrix.  Instances are immutable and safe to share between
    concurrent runs.
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
        """(A^T A, A^T b, b.b, fallback floor), or () when n^2 >= the stored entries of A."""
        if self.n * self.n >= self.A.size:  # stored entries, for CSR too
            return ()
        Q = self.A.T @ self.A
        if self._dense is None:
            Q = Q.toarray()
        q = np.asarray(self.A.T @ self.b).ravel()
        bb = float(self.b @ self.b)
        return Q, q, bb, 1e3 * np.finfo(float).eps * bb

    def grad(self, x):
        r = self.A @ x - self.b
        g = self.A.T @ r
        g = np.asarray(g).ravel()
        return 2.0 * g

    def sfo_batch(self, z, size, rng):
        """Mean of `size` independent samples, drawn vectorized from one stream."""
        idx = rng.integers(0, self.m, size=size)
        rows = self._dense[idx] if self._dense is not None else self.A[idx].toarray()
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
        g = 2.0 * np.asarray(self.A.T @ r).ravel()
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
        if sigma2 < 0:
            raise ValueError("sigma2 must be nonnegative")
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
        self.n = len(self.x_star)

    def value(self, x):
        return float(np.sum(np.abs(x - self.x_star)))

    def subgrad(self, x):
        return np.sign(x - self.x_star)

    def sfo_batch(self, z, size, rng):
        """The sign subgradient: every sample equals it, so does their mean."""
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


def estimate_sigma2(obj, x_ref, samples=None, rng=None):
    """The SFO variance bound at x_ref: the sampler's ``sfo_variance``, plus 10 percent.

    The variance is exact, not sampled: ``samples`` and ``rng`` are accepted
    from callers written for a sampled estimate, and ignored.
    """
    return 1.1 * obj.sfo_variance(x_ref)
