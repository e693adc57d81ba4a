
import numpy as np
import pytest
import scipy.sparse as sp

from lazy_sliding import compiled
from lazy_sliding.objectives import (
    CsrMatrix,
    GaussianSfo,
    L1Distance,
    LeastSquares,
    SmoothedSaddle,
    estimate_L,
    estimate_sigma2,
    simplex_project,
)

from helpers import (
    central_diff,
    dense_matrix,
    hide_scipy_extensions,
    kkt_simplex_project,
    traced_peak,
)


def _random_ls(rng, m=12, n=6):
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    return LeastSquares(A, b)


def test_value_and_grad_worked_examples():
    rng = np.random.default_rng(0)
    A = rng.random((8, 4))
    x_star = rng.random(4)
    obj = LeastSquares(A, A @ x_star)
    assert obj.value(x_star) == pytest.approx(0.0, abs=1e-18 * 8)
    assert np.allclose(obj.grad(x_star), 0.0, atol=1e-12)
    obj = LeastSquares(np.eye(3), np.zeros(3))
    x = np.array([1.0, -2.0, 0.5])
    assert obj.value(x) == pytest.approx(float(x @ x))
    assert np.allclose(obj.grad(x), 2.0 * x)
    with pytest.raises(ValueError):
        LeastSquares(np.eye(3), np.zeros(4))


def test_gradient_finite_difference_check():
    rng = np.random.default_rng(1)
    obj = _random_ls(rng)
    for _ in range(100):
        x = rng.standard_normal(6)
        g = obj.grad(x)
        fd = central_diff(obj.value, x)
        assert np.linalg.norm(g - fd) <= 1e-4 * (1.0 + np.linalg.norm(g))


def _samples(obj, z, count, rng):
    """A (count, n) matrix of individual samples: ``count`` one-sample batches."""
    return np.array([obj.sfo_batch(z, 1, rng) for _ in range(count)])


def test_sfo_single_row_is_exact():
    rng = np.random.default_rng(2)
    A = rng.random((1, 5))
    obj = LeastSquares(A, np.array([0.3]))
    z = rng.random(5)
    g = obj.grad(z)
    for _ in range(10):
        assert np.allclose(obj.sfo_batch(z, 1, rng), g, atol=1e-12)
    assert estimate_sigma2(obj, z) == 0.0


def test_sfo_unbiased_and_variance_bounded():
    rng = np.random.default_rng(3)
    obj = _random_ls(rng, m=20, n=6)
    z = rng.random(6)
    g = obj.grad(z)
    S = _samples(obj, z, 100_000, np.random.default_rng(7))
    mean = S.mean(axis=0)
    se = S.std(axis=0, ddof=1) / np.sqrt(S.shape[0])
    assert np.all(np.abs(mean - g) <= 3.0 * se + 1e-12)
    sig2_hat = estimate_sigma2(obj, z)
    emp = float(np.mean(np.sum((S - g[None, :]) ** 2, axis=1)))
    assert emp <= 1.2 * sig2_hat


def _random_csr(rng, m, n, density):
    mask = rng.random((m, n)) < density
    return sp.csr_matrix(np.where(mask, rng.random((m, n)), 0.0))


def _full_matrix_samples(obj, x, samples, rng):
    """Every sample at once, in one (samples, n) matrix."""
    idx = rng.integers(0, obj.m, size=samples)
    rows = dense_matrix(obj.A)[idx]
    resid = rows @ x - obj.b[idx]
    return 2.0 * obj.m * rows * resid[:, None]


def test_sfo_batch_is_mean_of_samples():
    rng = np.random.default_rng(4)
    obj = _random_ls(rng)
    z = rng.random(6)
    b1 = obj.sfo_batch(z, 64, np.random.default_rng(5))
    S = _full_matrix_samples(obj, z, 64, np.random.default_rng(5))
    assert np.allclose(b1, S.mean(axis=0), atol=1e-12)


def _mean_over_all_rows(obj, x):
    """E||G - grad f(x)||^2 by brute force: the mean over the samples of all m rows."""
    A = dense_matrix(obj.A)
    G = 2.0 * obj.m * A * (A @ x - obj.b)[:, None]
    return float(np.mean(np.sum((G - obj.grad(x)) ** 2, axis=1)))


def test_sfo_variance_is_the_mean_over_all_rows():
    rng = np.random.default_rng(17)
    A = rng.random((300, 1200)) * (rng.random((300, 1200)) < 0.05)
    A[[0, 7, 8, 299]] = 0.0  # empty CSR rows, the last one included
    csr = LeastSquares(sp.csr_matrix(A), rng.random(300))
    assert np.count_nonzero(np.diff(csr.A.indptr) == 0) == 4
    dense = LeastSquares(rng.random((400, 300)), rng.random(400))
    for obj in (dense, csr):
        for _ in range(5):
            x = rng.random(obj.n)
            assert obj.sfo_variance(x) == pytest.approx(_mean_over_all_rows(obj, x), rel=1e-12)
            assert estimate_sigma2(obj, x) == 1.1 * obj.sfo_variance(x)
    gauss = GaussianSfo(dense, 3.0)
    assert gauss.sfo_variance(rng.random(300)) == 3.0


def test_gaussian_sampler_keeps_its_base_smoothness():
    rng = np.random.default_rng(27)
    base = LeastSquares(rng.random((30, 8)), rng.random(30))
    assert estimate_L(GaussianSfo(base, 2.0)) == estimate_L(base) > 0.0


def test_sfo_variance_is_zero_when_every_sample_is_the_gradient():
    rng = np.random.default_rng(19)
    a = rng.random(5)
    single = LeastSquares(a[None, :], np.array([0.3]))
    same = LeastSquares(np.tile(a, (40, 1)), np.full(40, 0.3))
    for obj in (single, same, LeastSquares(sp.csr_matrix(same.A), same.b)):
        for _ in range(20):
            assert obj.sfo_variance(rng.standard_normal(5)) == 0.0


def _sigma2_objectives(rng, n):
    """A spectra30-shaped CSR objective, a dense one and a Gaussian sampler, all of width n."""
    return [LeastSquares(_random_csr(rng, 2000, n, 0.1), rng.random(2000)),
            LeastSquares(rng.random((2000, n)), rng.random(2000)),
            GaussianSfo(LeastSquares(rng.random((50, n)), rng.random(50)), 3.0)]


def test_sfo_variance_holds_no_more_than_one_copy_of_the_entries():
    # The row norms are computed from the stored entries, squared in one
    # float64 copy for CSR and in none for dense A; the rest are vectors of
    # length m and n.  No (m, n) or (samples, n) matrix is built.
    rng = np.random.default_rng(20)
    n = 465
    for obj in _sigma2_objectives(rng, n):
        base = getattr(obj, "base", obj)
        copy = 0 if isinstance(base.A, np.ndarray) else 8 * base.A.data.size
        x = rng.random(n)
        with traced_peak() as usage:
            obj.sfo_variance(x)
        assert usage.peak <= copy + 64 * (base.m + n), (type(obj).__name__, usage.peak)


def test_estimate_sigma2_leaves_its_inputs_unchanged():
    rng = np.random.default_rng(22)
    n = 300
    for obj in _sigma2_objectives(rng, n):
        base = getattr(obj, "base", obj)
        A = base.A
        parts = [A] if isinstance(A, np.ndarray) else [A.data, A.indices, A.indptr]
        x = rng.random(n)
        parts += [base.b, x]
        before = [a.copy() for a in parts]
        first = estimate_sigma2(obj, x)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(parts, before))
        assert estimate_sigma2(obj, x) == first


def test_estimate_L_worked_examples():
    assert estimate_L(LeastSquares(np.eye(4), np.zeros(4))) == pytest.approx(2.0)
    assert estimate_L(LeastSquares(np.array([[3.0]]), np.zeros(1))) == pytest.approx(18.0)
    rng = np.random.default_rng(5)
    A = rng.standard_normal((50, 20))
    L = estimate_L(LeastSquares(A, np.zeros(50)))
    L_svd = 2.0 * np.linalg.svd(A, compute_uv=False)[0] ** 2
    assert L == pytest.approx(L_svd, rel=1e-6)


def test_gradient_lipschitz_audit():
    rng = np.random.default_rng(6)
    obj = _random_ls(rng, m=15, n=8)
    L = estimate_L(obj)
    for _ in range(1000):
        x, y = rng.standard_normal(8), rng.standard_normal(8)
        lhs = np.linalg.norm(obj.grad(x) - obj.grad(y))
        assert lhs <= L * np.linalg.norm(x - y) * (1.0 + 1e-9) + 1e-12


def test_csr_matches_dense():
    rng = np.random.default_rng(7)
    A = rng.random((10, 6)) * (rng.random((10, 6)) < 0.4)
    b = rng.random(10)
    dense = LeastSquares(A, b)
    sparse = LeastSquares(sp.csr_matrix(A), b)
    z = rng.random(6)
    assert sparse.value(z) == pytest.approx(dense.value(z), rel=1e-14)
    assert np.allclose(sparse.grad(z), dense.grad(z), atol=1e-12)
    assert estimate_L(sparse) == pytest.approx(estimate_L(dense), rel=1e-9)
    s1 = _samples(dense, z, 50, np.random.default_rng(9))
    s2 = _samples(sparse, z, 50, np.random.default_rng(9))
    assert np.allclose(s1, s2, atol=1e-12)


def _csr_cases(rng):
    """scipy CSR matrices: empty rows (the last one too), int64 indices, unsorted indices."""
    D = rng.random((60, 25)) * (rng.random((60, 25)) < 0.15)
    D[[0, 31, 59]] = 0.0
    A = sp.csr_matrix(D)
    wide = A.copy()  # scipy's constructor would narrow the indices back to int32
    wide.indices, wide.indptr = A.indices.astype(np.int64), A.indptr.astype(np.int64)
    unsorted = A.copy()
    for i in range(unsorted.shape[0]):  # reverse each row's entries
        lo, hi = unsorted.indptr[i], unsorted.indptr[i + 1]
        unsorted.indices[lo:hi] = unsorted.indices[lo:hi][::-1].copy()
        unsorted.data[lo:hi] = unsorted.data[lo:hi][::-1].copy()
    unsorted.has_sorted_indices = False
    return [A, wide, unsorted]


def test_csr_products_and_rows_are_scipys_bit_for_bit():
    rng = np.random.default_rng(23)
    for A in _csr_cases(rng):
        held = CsrMatrix(A.data, A.indices, A.indptr, A.shape)
        assert held.size == A.nnz and held.indices.dtype == A.indices.dtype
        for _ in range(3):
            x, r = rng.standard_normal(25), rng.standard_normal(60)
            assert (held @ x).tobytes() == (A @ x).tobytes()
            assert (held.T @ r).tobytes() == (A.T @ r).tobytes()
        for idx in ([59], [0], [31, 59, 59, 3, 0], rng.integers(0, 60, size=128)):
            idx = np.asarray(idx)
            got, want = held.rows(idx), A[idx]
            assert got.shape == want.shape and got.size == want.nnz
            assert got.data.tobytes() == want.data.tobytes()
            # scipy narrows int64 indices it can hold in int32; the values agree
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.indptr, want.indptr)
        obj, z = LeastSquares(A, rng.random(60)), rng.random(25)
        assert obj.grad(z).tobytes() == (2.0 * (A.T @ (A @ z - obj.b))).tobytes()
        for size in (1, 7, 128):
            batch = obj.sfo_batch(z, size, np.random.default_rng(size))
            i = np.random.default_rng(size).integers(0, 60, size=size)
            rows = A[i]
            want = (2.0 * 60 / size) * (rows.T @ (rows @ z - obj.b[i]))
            assert batch.tobytes() == want.tobytes()


def test_csr_matrix_rejects_arrays_the_kernels_cannot_trust():
    ok = ([1.0, 2.0], [0, 2], [0, 1, 2])
    CsrMatrix(*ok, (2, 3))
    for data, indices, indptr, shape in [
            (*ok, (2, 2)),                        # a column index past n
            (*ok, (3, 3)),                        # indptr too short
            ([1.0, 2.0], [0, -1], [0, 1, 2], (2, 3)),
            ([1.0, 2.0], [0, 2], [0, 2, 1], (2, 3)),  # indptr falls
            ([1.0, 2.0], [0, 2], [1, 1, 2], (2, 3)),
            ([1.0], [0, 2], [0, 1, 2], (2, 3)),
            ([], [], [], (-1, 3))]:
        with pytest.raises(ValueError):
            CsrMatrix(data, indices, indptr, shape)
    held = CsrMatrix(*ok, (2, 3))
    with pytest.raises(ValueError):
        held @ np.ones(2)
    with pytest.raises(ValueError):
        held.T @ np.ones(3)
    for bad in ([2], [-1]):
        with pytest.raises(IndexError):
            held.rows(np.asarray(bad))


def test_csr_kernels_fall_back_to_the_scipy_sparse_package(monkeypatch):
    # a scipy layout without the compiled file: the kernels come from
    # importing scipy.sparse, and every product is the same
    import scipy.sparse._sparsetools as public

    rng = np.random.default_rng(25)
    A = _csr_cases(rng)[0]
    x, r = rng.standard_normal(25), rng.standard_normal(60)
    loaded = CsrMatrix(A.data, A.indices, A.indptr, A.shape)
    idx = rng.integers(0, 60, size=128)
    rows = loaded.rows(idx)
    want = [loaded @ x, loaded.T @ r, rows.data, rows.indices, rows.indptr]
    looked_up = hide_scipy_extensions(monkeypatch)
    monkeypatch.setattr(compiled, "loaded", {})
    held = CsrMatrix(A.data, A.indices, A.indptr, A.shape)
    rows = held.rows(idx)
    got = [held @ x, held.T @ r, rows.data, rows.indices, rows.indptr]
    # the first kernel call looked the extension up, once
    assert looked_up == ["scipy.sparse._sparsetools"]
    assert compiled.loaded == {"scipy.sparse._sparsetools": public}
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_csr_sfo_batch_keeps_the_sampled_rows_sparse():
    # 128 sampled rows of a 2000 x 2500 objective at density 0.05 hold about
    # 16000 entries; as a dense block they would take 2.56 MB
    rng = np.random.default_rng(26)
    m, n, size = 2000, 2500, 128
    obj = LeastSquares(sp.random(m, n, density=0.05, format="csr", rng=rng), rng.random(m))
    z = rng.random(n)
    obj.sfo_batch(z, size, np.random.default_rng(0))  # kernels loaded outside the trace
    with traced_peak() as usage:
        obj.sfo_batch(z, size, np.random.default_rng(1))
    assert usage.peak < size * n * 8 / 4, usage.peak


def _residual_value(obj, x):
    r = obj.A @ x - obj.b
    return float(r @ r)


@pytest.mark.parametrize("fmt", ["dense", "csr"])
def test_gram_value_matches_residual_form(fmt):
    # A^T A (n^2 = 144 entries) is smaller than A (48000 dense entries, about
    # 2400 CSR nonzeros), so value() takes the Gram form; it must agree with
    # the residual form to 64 eps (||Ax|| + ||b||)^2, the size of the terms
    # it adds up
    rng = np.random.default_rng(11)
    A = rng.random((4000, 12)) * (rng.random((4000, 12)) < 0.05)
    A = sp.csr_matrix(A) if fmt == "csr" else A
    x_star = rng.random(12)
    obj = LeastSquares(A, np.asarray(A @ x_star).ravel())
    eps = np.finfo(float).eps
    worst = 0.0
    for _ in range(200):
        x = x_star + 10.0 ** rng.uniform(-8, 0) * rng.standard_normal(12)
        f = obj.value(x)
        scale = (np.linalg.norm(A @ x) + np.linalg.norm(obj.b)) ** 2
        worst = max(worst, abs(f - _residual_value(obj, x)) / (eps * scale))
        assert f >= 0.0
    assert obj._gram  # the Gram route was taken
    Q = obj._gram[0]
    assert np.array_equal(Q, Q.T)
    assert worst <= 64.0
    # within 1e3 eps b.b of zero the residual form answers, bit for bit
    for t in (0.0, 1e-9):
        x = x_star + t
        assert obj.value(x) == _residual_value(obj, x)
    assert obj.value(x_star) < 1e-20


def test_value_keeps_residual_form_when_gram_is_larger():
    rng = np.random.default_rng(12)
    obj = LeastSquares(sp.csr_matrix(rng.random((300, 40)) * (rng.random((300, 40)) < 0.1)),
                       rng.random(300))
    x = rng.random(40)
    assert obj.value(x) == _residual_value(obj, x)
    assert not obj._gram


def test_simplex_project_worked_examples():
    v = np.array([0.2, 0.3, 0.5])
    assert np.allclose(simplex_project(v), v, atol=1e-15)  # idempotent on the simplex
    assert np.allclose(simplex_project(np.array([2.0, 0.0])), [1.0, 0.0])
    rng = np.random.default_rng(8)
    for _ in range(200):
        v = rng.standard_normal(5) * 2.0
        p = simplex_project(v)
        assert p.min() >= 0.0 and p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(p, kkt_simplex_project(v), atol=1e-9)
    with pytest.raises(ValueError):
        simplex_project(np.zeros((2, 2)))


def test_saddle_symmetric_case():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((4, 3))
    obj = SmoothedSaddle(A)
    assert obj.d2_yw == pytest.approx(3.0 / 8.0)  # (m-1)/(2m), m=4
    x = np.zeros(3)
    tau = 0.7
    val, grad = obj.smoothed(x, tau)
    assert val == pytest.approx(tau * obj.d2_yw)
    assert np.allclose(grad, A.T @ np.full(4, 0.25), atol=1e-12)
    with pytest.raises(ValueError):
        obj.smoothed(x, 0.0)


def test_saddle_small_tau_concentrates():
    rng = np.random.default_rng(10)
    A = rng.standard_normal((5, 3))
    obj = SmoothedSaddle(A)
    x = rng.standard_normal(3)
    i = int(np.argmax(A @ x))
    val, grad = obj.smoothed(x, 1e-9)
    assert val == pytest.approx(obj.value(x), abs=1e-8)
    assert np.allclose(grad, A.T[:, i], atol=1e-6)  # y* -> e_i


def test_saddle_sandwich():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((6, 4))
    obj = SmoothedSaddle(A)
    for _ in range(100):
        x = rng.standard_normal(4)
        f = obj.value(x)
        for tau in (1e-3, 1e-2, 0.1, 1.0, 10.0):
            ft, _ = obj.smoothed(x, tau)
            assert f - 1e-10 <= ft <= f + tau * obj.d2_yw + 1e-10


def test_saddle_inner_maximizer_kkt():
    rng = np.random.default_rng(12)
    A = rng.standard_normal((5, 4))
    obj = SmoothedSaddle(A)
    for _ in range(50):
        x = rng.standard_normal(4)
        tau = float(10.0 ** rng.uniform(-2, 1))
        y = simplex_project(obj.center + (A @ x) / tau)
        ref = kkt_simplex_project(obj.center + (A @ x) / tau)
        assert np.allclose(y, ref, atol=1e-9)


def test_saddle_smoothed_gradient_lipschitz():
    rng = np.random.default_rng(13)
    A = rng.standard_normal((5, 4))
    obj = SmoothedSaddle(A)
    L_A = np.linalg.svd(A, compute_uv=False)[0]
    for tau in (0.1, 1.0):
        L_tau = L_A ** 2 / tau  # the prox function's strong convexity modulus is 1
        for _ in range(300):
            x, y = rng.standard_normal(4), rng.standard_normal(4)
            _, gx = obj.smoothed(x, tau)
            _, gy = obj.smoothed(y, tau)
            assert np.linalg.norm(gx - gy) <= L_tau * np.linalg.norm(x - y) + 1e-12


def test_gaussian_sfo_moments():
    rng = np.random.default_rng(14)
    base = _random_ls(rng, m=6, n=5)
    sigma2 = 2.5
    obj = GaussianSfo(base, sigma2)
    z = rng.random(5)
    g = base.grad(z)
    assert np.allclose(obj.grad(z), g)
    S = _samples(obj, z, 100_000, np.random.default_rng(15))
    se = S.std(axis=0, ddof=1) / np.sqrt(S.shape[0])
    assert np.all(np.abs(S.mean(axis=0) - g) <= 3.0 * se + 1e-12)
    emp_var = float(np.mean(np.sum((S - g[None, :]) ** 2, axis=1)))
    assert emp_var == pytest.approx(obj.sfo_variance(z), rel=0.05)
    assert obj.sfo_variance(z) == sigma2
    with pytest.raises(ValueError):
        GaussianSfo(base, -1.0)


def test_l1_distance_basics():
    x_star = np.array([0.5, -1.0, 2.0])
    obj = L1Distance(x_star)
    assert obj.value(x_star) == 0.0
    x = np.array([1.5, -1.0, 0.0])
    assert obj.value(x) == pytest.approx(3.0)
    assert np.array_equal(obj.subgrad(x), [1.0, 0.0, -1.0])
    rng = np.random.default_rng(16)
    # subgradient inequality f(y) >= f(x) + <g, y - x>
    for _ in range(500):
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        assert obj.value(y) >= obj.value(x) + float(obj.subgrad(x) @ (y - x)) - 1e-12
