import threading

import numpy as np
import numpy.testing as nptest
import pytest

import holdscan as hs
from holdscan.core import held_cells
from holdscan.errors import InactiveSupport, InternalConsistencyError

from conftest import random_active, spectral_identity_gap
from test_held_cells import sparse_active


def test_whiten_golden(golden):
    res = hs.whiten(golden)
    nptest.assert_allclose(
        res.whitened,
        [[0.6708, 0.2236], [0.1291, 0.6455], [0.3873, 0.3873]],
        rtol=0,
        atol=5e-5,
    )
    assert res.singular_values[0] == pytest.approx(1.0, abs=1e-9)
    assert res.singular_values[1] == pytest.approx(0.4830, abs=5e-4)
    assert res.rho == pytest.approx(np.sqrt(7 / 30), abs=1e-12)


def test_whiten_product_benchmark_is_rank_one():
    p = np.array([0.5, 0.3, 0.2])
    s = np.array([0.6, 0.4])
    res = hs.whiten(hs.OwnershipMatrix(np.outer(p, s)))
    assert res.singular_values[0] == pytest.approx(1.0, abs=1e-12)
    assert res.singular_values[1] == pytest.approx(0.0, abs=1e-12)
    assert res.rho == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(res.residual)) <= 1e-12


def test_residual_is_built_on_first_read_and_then_kept():
    rng = np.random.default_rng(36)
    matrix = random_active(rng, 7, 5)
    res = hs.whiten(matrix)
    hs.fire_sale(matrix, rng.standard_normal(matrix.n))
    hs.active_variance(matrix, rng.standard_normal(matrix.m), project=True, dispersion=0.5)
    assert "residual" not in vars(res)  # whiten and the dynamics apply L through the cells
    ell = res.residual
    assert vars(res)["residual"] is ell and res.residual is ell
    assert not ell.flags.writeable
    expected = res.whitened - np.outer(res.row_unit, res.col_unit)
    assert (ell.dtype, ell.shape) == (expected.dtype, expected.shape)
    assert ell.tobytes() == expected.tobytes()  # bit for bit


def test_whitened_is_built_on_first_read_and_then_kept(golden):
    res = hs.whiten(golden)
    assert "whitened" not in vars(res)  # whiten keeps the cells, not K
    k = res.whitened
    assert vars(res)["whitened"] is k and res.whitened is k
    assert not k.flags.writeable
    expected = golden.entries / np.outer(res.row_unit, res.col_unit)
    assert (k.dtype, k.shape, k.tobytes()) == (expected.dtype, expected.shape, expected.tobytes())


def test_whiten_single_cell():
    res = hs.whiten(hs.OwnershipMatrix(np.array([[1.0]])))
    assert res.singular_values == (1.0,)
    assert res.rho == 0.0


def test_whiten_requires_active():
    with pytest.raises(InactiveSupport):
        hs.whiten(hs.OwnershipMatrix(np.array([[0.5, 0.5], [0.0, 0.0]])))


def test_rho_golden_square_equals_dependence(golden):
    value = hs.rho(golden)
    assert value == pytest.approx(0.4830, abs=5e-4)
    assert value**2 == pytest.approx(hs.dependence_index(golden).index, abs=1e-9)


def test_rho_on_antidiagonal_family():
    # in a 2x2 system the dependence equals the squared second singular value
    matrix, _, x_formula = hs.nonid_family(0.0)
    assert x_formula == 1.0
    assert hs.rho(matrix) == pytest.approx(1.0, abs=1e-9)


def test_spectral_identity_gap_examples(golden):
    assert "spectral_identity_gap" not in hs.__all__  # a test oracle, not library API
    assert spectral_identity_gap(golden) <= 1e-9
    rng = np.random.default_rng(8)
    random_matrix = random_active(rng, 8, 5)
    assert spectral_identity_gap(random_matrix) <= 1e-9
    marg = hs.marginals(golden)
    product = hs.OwnershipMatrix(np.outer(marg.p, marg.s))
    assert spectral_identity_gap(product) <= 1e-12


def test_top_pair_and_annihilation(golden):
    res = hs.whiten(golden)
    nptest.assert_allclose(res.whitened @ res.col_unit, res.row_unit, atol=1e-9)
    nptest.assert_allclose(res.whitened.T @ res.row_unit, res.col_unit, atol=1e-9)
    assert np.max(np.abs(res.residual @ res.col_unit)) <= 1e-9
    assert np.max(np.abs(res.residual.T @ res.row_unit)) <= 1e-9


def test_contractivity_on_random_vectors():
    rng = np.random.default_rng(21)
    for _ in range(20):
        matrix = random_active(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        res = hs.whiten(matrix)
        for _ in range(5):
            y = rng.standard_normal(matrix.m)
            y /= np.linalg.norm(y)
            assert np.linalg.norm(res.whitened @ y) <= 1.0 + 1e-12


def test_orthogonal_frobenius_split():
    rng = np.random.default_rng(33)
    for _ in range(25):
        matrix = random_active(rng, int(rng.integers(1, 10)), int(rng.integers(1, 10)))
        res = hs.whiten(matrix)
        k_mass = float(np.sum(res.whitened**2))
        l_mass = float(np.sum(res.residual**2))
        assert k_mass == pytest.approx(1.0 + l_mass, abs=1e-9)


def test_mode_bounds_sandwich_random():
    rng = np.random.default_rng(44)
    for _ in range(40):
        matrix = random_active(rng, int(rng.integers(2, 10)), int(rng.integers(2, 10)))
        res = hs.whiten(matrix)
        x = hs.dependence_index(matrix).index
        k = min(matrix.n, matrix.m)
        assert res.rho**2 <= x + 1e-9
        assert x <= (k - 1) * res.rho**2 + 1e-9


def test_jacobi_matches_lapack_oracle():
    # squared singular values are the eigenvalues of the smaller Gram matrix
    rng = np.random.default_rng(55)
    shapes = [(9, 4), (4, 9), (1, 7), (7, 1)]
    shapes += [(int(rng.integers(1, 12)), int(rng.integers(1, 12))) for _ in range(30)]
    for n, m in shapes:
        res = hs.whiten(random_active(rng, n, m))
        k = res.whitened
        gram = k.T @ k if m <= n else k @ k.T
        oracle = np.sort(np.linalg.eigvalsh(gram))[::-1]
        assert len(res.singular_values) == min(n, m)
        nptest.assert_allclose(np.square(res.singular_values), oracle, rtol=0, atol=1e-12)


def test_jacobi_near_rank_one_accuracy():
    p = np.array([0.5, 0.3, 0.2])
    s = np.array([0.6, 0.4])
    base = np.outer(p, s)
    eps = 1e-9
    base[0, 0] += eps
    base[0, 1] -= eps
    res = hs.whiten(hs.normalize(base))
    reference = np.linalg.svd(res.whitened, compute_uv=False)
    nptest.assert_allclose(res.singular_values, reference, rtol=0, atol=1e-12)
    assert 0 < res.rho < 1e-7


def test_whiten_checks_the_dependence_index_against_the_spectrum(golden, monkeypatch):
    import dataclasses

    import holdscan.spectral as spectral
    from holdscan.errors import InternalConsistencyError

    report = hs.dependence_index(golden)
    bumped = dataclasses.replace(report, index=report.index * (1 + 1e-6))
    monkeypatch.setattr(spectral, "dependence_index", lambda matrix: bumped)
    with pytest.raises(InternalConsistencyError, match="disagrees with spectrum tail"):
        hs.whiten(golden)


def whitened_cells(matrix):
    """The cells of K and the square-root marginals, derived here from the book."""
    marg = hs.marginals(matrix)
    u, v = np.sqrt(marg.p), np.sqrt(marg.s)
    rows, cols, e = held_cells(matrix)
    return (rows, cols, e / (u[rows] * v[cols])), u, v


def test_spectrum_is_built_on_first_read_and_equals_whitens():
    rng = np.random.default_rng(41)
    for matrix in (random_active(rng, 9, 6), hs.normalize(sparse_active(rng, 40, 30, 0.1))):
        kept = hs.whiten(matrix)
        assert {"singular_values", "rho"} <= set(vars(kept))  # whiten read rho, so built both
        res = hs.SpectralResidual(*whitened_cells(matrix))
        assert "singular_values" not in vars(res) and "rho" not in vars(res)
        rho = res.rho
        assert vars(res)["rho"] is rho and "singular_values" in vars(res)
        sigma = res.singular_values
        assert np.array(sigma).tobytes() == np.array(kept.singular_values).tobytes()
        assert np.float64(rho).tobytes() == np.float64(kept.rho).tobytes()  # bit for bit


def test_two_threads_build_two_spectra_at_once(monkeypatch):
    # functools.cached_property before Python 3.12 locks a property for the whole class
    # while one instance builds it, so the second svd would wait on the first
    barrier, svd = threading.Barrier(2, timeout=10), np.linalg.svd

    def meeting(*args, **kwargs):
        barrier.wait()
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", meeting)
    rng = np.random.default_rng(44)
    books = [random_active(rng, 9, 6), hs.normalize(sparse_active(rng, 40, 30, 0.1))]
    built, errors = [None, None], []

    def build(k):
        try:
            built[k] = hs.whiten(books[k])
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    threads = [threading.Thread(target=build, args=(k,)) for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads) and errors == []
    for res in built:
        nptest.assert_allclose(res.singular_values, svd(res.whitened, compute_uv=False), rtol=0, atol=1e-12)


def test_spectrum_checks_itself_when_read():
    cells, u, v = whitened_cells(random_active(np.random.default_rng(42), 6, 5))
    rows, cols, w = cells
    res = hs.SpectralResidual((rows, cols, 1.5 * w), u, v)  # K no longer tops out at 1
    with pytest.raises(InternalConsistencyError, match="top singular value"):
        res.rho
    assert "rho" not in vars(res)  # a read that raises keeps nothing


def test_whiten_checks_rho_against_its_range(monkeypatch):
    def too_large(res):
        w = res.cells[2]
        return np.sqrt(float(w @ w) - 1.0) * 1.01  # above ||L||_F, so rho^2 exceeds ||L||_F^2

    monkeypatch.setattr(hs.SpectralResidual, "rho", property(too_large))
    with pytest.raises(InternalConsistencyError, match=r"escapes \[0, 1\] or exceeds"):
        hs.whiten(random_active(np.random.default_rng(43), 6, 5))


def block_book(rng, blocks, block):
    """A share matrix of disjoint ``block(rng, n, m)`` blocks down the diagonal."""
    n, m = np.sum(blocks, axis=0)
    raw = np.zeros((n, m))
    i = j = 0
    for bn, bm in blocks:
        raw[i:i + bn, j:j + bm] = block(rng, bn, bm)
        i, j = i + bn, j + bm
    return hs.normalize(raw)


@pytest.mark.parametrize("blocks, block", [
    ([(3, 2), (3, 2), (3, 3)], lambda rng, n, m: rng.random((n, m)) + 1e-3),
    ([(150, 100), (150, 100)], lambda rng, n, m: sparse_active(rng, n, m, 0.1)),
])
def test_disjoint_blocks_repeat_the_top_mode(blocks, block):
    # each block is connected, so K has sigma = 1 once per block (Perron-Frobenius)
    matrix = block_book(np.random.default_rng(44), blocks, block)
    res = hs.whiten(matrix)  # every check holds with a repeated top value
    assert res.rho == pytest.approx(1.0, abs=1e-12)
    sigma = np.array(res.singular_values)
    assert np.count_nonzero(np.abs(sigma - 1.0) <= 1e-12) == len(blocks)
    assert sigma[len(blocks)] < 1.0 - 1e-6


def test_transposing_keeps_the_spectrum():
    rng = np.random.default_rng(45)
    books = [random_active(rng, int(rng.integers(1, 12)), int(rng.integers(1, 12)))
             for _ in range(20)]
    books += [hs.normalize(sparse_active(rng, 60, 40, 0.08)) for _ in range(3)]
    for matrix in books:
        res = hs.whiten(matrix)
        flipped = hs.whiten(hs.OwnershipMatrix(matrix.entries.T))
        nptest.assert_allclose(flipped.singular_values, res.singular_values, rtol=0, atol=1e-12)
        assert flipped.rho == pytest.approx(res.rho, abs=1e-12)
