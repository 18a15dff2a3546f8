"""The jit kernels and their numpy fallbacks must agree to round-off."""

import numpy as np
import pytest

from fermipulse import _kernels


needs_numba = pytest.mark.skipif(not _kernels.USING_NUMBA, reason="numba path disabled")


@needs_numba
@pytest.mark.parametrize("alpha", [0.0, 2.0])
@pytest.mark.parametrize("x", [0.0, 0.4, 17.0, 312.0])
def test_laguerre_table_paths_agree(alpha, x):
    a = _kernels.JIT_IMPLS["laguerre_scaled_table"](200, alpha, x)
    b = _kernels.NUMPY_IMPLS["laguerre_scaled_table"](200, alpha, x)
    np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-300)


@needs_numba
def test_weighted_sum_paths_agree(rng):
    w = rng.uniform(0.0, 1.0, 400)
    for x in (0.0, 3.0, 99.0):
        a = _kernels.JIT_IMPLS["laguerre_weighted_sum"](w, 2.0, x)
        b = _kernels.NUMPY_IMPLS["laguerre_weighted_sum"](w, 2.0, x)
        assert a == pytest.approx(b, rel=1e-12)


@needs_numba
@pytest.mark.parametrize("x", [0.0, 0.9, 40.0, 544.0])
def test_fc_matrix_paths_agree(x):
    a = _kernels.JIT_IMPLS["fc_matrix"](60, x)
    b = _kernels.NUMPY_IMPLS["fc_matrix"](60, x)
    np.testing.assert_allclose(a, b, rtol=1e-11, atol=1e-300)


@needs_numba
def test_quad_sum_paths_agree(rng):
    s = 12
    p2 = rng.uniform(0.0, 1.0, (s + 1, s + 1))
    p2 = p2 + p2.T
    mx = rng.uniform(0.0, 1.0, (s + 1, s + 1))
    mz = rng.uniform(0.0, 1.0, (s + 1, s + 1))
    a = _kernels.JIT_IMPLS["quad_sum"](p2, mx, mz)
    b = _kernels.NUMPY_IMPLS["quad_sum"](p2, mx, mz)
    assert a == pytest.approx(b, rel=1e-12)


def test_fc_matrix_rows_are_probabilities():
    m = _kernels.fc_matrix(80, 25.0)
    assert m.min() >= 0.0
    assert m.max() <= 1.0 + 1e-12
    np.testing.assert_allclose(m, m.T, rtol=0, atol=0)


def test_fc_matrix_identity_at_zero_transfer():
    m = _kernels.fc_matrix(30, 0.0)
    np.testing.assert_allclose(m, np.eye(31), atol=1e-300)


@pytest.mark.parametrize("x", [0.3, 40.0, 544.0])
def test_fc_weighted_sum_matches_matrix(rng, x):
    size = 50
    m, n = np.tril_indices(size + 1)  # n <= m: row n, diagonal d = m - n
    order = np.lexsort((m - n, n))
    rows, diag = n[order], (m - n)[order]
    weights = rng.uniform(0.0, 1.0, rows.shape[0])
    want = float(weights @ _kernels.fc_matrix(size, x)[rows + diag, rows])
    assert _kernels.fc_weighted_sum(weights, size, x) == pytest.approx(want, rel=1e-12)
