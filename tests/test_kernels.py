"""Structural properties of the numpy kernels."""

import numpy as np
import pytest

from fermipulse import _kernels


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
