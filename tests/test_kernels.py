"""Structural properties of the numpy kernels."""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from fermipulse import _kernels, oracle


def test_log_factorials_match_gammaln():
    got = _kernels._log_factorials(20_000)
    want = gammaln(np.arange(20_001) + 1.0)
    assert got[0] == 0.0 and got[1] == 0.0
    assert (np.abs(got - want) <= 4.0 * math.ulp(1.0) * want).all()


def test_fc_matrix_matches_loggamma_direct(rng):
    # the corners hold the largest d, where log d! sets the amplitude
    # scale; at x = 0.04 the oracle's prefactor alone underflows for large
    # d, and |<200|D|109>|^2 = 1.6007e-209 (60-digit mpmath) once read 0
    size = 200
    for x in (0.04, 3.0, 90.0, 625.0):
        mat = _kernels.fc_matrix(size, x)
        for n, m in [(size, 0), (0, size), (size, size), (size, 109), *rng.integers(0, size + 1, (20, 2)).tolist()]:
            assert mat[n, m] == pytest.approx(oracle.franck_condon_sq_loggamma(n, m, x), rel=1e-11, abs=1e-250)


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
    # several x in one call, x itself among them twice
    xs = np.array([x, 0.01 * x, x, 3.0 * x])
    batch = _kernels.fc_weighted_sum(weights, size, xs)
    assert batch.shape == xs.shape
    for xi, got in zip(xs.tolist(), batch.tolist()):
        want = float(weights @ _kernels.fc_matrix(size, xi)[rows + diag, rows])
        assert got == pytest.approx(want, rel=1e-12)
        assert got == _kernels.fc_weighted_sum(weights, size, xi)


def test_laguerre_weighted_sum_matches_table(rng):
    w = rng.uniform(0.0, 1.0, 60)
    xs = np.array([0.0, 0.7, 33.0, 0.7, 410.0])
    got = _kernels.laguerre_weighted_sum(w, 2.0, xs)
    assert got.shape == xs.shape
    for x, g in zip(xs.tolist(), got.tolist()):
        table = oracle.laguerre_scaled_table(w.size - 1, 2.0, x)
        assert g == pytest.approx(float(w @ table), rel=1e-12, abs=1e-12 * float(np.abs(w * table).sum()))


def test_batched_kernels_chunk_like_single_calls(rng, monkeypatch):
    # a chunk of one x at a time gives the values of one big chunk
    occupations = rng.uniform(0.0, 1.0, 40)
    size = 30
    weights = rng.uniform(0.0, 1.0, (size + 1) * (size + 2) // 2)
    xs = rng.uniform(0.01, 200.0, 37)
    lag = _kernels.laguerre_weighted_sum(occupations, 2.0, xs)
    fc = _kernels.fc_weighted_sum(weights, size, xs)
    monkeypatch.setattr(_kernels, "CHUNK_DOUBLES", 1)
    assert _kernels.laguerre_weighted_sum(occupations, 2.0, xs).tolist() == lag.tolist()
    assert _kernels.fc_weighted_sum(weights, size, xs).tolist() == fc.tolist()
    assert _kernels.laguerre_weighted_sum(occupations, 2.0, xs[:0]).shape == (0,)
