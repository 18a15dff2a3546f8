import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_genlaguerre, eval_hermite

import fermipulse as fp
from fermipulse import oracle


def overlap_oracle(n, m, dk, r_max=24.0, points=6001):
    """|<n| e^{-i dk R} |m>|^2 by explicit 1D wavefunction quadrature.

    Oscillator units with ground-state width a = 1: psi_n(r) is the Hermite
    function of argument r / sqrt(2).
    """
    r = np.linspace(-r_max, r_max, points)

    def psi(k):
        norm = (2.0 * math.pi) ** -0.25 / math.sqrt(2.0**k * math.factorial(k))
        return norm * eval_hermite(k, r / math.sqrt(2.0)) * np.exp(-(r**2) / 4.0)

    integrand = psi(n) * np.exp(-1j * dk * r) * psi(m)
    val = np.trapezoid(integrand, r)
    return float(abs(val) ** 2)


class TestLaguerreScaled:
    def test_order_zero_is_exponential(self):
        for x in (0.0, 0.5, 7.0, 300.0):
            assert fp.laguerre_scaled(0, 3, x) == pytest.approx(math.exp(-x / 2), rel=1e-15)

    def test_order_one(self):
        assert fp.laguerre_scaled(1, 2, 1.0) == pytest.approx(math.exp(-0.5) * 2.0, rel=1e-14)

    def test_at_origin(self):
        assert fp.laguerre_scaled(2, 0, 0.0) == 1.0
        assert fp.laguerre_scaled(7, 2, 0.0) == pytest.approx(fp.degeneracy(7), rel=1e-14)

    @pytest.mark.parametrize("alpha", [0, 2, 5])
    def test_against_scipy(self, alpha, rng):
        for _ in range(25):
            n = int(rng.integers(0, 40))
            x = float(rng.uniform(0.0, 60.0))
            want = math.exp(-x / 2) * eval_genlaguerre(n, alpha, x)
            assert fp.laguerre_scaled(n, alpha, x) == pytest.approx(want, rel=1e-10, abs=1e-280)

    def test_three_term_recurrence_on_random_triples(self, rng):
        # unscale a common factor e^{-x/2}: the recurrence holds verbatim
        for _ in range(40):
            n = int(rng.integers(1, 300))
            alpha = int(rng.integers(0, 4))
            x = float(rng.uniform(0.0, 400.0))
            tab = fp.laguerre_scaled_table(n + 1, alpha, x)
            lhs = (n + 1) * tab[n + 1]
            rhs = (2 * n + alpha + 1 - x) * tab[n] - (n + alpha) * tab[n - 1]
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-13 * max(abs(tab[n]), 1e-30))

    def test_no_overflow_at_extremes(self):
        v = fp.laguerre_scaled(10_000, 2, 10_000.0)
        assert math.isfinite(v)
        tab = fp.laguerre_scaled_table(2000, 2, 625.0)
        assert np.all(np.isfinite(tab))


class TestFranckCondon:
    def test_vacuum_overlap(self):
        for x in (0.0, 1.3, 20.0):
            assert fp.franck_condon_sq(0, 0, x) == pytest.approx(math.exp(-x), rel=1e-14)

    def test_one_zero(self):
        assert fp.franck_condon_sq(1, 0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-13)

    def test_two_zero(self):
        assert fp.franck_condon_sq(2, 0, 2.0) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-13)

    @pytest.mark.parametrize(
        "n,m,dk", [(1, 0, 1.0), (2, 0, math.sqrt(2.0)), (3, 2, 0.8), (4, 1, 1.7), (0, 0, 2.2)]
    )
    def test_against_wavefunction_overlap(self, n, m, dk):
        want = overlap_oracle(n, m, dk)
        assert fp.franck_condon_sq(n, m, dk * dk) == pytest.approx(want, rel=1e-6, abs=1e-12)

    @given(
        n=st.integers(0, 80),
        m=st.integers(0, 80),
        x=st.floats(0.0, 400.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetric_and_bounded(self, n, m, x):
        v = fp.franck_condon_sq(n, m, x)
        assert 0.0 <= v <= 1.0 + 1e-12
        assert v == fp.franck_condon_sq(m, n, x)

    def test_diagonal_matches_scaled_laguerre(self, rng):
        for _ in range(20):
            n = int(rng.integers(0, 60))
            x = float(rng.uniform(0.0, 100.0))
            want = fp.laguerre_scaled(n, 0, x) ** 2
            assert fp.franck_condon_sq(n, n, x) == pytest.approx(want, rel=1e-11, abs=1e-280)

    def test_recurrence_vs_loggamma_direct(self, rng):
        for _ in range(60):
            n = int(rng.integers(0, 250))
            m = int(rng.integers(0, 250))
            x = float(rng.uniform(0.0, 625.0))
            a = fp.franck_condon_sq(n, m, x)
            b = fp.franck_condon_sq_loggamma(n, m, x)
            assert a == pytest.approx(b, rel=1e-8, abs=1e-250)

    def test_matrix_matches_scalar(self, rng):
        for x in (0.0, 0.7, 19.0, 310.0):
            mat = fp.fc_matrix(25, x)
            for _ in range(15):
                n = int(rng.integers(0, 26))
                m = int(rng.integers(0, 26))
                assert mat[n, m] == pytest.approx(
                    fp.franck_condon_sq(n, m, x), rel=1e-12, abs=1e-280
                )

    def test_unitarity_row_sums(self):
        for n in (0, 7, 25, 50):
            for x in (0.3, 5.0, 50.0):
                assert oracle.franck_condon_row_sum(n, x) == pytest.approx(1.0, abs=1e-8)

    def test_unsettled_row_sum_raises(self, monkeypatch):
        # a row that grows with the cutoff never settles: its last sum is not a row sum
        monkeypatch.setattr(oracle, "fc_matrix", lambda size, x: np.full((size + 1, size + 1), 1e-3))
        with pytest.raises(RuntimeError, match=r"n=3 at x=0\.5 did not settle: last two sums"):
            oracle.franck_condon_row_sum(3, 0.5)


class TestAdditionTheorem:
    def test_trivial_order_zero(self):
        # both sides are e^{-X/2}, up to rounding of exp products
        assert fp.laguerre_addition_check(0, (0.4, 1.1, 9.0)) < 1e-14

    def test_order_one_by_hand(self):
        # lhs = sum of L_1(x_i) = 3 - (x1+x2+x3) = L_1^{(2)}(x1+x2+x3)
        assert fp.laguerre_addition_check(1, (0.3, 2.0, 5.5)) < 1e-14

    def test_random_arguments_up_to_order_thirty(self, rng):
        for _ in range(15):
            xs = rng.uniform(0.0, 20.0, 3)
            n = int(rng.integers(2, 31))
            assert fp.laguerre_addition_check(n, tuple(xs)) < 1e-10
