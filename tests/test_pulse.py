import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.integrate import quad

import fermipulse as fp


class TestPulseModel:
    def test_two_pi_sech(self):
        p = fp.PulseModel.two_pi()
        assert p.peak_rabi == 4.0
        assert p.total_area == pytest.approx(2 * math.pi, rel=1e-15)


class TestPulseArea:
    def test_zero_drive(self):
        assert fp.PulseModel(peak_rabi=0.0).total_area == 0.0

    def test_matches_quadrature(self):
        for peak_rabi in (1.0, 4.0, 7.5):
            p = fp.PulseModel(peak_rabi=peak_rabi)
            want = quad(lambda s: 0.5 * p.peak_rabi / math.cosh(s), -40.0, 40.0, epsabs=0.0, epsrel=1e-10)[0]
            assert p.total_area == pytest.approx(want, rel=1e-8)


class TestSingleAtomSpectra:
    def test_at_zero(self):
        s_coh, s_in = fp.single_atom_spectra(0.0)
        assert s_coh == 0.0
        assert s_in == pytest.approx(4.0 / math.pi, rel=1e-14)

    def test_at_one(self):
        s_coh, s_in = fp.single_atom_spectra(1.0)
        assert s_coh == pytest.approx(math.pi / math.cosh(math.pi / 2) ** 2, rel=1e-14)
        assert s_in == pytest.approx(math.pi / math.sinh(math.pi / 2) ** 2, rel=1e-14)

    @given(varpi=st.floats(-30, 30))
    # pi w^2 / sinh^2 once rounded below s_coh here
    @example(varpi=17.635149791412147)
    def test_even_and_ordered(self, varpi):
        s_coh, s_in = fp.single_atom_spectra(varpi)
        m_coh, m_in = fp.single_atom_spectra(-varpi)
        assert s_coh == m_coh and s_in == m_in
        assert 0.0 <= s_coh <= s_in
        if abs(varpi) <= 10.0:
            # cosh and sinh coincide in double precision beyond |w| ~ 11.5
            assert s_coh < s_in

    def test_taylor_switchover_is_smooth(self):
        # values straddling the small-argument branch agree to ~1e-10
        eps = 2e-4 / math.pi
        below = fp.single_atom_spectra(eps * 0.999)[1]
        above = fp.single_atom_spectra(eps * 1.001)[1]
        assert below == pytest.approx(above, rel=1e-9)

    def test_vectorized(self):
        w = np.array([-1.0, 0.0, 2.5])
        s_coh, s_in = fp.single_atom_spectra(w)
        assert s_coh.shape == (3,)
        assert s_coh[1] == 0.0
        assert s_in[1] == pytest.approx(4.0 / math.pi, rel=1e-14)

    def test_line_integrals(self):
        # quadrature oracle: the incoherent channel carries exactly twice
        # the coherent weight
        ic = quad(lambda w: fp.single_atom_spectra(w)[0], -12, 12, epsabs=0.0, epsrel=1e-9)[0]
        ii = quad(lambda w: fp.single_atom_spectra(w)[1], -12, 12, epsabs=0.0, epsrel=1e-9)[0]
        assert ic == pytest.approx(fp.S_COH_LINE_INTEGRAL, rel=1e-6)
        assert ii == pytest.approx(fp.S_IN_LINE_INTEGRAL, rel=1e-6)
