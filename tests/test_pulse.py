import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fermipulse as fp
from fermipulse.quadrature import adaptive_simpson


class TestPulseModel:
    def test_two_pi_sech(self):
        p = fp.PulseModel.two_pi()
        assert p.peak_rabi == 4.0
        assert p.total_area == pytest.approx(2 * math.pi, rel=1e-15)
        assert p.is_two_pi_multiple()

    def test_two_pi_gaussian(self):
        p = fp.PulseModel.two_pi(shape=fp.PulseShape.GAUSSIAN)
        assert p.total_area == pytest.approx(2 * math.pi, rel=1e-14)

    def test_multiple_k(self):
        p = fp.PulseModel.two_pi(k=3)
        assert p.total_area == pytest.approx(6 * math.pi, rel=1e-15)

    def test_inconsistent_area_rejected(self):
        with pytest.raises(ValueError):
            fp.PulseModel(fp.PulseShape.SECH, peak_rabi=4.0, total_area=1.0)


class TestPulseArea:
    def test_full_area_sech(self):
        p = fp.PulseModel.two_pi()
        assert fp.pulse_area(p, math.inf) == pytest.approx(2 * math.pi, rel=1e-15)

    def test_half_area_at_peak(self):
        p = fp.PulseModel.two_pi()
        assert fp.pulse_area(p, 0.0) == pytest.approx(math.pi, rel=1e-15)

    def test_zero_drive(self):
        for shape in fp.PulseShape:
            p = fp.PulseModel(shape, peak_rabi=0.0)
            assert fp.pulse_area(p, 0.0) == 0.0
            assert fp.pulse_area(p, math.inf) == 0.0

    def test_matches_quadrature(self):
        p = fp.PulseModel.two_pi()
        for t in (-2.0, 0.0, 1.5):
            want = adaptive_simpson(
                lambda s: 0.5 * p.peak_rabi / np.cosh(s), -40.0, t, rel_tol=1e-10
            )
            assert fp.pulse_area(p, t) == pytest.approx(want, rel=1e-8)

    def test_gaussian_area_quadrature(self):
        p = fp.PulseModel.two_pi(shape=fp.PulseShape.GAUSSIAN)
        want = adaptive_simpson(
            lambda s: 0.5 * p.peak_rabi * np.exp(-s * s), -10.0, 1.0, rel_tol=1e-10
        )
        assert fp.pulse_area(p, 1.0) == pytest.approx(want, rel=1e-8)


class TestRabiEvolve:
    def test_two_pi_returns_state(self):
        g, f = fp.rabi_evolve(0.3 + 0.4j, 0.1 - 0.2j, 2 * math.pi)
        assert g == pytest.approx(0.3 + 0.4j, abs=1e-14)
        assert f == pytest.approx(0.1 - 0.2j, abs=1e-14)

    def test_pi_pulse_sign_flip(self):
        g, f = fp.rabi_evolve(0.7, 0.0, math.pi)
        assert g == pytest.approx(-0.7, abs=1e-14)
        assert abs(f) < 1e-14

    def test_half_pi_transfer(self):
        g, f = fp.rabi_evolve(1.0, 0.0, math.pi / 2)
        assert abs(g) < 1e-14
        assert f == pytest.approx(-1j, abs=1e-14)

    @given(
        gr=st.floats(-1, 1), gi=st.floats(-1, 1),
        fr=st.floats(-1, 1), fi=st.floats(-1, 1),
        area=st.floats(0, 50),
    )
    def test_unitary(self, gr, gi, fr, fi, area):
        g0, f0 = complex(gr, gi), complex(fr, fi)
        g, f = fp.rabi_evolve(g0, f0, area)
        assert abs(g) ** 2 + abs(f) ** 2 == pytest.approx(
            abs(g0) ** 2 + abs(f0) ** 2, rel=1e-12, abs=1e-12
        )


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
        ic = adaptive_simpson(lambda w: fp.single_atom_spectra(w)[0], -12, 12, rel_tol=1e-9)
        ii = adaptive_simpson(lambda w: fp.single_atom_spectra(w)[1], -12, 12, rel_tol=1e-9)
        assert ic == pytest.approx(fp.S_COH_LINE_INTEGRAL, rel=1e-6)
        assert ii == pytest.approx(fp.S_IN_LINE_INTEGRAL, rel=1e-6)
