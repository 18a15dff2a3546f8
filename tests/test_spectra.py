import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy.integrate import quad, quad_vec

import fermipulse as fp
from fermipulse import _kernels
from fermipulse.spectra import THETA_WEIGHT_TOTAL, resolve_mode


class TestDifferential:
    def test_resonance_point_is_temperature_free(self, trap, state_cache):
        for f in (0.01, 0.7):
            st = state_cache(1000, f * fp.fermi_energy(1000))
            c_coh, c_in = fp.differential(st, trap, 0.3, 0.0)
            assert c_coh == 0.0
            assert c_in == 1000 * (4.0 / math.pi)

    def test_forward_coherent_peak(self, trap, state_cache):
        st = state_cache(1000, 0.05 * fp.fermi_energy(1000))
        varpi = 1e-3
        c_coh, _ = fp.differential(st, trap, 0.0, varpi)
        s_coh, _ = fp.single_atom_spectra(varpi)
        assert c_coh / s_coh == pytest.approx(1000.0**2, rel=1e-6)

    def test_backscatter_insensitive_to_temperature(self, trap, state_cache):
        vals = []
        for f in (0.0016, 1.36):
            st = state_cache(10**4, f * fp.fermi_energy(10**4))
            vals.append(fp.differential(st, trap, math.radians(150.0), 0.7)[1])
        assert vals[0] == pytest.approx(vals[1], rel=1e-2)

    def test_incoherent_floor(self, trap, state_cache):
        st = state_cache(100, 1.0)
        for varpi in (-2.0, 0.4, 5.0):
            _, c_in = fp.differential(st, trap, 1.0, varpi)
            _, s_in = fp.single_atom_spectra(varpi)
            assert c_in >= 100 * s_in * (1 - 1e-12)

    def test_nonnegative(self, trap, state_cache, rng):
        st = state_cache(100, 2.0)
        for _ in range(10):
            theta = float(rng.uniform(0.0, math.pi))
            varpi = float(rng.uniform(-6.0, 6.0))
            c_coh, c_in = fp.differential(st, trap, theta, varpi)
            assert c_coh >= 0.0 and c_in >= 0.0

    def test_cells_equal_pointwise_differential(self, trap, state_cache):
        st = state_cache(100, 1.0)
        thetas = np.linspace(0.0, math.pi, 5)
        varpis = np.linspace(-3.0, 3.0, 7)
        coherent, incoherent = fp.differential(st, trap, thetas[:, None], varpis[None, :])
        assert coherent.shape == incoherent.shape == (5, 7)
        for i, theta in enumerate(thetas):
            for j, varpi in enumerate(varpis):
                c, s = fp.differential(st, trap, float(theta), float(varpi))
                assert coherent[i, j] == c
                assert incoherent[i, j] == s


class TestAngularDistribution:
    def test_vanishes_at_poles(self, trap, state_cache):
        st = state_cache(100, 1.0)
        dc, di = fp.angular_distribution(st, trap, 0.0)
        assert dc == 0.0 and di == 0.0
        # float sin(pi) is ~1e-16, so the weight at the pole is round-off
        mid = fp.angular_distribution(st, trap, math.pi / 2)[1]
        dc, di = fp.angular_distribution(st, trap, math.pi)
        assert abs(di) < 1e-14 * mid
        assert abs(dc) < 1e-14 * mid

    def test_mirror_symmetry(self, trap, state_cache):
        st = state_cache(100, 1.0)
        a = fp.angular_distribution(st, trap, 0.7)
        b = fp.angular_distribution(st, trap, -0.7)
        assert a == b

    def test_single_atom_is_dipole_weight(self, trap):
        # one atom: the form-function deficit cancels against the coherent
        # channel, leaving the pure azimuth-integrated dipole pattern
        st = fp.solve_fugacity(1, 0.05)
        norm = fp.photon_norm(trap)
        for theta in (0.4, 1.2, 2.8):
            dc, di = fp.angular_distribution(st, trap, theta)
            want_total = norm * fp.angular_weight(theta) * (
                fp.S_COH_LINE_INTEGRAL + fp.S_IN_LINE_INTEGRAL
            )
            assert dc + di == pytest.approx(want_total, rel=1e-9)

    def test_frozen_matches_full(self, trap, state_cache):
        st = state_cache(1000, 1.36 * fp.fermi_energy(1000))
        for theta in (0.05, 0.6, 2.0):
            frozen = fp.angular_distribution(st, trap, theta, fp.AngularMode.FROZEN)
            full = fp.angular_distribution(st, trap, theta, fp.AngularMode.FULL)
            assert frozen[0] == pytest.approx(full[0], rel=1e-3, abs=1e-300)
            assert frozen[1] == pytest.approx(full[1], rel=1e-3)

    def test_incoherent_floor(self, trap, state_cache):
        st = state_cache(1000, 0.1 * fp.fermi_energy(1000))
        norm = fp.photon_norm(trap)
        for theta in np.linspace(0.05, math.pi - 0.05, 9):
            _, di = fp.angular_distribution(st, trap, float(theta))
            floor = norm * fp.angular_weight(float(theta)) * 1000 * fp.S_IN_LINE_INTEGRAL
            assert di >= floor * (1 - 1e-9)

    def test_first_incoherent_peak_drops_on_cooling(self, trap, state_cache):
        # the form-function deficit grows as the gas degenerates, lowering
        # the first dipole peak near theta ~ 0.96; the effect needs large
        # atom numbers to be visible over the N * s_in floor
        n_atoms = 10**6
        peaks = []
        for f in (1.0, 0.001):
            st = state_cache(n_atoms, f * fp.fermi_energy(n_atoms))
            vals = [
                fp.angular_distribution(st, trap, t)[1] for t in (0.90, 0.96, 1.02)
            ]
            peaks.append(max(vals))
        assert peaks[0] > peaks[1] * 1.02


    @pytest.mark.parametrize("mode", [fp.AngularMode.FROZEN, fp.AngularMode.FULL])
    def test_array_of_angles_equals_point_calls(self, trap, state_cache, mode):
        st = state_cache(100, 1.0)
        thetas = np.array([[0.0, 0.7], [2.0, 0.7]])
        d_coh, d_in = fp.angular_distribution(st, trap, thetas, mode)
        assert d_coh.shape == d_in.shape == thetas.shape
        for t, dc, di in zip(thetas.ravel().tolist(), d_coh.ravel().tolist(), d_in.ravel().tolist()):
            assert (dc, di) == fp.angular_distribution(st, trap, t, mode)

    def test_known_full_mode_failure_is_cheap(self, trap, state_cache, monkeypatch):
        # Fermi-Dirac, 10^4 atoms, 1.0 E_F, 40 degrees: the coherent power
        # series once stopped each x on its own relative rule and returned
        # cancellation noise where F2_coh underflows, and the detuning
        # quadrature then refined to its depth limit.  Cut once at eps of
        # the peak, the series' tail is round-off of one sign (the square
        # of the amplitude); the detuning rule's first two levels, h = 0.2
        # and 0.1, agree on it (the node varpi = 0 carries no weight)
        counts = counting_forms(monkeypatch)
        st = state_cache(10**4, 1.0 * fp.fermi_energy(10**4))
        d_coh, d_in = fp.angular_distribution(st, trap, math.radians(40.0), fp.AngularMode.FULL)
        assert all(math.isfinite(v) and v >= 0.0 for v in (d_coh, d_in))
        assert counts == {"coh": [2, 240], "inc": [2, 240]}


def varpi_reference(state, trap, theta, incoherent):
    """int s_coh(varpi) F2(theta, varpi) dvarpi over the detuning window
    by scipy's quad, in pieces split at the line shapes' zero and peaks."""
    form = fp.incoherent_form if incoherent else fp.coherent_form

    def f(varpi):
        return fp.single_atom_spectra(varpi)[0] * form(state, fp.kinematics(trap, theta, varpi))

    edges = [-12.0, -4.0, -1.5, 0.0, 1.5, 4.0, 12.0]
    return sum(quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0] for a, b in zip(edges, edges[1:]))


class TestWideBand:
    """Full-mode angular densities at theta = 0.05 on wide bands, where the
    transfer drifts across the line: adaptive Simpson over varpi raised
    QuadratureFailure at all five; the trapezoid rule meets scipy's quad."""

    @pytest.mark.parametrize(
        "n_atoms, t_over_ef, statistics, gamma_ratio",
        [
            (10**4, 1.0, "mb", 0.05),
            (10**4, 1.0, "mb", 0.08),
            (10**4, 1.0, "fd", 0.05),
            (10**4, 1.0, "fd", 0.08),
            (10**6, 0.5, "fd", 0.08),
        ],
    )
    def test_matches_quad(self, state_cache, n_atoms, t_over_ef, statistics, gamma_ratio):
        trap = fp.TrapModel(gamma_ratio=gamma_ratio)
        st = state_cache(n_atoms, t_over_ef * fp.fermi_energy(n_atoms), fp.Statistics.parse(statistics))
        d_coh, d_in = fp.angular_distribution(st, trap, 0.05, fp.AngularMode.FULL)
        norm_w = fp.photon_norm(trap) * fp.angular_weight(0.05)
        want_coh = norm_w * varpi_reference(st, trap, 0.05, False)
        lines = fp.S_COH_LINE_INTEGRAL + fp.S_IN_LINE_INTEGRAL
        want_in = norm_w * (n_atoms * lines - varpi_reference(st, trap, 0.05, True))
        assert d_coh == pytest.approx(want_coh, rel=1e-10)
        assert d_in == pytest.approx(want_in, rel=1e-10)


class TestCoherentCone:
    @staticmethod
    def half_width(state, trap):
        peak = fp.coherent_form(state, 0.0)

        def drop(theta):
            return fp.coherent_form(state, fp.kinematics(trap, theta, 0.0)) - 0.5 * peak

        lo, hi = 1e-5, 0.8
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if drop(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def test_half_width_ordering_across_temperatures(self, trap, state_cache):
        widths = [
            self.half_width(state_cache(10**4, f * fp.fermi_energy(10**4)), trap)
            for f in (1.0, 0.5, 0.001)
        ]
        assert widths[0] < widths[1] < widths[2]
        assert widths[2] < 0.8  # finite cone even at deep degeneracy


class TestFrequencyDistribution:
    def test_coherent_dip_at_resonance(self, trap, state_cache):
        st = state_cache(100, 1.0)
        dc, _ = fp.frequency_distribution(st, trap, 0.0)
        assert dc == 0.0

    def test_resonance_value_closed_form(self, trap, state_cache):
        st = state_cache(100, 1.0)
        _, di = fp.frequency_distribution(st, trap, 0.0)
        want = fp.photon_norm(trap) * 100 * (4.0 / math.pi) * THETA_WEIGHT_TOTAL
        assert di == pytest.approx(want, rel=1e-14)

    def test_even_when_bandwidth_vanishes(self, state_cache):
        trap = fp.TrapModel(gamma_ratio=1e-12)
        st = state_cache(100, 1.0)
        for varpi in (0.5, 2.0):
            a = fp.frequency_distribution(st, trap, varpi)
            b = fp.frequency_distribution(st, trap, -varpi)
            assert a[0] == pytest.approx(b[0], rel=1e-9)
            assert a[1] == pytest.approx(b[1], rel=1e-9)

    def test_frozen_integrals_reproduce_full(self, trap, state_cache):
        st = state_cache(1000, 1.36 * fp.fermi_energy(1000))
        for varpi in (0.3, 1.5):
            fast = fp.frequency_distribution(st, trap, varpi, mode=fp.AngularMode.FROZEN)
            full = fp.frequency_distribution(st, trap, varpi)
            assert fast[0] == pytest.approx(full[0], rel=1e-3)
            assert fast[1] == pytest.approx(full[1], rel=1e-3)

    def test_failing_angular_integral_names_its_detuning(self, trap, state_cache, monkeypatch):
        from fermipulse import spectra

        transfer = spectra._transfer

        def shifted(trap, varpis):
            # move the transfers of varpi = 1.5 above 1e4, out of reach of
            # the other rows
            x0, span = transfer(trap, varpis)
            return np.where(varpis == 1.5, x0 + 1e4, x0), span

        def noisy_at_one_detuning(state, x, *rest):
            # digits of x: noise on every scale, so the levels never agree
            return np.where(x > 1e4, np.modf(x * 1e11)[0], 1.0)

        monkeypatch.setattr(spectra, "_transfer", shifted)
        monkeypatch.setattr(spectra, "coherent_form", noisy_at_one_detuning)
        with pytest.raises(fp.QuadratureFailure, match=r"theta integral at varpi=1\.5: row 1 unresolved") as info:
            fp.frequency_distribution(state_cache(100, 1.0), trap, np.array([-1.0, 1.5, 2.0]), method="laguerre")
        assert info.value.row == 1

    def test_failing_detuning_integral_names_its_angle(self, trap, state_cache, monkeypatch):
        from fermipulse import spectra

        def noisy_at_one_angle(state, x, *rest):
            # across the detuning window the transfers of theta = 0.7 stay
            # within 0.04 of their value at varpi = 0, far from theta = 2's
            return np.where(np.abs(x - fp.kinematics(trap, 0.7, 0.0)) < 1.0, np.modf(x * 1e11)[0], 1.0)

        monkeypatch.setattr(spectra, "coherent_form", noisy_at_one_angle)
        with pytest.raises(fp.QuadratureFailure, match=r"varpi integral at theta=0\.7: row 1 unresolved") as info:
            fp.angular_distribution(state_cache(100, 1.0), trap, np.array([2.0, 0.7, 0.7]), fp.AngularMode.FULL)
        assert info.value.row == 1

    @pytest.mark.parametrize("mode", [fp.AngularMode.FROZEN, fp.AngularMode.FULL])
    def test_array_of_detunings_equals_point_calls(self, trap, state_cache, mode):
        st = state_cache(100, 1.0)
        varpis = np.array([[0.0, 0.8], [-2.0, 0.8]])
        d_coh, d_in = fp.frequency_distribution(st, trap, varpis, mode=mode)
        assert d_coh.shape == d_in.shape == varpis.shape
        for v, dc, di in zip(varpis.ravel().tolist(), d_coh.ravel().tolist(), d_in.ravel().tolist()):
            assert (dc, di) == fp.frequency_distribution(st, trap, v, mode=mode)


class TestTotalPhotons:
    def test_single_atom_closed_chain(self, trap, pulse):
        st = fp.solve_fugacity(1, 1.0)
        nc, ni = fp.total_photons(st, trap, pulse)
        want = (4.0 / math.pi) * trap.natural_width_ratio
        assert nc + ni == pytest.approx(want, rel=1e-3)

    def test_single_atom_full_mode(self, trap, pulse):
        st = fp.solve_fugacity(1, 1.0)
        nc, ni = fp.total_photons(st, trap, pulse, mode=fp.AngularMode.FULL)
        want = (4.0 / math.pi) * trap.natural_width_ratio
        assert nc + ni == pytest.approx(want, rel=1e-3)

    def test_requires_two_pi_sech(self, trap, state_cache):
        st = state_cache(100, 1.0)
        with pytest.raises(ValueError):
            fp.total_photons(st, trap, fp.PulseModel(peak_rabi=2.0))

    def test_coherent_scales_as_n_squared_dilute(self, trap, pulse):
        # forward-cone coherent photons quadruple when N doubles at fixed tau
        out = {}
        for n in (500, 1000):
            st = fp.solve_fugacity(n, 30.0)
            out[n] = fp.total_photons(st, trap, pulse)
        assert out[1000][0] / out[500][0] == pytest.approx(4.0, rel=0.05)
        assert out[1000][1] / out[500][1] == pytest.approx(2.0, rel=0.05)


def counting_forms(monkeypatch):
    """Count the calls and points of spectra's two form functions."""
    from fermipulse import spectra

    counts = {"coh": [0, 0], "inc": [0, 0]}

    def counting(channel, form):
        def wrapped(state, x, *rest):
            counts[channel][0] += 1
            counts[channel][1] += np.size(x)
            return form(state, x, *rest)

        return wrapped

    monkeypatch.setattr(spectra, "coherent_form", counting("coh", spectra.coherent_form))
    monkeypatch.setattr(spectra, "incoherent_form", counting("inc", spectra.incoherent_form))
    return counts


class TestFullModePins:
    """FD, 300 atoms, 3.0 E_F, default trap, full mode: the power series.

    The angular integrals are closed forms in the series' terms, and the
    auto cross-check compares their moments, so no call evaluates a form
    function.  The values were re-recorded when the closed forms replaced
    the angular quadrature, which moved them by at most 1e-7 relative,
    when the series was cut once at eps of each channel's peak, by at
    most 3.2e-15, and when the trapezoid rule replaced adaptive Simpson
    over varpi: N_coh moved by 7.5e-8 relative, to within one ulp of
    scipy's quad, and N_in by 3.4e-12; d_in moved by one ulp, with s_in
    formed as s_coh / tanh^2.  The Newton fugacity solve moved log z by
    8.6e-13, and N_coh and d_coh by 1.7e-12 relative.
    """

    @pytest.fixture
    def state(self, state_cache):
        return state_cache(300, 3.0 * fp.fermi_energy(300))

    @pytest.fixture
    def counts(self, monkeypatch):
        return counting_forms(monkeypatch)

    def test_total(self, trap, pulse, state, counts):
        got = fp.total_photons(state, trap, pulse, mode=fp.AngularMode.FULL)
        assert got == (0.0002179980378528107, 0.0599973908763802)
        assert counts == {"coh": [0, 0], "inc": [0, 0]}

    def test_frequency_distribution(self, trap, state, counts):
        d_coh, d_in = fp.frequency_distribution(state, trap, np.linspace(-6.0, 6.0, 25))
        assert (d_coh[3], d_in[3]) == (3.015680211461373e-08, 5.533930648622096e-06)
        assert counts == {"coh": [0, 0], "inc": [0, 0]}


class TestTablePathRefinement:
    """A forced table method integrates the angles by one nested family
    of the angular rule over all detunings; each row must equal the call
    for its detuning alone bit for bit.  The pinned values moved by
    1.5e-10 and 2.2e-11 relative when Clenshaw-Curtis in s replaced
    adaptive Simpson, and by 6.4e-13 and 9.8e-16 when the Newton fugacity
    solve moved log z by 3.9e-13."""

    def test_rows_equal_single_detunings(self, trap, state_cache, monkeypatch):
        st = state_cache(300, 0.5 * fp.fermi_energy(300))
        varpis = np.array([-6.0, -0.7, 0.0, 0.7, 3.3])
        counts = counting_forms(monkeypatch)
        d_coh, d_in = fp.frequency_distribution(st, trap, varpis, method="laguerre")
        assert counts["coh"][0] > 1 and counts["inc"][0] > 1
        assert (d_coh[1], d_in[1]) == (0.00048440406326969853, 0.02122134234669461)
        for v, c, i in zip(varpis.tolist(), d_coh.tolist(), d_in.tolist()):
            assert (c, i) == fp.frequency_distribution(st, trap, v, method="laguerre")


# the pieces in s = sin(theta / 2) of theta_reference: halving towards the
# forward cone, down to the width 1e-4 of the narrowest cone in these tests
S_PIECES = [0.0, *(2.0**-k for k in range(14, 0, -1)), 1.0]


def theta_reference(state, trap, varpis, incoherent, method, epsrel=1e-10):
    """The angular integrals by scipy's quad_vec on form-function values,
    one component per detuning, in pieces in s: int 4 pi (1 + (1 -
    2 s^2)^2) F(x(theta, varpi)) s ds, cos theta = 1 - 2 s^2."""
    form = fp.incoherent_form if incoherent else fp.coherent_form
    varpis = np.asarray(varpis, dtype=np.float64)

    def f(s):
        x = fp.kinematics(trap, 2.0 * math.asin(s), varpis)
        return 4.0 * math.pi * (1.0 + (1.0 - 2.0 * s * s) ** 2) * s * form(state, x, method, 1e-8)

    value, _ = quad_vec(f, 0.0, 1.0, epsabs=0.0, epsrel=epsrel, norm="max", limit=1000, points=S_PIECES[1:-1])
    return value


class TestClosedFormAngles:
    """The angular integrals on the node paths are closed forms
    (spectra._closed_rows): checked against the quadrature, counted, and
    routed back to it where their round-off bound fails."""

    VARPIS = np.array([0.0, 0.7, -0.7, -3.3, 6.0])

    @pytest.mark.parametrize(
        "n_atoms, t_over_ef, statistics, method, path",
        [
            (300, 0.01, "mb", "auto", "closed-form-mb"),
            (300, 1.0, "fd", "auto", "power-series"),
            (300, 3.0, "fd", "power-series", "power-series"),
            (300, 0.5, "fd", "auto", "exp-sum"),
            (10**4, 0.3, "fd", "auto", "exp-sum"),
            (10**4, 1.0, "fd", "power-series", "power-series"),
            (10**4, 3.0, "mb", "closed-form-mb", "closed-form-mb"),
            (3 * 10**4, 0.5, "fd", "auto", "exp-sum"),
            (3 * 10**4, 1.0, "fd", "auto", "power-series"),
            (3 * 10**4, 0.1, "mb", "power-series", "closed-form-mb"),
            (10**6, 0.3, "fd", "auto", "exp-sum"),
            (10**6, 3.0, "fd", "auto", "power-series"),
            (10**6, 1.0, "mb", "auto", "closed-form-mb"),
        ],
    )
    def test_matches_quadrature(self, trap, state_cache, n_atoms, t_over_ef, statistics, method, path):
        from fermipulse.formfunc import describe_methods
        from fermipulse.spectra import _theta_rows

        st = state_cache(n_atoms, t_over_ef * fp.fermi_energy(n_atoms), fp.Statistics.parse(statistics))
        described = describe_methods(st, method)
        assert described["coh_method"] == described["inc_method"] == path
        for incoherent in (False, True):
            got = _theta_rows(incoherent, st, trap, method, 1e-8, self.VARPIS)
            want = theta_reference(st, trap, self.VARPIS, incoherent, method)
            assert np.abs(got - want).max() <= 5e-8 * np.abs(want).max()

    @pytest.mark.parametrize("statistics", ["fd", "mb"])
    def test_frozen_calls_no_form(self, trap, pulse, state_cache, monkeypatch, statistics):
        st = state_cache(10**4, 1.0 * fp.fermi_energy(10**4), fp.Statistics.parse(statistics))
        counts = counting_forms(monkeypatch)
        fp.total_photons(st, trap, pulse, mode=fp.AngularMode.FROZEN)
        fp.theta_integrals(st, trap)
        assert counts == {"coh": [0, 0], "inc": [0, 0]}

    def test_frozen_cross_check_builds_no_contraction_table(self, trap, pulse):
        # the cross-check compares moments, which need no weight table;
        # the contraction at this state would build the n_eff = 1570 one
        st = fp.solve_fugacity(3 * 10**4, 1.0 * fp.fermi_energy(3 * 10**4))
        fp.total_photons(st, trap, pulse, mode=fp.AngularMode.FROZEN)
        assert {("auto_checked_coh", 1e-6), ("auto_checked_inc", 1e-6)} <= set(st._cache)
        assert not any(isinstance(k, tuple) and k[0] == "weight_diagonals" for k in st._cache)

    def test_auto_check_runs_no_table_sum(self, trap, monkeypatch):
        # on fresh states: a full-mode angular distribution at 10^4 atoms
        # and a coherent form at x > 0 at 10^6 atoms run the auto check
        # without a Laguerre sum, a contraction or a weight table
        calls = []
        for name in ("fc_weighted_sum", "laguerre_weighted_sum"):
            monkeypatch.setattr(_kernels, name, lambda *args, name=name: calls.append(name))
        st = fp.solve_fugacity(10**4, 1.0 * fp.fermi_energy(10**4))
        fp.angular_distribution(st, trap, 0.3, mode=fp.AngularMode.FULL)
        big = fp.solve_fugacity(10**6, 1.0 * fp.fermi_energy(10**6))
        assert fp.coherent_form(big, 1e-3) > 0.0
        assert calls == []
        assert {("auto_checked_coh", 1e-6), ("auto_checked_inc", 1e-6)} <= set(st._cache)
        assert ("auto_checked_coh", 1e-6) in big._cache
        for s in (st, big):
            assert not any(isinstance(k, tuple) and k[0] == "weight_diagonals" for k in s._cache)

    def test_no_live_detuning_needs_no_form(self, trap, state_cache, monkeypatch):
        st = state_cache(10**4, 1.0 * fp.fermi_energy(10**4))
        counts = counting_forms(monkeypatch)
        d_coh, d_in = fp.frequency_distribution(st, trap, np.array([0.0, 0.0]))
        want = fp.photon_norm(trap) * 10**4 * (4.0 / math.pi) * THETA_WEIGHT_TOTAL
        assert d_coh.tolist() == [0.0, 0.0]
        assert d_in[0] == d_in[1] == pytest.approx(want, rel=1e-14)
        assert counts == {"coh": [0, 0], "inc": [0, 0]}

    def test_cold_table_path_matches_quad(self, trap, state_cache):
        # FD, 10^4 atoms, 0.001 E_F: the Laguerre sum under auto, the
        # coherent cone narrowest; adaptive Simpson missed its own
        # tolerance here by 2.0e-6 relative
        from fermipulse.formfunc import describe_methods
        from fermipulse.spectra import _theta_rows

        st = state_cache(10**4, 0.001 * fp.fermi_energy(10**4))
        assert describe_methods(st, "auto")["coh_method"] == "laguerre"
        (got,) = _theta_rows(False, st, trap, "auto", 1e-8, np.array([0.5]))
        assert got == pytest.approx(theta_reference(st, trap, [0.5], False, "auto", epsrel=1e-13)[0], rel=1e-10)

    def test_uncertified_row_takes_quadrature(self, state_cache, monkeypatch):
        # a wide band: at varpi = -6 the coherent transfer starts at
        # x0 = (0.48 kla)^2, where the alternating series' terms exceed
        # the value, ~1e-63 of the peak, by far more than 1/eps
        from fermipulse import spectra

        trap = fp.TrapModel(gamma_ratio=0.08)
        st = state_cache(300, 1.12 * fp.fermi_energy(300))
        varpis = np.array([-6.0, 0.5])
        rows = []
        real = spectra.nested
        monkeypatch.setattr(spectra, "nested", lambda f, levels, n, tol: rows.append(n) or real(f, levels, n, tol))
        got = spectra._theta_rows(False, st, trap, "auto", 1e-8, varpis)
        assert rows == [1]
        # that row is the one-row angular rule on form values, bit for bit
        x0, span = spectra._transfer(trap, np.array([-6.0]))

        def f(rows, s):
            return fp.coherent_form(st, x0 + span * (s * s), "auto", 1e-8)

        alone = real(f, spectra._theta_rule(), 1, spectra.QUAD_REL_TOL)
        assert got[0] == alone[0]
        assert got[0] == pytest.approx(theta_reference(st, trap, varpis[:1], False, "auto", epsrel=1e-13)[0], rel=1e-10)
        assert got[1] == pytest.approx(theta_reference(st, trap, varpis[1:], False, "auto")[0], rel=5e-8)


class TestMomentRows:
    """On the table paths, auto takes a frozen (varpi = 0) row from the
    channel's x-moments (spectra._moment_rows): checked against the
    quadrature, counted, and routed back to the angular rule where the
    Markov bound on its tail fails."""

    @pytest.mark.parametrize(
        "n_atoms, t_over_ef", [(10**4, 0.001), (10**4, 0.05), (3 * 10**4, 0.01), (3 * 10**4, 0.05), (3 * 10**4, 0.1)]
    )
    def test_matches_quadrature(self, trap, state_cache, n_atoms, t_over_ef):
        from fermipulse.formfunc import describe_methods
        from fermipulse.spectra import _theta_rows

        st = state_cache(n_atoms, t_over_ef * fp.fermi_energy(n_atoms))
        assert describe_methods(st, "auto") == {"coh_method": "laguerre", "inc_method": "convolution"}
        for incoherent in (False, True):
            got = _theta_rows(incoherent, st, trap, "auto", 1e-8, np.array([0.0]))
            want = theta_reference(st, trap, [0.0], incoherent, "auto")
            assert np.abs(got - want).max() <= 5e-8 * np.abs(want).max()

    def test_frozen_total_calls_no_form(self, trap, pulse, monkeypatch):
        # fresh states, so that no table is left from another test
        counts = counting_forms(monkeypatch)
        for t_over_ef in (0.01, 0.05, 0.1):
            st = fp.solve_fugacity(3 * 10**4, t_over_ef * fp.fermi_energy(3 * 10**4))
            n_coh, n_in = fp.total_photons(st, trap, pulse, mode=fp.AngularMode.FROZEN)
            assert n_coh > 0.0 and n_in > 0.0
            assert not any(isinstance(k, tuple) and k[0] in ("weight_diagonals", "n_eff") for k in st._cache)
        assert counts == {"coh": [0, 0], "inc": [0, 0]}

    def test_uncertified_row_takes_quadrature(self, trap, state_cache, monkeypatch):
        # 10^6 atoms, 0.01 E_F: F2_in reaches past X = 4 kla^2 (4 E_F = 727 >
        # 625), so its bound fails and the row is the angular rule's; the
        # coherent row still comes from the moments
        from fermipulse import spectra

        st = state_cache(10**6, 0.01 * fp.fermi_energy(10**6))
        rows = []
        real = spectra.nested
        monkeypatch.setattr(spectra, "nested", lambda f, levels, n, tol: rows.append(n) or real(f, levels, n, tol))
        zero = np.zeros(1)
        got = [spectra._theta_rows(incoherent, st, trap, "auto", 1e-8, zero)[0] for incoherent in (False, True)]
        assert rows == [1]
        assert spectra._moment_rows(False, st, trap, "auto", 1e-8, zero)[1].tolist() == [True]
        assert spectra._moment_rows(True, st, trap, "auto", 1e-8, zero)[1].tolist() == [False]
        for incoherent, g in zip((False, True), got):
            assert g == pytest.approx(theta_reference(st, trap, [0.0], incoherent, "auto")[0], rel=5e-8)

    @pytest.mark.parametrize("method", ["laguerre", "convolution"])
    def test_forced_methods_integrate_forms(self, trap, pulse, state_cache, monkeypatch, method):
        st = state_cache(3 * 10**4, 0.01 * fp.fermi_energy(3 * 10**4))
        counts = counting_forms(monkeypatch)
        forced = fp.total_photons(st, trap, pulse, mode=fp.AngularMode.FROZEN, method=method)
        assert counts["coh"][1] > 0 and counts["inc"][1] > 0
        auto = fp.total_photons(st, trap, pulse, mode=fp.AngularMode.FROZEN)
        assert forced == pytest.approx(auto, rel=1e-8)

    @pytest.mark.parametrize(
        "n_atoms, tau, kla",
        [
            (1, 0.05, 12.5),
            (2, 0.05, 12.5),
            (1, 1.0, 12.5),
            (10**7, 0.01 * fp.fermi_energy(10**7), 12.5),
            (10**7, 100.0 * fp.fermi_energy(10**7), 12.5),
            (10**6, 10.0 * fp.fermi_energy(10**6), 12.5),
            (3 * 10**4, 0.01 * fp.fermi_energy(3 * 10**4), 0.5),
            (3 * 10**4, 0.01 * fp.fermi_energy(3 * 10**4), 50.0),
        ],
    )
    def test_extremes_finite(self, pulse, n_atoms, tau, kla):
        # RuntimeWarnings are errors (pyproject.toml); at 10^7 atoms, 100 E_F
        # n_max = 1566340, and the closed rows leave no row to the moments
        from fermipulse import spectra

        trap = fp.TrapModel(kla=kla)
        st = fp.solve_fugacity(n_atoms, tau)
        for incoherent in (False, True):
            (value,), _ = spectra._moment_rows(incoherent, st, trap, "auto", 1e-8, np.zeros(1))
            _, _, log_m = fp.formfunc.x_moments(st, "auto", incoherent, 1e-8)
            assert math.isfinite(value) and value > 0.0 and np.isfinite(log_m).all()
        n_coh, n_in = fp.total_photons(st, trap, pulse, mode=fp.AngularMode.FROZEN)
        assert math.isfinite(n_coh) and n_coh > 0.0 and math.isfinite(n_in) and n_in > 0.0

    def test_frozen_frequency_without_live_detuning_runs_no_row(self, trap, monkeypatch):
        # 10^6 atoms, 0.01 E_F: the incoherent varpi = 0 row would take the
        # angular rule; at varpi = 0 alone s_coh vanishes, so no row is asked
        from fermipulse import spectra

        st = fp.solve_fugacity(10**6, 0.01 * fp.fermi_energy(10**6))
        counts, rows = counting_forms(monkeypatch), []
        real = spectra.nested
        monkeypatch.setattr(spectra, "nested", lambda f, levels, n, tol: rows.append(n) or real(f, levels, n, tol))
        d_coh, d_in = fp.frequency_distribution(st, trap, np.zeros(3), mode=fp.AngularMode.FROZEN)
        assert rows == [] and counts == {"coh": [0, 0], "inc": [0, 0]}
        assert not any(isinstance(k, tuple) and k[0] == "tail_moments" for k in st._cache)
        assert d_coh.tolist() == [0.0] * 3
        want = fp.photon_norm(trap) * 10**6 * (4.0 / math.pi) * THETA_WEIGHT_TOTAL
        assert d_in.tolist() == [pytest.approx(want, rel=1e-14)] * 3

    def test_no_rule_built_without_a_row(self, package_env):
        # a frozen total whose rows are all closed forms or moments never
        # builds the 4097-node angular rule
        code = textwrap.dedent(
            """
            import fermipulse as fp
            from fermipulse import spectra
            trap, pulse = fp.TrapModel(), fp.PulseModel.two_pi()
            for n, t in ((10**4, 1.0), (3 * 10**4, 0.01)):
                st = fp.solve_fugacity(n, t * fp.fermi_energy(n))
                fp.total_photons(st, trap, pulse, mode=fp.AngularMode.FROZEN)
            print(spectra._theta_rule.cache_info().currsize)
            """
        )
        done = subprocess.run([sys.executable, "-c", code], env=package_env, capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "0"


class TestResolveMode:
    def test_default_trap_freezes(self, trap):
        assert resolve_mode(fp.AngularMode.AUTO, trap) is fp.AngularMode.FROZEN

    def test_wide_band_goes_full(self):
        trap = fp.TrapModel(gamma_ratio=5e-3)
        assert resolve_mode(fp.AngularMode.AUTO, trap) is fp.AngularMode.FULL

    def test_explicit_wins(self, trap):
        assert resolve_mode(fp.AngularMode.FULL, trap) is fp.AngularMode.FULL
        assert resolve_mode("frozen", trap) is fp.AngularMode.FROZEN

    @pytest.mark.parametrize(
        "n_atoms",
        [
            10**4,
            pytest.param(10**6, marks=pytest.mark.xfail(strict=True, reason="frozen N_coh off by 1.3e-3")),
            pytest.param(10**7, marks=pytest.mark.xfail(strict=True, reason="frozen N_coh off by 2.8e-3")),
        ],
    )
    def test_frozen_error_at_drift_limit(self, pulse, n_atoms):
        # the drift gamma_ratio LINE_SUPPORT kla^2 is 0.05, the largest that
        # auto freezes; the coherent error grows with N past the 1e-3 the
        # frozen choice was meant to keep
        trap = fp.TrapModel(kla=12.5, gamma_ratio=1.28e-4)
        assert resolve_mode(fp.AngularMode.AUTO, trap) is fp.AngularMode.FROZEN
        st = fp.solve_fugacity(n_atoms, 1.0 * fp.fermi_energy(n_atoms))
        frozen = fp.total_photons(st, trap, pulse, mode=fp.AngularMode.FROZEN)
        full = fp.total_photons(st, trap, pulse, mode=fp.AngularMode.FULL)
        assert frozen[1] == pytest.approx(full[1], rel=1e-9)
        assert frozen[0] == pytest.approx(full[0], rel=1e-3)

