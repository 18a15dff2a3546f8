import json
import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import fermipulse as fp
from fermipulse import from_fugacity
from fermipulse.formfunc import (
    BudgetExceeded,
    Method,
    QUAD_SUM_CEILING,
    SeriesDivergence,
    ToleranceNotMet,
    _cross_check_once,
    _incoherent_x0,
)
from fermipulse.statmech import _degeneracy_array


def point(x_x, x_z):
    return fp.ScatterPoint(0.0, 0.0, x_x + x_z, x_x, x_z)


def agreement(a, b, rtol, peak):
    """Relative agreement with an absolute floor tied to the peak value.

    Below ~1e-13 of the zero-transfer peak the two routes may legitimately
    differ: values there sit at or below round-off of double sums.
    """
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + 1e-13 * peak


class TestCoherentForm:
    @pytest.mark.parametrize("n_atoms", [100, 10**4])
    @pytest.mark.parametrize("f", [0.0016, 0.5, 1.36])
    def test_zero_transfer_is_n_squared(self, state_cache, n_atoms, f):
        st = state_cache(n_atoms, f * fp.fermi_energy(n_atoms))
        v = fp.coherent_form(fp.FormFunctionRequest(st, point(0.0, 0.0)))
        assert v == pytest.approx(n_atoms**2, rel=1e-10)

    def test_zero_transfer_mb(self):
        st = fp.solve_fugacity(500, 7.0, "mb")
        v = fp.coherent_form(fp.FormFunctionRequest(st, point(0.0, 0.0), Method.CLOSED_FORM_MB))
        assert v == pytest.approx(500.0**2, rel=1e-10)

    def test_power_series_matches_laguerre(self, rng):
        # z = 0.5, warm state: both routes valid across the full x range
        st = from_fugacity(math.log(0.5), 20.0, 900)
        peak = st.total_atoms**2
        for x in np.linspace(0.0, 625.0, 20):
            a = fp.coherent_form(fp.FormFunctionRequest(st, point(x, 0.0), Method.POWER_SERIES, 1e-10))
            b = fp.coherent_form(fp.FormFunctionRequest(st, point(x, 0.0), Method.LAGUERRE_SUM, 1e-10))
            assert agreement(a, b, 1e-6, peak), (x, a, b)

    @pytest.mark.parametrize("z", [0.1, 0.9])
    def test_method_agreement_other_fugacities(self, z):
        st = from_fugacity(math.log(z), 20.0, 900)
        peak = st.total_atoms**2
        for x in np.linspace(0.0, 625.0, 20):
            a = fp.coherent_form(fp.FormFunctionRequest(st, point(x, 0.0), Method.POWER_SERIES, 1e-10))
            b = fp.coherent_form(fp.FormFunctionRequest(st, point(x, 0.0), Method.LAGUERRE_SUM, 1e-10))
            assert agreement(a, b, 1e-6, peak), (x, a, b)

    def test_classical_crossover_fine_grid(self, state_cache):
        # kT = 5 EF: FD and MB coincide on the scale where the form function
        # lives.  Beyond ~e^{-13} of the peak the exchange (second series)
        # term, which decays half as fast, starts to show: genuine quantum
        # statistics, not an accuracy limit.
        n_atoms = 10**4
        tau = 5.0 * fp.fermi_energy(n_atoms)
        fd = state_cache(n_atoms, tau)
        mb = fp.solve_fugacity(n_atoms, tau, "mb")
        scale = math.tanh(0.5 / tau)  # decay rate ~ 1/coth = tanh
        for u in np.linspace(0.0, 10.0, 11):
            x = u * scale
            a = fp.coherent_form(fp.FormFunctionRequest(fd, point(x, 0.0)))
            b = fp.coherent_form(fp.FormFunctionRequest(mb, point(x, 0.0)))
            assert a == pytest.approx(b, rel=1e-2)

    def test_series_divergence(self):
        st = from_fugacity(0.5, 1.0, 60)  # z = e^0.5 > 1
        with pytest.raises(SeriesDivergence):
            fp.FormFunctionRequest(st, point(1.0, 0.0), Method.POWER_SERIES)

    def test_mb_laguerre_matches_closed_form(self):
        st = fp.solve_fugacity(200, 5.0, "mb")
        for x in (0.0, 2.0, 31.0):
            a = fp.coherent_form(fp.FormFunctionRequest(st, point(x, 0.0), Method.LAGUERRE_SUM))
            b = fp.coherent_form(fp.FormFunctionRequest(st, point(x, 0.0), Method.CLOSED_FORM_MB))
            assert a == pytest.approx(b, rel=1e-8)

    def test_closed_form_requires_mb(self, state_cache):
        st = state_cache(100, 2.0)
        with pytest.raises(ValueError):
            fp.FormFunctionRequest(st, point(0.0, 0.0), Method.CLOSED_FORM_MB)


class TestIncoherentWeight:
    def test_symmetric(self, state_cache):
        st = state_cache(100, 2.0)
        assert fp.incoherent_weight(3, 7, st) == fp.incoherent_weight(7, 3, st)

    def test_dilute_geometric_form(self):
        st = from_fugacity(math.log(1e-4), 0.7, 60)
        z = 1e-4
        for n, m in ((0, 0), (1, 2), (4, 1)):
            want = z**2 * math.exp(-(n + m) / 0.7) / (1.0 - math.exp(-2.0 / 0.7))
            assert fp.incoherent_weight(n, m, st) == pytest.approx(want, rel=1e-3)

    def test_zero_temperature_count(self, state_cache):
        # N = 4 fills shells 0 and 1; both y = 0, 1 survive the pair filter
        st = state_cache(4, 0.02)
        assert fp.incoherent_weight(0, 0, st) == pytest.approx(2.0, abs=1e-3)

    def test_matches_pair_block(self, state_cache):
        from fermipulse.formfunc import _occupation_pair_block

        st = state_cache(50, 1.3)
        blk = _occupation_pair_block(st, 12)
        for n in (0, 5, 12):
            for m in (0, 3, 12):
                assert blk[n, m] == pytest.approx(fp.incoherent_weight(n, m, st), rel=1e-13)


class TestIncoherentForm:
    def test_zero_transfer_value(self, state_cache):
        st = state_cache(10**4, 1.36 * fp.fermi_energy(10**4))
        v = fp.incoherent_form(fp.FormFunctionRequest(st, point(0.0, 0.0)))
        g = _degeneracy_array(st.n_max)
        assert v == pytest.approx(float(g @ st.occupations**2), rel=1e-12)

    def test_degenerate_peak_saturates(self, state_cache):
        st = state_cache(10**4, 0.0016 * fp.fermi_energy(10**4))
        v = fp.incoherent_form(fp.FormFunctionRequest(st, point(0.0, 0.0)))
        assert v / 10**4 >= 0.98
        assert v <= 10**4 * (1 + 1e-9)

    def test_power_series_matches_convolution(self):
        st = from_fugacity(math.log(0.5), 20.0, 900)
        peak = _incoherent_x0(st)
        for x in np.linspace(0.0, 625.0, 20):
            pt = point(0.4 * x, 0.6 * x)
            a = fp.incoherent_form(fp.FormFunctionRequest(st, pt, Method.POWER_SERIES, 1e-9))
            b = fp.incoherent_form(fp.FormFunctionRequest(st, pt, Method.CONVOLUTION_SUM, 1e-9))
            assert agreement(a, b, 1e-5, peak), (x, a, b)

    def test_power_series_matches_quad_sum(self):
        st = from_fugacity(math.log(0.5), 1.2, 46)
        peak = _incoherent_x0(st)
        for x in np.linspace(0.0, 120.0, 9):
            pt = point(0.3 * x, 0.7 * x)
            a = fp.incoherent_form(fp.FormFunctionRequest(st, pt, Method.POWER_SERIES, 1e-9))
            b = fp.incoherent_form(fp.FormFunctionRequest(st, pt, Method.QUAD_SUM, 1e-9))
            assert agreement(a, b, 1e-5, peak), (x, a, b)

    def test_quad_matches_convolution_degenerate(self):
        # clamped degenerate state with a live table edge, so both methods
        # run over exactly the same shells
        st = from_fugacity(5.0, 2.0, 40)
        for x in (0.0, 3.0, 47.0):
            pt = point(0.5 * x, 0.5 * x)
            a = fp.incoherent_form(fp.FormFunctionRequest(st, pt, Method.QUAD_SUM))
            b = fp.incoherent_form(fp.FormFunctionRequest(st, pt, Method.CONVOLUTION_SUM))
            assert a == pytest.approx(b, rel=1e-10)

    def test_convolution_depends_on_total_transfer_only(self):
        st = from_fugacity(5.0, 2.0, 40)
        for x_x, x_z in ((0.7, 2.9), (11.0, 36.0), (150.0, 4.5)):
            want = fp.incoherent_form(fp.FormFunctionRequest(st, point(x_x, x_z), Method.CONVOLUTION_SUM))
            for pt in (point(x_z, x_x), point(x_x + x_z, 0.0)):
                got = fp.incoherent_form(fp.FormFunctionRequest(st, pt, Method.CONVOLUTION_SUM))
                assert got == pytest.approx(want, rel=1e-13)

    def test_convolution_zero_transfer(self):
        # the auto path cross-checks the power series at the damped point,
        # which is x = 0 itself for a zero-transfer request
        st = from_fugacity(math.log(0.5), 1.2, 46)
        g = _degeneracy_array(st.n_max)
        want = float(g @ st.occupations**2)
        got = fp.incoherent_form(fp.FormFunctionRequest(st, point(0.0, 0.0), Method.CONVOLUTION_SUM))
        assert got == pytest.approx(want, rel=1e-13)
        auto = fp.incoherent_form(fp.FormFunctionRequest(st, point(0.0, 0.0)))
        assert auto == pytest.approx(want, rel=1e-13)
        assert st._cache.get("auto_checked_inc") is True

    def test_convolution_large_shell_cutoff(self, package_env):
        # 10^6 atoms at 1.36 EF: n_eff = 6891.  Run in a fresh process so
        # its peak resident memory is the contraction's own.
        script = textwrap.dedent(
            """
            import json, resource
            import fermipulse as fp
            from fermipulse.formfunc import Method, _effective_shell_cutoff, _incoherent_x0

            n = 10**6
            st = fp.solve_fugacity(n, 1.36 * fp.fermi_energy(n))
            pt = fp.ScatterPoint(0.0, 0.0, 40.0, 10.0, 30.0)
            conv = fp.incoherent_form(fp.FormFunctionRequest(st, pt, Method.CONVOLUTION_SUM))
            series = fp.incoherent_form(fp.FormFunctionRequest(st, pt, Method.POWER_SERIES))
            print(json.dumps({
                "n_eff": _effective_shell_cutoff(st),
                "conv": conv,
                "series": series,
                "peak": _incoherent_x0(st),
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            }))
            """
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=package_env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.splitlines()[-1])
        assert out["n_eff"] == 6891
        assert out["maxrss_kb"] < 1024**2
        assert abs(out["conv"] - out["series"]) <= 1e-8 * out["peak"]

    def test_failed_cross_check_raises_every_call(self):
        st = from_fugacity(math.log(0.5), 1.2, 46)
        for _ in range(2):
            with pytest.raises(ToleranceNotMet):
                _cross_check_once(st, "auto_checked_inc", lambda x: 1.0, lambda x: 2.0, 3.0, 1e-8)

    def test_mb_closed_form_matches_table_sum(self):
        st = fp.solve_fugacity(300, 4.0, "mb")
        g = _degeneracy_array(st.n_max)
        want0 = float(g @ st.occupations**2)
        got0 = fp.incoherent_form(fp.FormFunctionRequest(st, point(0.0, 0.0), Method.CLOSED_FORM_MB))
        assert got0 == pytest.approx(want0, rel=1e-10)
        for x in (1.0, 12.0):
            pt = point(0.5 * x, 0.5 * x)
            a = fp.incoherent_form(fp.FormFunctionRequest(st, pt, Method.CLOSED_FORM_MB))
            b = fp.incoherent_form(fp.FormFunctionRequest(st, pt, Method.CONVOLUTION_SUM))
            assert a == pytest.approx(b, rel=1e-7)

    def test_budget_exceeded(self):
        st = from_fugacity(0.0, 3.0, QUAD_SUM_CEILING + 40)
        with pytest.raises(BudgetExceeded):
            fp.incoherent_form(fp.FormFunctionRequest(st, point(1.0, 1.0), Method.QUAD_SUM))

    def test_positive_everywhere(self, rng):
        st = from_fugacity(math.log(0.6), 1.5, 55)
        for _ in range(10):
            xx, xz = rng.uniform(0.0, 300.0, 2)
            pt = point(float(xx), float(xz))
            for m in (Method.POWER_SERIES, Method.QUAD_SUM, Method.CONVOLUTION_SUM):
                assert fp.incoherent_form(fp.FormFunctionRequest(st, pt, m)) >= 0.0

    def test_bounded_by_atom_number(self, state_cache):
        st = state_cache(1000, 0.2 * fp.fermi_energy(1000))
        for x in (0.0, 1.0, 10.0):
            v = fp.incoherent_form(fp.FormFunctionRequest(st, point(x, x)))
            assert v <= 1000.0 * (1 + 1e-9)


class TestDecay:
    def test_coherent_collapses_at_back_scatter(self, state_cache):
        # phase matching: the coherent channel dies within a tiny forward
        # cone; at back-scatter nothing survives
        n_atoms = 10**6
        st = state_cache(n_atoms, 1.36 * fp.fermi_energy(n_atoms))
        coh0 = fp.coherent_form(fp.FormFunctionRequest(st, point(0.0, 0.0)))
        coh = fp.coherent_form(fp.FormFunctionRequest(st, point(0.0, 625.0)))
        assert coh / coh0 < 1e-20

    def test_incoherent_follows_thermal_envelope(self, state_cache):
        # the incoherent channel decays at the classical Doppler rate
        # tanh(1/(2 tau)) ~ 1/(2 kT); at 1.36 EF the back-scatter value is
        # still ~0.28 of the peak, matching the Maxwell-Boltzmann closed
        # form to the size of the exchange correction
        n_atoms = 10**6
        tau = 1.36 * fp.fermi_energy(n_atoms)
        st = state_cache(n_atoms, tau)
        inc0 = fp.incoherent_form(fp.FormFunctionRequest(st, point(0.0, 0.0)))
        inc = fp.incoherent_form(fp.FormFunctionRequest(st, point(0.0, 625.0)))
        envelope = math.exp(-625.0 * math.tanh(0.5 / tau))
        assert inc / inc0 == pytest.approx(envelope, rel=2e-2)
