import json
import math
import resource
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st_

import fermipulse as fp
from fermipulse import _kernels, from_fugacity
from fermipulse.formfunc import (
    BudgetExceeded,
    CONVOLUTION_SUM_CEILING,
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

    def test_auto_cross_check_runs_when_first_x_is_zero(self, monkeypatch):
        # a table sum off by 1e-3 must fail the check even when the first x
        # is 0, where both routes return N^2; a fresh state, never checked
        st = fp.solve_fugacity(1000, 1.36 * fp.fermi_energy(1000))
        lag = _kernels.laguerre_weighted_sum
        monkeypatch.setattr(_kernels, "laguerre_weighted_sum", lambda w, a, x: lag(w, a, x) * (1.0 + 1e-3))
        xs = np.array([0.0, 1.0])
        pt = fp.ScatterPoint(0.0, 0.0, xs, xs, np.zeros_like(xs))
        with pytest.raises(ToleranceNotMet):
            fp.coherent_form(fp.FormFunctionRequest(st, pt))

    @pytest.mark.parametrize("tolerance", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_tolerance(self, state_cache, tolerance):
        st = state_cache(100, 2.0)
        with pytest.raises(ValueError):
            fp.FormFunctionRequest(st, point(1.0, 0.0), tolerance=tolerance)


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

    def test_convolution_ceiling_exit_3(self, package_env, tmp_path):
        # 10^6 atoms at 10 E_F: n_eff ~ 5e4, a 10 GB weight table.  The
        # child's address space is capped at 3 GiB, so an attempt to build
        # the table fails there and cannot exhaust the machine's memory.
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

        proc = subprocess.run(
            [
                sys.executable, "-m", "fermipulse", "formfunc",
                "--atoms", "1000000",
                "--temperature", "10EF",
                "--method", "convolution",
                "--grid", "2x2",
                "--output", str(tmp_path / "ceiling"),
            ],
            capture_output=True,
            text=True,
            env=package_env,
            timeout=120,
            preexec_fn=cap_memory,
        )
        assert proc.returncode == 3, proc.stderr
        assert "BudgetExceeded" in proc.stderr
        assert str(CONVOLUTION_SUM_CEILING) in proc.stderr

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
        # every method returns the zero-transfer value itself at x = 0
        for m in (
            Method.AUTO,
            Method.CLOSED_FORM_MB,
            Method.POWER_SERIES,
            Method.CONVOLUTION_SUM,
            Method.LAGUERRE_SUM,
        ):
            assert fp.incoherent_form(fp.FormFunctionRequest(st, point(0.0, 0.0), m)) == _incoherent_x0(st)
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


class TestInvariants:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        n_atoms=st_.integers(2, 5000),  # E_F = 0 at N = 1, so T/E_F needs N >= 2
        t_over_ef=st_.floats(0.01, 3.0),
        statistics=st_.sampled_from(["fd", "mb"]),
        x=st_.floats(0.0, 400.0),
        method=st_.sampled_from([Method.AUTO, Method.CONVOLUTION_SUM, Method.LAGUERRE_SUM]),
    )
    def test_form_function_bounds(self, n_atoms, t_over_ef, statistics, x, method):
        st = fp.solve_fugacity(n_atoms, t_over_ef * fp.fermi_energy(n_atoms), statistics)

        def forms(at):
            # the power series is accurate to the requested tolerance, which
            # must sit below the 1e-9 slack of the bounds
            req = fp.FormFunctionRequest(st, point(at, 0.0), method, 1e-10)
            return fp.coherent_form(req), fp.incoherent_form(req)

        coh0, inc0 = forms(0.0)
        coh, inc = forms(x)
        n2 = float(n_atoms) ** 2
        assert coh0 == pytest.approx(n2, rel=1e-10)
        assert 0.0 <= coh <= n2 * (1 + 1e-9)
        assert 0.0 <= inc <= inc0 * (1 + 1e-9)
        # sum g P^2 <= max(P) N: Fermi-Dirac has P <= 1 (Pauli), while cold
        # Maxwell-Boltzmann occupations exceed 1
        p_max = 1.0 if statistics == "fd" else max(1.0, float(st.occupations.max()))
        assert inc0 <= p_max * n_atoms * (1 + 1e-9)


class TestArrayCalls:
    """An array of momentum transfers gives, bit for bit, the values of one
    call per point, for every method valid for the state."""

    @staticmethod
    def valid(method, st):
        if method is Method.POWER_SERIES:
            return st.statistics is fp.Statistics.MAXWELL_BOLTZMANN or st.log_fugacity < 0.0
        if method is Method.CLOSED_FORM_MB:
            return st.statistics is fp.Statistics.MAXWELL_BOLTZMANN
        if method is Method.QUAD_SUM:
            return st.n_max <= QUAD_SUM_CEILING
        return True

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        n_atoms=st_.integers(2, 2000),
        t_over_ef=st_.floats(0.01, 3.0),
        statistics=st_.sampled_from(["fd", "mb"]),
        kla=st_.floats(0.5, 20.0),
        method=st_.sampled_from(list(Method)),
        thetas=st_.lists(st_.one_of(st_.just(0.0), st_.floats(0.0, math.pi)), max_size=5),
        varpi=st_.one_of(st_.just(0.0), st_.floats(-6.0, 6.0)),
    )
    @example(
        n_atoms=50, t_over_ef=0.5, statistics="fd", kla=12.5, method=Method.AUTO, thetas=[], varpi=0.0
    )
    @example(
        n_atoms=50, t_over_ef=2.0, statistics="fd", kla=3.0, method=Method.QUAD_SUM, thetas=[0.0, 1.0], varpi=0.0
    )
    @example(
        n_atoms=800, t_over_ef=1.0, statistics="fd", kla=12.5, method=Method.AUTO, thetas=[0.0, 0.3], varpi=0.0
    )
    @example(
        n_atoms=300,
        t_over_ef=0.3,
        statistics="fd",
        kla=5.0,
        method=Method.CONVOLUTION_SUM,
        thetas=[0.0, 0.2, 2.5],
        varpi=0.0,
    )
    @example(
        n_atoms=800,
        t_over_ef=0.05,
        statistics="mb",
        kla=12.5,
        method=Method.CLOSED_FORM_MB,
        thetas=[0.0, 2.0],
        varpi=0.0,
    )
    def test_array_equals_point_calls(self, n_atoms, t_over_ef, statistics, kla, method, thetas, varpi):
        st = fp.solve_fugacity(n_atoms, t_over_ef * fp.fermi_energy(n_atoms), statistics)
        assume(self.valid(method, st))
        trap = fp.TrapModel(kla=kla)
        # repeat the first points, so that x holds repeated values
        thetas = np.array(thetas + thetas[:2], dtype=np.float64)
        batch = fp.kinematics(trap, thetas, varpi)
        points = [fp.kinematics(trap, t, varpi) for t in thetas.tolist()]
        for field in ("x_total", "x_x", "x_z"):
            assert getattr(batch, field).tolist() == [getattr(p, field) for p in points]
        for form in (fp.coherent_form, fp.incoherent_form):
            got = form(fp.FormFunctionRequest(st, batch, method))
            assert isinstance(got, np.ndarray) and got.shape == thetas.shape
            want = [form(fp.FormFunctionRequest(st, p, method)) for p in points]
            assert all(isinstance(w, float) for w in want)
            assert got.tolist() == want

    def test_grid_shape(self, state_cache, trap):
        st = state_cache(1000, 1.0 * fp.fermi_energy(1000))
        thetas = np.linspace(0.0, math.pi, 4)
        varpis = np.linspace(-2.0, 2.0, 3)
        pt = fp.kinematics(trap, thetas[:, None], varpis[None, :])
        req = fp.FormFunctionRequest(st, pt)
        for form in (fp.coherent_form, fp.incoherent_form):
            got = form(req)
            assert got.shape == (4, 3)
            for i, t in enumerate(thetas.tolist()):
                for j, v in enumerate(varpis.tolist()):
                    assert got[i, j] == form(fp.FormFunctionRequest(st, fp.kinematics(trap, t, v)))


def reference_coherent_series(st, x, tol):
    """The coherent power series for one x, one term at a time."""
    if x == 0.0:
        return st.total_atoms**2
    acc, prev, l = 0.0, math.inf, 1
    while True:
        log_mag = (
            l * st.log_fugacity
            - 3.0 * math.log(-math.expm1(-l / st.tau))
            - 0.5 * x / math.tanh(0.5 * l / st.tau)
        )
        mag = math.exp(log_mag) if log_mag > -745.0 else 0.0
        acc += mag if l % 2 == 1 else -mag
        if l >= 8 and mag <= prev and mag <= tol * max(abs(acc), 1e-300):
            return acc * acc
        prev, l = mag, l + 1


def reference_incoherent_series(st, x, tol):
    """The blocked incoherent power series for one x, one block at a time."""
    if x == 0.0:
        return _incoherent_x0(st)
    lq = -1.0 / st.tau
    acc, prev = 0.0, math.inf
    for total_l in range(2, 40_000):
        l1 = np.arange(1, total_l, dtype=np.float64)
        fshape = -np.expm1(l1 * lq) * np.expm1((total_l - l1) * lq) / math.expm1(total_l * lq)
        block = float(np.exp(-x * fshape).sum())
        log_pref = total_l * st.log_fugacity - 3.0 * math.log(-math.expm1(total_l * lq))
        mag = math.exp(log_pref) * block if log_pref > -700.0 else 0.0
        acc += mag if total_l % 2 == 0 else -mag
        if total_l >= 9 and mag <= prev and mag <= tol * max(abs(acc), 1e-300):
            return acc
        prev = mag


@pytest.mark.parametrize(
    "state",
    [
        lambda: from_fugacity(math.log(0.5), 20.0, 900),
        lambda: from_fugacity(math.log(0.05), 3.0, 200),
        lambda: fp.solve_fugacity(10**4, 1.36 * fp.fermi_energy(10**4)),
    ],
    ids=["z0.5", "z0.05", "1e4-1.36EF"],
)
def test_batched_series_match_one_x_at_a_time(state):
    # np.exp and math.exp may differ in the last bit, which the coherent
    # sum carries into its square; the incoherent blocks use np.exp on both
    # sides, so each x must stop at the same block with the same sum
    st = state()
    xs = np.concatenate([np.linspace(0.0, 625.0, 26), [3.0, 3.0]])
    pt = fp.ScatterPoint(0.0, 0.0, xs, xs, np.zeros_like(xs))
    coh = fp.coherent_form(fp.FormFunctionRequest(st, pt, Method.POWER_SERIES, 1e-10))
    inc = fp.incoherent_form(fp.FormFunctionRequest(st, pt, Method.POWER_SERIES, 1e-10))
    peak = st.total_atoms**2
    for x, c, i in zip(xs.tolist(), coh.tolist(), inc.tolist()):
        assert abs(c - reference_coherent_series(st, x, 1e-10)) <= 1e-15 * peak
        assert i == reference_incoherent_series(st, x, 1e-10)
