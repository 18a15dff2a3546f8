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
from fermipulse import _kernels, formfunc, from_fugacity
from fermipulse.formfunc import (
    BudgetExceeded,
    CONVOLUTION_SUM_CEILING,
    Method,
    QUAD_SUM_CEILING,
    SeriesDivergence,
    ToleranceNotMet,
    _incoherent_x0,
)
from fermipulse.statmech import _degeneracy_array


def point(x_x, x_z):
    return x_x + x_z


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
        v = fp.coherent_form(st, point(0.0, 0.0))
        assert v == pytest.approx(n_atoms**2, rel=1e-10)

    def test_zero_transfer_mb(self):
        st = fp.solve_fugacity(500, 7.0, "mb")
        v = fp.coherent_form(st, point(0.0, 0.0), Method.CLOSED_FORM_MB)
        assert v == pytest.approx(500.0**2, rel=1e-10)

    def test_power_series_matches_laguerre(self, rng):
        # z = 0.5, warm state: both routes valid across the full x range
        st = from_fugacity(math.log(0.5), 20.0, 900)
        peak = st.total_atoms**2
        for x in np.linspace(0.0, 625.0, 20):
            a = fp.coherent_form(st, point(x, 0.0), Method.POWER_SERIES, 1e-10)
            b = fp.coherent_form(st, point(x, 0.0), Method.LAGUERRE_SUM, 1e-10)
            assert agreement(a, b, 1e-6, peak), (x, a, b)

    @pytest.mark.parametrize("z", [0.1, 0.9])
    def test_method_agreement_other_fugacities(self, z):
        st = from_fugacity(math.log(z), 20.0, 900)
        peak = st.total_atoms**2
        for x in np.linspace(0.0, 625.0, 20):
            a = fp.coherent_form(st, point(x, 0.0), Method.POWER_SERIES, 1e-10)
            b = fp.coherent_form(st, point(x, 0.0), Method.LAGUERRE_SUM, 1e-10)
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
            a = fp.coherent_form(fd, point(x, 0.0))
            b = fp.coherent_form(mb, point(x, 0.0))
            assert a == pytest.approx(b, rel=1e-2)

    def test_series_divergence(self):
        st = from_fugacity(0.5, 1.0, 60)  # z = e^0.5 > 1
        for form in (fp.coherent_form, fp.incoherent_form):
            with pytest.raises(SeriesDivergence):
                form(st, point(1.0, 0.0), Method.POWER_SERIES)

    def test_mb_laguerre_matches_closed_form(self):
        st = fp.solve_fugacity(200, 5.0, "mb")
        for x in (0.0, 2.0, 31.0):
            a = fp.coherent_form(st, point(x, 0.0), Method.LAGUERRE_SUM)
            b = fp.coherent_form(st, point(x, 0.0), Method.CLOSED_FORM_MB)
            assert a == pytest.approx(b, rel=1e-8)

    def test_closed_form_requires_mb(self, state_cache):
        st = state_cache(100, 2.0)
        for form in (fp.coherent_form, fp.incoherent_form):
            with pytest.raises(ValueError, match="closed-form-mb"):
                form(st, point(0.0, 0.0), Method.CLOSED_FORM_MB)

    def test_auto_cross_check_runs_when_first_x_is_zero(self, monkeypatch):
        # a table sum off by 1e-3 must fail the check even when the first x
        # is 0, where both routes return N^2; a fresh state, never checked
        st = fp.solve_fugacity(1000, 1.36 * fp.fermi_energy(1000))
        lag = _kernels.laguerre_weighted_sum
        monkeypatch.setattr(_kernels, "laguerre_weighted_sum", lambda w, a, x: lag(w, a, x) * (1.0 + 1e-3))
        with pytest.raises(ToleranceNotMet):
            fp.coherent_form(st, np.array([0.0, 1.0]))

    def test_auto_cross_check_keyed_by_its_bound(self, monkeypatch):
        # the same skewed table sum: a pass at tolerance 1e-3, whose bound
        # 0.1 the skew meets, must not stand for a later call at 1e-8
        st = fp.solve_fugacity(1000, 1.36 * fp.fermi_energy(1000))
        lag = _kernels.laguerre_weighted_sum
        monkeypatch.setattr(_kernels, "laguerre_weighted_sum", lambda w, a, x: lag(w, a, x) * (1.0 + 1e-3))
        xs = np.array([0.0, 1.0])
        fp.coherent_form(st, xs, tolerance=1e-3)
        with pytest.raises(ToleranceNotMet, match="auto cross-check failed"):
            fp.coherent_form(st, xs, tolerance=1e-8)

    @pytest.mark.parametrize("x", [-1.0, math.nan, math.inf, [1.0, -0.5]])
    def test_rejects_bad_transfer(self, state_cache, x):
        # x once reached the branches unchecked: laguerre gave 5.65e5 > N^2
        # at x = -1 and NaN at x = inf
        st = state_cache(100, 1.0)
        for method in (Method.AUTO, Method.LAGUERRE_SUM, Method.CONVOLUTION_SUM, Method.QUAD_SUM):
            for form in (fp.coherent_form, fp.incoherent_form):
                with pytest.raises(ValueError, match="x must be finite and >= 0"):
                    form(st, x, method)

    @pytest.mark.parametrize("tolerance", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_tolerance(self, state_cache, tolerance):
        st = state_cache(100, 2.0)
        for form in (fp.coherent_form, fp.incoherent_form):
            with pytest.raises(ValueError, match="tolerance"):
                form(st, point(1.0, 0.0), tolerance=tolerance)

    def test_method_name_parsed(self, state_cache):
        st = state_cache(20, 0.5, fp.Statistics.MAXWELL_BOLTZMANN)  # every method valid
        for method in Method:
            assert valid_for(method, st)
            for form in (fp.coherent_form, fp.incoherent_form):
                assert form(st, point(1.0, 0.0), method.value) == form(st, point(1.0, 0.0), method)
            assert formfunc.describe_methods(st, method.value) == formfunc.describe_methods(st, method)

    @pytest.mark.parametrize(
        "log_z, method, tolerance, error, match",
        [
            pytest.param(-1.0, "fourier", 1e-8, ValueError, "unknown method", id="method-name"),
            pytest.param(-1.0, Method.AUTO, math.nan, ValueError, "tolerance", id="tolerance"),
            pytest.param(0.5, Method.POWER_SERIES, 1e-8, SeriesDivergence, "z < 1", id="series-divergence"),
            pytest.param(-1.0, Method.CLOSED_FORM_MB, 1e-8, ValueError, "closed-form-mb", id="closed-form-mb-fd"),
        ],
    )
    def test_describe_methods_checks_as_form_functions(self, log_z, method, tolerance, error, match):
        st = from_fugacity(log_z, 1.0, 60)
        with pytest.raises(error, match=match):
            formfunc.describe_methods(st, method, tolerance)


class TestIncoherentWeight:
    """The shell-pair weights W[n, m] = sum_y P(n+y) P(m+y) of the incoherent sum."""

    def test_symmetric(self, state_cache):
        blk = formfunc._occupation_pair_block(state_cache(100, 2.0), 12)
        assert blk[3, 7] == blk[7, 3]

    def test_dilute_geometric_form(self):
        st = from_fugacity(math.log(1e-4), 0.7, 60)
        blk = formfunc._occupation_pair_block(st, 4)
        z = 1e-4
        for n, m in ((0, 0), (1, 2), (4, 1)):
            want = z**2 * math.exp(-(n + m) / 0.7) / (1.0 - math.exp(-2.0 / 0.7))
            assert blk[n, m] == pytest.approx(want, rel=1e-3)

    def test_zero_temperature_count(self, state_cache):
        # N = 4 fills shells 0 and 1; both y = 0, 1 survive the pair filter
        blk = formfunc._occupation_pair_block(state_cache(4, 0.02), 1)
        assert blk[0, 0] == pytest.approx(2.0, abs=1e-3)

    def test_matches_pair_block(self, state_cache):
        st = state_cache(50, 1.3)
        p = st.occupations
        blk = formfunc._occupation_pair_block(st, 12)
        for n in (0, 5, 12):
            for m in (0, 3, 12):
                length = p.shape[0] - max(n, m)
                want = float(np.dot(p[n : n + length], p[m : m + length]))
                assert blk[n, m] == pytest.approx(want, rel=1e-13)


class TestIncoherentForm:
    def test_zero_transfer_value(self, state_cache):
        st = state_cache(10**4, 1.36 * fp.fermi_energy(10**4))
        v = fp.incoherent_form(st, point(0.0, 0.0))
        g = _degeneracy_array(st.n_max)
        assert v == pytest.approx(float(g @ st.occupations**2), rel=1e-12)

    def test_degenerate_peak_saturates(self, state_cache):
        st = state_cache(10**4, 0.0016 * fp.fermi_energy(10**4))
        v = fp.incoherent_form(st, point(0.0, 0.0))
        assert v / 10**4 >= 0.98
        assert v <= 10**4 * (1 + 1e-9)

    def test_power_series_matches_convolution(self):
        st = from_fugacity(math.log(0.5), 20.0, 900)
        peak = _incoherent_x0(st)
        for x in np.linspace(0.0, 625.0, 20):
            pt = point(0.4 * x, 0.6 * x)
            a = fp.incoherent_form(st, pt, Method.POWER_SERIES, 1e-9)
            b = fp.incoherent_form(st, pt, Method.CONVOLUTION_SUM, 1e-9)
            assert agreement(a, b, 1e-5, peak), (x, a, b)

    def test_power_series_matches_quad_sum(self):
        st = from_fugacity(math.log(0.5), 1.2, 46)
        peak = _incoherent_x0(st)
        for x in np.linspace(0.0, 120.0, 9):
            pt = point(0.3 * x, 0.7 * x)
            a = fp.incoherent_form(st, pt, Method.POWER_SERIES, 1e-9)
            b = fp.incoherent_form(st, pt, Method.QUAD_SUM, 1e-9)
            assert agreement(a, b, 1e-5, peak), (x, a, b)

    def test_quad_matches_convolution_degenerate(self):
        # clamped degenerate state with a live table edge, so both methods
        # run over exactly the same shells
        st = from_fugacity(5.0, 2.0, 40)
        for x in (0.0, 3.0, 47.0):
            pt = point(0.5 * x, 0.5 * x)
            a = fp.incoherent_form(st, pt, Method.QUAD_SUM)
            b = fp.incoherent_form(st, pt, Method.CONVOLUTION_SUM)
            assert a == pytest.approx(b, rel=1e-10)

    def test_convolution_zero_transfer(self):
        # the auto path cross-checks the power series at the damped point,
        # which is x = 0 itself for a zero-transfer request
        st = from_fugacity(math.log(0.5), 1.2, 46)
        g = _degeneracy_array(st.n_max)
        want = float(g @ st.occupations**2)
        got = fp.incoherent_form(st, point(0.0, 0.0), Method.CONVOLUTION_SUM)
        assert got == pytest.approx(want, rel=1e-13)
        auto = fp.incoherent_form(st, point(0.0, 0.0))
        assert auto == pytest.approx(want, rel=1e-13)
        assert st._cache.get(("auto_checked_inc", 1e-6)) is True

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
            conv = fp.incoherent_form(st, 40.0, Method.CONVOLUTION_SUM)
            series = fp.incoherent_form(st, 40.0, Method.POWER_SERIES)
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

    @staticmethod
    def skew_zero_transfer_sum(monkeypatch):
        # sum g P^2 off by 1e-3: the power series at x = 0 must disagree
        x0 = formfunc._incoherent_x0
        monkeypatch.setattr(formfunc, "_incoherent_x0", lambda st: x0(st) * (1.0 + 1e-3))

    def test_auto_cross_check_runs_when_first_x_is_zero(self, monkeypatch):
        # at x = 0 the contraction returns sum g P^2 too, so the check
        # compares the series there with the table's zero-transfer sum
        st = from_fugacity(math.log(0.5), 1.2, 46)
        self.skew_zero_transfer_sum(monkeypatch)
        with pytest.raises(ToleranceNotMet, match="auto cross-check failed at x=0"):
            fp.incoherent_form(st, np.array([0.0, 1.0]))

    def test_auto_cross_check_runs_above_contraction_limit(self, monkeypatch):
        # 10^6 atoms at 1.36 EF: n_eff = 6891, past the limit on the weight
        # table, so the check compares at x = 0 whatever the first x
        n = 10**6
        st = fp.solve_fugacity(n, 1.36 * fp.fermi_energy(n))
        pt = point(10.0, 30.0)
        with monkeypatch.context() as m:
            self.skew_zero_transfer_sum(m)
            with pytest.raises(ToleranceNotMet, match="auto cross-check failed at x=0"):
                fp.incoherent_form(st, pt)
        assert fp.incoherent_form(st, pt) > 0.0
        assert st._cache[("auto_checked_inc", 1e-6)] is True
        # the check built no weight table
        assert not any(isinstance(k, tuple) and k[0] == "weight_diagonals" for k in st._cache)

    def test_failed_cross_check_raises_every_call(self, monkeypatch):
        st = from_fugacity(math.log(0.5), 1.2, 46)
        self.skew_zero_transfer_sum(monkeypatch)
        for _ in range(2):
            with pytest.raises(ToleranceNotMet):
                fp.incoherent_form(st, point(0.0, 0.0))
            assert ("auto_checked_inc", 1e-6) not in st._cache

    def test_mb_closed_form_matches_table_sum(self):
        st = fp.solve_fugacity(300, 4.0, "mb")
        g = _degeneracy_array(st.n_max)
        want0 = float(g @ st.occupations**2)
        got0 = fp.incoherent_form(st, point(0.0, 0.0), Method.CLOSED_FORM_MB)
        assert got0 == pytest.approx(want0, rel=1e-10)
        # every method returns the zero-transfer value itself at x = 0
        for m in (
            Method.AUTO,
            Method.CLOSED_FORM_MB,
            Method.POWER_SERIES,
            Method.CONVOLUTION_SUM,
            Method.LAGUERRE_SUM,
        ):
            assert fp.incoherent_form(st, point(0.0, 0.0), m) == _incoherent_x0(st)
        for x in (1.0, 12.0):
            pt = point(0.5 * x, 0.5 * x)
            a = fp.incoherent_form(st, pt, Method.CLOSED_FORM_MB)
            b = fp.incoherent_form(st, pt, Method.CONVOLUTION_SUM)
            assert a == pytest.approx(b, rel=1e-7)

    def test_quad_sum_one_table_per_x(self, monkeypatch):
        # the four-index oracle splits x evenly over its two axes, so each
        # nonzero x needs one displacement table, and x = 0 none
        st = from_fugacity(math.log(0.5), 1.2, 46)
        fc = _kernels.fc_matrix
        calls = []
        monkeypatch.setattr(_kernels, "fc_matrix", lambda size, x: calls.append(x) or fc(size, x))
        xs = np.array([0.0, 3.0, 47.0, 0.0, 3.0])
        fp.incoherent_form(st, xs, Method.QUAD_SUM)
        assert calls == [1.5, 23.5, 1.5]

    def test_budget_exceeded(self):
        st = from_fugacity(0.0, 3.0, QUAD_SUM_CEILING + 40)
        with pytest.raises(BudgetExceeded):
            fp.incoherent_form(st, point(1.0, 1.0), Method.QUAD_SUM)

    def test_positive_everywhere(self, rng):
        st = from_fugacity(math.log(0.6), 1.5, 55)
        for _ in range(10):
            xx, xz = rng.uniform(0.0, 300.0, 2)
            pt = point(float(xx), float(xz))
            for m in (Method.POWER_SERIES, Method.QUAD_SUM, Method.CONVOLUTION_SUM):
                assert fp.incoherent_form(st, pt, m) >= 0.0

    def test_bounded_by_atom_number(self, state_cache):
        st = state_cache(1000, 0.2 * fp.fermi_energy(1000))
        for x in (0.0, 1.0, 10.0):
            v = fp.incoherent_form(st, point(x, x))
            assert v <= 1000.0 * (1 + 1e-9)


def on_exp_sum(st, tol=1e-8):
    return formfunc.describe_methods(st, Method.AUTO, tol)["coh_method"] == formfunc._EXP_SUM


def transfers(xs):
    return np.asarray(xs, dtype=np.float64)


class TestExpSum:
    """auto's exponential-sum branch: Fermi-Dirac states with
    0.8 <= z <= e^{_EXP_SUM_MAX_LOG_Z} where the fit certifies."""

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        n_atoms=st_.integers(100, 3000),
        t_over_ef=st_.floats(0.2, 0.7),
        xs=st_.lists(st_.floats(0.0, 625.0), min_size=1, max_size=6),
        zero_at=st_.integers(0, 6),
    )
    @example(n_atoms=300, t_over_ef=0.3, xs=[4.75, 625.0], zero_at=2)
    @example(n_atoms=3000, t_over_ef=0.5, xs=[0.5], zero_at=0)
    def test_auto_matches_table_sums(self, n_atoms, t_over_ef, xs, zero_at):
        st = fp.solve_fugacity(n_atoms, t_over_ef * fp.fermi_energy(n_atoms))
        assume(math.log(0.8) <= st.log_fugacity <= formfunc._EXP_SUM_MAX_LOG_Z)
        # auto takes the exponential sums in both channels wherever they
        # certify, and the table sums elsewhere
        methods = {formfunc._EXP_SUM} if formfunc._exp_sum_certified(st, 1e-8) else {"laguerre", "convolution"}
        described = formfunc.describe_methods(st)
        assert {described["coh_method"], described["inc_method"]} == methods
        xs.insert(min(zero_at, len(xs)), 0.0)
        pt = transfers(xs)
        coh = fp.coherent_form(st, pt)
        inc = fp.incoherent_form(st, pt)
        lag = fp.coherent_form(st, pt, Method.LAGUERRE_SUM)
        conv = fp.incoherent_form(st, pt, Method.CONVOLUTION_SUM)
        n2, inc0 = st.total_atoms**2, _incoherent_x0(st)
        assert np.abs(coh - lag).max() <= 1e-8 * n2
        assert np.abs(inc - conv).max() <= 1e-8 * inc0
        # the bounds of TestInvariants
        assert ((coh >= 0.0) & (coh <= n2 * (1 + 1e-9))).all()
        assert ((inc >= 0.0) & (inc <= inc0 * (1 + 1e-9))).all()

    @pytest.mark.parametrize(
        "n_atoms, t_over_ef",
        [(100, 0.25), (300, 0.3), (300, 0.5), (3 * 10**4, 0.3), (3 * 10**4, 0.5), (10**6, 0.25), (10**6, 0.5)],
    )
    def test_regime_takes_exp_sum(self, state_cache, n_atoms, t_over_ef):
        st = state_cache(n_atoms, t_over_ef * fp.fermi_energy(n_atoms))
        assert math.log(0.8) <= st.log_fugacity <= formfunc._EXP_SUM_MAX_LOG_Z
        assert on_exp_sum(st)

    @pytest.mark.parametrize(
        "log_z, tau, n_max",
        [(math.log(0.8), 1.2, 60), (1.0, 1.2, 60), (2.5, 1.0, 60), (3.0, 1.3, 60)],
    )
    def test_auto_matches_quad_sum(self, log_z, tau, n_max):
        # the table ends where P has fallen below e^{-40}, so the fit's tail
        # past n_max stays inside the certificate
        st = from_fugacity(log_z, tau, n_max)
        assert on_exp_sum(st)
        peak = _incoherent_x0(st)
        for x in np.linspace(0.0, 120.0, 7):
            pt = point(0.3 * x, 0.7 * x)
            a = fp.incoherent_form(st, pt)
            b = fp.incoherent_form(st, pt, Method.QUAD_SUM)
            assert abs(a - b) <= 1e-8 * peak, (x, a, b)

    def test_few_atoms_fall_back_on_round_off(self):
        # 3 atoms at 0.28 E_F: the fit itself certifies, but its weights of
        # ~1e4 cancel in the pair sum to ~1e-8 of the peak, so auto keeps
        # the table sums
        st = fp.solve_fugacity(3, 0.28 * fp.fermi_energy(3))
        w, _, bound = formfunc._exp_sum(st)
        assert w.size <= formfunc._EXP_SUM_MAX_TERMS and bound <= 1e-11 * st.total_atoms
        assert formfunc.describe_methods(st) == {"coh_method": "laguerre", "inc_method": "convolution"}

    def test_perturbed_fit_fails_certification(self, monkeypatch):
        fit = formfunc._fermi_fit

        def perturbed(log_z):
            w, s = fit(log_z)
            w = w.copy()
            w[0] += 1e-6
            return w, s

        monkeypatch.setattr(formfunc, "_fermi_fit", perturbed)
        st = fp.solve_fugacity(300, 0.5 * fp.fermi_energy(300))
        assert not formfunc._exp_sum_certified(st, 1e-8)
        assert formfunc.describe_methods(st) == {"coh_method": "laguerre", "inc_method": "convolution"}
        pt = transfers([0.0, 2.0, 40.0])
        for form, table in ((fp.coherent_form, Method.LAGUERRE_SUM), (fp.incoherent_form, Method.CONVOLUTION_SUM)):
            got = form(st, pt)
            assert got.tolist() == form(st, pt, table).tolist()

    def test_skewed_contraction_fails_cross_check(self, monkeypatch):
        # 300 atoms at 0.5 EF: n_eff is far below the contraction limit, so
        # the check compares with the contraction at the first x > 0
        st = fp.solve_fugacity(300, 0.5 * fp.fermi_energy(300))
        assert on_exp_sum(st)
        conv = _kernels.fc_weighted_sum
        monkeypatch.setattr(_kernels, "fc_weighted_sum", lambda w, n, x: conv(w, n, x) * (1.0 + 1e-3))
        with pytest.raises(ToleranceNotMet, match="auto cross-check failed at x=1: exp-sum"):
            fp.incoherent_form(st, transfers([1.0, 0.0]))
        assert ("auto_checked_inc", 1e-6) not in st._cache

    def test_no_fit_above_log_z_bound(self, monkeypatch):
        def refuse(log_z):
            raise AssertionError(f"fit tried at log z = {log_z}")

        monkeypatch.setattr(formfunc, "_fermi_fit", refuse)
        pt = transfers([0.0, 1.0, 30.0])
        for log_z in (formfunc._EXP_SUM_MAX_LOG_Z + 0.01, 6.0, 20.0):
            st = from_fugacity(log_z, 1.0, 60)
            fp.coherent_form(st, pt)
            fp.incoherent_form(st, pt)
            assert "exp_sum" not in st._cache
        # just below the bound the fit is tried
        with pytest.raises(AssertionError, match="fit tried"):
            fp.coherent_form(from_fugacity(formfunc._EXP_SUM_MAX_LOG_Z, 1.0, 60), pt)


class TestOneKernel:
    """Every closed-form path evaluates the same two term builders: the
    Maxwell-Boltzmann node (z, 1), the fugacity series' nodes (z^l, l)
    and the Fermi-Dirac fit."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        n_atoms=st_.integers(2, 10**6),
        t_over_ef=st_.floats(1e-3, 10.0),
        xs=st_.lists(st_.floats(0.0, 625.0), min_size=1, max_size=6),
    )
    @example(n_atoms=10**6, t_over_ef=10.0, xs=[0.0, 1e-3, 625.0])
    @example(n_atoms=2, t_over_ef=1e-3, xs=[0.5, 625.0])
    def test_mb_matches_closed_forms(self, n_atoms, t_over_ef, xs):
        st = fp.solve_fugacity(n_atoms, t_over_ef * fp.fermi_energy(n_atoms), "mb")
        x = np.array(xs)
        n, th = st.total_atoms, math.tanh(0.5 / st.tau)
        # the closed forms the builders replaced
        coh_want = n**2 * np.exp(-x / th)
        inc_want = n**2 * th**3 * np.exp(-x * th)
        pt = transfers(x)
        for m in (Method.CLOSED_FORM_MB, Method.POWER_SERIES, Method.AUTO):
            coh = fp.coherent_form(st, pt, m)
            inc = fp.incoherent_form(st, pt, m)
            assert np.abs(coh - coh_want).max() <= 1e-13 * n**2
            assert np.abs(inc - inc_want).max() <= 1e-13 * n**2 * th**3

    @pytest.mark.parametrize("z", [0.8, 0.9, 0.99])
    @pytest.mark.parametrize("tau", [3.0, 20.0])
    def test_series_matches_fit(self, z, tau):
        # both sum the untruncated occupations, the series through its
        # nodes (z^l, l), the fit through its own
        st = from_fugacity(math.log(z), tau, int(60 * tau))
        x = np.array([0.05, 0.5, 2.0, 8.0, 30.0, 120.0])
        pt = transfers(x)
        coh = fp.coherent_form(st, pt, Method.POWER_SERIES, 1e-12)
        inc = fp.incoherent_form(st, pt, Method.POWER_SERIES, 1e-12)
        assert np.abs(coh - formfunc._exp_sum_form(st, x, False)).max() <= 1e-11 * st.total_atoms**2
        assert np.abs(inc - formfunc._exp_sum_form(st, x, True)).max() <= 1e-11 * _incoherent_x0(st)

    def test_fit_matches_contraction(self, state_cache):
        # 10^6 atoms at 0.3 E_F: K = 18 terms, whose pair factors 1 - r r'
        # lost digits when they were formed from r = e^{-s/tau}
        st = state_cache(10**6, 0.3 * fp.fermi_energy(10**6))
        assert on_exp_sum(st)
        x = np.array([0.05, 0.5, 2.0, 8.0, 30.0])
        got = formfunc._exp_sum_form(st, x, True)
        want = formfunc._incoherent_conv(st, x, 1e-12)
        assert np.abs(got - want).max() <= 6e-12 * _incoherent_x0(st)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        log10_atoms=st_.floats(0.31, 6.0),
        t_over_ef=st_.floats(0.15, 0.8),
        xs=st_.lists(st_.floats(0.0, 625.0), min_size=1, max_size=6),
    )
    @example(log10_atoms=6.0, t_over_ef=0.25, xs=[0.05, 0.5, 2.0, 8.0, 30.0, 625.0])
    @example(log10_atoms=math.log10(61), t_over_ef=0.35, xs=[0.1, 3.0, 40.0])
    def test_fit_within_its_bound_of_table_sums(self, log10_atoms, t_over_ef, xs):
        # The fit's bound b = sum_n g(n) |P(n) - fit(n)| moves the coherent
        # amplitude by at most b and F2_in by at most 2b + b^2
        # (formfunc._exp_sum).  Each side adds its own error: the closed
        # forms eps sum |c| (as _exp_sum_certified estimates it), the
        # Laguerre recurrence about eps n_max N on the amplitude, and the
        # contraction its shell cutoff, 0.5 tol F2_in(0) at tol 1e-14.
        n_atoms = int(10**log10_atoms)
        st = fp.solve_fugacity(n_atoms, t_over_ef * fp.fermi_energy(n_atoms))
        assume(math.log(0.8) <= st.log_fugacity <= formfunc._EXP_SUM_MAX_LOG_Z)
        described = formfunc.describe_methods(st)
        assume(described["coh_method"] == formfunc._EXP_SUM)
        b, n, eps = described["fit_bound"], st.total_atoms, math.ulp(1.0)
        x = transfers(xs)
        amp = b + eps * np.abs(formfunc._exp_sum_terms(st, False)[0]).sum() + eps * st.n_max * n
        coh = fp.coherent_form(st, x)
        assert np.abs(coh - fp.coherent_form(st, x, Method.LAGUERRE_SUM)).max() <= amp * (2.0 * n + amp)
        floor = eps * np.abs(formfunc._exp_sum_terms(st, True)[0]).sum() + 0.5e-14 * _incoherent_x0(st)
        inc = fp.incoherent_form(st, x)
        assert np.abs(inc - fp.incoherent_form(st, x, Method.CONVOLUTION_SUM, 1e-14)).max() <= 2.0 * b + b * b + floor


class TestDecay:
    def test_coherent_collapses_at_back_scatter(self, state_cache):
        # phase matching: the coherent channel dies within a tiny forward
        # cone; at back-scatter nothing survives
        n_atoms = 10**6
        st = state_cache(n_atoms, 1.36 * fp.fermi_energy(n_atoms))
        coh0 = fp.coherent_form(st, point(0.0, 0.0))
        coh = fp.coherent_form(st, point(0.0, 625.0))
        assert coh / coh0 < 1e-20

    def test_incoherent_follows_thermal_envelope(self, state_cache):
        # the incoherent channel decays at the classical Doppler rate
        # tanh(1/(2 tau)) ~ 1/(2 kT); at 1.36 EF the back-scatter value is
        # still ~0.28 of the peak, matching the Maxwell-Boltzmann closed
        # form to the size of the exchange correction
        n_atoms = 10**6
        tau = 1.36 * fp.fermi_energy(n_atoms)
        st = state_cache(n_atoms, tau)
        inc0 = fp.incoherent_form(st, point(0.0, 0.0))
        inc = fp.incoherent_form(st, point(0.0, 625.0))
        envelope = math.exp(-625.0 * math.tanh(0.5 / tau))
        assert inc / inc0 == pytest.approx(envelope, rel=2e-2)


def valid_for(method, st):
    """Whether a forced method may run on the state."""
    if method is Method.POWER_SERIES:
        return st.statistics is fp.Statistics.MAXWELL_BOLTZMANN or st.log_fugacity < 0.0
    if method is Method.CLOSED_FORM_MB:
        return st.statistics is fp.Statistics.MAXWELL_BOLTZMANN
    if method is Method.QUAD_SUM:
        return st.n_max <= QUAD_SUM_CEILING
    return True


class TestInvariants:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        n_atoms=st_.integers(2, 5000),  # E_F = 0 at N = 1, so T/E_F needs N >= 2
        t_over_ef=st_.floats(0.01, 3.0),
        statistics=st_.sampled_from(["fd", "mb"]),
        x=st_.floats(0.0, 400.0),
        method=st_.sampled_from(list(Method)),
    )
    def test_form_function_bounds(self, n_atoms, t_over_ef, statistics, x, method):
        st = fp.solve_fugacity(n_atoms, t_over_ef * fp.fermi_energy(n_atoms), statistics)
        assume(valid_for(method, st))

        def forms(at):
            # the power series is accurate to the requested tolerance, which
            # must sit below the 1e-9 slack of the bounds
            pt = point(at, 0.0)
            return fp.coherent_form(st, pt, method, 1e-10), fp.incoherent_form(st, pt, method, 1e-10)

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
        assume(valid_for(method, st))
        trap = fp.TrapModel(kla=kla)
        # repeat the first points, so that x holds repeated values
        thetas = np.array(thetas + thetas[:2], dtype=np.float64)
        batch = fp.kinematics(trap, thetas, varpi)
        points = [fp.kinematics(trap, t, varpi) for t in thetas.tolist()]
        assert batch.tolist() == points
        for form in (fp.coherent_form, fp.incoherent_form):
            got = form(st, batch, method)
            assert isinstance(got, np.ndarray) and got.shape == thetas.shape
            want = [form(st, p, method) for p in points]
            assert all(isinstance(w, float) for w in want)
            assert got.tolist() == want

    def test_grid_shape(self, state_cache, trap):
        st = state_cache(1000, 1.0 * fp.fermi_energy(1000))
        thetas = np.linspace(0.0, math.pi, 4)
        varpis = np.linspace(-2.0, 2.0, 3)
        pt = fp.kinematics(trap, thetas[:, None], varpis[None, :])
        for form in (fp.coherent_form, fp.incoherent_form):
            got = form(st, pt)
            assert got.shape == (4, 3)
            for i, t in enumerate(thetas.tolist()):
                for j, v in enumerate(varpis.tolist()):
                    assert got[i, j] == form(st, fp.kinematics(trap, t, v))


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

    def h(s):
        return -np.expm1(-s / st.tau)

    acc, prev = 0.0, math.inf
    for total_l in range(2, 40_000):
        # pairs of nodes (z^l, l) with l + l' = total_l: weight z^l z^l' / h(total_l)^3
        # and rate h(l) h(l') / h(total_l)
        l1 = np.arange(1.0, total_l)
        l2 = total_l - l1
        h12 = h(l1 + l2)
        c = np.exp(l1 * st.log_fugacity) * np.exp(l2 * st.log_fugacity) / h12**3
        mag = float((np.exp(-x * (h(l1) * h(l2) / h12)) * c).sum()) if c[0] > 1e-304 else 0.0
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
    coh = fp.coherent_form(st, xs, Method.POWER_SERIES, 1e-10)
    inc = fp.incoherent_form(st, xs, Method.POWER_SERIES, 1e-10)
    peak = st.total_atoms**2
    for x, c, i in zip(xs.tolist(), coh.tolist(), inc.tolist()):
        assert abs(c - reference_coherent_series(st, x, 1e-10)) <= 1e-15 * peak
        assert i == reference_incoherent_series(st, x, 1e-10)


class TestMomentIdentities:
    """Moments over [0, inf) of the node paths' exponential sums
    (formfunc.node_terms), checked against sums over the occupation table
    alone, with neither the fit nor any quadrature on the table side.

    Incoherent: phase-space completeness gives int_0^inf |<a|D(x)|b>|^2 dx
    = 1 and int_0^inf x |<a|D(x)|b>|^2 dx = a + b + 1 (Cahill & Glauber,
    Phys. Rev. 177, 1857 (1969)), so with W(a, b) = sum_s (s+1) P(s+a)
    P(s+b) and the tails T_s = sum_{n>=s} P(n), U_s = sum_{n>=s} (n-s) P(n):
    int F2_in dx = sum_s (s+1) T_s^2 and int x F2_in dx = sum_s (s+1)
    (T_s^2 + 2 T_s U_s).  Coherent: int x e^{-x} L_n^(2) L_m^(2) dx =
    (k+1)(k+2)/2 with k = min(n, m), and int x^2 e^{-x} L_n^(2) L_m^(2) dx
    = delta_nm (n+1)(n+2).  An exponential sum's moments are int x^j c
    e^{-a x} dx = j! c/a^{j+1}.
    """

    @pytest.mark.parametrize("statistics", ["fd", "mb"])
    @pytest.mark.parametrize("t_over_ef", [0.01, 0.05, 0.1, 0.5, 1.0, 1.36])
    def test_node_terms_moments(self, state_cache, statistics, t_over_ef):
        st = state_cache(10**6, t_over_ef * fp.fermi_energy(10**6), fp.Statistics.parse(statistics))
        p = st.occupations
        s = np.arange(p.size, dtype=np.float64)
        tail = np.cumsum(p[::-1])[::-1]
        u = np.cumsum((s * p)[::-1])[::-1] - s * tail
        inc = formfunc.node_terms(st, Method.AUTO, True, 1e-8, 1e-16 * _incoherent_x0(st))
        coh = formfunc.node_terms(st, Method.AUTO, False, 1e-8, 1e-16 * st.total_atoms**2)
        if inc is None:
            # the degenerate Fermi-Dirac states are table paths
            assert statistics == "fd" and t_over_ef <= 0.1 and coh is None
            return
        c, a, _ = inc
        assert (c / a).sum().real == pytest.approx(np.sum((s + 1.0) * tail**2), rel=1e-12)
        assert (c / a**2).sum().real == pytest.approx(np.sum((s + 1.0) * (tail**2 + 2.0 * tail * u)), rel=1e-12)
        c, a, _ = coh
        above = np.append(tail[1:], 0.0)
        assert (c / a**2).sum().real == pytest.approx(
            np.sum(0.5 * (s + 1.0) * (s + 2.0) * (p * p + 2.0 * p * above)), rel=1e-12
        )
        assert (2.0 * c / a**3).sum().real == pytest.approx(np.sum((s + 1.0) * (s + 2.0) * p * p), rel=1e-12)
