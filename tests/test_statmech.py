import json
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import expit

import fermipulse as fp
from fermipulse import statmech
from fermipulse.statmech import _degeneracy_array, _occupations


def brute_degeneracy(n):
    return sum(
        1
        for i in range(n + 1)
        for j in range(n + 1)
        for k in range(n + 1)
        if i + j + k == n
    )


class TestDegeneracy:
    def test_small_values(self):
        assert fp.degeneracy(0) == 1
        assert fp.degeneracy(1) == 3
        assert fp.degeneracy(5) == 21

    @pytest.mark.parametrize("n", range(9))
    def test_matches_brute_count(self, n):
        assert fp.degeneracy(n) == brute_degeneracy(n)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            fp.degeneracy(-1)


class TestFermiEnergy:
    def test_exact_shell_values(self):
        assert fp.fermi_energy(1) == 0.0
        assert fp.fermi_energy(4) == 1.0
        assert fp.fermi_energy(10) == 2.0
        assert fp.fermi_energy(11) == 3.0

    def test_continuum_value(self):
        ef = fp.fermi_energy(10**6)
        assert ef == pytest.approx((6e6) ** (1 / 3), rel=1e-14)
        # consistency with the quoted classical inverse temperature at
        # kT/EF = 1.36: 1/(kT) = 4.036e-3 trap units
        assert ef == pytest.approx((1 / 4.036e-3) / 1.364, rel=2e-3)


class TestOccupations:
    def test_half_at_zero_shell_unit_fugacity(self):
        st = fp.from_fugacity(0.0, 1.7, 30)
        assert fp.occupation(0, st) == pytest.approx(0.5, abs=1e-15)

    def test_saturation(self):
        st = fp.from_fugacity(600.0, 1.0, 10)
        assert fp.occupation(0, st) == pytest.approx(1.0, abs=1e-12)

    def test_dilute_limit(self):
        st = fp.from_fugacity(math.log(1e-6), 1.0, 40)
        assert fp.occupation(0, st) == pytest.approx(1e-6, rel=1e-5)

    def test_zero_beyond_table(self):
        st = fp.from_fugacity(0.0, 1.0, 5)
        assert fp.occupation(6, st) == 0.0

    def test_non_increasing(self, state_cache):
        st = state_cache(1000, 3.7)
        occ = st.occupations
        assert np.all(np.diff(occ) <= 0.0)

    def test_fermi_dirac_matches_expit(self):
        # u = log z - n/tau runs from 800 down to -800 in steps of 8e-4
        n_max, tau = 2_000_000, 1250.0
        got = _occupations(fp.Statistics.FERMI_DIRAC, 800.0, tau, n_max)
        want = expit(800.0 - np.arange(n_max + 1, dtype=np.float64) / tau)
        # relative below the normal range means nothing, and expit flushes
        # some subnormal values to zero that the two branches keep
        assert (np.abs(got - want) <= 4.0 * math.ulp(1.0) * want + np.finfo(np.float64).tiny).all()

    def test_fermi_dirac_far_from_the_edge_is_silent(self):
        # u = +1e4 and -1e4: neither branch may overflow
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            occ = _occupations(fp.Statistics.FERMI_DIRAC, 1e4, 5e-5, 1)
        assert occ.tolist() == [1.0, 0.0]


class TestSolve:
    def test_mb_closed_form(self):
        st = fp.solve_fugacity(1, 10.0, "mb")
        assert st.fugacity == pytest.approx((1 - math.exp(-0.1)) ** 3, rel=1e-13)

    def test_fd_agrees_with_mb_when_dilute(self):
        fd = fp.solve_fugacity(1, 10.0)
        mb = fp.solve_fugacity(1, 10.0, "mb")
        assert fd.fugacity == pytest.approx(mb.fugacity, rel=1e-3)

    def test_shell_filling_at_low_temperature(self):
        st = fp.solve_fugacity(4, 0.05)
        assert fp.occupation(0, st) > 0.999
        assert fp.occupation(1, st) > 0.999
        assert fp.occupation(2, st) < 1e-3

    def test_classical_regime_above_fermi_energy(self):
        st = fp.solve_fugacity(10**6, 247.8)
        assert st.fugacity < 1.0

    @pytest.mark.parametrize("n_atoms", [1, 2, 4, 10, 1001, 10**4, 10**6, 10**7])
    @pytest.mark.parametrize("t_over_ef", [1e-4, 1e-3, 0.3, 1.0, 10.0, 1e2])
    def test_number_conservation(self, n_atoms, t_over_ef):
        # E_F = 0 at one atom: there t_over_ef is in trap units
        tau = t_over_ef * max(fp.fermi_energy(n_atoms), 1.0)
        st = fp.solve_fugacity(n_atoms, tau)
        g = _degeneracy_array(st.n_max)
        assert float(g @ st.occupations) == pytest.approx(n_atoms, rel=1e-10)

    def test_classical_limit_occupations(self):
        # z < 1e-3: FD and MB occupations agree at every level
        fd = fp.solve_fugacity(10, 50.0)
        mb = fp.solve_fugacity(10, 50.0, "mb")
        assert fd.fugacity < 1e-3
        n = min(fd.n_max, mb.n_max)
        np.testing.assert_allclose(fd.occupations[: n + 1], mb.occupations[: n + 1], rtol=1e-3)

    def test_total_variance_vanishes_at_zero_temperature(self):
        # the number variance sum g f(1 - f), the Newton solve's slope,
        # falls as the closed-shell gas cools
        variances = []
        for tau in (0.5, 0.1, 0.02):
            st = fp.solve_fugacity(10, tau)
            g = _degeneracy_array(st.n_max)
            variances.append(float(g @ (st.occupations * (1.0 - st.occupations))))
        assert variances[0] > variances[1] > variances[2]
        assert variances[2] < 1e-6

    def test_monotone_constraint_means_unique_root(self):
        # the number sum is strictly increasing in z
        taus = [0.4, 3.0]
        for tau in taus:
            zs = np.linspace(-3.0, 3.0, 30)
            totals = []
            for lz in zs:
                st = fp.from_fugacity(float(lz), tau, 80)
                totals.append(st.total_atoms)
            assert all(b > a for a, b in zip(totals, totals[1:]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            fp.solve_fugacity(0, 1.0)
        with pytest.raises(ValueError):
            fp.solve_fugacity(10, -1.0)

    def test_deep_degeneracy_log_fugacity(self):
        # mu sits between filled shells; log z = mu / tau is huge but finite
        st = fp.solve_fugacity(10, 0.002)
        assert st.log_fugacity > 500.0
        assert math.isinf(st.fugacity)
        g = _degeneracy_array(st.n_max)
        assert float(g @ st.occupations) == pytest.approx(10.0, rel=1e-10)

    def test_shell_cutoff_is_least_below_bound(self):
        # one bisection on [n_floor, cap]: on a grid of atom numbers,
        # temperatures from 1e-4 to 100 E_F and four fugacities each, the
        # cutoff is the least n >= n_floor whose tail bound is below 1e-12 N
        from fermipulse.statmech import _log_shell_tail, _shell_cutoff

        for n_atoms in (1, 2, 10, 100, 1000, 1001, 10**4, 10**5, 10**6, 3 * 10**6, 10**7):
            ef = fp.fermi_energy(n_atoms)
            for tau in np.geomspace(1e-4, 1e2, 11) * max(ef, 1.0):
                n_floor = math.ceil(ef + 40.0 * tau) + 1
                log_z_mb = math.log(n_atoms) + 3.0 * math.log(-math.expm1(-1.0 / tau))
                for log_z in (log_z_mb, log_z_mb + 0.5, 0.0, ef / tau):
                    n = _shell_cutoff(log_z, tau, n_atoms, n_floor)
                    target = math.log(1e-12 * n_atoms)
                    assert n >= n_floor and _log_shell_tail(log_z, tau, n) < target
                    assert n == n_floor or _log_shell_tail(log_z, tau, n - 1) >= target

    def test_shell_sums_independent_of_blas_threads(self, package_env):
        # n_max = 10068: above 10,000 elements OpenBLAS splits a dot
        # product across its threads, which would change the summation order
        script = (
            "import json, fermipulse as fp\n"
            "from fermipulse.formfunc import _incoherent_x0\n"
            "st = fp.solve_fugacity(10**6, 1.36 * fp.fermi_energy(10**6))\n"
            "print(json.dumps([st.n_max, st.log_fugacity.hex(), st.total_atoms.hex(), _incoherent_x0(st).hex()]))\n"
        )
        runs = []
        for threads in ("1", "2"):
            env = dict(package_env, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120, check=True
            )
            runs.append(json.loads(proc.stdout))
        assert runs[0][0] > 10_000
        assert runs[0] == runs[1]


# atom numbers and temperatures (in E_F, trap units at one atom) of the
# solve's pass counts and bracket
_GRID_ATOMS = (1, 2, 3, 4, 10, 100, 1000, 1001, 10**4, 3 * 10**4, 10**5, 10**6, 10**7)
_GRID_T_OVER_EF = np.geomspace(1e-4, 1e2, 13).tolist()


def _counted_solve(n_atoms, tau):
    """(state, number of occupation tables the solve built)."""
    passes = []

    def counted(*args):
        passes.append(args)
        return _occupations(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statmech, "_occupations", counted)
        st = fp.solve_fugacity(n_atoms, tau)
    return st, len(passes)


@pytest.fixture(scope="module")
def solved_grid():
    """(n_atoms, tau, n_max, passes) over the grid."""
    rows = []
    for n_atoms in _GRID_ATOMS:
        for t in _GRID_T_OVER_EF:
            tau = t * max(fp.fermi_energy(n_atoms), 1.0)
            st, passes = _counted_solve(n_atoms, tau)
            rows.append((n_atoms, tau, st.n_max, passes))
    return rows


class TestNewtonSolve:
    """The Fermi-Dirac solve takes Newton steps in log z inside a bracket
    closed before its first pass; each pass builds one occupation table."""

    def test_passes_per_state(self, solved_grid):
        # one atom at tau <= 0.01 climbs the e^-x tail of a flat N(log z)
        # one unit per pass, to 1e-12 N in 28 passes
        for n_atoms, tau, _, passes in solved_grid:
            assert passes <= (30 if n_atoms == 1 else 20), (n_atoms, tau, passes)

    def test_passes_on_the_longest_table(self):
        st, passes = _counted_solve(10**7, 2e5)
        assert st.n_max > 8 * 10**6 and passes <= 5
        assert abs(st.total_atoms - 10**7) <= 1e-10 * 10**7

    def test_bracket_closed_on_own_table(self, solved_grid):
        # N falls short at the Maxwell-Boltzmann fugacity and is exceeded
        # with every shell full to e^-40
        for n_atoms, tau, n_max, _ in solved_grid:
            log_z_mb = math.log(n_atoms) + 3.0 * math.log(-math.expm1(-1.0 / tau))
            low = fp.from_fugacity(log_z_mb, tau, n_max).total_atoms
            high = fp.from_fugacity(n_max / tau + 40.0, tau, n_max).total_atoms
            assert low < n_atoms < high, (n_atoms, tau)


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize(
    "call",
    [
        lambda v: fp.degeneracy(v),
        lambda v: fp.occupation(v, fp.from_fugacity(0.0, 1.0, 3)),
        lambda v: fp.solve_fugacity(v, 1.0),
        lambda v: fp.from_fugacity(0.0, 1.0, v),
        lambda v: fp.laguerre_scaled(v, 2, 1.0),
        lambda v: fp.franck_condon_sq(v, 1, 1.0),
        lambda v: fp.fc_matrix(v, 1.0),
    ],
    ids=["degeneracy", "occupation", "solve_fugacity", "from_fugacity", "laguerre_scaled", "franck_condon_sq", "fc_matrix"],
)
def test_non_finite_count_raises_value_error(call, value):
    # each count or index is checked once, by statmech._checked_int; inf
    # once raised OverflowError from int()
    with pytest.raises(ValueError, match="must be a"):
        call(value)
