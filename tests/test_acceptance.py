"""Acceptance suite: one test per release criterion, each printing a
pass line with the measured numbers.  Run with -s to see the lines.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import fermipulse as fp
from fermipulse import from_fugacity, oracle
from fermipulse.cli import main
from fermipulse.formfunc import Method


def origin():
    return 0.0


def point(x_x, x_z):
    return x_x + x_z


def test_criterion_01_coherent_normalization(state_cache):
    worst = 0.0
    for n_atoms in (10**2, 10**4, 10**6):
        ef = fp.fermi_energy(n_atoms)
        for f in (0.0016, 0.5, 1.36):
            st = state_cache(n_atoms, f * ef)
            v = fp.coherent_form(st, origin())
            worst = max(worst, abs(v / n_atoms**2 - 1.0))
    assert worst < 1e-10
    print(f"\n[PASS] criterion 1: F2_coh(0,0) = N^2, worst relative error {worst:.2e}")


def test_criterion_02_incoherent_peak(state_cache):
    n_atoms = 10**6
    st = state_cache(n_atoms, 1.36 * fp.fermi_energy(n_atoms))
    peak = fp.incoherent_form(st, origin()) / n_atoms
    assert 7.6e-3 <= peak <= 8.4e-3
    # classical estimate N/(2kT)^3 at the quoted inverse temperature
    kt = 1.0 / 4.036e-3
    mb_estimate = n_atoms / (2.0 * kt) ** 3
    assert mb_estimate == pytest.approx(8.2e-3, rel=1e-2)
    print(
        f"\n[PASS] criterion 2: F2_in(0,0)/N = {peak:.4e} in [7.6e-3, 8.4e-3]; "
        f"MB estimate {mb_estimate:.4e} vs 8.2e-3"
    )


def test_criterion_03_degenerate_limit(state_cache):
    n_atoms = 10**6
    st = state_cache(n_atoms, 0.0016 * fp.fermi_energy(n_atoms))
    peak = fp.incoherent_form(st, origin()) / n_atoms
    assert peak >= 0.98
    print(f"\n[PASS] criterion 3: F2_in(0,0)/N = {peak:.4f} >= 0.98 at 0.0016 EF")


def test_criterion_04_classical_crossover(state_cache):
    n_atoms = 10**4
    tau = 5.0 * fp.fermi_energy(n_atoms)
    fd = state_cache(n_atoms, tau)
    mb = fp.solve_fugacity(n_atoms, tau, "mb")
    assert fd.fugacity < 1.0
    for x in np.linspace(0.0, 625.0, 20):
        a = fp.coherent_form(fd, point(x, 0.0))
        b = fp.coherent_form(mb, point(x, 0.0))
        assert np.isclose(a, b, rtol=1e-2, atol=0.0), (x, a, b)
    print("\n[PASS] criterion 4: FD and MB coherent forms agree to 1e-2 at kT = 5 EF")


def test_criterion_05_oracle_equivalence(rng):
    # incoherent: brute six-fold sum vs direct four-index sum vs convolution
    worst_inc = 0.0
    for _ in range(20):
        z = float(rng.uniform(0.2, 5.0))
        tau = float(rng.uniform(0.3, 5.0))
        st = from_fugacity(math.log(z), tau, 6)
        basis = oracle.SmallTrapBasis.from_thermal(st, 6)
        dkx, dkz = rng.uniform(0.0, 3.0, 2)
        want = oracle.brute_incoherent(basis, (dkx, 0.0, dkz))
        pt = point(dkx**2, dkz**2)
        quad = fp.incoherent_form(st, pt, Method.QUAD_SUM)
        conv = fp.incoherent_form(st, pt, Method.CONVOLUTION_SUM)
        worst_inc = max(worst_inc, abs(quad / want - 1.0), abs(conv / want - 1.0))
    assert worst_inc < 1e-10

    # coherent: brute triple sum vs Laguerre sum vs fugacity power series;
    # the series has no shell cutoff, so the states are cold enough that
    # shells beyond the basis carry < 1e-13 of the atoms
    worst_coh = 0.0
    for _ in range(20):
        z = float(rng.uniform(0.05, 0.95))
        tau = float(rng.uniform(0.15, 0.28))
        st = from_fugacity(math.log(z), tau, 8)
        basis = oracle.SmallTrapBasis.from_thermal(st, 8)
        dk = rng.uniform(-1.5, 1.5, 3)
        want = oracle.brute_coherent(basis, dk)
        x = float(dk @ dk)
        pt = point(x, 0.0)
        lag = fp.coherent_form(st, pt, Method.LAGUERRE_SUM)
        pws = fp.coherent_form(st, pt, Method.POWER_SERIES, 1e-13)
        worst_coh = max(worst_coh, abs(lag / want - 1.0), abs(pws / want - 1.0))
    assert worst_coh < 1e-10
    print(
        f"\n[PASS] criterion 5: oracle equivalence, worst relative deviation "
        f"incoherent {worst_inc:.2e}, coherent {worst_coh:.2e}"
    )


def test_criterion_06_appendix_identities(rng):
    worst_add = 0.0
    for _ in range(12):
        n = int(rng.integers(0, 31))
        xs = tuple(rng.uniform(0.0, 20.0, 3))
        worst_add = max(worst_add, fp.laguerre_addition_check(n, xs))
    assert worst_add < 1e-10

    worst_row = 0.0
    for n in (0, 10, 25, 50):
        for x in (0.5, 10.0, 50.0):
            worst_row = max(worst_row, abs(oracle.franck_condon_row_sum(n, x) - 1.0))
    assert worst_row < 1e-8
    print(
        f"\n[PASS] criterion 6: addition-theorem residual {worst_add:.2e}, "
        f"unitarity defect {worst_row:.2e}"
    )


def test_criterion_07_single_atom_total(trap, pulse):
    ic = quad(lambda w: fp.single_atom_spectra(w)[0], -12.0, 12.0, epsabs=0.0, epsrel=1e-9)[0]
    ii = quad(lambda w: fp.single_atom_spectra(w)[1], -12.0, 12.0, epsabs=0.0, epsrel=1e-9)[0]
    assert ic == pytest.approx(4.0 / 3.0, rel=1e-6)
    assert ii == pytest.approx(8.0 / 3.0, rel=1e-6)

    st = fp.solve_fugacity(1, 1.0)
    n_coh, n_in = fp.total_photons(st, trap, pulse)
    want = (4.0 / math.pi) * trap.natural_width_ratio
    total = n_coh + n_in
    assert total == pytest.approx(want, rel=1e-3)
    print(
        f"\n[PASS] criterion 7: line integrals ({ic:.8f}, {ii:.8f}); single-atom "
        f"total {total:.6e} vs (4/pi)(gamma/gamma_L) = {want:.6e}"
    )


def test_criterion_08_optical_theorem_point(trap, state_cache):
    n_atoms = 10**4
    vals = []
    for f in (0.001, 0.5, 1.0):
        st = state_cache(n_atoms, f * fp.fermi_energy(n_atoms))
        vals.append(fp.frequency_distribution(st, trap, 0.0)[1])
    spread = (max(vals) - min(vals)) / min(vals)
    assert spread < 1e-12
    print(f"\n[PASS] criterion 8: dN_in/dw(0) spread across temperatures {spread:.2e}")


def test_criterion_09_backscatter_insensitivity(trap, state_cache):
    n_atoms = 10**4
    vals = []
    for f in (0.001, 0.5, 1.0):
        st = state_cache(n_atoms, f * fp.fermi_energy(n_atoms))
        vals.append(fp.angular_distribution(st, trap, math.radians(150.0))[1])
    spread = (max(vals) - min(vals)) / min(vals)
    assert spread < 1e-2
    print(f"\n[PASS] criterion 9: dN_in/dtheta(150 deg) spread {spread:.2e} < 1%")


def test_criterion_10_total_photon_sweep(trap, pulse, state_cache):
    n_atoms = 10**6
    ef = fp.fermi_energy(n_atoms)
    fractions = (0.01, 0.05, 0.1, 0.5, 1.0, 1.36)
    fd_coh = {}
    fd_in = {}
    for f in fractions:
        st = state_cache(n_atoms, f * ef)
        fd_coh[f], fd_in[f] = fp.total_photons(st, trap, pulse)

    seq = [fd_coh[f] for f in fractions]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(seq, seq[1:])), seq
    flattening = abs(fd_coh[0.01] - fd_coh[0.05]) / fd_coh[0.01]
    assert flattening < 0.05

    mb_states = {
        f: fp.solve_fugacity(n_atoms, f * ef, "mb") for f in (0.05, 1.36)
    }
    mb_coh = {f: fp.total_photons(s, trap, pulse)[0] for f, s in mb_states.items()}
    assert mb_coh[0.05] > fd_coh[0.05]
    assert mb_coh[1.36] == pytest.approx(fd_coh[1.36], rel=2e-2)
    print(
        "\n[PASS] criterion 10: N_coh(FD) non-increasing in T "
        f"{[f'{v:.1f}' for v in seq]}, flattening {flattening:.2%}, "
        f"MB/FD at 0.05 EF = {mb_coh[0.05] / fd_coh[0.05]:.3f}, "
        f"at 1.36 EF = {mb_coh[1.36] / fd_coh[1.36]:.4f}"
    )


def test_criterion_11_scaling_laws(trap, pulse, state_cache):
    res = {}
    for n_atoms in (1000, 2000):
        st = state_cache(n_atoms, 1.36 * fp.fermi_energy(n_atoms))
        _, n_in = fp.total_photons(st, trap, pulse)
        c_coh, _ = fp.differential(st, trap, 0.0, 1.0)
        res[n_atoms] = (n_in, c_coh)
    in_ratio = res[2000][0] / res[1000][0]
    coh_ratio = res[2000][1] / res[1000][1]
    assert in_ratio == pytest.approx(2.0, rel=0.05)
    assert coh_ratio == pytest.approx(4.0, rel=0.05)
    print(
        f"\n[PASS] criterion 11: doubling N multiplies N_in by {in_ratio:.4f} "
        f"and the forward coherent differential by {coh_ratio:.4f}"
    )


def test_criterion_12_determinism_and_hygiene(tmp_path):
    args = [
        "spectrum",
        "--atoms", "10000",
        "--temperature", "0.001EF,0.5EF,1.0EF",
        "--grid", "13x13",
        "--strict",
    ]
    rc1 = main(args + ["--output", str(tmp_path / "a")])
    rc2 = main(args + ["--output", str(tmp_path / "b")])
    assert rc1 == rc2 == 0
    n_files = 0
    for fa in sorted(tmp_path.glob("a_*.csv")):
        fb = tmp_path / ("b_" + fa.name[2:])
        assert fa.read_bytes() == fb.read_bytes()
        for line in fa.read_text().splitlines()[2:]:
            for cell in line.split(","):
                assert math.isfinite(float(cell))
        n_files += 1
    assert n_files == 6
    print(f"\n[PASS] criterion 12: {n_files} strict-mode CSVs byte-identical, all cells finite")
