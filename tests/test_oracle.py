import math

import mpmath
import numpy as np
import pytest

import fermipulse as fp
from fermipulse import formfunc, from_fugacity, oracle
from fermipulse.formfunc import Method, _incoherent_x0


class TestDisplacementOracle:
    def test_diagonal_matches_specfun(self, rng):
        for _ in range(10):
            n = int(rng.integers(0, 8))
            x = float(rng.uniform(0.0, 6.0))
            want = fp.laguerre_scaled(n, 0, x)
            assert oracle.diagonal_element(n, x) == pytest.approx(want, rel=1e-12)

    def test_prob_matches_specfun(self, rng):
        for _ in range(20):
            n = int(rng.integers(0, 9))
            m = int(rng.integers(0, 9))
            x = float(rng.uniform(0.0, 9.0))
            assert oracle.displacement_prob(n, m, x) == pytest.approx(
                fp.franck_condon_sq(n, m, x), rel=1e-11, abs=1e-300
            )

    def test_sum_rule_closure(self, rng):
        for _ in range(6):
            level = tuple(int(v) for v in rng.integers(0, 6, 3))
            dk = rng.uniform(-1.7, 1.7, 3)
            assert oracle.sum_rule_residual(level, dk, 40) < 1e-6


class TestBruteCoherent:
    def test_zero_transfer_counts_atoms(self):
        st = from_fugacity(0.3, 1.1, 5)
        basis = oracle.SmallTrapBasis.from_thermal(st, 5)
        got = oracle.brute_coherent(basis, (0.0, 0.0, 0.0))
        assert got == pytest.approx(st.total_atoms**2, rel=1e-12)

    def test_single_ground_atom_is_gaussian(self):
        basis = oracle.SmallTrapBasis.single_atom((0, 0, 0), 3)
        dk = (0.7, 0.3, 1.1)
        x = sum(v * v for v in dk)
        assert oracle.brute_coherent(basis, dk) == pytest.approx(math.exp(-x), rel=1e-12)

    def test_equivalence_with_fast_paths(self, rng):
        st = from_fugacity(math.log(0.7), 0.25, 8)
        basis = oracle.SmallTrapBasis.from_thermal(st, 8)
        for _ in range(10):
            dk = rng.uniform(-1.5, 1.5, 3)
            want = oracle.brute_coherent(basis, dk)
            lag = fp.coherent_form(st, float(dk @ dk), Method.LAGUERRE_SUM)
            assert lag == pytest.approx(want, rel=1e-10)


class TestBruteIncoherent:
    def test_zero_transfer_is_pair_sum(self):
        st = from_fugacity(0.9, 0.8, 4)
        basis = oracle.SmallTrapBasis.from_thermal(st, 4)
        got = oracle.brute_incoherent(basis, (0.0, 0.0, 0.0))
        occ = st.occupations
        want = sum(fp.degeneracy(n) * occ[n] ** 2 for n in range(5))
        assert got == pytest.approx(want, rel=1e-12)

    def test_single_atom_identity(self):
        # one atom in the ground level: sum_m |eta_0m|^2 = 1, so the
        # blocked (1-N) form converges to 1 - e^{-x}
        basis = oracle.SmallTrapBasis.single_atom((0, 0, 0), 2)
        dk = (0.6, 0.2, 0.9)
        x = sum(v * v for v in dk)
        nn = oracle.brute_incoherent(basis, dk)
        assert nn == pytest.approx(math.exp(-x), rel=1e-12)
        blocked = oracle.brute_incoherent_blocked(basis, dk, 16)
        assert blocked == pytest.approx(1.0 - math.exp(-x), rel=1e-6)

    def test_blocked_equals_rowsum_minus_pair_form(self, rng):
        # the (1-N) and N N' representations differ exactly by the
        # occupation-weighted sum-rule term
        st = from_fugacity(math.log(2.0), 0.9, 3)
        basis = oracle.SmallTrapBasis.from_thermal(st, 3)
        dk = rng.uniform(-1.0, 1.0, 3)
        m_top = 14
        blocked = oracle.brute_incoherent_blocked(basis, dk, m_top)
        xs = [v * v for v in dk]
        rowsum = 0.0
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    w = basis.occupations[i, j, k]
                    if w == 0.0:
                        continue
                    s = 1.0
                    for n_axis, x in zip((i, j, k), xs):
                        s *= sum(oracle.displacement_prob(n_axis, m, x) for m in range(m_top + 1))
                    rowsum += w * s
        want = rowsum - oracle.brute_incoherent(basis, dk)
        assert blocked == pytest.approx(want, rel=1e-11)

    def test_equivalence_with_fast_paths(self, rng):
        # the brute sum at a physical (dkx, 0, dkz) against both fast paths,
        # which see only x: the rotation invariance both rely on
        for z, tau in ((0.3, 0.5), (0.3, 5.0), (3.0, 0.5), (3.0, 5.0)):
            st = from_fugacity(math.log(z), tau, 6)
            basis = oracle.SmallTrapBasis.from_thermal(st, 6)
            for _ in range(3):
                dkx, dkz = rng.uniform(0.0, 2.5, 2)
                want = oracle.brute_incoherent(basis, (dkx, 0.0, dkz))
                x = dkx**2 + dkz**2
                q = fp.incoherent_form(st, x, Method.QUAD_SUM)
                c = fp.incoherent_form(st, x, Method.CONVOLUTION_SUM)
                assert q == pytest.approx(want, rel=1e-10)
                assert c == pytest.approx(want, rel=1e-10)

    def test_dk_y_symmetry_reduction(self, rng):
        # the fast paths assume dk_y = 0; rotating the transverse component
        # into the x axis must leave the brute answer unchanged
        st = from_fugacity(0.4, 1.2, 5)
        basis = oracle.SmallTrapBasis.from_thermal(st, 5)
        for _ in range(4):
            dkx, dky, dkz = rng.uniform(0.0, 1.2, 3)
            rotated = (math.hypot(dkx, dky), 0.0, dkz)
            a = oracle.brute_incoherent(basis, (dkx, dky, dkz))
            b = oracle.brute_incoherent(basis, rotated)
            assert a == pytest.approx(b, rel=1e-11)
            ac = oracle.brute_coherent(basis, (dkx, dky, dkz))
            bc = oracle.brute_coherent(basis, rotated)
            assert ac == pytest.approx(bc, rel=1e-11)

    def test_basis_validation(self):
        with pytest.raises(ValueError):
            oracle.SmallTrapBasis(9, np.zeros((10, 10, 10)))
        with pytest.raises(ValueError):
            oracle.SmallTrapBasis(3, np.zeros((2, 2, 2)))


def mp_node_sums(w, s, tau, xs, size):
    """(F2_coh, F2_in) at each x of the occupations sum_j w_j e^{-s_j n/tau},
    summed in mpmath at the working precision: the amplitude sum_j w_j/h_j^3
    e^{-x (1/h_j - 1/2)} squared, and the pairs j <= k with j + k + 2 <=
    size, w_j w_k/h_jk^3 e^{-x h_j h_k/h_jk}, off-diagonal ones doubled
    (h = 1 - e^{-s/tau}, h_jk that of s_j + s_k).  The pairs are written
    from the nodes, apart from the Hankel image (c/a^3, 1/a) of the
    squared amplitude that formfunc sums for F2_in."""
    w = [mpmath.mpc(v) for v in w]
    s = [mpmath.mpc(v) for v in s]
    h = [1 - mpmath.exp(-sj / tau) for sj in s]
    pairs = [(j, k) for j in range(len(w)) for k in range(j, len(w)) if j + k + 2 <= size]
    h_pair = [1 - mpmath.exp(-(s[j] + s[k]) / tau) for j, k in pairs]
    out = []
    for x in xs.tolist():
        x = mpmath.mpf(x)
        amp = mpmath.fsum(wj / hj**3 * mpmath.exp(-x * (1 / hj - mpmath.mpf(0.5))) for wj, hj in zip(w, h))
        inc = mpmath.fsum(
            (1 if j == k else 2) * w[j] * w[k] / hjk**3 * mpmath.exp(-x * h[j] * h[k] / hjk)
            for (j, k), hjk in zip(pairs, h_pair)
        )
        out.append((float(mpmath.re(amp) ** 2), float(mpmath.re(inc))))
    return np.array(out)


def unfold(w, s):
    """The full node set of a folded fit Re sum_k w_k e^{-s_k u}: a real
    node with the real part of its weight, and each complex node as the
    conjugate pair (w/2, s), (conj w/2, conj s).  Halving and conjugation
    are exact, so the pair sums to the folded term, and the oracle sums
    the nodes as a fit of a real function without the fold it checks."""
    real = s.imag == 0.0
    half = 0.5 * w[~real]
    return (
        np.concatenate([w[real].real, half, np.conj(half)]),
        np.concatenate([s[real], s[~real], np.conj(s[~real])]),
    )


class TestExtendedPrecision:
    """The node paths against their own nodes summed in mpmath at 50
    digits: Fermi-Dirac states of 56 and 300 atoms, both channels, x from 0
    to 625, through the branch (which takes x = 0 too; the public form
    functions return the occupation table's sums there).

    At 1 and 3 E_F (z < 1) the forced power series must land within
    8 eps of each channel's peak (N^2, F2_in(0)): its cut leaves at most
    eps of the peak, and its sums add round-off of the same order.  The
    oracle takes the series' nodes ((-1)^(l-1) z^l, l) until their tail
    falls below 1e-32 of the peak.  At 0.5 E_F, z > 1 and there is no
    series; the auto path, the exponential fit, its stored conjugate
    pairs unfolded for the oracle (``unfold``), must land within 4 times
    its round-off floor, eps sum |c| on the amplitude (d, moving F2_coh by
    d (2 sqrt(F2_coh) + d)) and on F2_in's terms, the image of the pairs.
    """

    XS = np.array([0.0, 1e-3, 0.1, 1.0, 5.0, 20.0, 60.0, 150.0, 300.0, 625.0])

    @staticmethod
    def series_nodes(st):
        z, tau = st.fugacity, st.tau
        peak = min(st.total_atoms, _incoherent_x0(st))
        size = 1
        while z**size * size / (-math.expm1(-size / tau)) ** 3 / (1.0 - z) ** 2 > 1e-32 * peak:
            size += 1
        return [(-1) ** (l - 1) * mpmath.mpf(z) ** l for l in range(1, size + 1)], list(range(1, size + 1)), size

    @pytest.mark.parametrize("n_atoms", [56, 300])
    @pytest.mark.parametrize("t_over_ef", [0.5, 1.0, 3.0])
    def test_node_paths_match_extended_precision(self, n_atoms, t_over_ef):
        st = fp.solve_fugacity(n_atoms, t_over_ef * fp.fermi_energy(n_atoms))
        eps = math.ulp(1.0)
        with mpmath.workdps(50):
            if st.log_fugacity < 0.0:
                path = Method.POWER_SERIES.value
                w, s, size = self.series_nodes(st)
            else:
                path = formfunc._EXP_SUM
                (w, s), size = unfold(*formfunc._exp_sum(st)[:2]), math.inf
            want = mp_node_sums(w, s, mpmath.mpf(st.tau), self.XS, size)
        coh = formfunc._branch(st, path, False, 1e-8, self.XS)
        inc = formfunc._branch(st, path, True, 1e-8, self.XS)
        if path == Method.POWER_SERIES.value:
            assert np.abs(coh - want[:, 0]).max() <= 8.0 * eps * st.total_atoms**2
            assert np.abs(inc - want[:, 1]).max() <= 8.0 * eps * _incoherent_x0(st)
        else:
            d = eps * np.abs(formfunc._exp_sum_terms(st)[0]).sum()
            assert (np.abs(coh - want[:, 0]) <= 4.0 * d * (2.0 * np.sqrt(want[:, 0]) + d)).all()
            image, _ = formfunc._node_terms(st, path, True)
            pairs = eps * sum(np.abs(c).sum() for c, _ in image)
            assert np.abs(inc - want[:, 1]).max() <= 4.0 * pairs


class TestClosedShell:
    """At T = 0 a closed-shell gas, N = C(n_F + 3, 3), fills shells 0..n_F
    exactly, and since sum_{n <= n_F} L_n^(2) = L_{n_F}^(3) the coherent
    amplitude is e^{-x/2} L_{n_F}^(3)(x), free of the occupation table.
    At tau <= 0.01 the open shells hold less than e^{-50}; the table path
    lands within 8e-17 N^2 of mpmath's value squared (up to 1e-12 N^2 at
    tau = 0.02, where finite-temperature terms enter)."""

    XS = np.linspace(0.0, 400.0, 401)

    @pytest.mark.parametrize("tau", [0.01, 1e-4])
    @pytest.mark.parametrize("n_fermi", [5, 20, 60])
    def test_table_path_matches_closed_form(self, n_fermi, tau):
        n = math.comb(n_fermi + 3, 3)
        st = fp.solve_fugacity(n, tau)
        with mpmath.workdps(40):
            want = np.array(
                [float((mpmath.exp(-mpmath.mpf(x) / 2) * mpmath.laguerre(n_fermi, 3, x)) ** 2) for x in self.XS.tolist()]
            )
        assert want[0] == n * n
        for method in ("auto", "laguerre"):
            got = fp.coherent_form(st, self.XS, method)
            assert np.abs(got - want).max() <= 1e-12 * n * n
