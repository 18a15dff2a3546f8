"""Reference implementations that the fast paths are checked against.

Everything here favors being obviously correct over being fast:

* checked scalar entry points to the ``_kernels`` recurrences.  Laguerre
  values are the scaled e^{-x/2} L_n^alpha(x), polynomially bounded in n
  where the unscaled polynomials overflow.  Squared displacement
  (Franck-Condon) elements, with mn = min(n, m) and d = |n - m|, are
  |<n|D(xi)|m>|^2 = (mn!/(mn+d)!) x^d e^{-x} [L_mn^d(x)]^2, x = |xi|^2;
* independent checks on them: the log-gamma form of those elements, the
  Laguerre addition theorem and the unitarity row sum;
* brute sums for per-axis cutoffs of at most 8: explicit occupation
  tables, factorial-series displacement elements and plain nested loops
  over all level triples.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .statmech import _checked_int, occupation


def _check_x(x):
    if x < 0.0 or not math.isfinite(x):
        raise ValueError(f"x must be finite and >= 0, got {x!r}")


def laguerre_scaled_table(n_max, alpha, x):
    """Array of e^{-x/2} L_n^alpha(x) for n = 0..n_max, by forward
    recurrence on the scaled sequence."""
    n_max = _checked_int("n", n_max)
    alpha = _checked_int("alpha", alpha)
    _check_x(x)
    return np.fromiter(_kernels._laguerre_rows(n_max, float(alpha), float(x)), np.float64, n_max + 1)


def laguerre_scaled(n, alpha, x):
    """e^{-x/2} L_n^alpha(x), the last entry of its table."""
    return float(laguerre_scaled_table(n, alpha, x)[-1])


def fc_matrix(size, x):
    """Dense table M[n, m] = |<n|D(xi)|m>|^2 for n, m = 0..size."""
    size = _checked_int("size", size)
    _check_x(x)
    return _kernels.fc_matrix(size, float(x))


def franck_condon_sq(n, m, x):
    """|<n|D(xi)|m>|^2 with x = |xi|^2, symmetric in (n, m), in [0, 1]:
    element (n, m) of ``fc_matrix(max(n, m), x)``."""
    n, m = _checked_int("n", n), _checked_int("m", m)
    return float(fc_matrix(max(n, m), x)[n, m])


def franck_condon_sq_loggamma(n, m, x):
    """Direct log-gamma evaluation of |<n|D(xi)|m>|^2.

    Independent of the amplitude recurrence; used to validate it.  The
    prefactor and the squared Laguerre factor are multiplied in log space,
    exp(log_pref + 2 log|L|), so a tiny prefactor (e^{log_pref} underflows
    for small x and large d) does not zero an element of normal size.
    """
    n, m = _checked_int("n", n), _checked_int("m", m)
    _check_x(x)
    mn, d = min(n, m), abs(n - m)
    if x == 0.0:
        return 1.0 if d == 0 else 0.0
    scaled = laguerre_scaled(mn, d, x)  # e^{-x/2} L_mn^d(x)
    if scaled == 0.0:
        return 0.0
    log_pref = math.lgamma(mn + 1.0) - math.lgamma(mn + d + 1.0) + d * math.log(x)
    return math.exp(log_pref + 2.0 * math.log(abs(scaled)))


def laguerre_addition_check(n, xs):
    """Residual of the three-variable Laguerre addition theorem.

    sum_{i+j+k=n} L_i(x1) L_j(x2) L_k(x3) = L_n^{(2)}(x1+x2+x3); returns
    |lhs - rhs| / max(1, |rhs|), computed on the scaled sequences (which
    leaves the quotient unchanged).
    """
    x1, x2, x3 = (float(v) for v in xs)
    n = _checked_int("n", n)
    t1, t2, t3 = (laguerre_scaled_table(n, 0, v) for v in (x1, x2, x3))  # each checks its x
    lhs = 0.0
    for i in range(n + 1):
        for j in range(n + 1 - i):
            lhs += t1[i] * t2[j] * t3[n - i - j]
    total = x1 + x2 + x3
    rhs = laguerre_scaled(n, 2, total)
    return abs(lhs - rhs) / max(math.exp(-0.5 * total), abs(rhs))


def franck_condon_row_sum(n, x, *, tol=1e-12):
    """sum_m |<n|D(xi)|m>|^2 with the cutoff grown until the sum settles.

    Converges to 1 (displacement operators are unitary); the residual from
    1 is a direct stability diagnostic for the matrix builder.  A sum that
    has not settled over eight cutoffs raises RuntimeError.
    """
    n = _checked_int("n", n)
    _check_x(x)
    size = int(n + x + 12.0 * math.sqrt(x * (n + 1.0)) + 40.0)
    prev = None
    for _ in range(8):
        s = float(np.sum(fc_matrix(size, x)[n]))
        if prev is not None and abs(s - prev) <= tol * max(1.0, abs(s)):
            return s
        last, prev = prev, s
        size = int(size * 1.6) + 16
    raise RuntimeError(f"row sum of n={n} at x={x!r} did not settle: last two sums {last!r}, {prev!r}")


def diagonal_element(n, x):
    """<n| e^{-i dk R} |n> = e^{-x/2} L_n(x), by the explicit factorial series."""
    acc = 0.0
    for k in range(n + 1):
        acc += (-1.0) ** k * math.comb(n, n - k) * x**k / math.factorial(k)
    return math.exp(-0.5 * x) * acc


def displacement_prob(n, m, x):
    """|<n| e^{-i dk R} |m>|^2 by the explicit factorial series, x = (dk a)^2."""
    lo, hi = (n, m) if n <= m else (m, n)
    d = hi - lo
    series = 0.0
    for k in range(lo + 1):
        series += (-1.0) ** k * math.comb(hi, lo - k) * x**k / math.factorial(k)
    pref = math.factorial(lo) / math.factorial(hi) * x**d * math.exp(-x)
    return pref * series * series


@dataclass(frozen=True)
class SmallTrapBasis:
    """Explicit occupation table N_{nx,ny,nz} over a per-axis cutoff n_max."""

    n_max: int
    occupations: np.ndarray

    def __post_init__(self):
        if self.n_max > 8:
            raise ValueError("brute-force basis capped at per-axis n_max = 8")
        if self.occupations.shape != (self.n_max + 1,) * 3:
            raise ValueError("occupation table shape does not match n_max")
        self.occupations.flags.writeable = False

    @classmethod
    def from_thermal(cls, state, n_max):
        """Table N_{nx,ny,nz} = P(nx+ny+nz) from a thermal state.

        Shells beyond the state's own cutoff hold zero, so a state clamped
        at n_max and this basis cover exactly the same set of levels.
        """
        tab = np.zeros((n_max + 1,) * 3)
        for i in range(n_max + 1):
            for j in range(n_max + 1):
                for k in range(n_max + 1):
                    tab[i, j, k] = occupation(i + j + k, state)
        return cls(n_max=n_max, occupations=tab)

    @classmethod
    def single_atom(cls, level, n_max):
        """One atom parked in the given (nx, ny, nz) level."""
        tab = np.zeros((n_max + 1,) * 3)
        tab[tuple(level)] = 1.0
        return cls(n_max=n_max, occupations=tab)


def _axis_xs(dk):
    dk = [float(v) for v in dk]
    if len(dk) != 3:
        raise ValueError("dk must have three components")
    return [v * v for v in dk]


def brute_coherent(basis, dk):
    """|sum_n N_n <n|e^{-i dk R}|n>|^2 by the unreduced triple sum."""
    xs = _axis_xs(dk)
    b = basis.n_max
    diags = [[diagonal_element(n, x) for n in range(b + 1)] for x in xs]
    acc = 0.0
    for i in range(b + 1):
        for j in range(b + 1):
            for k in range(b + 1):
                occ = basis.occupations[i, j, k]
                if occ != 0.0:
                    acc += occ * diags[0][i] * diags[1][j] * diags[2][k]
    return acc * acc


def _prob_tables(b, m_top, xs):
    return [
        [[displacement_prob(n, m, x) for m in range(m_top + 1)] for n in range(b + 1)]
        for x in xs
    ]


def brute_incoherent(basis, dk):
    """sum_{n, n'} N_n N_n' |eta_nn'|^2 by the unreduced six-fold sum."""
    xs = _axis_xs(dk)
    b = basis.n_max
    probs = _prob_tables(b, b, xs)
    occ = basis.occupations
    acc = 0.0
    for i in range(b + 1):
        for j in range(b + 1):
            for k in range(b + 1):
                w = occ[i, j, k]
                if w == 0.0:
                    continue
                for l in range(b + 1):
                    for m in range(b + 1):
                        for n in range(b + 1):
                            w2 = occ[l, m, n]
                            if w2 != 0.0:
                                acc += w * w2 * probs[0][i][l] * probs[1][j][m] * probs[2][k][n]
    return acc


def brute_incoherent_blocked(basis, dk, m_top):
    """sum_{n} sum_{n' <= m_top} N_n (1 - N_n') |eta_nn'|^2.

    The final-state sum runs over the enlarged per-axis cutoff m_top with
    vacuum occupations beyond the basis table; as m_top grows this converges
    to N - brute_incoherent by the displacement sum rule.
    """
    xs = _axis_xs(dk)
    b = basis.n_max
    probs = _prob_tables(b, m_top, xs)
    occ = basis.occupations

    def occ_at(l, m, n):
        if l <= b and m <= b and n <= b:
            return occ[l, m, n]
        return 0.0

    acc = 0.0
    for i in range(b + 1):
        for j in range(b + 1):
            for k in range(b + 1):
                w = occ[i, j, k]
                if w == 0.0:
                    continue
                for l in range(m_top + 1):
                    for m in range(m_top + 1):
                        for n in range(m_top + 1):
                            acc += (
                                w
                                * (1.0 - occ_at(l, m, n))
                                * probs[0][i][l]
                                * probs[1][j][m]
                                * probs[2][k][n]
                            )
    return acc


def sum_rule_residual(level, dk, m_top):
    """|1 - sum_{m <= m_top} |eta_{level,m}|^2| for a single initial level.

    The sum over final states factorizes per axis, so each axis row is
    summed independently and multiplied.
    """
    xs = _axis_xs(dk)
    total = 1.0
    for n_axis, x in zip(level, xs):
        total *= sum(displacement_prob(n_axis, m, x) for m in range(m_top + 1))
    return abs(1.0 - total)
