"""Scaled generalized Laguerre polynomials and displacement matrix elements.

The working representation is always the exponentially scaled sequence
e^{-x/2} L_n^alpha(x), whose magnitude grows only polynomially in n at
fixed x; the unscaled polynomials overflow double precision long before
the back-scattering momentum transfer x = (2 k_L a)^2 is reached.

Squared displacement (Franck-Condon) matrix elements |<n|D(xi)|m>|^2 are
symmetrized in (n, m): with mn = min(n, m) and d = |n - m|,

    |<n|D(xi)|m>|^2 = (mn!/(mn+d)!) x^d e^{-x} [L_mn^d(x)]^2,  x = |xi|^2.
"""

import itertools
import math

import numpy as np

from . import _kernels


def laguerre_scaled(n, alpha, x):
    """e^{-x/2} L_n^alpha(x) by forward recurrence on the scaled sequence."""
    _check_indices(n=n, alpha=alpha)
    if x < 0.0 or not math.isfinite(x):
        raise ValueError(f"x must be finite and >= 0, got {x!r}")
    return float(_kernels.laguerre_scaled_table(int(n), float(alpha), float(x))[-1])


def laguerre_scaled_table(n_max, alpha, x):
    """Array of e^{-x/2} L_n^alpha(x) for n = 0..n_max."""
    _check_indices(n=n_max, alpha=alpha)
    if x < 0.0 or not math.isfinite(x):
        raise ValueError(f"x must be finite and >= 0, got {x!r}")
    return _kernels.laguerre_scaled_table(int(n_max), float(alpha), float(x))


class LaguerreTable:
    """Immutable table of scaled values e^{-x/2} L_n^alpha(x), n = 0..n_max."""

    __slots__ = ("alpha", "x", "values")

    def __init__(self, n_max, alpha, x):
        self.alpha = int(alpha)
        self.x = float(x)
        self.values = laguerre_scaled_table(n_max, alpha, x)
        self.values.flags.writeable = False

    def __len__(self):
        return len(self.values)

    def __getitem__(self, n):
        return float(self.values[n])


def franck_condon_sq(n, m, x):
    """|<n|D(xi)|m>|^2 with x = |xi|^2, symmetric in (n, m), in [0, 1].

    The (n, m) element of ``fc_matrix``: its amplitude recurrence run to
    row min(n, m) only, without forming the matrix.
    """
    _check_indices(n=n, m=m)
    if x < 0.0 or not math.isfinite(x):
        raise ValueError(f"x must be finite and >= 0, got {x!r}")
    mn, d = (int(min(n, m)), int(abs(n - m)))
    if x == 0.0:
        return 1.0 if d == 0 else 0.0
    rows = _kernels._fc_amplitude_rows(mn + d, np.array([float(x)]))
    a = float(next(itertools.islice(rows, mn, None))[0, d])
    return a * a


def franck_condon_sq_loggamma(n, m, x):
    """Direct log-gamma evaluation of |<n|D(xi)|m>|^2.

    Independent of the amplitude recurrence; used to validate it.  Safe for
    the operating range x <= ~700 where the split prefactor stays finite.
    """
    _check_indices(n=n, m=m)
    if x < 0.0 or not math.isfinite(x):
        raise ValueError(f"x must be finite and >= 0, got {x!r}")
    mn, d = (int(min(n, m)), int(abs(n - m)))
    if x == 0.0:
        return 1.0 if d == 0 else 0.0
    scaled = laguerre_scaled(mn, d, x)  # e^{-x/2} L_mn^d(x)
    log_pref = math.lgamma(mn + 1.0) - math.lgamma(mn + d + 1.0) + d * math.log(x)
    return math.exp(log_pref) * scaled * scaled


def fc_matrix(size, x):
    """Dense table M[n, m] = |<n|D(xi)|m>|^2 for n, m = 0..size."""
    if size < 0 or size != int(size):
        raise ValueError(f"size must be a non-negative integer, got {size!r}")
    if x < 0.0 or not math.isfinite(x):
        raise ValueError(f"x must be finite and >= 0, got {x!r}")
    return _kernels.fc_matrix(int(size), float(x))


def laguerre_addition_check(n, xs):
    """Residual of the three-variable Laguerre addition theorem.

    sum_{i+j+k=n} L_i(x1) L_j(x2) L_k(x3) = L_n^{(2)}(x1+x2+x3); returns
    |lhs - rhs| / max(1, |rhs|), computed on the scaled sequences (which
    leaves the quotient unchanged).
    """
    x1, x2, x3 = (float(v) for v in xs)
    _check_indices(n=n)
    for v in (x1, x2, x3):
        if v < 0.0 or not math.isfinite(v):
            raise ValueError(f"arguments must be finite and >= 0, got {v!r}")
    n = int(n)
    t1 = laguerre_scaled_table(n, 0, x1)
    t2 = laguerre_scaled_table(n, 0, x2)
    t3 = laguerre_scaled_table(n, 0, x3)
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
    1 is a direct stability diagnostic for the matrix builder.
    """
    _check_indices(n=n)
    n = int(n)
    size = int(n + x + 12.0 * math.sqrt(x * (n + 1.0)) + 40.0)
    prev = None
    for _ in range(8):
        row = fc_matrix(size, x)[n]
        s = float(np.sum(row))
        if prev is not None and abs(s - prev) <= tol * max(1.0, abs(s)):
            return s
        prev = s
        size = int(size * 1.6) + 16
    return prev


def _check_indices(**kwargs):
    for name, v in kwargs.items():
        if v < 0 or v != int(v):
            raise ValueError(f"{name} must be a non-negative integer, got {v!r}")
