"""Hot numeric kernels, compiled with numba when available.

The kernels in ``NUMPY_IMPLS`` exist twice: a loop version compiled with
``@njit`` and a vectorized (or plain-Python) numpy version.  The active
set is chosen at import time; setting the environment variable
``FERMIPULSE_NO_NUMBA=1`` forces the numpy path, as does a missing numba
installation.  Both sets are kept importable so the test suite and
``benchmarks/bench_kernels.py`` can compare them.  ``fc_weighted_sum``,
the incoherent contraction, is vectorized numpy only.
"""

import math
import os

import numpy as np
from scipy.special import gammaln

_NO_NUMBA_ENV = os.environ.get("FERMIPULSE_NO_NUMBA", "").strip().lower()
_DISABLED = _NO_NUMBA_ENV in {"1", "true", "yes", "on"}

try:
    if _DISABLED:
        raise ImportError("numba disabled by FERMIPULSE_NO_NUMBA")
    from numba import njit

    USING_NUMBA = True
except ImportError:
    njit = None
    USING_NUMBA = False


# ---------------------------------------------------------------------------
# scaled generalized Laguerre recurrence: values are e^{-x/2} L_n^alpha(x),
# which stay polynomially bounded for all x >= 0 (unscaled L_n overflows
# catastrophically already at x ~ few hundred).
# ---------------------------------------------------------------------------

def _laguerre_scaled_table_loops(n_max, alpha, x):
    out = np.empty(n_max + 1)
    l0 = math.exp(-0.5 * x)
    out[0] = l0
    if n_max == 0:
        return out
    l1 = (alpha + 1.0 - x) * l0
    out[1] = l1
    for n in range(1, n_max):
        l2 = ((2.0 * n + alpha + 1.0 - x) * l1 - (n + alpha) * l0) / (n + 1.0)
        out[n + 1] = l2
        l0 = l1
        l1 = l2
    return out


def _laguerre_weighted_sum_loops(w, alpha, x):
    # sum_n w[n] * e^{-x/2} L_n^alpha(x), without materializing the table
    l0 = math.exp(-0.5 * x)
    acc = w[0] * l0
    n_top = w.shape[0] - 1
    if n_top == 0:
        return acc
    l1 = (alpha + 1.0 - x) * l0
    acc += w[1] * l1
    for n in range(1, n_top):
        l2 = ((2.0 * n + alpha + 1.0 - x) * l1 - (n + alpha) * l0) / (n + 1.0)
        acc += w[n + 1] * l2
        l0 = l1
        l1 = l2
    return acc


# ---------------------------------------------------------------------------
# squared displacement-operator matrix elements |<n|D(xi)|m>|^2 with
# x = |xi|^2. Built diagonal by diagonal (fixed d = n - m) on the normalized
# amplitude sequence a_m = sqrt(m!/(m+d)!) x^{d/2} e^{-x/2} L_m^d(x); every
# a_m is bounded by 1, so the recurrence cannot overflow.
# ---------------------------------------------------------------------------

def _fc_matrix_loops(size, x):
    out = np.zeros((size + 1, size + 1))
    for d in range(size + 1):
        if d == 0:
            a0 = math.exp(-0.5 * x)
        elif x == 0.0:
            continue  # off-diagonal elements vanish at zero momentum transfer
        else:
            a0 = math.exp(-0.5 * x + 0.5 * (d * math.log(x) - math.lgamma(d + 1.0)))
        out[d, 0] = a0 * a0
        out[0, d] = out[d, 0]
        am1 = 0.0
        am = a0
        for m in range(size - d):
            anext = ((2.0 * m + d + 1.0 - x) * am - math.sqrt(m * (m + d)) * am1) / math.sqrt(
                (m + 1.0) * (m + 1.0 + d)
            )
            am1 = am
            am = anext
            v = anext * anext
            out[m + 1 + d, m + 1] = v
            out[m + 1, m + 1 + d] = v
    return out


def _fc_matrix_numpy(size, x):
    # same recurrence, advanced for all diagonals d at once
    d = np.arange(size + 1, dtype=np.float64)
    if x == 0.0:
        return np.eye(size + 1)
    a0 = np.exp(-0.5 * x + 0.5 * (d * np.log(x) - gammaln(d + 1.0)))
    a0[0] = math.exp(-0.5 * x)
    amp = np.empty((size + 1, size + 1))
    amp[0] = a0
    am1 = np.zeros(size + 1)
    am = a0.copy()
    for m in range(size):
        anext = ((2.0 * m + d + 1.0 - x) * am - np.sqrt(m * (m + d)) * am1) / np.sqrt(
            (m + 1.0) * (m + 1.0 + d)
        )
        amp[m + 1] = anext
        am1 = am
        am = anext
    out = np.zeros((size + 1, size + 1))
    rows = np.arange(size + 1)
    for m in range(size + 1):
        dmax = size - m
        v = amp[m, : dmax + 1] ** 2
        out[rows[m : size + 1], m] = v
        out[m, rows[m : size + 1]] = v
    return out


def fc_weighted_sum(weights, size, x):
    """sum_{m, d} |<m+d|D(xi)|m>|^2 weights[m, d] over m + d <= size, x > 0.

    ``weights`` packs the triangle row by row: row m holds d = 0..size-m
    and starts at m*(size+1) - m*(m-1)/2.  The normalized amplitudes are
    those of ``fc_matrix``, advanced along m for every diagonal still
    inside the triangle, so the working vector shrinks by one per step and
    no (size+1)^2 matrix is formed.
    """
    d = np.arange(size + 1, dtype=np.float64)
    am = np.exp(-0.5 * x + 0.5 * (d * math.log(x) - gammaln(d + 1.0)))
    am[0] = math.exp(-0.5 * x)
    acc = float((am * am) @ weights[: size + 1])
    am1 = np.zeros(size + 1)
    root = np.zeros(size + 1)  # sqrt(m (m + d)), the coefficient of a_{m-1}
    start = size + 1
    for m in range(size):
        k = size - m  # diagonals d < k reach row m + 1
        dk = d[:k]
        root_next = np.sqrt((m + 1.0) * (m + 1.0 + dk))
        anext = ((2.0 * m + 1.0 - x + dk) * am[:k] - root[:k] * am1[:k]) / root_next
        acc += float((anext * anext) @ weights[start : start + k])
        start += k
        am1, am, root = am, anext, root_next
    return acc


# ---------------------------------------------------------------------------
# direct four-index sum  sum P2[nx+nz, mx+mz] Mx[nx,mx] Mz[nz,mz],
# with shell indices clamped to the table size.  O(S^4): mid-scale oracle.
# ---------------------------------------------------------------------------

def _quad_sum_loops(p2, mx, mz):
    s_top = mx.shape[0] - 1
    tot = 0.0
    for nx in range(s_top + 1):
        for nz in range(s_top + 1 - nx):
            s = nx + nz
            part = 0.0
            for mmx in range(s_top + 1):
                a = mx[nx, mmx]
                if a == 0.0:
                    continue
                for mmz in range(s_top + 1 - mmx):
                    part += a * p2[s, mmx + mmz] * mz[nz, mmz]
            tot += part
    return tot


def _quad_sum_numpy(p2, mx, mz):
    s_top = mx.shape[0] - 1
    r = np.arange(s_top + 1)
    idx = r[:, None] + r[None, :]
    mask = idx <= s_top
    idx = np.where(mask, idx, 0)
    tot = 0.0
    for s in range(s_top + 1):
        gathered = np.where(mask, p2[s, idx], 0.0)
        rmat = mx @ gathered @ mz.T
        anti = rmat[r[: s + 1], s - r[: s + 1]]
        tot += anti.sum()
    return float(tot)


if USING_NUMBA:
    _jit = njit(cache=True, nogil=True)
    laguerre_scaled_table = _jit(_laguerre_scaled_table_loops)
    laguerre_weighted_sum = _jit(_laguerre_weighted_sum_loops)
    fc_matrix = _jit(_fc_matrix_loops)
    quad_sum = _jit(_quad_sum_loops)
else:
    laguerre_scaled_table = _laguerre_scaled_table_loops
    laguerre_weighted_sum = _laguerre_weighted_sum_loops
    fc_matrix = _fc_matrix_numpy
    quad_sum = _quad_sum_numpy

NUMPY_IMPLS = {
    "laguerre_scaled_table": _laguerre_scaled_table_loops,
    "laguerre_weighted_sum": _laguerre_weighted_sum_loops,
    "fc_matrix": _fc_matrix_numpy,
    "quad_sum": _quad_sum_numpy,
}

JIT_IMPLS = (
    {
        "laguerre_scaled_table": laguerre_scaled_table,
        "laguerre_weighted_sum": laguerre_weighted_sum,
        "fc_matrix": fc_matrix,
        "quad_sum": quad_sum,
    }
    if USING_NUMBA
    else {}
)
