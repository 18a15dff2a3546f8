"""Hot numeric kernels, one sequential numpy implementation each.

``laguerre_scaled_table`` and ``laguerre_weighted_sum`` run the scaled
Laguerre recurrence; ``fc_matrix`` builds the squared displacement
matrix; ``fc_weighted_sum`` contracts it with packed weights without
forming the matrix; ``quad_sum`` is the direct four-index oracle sum.
The two weighted sums take an array of x and advance their recurrences
for a chunk of x at a time, at most CHUNK_DOUBLES doubles per working
array.
"""

import math

import numpy as np
from scipy.special import gammaln

# the most doubles one working array of a batched recurrence may hold
CHUNK_DOUBLES = 1 << 17


def _chunked(x, step, kernel):
    """kernel applied to consecutive slices of at most step values of x,
    reassembled in the shape of x."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    out = np.empty(flat.shape)
    for lo in range(0, flat.size, step):
        out[lo : lo + step] = kernel(flat[lo : lo + step])
    return out.reshape(x.shape)


# ---------------------------------------------------------------------------
# scaled generalized Laguerre recurrence: values are e^{-x/2} L_n^alpha(x),
# which stay polynomially bounded for all x >= 0 (unscaled L_n overflows
# catastrophically already at x ~ few hundred).
# ---------------------------------------------------------------------------

def laguerre_scaled_table(n_max, alpha, x):
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


def laguerre_weighted_sum(w, alpha, x):
    """sum_n w[n] e^{-x/2} L_n^alpha(x) for every x of an array, without
    materializing the table; the recurrence advances all x of a chunk at
    once, and the result has the shape of x."""
    return _chunked(x, CHUNK_DOUBLES, lambda xs: _laguerre_weighted_chunk(w, alpha, xs))


def _laguerre_weighted_chunk(w, alpha, x):
    l0 = np.exp(-0.5 * x)
    acc = w[0] * l0
    n_top = w.shape[0] - 1
    if n_top == 0:
        return acc
    l1 = (alpha + 1.0 - x) * l0
    acc += w[1] * l1
    for n in range(1, n_top):
        l2 = 2.0 * n + alpha + 1.0 - x
        l2 *= l1
        l2 -= (n + alpha) * l0
        l2 /= n + 1.0
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

def fc_matrix(size, x):
    # the recurrence advanced for all diagonals d at once
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
    """sum_{m, d} |<m+d|D(xi)|m>|^2 weights[m, d] over m + d <= size, for
    every x > 0 of an array; the result has the shape of x.

    ``weights`` packs the triangle row by row: row m holds d = 0..size-m
    and starts at m*(size+1) - m*(m-1)/2.  The normalized amplitudes are
    those of ``fc_matrix``, advanced along m for every diagonal still
    inside the triangle and every x of a chunk, so the working array
    shrinks by one column per step and no (size+1)^2 matrix is formed.
    """
    return _chunked(x, max(1, CHUNK_DOUBLES // (size + 1)), lambda xs: _fc_weighted_chunk(weights, size, xs))


def _fc_weighted_chunk(weights, size, x):
    d = np.arange(size + 1, dtype=np.float64)
    xc = x[:, None]
    am = np.exp(-0.5 * xc + 0.5 * (d * np.log(xc) - gammaln(d + 1.0)))
    am[:, 0] = np.exp(-0.5 * x)
    # row sums reduce each x on its own, so a value does not depend on the
    # other x of its chunk
    acc = (am * am * weights[: size + 1]).sum(axis=1)
    am1 = np.zeros_like(am)
    root = np.zeros(size + 1)  # sqrt(m (m + d)), the coefficient of a_{m-1}
    start = size + 1
    for m in range(size):
        k = size - m  # diagonals d < k reach row m + 1
        dk = d[:k]
        root_next = np.sqrt((m + 1.0) * (m + 1.0 + dk))
        anext = 2.0 * m + 1.0 - xc + dk
        anext *= am[:, :k]
        anext -= root[:k] * am1[:, :k]
        anext /= root_next
        sq = anext * anext
        sq *= weights[start : start + k]
        acc += sq.sum(axis=1)
        start += k
        am1, am, root = am, anext, root_next
    return acc


# ---------------------------------------------------------------------------
# direct four-index sum  sum P2[nx+nz, mx+mz] Mx[nx,mx] Mz[nz,mz],
# with shell indices clamped to the table size.  O(S^4): mid-scale oracle.
# ---------------------------------------------------------------------------

def quad_sum(p2, mx, mz):
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

