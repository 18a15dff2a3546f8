"""Hot numeric kernels, one sequential numpy implementation each.

Each recurrence is written once, as a generator of its rows:
``_laguerre_rows`` yields the scaled Laguerre values e^{-x/2} L_n^alpha(x)
for n = 0, 1, ..., which ``laguerre_weighted_sum`` sums with weights
(``oracle.laguerre_scaled_table`` stacks them for one x);
``_fc_amplitude_rows`` yields the normalized displacement amplitudes over
the triangle m + d <= size, row m at a time, which ``fc_matrix`` squares
into the dense matrix and ``fc_weighted_sum`` contracts with packed
weights without forming it.  ``quad_sum`` is the direct four-index sum.
The two weighted sums take an array of x and advance their recurrences
for a chunk of x at a time, at most CHUNK_DOUBLES doubles per working
array.  Everything here is numpy and the standard library: the log d!
that scale the amplitudes come from ``math.lgamma``.
"""

import math

import numpy as np

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

def _laguerre_rows(n_max, alpha, x):
    """e^{-x/2} L_n^alpha(x) for n = 0..n_max, one value per x of a float
    or an array.  The next two rows are built from each row, so a
    consumer must not write to it."""
    l0 = np.exp(-0.5 * x)
    yield l0
    if n_max == 0:
        return
    l1 = (alpha + 1.0 - x) * l0
    yield l1
    for n in range(1, n_max):
        l2 = 2.0 * n + alpha + 1.0 - x
        l2 *= l1
        l2 -= (n + alpha) * l0
        l2 /= n + 1.0
        yield l2
        l0 = l1
        l1 = l2


def laguerre_weighted_sum(w, alpha, x):
    """sum_n w[n] e^{-x/2} L_n^alpha(x) for every x of an array, without
    materializing the table; the recurrence advances all x of a chunk at
    once, and the result has the shape of x."""
    return _chunked(x, CHUNK_DOUBLES, lambda xs: _laguerre_weighted_chunk(w, alpha, xs))


def _laguerre_weighted_chunk(w, alpha, x):
    # one x runs on a numpy scalar: the same operations, bit for bit, at a
    # tenth of the cost of a one-element array
    rows = _laguerre_rows(w.shape[0] - 1, alpha, x[0] if x.size == 1 else x)
    acc = w[0] * next(rows)
    for wn, ln in zip(w[1:], rows):
        acc += wn * ln
    return acc


# ---------------------------------------------------------------------------
# squared displacement-operator matrix elements |<n|D(xi)|m>|^2 with
# x = |xi|^2. Built diagonal by diagonal (fixed d = n - m) on the normalized
# amplitude sequence a_m = sqrt(m!/(m+d)!) x^{d/2} e^{-x/2} L_m^d(x); every
# a_m is bounded by 1, so the recurrence cannot overflow.
# ---------------------------------------------------------------------------

def _log_factorials(size):
    """log d! for d = 0..size, each from math.lgamma, so the error stays
    at a few ulp of each entry (a running sum of log k would grow with d);
    exactly 0 at d = 0 and 1."""
    return np.array([math.lgamma(k + 1.0) for k in range(size + 1)])


def _fc_amplitude_rows(size, x):
    """Rows m = 0..size of the amplitudes a_m^d, d = 0..size-m, for every
    x > 0 of a 1-D array: row m has shape (x.size, size + 1 - m), so the
    recurrence advances only the diagonals still inside the triangle
    m + d <= size.  The next two rows are built from each row, so a
    consumer must not write to it."""
    d = np.arange(size + 1, dtype=np.float64)
    xc = x[:, None]
    am = np.exp(-0.5 * xc + 0.5 * (d * np.log(xc) - _log_factorials(size)))
    am[:, 0] = np.exp(-0.5 * x)
    yield am
    am1 = np.zeros_like(am)
    root = np.zeros(size + 1)  # sqrt(m (m + d)), the coefficient of a_{m-1}
    for m in range(size):
        k = size - m  # diagonals d < k reach row m + 1
        dk = d[:k]
        root_next = np.sqrt((m + 1.0) * (m + 1.0 + dk))
        anext = 2.0 * m + 1.0 - xc + dk
        anext *= am[:, :k]
        anext -= root[:k] * am1[:, :k]
        anext /= root_next
        yield anext
        am1, am, root = am, anext, root_next


def fc_matrix(size, x):
    if x == 0.0:
        return np.eye(size + 1)
    out = np.empty((size + 1, size + 1))
    for m, am in enumerate(_fc_amplitude_rows(size, np.array([x]))):
        v = am[0] ** 2
        out[m:, m] = v
        out[m, m:] = v
    return out


def fc_weighted_sum(weights, size, x):
    """sum_{m, d} |<m+d|D(xi)|m>|^2 weights[m, d] over m + d <= size, for
    every x > 0 of an array; the result has the shape of x.

    ``weights`` packs the triangle row by row: row m holds d = 0..size-m
    and starts at m*(size+1) - m*(m-1)/2, the layout in which
    ``_fc_amplitude_rows`` yields the amplitudes, so no (size+1)^2 matrix
    is formed.
    """
    return _chunked(x, max(1, CHUNK_DOUBLES // (size + 1)), lambda xs: _fc_weighted_chunk(weights, size, xs))


def _fc_weighted_chunk(weights, size, x):
    # row sums reduce each x on its own, so a value does not depend on the
    # other x of its chunk
    acc = np.zeros(x.shape)
    start = 0
    for am in _fc_amplitude_rows(size, x):
        k = am.shape[1]
        sq = am * am
        sq *= weights[start : start + k]
        acc += sq.sum(axis=1)
        start += k
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
