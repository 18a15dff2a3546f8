"""Coherent and incoherent form functions of the trapped gas.

The coherent form function is the squared thermal average of the atomic
phase factor, F2_coh = |sum_n P(n) stuff|^2; the incoherent one is the
double occupation sum F2_in = sum_{n,n'} N_n N_n' |eta_nn'|^2 that is
subtracted from N-proportional terms in the incoherent spectrum.

One builder, three node sources.  An occupation term P(n) = w e^{-s n/tau},
r = e^{-s/tau}, has the coherent amplitude sum_n P(n) e^{-x/2} L_n^(2)(x) =
w (1-r)^{-3} e^{-x (1+r) / (2 (1-r))} (the generating function of the
Laguerre polynomials), and a pair (w, r), (w', r') adds
w w' (1 - r r')^{-3} e^{-x (1-r)(1-r') / (1 - r r')} to F2_in;
``_amplitude_terms`` and ``_pair_terms`` write both, once, as c e^{-a x}.
The nodes (w, s) are the exact Maxwell-Boltzmann node (z, 1); for
Fermi-Dirac at 0.8 <= z <= e^4, a short exponential fit of the Fermi
function f(u) = 1/(1 + e^{u - log z}) ~ sum_k w_k e^{-s_k u}, so a point
costs O(K) and O(K^2) for K terms; and for z < 1, the fugacity power
series' nodes (z^l, l), a block at a time: a single alternating sum for
the coherent branch, a double one for the incoherent branch.

Every form function takes the momentum transfer x = |k - k_L|^2 a^2 of
``model.kinematics``: shell projectors commute with rotations, so in the
isotropic trap both channels depend on the geometry only through x.

Elsewhere (the degenerate regime, or a forced method) occupation-table
sums take over: a single scaled Laguerre sum for the coherent branch; for
the incoherent branch either the direct four-index sum (small traps, the
mid-scale oracle), which splits x evenly over two axes, or its exact
single-axis contraction: with the whole transfer along one axis the sum
is F2_in(x) = sum_{a,b} |<a|D(x)|b>|^2 W(a, b), with the shell-pair
weight W(a, b) = sum_s (s+1) P(s+a) P(s+b) tabulated once per state.

Every branch evaluates an array of x at once: the power series carry one
partial sum per x, each stopped by its own rule, the exponential sums
evaluate every x on its own, and the table sums advance their
recurrences for a chunk of x at a time.  A value never depends on the
other x of its array.
"""

import enum
import math

import numpy as np
import scipy.fft as _fft  # unused; fermibench/tracer.py patches formfunc._fft

from . import _kernels
from .statmech import Statistics, _degeneracy_array, _log_shell_tail, _shell_sum

QUAD_SUM_CEILING = 60
# at this n_eff the packed weight table, (n_eff+1)(n_eff+2)/2 doubles, is about 1 GiB
CONVOLUTION_SUM_CEILING = 16_000

# pragmatic caps on the slow paths
_POWER_SERIES_MAX_TERMS = 500_000
_POWER_SERIES_MAX_BLOCKS = 40_000
_CROSS_CHECK_CONV_LIMIT = 2000


class FormFunctionError(Exception):
    """Base class for form-function evaluation failures.

    index is the position, in the flattened array of x, of the x that
    failed, or None when the failure is not tied to one x.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class SeriesDivergence(FormFunctionError):
    """Fugacity power series requested at z >= 1."""


class ToleranceNotMet(FormFunctionError):
    """Truncation or consistency bound failed."""


class BudgetExceeded(FormFunctionError):
    """Table sum requested above its size ceiling."""


class Method(enum.Enum):
    AUTO = "auto"
    POWER_SERIES = "power-series"
    LAGUERRE_SUM = "laguerre"
    CLOSED_FORM_MB = "closed-form-mb"
    QUAD_SUM = "quad-sum"
    CONVOLUTION_SUM = "convolution"

    @classmethod
    def parse(cls, text):
        key = str(text).strip().lower().replace("_", "-")
        for m in cls:
            if m.value == key:
                return m
        aliases = {"laguerre-sum": cls.LAGUERRE_SUM, "convolution-sum": cls.CONVOLUTION_SUM}
        if key in aliases:
            return aliases[key]
        raise ValueError(f"unknown method {text!r}")


def _checked_method(state, method, tolerance):
    """The method, parsed if it is a string, once the evaluation passes
    every check made before it starts: a finite positive tolerance, z < 1
    for a forced Fermi-Dirac power series (SeriesDivergence), and
    Maxwell-Boltzmann statistics for closed-form-mb."""
    if isinstance(method, str):
        method = Method.parse(method)
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ValueError(f"tolerance must be finite and positive, got {tolerance!r}")
    fd = state.statistics is Statistics.FERMI_DIRAC
    if method is Method.POWER_SERIES and fd and state.log_fugacity >= 0.0:
        raise SeriesDivergence(f"power series requires z < 1, state has log z = {state.log_fugacity:.4g}")
    if method is Method.CLOSED_FORM_MB and fd:
        raise ValueError("closed-form-mb requires Maxwell-Boltzmann statistics")
    return method


# ---------------------------------------------------------------------------
# per-state cached tables
# ---------------------------------------------------------------------------


def _reversed_tails(state, size):
    """For d = 0..size, the running sums of P(n) P(n+d) taken from the top
    of the occupation table down: entry j sums n = n_top-d-j..n_top-d, so
    the sums run to the end of the table (occupations beyond n_max are
    zero)."""
    p = state.occupations
    n_top = p.shape[0] - 1
    for d in range(size + 1):
        yield np.cumsum((p[: n_top + 1 - d] * p[d:])[::-1])


def _occupation_pair_block(state, size):
    """Table W[s, t] = sum_y P(s+y) P(t+y) for s, t <= size."""

    def build():
        out = np.empty((size + 1, size + 1))
        idx = np.arange(size + 1)
        for d, rev in enumerate(_reversed_tails(state, size)):
            take = size + 1 - d
            tail = rev[::-1][:take]
            out[idx[:take], idx[:take] + d] = tail
            out[idx[:take] + d, idx[:take]] = tail
        out.flags.writeable = False
        return out

    return state.cached(("pair_block", size), build)


def _weight_diagonals(state, size):
    """Packed table of W(m, m+d) = sum_s (s+1) P(s+m) P(s+m+d), m + d <= size.

    Row m holds d = 0..size-m, the layout ``_kernels.fc_weighted_sum``
    reads; entries with d > 0 are doubled, because |<a|D|b>|^2 is symmetric
    in a and b.  Each diagonal is a second running sum of the reversed
    tails.
    """

    def build():
        rows = np.arange(size + 1)
        start = rows * (size + 1) - rows * (rows - 1) // 2
        out = np.empty(start[-1] + 1)
        for d, rev in enumerate(_reversed_tails(state, size)):
            take = size + 1 - d
            tail = np.cumsum(rev)[::-1][:take]
            out[start[:take] + d] = tail if d == 0 else 2.0 * tail
        out.flags.writeable = False
        return out

    return state.cached(("weight_diagonals", size), build)


def _effective_shell_cutoff(state, tolerance=1e-8):
    """Largest shell whose occupation tail matters for the incoherent sum.

    Shells above the cutoff contribute at most 2 * tail * max(P) to
    F2_in (each displacement row sums to at most 1), which is kept below
    half the requested tolerance of the zero-transfer peak sum g P^2.
    """
    budget = 0.5 * min(tolerance, 1e-6)

    def build():
        p = state.occupations
        tail = np.cumsum((_degeneracy_array(state.n_max) * p)[::-1])[::-1]
        peak = _incoherent_x0(state)
        p_max = float(p.max()) if p.size else 0.0
        cut = budget * peak / max(2.0 * p_max, 1e-300)
        keep = np.nonzero(tail > max(cut, 1e-300))[0]
        return int(keep[-1]) if keep.size else 0

    return state.cached(("n_eff", round(math.log10(budget), 3)), build)


# ---------------------------------------------------------------------------
# batched evaluation: every branch below takes a 1-D array of x > 0 and
# returns the form function at each; a FormFunctionError tied to one point
# carries that point's position in the array as .index
# ---------------------------------------------------------------------------


def _alternating_series(name, x, tol, first, stop_from, last, terms, max_block):
    """sum_l (-1)^(l - first) term_l(x) over l = first..last for every x.

    terms(ls, xs) returns the (xs.size, ls.size) magnitudes of a block of
    consecutive terms.  Each x stops at the first l >= stop_from whose term
    has not grown and lies below tol times the partial sum, the rule one x
    alone would follow; the partial sums accumulate term by term, so the
    blocks change nothing but how many terms past its stop an x computes.
    The first block ends at stop_from; later ones double up to max_block.
    An x still running after term last raises ToleranceNotMet, naming the
    series by name and carrying the position of the first such x as index.
    """
    out = np.empty(x.shape)
    step = max(1, _kernels.CHUNK_DOUBLES // max(max_block, stop_from - first + 1))
    for lo in range(0, x.size, step):
        xs = x[lo : lo + step]
        idx = np.arange(lo, lo + xs.size)
        acc = np.zeros(xs.size)
        prev = np.full(xs.size, math.inf)
        start, block = first, stop_from - first + 1
        while start <= last:
            ls = np.arange(start, min(start + block, last + 1))
            start += block
            block = min(2 * block, max_block)
            mag = terms(ls, xs)
            # partial sums after each term, in one buffer led by the carried sum
            sums = np.empty((xs.size, ls.size + 1))
            sums[:, 0] = acc
            np.multiply(mag, np.where((ls - first) % 2 == 1, -1.0, 1.0), out=sums[:, 1:])
            np.cumsum(sums, axis=1, out=sums)
            partial = sums[:, 1:]
            stop = np.abs(partial)
            np.maximum(stop, 1e-300, out=stop)
            stop *= tol
            stop = mag <= stop
            stop[:, 0] &= mag[:, 0] <= prev
            stop[:, 1:] &= mag[:, 1:] <= mag[:, :-1]
            stop &= ls >= stop_from
            hit = stop.any(axis=1)
            out[idx[hit]] = partial[hit, stop[hit].argmax(axis=1)]
            keep = ~hit
            idx, xs, acc, prev = idx[keep], xs[keep], partial[keep, -1], mag[keep, -1]
            if not idx.size:
                break
        else:
            raise ToleranceNotMet(
                f"{name} power series did not settle within {last - first + 1} terms", index=int(idx[0])
            )
    return out


# the harmonic-trap closed forms: each term of either channel is c e^{-a x}
def _amplitude_terms(w, s, tau):
    """(c, a) with sum_n w e^{-s n/tau} e^{-x/2} L_n^(2)(x) = c e^{-a x}:
    with h = 1 - e^{-s/tau}, c = w/h^3 and a = (1+r)/(2(1-r)) = 1/h - 1/2."""
    h = -np.expm1(s / -tau)
    return w / h**3, 1.0 / h - 0.5


def _pair_terms(w1, s1, w2, s2, tau):
    """(c, a) with the incoherent sum of the occupation pair w1 e^{-s1 n/tau},
    w2 e^{-s2 n/tau} equal to c e^{-a x}: c = w1 w2/h12^3 and a = h1 h2/h12,
    h12 being the h of s1 + s2.  The arguments broadcast."""
    h12 = -np.expm1((s1 + s2) / -tau)
    return w1 * w2 / h12**3, np.expm1(s1 / -tau) * np.expm1(s2 / -tau) / h12


def _term_sum(c, a, x):
    """Re sum_j c_j e^{-a_j x} at each x, every x reduced on its own, so an
    array call equals the calls one x at a time bit for bit."""
    rows = max(1, _kernels.CHUNK_DOUBLES // (2 * a.size))
    return _kernels._chunked(x, rows, lambda xs: (np.exp(np.multiply.outer(-xs, a)) * c).sum(axis=1).real)


# ---------------------------------------------------------------------------
# coherent branch
# ---------------------------------------------------------------------------


def _coherent_laguerre(state, x):
    s = _kernels.laguerre_weighted_sum(state.occupations, 2.0, x)
    return s * s


def _coherent_power_series(state, x, tol):
    # P(n) = sum_l (-1)^(l-1) z^l e^{-l n/tau} for z < 1: term l is the node (z^l, l)
    def terms(ls, xs):
        c, a = _amplitude_terms(np.exp(ls * state.log_fugacity), ls, state.tau)
        return np.exp(np.multiply.outer(-xs, a)) * c

    acc = _alternating_series("coherent", x, tol, 1, 8, _POWER_SERIES_MAX_TERMS, terms, 64)
    return acc * acc


# ---------------------------------------------------------------------------
# incoherent branch
# ---------------------------------------------------------------------------


def _incoherent_x0(state):
    # displacement matrices are identities at zero momentum transfer, so the
    # whole sum collapses to sum_n g(n) P(n)^2
    return _shell_sum(state.occupations**2)


def _incoherent_power_series(state, x, tol):
    def term(total_l, xs):
        # block total_l: the pairs of series nodes (z^l, l), (z^l', l') with
        # l + l' = total_l, all of one weight; l' runs over l reversed
        l = np.arange(1.0, total_l)
        w = np.exp(l * state.log_fugacity)
        c, a = _pair_terms(w, l, w[::-1], l[::-1], state.tau)
        return _term_sum(c, a, xs) if c[0] > 1e-304 else np.zeros(xs.size)

    def terms(ls, xs):
        return np.array([term(total_l, xs) for total_l in ls.tolist()]).T

    # a term costs O(total_l) per x, so past the first block of terms,
    # which every x needs, they are computed one at a time
    acc = _alternating_series("incoherent", x, tol, 2, 9, _POWER_SERIES_MAX_BLOCKS - 1, terms, 1)
    negative = np.nonzero(acc < 0.0)[0]
    if negative.size:
        i = int(negative[0])
        raise ToleranceNotMet(f"incoherent power series returned {acc[i]:.3g} < 0", index=i)
    return acc


def _incoherent_quad(state, x):
    """F2_in by the direct four-index sum with x split evenly over two
    axes, so one displacement table per x serves both: an oracle
    independent of the single-axis contraction."""
    if state.n_max > QUAD_SUM_CEILING:
        raise BudgetExceeded(
            f"direct four-index sum capped at n_max <= {QUAD_SUM_CEILING}, "
            f"state has n_max = {state.n_max}; use the convolution method"
        )
    pair = _occupation_pair_block(state, state.n_max)
    out = np.empty(x.shape)
    for i, xi in enumerate(x.tolist()):
        m = _kernels.fc_matrix(state.n_max, 0.5 * xi)
        out[i] = _kernels.quad_sum(pair, m, m)
    return out


def _incoherent_conv(state, x, tol):
    """F2_in at total transfer x: the single-axis contraction over shells <= n_eff."""
    n_eff = _effective_shell_cutoff(state, tol)
    if n_eff > CONVOLUTION_SUM_CEILING:
        raise BudgetExceeded(
            f"single-axis contraction capped at n_eff <= {CONVOLUTION_SUM_CEILING}, "
            f"state has n_eff = {n_eff}"
        )
    return _kernels.fc_weighted_sum(_weight_diagonals(state, n_eff), n_eff, x)


# ---------------------------------------------------------------------------
# exponential-sum branch (both channels): the Fermi-Dirac fit, and the exact
# Maxwell-Boltzmann node as its K = 1 case
# ---------------------------------------------------------------------------

_EXP_SUM = "exp-sum"  # the branch auto may take; no Method forces it
# no fit is tried above: from log z ~ 4.3 the fits leave more than 1e-11 N
_EXP_SUM_MAX_LOG_Z = 4.0
_EXP_SUM_MAX_TERMS = 32
_EXP_SUM_STEP = 0.1  # sample step in u
_EXP_SUM_SPAN = 40.0  # samples run to u = log z + span, where f ~ e^{-span}


def _fermi_fit(log_z):
    """Matrix-pencil fit f(u) ~ sum_k w_k e^{-s_k u} of the Fermi function
    f(u) = 1/(1 + e^{u - log z}) sampled at u = 0, step, ..., log z + span
    (Hua & Sarkar, IEEE Trans. ASSP 38, 814 (1990)): the nodes are the
    eigenvalues of the shift between the leading right singular vectors
    of the samples' Hankel matrix, the weights a least-squares fit to the
    samples.  Terms of weight below 1e-13 of the largest are dropped.
    Returns (w, s), complex."""
    size = int(math.ceil((max(log_z, 0.0) + _EXP_SUM_SPAN) / _EXP_SUM_STEP)) + 1
    y = 0.5 * (1.0 - np.tanh(0.5 * (_EXP_SUM_STEP * np.arange(size) - log_z)))
    pencil = size // 2
    _, sv, vh = np.linalg.svd(np.lib.stride_tricks.sliding_window_view(y, pencil + 1), full_matrices=False)
    v = vh[: int(np.count_nonzero(sv > 1e-15 * sv[0]))].T
    mu = np.linalg.eigvals(np.linalg.lstsq(v[:-1], v[1:], rcond=None)[0])
    w = np.linalg.lstsq(mu ** np.arange(size)[:, None], y.astype(complex), rcond=None)[0]
    keep = np.abs(w) >= 1e-13 * np.abs(w).max()
    return w[keep], -np.log(mu[keep]) / _EXP_SUM_STEP


def _exp_sum_bound(state, w, s):
    """sum_n g(n) |P(n) - sum_k w_k r_k^n| over all n >= 0: exact over the
    table, and past n_max, where P is zero, the geometric tail of each
    term, sum_{n > n_max} g(n) |w_k| |r_k|^n in closed form."""
    if not (s.real > 0.0).all():
        return math.inf
    n = np.arange(state.n_max + 1, dtype=np.float64)
    fit = np.exp(np.multiply.outer(n, -s / state.tau)) @ w
    inside = _shell_sum(np.abs(state.occupations - fit))
    tail = sum(
        math.exp(_log_shell_tail(math.log(abs(wk)), state.tau / sk, state.n_max))
        for wk, sk in zip(w.tolist(), s.real.tolist())
    )
    return inside + tail


def _exp_sum(state):
    """The state's occupations as a short exponential sum, P(n) ~ sum_k
    w_k e^{-s_k n/tau}: (w, s, bound), where bound is
    ``_exp_sum_bound``.  For log z up to _EXP_SUM_MAX_LOG_Z it stays
    below 1e-12 N.

    The bound certifies both channels: |e^{-x/2} L_n^(2)(x)| <= g(n)
    bounds the coherent amplitude's error by it, and each displacement
    row sums to at most 1, so F2_in moves by at most about twice it."""

    def build():
        w, s = _fermi_fit(state.log_fugacity)
        return w, s, _exp_sum_bound(state, w, s)

    return state.cached("exp_sum", build)


def _exp_sum_certified(state, tol):
    """Whether the exponential sums evaluate both channels to tol of their
    peak: at most _EXP_SUM_MAX_TERMS terms, a fit bound below 1e-3 tol N,
    and round-off below 0.1 tol of each peak.  The round-off estimate is
    eps times the sum of the closed forms' magnitudes at x = 0, which
    bound them at every x; it is what stops cold states of few atoms,
    whose weights cancel to about |w|^2 eps in the pair sum."""

    def check():
        w, _, bound = _exp_sum(state)
        if w.size > _EXP_SUM_MAX_TERMS or bound > 1e-3 * tol * state.total_atoms:
            return False
        amplitude = math.ulp(1.0) * float(np.abs(_exp_sum_terms(state, False)[0]).sum())
        pairs = math.ulp(1.0) * float(np.abs(_exp_sum_terms(state, True)[0]).sum())
        return 2.0 * amplitude <= 0.1 * tol * state.total_atoms and pairs <= 0.1 * tol * _incoherent_x0(state)

    return state.cached(("exp_sum_certified", tol), check)


def _exp_sum_terms(state, incoherent):
    """(c, a) with the channel's amplitude Re sum_j c_j e^{-a_j x}: the K
    coherent terms, or the K^2 incoherent pairs flattened, of the exact
    Maxwell-Boltzmann node (z, 1) or the Fermi-Dirac fit."""

    def build():
        mb = state.statistics is Statistics.MAXWELL_BOLTZMANN
        w, s = (np.array([state.fugacity]), np.array([1.0])) if mb else _exp_sum(state)[:2]
        if not incoherent:
            return _amplitude_terms(w, s, state.tau)
        c, a = _pair_terms(w[:, None], s[:, None], w, s, state.tau)
        return c.ravel(), a.ravel()

    return state.cached(("exp_sum_terms", incoherent), build)


def _exp_sum_form(state, x, incoherent):
    v = _term_sum(*_exp_sum_terms(state, incoherent), x)
    return v if incoherent else v * v


# ---------------------------------------------------------------------------
# node terms: a node path's form function as one exponential sum in x, for
# integrals over x (spectra)
# ---------------------------------------------------------------------------

# the longest power series node_terms cuts: 200 amplitude nodes square to
# 20,100 pairs, and 200 incoherent blocks hold 19,900
_NODE_SERIES_MAX = 200


def _squared(c, a):
    """(c, a) with (Re sum_j c_j e^{-a_j x})^2 = Re sum c e^{-a x}: the pairs
    j <= k of real terms, off-diagonal ones doubled; for complex terms
    Re(u)^2 = (Re(u^2) + |u|^2)/2, every ordered pair of both."""
    if np.iscomplexobj(c):
        c = 0.5 * np.concatenate([np.multiply.outer(c, c).ravel(), np.multiply.outer(c, c.conj()).ravel()])
        return c, np.concatenate([np.add.outer(a, a).ravel(), np.add.outer(a, a.conj()).ravel()])
    j, k = np.triu_indices(c.size)
    return np.where(j == k, 1.0, 2.0) * c[j] * c[k], a[j] + a[k]


def _series_terms(state, incoherent, floor):
    """The fugacity power series of one channel, z < 1, cut at the first
    length whose tail bound is at most floor: (c, a, tail), or None past
    _NODE_SERIES_MAX nodes or blocks.

    Amplitude node l, ((-1)^(l-1) z^l, l), has |c_l| = z^l/h_l^3 with h_l
    growing in l, so |c_{l+1}| <= z |c_l|, and the nodes past L sum to at
    most T = |c_{L+1}|/(1-z) at every x; the squared amplitude moves by at
    most T (2S + T), S the sum of the |c_l| kept.  Incoherent block m, the
    pairs l + l' = m, holds m - 1 terms of magnitude z^m/h_m^3, so the
    blocks past M sum to at most z^{M+1} (M/(1-z) + z/(1-z)^2)/h_{M+1}^3.
    """
    z, tau = state.fugacity, state.tau
    n = np.arange(1.0, _NODE_SERIES_MAX + 2)
    mag = np.exp(n * state.log_fugacity) / -np.expm1(-n / tau) ** 3
    if incoherent:
        # mag[m] is z^{m+1}/h_{m+1}^3, the bound of the blocks past M = m
        tails = mag[2:] * (n[1:-1] / (1.0 - z) + z / (1.0 - z) ** 2)
        lengths = n[1:-1]
    else:
        t = mag[1:] / (1.0 - z)
        tails = t * (2.0 * np.cumsum(mag[:-1]) + t)
        lengths = n[:-1]
    fits = np.nonzero(tails <= floor)[0]
    if not fits.size:
        return None
    size = int(lengths[fits[0]])

    def build():
        if incoherent:
            l1, l2 = (v.ravel() + 1.0 for v in np.indices((size - 1, size - 1)))
            keep = l1 + l2 <= size
            l1, l2 = l1[keep], l2[keep]
            sign = np.where((l1 + l2) % 2 == 1, -1.0, 1.0)
            return _pair_terms(sign * np.exp(l1 * state.log_fugacity), l1, np.exp(l2 * state.log_fugacity), l2, tau)
        l = n[:size]
        sign = np.where(l % 2 == 0, -1.0, 1.0)
        return _squared(*_amplitude_terms(sign * np.exp(l * state.log_fugacity), l, tau))

    return (*state.cached(("series_terms", incoherent, size), build), float(tails[fits[0]]))


def node_terms(state, method, incoherent, tol, floor):
    """One channel's form function as a sum of exponentials in x where its
    branch is a node path (closed-form-mb, exp-sum or power-series, under
    auto or forced): (c, a, tail) with |F(x) - Re sum_j c_j e^{-a_j x}| <=
    tail at every x >= 0, the coherent amplitude squared into pairs.  The
    closed forms and the fit give the terms their branches sum (tail 0);
    the power series is cut where its tail bound reaches floor.  None on
    a table path, and where the series would need more than
    _NODE_SERIES_MAX nodes for floor."""
    path = _resolve(state, _checked_method(state, method, tol), incoherent, tol)
    if path == Method.POWER_SERIES.value:
        return _series_terms(state, incoherent, floor)
    if path not in (Method.CLOSED_FORM_MB.value, _EXP_SUM):
        return None

    def build():
        c, a = _exp_sum_terms(state, incoherent)
        return (c, a) if incoherent else _squared(c, a)

    return (*state.cached(("node_terms", incoherent), build), 0.0)


# ---------------------------------------------------------------------------
# method resolution and the public entry points
# ---------------------------------------------------------------------------

_AUTO_POWER_SERIES_LOG_Z = math.log(0.8)


def _resolve(state, method, incoherent, tol):
    """The name of the branch that evaluates method in one channel.

    auto takes the Maxwell-Boltzmann closed forms, the power series below
    z = 0.8, the exponential sums up to log z = _EXP_SUM_MAX_LOG_Z where
    the fit certifies the tolerance, and the table sums elsewhere.  The
    series stays below z = 0.8 because it stops each x on its own
    relative rule, so it keeps deep coherent tails that a fit, accurate
    to a fraction of the peak, cannot.

    A forced Maxwell-Boltzmann power series is the closed form.  laguerre
    is the general coherent path and convolution the general incoherent
    one; the other channel's method names fall through to them, so one
    forced method works for both channels.
    """
    fd = state.statistics is Statistics.FERMI_DIRAC
    if method is Method.AUTO:
        if not fd:
            return Method.CLOSED_FORM_MB.value
        if state.log_fugacity < _AUTO_POWER_SERIES_LOG_Z:
            return Method.POWER_SERIES.value
        if state.log_fugacity <= _EXP_SUM_MAX_LOG_Z and _exp_sum_certified(state, tol):
            return _EXP_SUM
    elif method is Method.CLOSED_FORM_MB or (method is Method.POWER_SERIES and not fd):
        return Method.CLOSED_FORM_MB.value
    elif method is Method.POWER_SERIES:
        return method.value
    if not incoherent:
        return Method.LAGUERRE_SUM.value
    return (Method.QUAD_SUM if method is Method.QUAD_SUM else Method.CONVOLUTION_SUM).value


def describe_methods(state, method=Method.AUTO, tolerance=1e-8):
    """What evaluates method on the state: {"coh_method", "inc_method"}
    name each channel's branch, and where one is the exponential sum,
    "K" and "fit_bound" give its number of terms and certified bound
    sum_n g(n) |P(n) - fit(n)|.  A method the state refuses raises as
    its form functions would."""
    method = _checked_method(state, method, tolerance)
    out = {
        "coh_method": _resolve(state, method, False, tolerance),
        "inc_method": _resolve(state, method, True, tolerance),
    }
    if _EXP_SUM in out.values():
        w, _, bound = _exp_sum(state)
        out.update(K=int(w.size), fit_bound=bound)
    return out


def _branch(state, path, incoherent, tol, x):
    """The values of the branch named path (see ``_resolve``) in one
    channel at the transfers x > 0 of a 1-D array (the power series takes
    x = 0 too)."""
    if path in (Method.CLOSED_FORM_MB.value, _EXP_SUM):
        return _exp_sum_form(state, x, incoherent)
    if path == Method.POWER_SERIES.value:
        return (_incoherent_power_series if incoherent else _coherent_power_series)(state, x, tol)
    if path == Method.LAGUERRE_SUM.value:
        return _coherent_laguerre(state, x)
    if path == Method.QUAD_SUM.value:
        return _incoherent_quad(state, x)
    return _incoherent_conv(state, x, tol)


def _evaluate(state, x, method, tol, incoherent):
    """One form-function evaluation in one channel: the zero-transfer value
    where x = 0 and the method's branch elsewhere, a float for a float x,
    else an array in the shape of x.  Every x must be finite and >= 0
    (ValueError).  The auto cross-check runs at the first x."""
    method = _checked_method(state, method, tol)
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    ok = (flat >= 0.0) & (flat < math.inf)
    if not ok.all():
        raise ValueError(f"x must be finite and >= 0, got {flat[~ok][0]!r}")
    path = _resolve(state, method, incoherent, tol)
    if method is Method.AUTO and path in _CHECKED_PATHS and flat.size:
        _auto_cross_check(state, incoherent, path, float(flat[0]), tol)
    out = np.empty(flat.shape)
    zero = flat == 0.0
    if zero.any():
        out[zero] = _incoherent_x0(state) if incoherent else state.total_atoms**2
    live = np.nonzero(~zero)[0]
    if live.size:
        try:
            out[live] = _branch(state, path, incoherent, tol, flat[live])
        except FormFunctionError as e:
            if e.index is not None:
                e.index = int(live[e.index])
            raise
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


# the branches auto checks against the table sums; a state takes at most
# one of them (the power series below z = 0.8, the exponential sums above)
_CHECKED_PATHS = (Method.POWER_SERIES.value, _EXP_SUM)


def _auto_cross_check(state, incoherent, path, x, tol):
    """On the first auto use of the branch named path (one of
    _CHECKED_PATHS) per state and bound max(1e-6, 100 tol), compare it
    with an independent sum over the occupation table at one transfer
    derived from the first x.  The state counts as checked at that bound
    only after a comparison passes, so a failing check raises on every
    call, and a pass at a looser bound does not stand for a tighter one.

    The coherent check compares with the Laguerre sum at x, damped so the
    true value stays within ~e^{-25} of the zero-transfer peak: beyond
    that the signed Laguerre sum drowns in cancellation round-off for
    high-temperature states and the comparison is void.  At x = 0 both
    would return N^2, so there the check moves to the damped cap.  The
    incoherent check compares with the contraction at the damped x; where
    x = 0, or where n_eff exceeds _CROSS_CHECK_CONV_LIMIT and the weight
    table would cost more than the evaluation it checks, it compares the
    branch at x = 0 with sum_n g(n) P(n)^2 instead, which needs no table.
    """

    bound = max(1e-6, 100.0 * tol)

    def check():
        cap = min(25.0 * math.tanh(0.5 / state.tau), 0.5 * state.n_max + 1.0)
        if not incoherent:
            at_x = min(x, cap) if x > 0.0 else cap
        elif x > 0.0 and _effective_shell_cutoff(state, tol) <= _CROSS_CHECK_CONV_LIMIT:
            at_x = min(x, cap)
        else:
            at_x = 0.0
        one = np.array([at_x])
        a = float(_branch(state, path, incoherent, tol, one)[0])
        if at_x == 0.0:
            b = _incoherent_x0(state)
        else:
            general = (Method.CONVOLUTION_SUM if incoherent else Method.LAGUERRE_SUM).value
            b = float(_branch(state, general, incoherent, tol, one)[0])
        if abs(a - b) > bound * max(abs(a), abs(b), 1e-300):
            raise ToleranceNotMet(
                f"auto cross-check failed at x={at_x:.4g}: {path} {a:.12g} vs table sum {b:.12g}"
            )
        return True

    state.cached(("auto_checked_inc" if incoherent else "auto_checked_coh", bound), check)


def coherent_form(state, x, method=Method.AUTO, tolerance=1e-8):
    """Coherent form function F2_coh >= 0 of the state at the momentum
    transfer x = |k - k_L|^2 a^2 (see ``model.kinematics``), by method (a
    Method or its name) to tolerance.

    A float for a float x; for an array of x, an array of its shape, each
    value equal to that of its x alone.  The auto cross-check runs at the
    first x.
    """
    return _evaluate(state, x, method, tolerance, incoherent=False)


def incoherent_form(state, x, method=Method.AUTO, tolerance=1e-8):
    """Incoherent form function F2_in = sum N N' |eta|^2 >= 0.

    Arguments, shapes, values and the cross-check point as for
    ``coherent_form``.
    """
    return _evaluate(state, x, method, tolerance, incoherent=True)
