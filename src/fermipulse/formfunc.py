"""Coherent and incoherent form functions of the trapped gas.

The coherent form function is the squared thermal average of the atomic
phase factor, F2_coh = |sum_n P(n) stuff|^2; the incoherent one is the
double occupation sum F2_in = sum_{n,n'} N_n N_n' |eta_nn'|^2 that is
subtracted from N-proportional terms in the incoherent spectrum.

Three strategies per quantity, valid in complementary regimes:

* power series in the fugacity (z < 1, high temperature) -- single sum
  for the coherent branch, double sum for the incoherent one;
* occupation-table sums (any z, the degenerate regime): a single scaled
  Laguerre sum for the coherent branch; for the incoherent branch either
  the direct four-index sum over per-axis displacement tables (small
  traps, the mid-scale oracle) or its exact single-axis contraction.
  Shell projectors commute with rotations, so F2_in depends only on
  x = x_x + x_z; with the momentum transfer along one axis the sum is
  F2_in(x) = sum_{a,b} |<a|D(x)|b>|^2 W(a, b), with the shell-pair weight
  W(a, b) = sum_s (s+1) P(s+a) P(s+b) tabulated once per state;
* closed forms for Maxwell-Boltzmann occupations.

Every branch evaluates an array of x at once: the power series carry one
partial sum per x, each stopped by its own rule, and the table sums
advance their recurrences for a chunk of x at a time.  A value never
depends on the other x of its array.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft as _fft  # unused; fermibench/tracer.py patches formfunc._fft

from . import _kernels
from .statmech import Statistics, ThermalState, _degeneracy_array

QUAD_SUM_CEILING = 60
# at this n_eff the packed weight table, (n_eff+1)(n_eff+2)/2 doubles, is about 1 GiB
CONVOLUTION_SUM_CEILING = 16_000

# pragmatic caps on the slow paths
_POWER_SERIES_MAX_TERMS = 500_000
_POWER_SERIES_MAX_BLOCKS = 40_000
_CROSS_CHECK_CONV_LIMIT = 2000


class FormFunctionError(Exception):
    """Base class for form-function evaluation failures.

    index is the position, in the flattened x array of the request, of the
    point that failed, or None when the failure is not tied to one point.
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


@dataclass
class FormFunctionRequest:
    """One form-function evaluation: state, momentum-transfer point, method.

    The point may hold arrays (see ``model.kinematics``); the request then
    evaluates every momentum transfer in them at once.
    """

    state: ThermalState
    point: object
    method: Method = Method.AUTO
    tolerance: float = 1e-8

    def __post_init__(self):
        if isinstance(self.method, str):
            self.method = Method.parse(self.method)
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance!r}")
        st = self.state
        if self.method is Method.POWER_SERIES:
            if st.statistics is Statistics.FERMI_DIRAC and st.log_fugacity >= 0.0:
                raise SeriesDivergence(
                    f"power series requires z < 1, state has log z = {st.log_fugacity:.4g}"
                )
        if self.method is Method.CLOSED_FORM_MB and st.statistics is not Statistics.MAXWELL_BOLTZMANN:
            raise ValueError("closed-form-mb requires Maxwell-Boltzmann statistics")


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


def incoherent_weight(n, m, state):
    """sum_y P(n+y) P(m+y), the shell-pair weight of the incoherent sum."""
    if n < 0 or m < 0 or n != int(n) or m != int(m):
        raise ValueError(f"indices must be non-negative integers, got {n!r}, {m!r}")
    n, m = int(n), int(m)
    p = state.occupations
    length = p.shape[0] - max(n, m)
    if length <= 0:
        return 0.0
    return float(np.dot(p[n : n + length], p[m : m + length]))


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


# ---------------------------------------------------------------------------
# coherent branch
# ---------------------------------------------------------------------------


def _coherent_laguerre(state, x):
    s = _kernels.laguerre_weighted_sum(state.occupations, 2.0, x)
    return s * s


def _coherent_closed_mb(state, x):
    return state.total_atoms**2 * np.exp(-x / math.tanh(0.5 / state.tau))


def _coherent_power_series(state, x, tol):
    tau = state.tau
    log_z = state.log_fugacity

    def terms(ls, xs):
        ls = ls.tolist()
        head = np.array([l * log_z - 3.0 * math.log(-math.expm1(-l / tau)) for l in ls])
        width = np.array([math.tanh(0.5 * l / tau) for l in ls])
        log_mag = 0.5 * xs[:, None] / width
        np.subtract(head, log_mag, out=log_mag)
        mag = np.exp(log_mag)
        mag[log_mag <= -745.0] = 0.0
        return mag

    acc = _alternating_series("coherent", x, tol, 1, 8, _POWER_SERIES_MAX_TERMS, terms, 64)
    return acc * acc


# ---------------------------------------------------------------------------
# incoherent branch
# ---------------------------------------------------------------------------


def _incoherent_x0(state):
    # displacement matrices are identities at zero momentum transfer, so the
    # whole sum collapses to sum_n g(n) P(n)^2
    g = _degeneracy_array(state.n_max)
    return float(g @ (state.occupations**2))


def _incoherent_closed_mb(state, x):
    th = math.tanh(0.5 / state.tau)
    return state.total_atoms**2 * th**3 * np.exp(-x * th)


def _incoherent_power_series(state, x, tol):
    log_z = state.log_fugacity
    lq = -1.0 / state.tau

    def term(total_l, xs):
        # block total_l: sum over l1 + l2 = total_l of the product of two
        # thermal envelopes, summed row by row for a slab of x at a time
        log_pref = total_l * log_z - 3.0 * math.log(-math.expm1(total_l * lq))
        if log_pref <= -700.0:
            return np.zeros(xs.size)
        l1 = np.arange(1, total_l, dtype=np.float64)
        fshape = -np.expm1(l1 * lq) * np.expm1((total_l - l1) * lq) / math.expm1(total_l * lq)
        rows = max(1, _kernels.CHUNK_DOUBLES // fshape.size)
        block = _kernels._chunked(xs, rows, lambda chunk: np.exp(-chunk[:, None] * fshape).sum(axis=1))
        return math.exp(log_pref) * block

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


def _incoherent_quad(state, x_x, x_z):
    if state.n_max > QUAD_SUM_CEILING:
        raise BudgetExceeded(
            f"direct four-index sum capped at n_max <= {QUAD_SUM_CEILING}, "
            f"state has n_max = {state.n_max}; use the convolution method"
        )
    pair = _occupation_pair_block(state, state.n_max)
    out = np.empty(x_x.shape)
    for i, (xx, xz) in enumerate(zip(x_x.tolist(), x_z.tolist())):
        mx = _kernels.fc_matrix(state.n_max, xx)
        mz = _kernels.fc_matrix(state.n_max, xz)
        out[i] = _kernels.quad_sum(pair, mx, mz)
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
# method resolution and the public entry points
# ---------------------------------------------------------------------------

_AUTO_POWER_SERIES_LOG_Z = math.log(0.8)


def _auto_method(state, incoherent):
    if state.statistics is Statistics.MAXWELL_BOLTZMANN:
        return Method.CLOSED_FORM_MB
    if state.log_fugacity < _AUTO_POWER_SERIES_LOG_Z:
        return Method.POWER_SERIES
    return Method.CONVOLUTION_SUM if incoherent else Method.LAGUERRE_SUM


def _branch(state, method, incoherent, tol, point, live, x):
    """A forced method's values in one channel at the transfers x > 0 (the
    power series takes x = 0 too), found at the positions live of the
    point's flattened transfers.

    A Maxwell-Boltzmann power series is the closed form.  LAGUERRE_SUM is
    the general coherent path and CONVOLUTION_SUM the general incoherent
    one; the other channel's method names fall through to them, so one
    forced method works for both channels.  Only the direct four-index
    sum reads the per-axis transfers of the point.
    """
    if method is Method.POWER_SERIES and state.statistics is Statistics.MAXWELL_BOLTZMANN:
        method = Method.CLOSED_FORM_MB
    if method is Method.CLOSED_FORM_MB:
        return (_incoherent_closed_mb if incoherent else _coherent_closed_mb)(state, x)
    if method is Method.POWER_SERIES:
        return (_incoherent_power_series if incoherent else _coherent_power_series)(state, x, tol)
    if not incoherent:
        return _coherent_laguerre(state, x)
    if method is Method.QUAD_SUM:
        x_x, x_z = (
            np.broadcast_to(np.asarray(v, dtype=np.float64), np.shape(point.x_total)).ravel()[live]
            for v in (point.x_x, point.x_z)
        )
        return _incoherent_quad(state, x_x, x_z)
    return _incoherent_conv(state, x, tol)


def _evaluate(state, point, method, tol, incoherent):
    """One form-function evaluation in one channel: the zero-transfer value
    where x = 0 and the method's branch elsewhere, a float for a point of
    floats, else an array in the point's shape.  The auto cross-check runs
    at the first x."""
    x = np.asarray(point.x_total, dtype=np.float64)
    flat = x.ravel()
    if method is Method.AUTO:
        method = _auto_method(state, incoherent)
        if method is Method.POWER_SERIES and flat.size:
            _auto_cross_check(state, incoherent, float(flat[0]), tol)
    out = np.empty(flat.shape)
    zero = flat == 0.0
    if zero.any():
        out[zero] = _incoherent_x0(state) if incoherent else state.total_atoms**2
    live = np.nonzero(~zero)[0]
    if live.size:
        try:
            out[live] = _branch(state, method, incoherent, tol, point, live, flat[live])
        except FormFunctionError as e:
            if e.index is not None:
                e.index = int(live[e.index])
            raise
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def _auto_cross_check(state, incoherent, x, tol):
    """On the first auto power-series use per state, compare the series
    with an independent sum over the occupation table at one transfer
    derived from the first x.  The state counts as checked only after a
    comparison passes, so a failing check raises on every call.

    The coherent check compares with the Laguerre sum at x, damped so the
    true value stays within ~e^{-25} of the zero-transfer peak: beyond
    that the signed Laguerre sum drowns in cancellation round-off for
    high-temperature states and the comparison is void.  At x = 0 both
    would return N^2, so there the check moves to the damped cap.  The
    incoherent check compares with the contraction at the damped x; where
    x = 0, or where n_eff exceeds _CROSS_CHECK_CONV_LIMIT and the weight
    table would cost more than the evaluation it checks, it compares the
    series at x = 0 with sum_n g(n) P(n)^2 instead, which needs no table.
    """

    def check():
        cap = min(25.0 * math.tanh(0.5 / state.tau), 0.5 * state.n_max + 1.0)
        if not incoherent:
            at_x = min(x, cap) if x > 0.0 else cap
        elif x > 0.0 and _effective_shell_cutoff(state, tol) <= _CROSS_CHECK_CONV_LIMIT:
            at_x = min(x, cap)
        else:
            at_x = 0.0
        one = np.array([at_x])
        a = float(_branch(state, Method.POWER_SERIES, incoherent, tol, None, None, one)[0])
        if at_x == 0.0:
            b = _incoherent_x0(state)
        else:
            general = Method.CONVOLUTION_SUM if incoherent else Method.LAGUERRE_SUM
            b = float(_branch(state, general, incoherent, tol, None, None, one)[0])
        bound = max(1e-6, 100.0 * tol)
        if abs(a - b) > bound * max(abs(a), abs(b), 1e-300):
            raise ToleranceNotMet(
                f"auto cross-check failed at x={at_x:.4g}: power series {a:.12g} vs table sum {b:.12g}"
            )
        return True

    state.cached("auto_checked_inc" if incoherent else "auto_checked_coh", check)


def coherent_form(req):
    """Coherent form function F2_coh >= 0 at the request's momentum transfer.

    A float for a point of floats; for a point of arrays, an array of
    their shape, each value equal to that of the point alone.  The auto
    cross-check runs at the first x.
    """
    return _evaluate(req.state, req.point, req.method, req.tolerance, incoherent=False)


def incoherent_form(req):
    """Incoherent form function F2_in = sum N N' |eta|^2 >= 0.

    Shapes, values and the cross-check point as for ``coherent_form``.
    """
    return _evaluate(req.state, req.point, req.method, req.tolerance, incoherent=True)
