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
    """Base class for form-function evaluation failures."""


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
    """One form-function evaluation: state, momentum-transfer point, method."""

    state: ThermalState
    point: object
    method: Method = Method.AUTO
    tolerance: float = 1e-8

    def __post_init__(self):
        if isinstance(self.method, str):
            self.method = Method.parse(self.method)
        if not (self.tolerance > 0.0):
            raise ValueError(f"tolerance must be positive, got {self.tolerance!r}")
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


def _occupation_pair_block(state, size):
    """Table W[s, t] = sum_y P(s+y) P(t+y) for s, t <= size.

    Built by reverse cumulative sums along diagonals; the y sum runs to the
    end of the occupation table (occupations beyond n_max are zero).
    """

    def build():
        p = state.occupations
        n_top = p.shape[0] - 1
        out = np.empty((size + 1, size + 1))
        idx = np.arange(size + 1)
        for d in range(size + 1):
            prod = p[: n_top + 1 - d] * p[d:]
            tail = np.cumsum(prod[::-1])[::-1]
            take = size + 1 - d
            out[idx[:take], idx[:take] + d] = tail[:take]
            if d:
                out[idx[:take] + d, idx[:take]] = tail[:take]
        out.flags.writeable = False
        return out

    return state.cached(("pair_block", size), build)


def _weight_diagonals(state, size):
    """Packed table of W(m, m+d) = sum_s (s+1) P(s+m) P(s+m+d), m + d <= size.

    Row m holds d = 0..size-m, the layout ``_kernels.fc_weighted_sum``
    reads; entries with d > 0 are doubled, because |<a|D|b>|^2 is symmetric
    in a and b.  Each diagonal is a double reverse cumulative sum of
    P(n) P(n+d) that runs to the end of the occupation table.
    """

    def build():
        p = state.occupations
        n_top = p.shape[0] - 1
        rows = np.arange(size + 1)
        start = rows * (size + 1) - rows * (rows - 1) // 2
        out = np.empty(start[-1] + 1)
        for d in range(size + 1):
            prod = p[: n_top + 1 - d] * p[d:]
            tail = np.cumsum(np.cumsum(prod[::-1]))[::-1]
            take = size + 1 - d
            out[start[:take] + d] = tail[:take] if d == 0 else 2.0 * tail[:take]
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
        g = _degeneracy_array(state.n_max)
        p = state.occupations
        tail = np.cumsum((g * p)[::-1])[::-1]
        peak = float(g @ (p * p))
        p_max = float(p.max()) if p.size else 0.0
        cut = budget * peak / max(2.0 * p_max, 1e-300)
        keep = np.nonzero(tail > max(cut, 1e-300))[0]
        return int(keep[-1]) if keep.size else 0

    return state.cached(("n_eff", round(math.log10(budget), 3)), build)


# ---------------------------------------------------------------------------
# coherent branch
# ---------------------------------------------------------------------------


def _coherent_x0(state):
    return state.total_atoms**2


def _coherent_laguerre(state, x):
    if x == 0.0:
        return _coherent_x0(state)
    s = _kernels.laguerre_weighted_sum(state.occupations, 2.0, float(x))
    return float(s * s)


def _coherent_closed_mb(state, x):
    if x == 0.0:
        return _coherent_x0(state)
    return state.total_atoms**2 * math.exp(-x / math.tanh(0.5 / state.tau))


def _coherent_power_series(state, x, tol):
    if state.log_fugacity >= 0.0:
        raise SeriesDivergence(
            f"power series requires z < 1, state has log z = {state.log_fugacity:.4g}"
        )
    if x == 0.0:
        return _coherent_x0(state)
    tau = state.tau
    log_z = state.log_fugacity
    acc = 0.0
    prev_mag = math.inf
    l = 1
    while True:
        log_mag = (
            l * log_z
            - 3.0 * math.log(-math.expm1(-l / tau))
            - 0.5 * x / math.tanh(0.5 * l / tau)
        )
        mag = math.exp(log_mag) if log_mag > -745.0 else 0.0
        acc += mag if (l % 2 == 1) else -mag
        if l >= 8 and mag <= prev_mag and mag <= tol * max(abs(acc), 1e-300):
            break
        prev_mag = mag
        l += 1
        if l > _POWER_SERIES_MAX_TERMS:
            raise ToleranceNotMet(f"coherent power series did not settle within {l} terms")
    return acc * acc


# ---------------------------------------------------------------------------
# incoherent branch
# ---------------------------------------------------------------------------


def _incoherent_x0(state):
    g = _degeneracy_array(state.n_max)
    return float(g @ (state.occupations**2))


def _incoherent_closed_mb(state, x):
    th = math.tanh(0.5 / state.tau)
    return state.total_atoms**2 * th**3 * math.exp(-x * th)


def _incoherent_power_series(state, x, tol):
    if state.statistics is Statistics.MAXWELL_BOLTZMANN:
        return _incoherent_closed_mb(state, x)
    if state.log_fugacity >= 0.0:
        raise SeriesDivergence(
            f"power series requires z < 1, state has log z = {state.log_fugacity:.4g}"
        )
    if x == 0.0:
        return _incoherent_x0(state)
    tau = state.tau
    log_z = state.log_fugacity
    lq = -1.0 / tau
    acc = 0.0
    prev_mag = math.inf
    for total_l in range(2, _POWER_SERIES_MAX_BLOCKS):
        l1 = np.arange(1, total_l, dtype=np.float64)
        fshape = -np.expm1(l1 * lq) * np.expm1((total_l - l1) * lq) / math.expm1(total_l * lq)
        block = float(np.exp(-x * fshape).sum())
        log_pref = total_l * log_z - 3.0 * math.log(-math.expm1(total_l * lq))
        mag = math.exp(log_pref) * block if log_pref > -700.0 else 0.0
        acc += mag if (total_l % 2 == 0) else -mag
        if total_l >= 9 and mag <= prev_mag and mag <= tol * max(abs(acc), 1e-300):
            break
        prev_mag = mag
    else:
        raise ToleranceNotMet("incoherent power series did not settle")
    if acc < 0.0:
        raise ToleranceNotMet(f"incoherent power series returned {acc:.3g} < 0")
    return acc


def _incoherent_quad(state, x_x, x_z):
    if state.n_max > QUAD_SUM_CEILING:
        raise BudgetExceeded(
            f"direct four-index sum capped at n_max <= {QUAD_SUM_CEILING}, "
            f"state has n_max = {state.n_max}; use the convolution method"
        )
    mx = _kernels.fc_matrix(state.n_max, float(x_x))
    mz = _kernels.fc_matrix(state.n_max, float(x_z))
    pair = _occupation_pair_block(state, state.n_max)
    return float(_kernels.quad_sum(pair, mx, mz))


def _incoherent_conv(state, x, tol):
    """F2_in at total transfer x: the single-axis contraction over shells <= n_eff."""
    if x == 0.0:
        return _incoherent_x0(state)
    n_eff = _effective_shell_cutoff(state, tol)
    if n_eff > CONVOLUTION_SUM_CEILING:
        raise BudgetExceeded(
            f"single-axis contraction capped at n_eff <= {CONVOLUTION_SUM_CEILING}, "
            f"state has n_eff = {n_eff}"
        )
    return _kernels.fc_weighted_sum(_weight_diagonals(state, n_eff), n_eff, float(x))


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


def _check_point(state, x):
    """Momentum transfer for the auto cross-check.

    Damped so the true value stays within ~e^{-25} of the zero-transfer
    peak: beyond that the signed Laguerre sum drowns in cancellation
    round-off for high-temperature states and the comparison is void.
    """
    return min(x, 25.0 * math.tanh(0.5 / state.tau), 0.5 * state.n_max + 1.0)


def _cross_check_once(state, key, fast, other, scale_x, tol):
    """On the first auto power-series use per state, verify one point against
    the occupation-table branch at a damped momentum transfer.  The state
    counts as checked only after a comparison passes, so a failing check
    raises on every call."""

    def check():
        a = fast(scale_x)
        b = other(scale_x)
        bound = max(1e-6, 100.0 * tol)
        if abs(a - b) > bound * max(abs(a), abs(b), 1e-300):
            raise ToleranceNotMet(
                f"auto cross-check failed at x={scale_x:.4g}: power series {a:.12g} "
                f"vs table sum {b:.12g}"
            )
        return True

    state.cached(key, check)


def coherent_form(req):
    """Coherent form function F2_coh >= 0 at the request's momentum transfer."""
    st = req.state
    x = req.point.x_total
    method = req.method
    if method is Method.AUTO:
        method = _auto_method(st, incoherent=False)
        if method is Method.POWER_SERIES:
            _cross_check_once(
                st,
                "auto_checked_coh",
                lambda xx: _coherent_power_series(st, xx, req.tolerance),
                lambda xx: _coherent_laguerre(st, xx),
                _check_point(st, x),
                req.tolerance,
            )
    if method is Method.POWER_SERIES:
        if st.statistics is Statistics.MAXWELL_BOLTZMANN:
            return _coherent_closed_mb(st, x)
        return _coherent_power_series(st, x, req.tolerance)
    if method is Method.CLOSED_FORM_MB:
        return _coherent_closed_mb(st, x)
    # LAGUERRE_SUM is the general coherent path; the incoherent-only method
    # names fall through to it so a single forced method works for surfaces
    return _coherent_laguerre(st, x)


def incoherent_form(req):
    """Incoherent form function F2_in = sum N N' |eta|^2 >= 0."""
    st = req.state
    pt = req.point
    method = req.method
    if method is Method.AUTO:
        method = _auto_method(st, incoherent=True)
        if method is Method.POWER_SERIES and _effective_shell_cutoff(st, req.tolerance) <= _CROSS_CHECK_CONV_LIMIT:
            _cross_check_once(
                st,
                "auto_checked_inc",
                lambda xx: _incoherent_power_series(st, xx, req.tolerance),
                lambda xx: _incoherent_conv(st, xx, req.tolerance),
                _check_point(st, pt.x_total),
                req.tolerance,
            )
    if pt.x_x == 0.0 and pt.x_z == 0.0 and method is not Method.POWER_SERIES:
        # zero momentum transfer: displacement matrices are identities and
        # the whole sum collapses to sum_n g(n) P(n)^2
        return _incoherent_x0(st)
    if method is Method.POWER_SERIES:
        return _incoherent_power_series(st, pt.x_total, req.tolerance)
    if method is Method.CLOSED_FORM_MB:
        return _incoherent_closed_mb(st, pt.x_total)
    if method is Method.QUAD_SUM:
        return _incoherent_quad(st, pt.x_x, pt.x_z)
    # CONVOLUTION_SUM; LAGUERRE_SUM falls through as the general alias
    return _incoherent_conv(st, pt.x_total, req.tolerance)
