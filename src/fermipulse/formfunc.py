"""Coherent and incoherent form functions of the trapped gas.

The coherent form function is the square of the thermal average of the
atomic phase factor, F2_coh = A(x)^2, with the amplitude A(x) = sum_n P(n)
e^{-x/2} L_n^(2)(x) over the shells n of occupation P(n) per level; the
incoherent one is the double occupation sum F2_in = sum_{n,n'} N_n N_n'
|eta_nn'|^2 that is subtracted from N-proportional terms in the
incoherent spectrum.  In the isotropic trap F2_in is the Hankel image of
A^2, F2_in(x) = (1/x) int_0^inf A(y)^2 J_2(2 sqrt(x y)) y dy (phase-space
completeness; Cahill & Glauber, Phys. Rev. 177, 1857 (1969)), which maps
each term c e^{-a y} of A^2 to (c/a^3) e^{-x/a} (``_image``).

One amplitude, three node sources.  An occupation term P(n) = w e^{-s n/tau},
h = 1 - e^{-s/tau}, has the amplitude w h^{-3} e^{-x (1/h - 1/2)} (the
generating function of the Laguerre polynomials; ``_amplitude_terms``).
The nodes (w, s) are the exact Maxwell-Boltzmann node (z, 1); for
Fermi-Dirac at 0.8 <= z <= e^4, a short exponential fit of the Fermi
function f(u) = 1/(1 + e^{u - log z}) ~ Re sum_k w_k e^{-s_k u}, stored
at two anchors with each conjugate pair folded into one term and shifted
to the state's log z (``_fermi_fit``: no linear algebra at run time), so
a point costs O(K) and O(K^2) for K = 9-13 terms; and for z < 1, the
fugacity power series' nodes ((-1)^(l-1) z^l, l), cut once per state
where the tail bounds reach eps of each channel's peak (``_series_cut``:
the first L nodes for A, the pairs l + l' <= M for F2_in).  Each node path's
amplitude, cached on the state, is the term source of both channels
(``_node_terms``): the coherent one sums it and squares the sum, the
incoherent one sums the image of its square (``_squared``).  The form
functions sum these terms and the angular integrals of ``spectra``
integrate them (``node_terms``).

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

Every branch evaluates an array of x at once: the node paths sum the
same terms at every x, each x reduced on its own, and the table sums
advance their recurrences for a chunk of x at a time.  A value never
depends on the other x of its array.
"""

import enum
import itertools
import math

import numpy as np

from . import _kernels
from .statmech import Statistics, _degeneracy_array, _log_shell_tail, _shell_sum

_fft = np.fft  # unused; fermibench/tracer.py patches formfunc._fft

QUAD_SUM_CEILING = 60
# at this n_eff the packed weight table, (n_eff+1)(n_eff+2)/2 doubles, is about 1 GiB
CONVOLUTION_SUM_CEILING = 16_000

# pragmatic caps on the slow paths
_POWER_SERIES_MAX_TERMS = 500_000
_POWER_SERIES_MAX_BLOCKS = 40_000


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


# the harmonic-trap closed forms: each term of either channel is c e^{-a x}
def _amplitude_terms(w, s, tau):
    """(c, a) with sum_n w e^{-s n/tau} e^{-x/2} L_n^(2)(x) = c e^{-a x}:
    with h = 1 - e^{-s/tau}, c = w/h^3 and a = (1+r)/(2(1-r)) = 1/h - 1/2."""
    h = -np.expm1(s / -tau)
    return w / h**3, 1.0 / h - 0.5


def _image(c, a):
    """The Hankel image (1/x) int_0^inf c e^{-a y} J_2(2 sqrt(x y)) y dy =
    (c/a^3) e^{-x/a} of terms c e^{-a y} of A^2: F2_in's terms (c/a^3, 1/a).
    For the amplitude terms of two occupation terms it is w w'/h''^3
    e^{-x h h'/h''}, h'' the h of s + s'."""
    return c / a**3, 1.0 / a


# ---------------------------------------------------------------------------
# coherent branch
# ---------------------------------------------------------------------------


def _coherent_laguerre(state, x):
    s = _kernels.laguerre_weighted_sum(state.occupations, 2.0, x)
    return s * s


# ---------------------------------------------------------------------------
# incoherent branch
# ---------------------------------------------------------------------------


def _incoherent_x0(state):
    # displacement matrices are identities at zero momentum transfer, so the
    # whole sum collapses to sum_n g(n) P(n)^2
    return _shell_sum(state.occupations**2)


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
_EXP_SUM_MAX_TERMS = 32  # the stored fits' length cap, checked by the tests

# f(u) = 1/(1 + e^{u - A}) ~ Re sum_k w_k e^{-s_k u} on 0 <= u <= A + 40, one
# fit (w, s) per anchor A: the real nodes, then each conjugate pair folded
# into one term; printed by scripts/fermi_fit_table.py
_FERMI_FIT_TABLE = {
    1.0: (
        (2.718281828785147, 1.0000000000095357),
        (-7.389042206157039, 1.999999804695967),
        (20.1584080059859, 3.0004527467193336),
        (-28.697849610140512, 3.870766788043201),
        (14.311880431498935-7.881737093358795j, 4.251103814262294+0.6966554447466764j),
        (-0.35860878198279866+1.0862737880311855j, 4.667233226496731+1.7160433340333867j),
        (-0.012446884587096925-0.04208398615313691j, 5.063709888582237+2.933809288691479j),
        (0.0004372499095430804+0.0005439135535037932j, 5.43686430098073+4.441287194201165j),
        (-1.4546820708999977e-06-1.942876508450869e-06j, 5.778532683125498+6.46579370485492j),
    ),
    4.0: (
        (54.598148224603264, 0.999999998153843),
        (-2998.854355825201, 2.000398261126315),
        (11370.268425678292, 2.632522153259444),
        (-10530.577399389682+4221.999759480761j, 2.731041648249522+0.5731783506048869j),
        (2502.124061739113-1341.382413037068j, 2.862392155212711+1.2067848089870412j),
        (-454.7224411996373+260.9561969272309j, 2.9616884025585843+1.89211415099208j),
        (64.45106248642138-30.845762524875962j, 3.0262344450379204+2.6317493658486946j),
        (-6.751820601892431+1.7215122862387109j, 3.0531445337490752+3.43214446956278j),
        (0.4623009856466713+0.042994234476607704j, 3.0375959382058406+4.30262103621669j),
        (-0.016062877431578058-0.011359832926249107j, 2.971783887094416+5.257635623531306j),
        (9.057111901711323e-05+0.00046133791229863164j, 2.842569395426689+6.3215676737379525j),
        (4.004883635388978e-06-3.0621120856721973e-06j, 2.62440627319413+7.541394984651145j),
        (-6.195108426254592e-09-1.2043273045492242e-08j, 2.248614523943443+9.04039809766872j),
    ),
}
_FERMI_FITS = tuple((anchor, np.array(terms, dtype=complex).T.copy()) for anchor, terms in _FERMI_FIT_TABLE.items())
# auto tries no fit above the last anchor
_EXP_SUM_MAX_LOG_Z = _FERMI_FITS[-1][0]


def _fermi_fit(log_z):
    """The fit f(u) ~ Re sum_k w_k e^{-s_k u} of the Fermi function f(u) =
    1/(1 + e^{u - log z}) on 0 <= u <= log z + 40: the stored fit at the
    first anchor A >= log z, shifted, since f(u) = f_A(u + A - log z).
    The nodes stay, the weights become w_k e^{s_k (log z - A)}.  Returns
    (w, s), complex."""
    for anchor, (w, s) in _FERMI_FITS:
        if log_z <= anchor:
            return w * np.exp(s * (log_z - anchor)), s
    raise ValueError(f"no stored Fermi-function fit above log z = {_EXP_SUM_MAX_LOG_Z}, got {log_z!r}")


def _exp_sum_bound(state, w, s):
    """sum_n g(n) |P(n) - Re sum_k w_k r_k^n| over all n >= 0: exact over
    the table, and past n_max, where P is zero, the geometric tail of each
    term, sum_{n > n_max} g(n) |w_k| |r_k|^n in closed form."""
    if not (s.real > 0.0).all():
        return math.inf
    n = np.arange(state.n_max + 1, dtype=np.float64)
    fit = np.add.reduce(np.exp(np.multiply.outer(n, -s / state.tau)) * w, axis=1).real
    inside = _shell_sum(np.abs(state.occupations - fit))
    tail = sum(
        math.exp(_log_shell_tail(math.log(abs(wk)), state.tau / sk, state.n_max))
        for wk, sk in zip(w.tolist(), s.real.tolist())
    )
    return inside + tail


def _exp_sum(state):
    """The state's occupations as a short exponential sum, P(n) ~ Re
    sum_k w_k e^{-s_k n/tau} (``_fermi_fit`` at the state's log z): (w, s,
    bound), where bound is ``_exp_sum_bound``.  For log z up to
    _EXP_SUM_MAX_LOG_Z it stays below 1e-11 N.

    The bound certifies both channels: |e^{-x/2} L_n^(2)(x)| <= g(n)
    bounds the coherent amplitude's error by it, and each displacement
    row sums to at most 1, so F2_in moves by at most about twice it."""

    def build():
        w, s = _fermi_fit(state.log_fugacity)
        return w, s, _exp_sum_bound(state, w, s)

    return state.cached("exp_sum", build)


def _exp_sum_certified(state, tol):
    """Whether the exponential sums evaluate both channels to tol of their
    peak: a fit bound below 1e-3 tol N, and round-off below 0.1 tol of
    each peak.  The round-off estimate is eps times the sum of the closed
    forms' magnitudes at x = 0, which bound them at every x; it is what
    stops cold states of few atoms, whose weights cancel to about |w|^2
    eps in the pair sum."""

    def check():
        if _exp_sum(state)[2] > 1e-3 * tol * state.total_atoms:
            return False
        amplitude = math.ulp(1.0) * float(np.abs(_exp_sum_terms(state)[0]).sum())
        blocks, _ = _node_terms(state, _EXP_SUM, True)
        image = math.ulp(1.0) * sum(float(np.abs(c).sum()) for c, _ in blocks)
        return 2.0 * amplitude <= 0.1 * tol * state.total_atoms and image <= 0.1 * tol * _incoherent_x0(state)

    return state.cached(("exp_sum_certified", tol), check)


def _exp_sum_terms(state):
    """(c, a) with the amplitude Re sum_j c_j e^{-a_j x}: the term of the
    exact Maxwell-Boltzmann node (z, 1) or the K complex terms of the
    Fermi-Dirac fit, whose real part is the amplitude of the fit's real
    part, since _amplitude_terms commutes with conjugation."""

    def build():
        mb = state.statistics is Statistics.MAXWELL_BOLTZMANN
        w, s = (np.array([state.fugacity]), np.array([1.0])) if mb else _exp_sum(state)[:2]
        return _amplitude_terms(w, s, state.tau)

    return state.cached("exp_sum_terms", build)


# ---------------------------------------------------------------------------
# node terms: each node path's channel as one sum Re sum_j c_j e^{-a_j x},
# cut once and cached on the state; the form functions (_branch) and the
# angular integrals of spectra (node_terms) read the same terms
# ---------------------------------------------------------------------------

_NODE_PATHS = (Method.CLOSED_FORM_MB.value, _EXP_SUM, Method.POWER_SERIES.value)
# terms per block: a chunk of x times one block of (complex) terms stays
# within _kernels.CHUNK_DOUBLES
_BLOCK_TERMS = _kernels.CHUNK_DOUBLES // 2


def _term_sum(blocks, x):
    """Re sum_j c_j e^{-a_j x} at each x over the blocks (c, a), a block of
    at most _BLOCK_TERMS terms at a time.  Every x is reduced on its own,
    so an array call equals the calls one x at a time bit for bit."""

    def block_sum(c, a, xs):
        e = np.multiply.outer(-xs, a)
        np.exp(e, out=e)
        e *= c
        return e.sum(axis=1).real

    acc = None
    for c, a in blocks:
        for lo in range(0, a.size, _BLOCK_TERMS):
            cb, ab = c[lo : lo + _BLOCK_TERMS], a[lo : lo + _BLOCK_TERMS]
            rows = max(1, _kernels.CHUNK_DOUBLES // (2 * ab.size))
            v = _kernels._chunked(x, rows, lambda xs: block_sum(cb, ab, xs))
            acc = v if acc is None else acc + v
    return acc


def _squared(c, a, limit=None):
    """Blocks (c, a) whose terms' real parts sum to (Re u)^2, u = sum_j
    c_j e^{-a_j x}: for real terms the pairs j <= k with j + k <= limit
    (every pair if None), off-diagonal ones doubled, row j at a time, in
    blocks of at most _BLOCK_TERMS; for complex terms (the fit, never
    cut), as (Re u)^2 = (Re u^2 + |u|^2)/2, the two products c_j c_k and
    c_j conj(c_k) of each pair j <= k, halved on the diagonal: K (K + 1)
    terms in one block."""
    if np.iscomplexobj(c):
        j, k = np.triu_indices(c.size)
        half = np.where(j == k, 0.5, 1.0) * c[j]
        yield np.concatenate([half * c[k], half * np.conj(c[k])]), np.concatenate([a[j] + a[k], a[j] + np.conj(a[k])])
        return
    last = c.size - 1
    top = 2 * last if limit is None else limit
    rows = np.arange(min(last, top // 2) + 1)
    counts = np.minimum(last, top - rows) - rows + 1  # row j holds k = j..min(last, top - j)
    ends = np.cumsum(counts)
    for lo in range(0, int(ends[-1]), _BLOCK_TERMS):
        flat = np.arange(lo, min(lo + _BLOCK_TERMS, int(ends[-1])))
        j = np.searchsorted(ends, flat, side="right")
        k = j + flat - (ends - counts)[j]  # row j starts at entry ends[j] - counts[j]
        yield np.where(k == j, 1.0, 2.0) * c[j] * c[k], a[j] + a[k]


def _series_cut(state):
    """(length, tail, limit, pair_tail): the fugacity power series, z < 1,
    cut for both channels.  The amplitude keeps its first length nodes and
    F2_in the image of the pairs l + l' <= limit, each cut at the first
    length whose tail bound is at most eps times the channel's peak (eps N
    for the amplitude, eps F2_in(0) for F2_in); tail and pair_tail are
    those bounds.

    Amplitude node l, ((-1)^(l-1) z^l, l), has |c_l| = z^l/h_l^3 with h_l
    growing in l, so |c_{l+1}| <= z |c_l|, and the nodes past L sum to at
    most |c_{L+1}|/(1-z) at every x.  The image of the pairs l + l' = m
    holds m - 1 terms of magnitude z^m/h_m^3, so the pairs past M sum to
    at most z^{M+1} (M/(1-z) + z/(1-z)^2)/h_{M+1}^3.  Both bounds fall
    with the length, found by bisection.  A channel whose series does not
    settle within _POWER_SERIES_MAX_TERMS nodes or _POWER_SERIES_MAX_BLOCKS
    pair sums l + l' gets that cap and an infinite tail (``_node_terms``
    raises).
    """
    log_z, tau = state.log_fugacity, state.tau
    gap = -math.expm1(log_z)  # 1 - z

    def log_mag(n):  # log(z^n/h_n^3)
        return n * log_z - 3.0 * math.log(-math.expm1(-n / tau))

    def cut(lo, hi, peak, log_tail):
        target = math.log(math.ulp(1.0) * peak)
        if log_tail(hi) > target:
            return hi, math.inf
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if log_tail(mid) <= target else (mid + 1, hi)
        return lo, math.exp(log_tail(lo))

    def pair_log_tail(m):
        return log_mag(m + 1) + math.log(m * gap + state.fugacity) - 2.0 * math.log(gap)

    coherent = cut(1, _POWER_SERIES_MAX_TERMS, state.total_atoms, lambda l: log_mag(l + 1) - math.log(gap))
    return coherent + cut(2, _POWER_SERIES_MAX_BLOCKS, _incoherent_x0(state), pair_log_tail)


def _series_nodes(state, size):
    """The fugacity series' nodes ((-1)^(l-1) z^l, l), l = 1..size: for
    z < 1, P(n) = sum_l (-1)^(l-1) z^l e^{-l n/tau}."""
    l = np.arange(1.0, size + 1)
    return np.where(l % 2 == 0, -1.0, 1.0) * np.exp(l * state.log_fugacity), l


def _node_terms(state, path, incoherent):
    """The node path named path in one channel: (blocks, tail), blocks of
    terms (c, a) and a bound tail on their error at every x >= 0.  Both
    channels read the state's one amplitude (the closed form's or the
    fit's terms, tail 0, the fit's own bound certified apart; or the power
    series, cut by _series_cut): the coherent channel as one block, whose
    sum squared is F2_coh, the incoherent one as the image of its square.
    All is cached on the state except an image of more than one block,
    rebuilt a block at a time on each use, so that no long series' pairs
    are held in memory."""
    if path != Method.POWER_SERIES.value:
        c, a = _exp_sum_terms(state)
        if not incoherent:
            return ((c, a),), 0.0
        return state.cached(("node_image", path), lambda: tuple(_image(*p) for p in _squared(c, a))), 0.0
    length, tail, limit, pair_tail = state.cached("series_cut", lambda: _series_cut(state))
    if math.isinf(pair_tail if incoherent else tail):
        channel, cap = ("incoherent", limit) if incoherent else ("coherent", length)
        raise ToleranceNotMet(f"{channel} power series did not settle within {cap} terms")
    # one amplitude for both channels: the pairs l + l' <= limit reach node limit - 1
    size = max(length, limit - 1)
    c, a = state.cached("series_amplitude", lambda: _amplitude_terms(*_series_nodes(state, size), state.tau))
    if not incoherent:
        return ((c[:length], a[:length]),), tail
    image = (_image(*p) for p in _squared(c, a, limit - 2))  # j + k <= limit - 2 for j = l - 1, k = l' - 1
    if limit * limit // 4 <= _BLOCK_TERMS:  # the number of pairs l <= l' with l + l' <= limit
        return state.cached("series_image", lambda: tuple(image)), pair_tail
    return image, pair_tail


def node_terms(state, method, incoherent, tol):
    """One channel's form function as a sum of exponentials in x where its
    branch is a node path (closed-form-mb, exp-sum or power-series, under
    auto or forced): (blocks, tail), blocks of terms (c, a) with |F(x) -
    sum over blocks of Re sum c e^{-a x}| <= tail at every x >= 0, the
    coherent amplitude squared into pairs (an amplitude error T moves
    its square by at most T (2 sum|c| + T)).  The terms are those the form
    functions sum (_node_terms).  None on a table path."""
    method = _checked_method(state, method, tol)
    path = _resolve(state, method, incoherent, tol)
    _auto_cross_check(state, method, path, incoherent, tol)
    if path not in _NODE_PATHS:
        return None
    blocks, tail = _node_terms(state, path, incoherent)
    if incoherent:
        return blocks, tail
    ((c, a),) = blocks
    return _squared(c, a), tail * (2.0 * float(np.abs(c).sum()) + tail)


# ---------------------------------------------------------------------------
# method resolution and the public entry points
# ---------------------------------------------------------------------------

_AUTO_POWER_SERIES_LOG_Z = math.log(0.8)


def _resolve(state, method, incoherent, tol):
    """The name of the branch that evaluates method in one channel.

    auto takes the Maxwell-Boltzmann closed forms, the power series below
    z = 0.8, the exponential sums up to log z = _EXP_SUM_MAX_LOG_Z where
    the fit certifies the tolerance, and the table sums elsewhere.  The
    series, cut at eps of each channel's peak, is exact to round-off of
    the peak, as the fit is; it stays below z = 0.8, where it is short,
    because its length grows like 1/(1 - z).

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
    channel at the transfers x > 0 of a 1-D array.  A node path sums its
    terms (_node_terms); the coherent amplitude is squared after summing,
    and a negative incoherent power series raises ToleranceNotMet."""
    if path in _NODE_PATHS:
        blocks, _ = _node_terms(state, path, incoherent)
        v = _term_sum(blocks, x)
        if not incoherent:
            return v * v
        negative = np.nonzero(v < 0.0)[0] if path == Method.POWER_SERIES.value else ()
        if len(negative):
            i = int(negative[0])
            raise ToleranceNotMet(f"incoherent power series returned {v[i]:.3g} < 0", index=i)
        return v
    if path == Method.LAGUERRE_SUM.value:
        return _coherent_laguerre(state, x)
    if path == Method.QUAD_SUM.value:
        return _incoherent_quad(state, x)
    return _incoherent_conv(state, x, tol)


def _evaluate(state, x, method, tol, incoherent):
    """One form-function evaluation in one channel: the zero-transfer value
    where x = 0 and the method's branch elsewhere, a float for a float x,
    else an array in the shape of x.  Every x must be finite and >= 0
    (ValueError)."""
    method = _checked_method(state, method, tol)
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    ok = (flat >= 0.0) & (flat < math.inf)
    if not ok.all():
        raise ValueError(f"x must be finite and >= 0, got {flat[~ok][0]!r}")
    path = _resolve(state, method, incoherent, tol)
    _auto_cross_check(state, method, path, incoherent, tol)
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
_TAIL_ORDERS = 40  # F2_in's moments M_{2+k} kept, k <= this


def _tails(p, scale):
    """The repeated tails T^(1)_s = sum_{n>=s} P(n), T^(k+1)_s = sum_{n>=s}
    T^(k)_n of the table p (zero past its end), one cumsum each, T^(k)
    divided by scale^k: a power of two >= len(p), which divides exactly and
    keeps every tail and product of them finite."""
    while True:
        p = np.cumsum(p[::-1])[::-1] / scale
        yield p


def _coherent_moment(d, j):
    """sum_s (s+j)!/s! d_s^2: the coherent M_j = int x^j A^2 dx for d =
    D^(j-2) P, the (j-2)-th forward difference of P (for j < 2 the tail
    T^(2-j)).  By L_n^(a) = L_n^(a+1) - L_{n-1}^(a+1), A = +-e^{-x/2} sum_s
    d_s L_s^(j), and the L^(j) are orthogonal under x^j e^{-x}, with norms
    (s+j)!/s!."""
    s = np.arange(d.size, dtype=np.float64)
    return np.add.reduce(math.prod(s + m for m in range(1, j + 1)) * d * d)


def _x_moments(state, incoherent):
    """(M0, M1, M2), M_j = int_0^inf x^j F dx of one channel, by O(n_max)
    positive sums (phase-space completeness; Cahill & Glauber, Phys. Rev.
    177, 1857 (1969)): the coherent W0 = sum_s (T^(2)_s)^2, W1 = sum_s (s+1)
    (T^(1)_s)^2 (``_coherent_moment``) and W2 = 2 F2_in(0); F2_in's, by
    ``_image``'s x^j (c/a^3) e^{-x/a} -> j! c a^{j-2}, W1, W0 and 2 N^2."""

    def build():
        p = state.occupations
        scale = 2.0 ** p.size.bit_length()
        t1, t2 = itertools.islice(_tails(p, scale), 2)
        w0, w1 = _coherent_moment(t2, 0) * scale**4, _coherent_moment(t1, 1) * scale**2
        return (w0, w1, 2.0 * _incoherent_x0(state)), (w1, w0, 2.0 * state.total_atoms**2)

    return state.cached("x_moments", build)[incoherent]


def _tail_moments(state, incoherent):
    """(j, log_m): orders j >= 2 and log M_j, exact, coherent j = 2, 4 (W2
    and ``_coherent_moment``) and F2_in j = 2..42.  F2_in is the image of
    A^2 = e^{-y} B(-y)^2, B(u) = sum_j beta_j u^j with beta_j = sum_n P(n)
    C(n+2, j+2)/j! = T^(j+3)_j/j! (hockey stick), and ``_image`` takes
    e^{-y} y^m to the x^j moment j! (j-2)!/(j-2-m)!, so M_{2+k} = (2+k)! k!
    sum_{i<=k} (beta * beta)_i/(k-i)!, * the convolution: positive terms
    over the scaled tails, the scale restored in logs."""
    p = state.occupations
    if not incoherent:
        m4 = _coherent_moment(np.diff(p, 2, append=[0.0, 0.0]), 4)
        return np.array([2, 4]), np.log([_x_moments(state, False)[2], m4])
    scale, k = 2.0 ** p.size.bit_length(), np.arange(_TAIL_ORDERS + 1)
    f = np.cumprod(np.append(1.0, np.arange(1.0, _TAIL_ORDERS + 3)))  # f[m] = m!
    beta = np.zeros(k.size)  # beta_j / scale^(j+3), zero past the table
    for j, t in zip(range(min(k.size, p.size)), itertools.islice(_tails(p, scale), 2, None)):
        beta[j] = t[j] / f[j]
    d, low = np.abs(k[:, None] - k), k <= k[:, None]  # |i - j| and j <= i, i the row
    # (beta * beta)_i / scale^(i+6), then M_{2+k} / (scale^(k+6) (2+k)! k!)
    conv = np.add.reduce(np.where(low, beta * beta[d], 0.0), axis=1)
    m = np.add.reduce(np.where(low, conv * scale**-d / f[d], 0.0), axis=1)
    return k + 2, np.log(m) + np.log(f[k + 2] * f[k]) + (k + 6) * math.log(scale)


def x_moments(state, method, incoherent, tol):
    """Under auto, ((M0, M1, M2), j, log_m) of ``_x_moments`` and
    ``_tail_moments``, cached; None for a forced method."""
    if _checked_method(state, method, tol) is not Method.AUTO:
        return None
    tail = state.cached(("tail_moments", incoherent), lambda: _tail_moments(state, incoherent))
    return _x_moments(state, incoherent), *tail


def _auto_cross_check(state, method, path, incoherent, tol):
    """On auto's first read of a branch path of _CHECKED_PATHS per state and
    bound max(1e-6, 100 tol), compare two exact moments of its terms
    (int x^j c e^{-a x} dx = j! c/a^{j+1}) with the table sums of
    ``_x_moments``: the coherent channel's x^1 and x^2 moments, and F2_in's
    x^0 and x^1.  No x, no Laguerre sum, no weight table.  Only a pass
    marks the state checked at that bound, so a failure raises on every
    call and a looser pass does not stand for a tighter bound.  Moments cannot see a
    pointwise defect that integrates to zero: the tests keep the pointwise
    oracles.

    The series' dropped terms (``_series_cut``; the fit drops none), of
    magnitudes summing to tail, move the x^j moment by at most j! tail /
    a_min^{j+1}, a_min their least rate.  Incoherent: a_min >= h/(1+r),
    with r = e^{-1/tau} and h = 1 - r, and as P(n+1) >= r P(n) the moment
    is at least F2_in(0) ((1+r)/h)^{j+1}, so tail <= eps F2_in(0) shifts it
    by at most eps of itself.  Coherent: the dropped amplitude (magnitudes
    T <= eps N, rates >= 1/2) moves the moment M_j of A^2 by at most
    2 T sqrt(j! M_j) + j! T^2 (Cauchy-Schwarz), and for z < 0.8, where
    N^2 <= 26 F2_in(0)/h^3, by at most 10 eps (1+tau)^{3/2} of M_j: 2e-8
    at 10^7 atoms and 100 E_F, 50 times below 1e-6.
    """
    if method is not Method.AUTO or path not in _CHECKED_PATHS:
        return
    bound = max(1e-6, 100.0 * tol)

    def check():
        blocks, _ = _node_terms(state, path, incoherent)
        j, blocks = (np.array([0, 1]), blocks) if incoherent else (np.array([1, 2]), _squared(*blocks[0]))
        want = [_x_moments(state, incoherent)[k] for k in j.tolist()]
        # np.maximum(j, 1) is j! for j <= 2
        got = np.maximum(j, 1) * sum((c[:, None] / a[:, None] ** (j + 1)).sum(axis=0).real for c, a in blocks)
        for k, a, b in zip(j.tolist(), got.tolist(), want):
            if not abs(a - b) <= bound * b:  # a NaN fails too
                raise ToleranceNotMet(
                    f"auto cross-check failed on the x^{k} moment: {path} {a:.12g} vs table sum {b:.12g}"
                )
        return True

    state.cached(("auto_checked_inc" if incoherent else "auto_checked_coh", bound), check)


def coherent_form(state, x, method=Method.AUTO, tolerance=1e-8):
    """Coherent form function F2_coh >= 0 of the state at the momentum
    transfer x = |k - k_L|^2 a^2 (see ``model.kinematics``), by method (a
    Method or its name) to tolerance.

    A float for a float x; for an array of x, an array of its shape, each
    value equal to that of its x alone.  The auto cross-check runs on the
    first call, whatever the x (``_auto_cross_check``).
    """
    return _evaluate(state, x, method, tolerance, incoherent=False)


def incoherent_form(state, x, method=Method.AUTO, tolerance=1e-8):
    """Incoherent form function F2_in = sum N N' |eta|^2 >= 0.

    Arguments, shapes, values and the cross-check as for
    ``coherent_form``.
    """
    return _evaluate(state, x, method, tolerance, incoherent=True)
