"""Differential spectra, angular/frequency distributions, photon totals.

The differential spectrum at one (theta, varpi) point factorizes into the
single-atom 2*pi-sech line shapes and the gas form functions:

    c_coh = s_coh(w) * F2_coh(theta, w)
    c_in  = N [s_coh(w) + s_in(w)] - s_coh(w) * F2_in(theta, w)

Physical photon numbers attach the polarization-summed azimuthal weight
pi (1 + cos^2 theta) |sin theta| and the normalization 3 (gamma/gamma_L) /
(8 pi^2), under which a single atom scatters (4/pi)(gamma/gamma_L) photons
in total.

Each distribution runs in one of two regimes (AngularMode): frozen form
factors, evaluated at varpi = 0, or the full (theta, varpi) integral.
angular_distribution and total_photons tell them apart only in the
detuning integral _over_varpi; frequency_distribution, which has none,
takes the varpi = 0 row of _theta_rows alone in frozen mode.

Angular integrals in closed form.  With k = kla, k' = kla (1 + gamma_ratio
varpi) and t = (1 - cos theta)/2, the transfer x = k^2 + k'^2 - 2 k k'
cos theta is x0 + span t, where x0 = (k - k')^2 and span = 4 k k', and
pi (1 + cos^2 theta) sin theta dtheta = 2 pi (1 + (1-2t)^2) dt, so

    int_0^pi w(theta) F(x) dtheta = 2 pi int_0^1 (1 + (1-2t)^2) F(x0 + span t) dt.

On the node paths (closed-form-mb, exp-sum, power-series) every form
function is a sum F = Re sum_j c_j e^{-a_j x} (formfunc.node_terms: the
terms the form functions sum, the coherent amplitude squared into
pairs), and each term integrates to
c_j 2 pi e^{-a_j x0} G(a_j span) with

    G(b) = int_0^1 (1 + (1-2t)^2) e^{-bt} dt
         = (2/b - 4/b^2 + 8/b^3) - e^{-b} (2/b + 4/b^2 + 8/b^3),

G(0) = 4/3 (so the weight totals THETA_WEIGHT_TOTAL = 8 pi/3).  The
closed form cancels for small |b|, where G's Taylor series takes over; b
is complex for the Fermi-Dirac fit.  An angular integral then costs
O(terms) per detuning and no form evaluation (node_terms runs the auto
cross-check itself), where a quadrature costs hundreds.  Each row is
certified: its round-off eps sum_j |term_j| must stay below 0.1
QUAD_REL_TOL of its value, and the power series' tail bound (the series
is cut once, at eps of the channel's peak), integrated against the
weight, below 1e-3 QUAD_REL_TOL of it.

The varpi = 0 row from x-moments.  There x0 = 0, span = X = 4 kla^2 and
the weight 2 - 4x/X + 4x^2/X^2 is quadratic in x, so the row is (2 pi/X)
[2 M0 - (4/X) M1 + (4/X^2) M2] - R, M_j = int_0^inf x^j F dx, R = (2 pi/X)
int_X^inf (1 + (1 - 2x/X)^2) F dx, with (M0, M1, M2) the table sums (W0,
W1, W2) coherent and (W1, W0, 2 N^2) for F2_in (formfunc._x_moments).
Past X the weight is at most 4 (x/X)^2, so 0 <= R <= (8 pi/X) M_j/X^j for
every j >= 2 (Markov).  Every moment is exact, a positive sum over the
repeated tails and differences of P(n): the coherent M_j = sum_s
(s+j)!/s! (D^(j-2) P)_s^2, F2_in's M_{2+k}, k <= 40, through the image
of A^2 = e^{-y} B(-y)^2 (formfunc._tail_moments).  Under auto a varpi =
0 row that no closed form certifies takes this value, and no form
evaluation, where the least bound plus round-off stays below 0.1
QUAD_REL_TOL of it; F2_in reaching past X (4 E_F > X: 10^6 atoms,
cold) takes the rule below.

Quadratures.  Every other integral is one family of quadrature.nested
over a fixed rule, one row per detuning or angle, each level evaluating
the form function once on the level's new nodes.  A row that fails
certification, and every row on a table path (laguerre, convolution,
quad-sum) but auto's moment rows, integrates over theta by
Clenshaw-Curtis in s = sqrt(t), whose nodes crowd into the forward cone
(_theta_rule, 17 to 4097 nodes).  The detuning integrands carry the
sech line shapes, analytic in the strip |Im varpi| < 1, so the trapezoid
rule converges exponentially in 1/h (Trefethen & Weideman, SIAM Rev. 56,
385 (2014)); _varpi_rule starts at h = 0.2 and halves up to 6 times.
"""

import enum
import functools
import math

import numpy as np

from ._kernels import CHUNK_DOUBLES
from .formfunc import Method, coherent_form, incoherent_form, node_terms, x_moments
from .model import VARPI_QUAD_WINDOW, kinematics
from .pulse import S_COH_LINE_INTEGRAL, S_IN_LINE_INTEGRAL, single_atom_spectra
from .quadrature import QuadratureFailure, clenshaw_curtis, nested, trapezoid, weighted

adaptive_simpson = nested  # unused; fermibench/tracer.py patches spectra.adaptive_simpson

# azimuth-integrated polarization weight integrates to 8*pi/3 over [0, pi]
THETA_WEIGHT_TOTAL = 8.0 * math.pi / 3.0
# relative tolerance of every angular and detuning quadrature
QUAD_REL_TOL = 1e-6
# the line shapes decay like e^{-pi |w|}: only |w| below this carries weight
LINE_SUPPORT = 2.5


@functools.cache
def _theta_rule():
    """The levels of every angular quadrature: Clenshaw-Curtis in
    s = sqrt(t), 17 to 4097 nodes, the weight 2 pi (1 + (1-2t)^2) dt =
    2 pi (1 + (1-2s^2)^2) 2s ds folded in."""
    return weighted(clenshaw_curtis(16, 8), lambda s: 4.0 * math.pi * (1.0 + (1.0 - 2.0 * s * s) ** 2) * s)


@functools.cache
def _varpi_rule():
    """The levels of every detuning quadrature: the trapezoid rule on the
    window from h = 0.2, halved up to 6 times, the coherent line shape
    folded in."""
    n = round(2.0 * VARPI_QUAD_WINDOW / 0.2)
    return weighted(trapezoid(-VARPI_QUAD_WINDOW, VARPI_QUAD_WINDOW, n, 6), lambda w: single_atom_spectra(w)[0])


class AngularMode(enum.Enum):
    AUTO = "auto"
    FULL = "full"
    FROZEN = "frozen"

    @classmethod
    def parse(cls, text):
        key = str(text).strip().lower()
        for m in cls:
            if m.value == key:
                return m
        raise ValueError(f"unknown mode {text!r}")


def photon_norm(trap):
    """Overall photon-number normalization 3 (gamma/gamma_L) / (8 pi^2)."""
    return 3.0 * trap.natural_width_ratio / (8.0 * math.pi**2)


def angular_weight(theta):
    """Azimuth- and polarization-summed angular weight pi (1+cos^2) |sin|.

    A float for a scalar theta, an array for an array.
    """
    c = np.cos(theta)
    w = math.pi * (1.0 + c * c) * np.abs(np.sin(theta))
    return float(w) if np.ndim(w) == 0 else w


def resolve_mode(mode, trap):
    """Pick frozen form factors when the detuning leaves them unchanged.

    The frozen approximation error is governed by how much the momentum
    transfer drifts across the line support, gamma_ratio * LINE_SUPPORT *
    (kla)^2.  At the largest drift auto freezes, 0.05 (kla 12.5, 1 E_F),
    frozen N_in is within 1e-9 of the full integral, but N_coh is off by
    2.8e-4 at 10^4 atoms, 1.3e-3 at 10^6 and 2.8e-3 at 10^7.
    """
    if isinstance(mode, str):
        mode = AngularMode.parse(mode)
    if mode is not AngularMode.AUTO:
        return mode
    drift = trap.gamma_ratio * LINE_SUPPORT * trap.kla**2
    return AngularMode.FROZEN if drift <= 0.05 else AngularMode.FULL


def differential(state, trap, theta, varpi, method=Method.AUTO, tolerance=1e-8):
    """Dimensionless differential spectrum (c_coh, c_in).

    theta and varpi may be arrays, which broadcast against each other; the
    form functions are then evaluated in one call each.  Floats for scalar
    arguments.  Where the coherent shape vanishes (at varpi = 0 identically)
    both form functions drop out and c_in = N * s_in, independent of
    temperature.
    """
    theta, varpi = np.broadcast_arrays(
        np.asarray(theta, dtype=np.float64), np.asarray(varpi, dtype=np.float64)
    )
    s_coh, s_in = (np.asarray(s) for s in single_atom_spectra(varpi))
    n = state.n_atoms
    c_coh = np.zeros(varpi.shape)
    c_in = np.array(n * s_in)
    live = s_coh != 0.0
    if live.any():
        x = kinematics(trap, theta[live], varpi[live])
        sc = s_coh[live]
        c_coh[live] = sc * coherent_form(state, x, method, tolerance)
        c_in[live] = n * (sc + s_in[live]) - sc * incoherent_form(state, x, method, tolerance)
    if c_coh.ndim == 0:
        return float(c_coh), float(c_in)
    return c_coh, c_in


# moments int_0^1 t^n (1 + (1-2t)^2) dt of the Taylor series of G below
_G_MOMENTS = [2.0 / (n + 1) - 4.0 / (n + 2) + 4.0 / (n + 3) for n in range(32)]


def _weighted_exp(a, x0, span):
    """2 pi e^{-a x0} G(a span) (the module docstring's G), elementwise over
    the broadcast arguments; a may be complex.  Below |b| = 2, where the
    closed form of G cancels, its Taylor series sum_n (-b)^n/n! m_n, with
    m_n the moments _G_MOMENTS, whose terms fall below 1e-25 by n = 32."""
    b = a * span
    near = np.exp(-a * x0)
    out = np.empty(b.shape, dtype=b.dtype)
    small = np.abs(b) < 2.0
    big = ~small
    inv = 1.0 / b[big]
    far = np.exp(-a * (x0 + span))[big]
    out[big] = near[big] * inv * (2.0 + inv * (-4.0 + 8.0 * inv)) - far * inv * (2.0 + inv * (4.0 + 8.0 * inv))
    if small.any():
        bs = b[small]
        term = np.ones(bs.shape, dtype=b.dtype)
        acc = np.zeros(bs.shape, dtype=b.dtype)
        for n, moment in enumerate(_G_MOMENTS):
            acc += moment * term
            term *= -bs / (n + 1)
        out[small] = near[small] * acc
    return 2.0 * math.pi * out


def _transfer(trap, varpis):
    """(x0, span) per detuning: the transfer is x = x0 + span t."""
    kp = trap.kla * (1.0 + trap.gamma_ratio * varpis)
    return (trap.kla - kp) ** 2, 4.0 * trap.kla * kp


def _closed_rows(incoherent, state, trap, method, tolerance, varpis):
    """Rows of _theta_rows on a node path, in closed form (module
    docstring): (values, ok), ok marking the certified rows; no row is ok
    on a table path.

    The terms are the ones the form functions sum (formfunc.node_terms,
    which runs the auto cross-check on its first read), the power series
    cut once where its tail bound reaches eps of the channel's peak.  A
    row is certified when its round-off, eps sum_j |term_j|, stays below
    0.1 QUAD_REL_TOL of its value, and that tail, integrated against the
    weight (total THETA_WEIGHT_TOTAL), below 1e-3 QUAD_REL_TOL of it.
    """
    total, scale = np.zeros(varpis.size), np.zeros(varpis.size)
    node = node_terms(state, method, incoherent, tolerance)
    if node is None:
        return total, np.zeros(varpis.size, dtype=bool)
    blocks, tail = node
    x0, span = _transfer(trap, varpis)
    for c, a in blocks:
        step = max(1, CHUNK_DOUBLES // c.size)
        for lo in range(0, varpis.size, step):
            rows = slice(lo, lo + step)
            terms = c * _weighted_exp(a, x0[rows, None], span[rows, None])
            total[rows] += terms.sum(axis=1).real
            scale[rows] += np.abs(terms).sum(axis=1)
    exact = math.ulp(1.0) * scale <= 0.1 * QUAD_REL_TOL * np.abs(total)
    return total, exact & (THETA_WEIGHT_TOTAL * tail <= 1e-3 * QUAD_REL_TOL * np.abs(total))


def _moment_rows(incoherent, state, trap, method, tolerance, varpis):
    """Rows of _theta_rows at varpi = 0 from x-moments (module docstring):
    (values, ok), ok marking those rows when the least Markov bound on the
    tail past X = 4 kla^2 plus the round-off eps sum |term| of the three
    terms stays below 0.1 QUAD_REL_TOL of the value; no row is ok for a
    forced method."""
    ok = varpis == 0.0
    moments = x_moments(state, method, incoherent, tolerance) if ok.any() else None
    if moments is None:
        return np.zeros(varpis.size), np.zeros(varpis.size, dtype=bool)
    (m0, m1, m2), j, log_m = moments
    big = 4.0 * trap.kla * trap.kla
    terms = (2.0 * math.pi / big) * np.array([2.0 * m0, -4.0 * m1 / big, 4.0 * m2 / big**2])
    bound = 8.0 * math.pi / big * math.exp(float(np.min(log_m - j * math.log(big))))
    value, err = float(terms.sum()), bound + math.ulp(1.0) * float(np.abs(terms).sum())
    return np.full(varpis.size, value), ok & (err <= 0.1 * QUAD_REL_TOL * abs(value))


def _theta_rows(incoherent, state, trap, method, tolerance, varpi):
    """The angular integrals int w(theta) F2(theta, varpi) dtheta over
    [0, pi] of one form function, one per detuning of the 1-D array varpi:
    the closed rows (_closed_rows), then the moment rows (_moment_rows),
    then, on the rows neither certifies, one nested family of the angular
    rule _theta_rule, each level evaluating the form function on one array
    of transfers; with no such row it builds no rule.  A
    QuadratureFailure names the detuning of its row.
    """
    values, rest = np.empty(varpi.size), np.arange(varpi.size)
    for source in (_closed_rows, _moment_rows):
        if rest.size:
            got, ok = source(incoherent, state, trap, method, tolerance, varpi[rest])
            values[rest[ok]] = got[ok]
            rest = rest[~ok]
    if rest.size:
        form = incoherent_form if incoherent else coherent_form
        x0, span = _transfer(trap, varpi[rest])

        def f(rows, s):
            return form(state, x0[rows] + span[rows] * (s * s), method, tolerance)

        try:
            values[rest] = nested(f, _theta_rule(), rest.size, QUAD_REL_TOL)
        except QuadratureFailure as e:
            row = int(rest[e.row])
            raise QuadratureFailure(f"theta integral at varpi={varpi[row]:.6g}: {e}", err=e.err, row=row) from e
    return values


def _over_varpi(g, n_rows, mode):
    """int s_coh(varpi) g(rows, varpi) dvarpi over the detuning window for
    each of n_rows rows: an array of n_rows integrals.

    g takes arrays of row indices and detunings, as nested() does.
    Frozen form factors do not depend on varpi, so in frozen mode this
    is S_COH_LINE_INTEGRAL times g at varpi = 0.  In full mode it is one
    nested family of the detuning rule _varpi_rule, which calls g on no
    node where s_coh vanishes (varpi = 0 and the far tails).
    """
    if mode is AngularMode.FROZEN:
        return S_COH_LINE_INTEGRAL * g(np.arange(n_rows), np.zeros(n_rows))
    return nested(g, _varpi_rule(), n_rows, QUAD_REL_TOL)


def theta_integrals(state, trap, method=Method.AUTO, tolerance=1e-8):
    """(coherent, incoherent): int w(theta) F2(theta, 0) dtheta for both form functions."""
    return tuple(float(_theta_rows(inc, state, trap, method, tolerance, np.zeros(1))[0]) for inc in (False, True))


def angular_distribution(state, trap, theta, mode=AngularMode.AUTO, method=Method.AUTO, tolerance=1e-8):
    """Photon densities (dN_coh/dtheta, dN_in/dtheta) at theta.

    theta may be an array; floats for a scalar.  Each form function
    takes one call in frozen mode, and in full mode one call per level of
    a single detuning family with one row per angle; a failing row names
    its angle.
    """
    mode = resolve_mode(mode, trap)
    thetas = np.ravel(np.asarray(theta, dtype=np.float64))

    def over_varpi(form):
        def g(rows, varpi):
            return form(state, kinematics(trap, thetas[rows], varpi), method, tolerance)

        try:
            return _over_varpi(g, thetas.size, mode).reshape(np.shape(theta))
        except QuadratureFailure as e:
            raise QuadratureFailure(f"varpi integral at theta={thetas[e.row]:.6g}: {e}", err=e.err, row=e.row) from e

    norm_w = photon_norm(trap) * angular_weight(theta)
    d_coh = norm_w * over_varpi(coherent_form)
    d_in = norm_w * (state.n_atoms * (S_COH_LINE_INTEGRAL + S_IN_LINE_INTEGRAL) - over_varpi(incoherent_form))
    if np.ndim(theta) == 0:
        return float(d_coh), float(d_in)
    return d_coh, d_in


def frequency_distribution(state, trap, varpi, method=Method.AUTO, tolerance=1e-8, mode=AngularMode.FULL):
    """Photon densities (dN_coh/dvarpi, dN_in/dvarpi) at varpi.

    varpi may be an array; floats for a scalar.  The angles of all live
    detunings (s_coh != 0) are integrated at once per form function (in
    closed form on a node path, from x-moments at varpi = 0, else one
    nested family with one row per detuning; _theta_rows); frozen form
    factors take the varpi = 0 row once, and no row when no detuning is
    live.  Where s_coh vanishes (varpi = 0) the form-function terms drop
    out, leaving the closed weight total.  The default is the full mode,
    the exact (theta, varpi) integral.
    """
    mode = resolve_mode(mode, trap)
    s_coh, s_in = (np.asarray(s) for s in single_atom_spectra(varpi))
    live = s_coh != 0.0
    varpis = np.asarray(varpi, dtype=np.float64)[live]
    varpis = np.zeros(min(varpis.size, 1)) if mode is AngularMode.FROZEN else varpis  # frozen: one varpi = 0 row
    i_coh, i_sub = np.zeros(s_coh.shape), np.zeros(s_coh.shape)
    i_coh[live] = _theta_rows(False, state, trap, method, tolerance, varpis)
    i_sub[live] = _theta_rows(True, state, trap, method, tolerance, varpis)
    norm = photon_norm(trap)
    d_coh = norm * s_coh * i_coh
    d_in = norm * (state.n_atoms * (s_coh + s_in) * THETA_WEIGHT_TOTAL - s_coh * i_sub)
    if d_coh.ndim == 0:
        return float(d_coh), float(d_in)
    return d_coh, d_in


def total_photons(state, trap, pulse, mode=AngularMode.AUTO, method=Method.AUTO, tolerance=1e-8):
    """Total scattered photon numbers (N_coh, N_in) for a 2*pi sech pulse.

    In the full mode, each level of the detuning quadrature integrates
    the angles of all its new detuning nodes at once per form function,
    as frequency_distribution does; frozen form factors take one angular
    integral per form function, at varpi = 0.
    """
    if not math.isclose(pulse.total_area, 2.0 * math.pi, rel_tol=1e-9):
        raise ValueError("photon totals are defined for the 2*pi sech pulse")
    mode = resolve_mode(mode, trap)

    def over_varpi(incoherent):
        return _over_varpi(lambda _, w: _theta_rows(incoherent, state, trap, method, tolerance, w), 1, mode)[0]

    norm = photon_norm(trap)
    n_coh = norm * over_varpi(False)
    n_in = norm * (state.n_atoms * (S_COH_LINE_INTEGRAL + S_IN_LINE_INTEGRAL) * THETA_WEIGHT_TOTAL - over_varpi(True))
    return float(n_coh), float(n_in)
