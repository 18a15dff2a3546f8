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
takes its frozen angular integrals from theta_integrals.
"""

import enum
import math

import numpy as np

from .formfunc import Method, coherent_form, incoherent_form
from .model import VARPI_QUAD_WINDOW, kinematics
from .pulse import S_COH_LINE_INTEGRAL, S_IN_LINE_INTEGRAL, single_atom_spectra
from .quadrature import QuadratureFailure, adaptive_simpson, simpson_family

# azimuth-integrated polarization weight integrates to 8*pi/3 over [0, pi]
THETA_WEIGHT_TOTAL = 8.0 * math.pi / 3.0
# relative tolerance of every angular and detuning quadrature
QUAD_REL_TOL = 1e-6
# the line shapes decay like e^{-pi |w|}: only |w| below this carries weight
LINE_SUPPORT = 2.5


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
    (kla)^2.  The drift enters the line integrals only through its even
    part, so a drift bound of 0.05 keeps the frozen error well under 1e-3.
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
        pt = kinematics(trap, theta[live], varpi[live])
        sc = s_coh[live]
        c_coh[live] = sc * coherent_form(state, pt, method, tolerance)
        c_in[live] = n * (sc + s_in[live]) - sc * incoherent_form(state, pt, method, tolerance)
    if c_coh.ndim == 0:
        return float(c_coh), float(c_in)
    return c_coh, c_in


def _theta_seeds(trap):
    w = 1.0 / trap.kla
    seeds = []
    f = w / 8.0
    while f < math.pi:
        seeds.append(f)
        f *= 2.0
    return seeds


def _over_theta(form, state, trap, varpi, method, tolerance, seeds=None):
    """int w(theta) F2(theta, varpi) dtheta over [0, pi] for one form function.

    varpi may be an array: its angular integrals are one simpson_family
    refinement, one row per detuning, so every integrand call evaluates
    the form function on one array of (theta, varpi) points.  A float for
    a scalar varpi.  A QuadratureFailure names the detuning of its row.
    """
    varpi = np.asarray(varpi, dtype=np.float64)
    varpis = varpi.ravel()

    def f(rows, theta):
        pt = kinematics(trap, theta, varpis[rows])
        return angular_weight(theta) * form(state, pt, method, tolerance)

    try:
        values = simpson_family(f, 0.0, math.pi, varpis.size, rel_tol=QUAD_REL_TOL, seeds=seeds)
    except QuadratureFailure as e:
        raise QuadratureFailure(
            f"theta integral at varpi={varpis[e.row]:.6g}: {e}", a=e.a, b=e.b, err=e.err, row=e.row
        ) from e
    return float(values[0]) if varpi.ndim == 0 else values.reshape(varpi.shape)


def _over_varpi(g, mode):
    """int s_coh(varpi) g(varpi) dvarpi over the detuning window.

    Frozen form factors do not depend on varpi, so in frozen mode this is
    S_COH_LINE_INTEGRAL * g(0.0).  In full mode g takes an array of
    detunings; it is not called where s_coh vanishes (varpi = 0 and the
    far tails).
    """
    if mode is AngularMode.FROZEN:
        return S_COH_LINE_INTEGRAL * g(0.0)

    def f(varpi):
        s_coh, _ = single_atom_spectra(varpi)
        out = np.zeros(varpi.shape)
        live = s_coh != 0.0
        if live.any():
            out[live] = s_coh[live] * g(varpi[live])
        return out

    return adaptive_simpson(f, -VARPI_QUAD_WINDOW, VARPI_QUAD_WINDOW, rel_tol=QUAD_REL_TOL)


def theta_integrals(state, trap, method=Method.AUTO, tolerance=1e-8):
    """(coherent, incoherent): int w(theta) F2(theta, 0) dtheta for both form functions."""
    return (
        _over_theta(coherent_form, state, trap, 0.0, method, tolerance, _theta_seeds(trap)),
        # the incoherent form function is broad in angle; forward-cone seeds
        # would only multiply the panel count
        _over_theta(incoherent_form, state, trap, 0.0, method, tolerance),
    )


def angular_distribution(state, trap, theta, mode=AngularMode.AUTO, method=Method.AUTO, tolerance=1e-8):
    """Photon densities (dN_coh/dtheta, dN_in/dtheta) at theta.

    theta may be an array: frozen form factors then take one call per form
    function, and the full mode one detuning quadrature per angle.
    """
    mode = resolve_mode(mode, trap)
    if mode is AngularMode.FULL and np.ndim(theta):
        values = [
            angular_distribution(state, trap, t, mode, method, tolerance) for t in np.ravel(theta).tolist()
        ]
        values = np.array(values, dtype=np.float64).reshape(np.shape(theta) + (2,))
        return values[..., 0], values[..., 1]

    def at(form):
        return lambda varpi: form(state, kinematics(trap, theta, varpi), method, tolerance)

    norm_w = photon_norm(trap) * angular_weight(theta)
    i_coh = _over_varpi(at(coherent_form), mode)
    i_sub = _over_varpi(at(incoherent_form), mode)
    return norm_w * i_coh, norm_w * (state.n_atoms * (S_COH_LINE_INTEGRAL + S_IN_LINE_INTEGRAL) - i_sub)


def frequency_distribution(state, trap, varpi, method=Method.AUTO, tolerance=1e-8, mode=AngularMode.FULL):
    """Photon densities (dN_coh/dvarpi, dN_in/dvarpi) at varpi.

    varpi may be an array; floats for a scalar.  Frozen form factors take
    one theta_integrals call per call, so pass the detunings as one array.
    The full mode integrates the angles of all detunings in one refinement
    per form function, one row per detuning, and has no row where s_coh
    vanishes (varpi = 0): the form-function terms carry s_coh and drop
    out, leaving the closed weight total.  The default is the full mode,
    the exact (theta, varpi) integral.
    """
    mode = resolve_mode(mode, trap)
    s_coh, s_in = (np.asarray(s) for s in single_atom_spectra(varpi))
    n = state.n_atoms
    norm = photon_norm(trap)
    live = s_coh != 0.0
    if mode is AngularMode.FROZEN:
        i_coh, i_sub = theta_integrals(state, trap, method, tolerance)
    else:
        i_coh, i_sub = np.zeros(s_coh.shape), np.zeros(s_coh.shape)
        varpis = np.asarray(varpi, dtype=np.float64)[live]
        i_coh[live] = _over_theta(coherent_form, state, trap, varpis, method, tolerance, _theta_seeds(trap))
        i_sub[live] = _over_theta(incoherent_form, state, trap, varpis, method, tolerance)
    d_coh = norm * s_coh * i_coh
    d_in = norm * (n * (s_coh + s_in) * THETA_WEIGHT_TOTAL - s_coh * i_sub)
    if mode is AngularMode.FULL:
        # where s_coh vanishes, the closed weight total alone
        d_in = np.where(live, d_in, norm * n * s_in * THETA_WEIGHT_TOTAL)
    if d_coh.ndim == 0:
        return float(d_coh), float(d_in)
    return d_coh, d_in


def total_photons(state, trap, pulse, mode=AngularMode.AUTO, method=Method.AUTO, tolerance=1e-8):
    """Total scattered photon numbers (N_coh, N_in) for a 2*pi sech pulse.

    In the full mode, each integrand call of the detuning quadrature
    integrates the angles of all its detuning nodes in one refinement per
    form function; frozen form factors take one angular integral per form
    function, at varpi = 0.
    """
    if not math.isclose(pulse.total_area, 2.0 * math.pi, rel_tol=1e-9):
        raise ValueError("photon totals are defined for the 2*pi sech pulse")
    mode = resolve_mode(mode, trap)

    def over_theta(form, seeds=None):
        return lambda varpi: _over_theta(form, state, trap, varpi, method, tolerance, seeds)

    norm = photon_norm(trap)
    n_coh = norm * _over_varpi(over_theta(coherent_form, _theta_seeds(trap)), mode)
    sub = _over_varpi(over_theta(incoherent_form), mode)
    n_in = norm * (
        state.n_atoms * (S_COH_LINE_INTEGRAL + S_IN_LINE_INTEGRAL) * THETA_WEIGHT_TOTAL - sub
    )
    return float(n_coh), float(n_in)
