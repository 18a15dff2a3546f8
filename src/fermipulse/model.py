"""Trap/laser geometry and the momentum transfer x = |k - k_L|^2 a^2.

In the isotropic trap every form function depends on the scattering
geometry only through x, so ``kinematics`` maps (theta, varpi) to x and
nothing else.  All computation uses trap units: hbar = omega_t = 1,
lengths in units of the ground-state size a, temperatures
tau = k_B T / (hbar omega_t).
"""

import math
from dataclasses import dataclass

import numpy as np

# Laser wavenumber times trap size for the default configuration
# (800 nm transition, ~1.6 um ground-state size).
DEFAULT_KLA = 12.5
# Pulse bandwidth over laser frequency for a 10 ps pulse at 800 nm.
DEFAULT_GAMMA_RATIO = 4.244e-5
# Natural linewidth over pulse bandwidth: 2*pi*2.5 MHz times 10 ps.
DEFAULT_NATURAL_WIDTH_RATIO = 1.5708e-4
# the narrow-band treatment breaks down once the pulse bandwidth is not
# small against the carrier
MAX_GAMMA_RATIO = 0.1
# full-mode spectra integrate the detuning over |varpi| <= 12, where the
# sech line shapes have decayed below 1e-15 of their mass; the scattered
# wavenumber must stay positive across it
VARPI_QUAD_WINDOW = 12.0


@dataclass(frozen=True)
class TrapModel:
    """Dimensionless trap/laser parameters.

    kla                 -- laser wavenumber times trap size, k_L * a
    gamma_ratio         -- pulse bandwidth over laser frequency; controls how
                           the scattered wavenumber varies with detuning
    natural_width_ratio -- natural linewidth over pulse bandwidth; sets the
                           overall photon-number normalization
    """

    kla: float = DEFAULT_KLA
    gamma_ratio: float = DEFAULT_GAMMA_RATIO
    natural_width_ratio: float = DEFAULT_NATURAL_WIDTH_RATIO

    def __post_init__(self):
        for name in ("kla", "gamma_ratio", "natural_width_ratio"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {v!r}")
        if self.gamma_ratio >= MAX_GAMMA_RATIO:
            raise ValueError(
                f"gamma_ratio must be < {MAX_GAMMA_RATIO} for the narrow-band model, got {self.gamma_ratio}"
            )
        if self.gamma_ratio * VARPI_QUAD_WINDOW >= 1.0:
            raise ValueError(
                f"gamma_ratio must be < 1/{VARPI_QUAD_WINDOW:g}, so that the scattered wavenumber stays "
                f"positive over the detuning window, got {self.gamma_ratio}"
            )
        # the largest transfer a spectrum reaches, back-scattering at the window's edge, must be finite
        edge = 2.0 * self.kla * (1.0 + self.gamma_ratio * VARPI_QUAD_WINDOW)
        if not math.isfinite(edge * edge):
            raise ValueError(f"kla must keep the back-scatter transfer (2k'a)^2 finite, got {self.kla!r}")


def kinematics(trap, theta, varpi):
    """The momentum transfer x = |k - k_L|^2 a^2 of a photon scattered to
    angle theta, detuning varpi: the one variable every form function
    depends on.

    The scattered wavenumber is ka = kla * (1 + gamma_ratio * varpi); the
    laser propagates along z, so dk_z a = ka cos(theta) - kla and
    dk_x a = ka sin(theta).  theta may be signed in [-pi, pi]; x is even in
    theta.  theta and varpi may be arrays, which broadcast against each
    other; x is then an array of the broadcast shape, and a float when
    both are scalars.
    """
    theta = np.asarray(theta, dtype=np.float64)
    varpi = np.asarray(varpi, dtype=np.float64)
    if not (np.isfinite(theta).all() and np.isfinite(varpi).all()):
        raise ValueError(f"non-finite kinematics input theta={theta!r} varpi={varpi!r}")
    bad = np.abs(theta) > math.pi + 1e-12
    if bad.any():
        raise ValueError(f"theta must lie in [-pi, pi], got {theta[bad].flat[0]}")
    ka = trap.kla * (1.0 + trap.gamma_ratio * varpi)
    bad = ka <= 0.0
    if bad.any():
        raise ValueError(f"scattered wavenumber is not positive at varpi={varpi[bad].flat[0]}")
    dkx = ka * np.sin(theta)
    dkz = ka * np.cos(theta) - trap.kla
    x = dkx * dkx + dkz * dkz
    return float(x) if x.ndim == 0 else x
