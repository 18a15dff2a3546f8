"""The 2*pi hyperbolic-secant pulse and its single-atom emission line shapes.

Rabi frequencies are measured in units of gamma_L, the pulse bandwidth.
"""

import math
from dataclasses import dataclass

import numpy as np

# Exact line integrals of the 2*pi sech shapes over the real detuning axis:
# int pi w^2 / cosh^2(pi w / 2) dw and int pi w^2 / sinh^2(pi w / 2) dw.
S_COH_LINE_INTEGRAL = 4.0 / 3.0
S_IN_LINE_INTEGRAL = 8.0 / 3.0


@dataclass(frozen=True)
class PulseModel:
    """Sech pulse envelope with peak Rabi frequency Omega/gamma_L."""

    peak_rabi: float

    def __post_init__(self):
        if self.peak_rabi < 0.0 or not math.isfinite(self.peak_rabi):
            raise ValueError(f"peak_rabi must be finite and >= 0, got {self.peak_rabi!r}")

    @property
    def total_area(self):
        """Pulse area pi*Omega/(2 gamma_L) of the sech envelope."""
        return 0.5 * math.pi * self.peak_rabi

    @classmethod
    def two_pi(cls):
        """Pulse of area 2*pi, the non-destructive probe configuration."""
        return cls(peak_rabi=4.0)


def single_atom_spectra(varpi):
    """Dimensionless coherent/incoherent line shapes of the 2*pi sech pulse.

    s_coh = pi w^2 / cosh^2(pi w / 2), s_in = pi w^2 / sinh^2(pi w / 2); the
    removable singularity of s_in at w = 0 is filled with its limit 4/pi.
    Accepts scalars or arrays.
    """
    w = np.asarray(varpi, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise ValueError("varpi must be finite")
    u = 0.5 * math.pi * w
    s_coh = math.pi * w * w / np.cosh(u) ** 2
    small = np.abs(u) < 1e-4
    u_safe = np.where(small, 1.0, u)
    # s_coh / tanh^2 rather than pi w^2 / sinh^2: dividing by tanh^2 <= 1
    # keeps s_in >= s_coh in floating point
    s_in = np.where(small, (4.0 / math.pi) * (1.0 - u * u / 3.0), s_coh / np.tanh(u_safe) ** 2)
    if np.ndim(varpi) == 0:
        return float(s_coh), float(s_in)
    return s_coh, s_in
