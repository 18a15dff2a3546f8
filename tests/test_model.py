import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fermipulse as fp
from fermipulse.model import VARPI_QUAD_WINDOW


def vector_oracle(kla, gamma_ratio, theta, varpi):
    """Momentum transfer by direct 3-vector arithmetic."""
    ka = kla * (1.0 + gamma_ratio * varpi)
    k = np.array([ka * math.sin(theta), 0.0, ka * math.cos(theta)])
    kl = np.array([0.0, 0.0, kla])
    d = k - kl
    return float(d @ d)


class TestKinematics:
    def test_forward_elastic_is_zero(self, trap):
        x = fp.kinematics(trap, 0.0, 0.0)
        assert x == 0.0 and isinstance(x, float)

    def test_backscatter(self, trap):
        x = fp.kinematics(trap, math.pi, 0.0)
        assert x == pytest.approx((2 * 12.5) ** 2, rel=1e-14)
        assert x == pytest.approx(vector_oracle(12.5, trap.gamma_ratio, math.pi, 0.0), rel=1e-14)

    def test_right_angle(self, trap):
        assert fp.kinematics(trap, math.pi / 2, 0.0) == pytest.approx(312.5, rel=1e-14)

    @given(
        theta=st.floats(0.0, math.pi),
        varpi=st.floats(-20.0, 20.0),
    )
    def test_matches_vector_oracle(self, theta, varpi):
        trap = fp.TrapModel()
        x = fp.kinematics(trap, theta, varpi)
        assert x == pytest.approx(vector_oracle(trap.kla, trap.gamma_ratio, theta, varpi), rel=1e-12, abs=1e-12)
        assert x >= 0.0

    @given(theta=st.floats(0.0, math.pi), varpi=st.floats(-20.0, 20.0))
    def test_even_in_theta(self, theta, varpi):
        trap = fp.TrapModel()
        assert fp.kinematics(trap, theta, varpi) == fp.kinematics(trap, -theta, varpi)

    def test_monotone_in_theta(self, trap):
        thetas = np.linspace(0.0, math.pi, 200)
        for varpi in (0.0, 3.0):
            xs = [fp.kinematics(trap, float(t), varpi) for t in thetas]
            assert all(b >= a for a, b in zip(xs, xs[1:]))

    def test_detuning_drift_bound(self, trap):
        # exact algebra: x(theta, w) - x(theta, 0)
        #   = (kla)^2 g w (2 + g w - 2 cos theta), so the drift is bounded by
        # (kla)^2 g |w| (4 + g |w|); the coefficient reaches 4 at back-scatter.
        g = trap.gamma_ratio
        for theta in np.linspace(0.0, math.pi, 25):
            for varpi in (-8.0, -1.0, 0.5, 8.0):
                d = abs(fp.kinematics(trap, float(theta), varpi) - fp.kinematics(trap, float(theta), 0.0))
                assert d <= trap.kla**2 * g * abs(varpi) * (4.0 + g * abs(varpi)) * (1 + 1e-12)

    def test_rejects_bad_inputs(self, trap):
        with pytest.raises(ValueError):
            fp.kinematics(trap, math.nan, 0.0)
        with pytest.raises(ValueError):
            fp.kinematics(trap, 0.0, math.inf)
        with pytest.raises(ValueError):
            fp.kinematics(trap, 4.0, 0.0)
        with pytest.raises(ValueError):
            fp.kinematics(trap, 0.0, -1.1 / trap.gamma_ratio)


class TestTrapModel:
    def test_defaults(self, trap):
        assert trap.kla == 12.5
        assert trap.gamma_ratio < 0.1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kla=-1.0),
            dict(kla=0.0),
            dict(gamma_ratio=0.0),
            dict(gamma_ratio=0.2),
            dict(natural_width_ratio=-2.0),
            dict(kla=math.inf),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            fp.TrapModel(**kwargs)

    def test_kla_bound_keeps_back_scatter_finite(self):
        # (2 kla (1 + gamma_ratio 12))^2 passes the float range near 6.70e153
        # at the default gamma_ratio, and near 3.42e153 at 0.08
        for kla, gamma_ratio in ((6.7e153, fp.TrapModel.gamma_ratio), (3.4e153, 0.08)):
            trap = fp.TrapModel(kla=kla, gamma_ratio=gamma_ratio)
            x = fp.kinematics(trap, math.pi, np.array([-VARPI_QUAD_WINDOW, VARPI_QUAD_WINDOW]))
            assert np.isfinite(x).all()
            with pytest.raises(ValueError, match="kla"):
                fp.TrapModel(kla=1.01 * kla, gamma_ratio=gamma_ratio)
