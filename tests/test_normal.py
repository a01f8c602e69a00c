"""The normal distribution behind the intervals and the power projection:
``estimator.z_for_alpha`` for z_{1-alpha/2} and Phi as ``power.projected_power``
applies it, both against scipy."""

import numpy as np
import pytest
from scipy.stats import norm

from gobe.errors import ValidationError
from gobe.estimator import z_for_alpha
from gobe.power import projected_power

# z_{1 - alpha/2} at the smallest alpha whose 1 - alpha/2 is below 1.0: about 8.21
_Z_MAX_ALPHA = 2.0 ** -52


def test_quantile_matches_scipy_below_1e9():
    alphas = np.concatenate([
        np.geomspace(_Z_MAX_ALPHA, 0.5, 500),
        1.0 - np.geomspace(1e-16, 0.5, 500),
    ])
    for alpha in alphas:
        assert abs(z_for_alpha(float(alpha)) - norm.ppf(1.0 - float(alpha) / 2.0)) < 1e-9


def test_cdf_matches_scipy():
    # projected power is Phi(|effect| / sd - z); a z above 8 reaches Phi(x) for x >= -8
    z = z_for_alpha(_Z_MAX_ALPHA)
    for x in np.linspace(-8, 8, 200):
        effect = float(x) + z
        assert abs(projected_power(1.0, effect, _Z_MAX_ALPHA) - norm.cdf(effect - z)) < 1e-14


def test_quantile_inverts_cdf():
    for alpha in (0.002, 0.05, 0.4, 0.999):
        z = z_for_alpha(alpha)
        assert abs(projected_power(1.0, 2.0 * z, alpha) - (1.0 - alpha / 2.0)) < 1e-13
        assert abs(projected_power(1.0, 0.0, alpha) - alpha / 2.0) < 1e-13


def test_two_sided_critical_value():
    assert abs(z_for_alpha(0.05) - 1.959963984540054) < 1e-9
    assert abs(z_for_alpha(0.01) - norm.ppf(0.995)) < 1e-9


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
def test_rejects_out_of_range(alpha):
    with pytest.raises(ValidationError, match="alpha must be in"):
        z_for_alpha(alpha)
