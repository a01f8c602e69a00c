"""Standard-normal CDF and quantile from the standard library.

Confidence intervals and power curves only need Phi and its inverse, which
``statistics.NormalDist`` provides: an erfc-based CDF and Wichura's AS241
quantile, accurate to about 1e-16 relative. Its ``StatisticsError`` for a
level outside (0, 1) is a ``ValueError``.
"""

from __future__ import annotations

from statistics import NormalDist

_STANDARD = NormalDist()


def normal_cdf(x: float) -> float:
    """Phi(x), the standard normal CDF."""
    return _STANDARD.cdf(x)


def normal_quantile(p: float) -> float:
    """Inverse of the standard normal CDF for p in (0, 1)."""
    return _STANDARD.inv_cdf(p)


def z_for_alpha(alpha: float) -> float:
    """Two-sided critical value z_{1-alpha/2} for a significance level."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return _STANDARD.inv_cdf(1.0 - alpha / 2.0)
