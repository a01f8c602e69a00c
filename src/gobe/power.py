"""Experiment duration recommendation from projected power.

Given an estimate at analysis day D, arm sizes are extrapolated linearly in
calendar time (units keep arriving at the observed average rate) and the
per-arm error estimates are held frozen at their day-D values. The
recommendation is the first day at which a two-sample z-test against a fixed
relative effect reaches the target power. The projected variance is
``estimator.ate_variance`` at the projected sizes, the critical value is
``estimator.z_for_alpha`` and Phi is ``statistics.NormalDist``'s CDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .dataset import ExperimentData, check_days
from .errors import ValidationError
from .estimator import AteEstimate, ate_variance, check_alpha, z_for_alpha

DEFAULT_HORIZON_FACTOR = 10


@dataclass(frozen=True)
class ArmForecast:
    """Projected per-arm sizes by day, anchored at the analysis day."""

    anchor_day: int
    days: np.ndarray
    n0: np.ndarray
    n1: np.ndarray

    @property
    def horizon(self) -> int:
        return int(self.days[-1])


@dataclass(frozen=True)
class DurationRecommendation:
    """First projected day at which the target power is reached.

    ``day_found`` is None when the horizon is exhausted first; reports
    render that as "not within horizon".
    """

    model_id: str
    anchor_day: int
    day_found: int | None
    delta: float
    alpha: float
    target_power: float
    projected_variance: float | None
    horizon: int


def forecast_arm_sizes(data: ExperimentData, current_day: int,
                       horizon: int | None = None) -> ArmForecast:
    """Extrapolate arm sizes linearly from their day-``current_day`` counts.

    Projected sizes are rounded to the nearest unit; the anchor day itself
    is included, so the first row reproduces the observed counts.
    """
    if data.day_index is None:
        raise ValidationError("duration analysis requires a day column")
    horizon = DEFAULT_HORIZON_FACTOR * current_day if horizon is None else horizon
    check_days(current_day, horizon)
    seen = data.day_index <= current_day
    n0_now = int(np.count_nonzero(seen & (data.assignment == 0)))
    n1_now = int(np.count_nonzero(seen & (data.assignment == 1)))
    if n0_now == 0 or n1_now == 0:
        raise ValidationError(f"an arm has no units by day {current_day}")
    days = np.arange(current_day, horizon + 1, dtype=np.int64)
    scale = days.astype(np.float64) / current_day
    return ArmForecast(
        anchor_day=current_day,
        days=days,
        n0=np.rint(n0_now * scale).astype(np.int64),
        n1=np.rint(n1_now * scale).astype(np.int64),
    )


def projected_power(variance: float, effect: float, alpha: float) -> float:
    """Two-sample z-test power at a given estimator variance and true effect."""
    if variance <= 0.0:
        return 1.0
    return NormalDist().cdf(abs(effect) / math.sqrt(variance) - z_for_alpha(alpha))


def check_power_args(delta: float, alpha: float, target_power: float) -> None:
    """Raise ValidationError unless ``delta`` is non-zero and ``alpha`` and
    ``target_power`` lie in (0, 1)."""
    if delta == 0.0:
        raise ValidationError("delta must be non-zero; power cannot exceed alpha at zero effect")
    check_alpha(alpha)
    if not 0.0 < target_power < 1.0:
        raise ValidationError(f"target_power must be in (0, 1), got {target_power}")


def recommend_duration(estimate: AteEstimate, forecast: ArmForecast, delta: float,
                       alpha: float = 0.05, target_power: float = 0.8,
                       ) -> DurationRecommendation:
    """Scan the forecast day by day for the first rejection-capable day.

    ``delta`` is the hypothesized relative effect; the absolute effect under
    the alternative is ``delta * |control mean|``. Per-arm error estimates
    are frozen at the analysis day, so the projected variance only shrinks
    through the growing arm sizes.
    """
    check_power_args(delta, alpha, target_power)
    effect = delta * abs(estimate.control_mean)
    if effect == 0.0:
        raise ValidationError("control mean is zero; the relative effect has no scale")
    day_found = None
    variance_found = None
    for day, n0, n1 in zip(forecast.days, forecast.n0, forecast.n1):
        if day <= forecast.anchor_day or n0 < 1 or n1 < 1:
            continue
        variance = ate_variance(estimate.mse_per_arm, (n0, n1))
        if projected_power(variance, effect, alpha) >= target_power:
            day_found = int(day)
            variance_found = float(variance)
            break
    return DurationRecommendation(
        model_id=estimate.model_id,
        anchor_day=forecast.anchor_day,
        day_found=day_found,
        delta=delta,
        alpha=alpha,
        target_power=target_power,
        projected_variance=variance_found,
        horizon=forecast.horizon,
    )
