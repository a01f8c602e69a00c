"""Documented ``ValidationError`` preconditions, one case each."""

import numpy as np
import pytest

from gobe import ExperimentData, StressConfig, ValidationError, estimate, run_aa
from gobe.dataset import filter_by_day
from gobe.power import forecast_arm_sizes, recommend_duration


def eight_units(**overrides):
    """Eight alternating-arm units, two a day on days 3-6."""
    fields = dict(unit_ids=np.arange(8), assignment=np.arange(8) % 2,
                  outcome=np.arange(8.0), covariates=np.arange(16.0).reshape(8, 2),
                  pre_period_col=0, day_index=np.repeat([3, 4, 5, 6], 2))
    fields.update(overrides)
    return ExperimentData(**fields)


LATE_ARM = {"day_index": np.array([3, 4, 3, 4, 3, 4, 3, 4])}  # arm 1 arrives on day 4


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: eight_units(outcome=np.arange(7.0)), "column lengths disagree",
                 id="data-lengths"),
    pytest.param(lambda: eight_units(outcome=np.r_[np.arange(7.0), np.inf]),
                 "outcome contains non-finite values", id="data-outcome-inf"),
    pytest.param(lambda: eight_units(covariates=np.arange(8.0)),
                 "covariates must be a 2-D matrix", id="data-1d-covariates"),
    pytest.param(lambda: eight_units(day_index=np.repeat([0, 1, 2, 3], 2)),
                 "day_index values must be positive", id="data-day-0"),
    pytest.param(lambda: eight_units(day_index=np.repeat([1.5, 2.0, 3.0, 4.0], 2)),
                 "day_index values must be positive integers", id="data-day-1.5"),
    pytest.param(lambda: eight_units(day_index=np.repeat([np.inf, 2.0, 3.0, 4.0], 2)),
                 "day_index values must be positive integers", id="data-day-inf"),
    pytest.param(lambda: eight_units(assignment=[np.nan, 1, 0, 1, 0, 0.5, 0, 1]),
                 "assignment values must be 0 or 1", id="data-assignment-nan-half"),
    pytest.param(lambda: eight_units(assignment=[256.0, 1, 0, 1, 0, 1, 0, 1]),
                 "assignment values must be 0 or 1", id="data-assignment-256"),
    pytest.param(lambda: eight_units(assignment=[-0.4, 1, 0, 1, 0, 1, 0, 1]),
                 "assignment values must be 0 or 1", id="data-assignment-negative"),
    pytest.param(lambda: filter_by_day(eight_units(), 0), "day filter must be >= 1",
                 id="filter-day-0"),
    pytest.param(lambda: filter_by_day(eight_units(), 2), "no units triggered by day 2",
                 id="filter-empty"),
    pytest.param(lambda: forecast_arm_sizes(eight_units(), 0), "day filter must be >= 1",
                 id="forecast-day-0"),
    pytest.param(lambda: forecast_arm_sizes(eight_units(), 5, horizon=4),
                 "horizon must not precede the analysis day", id="forecast-horizon"),
    pytest.param(lambda: forecast_arm_sizes(eight_units(**LATE_ARM), 3),
                 "an arm has no units by day 3", id="forecast-empty-arm"),
    pytest.param(lambda: recommend_duration(estimate(eight_units(), "dim"),
                                            forecast_arm_sizes(eight_units(), 5), 0.1,
                                            target_power=1.0),
                 r"target_power must be in \(0, 1\), got 1.0", id="duration-power-1"),
    pytest.param(lambda: run_aa(eight_units(), 0, ["dim"], s_splits=0),
                 "s_splits must be >= 1", id="aa-no-splits"),
    pytest.param(lambda: StressConfig(folds=1, mc_draws=1, models=()),
                 "at least one model is required", id="stress-no-models"),
    pytest.param(lambda: StressConfig(folds=1, mc_draws=1, models=("ols", "ols")),
                 "model 'ols' is listed more than once", id="stress-repeated-model"),
    pytest.param(lambda: run_aa(eight_units(), 0, ["dim", "elastic_net:0.5",
                                                   "elastic_net:0.50"], s_splits=4),
                 "model 'elastic_net:0.5' is listed more than once", id="aa-repeated-model"),
])
def test_precondition_is_a_validation_error(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


def test_bool_assignments_and_integral_float_days_are_accepted():
    data = eight_units(assignment=np.arange(8) % 2 == 1, day_index=np.repeat([3.0, 4, 5, 6], 2))
    assert data.assignment.tolist() == eight_units().assignment.tolist()
    assert data.day_index.tolist() == eight_units().day_index.tolist()
