from dataclasses import replace

import numpy as np
import pytest

from gobe import (
    ExperimentData,
    ModelSpec,
    StressConfig,
    SyntheticConfig,
    ValidationError,
    augment,
    error_distribution,
    estimate,
    generate,
    timing_profile,
    variance_reduction,
)
from gobe.errors import MODEL_FAILURES
from gobe.rng import child_seed

from oracles import gobe_ols_ate


@pytest.fixture(scope="module")
def base_data():
    return generate(SyntheticConfig(n_units=600, k_covariates=2,
                                    outcome_cor=0.6, true_ate=0.5, seed=1))


def test_augmented_layout(base_data):
    assert augment(base_data, 1, seed=0).k_covariates == 4
    data3 = generate(SyntheticConfig(n_units=100, k_covariates=3, seed=2))
    assert augment(data3, 5, seed=0).k_covariates == 18


def test_real_block_comes_first_and_pre_col_is_kept(base_data):
    out = augment(base_data, 2, seed=3)
    np.testing.assert_array_equal(out.covariates[:, :2], base_data.covariates)
    assert out.pre_period_col == base_data.pre_period_col


def test_spurious_columns_match_moments():
    data = generate(SyntheticConfig(n_units=40_000, k_covariates=2, seed=4))
    shifted = ExperimentData(
        unit_ids=data.unit_ids, assignment=data.assignment, outcome=data.outcome,
        covariates=data.covariates * 3.0 + 7.0, pre_period_col=0,
    )
    out = augment(shifted, 1, seed=5)
    n, k = shifted.n_units, shifted.k_covariates
    for col in range(k):
        mu = shifted.covariates[:, col].mean()
        sd = shifted.covariates[:, col].std(ddof=1)
        spur = out.covariates[:, k + col]
        assert abs(spur.mean() - mu) < 4 * sd / np.sqrt(n)
        assert abs(spur.std(ddof=1) - sd) < 0.05 * sd


def test_spurious_columns_independent_of_outcome():
    data = generate(SyntheticConfig(n_units=2000, k_covariates=2,
                                    outcome_cor=0.8, seed=6))
    sq_corrs = []
    for draw in range(50):
        out = augment(data, 1, seed=draw)
        for col in range(2, out.k_covariates):
            r = np.corrcoef(out.covariates[:, col], out.outcome)[0, 1]
            sq_corrs.append(r * r)
    assert np.mean(sq_corrs) < 16.0 / data.n_units


def test_zero_variance_column_flagged():
    data = ExperimentData(
        unit_ids=np.arange(6), assignment=np.array([0, 0, 0, 1, 1, 1]),
        outcome=np.arange(6, dtype=float),
        covariates=np.column_stack([np.ones(6), np.arange(6, dtype=float)]),
        pre_period_col=0,
    )
    with pytest.warns(UserWarning, match="zero-variance"):
        out = augment(data, 1, seed=0)
    assert np.all(out.covariates[:, 2] == 1.0)  # constant copy of a constant


def test_dim_estimate_bit_identical_under_augmentation(base_data):
    plain = estimate(base_data, "dim", seed=9)
    noisy = estimate(augment(base_data, 3, seed=10), "dim", seed=9)
    assert plain.ate == noisy.ate
    assert plain.variance == noisy.variance


def test_reference_self_error_is_zero(base_data):
    config = StressConfig(folds=1, mc_draws=2, models=(ModelSpec("ols"),), seed=11)
    reference = estimate(base_data, config.reference_model, alpha=config.alpha,
                         seed=config.seed)
    again = estimate(base_data, config.reference_model, alpha=config.alpha,
                     seed=config.seed)
    assert abs(again.ate - reference.ate) == 0.0


def test_dim_error_constant_across_draws(base_data):
    config = StressConfig(folds=2, mc_draws=5, models=(ModelSpec("dim"),), seed=12)
    result = error_distribution(base_data, config)
    errs = result.errors[0]  # (folds, draws)
    assert np.ptp(errs) == 0.0


def test_result_shapes_and_relative_flag(base_data):
    config = StressConfig(folds=3, mc_draws=4,
                          models=(ModelSpec("dim"), ModelSpec("ols")), seed=13)
    result = error_distribution(base_data, config)
    assert result.errors.shape == (2, 3, 4)
    assert result.vr.shape == (2, 3, 4)
    assert result.fold_counts == (1, 2, 3)
    assert result.relative_errors  # injected effect makes the reference nonzero
    assert result.failure_count == 0
    assert result.median_errors().shape == (2, 3)
    assert result.runtime_ms.shape == (2, 3, 4)
    assert (result.median_runtime_ms() > 0.0).all()


def test_ols_drift_stays_at_oracle_scale(base_data):
    # the independent least-squares imputation oracle, run on the same
    # augmented draws, bounds the expected drift scale
    config = StressConfig(folds=2, mc_draws=10, models=(ModelSpec("ols"),), seed=14)
    result = error_distribution(base_data, config)
    from gobe.rng import child_seed
    ref = gobe_ols_ate(base_data.outcome, base_data.assignment, base_data.covariates)
    oracle_errs = []
    for s in range(10):
        aug = augment(base_data, 2, seed=child_seed(14, s))
        ate = gobe_ols_ate(aug.outcome, aug.assignment, aug.covariates)
        oracle_errs.append(abs(ate - ref) / abs(ref))
    med_impl = result.median_errors()[0, 1]
    med_oracle = float(np.median(oracle_errs))
    assert med_impl == pytest.approx(med_oracle, rel=1e-6)


def test_median_error_non_decreasing_in_folds():
    # light regularization, so the drift from added noise columns dominates
    # the penalty's own bias against the least-squares reference
    data = generate(SyntheticConfig(n_units=1500, k_covariates=2,
                                    outcome_cor=0.6, true_ate=0.5, seed=15))
    config = StressConfig(folds=5, mc_draws=200,
                          models=(ModelSpec("ridge", hyper_grid=(0.1,)),), seed=16)
    result = error_distribution(data, config)
    med = result.median_errors()[0]
    checks = [med[0] <= med[2], med[2] <= med[4]]  # folds 1 -> 3 -> 5
    assert sum(checks) >= 1  # Monte Carlo slack: allow one inversion


def test_failures_are_counted_and_excluded():
    rng = np.random.default_rng(17)
    y = rng.standard_normal(200)  # negatives break tweedie
    data = ExperimentData(
        unit_ids=np.arange(200), assignment=(rng.random(200) < 0.5).astype(np.int8),
        outcome=y, covariates=rng.standard_normal((200, 2)), pre_period_col=0,
    )
    config = StressConfig(folds=2, mc_draws=3,
                          models=(ModelSpec("dim"), ModelSpec("tweedie")), seed=18)
    result = error_distribution(data, config)
    assert result.failure_count == 6  # tweedie fails on every (fold, draw)
    assert np.isnan(result.errors[1]).all()
    assert np.isfinite(result.errors[0]).all()
    assert np.isnan(result.median_runtime_ms()[1]).all()  # no time for a failed fit
    assert (result.runtime_ms[0] > 0.0).all()


def test_arm_split_fold_views_are_bit_identical_to_per_fold_datasets():
    data = generate(SyntheticConfig(n_units=201, k_covariates=2, outcome_cor=0.5,
                                    true_ate=0.3, seed=14))
    config = StressConfig(folds=3, mc_draws=2, models=("dim", "ols", "lasso", "two_step:ols"),
                          seed=14)
    result = error_distribution(data, config)

    # each fold rebuilds the dataset on a column prefix and runs the full estimator
    reference = estimate(data, config.reference_model, alpha=config.alpha, seed=config.seed)
    dim = estimate(data, ModelSpec(kind="dim"), alpha=config.alpha, seed=config.seed)
    errors = np.full((len(config.models), config.folds, config.mc_draws), np.nan)
    vr = np.full_like(errors, np.nan)
    failures = 0
    k = data.k_covariates
    for s in range(config.mc_draws):
        augmented = augment(data, config.folds, seed=child_seed(config.seed, s))
        for fold in range(1, config.folds + 1):
            view = replace(augmented, covariates=augmented.covariates[:, : (fold + 1) * k])
            for j, spec in enumerate(config.models):
                try:
                    est = estimate(view, spec, alpha=config.alpha,
                                   seed=child_seed(config.seed, s, fold, j))
                except MODEL_FAILURES:
                    failures += 1
                    continue
                errors[j, fold - 1, s] = abs(est.ate - reference.ate) / abs(reference.ate)
                vr[j, fold - 1, s] = variance_reduction(est, dim)

    np.testing.assert_array_equal(result.errors, errors)
    np.testing.assert_array_equal(result.vr, vr)
    assert result.failure_count == failures
    assert result.runtime_ms.shape == errors.shape
    np.testing.assert_array_equal(np.isnan(result.runtime_ms), np.isnan(errors))
    assert (result.runtime_ms[~np.isnan(errors)] > 0.0).all()


def test_timing_profile_dimensions_and_dim_ratio():
    cells = timing_profile([300, 600], [0, 1], ["dim", "ols"], seed=19)
    assert len(cells) == 2 * 2 * 2
    for cell in cells:
        assert cell.wall_ms > 0.0
        if cell.model_id == "dim":
            assert cell.dim_ratio == 1.0
        else:
            assert np.isfinite(cell.dim_ratio)


def test_config_validation():
    with pytest.raises(ValidationError):
        StressConfig(folds=0, mc_draws=1, models=(ModelSpec("ols"),))
    with pytest.raises(ValidationError):
        StressConfig(folds=1, mc_draws=0, models=(ModelSpec("ols"),))
    with pytest.raises(ValidationError):
        augment(generate(SyntheticConfig(n_units=10, seed=0)), 0, seed=0)


def test_programming_error_in_a_fit_propagates(base_data, ols_fit_has_a_bug):
    config = StressConfig(folds=1, mc_draws=1, models=(ModelSpec("ols"),), seed=5,
                          reference_model=ModelSpec("dim"))
    with pytest.raises(TypeError, match="bug inside"):
        error_distribution(base_data, config)


def test_a_reference_that_cannot_fit_raises_its_error(base_data):
    # the Gaussian outcomes are negative in places, so a tweedie reference fails
    config = StressConfig(folds=1, mc_draws=1, models=(ModelSpec("ols"),), seed=5,
                          reference_model=ModelSpec("tweedie"))
    with pytest.raises(ValidationError, match="tweedie requires non-negative outcomes"):
        error_distribution(base_data, config)
