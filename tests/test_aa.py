import numpy as np
import pytest

from gobe import ExperimentData, SyntheticConfig, ValidationError, aa, generate
from gobe.aa import AaRun, bucket_metrics, pooled_coverage, run_aa, write_splits_csv
from gobe.dataset import restrict_to_arm, with_assignment
from gobe.errors import MODEL_FAILURES
from gobe.estimator import estimate
from gobe.regression import with_dim_baseline
from gobe.rng import child_rng, child_seed


def one_arm_dataset(y, z, pre_col=0):
    y = np.asarray(y, float)
    return ExperimentData(
        unit_ids=np.arange(len(y)), assignment=np.zeros(len(y), dtype=np.int8),
        outcome=y, covariates=np.asarray(z, float), pre_period_col=pre_col,
    )


def perfect_predictor_data(n=400, seed=0):
    x = np.random.default_rng(seed).standard_normal(n)
    return one_arm_dataset(x, x[:, None])


def synthetic_run(kappa=5, s=200, seed=3, models=("dim", "ols")):
    data = generate(SyntheticConfig(n_units=800, k_covariates=2,
                                    outcome_cor=0.6, seed=seed))
    return run_aa(data, arm=0, models=list(models), s_splits=s,
                  seed=seed, kappa=kappa)


def test_dim_estimate_equals_imbalance_when_outcome_is_preperiod():
    data = perfect_predictor_data()
    run = run_aa(data, arm=0, models=["dim", "ols"], s_splits=100, seed=1)
    dim = run.ate[:, 0]
    lr = run.ate[:, 1]
    assert np.max(np.abs(dim - run.zeta)) < 1e-12
    assert np.max(np.abs(lr)) < 1e-8


def test_constant_outcome_gives_zero_estimates():
    data = one_arm_dataset(np.full(50, 4.2), np.random.default_rng(2).standard_normal((50, 2)))
    run = run_aa(data, arm=0, models=["dim", "ols"], s_splits=50, seed=2)
    assert np.nanmax(np.abs(run.ate)) < 1e-12


def test_splits_partition_the_arm():
    data = perfect_predictor_data(n=101)  # odd size: halves differ by one
    run = run_aa(data, arm=0, models=["dim"], s_splits=10, seed=4)
    assert run.n_units == 101
    # sizes fixed at (51, 50): the zeta stream is deterministic per seed
    rerun = run_aa(data, arm=0, models=["dim"], s_splits=10, seed=4)
    np.testing.assert_array_equal(run.zeta, rerun.zeta)


def test_unconditional_unbiasedness_and_symmetric_imbalance():
    run = synthetic_run(s=400)
    dim = run.ate[:, 0]
    mc_se = dim.std(ddof=1) / np.sqrt(len(dim))
    assert abs(dim.mean()) < 4 * mc_se
    zeta_se = run.zeta.std(ddof=1) / np.sqrt(len(run.zeta))
    assert abs(run.zeta.mean()) < 4 * zeta_se


def test_conditional_bias_slopes_on_perfectly_predictive_covariate():
    data = perfect_predictor_data(n=600, seed=5)
    run = run_aa(data, arm=0, models=["dim", "ols"], s_splits=300, seed=5)
    design = np.column_stack([np.ones(run.s_splits), run.zeta])
    slope_dim = np.linalg.lstsq(design, run.ate[:, 0], rcond=None)[0][1]
    slope_lr = np.linalg.lstsq(design, run.ate[:, 1], rcond=None)[0][1]
    assert abs(slope_dim - 1.0) < 1e-6
    assert abs(slope_lr) < 1e-6


def test_dim_always_included():
    data = perfect_predictor_data()
    run = run_aa(data, arm=0, models=["ols"], s_splits=5, seed=6)
    assert run.model_ids[0] == "dim"
    assert run.dim_index == 0


def test_run_is_deterministic_and_schedule_independent():
    data = perfect_predictor_data(n=200, seed=7)
    serial = run_aa(data, arm=0, models=["dim", "ols"], s_splits=40, seed=7, n_jobs=1)
    threaded = run_aa(data, arm=0, models=["dim", "ols"], s_splits=40, seed=7, n_jobs=4)
    np.testing.assert_array_equal(serial.zeta, threaded.zeta)
    np.testing.assert_array_equal(serial.ate, threaded.ate)
    np.testing.assert_array_equal(serial.ci_lo, threaded.ci_lo)


def per_split_reference(data, arm, models, s_splits, alpha, seed):
    """Each split relabels the arm, rebuilds the dataset and estimates every
    model on it: the loop the arm-block splits must reproduce bit for bit."""
    restricted = restrict_to_arm(data, arm)
    specs = with_dim_baseline(models)
    n, x = restricted.n_units, restricted.pre_period
    zeta = np.empty(s_splits)
    ate, ci_lo, ci_hi = (np.full((s_splits, len(specs)), np.nan) for _ in range(3))
    failed = np.zeros((s_splits, len(specs)), dtype=bool)
    for s in range(s_splits):
        perm = child_rng(seed, s).permutation(n)
        assignment = np.zeros(n, dtype=np.int8)
        assignment[perm[: n // 2]] = 1
        zeta[s] = float(x[assignment == 1].mean() - x[assignment == 0].mean())
        split_data = with_assignment(restricted, assignment)
        for j, spec in enumerate(specs):
            try:
                est = estimate(split_data, spec, alpha=alpha, seed=child_seed(seed, s, j))
            except MODEL_FAILURES:
                failed[s, j] = True
                continue
            ate[s, j] = est.ate
            ci_lo[s, j], ci_hi[s, j] = est.ci
    return zeta, ate, ci_lo, ci_hi, failed


def test_arm_block_splits_are_bit_identical_to_per_split_datasets():
    rng = np.random.default_rng(12)
    n = 123
    assignment = (np.arange(n) % 2).astype(np.int8)  # arm 1 has an odd 61 units
    pre = rng.standard_normal(n)
    z = np.column_stack([rng.standard_normal(n), np.full(n, 3.0), pre])
    y = 0.8 * pre + rng.standard_normal(n)  # negative outcomes: tweedie cannot fit
    data = ExperimentData(unit_ids=np.arange(n), assignment=assignment, outcome=y,
                          covariates=z, pre_period_col=2)
    models = ["dim", "ols", "ols@pre", "pcr", "ridge", "two_step:ols", "tweedie"]
    run = run_aa(data, arm=1, models=models, s_splits=12, alpha=0.1, seed=12, kappa=3)
    zeta, ate, ci_lo, ci_hi, failed = per_split_reference(data, 1, models, 12, 0.1, 12)
    assert run.n_units == 61
    np.testing.assert_array_equal(run.zeta, zeta)
    np.testing.assert_array_equal(run.ate, ate)
    np.testing.assert_array_equal(run.ci_lo, ci_lo)
    np.testing.assert_array_equal(run.ci_hi, ci_hi)
    np.testing.assert_array_equal(run.failed, failed)
    assert failed[:, models.index("tweedie")].all()
    assert not np.delete(failed, models.index("tweedie"), axis=1).any()


def test_alpha_and_kappa_are_checked_before_any_split(monkeypatch):
    data = perfect_predictor_data(n=40, seed=11)

    def no_split(*args):
        raise AssertionError("a split ran before the arguments were checked")

    monkeypatch.setattr(aa, "child_rng", no_split)
    with pytest.raises(ValidationError, match="alpha"):
        run_aa(data, arm=0, models=["dim"], s_splits=10, alpha=1.5, seed=11)
    for kappa in (0, 11):
        with pytest.raises(ValidationError, match="kappa"):
            run_aa(data, arm=0, models=["dim"], s_splits=10, seed=11, kappa=kappa)


def test_kappa_defaults_to_twenty_or_the_split_count():
    data = perfect_predictor_data(n=40, seed=13)
    assert run_aa(data, arm=0, models=["dim"], s_splits=5, seed=13).kappa == 5
    assert run_aa(data, arm=0, models=["dim"], s_splits=25, seed=13).kappa == 20


def test_model_failures_are_recorded_not_fatal():
    rng = np.random.default_rng(8)
    y = rng.standard_normal(60)  # negative values break tweedie
    data = one_arm_dataset(y, rng.standard_normal((60, 1)))
    run = run_aa(data, arm=0, models=["dim", "tweedie"], s_splits=10, seed=8)
    assert run.failure_count == 10
    assert np.isnan(run.ate[:, 1]).all()
    assert np.isfinite(run.ate[:, 0]).all()


def test_arm_too_small():
    data = one_arm_dataset([1.0, 2.0, 3.0], np.zeros((3, 1)))
    with pytest.raises(ValidationError, match=">= 4"):
        run_aa(data, arm=0, models=["dim"], s_splits=5, seed=9)


# --- bucket metrics ---------------------------------------------------------

def make_run(zeta, ate, ci_half=10.0, model_ids=("dim", "ols")):
    """Hand-built AaRun with identical records for every listed model."""
    zeta = np.asarray(zeta, float)
    ate = np.asarray(ate, float)
    s = len(zeta)
    m = len(model_ids)
    ate_mat = np.tile(ate[:, None], (1, m))
    return AaRun(
        model_ids=tuple(model_ids), zeta=zeta, ate=ate_mat,
        ci_lo=ate_mat - ci_half, ci_hi=ate_mat + ci_half,
        failed=np.zeros((s, m), dtype=bool), arm=0, n_units=100,
        alpha=0.05, kappa=1, seed=0, dim_index=0,
    )


def test_bucket_metrics_centered_degenerate():
    run = make_run([0.1, 0.2, 0.3], [0.0, 0.0, 0.0])
    metrics = bucket_metrics(run, kappa=1)
    assert metrics.mse[0, 0] == 0.0
    assert metrics.median_dist[0, 0] == 0.0
    assert metrics.excess_frac[0, 0] == 0.0
    assert metrics.coverage[0, 0] == 1.0


def test_bucket_metrics_one_sided_extreme():
    run = make_run([0.1, 0.2, 0.3], [1.0, 2.0, 3.0])
    metrics = bucket_metrics(run, kappa=1)
    assert metrics.excess_frac[0, 0] == 1.0


def test_bucket_metrics_two_point_hand_computation():
    run = make_run([0.1, 0.2], [-1.0, 1.0])
    metrics = bucket_metrics(run, kappa=1)
    assert metrics.mse[0, 0] == 1.0
    assert metrics.median_dist[0, 0] == 0.0
    assert metrics.excess_frac[0, 0] == 0.0


def test_buckets_partition_splits_with_stable_ties():
    run = synthetic_run(s=103, kappa=5)
    metrics = bucket_metrics(run)
    assert metrics.bucket_sizes.sum() == run.s_splits
    assert metrics.bucket_sizes.max() - metrics.bucket_sizes.min() <= 1
    # ranges are non-overlapping once sorted by zeta
    for j in range(metrics.kappa - 1):
        assert metrics.zeta_range[j, 1] <= metrics.zeta_range[j + 1, 0]


def test_relative_metrics_baseline_column_is_nan():
    run = synthetic_run(s=60, kappa=3)
    metrics = bucket_metrics(run)
    assert np.isnan(metrics.r_mse[:, run.dim_index]).all()
    assert np.isfinite(metrics.r_mse[:, 1]).all()


def test_relative_metric_undefined_when_baseline_zero():
    # constant outcome: every estimate is 0, so the baseline MSE is 0
    data = one_arm_dataset(np.full(40, 2.0), np.random.default_rng(10).standard_normal((40, 1)))
    run = run_aa(data, arm=0, models=["dim", "ols"], s_splits=20, seed=10)
    metrics = bucket_metrics(run, kappa=2)
    assert np.isnan(metrics.r_mse[:, 1]).all()


def test_kappa_bounds():
    run = synthetic_run(s=10)
    with pytest.raises(ValidationError, match="kappa"):
        bucket_metrics(run, kappa=11)


def test_pooled_coverage_and_csv(tmp_path):
    run = synthetic_run(s=50)
    cov = pooled_coverage(run)
    assert set(cov) == set(run.model_ids)
    assert all(0.0 <= v <= 1.0 for v in cov.values())
    path = tmp_path / "splits.csv"
    write_splits_csv(run, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + run.s_splits * len(run.model_ids)
    assert lines[0] == "s,zeta,model,ate,ci_lo,ci_hi"


def test_programming_error_in_a_fit_propagates(ols_fit_has_a_bug):
    data = perfect_predictor_data(n=40, seed=2)
    with pytest.raises(TypeError, match="bug inside"):
        run_aa(data, arm=0, models=["dim", "ols"], s_splits=3, seed=2)
