from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gobe import ExperimentData, SyntheticConfig, ValidationError, aa, generate
from gobe.aa import AaRun, bucket_metrics, pooled_coverage, run_aa, write_splits_csv
from gobe.rng import child_rng

from oracles import per_split_reference

# Moment-form splits agree with the row path within this share of each
# split's half-width; the splits run_aa fits from rows agree bit for bit.
MOMENT_TOL = 1e-9


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


def assert_matches_oracle(run, oracle, exact):
    """``zeta`` and ``failed`` equal the oracle's; the (split, model) records
    marked in ``exact`` equal it bit for bit, and every other record lies
    within MOMENT_TOL of the oracle's half-width for that split."""
    zeta, ate, ci_lo, ci_hi, failed = oracle
    np.testing.assert_array_equal(run.zeta, zeta)
    np.testing.assert_array_equal(run.failed, failed)
    exact = np.broadcast_to(exact, failed.shape)
    close = ~exact & ~failed
    half = (ci_hi - ci_lo)[close] / 2
    for got, want in ((run.ate, ate), (run.ci_lo, ci_lo), (run.ci_hi, ci_hi)):
        np.testing.assert_array_equal(got[exact], want[exact])
        assert np.all(np.abs(got[close] - want[close]) <= MOMENT_TOL * half)


def test_arm_block_splits_are_bit_identical_to_per_split_datasets():
    """Every split the audit fits from rows equals one estimate on a rebuilt
    dataset bit for bit; the moment-form dim and ols@pre agree within
    MOMENT_TOL. The constant column sends every ols split back to its rows."""
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
    oracle = per_split_reference(data, 1, models, 12, 0.1, 12)
    assert run.n_units == 61
    exact = np.isin(models, ["dim", "ols@pre"], invert=True)
    assert_matches_oracle(run, oracle, exact)
    failed = oracle[4]
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
    metrics = bucket_metrics(run)
    assert metrics.mse[0, 0] == 0.0
    assert metrics.median_dist[0, 0] == 0.0
    assert metrics.excess_frac[0, 0] == 0.0
    assert metrics.coverage[0, 0] == 1.0


def test_bucket_metrics_one_sided_extreme():
    run = make_run([0.1, 0.2, 0.3], [1.0, 2.0, 3.0])
    metrics = bucket_metrics(run)
    assert metrics.excess_frac[0, 0] == 1.0


def test_bucket_metrics_two_point_hand_computation():
    run = make_run([0.1, 0.2], [-1.0, 1.0])
    metrics = bucket_metrics(run)
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
    metrics = bucket_metrics(replace(run, kappa=2))
    assert np.isnan(metrics.r_mse[:, 1]).all()


def test_kappa_bounds():
    run = synthetic_run(s=10)
    with pytest.raises(ValidationError, match="kappa"):
        bucket_metrics(replace(run, kappa=11))


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


def test_programming_error_in_a_fit_propagates(moment_solve_has_a_bug):
    # well-conditioned data: dim and ols take the moment path
    data = generate(SyntheticConfig(n_units=200, k_covariates=2, outcome_cor=0.6, seed=2))
    with pytest.raises(TypeError, match="bug inside"):
        run_aa(data, arm=0, models=["dim", "ols"], s_splits=3, seed=2)


def test_programming_error_on_the_row_path_propagates(ols_fit_has_a_bug):
    # two_step has no moment form, so its ols fits run per split
    data = generate(SyntheticConfig(n_units=200, k_covariates=2, outcome_cor=0.6, seed=2))
    with pytest.raises(TypeError, match="bug inside"):
        run_aa(data, arm=0, models=["dim", "two_step:ols"], s_splits=3, seed=2)


# --- moment-form splits against the row path --------------------------------

def gaussian_arm(seed, n, k, rho, r2, offset):
    """Outcome and K equicorrelated columns (correlation rho) at random
    scales and offsets up to ``offset`` sds; the outcome has R^2 = r2 on
    them in the population."""
    rng = np.random.default_rng(seed)
    cov = np.full((k, k), rho) + (1.0 - rho) * np.eye(k)
    z = rng.standard_normal((n, k)) @ np.linalg.cholesky(cov).T
    signal = z @ rng.standard_normal(k)
    y = np.sqrt(r2) * signal / signal.std() + np.sqrt(1.0 - r2) * rng.standard_normal(n)
    sd = rng.uniform(0.1, 10.0, k)
    return 5.0 + 3.0 * y, z * sd + offset * sd * rng.uniform(-1.0, 1.0, k)


def affine_models(k, i, j):
    return ["dim", "ols", "ols@pre", "ols@" + ",".join(str(c) for c in sorted({i % k, j % k}))]


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 400), k=st.integers(1, 6),
       rho=st.floats(0.0, 0.999), r2=st.floats(0.0, 0.9999), offset=st.floats(0.0, 1e3),
       i=st.integers(0, 5), j=st.integers(0, 5))
def test_moment_splits_match_the_row_path(seed, n, k, rho, r2, offset, i, j):
    y, z = gaussian_arm(seed, n, k, rho, r2, offset)
    data = one_arm_dataset(y, z)
    models = affine_models(k, i, j)
    run = run_aa(data, arm=0, models=models, s_splits=6, seed=seed, kappa=2)
    assert_matches_oracle(run, per_split_reference(data, 0, models, 6, 0.05, seed), False)


DEGENERACIES = ("constant_column", "duplicated_column", "binary_constant_in_halves",
                "outcome_is_a_column", "constant_outcome", "k_at_least_half")


@settings(max_examples=150)
@given(case=st.sampled_from(DEGENERACIES), seed=st.integers(0, 2**32 - 1),
       n=st.integers(8, 400), k=st.integers(2, 6), c=st.integers(0, 5))
def test_degenerate_splits_take_the_row_path(case, seed, n, k, c):
    """Splits the moments cannot certify are fitted from rows and equal the
    row path bit for bit; the other records stay within MOMENT_TOL."""
    c %= k
    y, z = gaussian_arm(seed, n, k, 0.5, 0.5, 1.0)
    models = ["dim", "ols", f"ols@{c},{(c + 1) % k}", "ols@pre"]
    uses_c = np.array([False, True, True, c == 0])
    s_splits = 6
    exact = np.zeros((s_splits, len(models)), dtype=bool)
    if case == "constant_column":
        z[:, c] = 3.0
        exact[:] = uses_c
    elif case == "duplicated_column":
        z[:, c] = z[:, (c + 1) % k]
        exact[:, :3] = uses_c[:3]
    elif case == "binary_constant_in_halves":
        z[:, c] = 0.0
        z[:2, c] = 1.0  # constant in a half whenever rows 0 and 1 share a half
        for s in range(s_splits):
            treated = child_rng(seed, s).permutation(n)[: n // 2]
            if np.isin([0, 1], treated).sum() != 1:
                exact[s] = uses_c
    elif case == "outcome_is_a_column":
        y = z[:, c].copy()
        exact[:] = uses_c
    elif case == "constant_outcome":
        y[:] = 4.2
        exact[:] = True
    else:  # as many columns as units in a half
        y, z = y[: 2 * k], z[: 2 * k]
        exact[:, 1] = True
    data = one_arm_dataset(y, z)
    run = run_aa(data, arm=0, models=models, s_splits=s_splits, seed=seed, kappa=2)
    assert_matches_oracle(run, per_split_reference(data, 0, models, s_splits, 0.05, seed),
                          exact)


def test_column_subset_out_of_range_fails_every_split():
    y, z = gaussian_arm(1, 50, 3, 0.3, 0.5, 0.0)
    data = one_arm_dataset(y, z)
    run = run_aa(data, arm=0, models=["dim", "ols@7"], s_splits=6, seed=1)
    assert run.failed[:, 1].all() and not run.failed[:, 0].any()
    assert_matches_oracle(run, per_split_reference(data, 0, ["dim", "ols@7"], 6, 0.05, 1),
                          np.array([False, True]))


def test_affine_models_skip_the_row_path_on_well_conditioned_data(monkeypatch):
    calls = []
    real = aa.estimate_specs

    def counting(arms, specs, *args):
        calls.extend(spec.name for spec in specs)
        return real(arms, specs, *args)

    monkeypatch.setattr(aa, "estimate_specs", counting)
    y, z = gaussian_arm(4, 400, 3, 0.3, 0.5, 10.0)
    models = ["dim", "ols", "ols@pre"]
    run_aa(one_arm_dataset(y, z), arm=0, models=models, s_splits=40, seed=4)
    assert calls == []
    z = z.copy()
    z[:, 2] = 1.5  # a column constant over the arm: every ols split goes to its rows
    run_aa(one_arm_dataset(y, z), arm=0, models=models, s_splits=40, seed=4)
    assert calls == ["ols"] * 40
