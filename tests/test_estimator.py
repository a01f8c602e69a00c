import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gobe import (
    ExperimentData,
    ModelSpec,
    SyntheticConfig,
    ValidationError,
    estimate,
    fit_arm_models,
    generate,
    impute,
    parse_model,
    variance_reduction,
)
from gobe import aa, estimator, regression
from gobe.dataset import with_assignment
from gobe.errors import MODEL_FAILURES
from gobe.estimator import z_for_alpha
from gobe.regression import fit, lasso_gamma_max, predict

from oracles import dim_ate, exact_ols_ate, lin_interacted_ate, z_quantile


def dataset(y, j, z, pre_col=0):
    y = np.asarray(y, float)
    return ExperimentData(
        unit_ids=np.arange(len(y)), assignment=np.asarray(j),
        outcome=y, covariates=np.atleast_2d(np.asarray(z, float).T).T.reshape(len(y), -1),
        pre_period_col=pre_col,
    )


def noiseless_linear(n=60, tau=0.5, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    j = (rng.random(n) < 0.5).astype(np.int8)
    y = 1.0 + 2.0 * x + tau * j
    return dataset(y, j, x[:, None]), x, j


# --- impute -------------------------------------------------------------------

def test_imputed_observed_branch_is_bitwise():
    data = dataset([1.0, 2.0, 7.0, 4.0], [0, 0, 1, 1], np.zeros((4, 1)))
    models = fit_arm_models(data, ModelSpec("ols"))
    mat = impute(data, models)
    assert mat[2, 1] == 7.0
    np.testing.assert_array_equal(mat[data.assignment == 1, 1],
                                  data.outcome[data.assignment == 1])
    np.testing.assert_array_equal(mat[data.assignment == 0, 0],
                                  data.outcome[data.assignment == 0])


def test_dim_imputes_group_means():
    data = dataset([1.0, 3.0, 5.0, 5.0], [0, 0, 1, 1], np.zeros((4, 1)))
    mat = impute(data, fit_arm_models(data, ModelSpec("dim")))
    assert mat[0, 1] == 5.0  # arm-0 unit gets the arm-1 mean
    assert mat[2, 0] == 2.0


def test_ols_imputes_true_counterfactual_on_noiseless_data():
    data, x, j = noiseless_linear()
    mat = impute(data, fit_arm_models(data, ModelSpec("ols")))
    truth0 = 1.0 + 2.0 * x
    truth1 = truth0 + 0.5
    assert np.max(np.abs(mat[:, 0] - truth0)) < 1e-10
    assert np.max(np.abs(mat[:, 1] - truth1)) < 1e-10


def test_impute_detects_model_data_mismatch():
    data = dataset([1.0, 2.0, 3.0, 4.0], [0, 0, 1, 1], np.zeros((4, 1)))
    other = dataset([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [0, 0, 0, 1, 1, 1], np.zeros((6, 1)))
    models = fit_arm_models(other, ModelSpec("dim"))
    with pytest.raises(ValidationError, match="fitted on"):
        impute(data, models)


# --- estimate ------------------------------------------------------------------

def test_dim_closed_form_small_example():
    data = dataset([1.0, 2.0, 3.0, 4.0, 6.0], [0, 0, 0, 1, 1], np.zeros((5, 1)))
    est = estimate(data, "dim")
    assert abs(est.ate - 3.0) < 1e-12
    assert est.n_per_arm == (3, 2)


def test_dim_matches_closed_form_on_random_data():
    for rep in range(100):
        rng = np.random.default_rng(rep)
        n = int(rng.integers(4, 40))
        j = np.zeros(n, dtype=np.int8)
        j[rng.permutation(n)[: n // 2]] = 1
        if j.sum() < 2 or (1 - j).sum() < 2:
            continue
        y = rng.standard_normal(n) * rng.uniform(0.5, 20)
        data = dataset(y, j, rng.standard_normal((n, 2)))
        est = estimate(data, "dim")
        assert abs(est.ate - dim_ate(y, j)) < 1e-12


def test_ols_noiseless_effect_and_variance():
    data, _, _ = noiseless_linear(tau=0.5)
    est = estimate(data, "ols")
    assert abs(est.ate - 0.5) < 1e-10
    assert est.variance < 1e-18


def test_ci_half_width_against_normal_oracle():
    # per-arm sample variances of exactly 4.0 with 100 units per arm
    d = math.sqrt(3.96)
    y0 = np.concatenate([np.full(50, -d), np.full(50, d)])
    y1 = y0 + 3.0
    y = np.concatenate([y0, y1])
    j = np.repeat([0, 1], 100)
    data = dataset(y, j, np.zeros((200, 1)))
    est = estimate(data, "dim", alpha=0.05)
    np.testing.assert_allclose(est.mse_per_arm, (4.0, 4.0), atol=1e-12)
    half = (est.ci[1] - est.ci[0]) / 2
    assert abs(half - 0.5543615297398711) < 1e-9
    assert abs(half - z_quantile(0.975) * math.sqrt(est.variance)) < 1e-12


def test_lin_equivalence_on_seeded_data():
    for seed in range(5):
        data = generate(SyntheticConfig(n_units=500, k_covariates=4,
                                        outcome_cor=0.6, true_ate=0.3, seed=seed))
        est = estimate(data, "ols")
        oracle = lin_interacted_ate(data.outcome, data.assignment, data.covariates)
        assert abs(est.ate - oracle) < 1e-8


def test_ci_properties():
    data = generate(SyntheticConfig(n_units=300, outcome_cor=0.5, seed=1))
    est = estimate(data, "ols", alpha=0.05)
    lo, hi = est.ci
    assert lo <= est.ate <= hi
    assert abs((est.ate - lo) - (hi - est.ate)) < 1e-12
    widths = [estimate(data, "ols", alpha=a).ci for a in (0.01, 0.05, 0.10)]
    half = [(hi - lo) / 2 for lo, hi in widths]
    assert half[0] > half[1] > half[2]


INVARIANT_MODELS = ("dim", "ols", "ols@pre", "ridge", "lasso", "elastic_net:0.5", "pcr",
                    "two_step:ols")


def test_outcome_shift_leaves_ate_unchanged():
    data = generate(SyntheticConfig(n_units=400, k_covariates=3,
                                    outcome_cor=0.5, true_ate=0.2, seed=3))
    shifted = ExperimentData(
        unit_ids=data.unit_ids, assignment=data.assignment,
        outcome=data.outcome + 1000.0, covariates=data.covariates,
        pre_period_col=data.pre_period_col,
    )
    for name in INVARIANT_MODELS:
        a = estimate(data, name, seed=5)
        b = estimate(shifted, name, seed=5)
        assert abs(a.ate - b.ate) < 1e-10, name
        assert abs(a.variance - b.variance) <= 1e-9 * a.variance, name


@settings(max_examples=12)
@given(log_scale=st.floats(-3.0, 3.0), sign=st.sampled_from([-1.0, 1.0]),
       offset=st.floats(-100.0, 100.0), col=st.integers(0, 2))
def test_covariate_affine_map_leaves_estimates_unchanged(log_scale, sign, offset, col):
    # z -> a*z + b with |b| <= 100*|a|, so the mapped column keeps all but
    # about two of z's significant digits and every fit sees the same data.
    data = generate(SyntheticConfig(n_units=400, k_covariates=3,
                                    outcome_cor=0.5, true_ate=0.2, seed=3))
    a = sign * 10.0 ** log_scale
    z = data.covariates.copy()
    z[:, col] = a * z[:, col] + a * offset
    mapped = replace(data, covariates=z)
    for name in INVARIANT_MODELS:
        want = estimate(data, name, seed=5)
        got = estimate(mapped, name, seed=5)
        assert abs(got.ate - want.ate) <= 1e-9 * abs(want.ate), name
        assert abs(got.variance - want.variance) <= 1e-9 * want.variance, name


def test_swapping_arm_labels_negates_ate():
    data = generate(SyntheticConfig(n_units=400, k_covariates=3,
                                    outcome_cor=0.5, true_ate=0.2, seed=4))
    swapped = with_assignment(data, np.asarray(1 - data.assignment, dtype=np.int8))
    for name in ("dim", "ols", "ridge", "lasso", "elastic_net:0.3", "pcr",
                 "two_step:ols"):
        a = estimate(data, name, seed=6)
        b = estimate(swapped, name, seed=6)
        assert abs(a.ate + b.ate) < 1e-10, name
        assert abs(a.variance - b.variance) < 1e-18, name


def test_lift_uses_observed_control_mean():
    data = dataset([2.0, 2.0, 3.0, 3.0], [0, 0, 1, 1], np.zeros((4, 1)))
    est = estimate(data, "dim")
    assert est.control_mean == 2.0
    assert est.lift == pytest.approx(0.5)
    assert est.lift_ci == (pytest.approx(est.ci[0] / 2.0), pytest.approx(est.ci[1] / 2.0))


def test_lift_undefined_when_control_mean_zero():
    data = dataset([-1.0, 1.0, 3.0, 5.0], [0, 0, 1, 1], np.zeros((4, 1)))
    est = estimate(data, "dim")
    assert est.lift is None
    assert est.lift_ci is None
    assert "lift_undefined" in est.flags


def test_singleton_arm_is_rejected():
    data = dataset([1.0, 2.0, 3.0], [0, 0, 1], np.zeros((3, 1)))
    with pytest.raises(ValidationError, match=">= 2 units"):
        estimate(data, "dim")


def test_bad_alpha_rejected():
    data = dataset([1.0, 2.0, 3.0, 4.0], [0, 0, 1, 1], np.zeros((4, 1)))
    with pytest.raises(ValidationError, match="alpha"):
        estimate(data, "dim", alpha=1.0)


# --- two-step -------------------------------------------------------------------

def test_two_step_of_dim_equals_dim():
    data = generate(SyntheticConfig(n_units=500, k_covariates=2,
                                    outcome_cor=0.5, true_ate=0.4, seed=7))
    a = estimate(data, "dim")
    b = estimate(data, "two_step:dim")
    assert abs(a.ate - b.ate) < 1e-10
    assert b.model_id == "two_step:dim"


def test_two_step_of_ols_matches_ols():
    data = generate(SyntheticConfig(n_units=800, k_covariates=3,
                                    outcome_cor=0.7, true_ate=0.4, seed=8))
    a = estimate(data, "ols")
    b = estimate(data, "two_step:ols")
    assert abs(a.ate - b.ate) < 1e-8


def test_two_step_of_saturated_lasso_equals_dim():
    data = generate(SyntheticConfig(n_units=300, k_covariates=3,
                                    outcome_cor=0.5, true_ate=0.4, seed=9))
    gammas = []
    for t in (0, 1):
        mask = data.arm_mask(t)
        gammas.append(lasso_gamma_max(data.outcome[mask], data.covariates[mask]))
    spec = ModelSpec("two_step", base=ModelSpec("lasso", hyper_grid=(max(gammas) * 1.01,)))
    a = estimate(data, "dim")
    b = estimate(data, spec)
    assert abs(a.ate - b.ate) < 1e-10


def test_two_step_rejects_non_finite_base_predictions(monkeypatch):
    # only a log-link base is evaluated on rows
    data = generate(SyntheticConfig(n_units=100, k_covariates=2, seed=10))
    data = replace(data, outcome=np.exp(data.outcome))
    real_evaluate = estimator.evaluate

    def evaluate(model, z, rows):
        if model.spec.kind == "tweedie":
            return np.full(rows.size, np.inf)
        return real_evaluate(model, z, rows)

    monkeypatch.setattr(estimator, "evaluate", evaluate)
    with pytest.raises(ValidationError, match="non-finite"):
        estimate(data, "two_step:tweedie")


def test_two_step_cannot_nest():
    with pytest.raises(ValidationError, match="nested"):
        ModelSpec("two_step", base=ModelSpec("two_step", base=ModelSpec("ols")))


@pytest.mark.parametrize("base", ["ols", "lasso"])
def test_two_step_reports_its_base_fits_flags(base):
    data = generate(SyntheticConfig(n_units=400, k_covariates=2, outcome_cor=0.5, seed=11))
    data = replace(data, covariates=np.column_stack([data.covariates, np.ones(400)]))
    dropped = ("arm0:dropped_zero_variance", "arm1:dropped_zero_variance")
    assert estimate(data, base).flags == dropped
    assert estimate(data, f"two_step:{base}").flags == (
        "arm0:base:dropped_zero_variance", "arm1:base:dropped_zero_variance")


# --- variance reduction ----------------------------------------------------------

def test_variance_reduction_of_baseline_is_zero():
    data = generate(SyntheticConfig(n_units=200, outcome_cor=0.5, seed=11))
    dim = estimate(data, "dim")
    assert variance_reduction(dim, dim) == 0.0


def test_variance_reduction_arithmetic():
    data = generate(SyntheticConfig(n_units=200, outcome_cor=0.5, seed=12))
    dim = estimate(data, "dim")
    fake = type(dim)(**{**vars(dim), "variance": 0.36 * dim.variance})
    assert variance_reduction(fake, dim) == pytest.approx(64.0)


def test_variance_reduction_close_to_theory():
    # one standardized linear covariate at corr rho: residual variance is
    # (1 - rho^2) of the outcome variance, so the reduction tends to 100*rho^2
    data = generate(SyntheticConfig(n_units=10**5, k_covariates=1,
                                    outcome_cor=0.8, true_ate=0.0, seed=13))
    dim = estimate(data, "dim")
    ols = estimate(data, "ols")
    vr = variance_reduction(ols, dim)
    assert 59.0 <= vr <= 69.0


def test_variance_reduction_undefined_for_zero_baseline():
    data = dataset([1.0, 1.0, 2.0, 2.0], [0, 0, 1, 1], np.zeros((4, 1)))
    dim = estimate(data, "dim")
    assert dim.variance == 0.0
    assert variance_reduction(dim, dim) is None


# --- block assembly versus the N x 2 imputation -------------------------------

def imputation_reference(data, spec, alpha, seed):
    """(ate, mse_per_arm, ci, max abs entry) from an explicit N x 2 imputation.

    A projection base (``ols``, ``pcr``) fits y on its own least-squares
    projection with slope exactly 1, so its ``two_step`` reference is the
    base's own imputation; a regression on rounded base predictions would
    move the MSE in the last bits."""
    if spec.kind == "two_step" and spec.base.kind in ("ols", "pcr"):
        spec = spec.base
    if spec.kind == "two_step":
        base = fit_arm_models(data, spec.base, seed=seed)
        data = ExperimentData(
            unit_ids=data.unit_ids, assignment=data.assignment, outcome=data.outcome,
            covariates=np.column_stack([predict(m, data.covariates) for m in base]),
            pre_period_col=0,
        )
        models = tuple(fit(ModelSpec("ols", columns=(t,)), data.outcome[data.arm_mask(t)],
                           data.covariates[data.arm_mask(t)], seed=seed) for t in (0, 1))
    else:
        models = fit_arm_models(data, spec, seed=seed)
    mat = impute(data, models)
    ate = float(np.mean(mat[:, 1] - mat[:, 0]))
    mses = []
    for t in (0, 1):
        mask = data.arm_mask(t)
        resid = data.outcome[mask] - predict(models[t], data.covariates[mask])
        mses.append(float(resid @ resid / (mask.sum() - 1)))
    n0, n1 = data.arm_sizes()
    half = z_for_alpha(alpha) * math.sqrt(mses[1] / n1 + mses[0] / n0)
    return ate, mses, (ate - half, ate + half), float(np.max(np.abs(mat)))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(6, 50), k=st.integers(1, 4),
       n_constant=st.integers(0, 2),
       name=st.sampled_from(["dim", "ols", "ols@pre", "pcr", "ridge", "lasso",
                             "elastic_net:0.5", "two_step:ols", "tweedie",
                             "two_step:tweedie", "two_step:dim", "two_step:pcr",
                             "two_step:ridge", "two_step:lasso",
                             "two_step:elastic_net:0.5", "two_step:ols@pre"]))
@example(seed=2537526598, n=8, k=4, n_constant=2, name="two_step:ols@pre")
def test_block_assembly_matches_imputation_matrix(seed, n, k, n_constant, name):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, k)) * rng.uniform(0.1, 10.0, k)
    z[:, k - min(n_constant, k):] = rng.uniform(-3.0, 3.0)  # constant columns
    j = np.zeros(n, dtype=np.int8)
    j[rng.permutation(n)[: int(rng.integers(2, n - 1))]] = 1
    y = 2.0 + z @ rng.standard_normal(k) * 0.1 + rng.standard_normal(n)
    if "tweedie" in name:
        y = np.exp(y) * (rng.random(n) < 0.8)
    data = ExperimentData(unit_ids=np.arange(n), assignment=j, outcome=y, covariates=z,
                          pre_period_col=int(rng.integers(k)))
    spec = parse_model(name)
    try:
        ate, mses, ci, scale = imputation_reference(data, spec, 0.1, seed)
    except MODEL_FAILURES as exc:
        with pytest.raises(type(exc)):
            estimate(data, spec, alpha=0.1, seed=seed)
        return
    est = estimate(data, spec, alpha=0.1, seed=seed)
    tol = 1e-12 * max(scale, 1.0)
    assert abs(est.ate - ate) <= tol
    np.testing.assert_allclose(est.mse_per_arm, mses, rtol=1e-12,
                               atol=1e-24 * max(np.max(np.abs(y)), 1.0) ** 2)
    np.testing.assert_allclose(est.ci, ci, rtol=0, atol=tol)
    assert est.n_per_arm == data.arm_sizes()

    swapped = estimate(with_assignment(data, 1 - j), spec, alpha=0.1, seed=seed)
    assert abs(swapped.ate + est.ate) <= tol


@pytest.mark.parametrize("flat_arm", [0, 1])
def test_two_step_tweedie_with_one_intercept_only_arm_matches_imputation(flat_arm):
    """A covariate constant in one arm only leaves that arm's tweedie base
    an identity-link ``dim_fallback`` while the other arm keeps its log-link
    fit; either labelling matches the N x 2 reference and negates on a swap."""
    rng = np.random.default_rng(21)
    n = 120
    j = np.arange(n) % 2
    z = rng.standard_normal(n)
    z[j == flat_arm] = 0.5
    y = np.exp(1.0 + 0.4 * z + 0.3 * rng.standard_normal(n))
    data = dataset(y, j, z)
    spec = parse_model("two_step:tweedie")
    assert [m.link for m in fit_arm_models(data, spec.base)] == (
        ["identity", "log"] if flat_arm == 0 else ["log", "identity"])
    ate, mses, ci, scale = imputation_reference(data, spec, 0.1, 0)
    est = estimate(data, spec, alpha=0.1)
    tol = 1e-12 * max(scale, 1.0)
    assert abs(est.ate - ate) <= tol
    np.testing.assert_allclose(est.mse_per_arm, mses, rtol=1e-12)
    np.testing.assert_allclose(est.ci, ci, rtol=0, atol=tol)
    assert f"arm{1 - flat_arm}:dim_fallback" not in est.flags
    swapped = estimate(with_assignment(data, 1 - j), spec, alpha=0.1)
    assert abs(swapped.ate + est.ate) <= tol


@pytest.mark.parametrize("name, rows_evaluated", [
    *((prefix + name, 0) for prefix in ("", "two_step:")
      for name in ("dim", "ols", "ols@pre", "pcr", "ridge", "lasso", "elastic_net:0.5")),
    ("tweedie", 2),
    ("two_step:tweedie", 4),
])
def test_assembly_evaluates_rows_only_for_a_log_link(monkeypatch, name, rows_evaluated):
    """Identity-link pairs assemble from each fit's means, slopes and RSS,
    and ``two_step`` of an identity-link base calibrates from its fits; a
    log-link pair sums each model's predictions over the other arm, and its
    ``two_step`` evaluates both models on both arms."""
    data = generate(SyntheticConfig(n_units=400, k_covariates=3, outcome_cor=0.6, seed=14))
    data = replace(data, outcome=np.exp(data.outcome))
    calls = []
    real_evaluate = estimator.evaluate

    def evaluate(model, z, rows):
        calls.append(model.spec.name)
        return real_evaluate(model, z, rows)

    monkeypatch.setattr(estimator, "evaluate", evaluate)
    estimate(data, name)
    assert len(calls) == rows_evaluated


# --- accuracy against exact arithmetic ----------------------------------------

def offset_experiment(seed, n=658, k=4, rho=0.9, r2=0.9999):
    """K equicorrelated columns (correlation rho) at random scales, each
    offset by 1e3 of its sd, and an outcome at R^2 = r2 on them offset by 1e4."""
    rng = np.random.default_rng(seed)
    cov = np.full((k, k), rho) + (1.0 - rho) * np.eye(k)
    z = rng.standard_normal((n, k)) @ np.linalg.cholesky(cov).T
    signal = z @ rng.standard_normal(k)
    y = np.sqrt(r2) * signal / signal.std() + np.sqrt(1.0 - r2) * rng.standard_normal(n)
    sd = rng.uniform(0.1, 10.0, k)
    j = (rng.random(n) < 0.5).astype(np.int8)
    return dataset(1e4 + 3.0 * y, j, z * sd + 1e3 * sd * rng.choice([-1.0, 1.0], k))


@pytest.mark.parametrize("seed", range(12))
def test_ols_ate_at_large_offsets_matches_exact_arithmetic(seed, monkeypatch):
    # two_step:ols equals ols exactly: an arm's least-squares predictions
    # regress on themselves with slope 1 and intercept 0; each arm in one row
    # block, then in blocks of 64 rows
    data = offset_experiment(seed)
    exact = exact_ols_ate(data.outcome, data.assignment, data.covariates)
    for block_rows in (regression._BLOCK_ROWS, 64):
        monkeypatch.setattr(regression, "_BLOCK_ROWS", block_rows)
        for name in ("ols", "two_step:ols"):
            est = estimate(data, name)
            half_width = (est.ci[1] - est.ci[0]) / 2
            assert abs(float(Fraction(est.ate) - exact)) <= 1e-10 * half_width, (name, block_rows)


# --- one fit plan for many specs ----------------------------------------------

PLAN_POOL = [parse_model(name) for name in (
    "dim", "ols", "ridge", "lasso", "elastic_net:0.5", "elastic_net:0", "pcr", "tweedie",
    "two_step:ols", "two_step:lasso", "two_step:tweedie", "ols@pre", "lasso@pre", "ridge@0,2",
    "pcr@1,2", "ols@5",
)] + [
    ModelSpec("ridge", hyper_grid=(0.3,)),
    ModelSpec("lasso", hyper_grid=(0.05,), columns=(0, 1)),
    ModelSpec("elastic_net", mix=0.25, hyper_grid=(0.2, 0.01)),
    ModelSpec("pcr", n_components=2),
]
MODEL_FIELDS = ("intercept", "coefficients", "mean_parts", "sds", "used", "rss", "link",
                "centered", "chosen_gamma", "cv_scores", "n_components", "n_obs", "flags")


def assert_same_outcome(mixed, alone):
    """A fit plan's result for one spec, a model list or an estimate, equals
    the spec's own, or both are the same error."""
    if isinstance(alone, Exception):
        assert (type(mixed), str(mixed)) == (type(alone), str(alone))
    elif isinstance(alone, list):
        for a, b in zip(mixed, alone, strict=True):
            for name in MODEL_FIELDS:
                x, y = getattr(a, name), getattr(b, name)
                assert (np.array_equal(x, y) if isinstance(y, np.ndarray) else x == y), name
    else:
        assert mixed == alone


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), order=st.permutations(range(len(PLAN_POOL))),
       n_specs=st.integers(2, 12), sizes=st.tuples(st.sampled_from([4, 7, 40, 60]),
                                                  st.sampled_from([9, 60])),
       constant=st.sampled_from([None, 0, 1]), negative=st.booleans(), shared_seed=st.booleans())
def test_a_fit_plan_gives_each_spec_what_it_gets_alone(seed, order, n_specs, sizes, constant,
                                                       negative, shared_seed):
    # column subsets, @pre, one-gamma grids, two_step and tweedie in one mix,
    # with one seed or seeds that match for some specs only; CV on an arm
    # under 5 rows and tweedie on a negative outcome fail alone. The identity
    # holds at any sweep cap, so the test lowers it: a drawn lasso fold chain
    # on a near-singular Gram can run most of its gammas to the default cap
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(regression, "CD_MAX_SWEEPS", 200)
        rng = np.random.default_rng(seed)
        arms = []
        for t, n in enumerate(sizes):
            z = rng.standard_normal((n, 3)) * [1.0, 3.0, 0.5] + [0.0, 10.0, -2.0]
            if constant is not None and t <= constant:
                z[:, 1] = 2.5
            y = 0.5 + z @ [0.8, 0.1, -0.4] + rng.standard_normal(n)
            arms.append((y if negative else np.exp(y / 4.0), z, np.arange(n)))
        specs = [PLAN_POOL[i] for i in order[:n_specs]]
        seeds = ([7] * len(specs) if shared_seed
                 else [int(s) for s in rng.integers(1, 3, len(specs))])
        fitted = regression.fit_plan([s.base or s for s in specs], arms, seeds, 0)
        estimates = estimator.estimate_specs(arms, specs, 0, 0.05, seeds)
        for spec, s, models, est in zip(specs, seeds, fitted, estimates, strict=True):
            assert_same_outcome(models,
                                regression.fit_plan([spec.base or spec], arms, [s], 0)[0])
            assert_same_outcome(est, estimator.estimate_specs(arms, [spec], 0, 0.05, [s])[0])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), order=st.permutations(range(len(PLAN_POOL))),
       n_specs=st.integers(1, 5), block=st.sampled_from([8, 16]),
       blocks=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       offsets=st.tuples(st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0, 1])),
       layout=st.sampled_from(["interleaved", "aa", "view"]), constant=st.booleans())
def test_arms_read_in_place_fit_and_estimate_as_their_copies(seed, order, n_specs, block, blocks,
                                                             offsets, layout, constant):
    # an arm read in place (its outcomes and row indices into one table both
    # arms share) against its np.take copy: on interleaved arms, on A/A split
    # indices, and on the leading columns of a wider table, as stress fits
    # them; each arm a row block longer or shorter than a whole number of blocks
    rng = np.random.default_rng(seed)
    sizes = [b * block + d for b, d in zip(blocks, offsets)]
    n = sum(sizes)
    table = rng.standard_normal((n, 6)) * [1.0, 3.0, 0.5, 1, 1, 1] + [0.0, 10.0, -2.0, 0, 0, 0]
    if layout == "aa":
        arm_rows = aa._halves(n, seed, 3)
    else:
        assignment = rng.permutation(np.repeat([0, 1], sizes))
        arm_rows = tuple(np.flatnonzero(assignment == t) for t in (0, 1))
    if constant:  # a column constant over arm 0 only
        table[arm_rows[0], 1] = 2.5
    z = table[:, :3] if layout == "view" else np.ascontiguousarray(table[:, :3])
    y = np.exp((0.5 + z @ [0.8, 0.1, -0.4] + rng.standard_normal(n)) / 4.0)
    in_place = [(np.take(y, rows), z, rows) for rows in arm_rows]
    copies = [(np.take(y, rows), np.take(table if layout == "view" else z, rows, axis=0)[:, :3],
               np.arange(rows.size)) for rows in arm_rows]
    specs = [PLAN_POOL[i] for i in order[:n_specs]]
    seeds = [int(s) for s in rng.integers(1, 3, len(specs))]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(regression, "_BLOCK_ROWS", block)
        bases = [s.base or s for s in specs]
        for mixed, alone in zip(regression.fit_plan(bases, in_place, seeds, 0),
                                regression.fit_plan(bases, copies, seeds, 0), strict=True):
            assert_same_outcome(mixed, alone)
        for mixed, alone in zip(estimator.estimate_specs(in_place, specs, 0, 0.05, seeds),
                                estimator.estimate_specs(copies, specs, 0, 0.05, seeds),
                                strict=True):
            assert_same_outcome(mixed, alone)


@pytest.mark.parametrize("name", ["ols", "lasso"])
def test_an_estimate_does_not_copy_the_covariate_table(name):
    # per row, the arms' outcome copies and row indices take 16 bytes, a fifth
    # of a 10-column table; an 8192-row block and its QR copy take a fixed
    # 1.6 MB; a copy of the arms' covariate rows would alone be the whole table
    n, k = 200_000, 10
    rng = np.random.default_rng(2)
    z = rng.standard_normal((n, k))
    data = ExperimentData(unit_ids=np.arange(n), assignment=(rng.random(n) < 0.5).astype(np.int8),
                          outcome=z[:, 0] + rng.standard_normal(n), covariates=z, pre_period_col=0)
    estimate(data, name, seed=1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        estimate(data, name, seed=1)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * z.nbytes


def test_a_failing_spec_leaves_the_others_of_its_plan_alone():
    rng = np.random.default_rng(3)
    arms = [(rng.standard_normal(n) - 0.2, rng.standard_normal((n, 2)), np.arange(n))
            for n in (4, 30)]
    specs = [parse_model(name) for name in ("dim", "tweedie", "lasso", "ols", "ridge@0")]
    results = estimator.estimate_specs(arms, specs, 0, 0.05, [1] * len(specs))
    assert [type(r).__name__ for r in results] == [
        "AteEstimate", "ValidationError", "ValidationError", "AteEstimate", "ValidationError"]
    assert str(results[1]) == "tweedie requires non-negative outcomes"
    assert str(results[2]) == str(results[4]) == (
        "4 rows are too few for 5-fold cross-validation: an arm needs >= 5 rows")
    for spec, est in zip(specs, results):
        if not isinstance(est, Exception):
            assert [est] == estimator.estimate_specs(arms, [spec], 0, 0.05, [1])


def test_a_ridge_solve_that_fails_is_its_spec_error_alone():
    # a duplicated column makes ridge's Gram singular at a vanishing gamma;
    # the failed solve is ridge's value, and dim and ols get what they get alone
    rng = np.random.default_rng(3)
    arms = []
    for n in (40, 50):
        z = rng.standard_normal((n, 2))
        z = np.column_stack([z, z[:, 0]])
        arms.append((1.0 + z[:, 0] + rng.standard_normal(n), z, np.arange(n)))
    specs = [ModelSpec("dim"), ModelSpec("ridge", hyper_grid=(1e-300,)), ModelSpec("ols")]
    results = estimator.estimate_specs(arms, specs, 0, 0.05, [0, 0, 0])
    assert [type(r).__name__ for r in results] == ["AteEstimate", "LinAlgError", "AteEstimate"]
    for spec, est in zip(specs, results):
        assert_same_outcome(est, estimator.estimate_specs(arms, [spec], 0, 0.05, [0])[0])
