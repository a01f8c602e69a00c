import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gobe import ConvergenceError, ValidationError, regression
from gobe.regression import (
    FittedArmModel,
    ModelSpec,
    _coordinate_descent,
    cross_validate,
    fit,
    lasso_gamma_max,
    parse_model,
    predict,
)

from oracles import (
    coordinate_descent,
    coordinate_descent_path,
    penalized_objective,
    ridge_standardized,
    rowspace_cross_validate,
    rowspace_fit,
    rowspace_linear_fit,
)


def linear_arm(n=200, k=3, noise=1.0, seed=0):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, k))
    beta = np.arange(1, k + 1, dtype=float)
    y = 2.0 + z @ beta + noise * rng.standard_normal(n)
    return y, z


def slopes_in_raw_space(model):
    return model.coefficients / model.sds


# --- fit: basic contracts ---------------------------------------------------

def test_dim_is_arm_mean():
    model = fit(ModelSpec("dim"), np.array([1.0, 2.0, 3.0]), np.zeros((3, 1)))
    assert model.intercept == 2.0
    assert not model.used.any()
    assert predict(model, np.array([123.0])) == 2.0


def test_ols_interpolates_exact_line():
    z = np.linspace(-2, 3, 10)[:, None]
    y = 3.0 + 2.0 * z[:, 0]
    model = fit(ModelSpec("ols"), y, z)
    pred = predict(model, z)
    assert np.max(np.abs(pred - y)) < 1e-10
    assert abs(predict(model, np.array([5.0])) - 13.0) < 1e-10


def test_huge_ridge_penalty_collapses_to_mean():
    y, z = linear_arm(seed=1)
    ols = fit(ModelSpec("ols"), y, z)
    ridge = fit(ModelSpec("ridge", hyper_grid=(1e6,)), y, z)
    assert np.all(np.abs(ridge.coefficients) < 1e-3 * np.abs(ols.coefficients).max())
    assert np.max(np.abs(predict(ridge, z) - y.mean())) < 1e-2
    np.testing.assert_allclose(ridge.coefficients[ridge.used],
                               ridge_standardized(y, z, 1e6), atol=1e-12)


def test_ridge_matches_closed_form_oracle():
    y, z = linear_arm(seed=2)
    for gamma in (0.01, 1.0, 50.0):
        model = fit(ModelSpec("ridge", hyper_grid=(gamma,)), y, z)
        np.testing.assert_allclose(model.coefficients[model.used],
                                   ridge_standardized(y, z, gamma), atol=1e-10)


def test_tiny_ridge_penalty_matches_ols():
    y, z = linear_arm(seed=3)
    ols = fit(ModelSpec("ols"), y, z)
    ridge = fit(ModelSpec("ridge", hyper_grid=(1e-10,)), y, z)
    assert np.max(np.abs(ridge.coefficients - ols.coefficients)) < 1e-6


@pytest.mark.parametrize("seed", [4, 19, 20])
@pytest.mark.parametrize("k,constant_col", [(1, False), (3, False), (7, True), (25, True)])
def test_lasso_zeroes_all_slopes_at_gamma_max(seed, k, constant_col):
    y, z = linear_arm(k=k, seed=seed)
    if constant_col:
        z[:, 1] = 2.5
    gmax = lasso_gamma_max(y, z)
    model = fit(ModelSpec("lasso", hyper_grid=(gmax,)), y, z)
    assert np.all(model.coefficients == 0.0)
    assert model.intercept == y.mean()
    # just below gamma_max at least one slope activates
    active = fit(ModelSpec("lasso", hyper_grid=(0.99 * gmax,)), y, z)
    assert np.any(active.coefficients != 0.0)


def test_elastic_net_endpoints_match_lasso_and_ridge():
    y, z = linear_arm(seed=5)
    gamma = 0.3
    lasso = fit(ModelSpec("lasso", hyper_grid=(gamma,)), y, z)
    en1 = fit(ModelSpec("elastic_net", mix=1.0, hyper_grid=(gamma,)), y, z)
    np.testing.assert_allclose(en1.coefficients, lasso.coefficients, atol=1e-12)
    ridge = fit(ModelSpec("ridge", hyper_grid=(gamma,)), y, z)
    en0 = fit(ModelSpec("elastic_net", mix=0.0, hyper_grid=(gamma,)), y, z)
    assert np.max(np.abs(en0.coefficients - ridge.coefficients)) < 1e-8


def test_pcr_with_all_components_equals_ols():
    y, z = linear_arm(seed=6)
    ols = fit(ModelSpec("ols"), y, z)
    pcr = fit(ModelSpec("pcr", n_components=z.shape[1]), y, z)
    assert pcr.n_components == z.shape[1]
    assert np.max(np.abs(predict(pcr, z) - predict(ols, z))) < 1e-8


def test_pcr_variance_threshold_drops_components():
    rng = np.random.default_rng(7)
    base = rng.standard_normal((300, 2))
    # third column nearly duplicates the first: 2 components carry ~all variance
    z = np.column_stack([base, base[:, 0] + 1e-3 * rng.standard_normal(300)])
    y = z @ np.array([1.0, 1.0, 1.0]) + rng.standard_normal(300)
    model = fit(ModelSpec("pcr"), y, z)
    assert model.n_components == 2


def test_coordinate_descent_objective_monotone():
    y, z = linear_arm(n=150, k=6, seed=8)
    zs = (z - z.mean(axis=0)) / z.std(axis=0)
    yc = y - y.mean()
    trace = []
    coordinate_descent(zs.T @ zs / len(y), zs.T @ yc / len(y), gamma=0.05, lam=0.7,
                       trace=trace)
    objs = [penalized_objective(zs, yc, w, 0.05, 0.7) for w in trace]
    diffs = np.diff(objs)
    assert np.all(diffs <= 1e-12)


def test_predictions_invariant_to_affine_column_rescaling():
    y, z = linear_arm(n=120, k=4, noise=0.5, seed=9)
    z_scaled = z.copy()
    z_scaled[:, 2] = 10.0 * z[:, 2] + 3.0
    specs = [
        ModelSpec("dim"),
        ModelSpec("ols"),
        ModelSpec("ridge", hyper_grid=(0.5,)),
        ModelSpec("lasso", hyper_grid=(0.05,)),
        ModelSpec("elastic_net", mix=0.4, hyper_grid=(0.1,)),
        ModelSpec("pcr"),
        ModelSpec("tweedie"),
    ]
    y_pos = y - y.min() + 1.0  # tweedie needs non-negative outcomes
    for spec in specs:
        target = y_pos if spec.kind == "tweedie" else y
        a = predict(fit(spec, target, z, seed=3), z)
        b = predict(fit(spec, target, z_scaled, seed=3), z_scaled)
        assert np.max(np.abs(np.asarray(a) - np.asarray(b))) < 1e-8, spec.kind


def test_zero_variance_columns_drop_to_dim():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    z = np.ones((4, 2))
    model = fit(ModelSpec("ols"), y, z)
    assert "dim_fallback" in model.flags
    assert model.intercept == y.mean()
    assert predict(model, z[0]) == y.mean()


def test_rank_deficient_design_is_flagged_not_fatal():
    rng = np.random.default_rng(10)
    z1 = rng.standard_normal(50)
    z = np.column_stack([z1, 2.0 * z1])  # perfectly collinear
    y = z1 + rng.standard_normal(50)
    model = fit(ModelSpec("ols"), y, z)
    assert "rank_deficient" in model.flags
    assert np.isfinite(predict(model, z)).all()


def test_a_column_constant_up_to_rounding_is_dropped():
    # 0.1 in every row has a row std of ~3e-17, not 0: constancy is decided
    # from the column's minimum and maximum instead
    rng = np.random.default_rng(22)
    z3 = rng.standard_normal((50, 3)) * np.array([1.0, 2.0, 3.0])
    y = z3.sum(axis=1) + rng.standard_normal(50)
    z = np.column_stack([z3, np.full(50, 0.1)])
    assert z[:, 3].std() > 0
    for name in ("ols", "pcr", "ridge", "lasso"):
        model = fit(parse_model(name), y, z, seed=0)
        assert "dropped_zero_variance" in model.flags, name
        assert model.used.tolist() == [True, True, True, False], name
    assert fit(ModelSpec("pcr"), y, z).n_components == fit(ModelSpec("pcr"), y, z3).n_components
    assert fit(ModelSpec("pcr"), y, z).n_components == 3


def test_ols_with_no_more_rows_than_columns_is_rank_deficient():
    # m rows have centered rank <= m - 1, so p >= m used columns cannot be full rank
    rng = np.random.default_rng(23)
    cases = [(4, 4)] + [(int(rng.integers(2, k + 1)), k) for k in rng.integers(2, 7, size=300)]
    for m, k in cases:
        z = rng.standard_normal((m, k)) * rng.uniform(0.1, 10.0, k) + rng.uniform(-1e3, 1e3, k)
        model = fit(ModelSpec("ols"), rng.standard_normal(m), z)
        assert model.used.sum() >= m
        assert "rank_deficient" in model.flags, (m, k)
        assert np.isfinite(predict(model, z)).all()


def test_ols_rank_uses_the_lstsq_cutoff_of_the_rows():
    # a near-duplicate whose singular value lies below eps * m * s_0 but far
    # above eps * (K + 1) * s_0: the cutoff scales with the rows, not the triangle
    rng = np.random.default_rng(25)
    z0 = rng.standard_normal(2000)
    z = np.column_stack([z0, z0 + 1e-13 * rng.standard_normal(2000)])
    y = z0 + rng.standard_normal(2000)
    assert fit(ModelSpec("ols"), y, z).flags == rowspace_linear_fit(y, z, "ols")[1] == (
        "rank_deficient",)


@st.composite
def linear_problems(draw):
    """Equicorrelated columns with offsets of up to 1e3 sds, optionally an
    exact duplicate and a constant column, and an ``n_components`` that may
    exceed the rank."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 6))
    m = draw(st.integers(k + 2, 300))
    rho = draw(st.floats(0.0, 0.999))
    common = rng.standard_normal((m, 1))
    sd = rng.uniform(0.1, 10.0, k)
    offset = draw(st.floats(0.0, 1e3)) * sd * rng.choice([-1.0, 1.0], k)
    z = (np.sqrt(rho) * common + np.sqrt(1.0 - rho) * rng.standard_normal((m, k))) * sd + offset
    y = 1.0 + z @ (rng.standard_normal(k) / sd) + draw(st.sampled_from([1e-3, 1.0])) * (
        rng.standard_normal(m))
    extra = []
    if draw(st.booleans()):
        extra.append(z[:, 0])
    if draw(st.booleans()):
        extra.append(np.full(m, 0.1))
    z = np.column_stack([z, *extra])
    return y, z, draw(st.one_of(st.none(), st.integers(1, z.shape[1] + 1)))


@settings(max_examples=60)
@given(problem=linear_problems())
def test_ols_and_pcr_match_the_rowspace_reference(problem):
    y, z, n_components = problem
    keep = z.min(axis=0) != z.max(axis=0)
    for spec in (ModelSpec("ols"), ModelSpec("pcr"), ModelSpec("pcr", n_components=n_components)):
        model = fit(spec, y, z)
        w, flags, n_comp = rowspace_linear_fit(y, z, spec.kind, spec.n_components)
        assert model.flags == flags, spec
        assert model.n_components == n_comp, spec
        np.testing.assert_allclose(model.coefficients[keep], w, rtol=0,
                                   atol=1e-10 * max(1.0, np.abs(w).max()))
        assert not model.coefficients[~keep].any()


def test_linear_kinds_never_solve_on_the_rows(monkeypatch):
    # every linear kind reads the arm's QR triangle; lstsq or an SVD on a
    # matrix taller than K + 2 would be a row-space solve
    rng = np.random.default_rng(24)
    m, k = 20_000, 4
    z = rng.standard_normal((m, k)) * np.array([1.0, 3.0, 0.5, 2.0]) + 5.0
    y = z @ np.array([0.5, -1.0, 2.0, 0.0]) + rng.standard_normal(m)

    def small_only(solver):
        def checked(a, *args, **kwargs):
            if np.shape(a)[0] > k + 2:
                raise AssertionError(f"{solver.__name__} on a {np.shape(a)} matrix")
            return solver(a, *args, **kwargs)
        return checked

    monkeypatch.setattr(np.linalg, "lstsq", small_only(np.linalg.lstsq))
    monkeypatch.setattr(np.linalg, "svd", small_only(np.linalg.svd))
    for name in ("ols", "pcr", "ridge", "lasso", "elastic_net:0.5"):
        model = fit(parse_model(name), y, z, seed=1)
        assert model.used.all(), name


# --- cross-validation -------------------------------------------------------

def test_single_point_grid_skips_scoring():
    y, z = linear_arm(seed=11)
    model = fit(ModelSpec("ridge", hyper_grid=(2.5,)), y, z, seed=0)
    assert model.chosen_gamma == 2.5
    assert model.cv_scores is None


def test_cv_prefers_heavy_shrinkage_on_noise():
    wins = 0
    for rep in range(100):
        rng = np.random.default_rng(1000 + rep)
        z = rng.standard_normal((200, 5))
        y = rng.standard_normal(200)
        gamma, _ = cross_validate(ModelSpec("ridge", hyper_grid=(0.01, 100.0)),
                                  y, z, seed=rep)
        wins += gamma == 100.0
    assert wins >= 90


def test_cv_prefers_light_shrinkage_on_signal():
    wins = 0
    for rep in range(100):
        rng = np.random.default_rng(2000 + rep)
        z = rng.standard_normal((200, 5))
        y = z @ np.array([1.0, -2.0, 0.5, 3.0, 1.5]) + 2.0
        gamma, _ = cross_validate(ModelSpec("ridge", hyper_grid=(1e-6, 1e6)),
                                  y, z, seed=rep)
        wins += gamma == 1e-6
    assert wins >= 90


def test_cv_breaks_ties_toward_larger_gamma():
    # constant outcome: every gamma scores identically
    y = np.full(40, 3.0)
    z = np.random.default_rng(12).standard_normal((40, 2))
    gamma, scores = cross_validate(ModelSpec("ridge", hyper_grid=(0.1, 10.0)), y, z, seed=0)
    assert gamma == 10.0
    assert {g for g, _ in scores} == {0.1, 10.0}


def test_cv_needs_enough_rows():
    y, z = linear_arm(n=4, seed=13)
    with pytest.raises(ValidationError, match="fold"):
        cross_validate(ModelSpec("ridge", hyper_grid=(0.1, 1.0)), y, z, seed=0)


def test_an_arm_too_small_to_cross_validate_is_told_the_rows_it_needs():
    y, z = linear_arm(n=4, seed=13)
    with pytest.raises(ValidationError, match="an arm needs >= 5 rows") as info:
        fit(ModelSpec("lasso"), y, z)
    assert "fewer folds" not in str(info.value)


def test_cv_refits_on_full_data():
    y, z = linear_arm(seed=14)
    model = fit(ModelSpec("ridge", hyper_grid=(0.05, 5.0)), y, z, seed=7)
    direct = fit(ModelSpec("ridge", hyper_grid=(model.chosen_gamma,)), y, z)
    np.testing.assert_allclose(model.coefficients, direct.coefficients, atol=1e-12)


@pytest.mark.parametrize("name", ["ridge", "lasso", "elastic_net:0.5"])
def test_cross_validate_picks_the_default_grid_fit_picks(name):
    # both read the grid off the stacked fold triangles, so they agree bit for bit
    spec = parse_model(name)
    for seed in range(20):
        rng = np.random.default_rng([seed, 16])
        m, k = int(rng.integers(10, 200)), int(rng.integers(1, 6))
        sd = rng.uniform(0.1, 10.0, k)
        z = rng.standard_normal((m, k)) * sd + rng.choice([0.0, 1.0, 1e3], k) * sd
        y = 1.0 + z @ (rng.standard_normal(k) / sd) + rng.standard_normal(m)
        model = fit(spec, y, z, seed=seed)
        assert cross_validate(spec, y, z, seed=seed) == (model.chosen_gamma, model.cv_scores)


@pytest.mark.parametrize("name, beta", [
    ("lasso@0", [1.0, 0.0, 2.0]),
    ("ridge@0,2", [1.0, 3.0, 2.0]),
    ("elastic_net:0.5@1", [1.0, 0.0, 2.0]),
])
def test_cross_validate_reads_only_the_spec_columns(name, beta):
    # the strongest column lies outside the subset, so the subset's default grid
    # starts lower than the all-column grid
    rng = np.random.default_rng(0)
    z = rng.standard_normal((200, 3))
    y = z @ np.array(beta) + rng.standard_normal(200)
    spec = parse_model(name)
    model = fit(spec, y, z, seed=1)
    every_column = fit(ModelSpec(spec.kind, mix=spec.mix), y, z, seed=1)
    assert model.cv_scores[0][0] < every_column.cv_scores[0][0]
    assert cross_validate(spec, y, z, seed=1) == (model.chosen_gamma, model.cv_scores)


def test_cross_validate_needs_the_pre_period_column_for_a_pre_spec():
    y, z = linear_arm(seed=15)
    with pytest.raises(ValidationError, match="needs the dataset's pre-period column index"):
        cross_validate(parse_model("lasso@pre"), y, z, seed=0)


@pytest.mark.parametrize("spec, constant", [
    pytest.param(ModelSpec("ridge", hyper_grid=(1.0,)), False, id="spec-grid"),
    pytest.param(ModelSpec("elastic_net", mix=0.5, hyper_grid=(0.1, 1.0)), True,
                 id="constant-covariates"),
])
def test_cross_validate_refuses_a_fit_that_does_not_cross_validate(spec, constant):
    y, z = linear_arm(seed=16)
    if constant:
        z = np.full_like(z, 2.5)
    with pytest.raises(ValidationError, match="nothing to cross-validate"):
        cross_validate(spec, y, z, seed=0)


# --- Gram-form fits against the row-space reference ------------------------

_CV_SEED = 3
_L1_WEIGHTS = {"ridge": None, "lasso": 1.0, "elastic_net:0.25": 0.25, "elastic_net:0.5": 0.5}


@st.composite
def penalized_problems(draw):
    """An arm whose columns may include one that varies only on one CV fold's
    rows (so it is constant on that fold's training rows), an exact duplicate
    (collinear) column, a constant dyadic column and a constant 0.1 column
    (whose row std is 2.8e-17, not 0), with a grid of one or more gammas
    around gamma_max."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, k = draw(st.integers(12, 60)), draw(st.integers(1, 4))
    z = rng.standard_normal((m, k)) * rng.uniform(0.1, 10.0, k)
    y = 1.0 + z @ (rng.standard_normal(k) / z.std(axis=0)) + rng.standard_normal(m)
    extra = []
    if draw(st.booleans()):
        fold = np.array_split(np.random.default_rng(_CV_SEED).permutation(m), 5)[0]
        col = np.full(m, 0.5)
        col[fold] += rng.standard_normal(fold.size)
        extra.append(col)
    if draw(st.booleans()):
        extra.append(z[:, 0])
    if draw(st.booleans()):
        extra.append(np.full(m, -1.25))
    if draw(st.booleans()):
        extra.append(np.full(m, 0.1))
    z = np.column_stack([z, *extra])
    # gammas far above gamma_max zero every fold's lasso fit: CV scores tie there
    fractions = draw(st.lists(st.one_of(st.floats(0.05, 1.5), st.sampled_from([3.0, 6.0])),
                              min_size=1, max_size=4, unique=True))
    gmax = lasso_gamma_max(y, z)
    return y, z, tuple(f * gmax for f in fractions)


@settings(max_examples=30)
@given(problem=penalized_problems())
def test_gram_fits_match_the_rowspace_reference(problem):
    y, z, grid = problem
    constant = z.min(axis=0) == z.max(axis=0)
    for name, lam in _L1_WEIGHTS.items():
        spec = parse_model(name)
        model = fit(ModelSpec(spec.kind, mix=spec.mix, hyper_grid=grid), y, z, seed=_CV_SEED)
        gamma, scores, w, converged = rowspace_fit(y, z, grid, lam, seed=_CV_SEED)
        assert model.chosen_gamma == gamma, name
        flags = (("dropped_zero_variance",) if constant.any() else ()) + (
            () if converged else ("cd_max_sweeps",))
        assert model.flags == flags, name
        np.testing.assert_allclose(model.coefficients[~constant], w, rtol=0, atol=1e-10)
        assert not model.coefficients[constant].any()
        if len(grid) == 1:
            assert model.cv_scores is None
            continue
        assert [g for g, _ in model.cv_scores] == [g for g, _ in scores] == list(grid)
        np.testing.assert_allclose([s for _, s in model.cv_scores], [s for _, s in scores],
                                   rtol=1e-12, atol=1e-12)
        cv_gamma, cv_scores = cross_validate(model.spec, y, z, seed=_CV_SEED)
        ref_gamma, ref_scores = rowspace_cross_validate(y, z, grid, lam, seed=_CV_SEED)
        assert cv_gamma == ref_gamma
        assert [g for g, _ in cv_scores] == [g for g, _ in ref_scores]
        np.testing.assert_allclose([s for _, s in cv_scores], [s for _, s in ref_scores],
                                   rtol=1e-12, atol=1e-12)


_B = 16  # the row block size these tests set, so that small arms span blocks


@pytest.mark.parametrize("m", [_B - 1, _B, _B + 1, 2 * _B + 1, 5 * _B + 5])
def test_fits_on_arms_that_span_row_blocks_match_the_rowspace_references(m, monkeypatch):
    # the last arm's CV folds have B + 1 rows, so each fold spans two blocks too
    monkeypatch.setattr(regression, "_BLOCK_ROWS", _B)
    rng = np.random.default_rng(m)
    z = rng.standard_normal((m, 3)) * [1.0, 5.0, 0.2] + [0.0, 100.0, -3.0]
    # a column constant within each row block but not across them, and one
    # constant on the whole arm
    z = np.column_stack([z, np.arange(m) // _B * 0.5, np.full(m, 0.1)])
    y = 1.0 + z[:, :3] @ [0.5, -0.1, 2.0] + 0.3 * z[:, 3] + rng.standard_normal(m)
    keep = z.min(axis=0) != z.max(axis=0)
    assert keep.tolist() == [True, True, True, m > _B, False]
    for kind in ("ols", "pcr"):
        model = fit(ModelSpec(kind), y, z)
        w, flags, n_components = rowspace_linear_fit(y, z, kind)
        assert (model.flags, model.n_components) == (flags, n_components), kind
        assert "dropped_zero_variance" in model.flags
        np.testing.assert_allclose(model.coefficients[keep], w, rtol=0,
                                   atol=1e-10 * max(1.0, np.abs(w).max()))
    grid = tuple(f * lasso_gamma_max(y, z) for f in (0.05, 0.3, 1.2))
    for name, lam in _L1_WEIGHTS.items():
        spec = parse_model(name)
        model = fit(ModelSpec(spec.kind, mix=spec.mix, hyper_grid=grid), y, z, seed=_CV_SEED)
        gamma, scores, w, _ = rowspace_fit(y, z, grid, lam, seed=_CV_SEED)
        assert model.chosen_gamma == gamma, name
        np.testing.assert_allclose(model.coefficients[keep], w, rtol=0, atol=1e-10)
        np.testing.assert_allclose([s for _, s in model.cv_scores], [s for _, s in scores],
                                   rtol=1e-12, atol=1e-12)
    # tweedie's IRLS steps and predictions, block by block and in one block
    positive = np.exp(0.2 * z[:, 0] + 0.5 * rng.standard_normal(m))
    blocked = fit(ModelSpec("tweedie"), positive, z)
    monkeypatch.setattr(regression, "_BLOCK_ROWS", m)
    whole = fit(ModelSpec("tweedie"), positive, z)
    np.testing.assert_allclose(blocked.coefficients, whole.coefficients, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(regression.evaluate(blocked, z), regression.evaluate(whole, z),
                               rtol=1e-9)


@pytest.mark.parametrize("row", [0, 9, 18, 27, 36])
@pytest.mark.parametrize("name", ["ridge", "lasso", "elastic_net:0.5"])
def test_a_column_with_one_odd_value_varies_whichever_fold_holds_it(name, row):
    # a plan whose fits all cross-validate reads which columns vary off the
    # folds, and gets the model that a plan reducing the whole arm gets
    y, z = linear_arm(n=40, k=3, seed=5)
    z[:, 2] = 0.0
    z[row, 2] = 1.0
    block = [(y, z, np.arange(40))]
    spec = parse_model(name)
    [[alone]] = regression.fit_plan([spec], block, [2])
    [_, [with_ols]] = regression.fit_plan([ModelSpec("ols"), spec], block, [1, 2])
    assert alone.used.all() and not alone.flags
    for field in ("coefficients", "sds", "mean_parts", "centered"):
        assert np.array_equal(getattr(alone, field), getattr(with_ols, field)), field
    assert (alone.rss, alone.chosen_gamma, alone.cv_scores) == (
        with_ols.rss, with_ols.chosen_gamma, with_ols.cv_scores)


def test_a_shift_far_from_the_arm_mean_keeps_the_fits_and_the_means(monkeypatch):
    # the shift is the first row block's column means; an arm sorted by a
    # covariate offset by 1e6 puts that block's mean of it over a sd below
    # the arm's, so every fit reads rows shifted off their means
    monkeypatch.setattr(regression, "_BLOCK_ROWS", 64)
    rng = np.random.default_rng(12)
    m = 5 * 64 + 7
    z = rng.standard_normal((m, 3)) * [1e3, 5.0, 0.2] + [1e6, 100.0, -3.0]
    z = z[np.argsort(z[:, 0])]
    y = 1.0 + z @ [2e-3, -0.1, 2.0] + rng.standard_normal(m)
    head = np.array([np.mean(c) for c in z[:64].T.copy()])  # numpy's pairwise sums
    assert (z.mean(axis=0)[0] - head[0]) / z[:, 0].std() > 1.0
    # the means the two parts give are the arm's, to within a few of their ulps
    means = np.append([math.fsum(c) / m for c in z.T], math.fsum(y) / m)
    for kind in ("ols", "pcr"):
        model = fit(ModelSpec(kind), y, z)
        np.testing.assert_array_equal(model.mean_parts[0], np.append(head, y.mean()))
        assert (np.abs(model.mean_parts.sum(axis=0) - means)
                <= 4 * np.spacing(np.abs(means))).all(), kind
        w, flags, n_components = rowspace_linear_fit(y, z, kind)
        assert (model.flags, model.n_components) == (flags, n_components), kind
        np.testing.assert_allclose(model.coefficients, w, rtol=0,
                                   atol=1e-10 * max(1.0, np.abs(w).max()))
    grid = tuple(f * lasso_gamma_max(y, z) for f in (0.05, 0.3, 1.2))
    for name, lam in _L1_WEIGHTS.items():
        spec = parse_model(name)
        model = fit(ModelSpec(spec.kind, mix=spec.mix, hyper_grid=grid), y, z, seed=_CV_SEED)
        gamma, scores, w, _ = rowspace_fit(y, z, grid, lam, seed=_CV_SEED)
        assert model.chosen_gamma == gamma, name
        np.testing.assert_allclose(model.coefficients, w, rtol=0, atol=1e-10)
        np.testing.assert_allclose([s for _, s in model.cv_scores], [s for _, s in scores],
                                   rtol=1e-12, atol=1e-12)
    # tweedie, shifted by the first block and by the arm's means in one block
    positive = np.exp(0.2 * (z[:, 1] - 100.0) / 5.0 + 0.5 * rng.standard_normal(m))
    blocked = fit(ModelSpec("tweedie"), positive, z)
    monkeypatch.setattr(regression, "_BLOCK_ROWS", m)
    whole = fit(ModelSpec("tweedie"), positive, z)
    np.testing.assert_allclose(blocked.coefficients, whole.coefficients, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(regression.evaluate(blocked, z), regression.evaluate(whole, z),
                               rtol=1e-9)


# --- the lock-step coordinate-descent kernel ---------------------------------

@st.composite
def cd_batches(draw):
    """Chains for the lock-step kernel and a sweep cap. Each of 1-12 chains
    holds the moments of standardized rows, a gamma path of 1 or 50 points
    from gamma_max down, and its own l1 share: lasso's 1, elastic-net's 0.5
    or 0.25, or 0, so one batch mixes the penalized kinds.

    A chain has 0-30 columns, and may carry an exact duplicate, a near
    duplicate or a near-constant column; a duplicate under an l2 term takes
    sweeps up to the cap, which is sometimes low enough to stop chains at
    most gammas. Or the chain is stress-like: 1-5 real columns that carry
    the outcome and 1, 3 or 5 blocks of pure-noise columns like them, on
    many more rows, so most coordinates stay zero for much of the path and
    the padding of narrower chains sits inside those zero runs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    chains = []
    lams = st.sampled_from([1.0, 0.5, 0.25, 0.0])
    noise_blocks = st.sampled_from([0, 0, 1, 3, 5])
    for p, lam, blocks in draw(st.lists(st.tuples(st.integers(0, 30), lams, noise_blocks),
                                        min_size=1, max_size=12)):
        if blocks:
            k = p % 5 + 1
            m = int(rng.integers(200, 2001))
            z = rng.standard_normal((m, k * (1 + blocks)))
            y = z[:, :k] @ rng.standard_normal(k) + rng.standard_normal(m)
        else:
            m = int(rng.integers(2 * p + 10, 4 * p + 21))
            z = rng.standard_normal((m, p))
            duplicate, near, constant = rng.random(3) < 0.3
            if p >= 2 and duplicate:
                z[:, 1] = z[:, 0]
            if p >= 3 and near:
                z[:, 2] = z[:, 0] + 0.3 * rng.standard_normal(m)
            if p >= 4 and constant:
                z[:, 3] = 0.1 + 1e-9 * rng.standard_normal(m)
            y = z[:, :3] @ rng.standard_normal(min(p, 3)) + rng.standard_normal(m)
        zs = (z - z.mean(axis=0)) / z.std(axis=0)
        gram, c = zs.T @ zs / m, zs.T @ (y - y.mean()) / m
        gmax = float(np.abs(c).max()) if c.size else 1.0
        gammas = list(np.geomspace(gmax, 1e-4 * gmax, rng.choice([1, 50])))
        chains.append((gram, c, gammas, lam))
    return chains, draw(st.sampled_from([2, 30]))


def assert_serial_descent(chains):
    """Each chain's path and flags are the serial descent's, bit for bit. At
    lam > 0 the sign of every zero is too: the soft threshold writes +0, and
    ``np.array_equal`` alone would not see a -0."""
    paths = _coordinate_descent(chains)
    for (gram, c, gammas, lam), (path, converged) in zip(chains, paths, strict=True):
        ref_path, ref_converged = coordinate_descent_path(gram, c, gammas, lam)
        assert np.array_equal(path, ref_path)
        assert np.array_equal(converged, ref_converged)
        if lam > 0:
            assert np.array_equal(np.signbit(path), np.signbit(ref_path))
    return paths


@settings(max_examples=25)
@given(batch=cd_batches())
def test_lock_step_kernel_is_the_serial_descent_chain_by_chain(batch):
    chains, cap = batch
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(regression, "CD_MAX_SWEEPS", cap)
        patch.setattr(oracles, "CD_MAX_SWEEPS", cap)
        assert_serial_descent(chains)


@pytest.mark.parametrize("cap", [1, regression.CD_MAX_SWEEPS])
def test_coordinates_inside_a_zero_run_enter_where_the_serial_descent_has_them(cap):
    # Chain a's coordinates 1-3 and chain b's 1 and its padding 2-3 are zero
    # in both chains until gamma 0.1. There coordinate 2 enters, and its
    # coupling to 3 moves 3 in the same sweep, so the test of the run's rest
    # must be redone after 2's step; coordinate 1 never moves.
    gram_a = np.eye(4)
    gram_a[2, 3] = gram_a[3, 2] = -0.9
    chains = [(gram_a, np.array([1.0, 0.0, 0.3, 0.0]), [1.0, 0.5, 0.1, 0.01], 1.0),
              (np.eye(2), np.array([0.8, 0.0]), [1.0, 0.5, 0.1, 0.01], 0.5)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(regression, "CD_MAX_SWEEPS", cap)
        patch.setattr(oracles, "CD_MAX_SWEEPS", cap)
        (path, _), _ = assert_serial_descent(chains)
    assert (path[:2, 1:] == 0).all()
    assert (path[2:, 1] == 0).all() and (path[2:, 2:] != 0).all()


@settings(max_examples=25)
@given(batch=cd_batches())
def test_stacked_ridge_solve_is_the_per_gamma_solve(batch):
    chains = [(gram, c, gammas, None) for gram, c, gammas, _ in batch[0]]
    paths = regression._paths(chains)
    for (gram, c, gammas, _), (path, converged) in zip(chains, paths, strict=True):
        ref_path = [np.linalg.solve(gram + g * np.eye(c.shape[0]), c) for g in gammas]
        assert np.array_equal(path, np.array(ref_path).reshape(len(gammas), c.shape[0]))
        assert converged.all()


@pytest.mark.parametrize("name", ["ridge", "lasso", "elastic_net:0.5", "ols", "tweedie"])
def test_block_fits_are_one_block_fits(name):
    # the blocks differ in size and in which columns vary, so their chains are padded
    blocks = [linear_arm(n=80, k=4, seed=31), linear_arm(n=120, k=4, seed=32)]
    blocks[1][1][:, 2] = 3.0
    blocks = [(np.exp(y / 10) if name == "tweedie" else y, z, np.arange(len(y)))
              for y, z in blocks]
    spec = parse_model(name)
    [models] = regression.fit_plan([spec], blocks, [4])
    for (y, z, _), model in zip(blocks, models, strict=True):
        alone = fit(spec, y, z, seed=4)
        assert np.array_equal(model.coefficients, alone.coefficients)
        assert (model.chosen_gamma, model.cv_scores, model.rss, model.flags) == (
            alone.chosen_gamma, alone.cv_scores, alone.rss, alone.flags)


# --- tweedie ----------------------------------------------------------------

def test_tweedie_rejects_negative_outcomes():
    with pytest.raises(ValidationError, match="non-negative"):
        fit(ModelSpec("tweedie"), np.array([1.0, -0.5, 2.0]), np.zeros((3, 1)))


def test_tweedie_unit_prediction_at_zero_linear_predictor():
    model = FittedArmModel(
        spec=ModelSpec("tweedie"), intercept=0.0, coefficients=np.zeros(2),
        mean_parts=np.zeros((2, 3)), sds=np.ones(2), used=np.ones(2, dtype=bool),
        rss=0.0, link="log",
    )
    assert predict(model, np.zeros(2)) == 1.0


def test_tweedie_recovers_log_linear_signal():
    rng = np.random.default_rng(15)
    z = rng.standard_normal((4000, 2))
    mu = np.exp(0.5 + 0.3 * z[:, 0] - 0.2 * z[:, 1])
    y = rng.gamma(shape=2.0, scale=mu / 2.0)  # positive, mean mu
    model = fit(ModelSpec("tweedie"), y, z)
    assert model.link == "log"
    raw = slopes_in_raw_space(model)
    np.testing.assert_allclose(raw[model.used], [0.3, -0.2], atol=0.05)
    means = model.mean_parts.sum(axis=0)[:-1]
    assert abs(model.intercept + (model.coefficients * means / model.sds).sum()
               - 0.5) < 0.05


def test_tweedie_rank_uses_the_lstsq_cutoff_of_the_rows():
    # as for ols: each IRLS step solves on the weighted rows' triangle, with the
    # cutoff lstsq applies to the rows, so the near-duplicate's tiny singular
    # value is cut and the two columns share the slope (the minimum-norm answer)
    rng = np.random.default_rng(25)
    z0 = rng.standard_normal(2000)
    z = np.column_stack([z0, z0 + 1e-13 * rng.standard_normal(2000)])
    model = fit(ModelSpec("tweedie"), np.exp(0.3 * z0 + 0.5 * rng.standard_normal(2000)), z)
    w = model.coefficients
    assert model.used.all() and abs(w[0] - w[1]) < 1e-9 * abs(w[0])


def test_tweedie_intercept_only_matches_mean():
    y = np.array([0.0, 1.0, 2.0, 5.0])
    model = fit(ModelSpec("tweedie"), y, np.ones((4, 1)))  # zero-variance column
    assert "dim_fallback" in model.flags
    assert model.intercept == y.mean()


def test_tweedie_convergence_error_carries_deviance():
    err = ConvergenceError("nope", last_deviance=3.25)
    assert err.last_deviance == 3.25


# --- spec parsing and validation ---------------------------------------------

@pytest.mark.parametrize("name", [
    "dim", "ols", "ridge", "lasso", "elastic_net:0.5", "pcr", "tweedie",
    "two_step:ols", "two_step:elastic_net:0.25", "ols@pre", "ridge@0,2",
    "two_step:ols@pre",
])
def test_parse_round_trips_canonical_names(name):
    assert parse_model(name).name == name


@pytest.mark.parametrize("bad", [
    "boost", "elastic_net", "elastic_net:2.0", "ols:x", "ridge@a,b",
    "two_step:two_step:ols",
])
def test_parse_rejects_bad_names(bad):
    with pytest.raises(ValidationError):
        parse_model(bad)


@pytest.mark.parametrize("kwargs", [
    dict(kind="ridge", hyper_grid=()),
    dict(kind="ridge", hyper_grid=(0.0,)),
    dict(kind="elastic_net"),
    dict(kind="elastic_net", mix=1.5),
    dict(kind="pcr", n_components=0),
    dict(kind="two_step"),
    dict(kind="dim", base=None, columns=(0, 0)),
])
def test_modelspec_validation(kwargs):
    with pytest.raises(ValidationError):
        ModelSpec(**kwargs)


def test_column_subset_restricts_model():
    rng = np.random.default_rng(16)
    z = rng.standard_normal((100, 3))
    y = 4.0 * z[:, 2] + rng.standard_normal(100)
    model = fit(ModelSpec("ols", columns=(0,)), y, z)
    assert model.used.tolist() == [True, False, False]
    pre = fit(ModelSpec("ols", columns="pre"), y, z, pre_period_col=2)
    assert pre.used.tolist() == [False, False, True]
    assert abs(slopes_in_raw_space(pre)[2] - 4.0) < 0.5


def test_predict_rejects_wrong_length():
    y, z = linear_arm(seed=17)
    model = fit(ModelSpec("ols"), y, z)
    with pytest.raises(ValidationError, match="length"):
        predict(model, np.zeros(z.shape[1] + 1))


def test_default_grid_spans_gamma_max():
    from gobe.regression import default_gamma_grid
    y, z = linear_arm(seed=18)
    zs = (z - z.mean(axis=0)) / z.std(axis=0)
    grid = default_gamma_grid(zs.T @ (y - y.mean()) / len(y))
    assert len(grid) == 50
    assert grid[0] == pytest.approx(lasso_gamma_max(y, z), rel=1e-12)
    assert grid[-1] == pytest.approx(1e-4 * grid[0], rel=1e-9)
    ratios = np.diff(np.log(np.array(grid)))
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)
