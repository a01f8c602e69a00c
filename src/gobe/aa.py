"""Monte Carlo A/A re-randomization audit.

One arm of a real experiment is repeatedly split into two fake arms, so the
true effect is zero by construction. Each split records the pre-period
imbalance between the fake arms and every model's estimate on the relabelled
data, giving an empirical picture of conditional bias, robustness, and
interval calibration as a function of chance imbalance.

Splits are fixed-margin half-splits (sizes differ by at most one) rather
than per-unit coin flips, which pins the fake arm sizes and removes a noise
source from the bucketed metrics. Each split draws from its own seed stream
and computes the imbalance ``zeta`` from its sorted gathered rows.

The affine models (``dim``, ``ols``, ``ols@cols``) need no per-split fit:
each fake arm's size, means, slopes and RSS (the moment view of Lin 2013 and
CUPED) go to ``estimator.affine_ate`` and ``estimator.interval``, as they do
in ``estimate``. A split reduces its treated rows to the Gram matrix of
``[1, Z, y]``, which holds their count, sums and cross-products; control is
the arm total minus treated, and each model solves every split's small
system in one batched call. A split whose moments cannot certify the fit (a
near-constant column or outcome in a half, a badly conditioned half, a
near-perfect fit) is fitted from its rows instead, as are the kinds with no
moment form (``pcr``, penalized, ``tweedie``, ``two_step``). Those records
match one ``estimate`` per relabelled dataset bit for bit; the moment-form
records match it within 1e-9 of each split's half-width. Splits run serially.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import report
from .dataset import ExperimentData, restrict_to_arm
from .errors import ValidationError
from .estimator import AteEstimate, affine_ate, check_alpha, estimate_specs, interval
from .regression import ModelSpec, _resolve_columns, with_dim_baseline
from .rng import child_rng, child_seed

# An affine split goes back to its rows when the moments cannot certify it:
# a used column or the outcome whose centered sum of squares in a half is
# below this share of the arm's (constant or near-constant in that half) ...
_MIN_HALF_SS = 1e-6
# ... a half correlation matrix with a larger condition number ...
_MAX_COND = 1e4
# ... or a half fit with RSS <= this * (1 + |u|^2) * S_yy, u the slopes on
# standardized columns: forming RSS from moments cancels terms of that size.
_MIN_UNEXPLAINED = 1e-5


@dataclass(frozen=True)
class AaRun:
    """Per-split records of one A/A audit.

    ``ate``, ``ci_lo``, ``ci_hi`` are S x M arrays (split by model, models
    in ``model_ids`` order, difference-in-means always first). ``failed``
    marks split/model pairs whose fit raised; their rows hold NaN.
    """

    model_ids: tuple[str, ...]
    zeta: np.ndarray
    ate: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    failed: np.ndarray
    arm: int
    n_units: int
    alpha: float
    kappa: int
    seed: int
    dim_index: int = 0

    @property
    def s_splits(self) -> int:
        return self.zeta.shape[0]

    @property
    def failure_count(self) -> int:
        return int(self.failed.sum())


@dataclass(frozen=True)
class BucketMetrics:
    """Robustness metrics per imbalance bucket and model.

    All per-model arrays are kappa x M. Relative (to difference-in-means)
    entries are NaN where the baseline metric is zero, and are reported only
    for the non-baseline models (the baseline column is NaN).
    """

    model_ids: tuple[str, ...]
    kappa: int
    bucket_sizes: np.ndarray
    zeta_range: np.ndarray
    mse: np.ndarray
    median_dist: np.ndarray
    excess_frac: np.ndarray
    coverage: np.ndarray
    r_mse: np.ndarray
    r_median_dist: np.ndarray
    r_excess_frac: np.ndarray


def run_aa(data: ExperimentData, arm: int, models: list[ModelSpec | str],
           s_splits: int, alpha: float = 0.05, seed: int = 0, kappa: int | None = None,
           n_jobs: int = 1) -> AaRun:
    """Re-randomize one arm S times and estimate every model per split.

    The difference-in-means model is prepended when absent, since the
    relative bucket metrics need it as the baseline. A model failure on one
    split is recorded and skipped, not fatal. ``alpha`` and ``kappa`` (the
    bucket count, default ``min(20, s_splits)``) are checked before any
    split. Splits run serially; ``n_jobs`` is accepted and ignored.

    ``dim``, ``ols`` and ``ols@cols`` take the moment form of the module
    docstring, Z and y shifted by the arm mean; a split whose halves fail a
    check of ``_affine_estimates`` goes to its rows, as does every split of
    the other kinds: one ``estimate_specs`` call per split fits its row
    models, each seeded ``child_seed(seed, s, j)``. ``zeta``, ``failed`` and the
    records fitted from rows equal one ``estimate`` per relabelled dataset
    bit for bit; moment-form ``ate`` and interval ends lie within 1e-9 of
    that split's half-width of it.
    """
    specs = with_dim_baseline(models)
    if s_splits < 1:
        raise ValidationError("s_splits must be >= 1")
    check_alpha(alpha)
    kappa = min(20, s_splits) if kappa is None else kappa
    if not 1 <= kappa <= s_splits:
        raise ValidationError(f"kappa must be in [1, {s_splits}], got {kappa}")
    restricted = restrict_to_arm(data, arm)
    n = restricted.n_units
    if n < 4:
        raise ValidationError(f"arm {arm} has {n} units; the A/A audit needs >= 4")

    n_models = len(specs)
    zeta = np.empty(s_splits)
    ate = np.full((s_splits, n_models), np.nan)
    ci_lo = np.full((s_splits, n_models), np.nan)
    ci_hi = np.full((s_splits, n_models), np.nan)
    failed = np.zeros((s_splits, n_models), dtype=bool)
    y, z, x = restricted.outcome, restricted.covariates, restricted.pre_period
    pre_col = restricted.pre_period_col

    def fit_rows(s, control, treated, models_j):
        arms = tuple((np.take(y, rows), z, rows) for rows in (control, treated))
        ests = estimate_specs(arms, [specs[j] for j in models_j], pre_col, alpha,
                              [child_seed(seed, s, j) for j in models_j])
        for j, est in zip(models_j, ests):
            if isinstance(est, AteEstimate):
                ate[s, j] = est.ate
                ci_lo[s, j], ci_hi[s, j] = est.ci
            else:
                failed[s, j] = True

    # covariate columns of each affine model; dim is always among them
    affine = {j: cols for j, spec in enumerate(specs)
              if (cols := _affine_columns(spec, z.shape[1], pre_col)) is not None}
    row_models = [j for j in range(n_models) if j not in affine]
    used = np.array(sorted(set().union(*affine.values())), dtype=np.intp)
    # [1, Z_used, y], the last two shifted by the arm mean so that the half
    # sums stay small: a half's Gram holds its size, sums and cross-products
    w = np.empty((n, used.size + 2))
    w[:, 0], w[:, 1:-1], w[:, -1] = 1.0, z[:, used], y
    w[:, 1:] -= w[:, 1:].mean(axis=0)
    grams = np.empty((s_splits, w.shape[1], w.shape[1]))

    for s in range(s_splits):
        control, treated = _halves(n, seed, s)
        zeta[s] = float(x[treated].mean() - x[control].mean())
        rows = np.take(w, treated, axis=0)
        grams[s] = rows.T @ rows
        if row_models:
            fit_rows(s, control, treated, row_models)

    total = w.T @ w
    sizes = (n - n // 2, n // 2)
    halves = tuple(zip(sizes, (total - grams, grams)))
    refit = np.zeros((s_splits, n_models), dtype=bool)
    for j, cols in affine.items():
        idx = np.append(np.searchsorted(used, cols) + 1, w.shape[1] - 1)
        ok, gaps, slopes, rss = _affine_estimates(halves, np.diagonal(total)[idx], idx)
        est = affine_ate(sizes, gaps, slopes)[ok]
        _, _, (lo, hi) = interval(est, [r[ok] for r in rss], sizes, alpha)
        ate[ok, j], ci_lo[ok, j], ci_hi[ok, j] = est, lo, hi
        refit[:, j] = ~ok
    for s in np.flatnonzero(refit.any(axis=1)):
        control, treated = _halves(n, seed, s)
        fit_rows(s, control, treated, np.flatnonzero(refit[s]))

    return AaRun(
        model_ids=tuple(s.name for s in specs),
        zeta=zeta, ate=ate, ci_lo=ci_lo, ci_hi=ci_hi, failed=failed,
        arm=arm, n_units=n, alpha=alpha, kappa=kappa, seed=seed,
        dim_index=next(j for j, s in enumerate(specs) if s.kind == "dim"),
    )


def _halves(n: int, seed: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Split s's control and treated row indices, ascending, so every block
    matches a boolean-mask split bit for bit."""
    treated = np.zeros(n, dtype=bool)
    treated[child_rng(seed, s).permutation(n)[: n // 2]] = True
    return np.flatnonzero(~treated), np.flatnonzero(treated)


def _affine_columns(spec: ModelSpec, k: int, pre_period_col: int) -> np.ndarray | None:
    """Covariate columns an affine spec may use; None for the kinds with no
    moment form and for a column subset the per-split fit rejects."""
    if spec.kind == "dim":
        return np.zeros(0, dtype=np.intp)
    if spec.kind != "ols":
        return None
    try:
        return np.flatnonzero(_resolve_columns(spec, k, pre_period_col))
    except ValidationError:
        return None


def _affine_estimates(halves, arm_ss: np.ndarray, idx: np.ndarray,
                      ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """(ok, mean gaps, [b_0, b_1], [RSS_0, RSS_1]) of one affine model for
    every split, for ``estimator.affine_ate`` and ``estimator.interval``.

    ``halves`` holds (n_t, Gram matrices) of the control and treated halves
    over ``[1, Z, y]``, Z and y shifted by the arm mean; ``idx`` picks the
    model's columns, outcome last, and ``arm_ss`` is their sum of squares
    over the arm. Each half's slopes solve its correlation-scaled normal
    equations. ``ok`` is False where a half fails a check the module
    constants set; a half with no residual degrees of freedom (K + 1 >= n_t)
    fails as a perfect fit or a singular matrix.
    """
    k = idx.size - 1
    ok = np.ones(halves[0][1].shape[0], dtype=bool)
    means, slopes, rss = [], [], []
    for n_t, grams in halves:
        s_t = grams[:, 0, idx]
        cen = grams[:, idx[:, None], idx] - s_t[:, :, None] * s_t[:, None, :] / n_t
        ss = np.diagonal(cen, axis1=1, axis2=2)
        ok &= (ss > _MIN_HALF_SS * arm_ss).all(axis=1)
        sd = np.sqrt(np.where(ok[:, None], ss, 1.0))
        corr = cen / (sd[:, :, None] * sd[:, None, :])
        r_zy = corr[:, :k, k]
        u = np.zeros((ok.size, k))
        if k:
            r_zz = np.where(ok[:, None, None], corr[:, :k, :k], np.eye(k))
            eig = np.linalg.eigvalsh(r_zz)
            ok &= eig[:, 0] * _MAX_COND > eig[:, -1]
            r_zz[~ok] = np.eye(k)
            u = np.linalg.solve(r_zz, r_zy[:, :, None])[:, :, 0]
        unexplained = 1.0 - np.einsum("sk,sk->s", u, r_zy)  # RSS / S_yy
        ok &= unexplained > _MIN_UNEXPLAINED * (1.0 + np.einsum("sk,sk->s", u, u))
        means.append(s_t / n_t)
        slopes.append(u * sd[:, k:] / sd[:, :k])
        rss.append(ss[:, k] * unexplained)
    return ok, means[1] - means[0], slopes, rss


def bucket_metrics(run: AaRun) -> BucketMetrics:
    """Bucket the splits by sorted imbalance and score each bucket.

    Buckets are equal-size ``run.kappa``-iles of the imbalance values (stable tie
    order by split index, sizes differ by at most one). Within each bucket
    and model the metrics are the mean squared estimate, the squared
    distance of the median estimate from zero, the excess one-sided mass
    beyond one half, and the fraction of intervals covering zero. Failed
    splits are excluded per model.
    """
    kappa, s = run.kappa, run.s_splits
    if kappa < 1 or kappa > s:
        raise ValidationError(f"kappa must be in [1, {s}], got {kappa}")
    order = np.argsort(run.zeta, kind="stable")
    buckets = np.array_split(order, kappa)
    n_models = len(run.model_ids)

    shape = (kappa, n_models)
    mse = np.full(shape, np.nan)
    median_dist = np.full(shape, np.nan)
    excess = np.full(shape, np.nan)
    coverage = np.full(shape, np.nan)
    sizes = np.array([len(b) for b in buckets])
    zeta_range = np.array([[run.zeta[b].min(), run.zeta[b].max()] for b in buckets])

    for j, bucket in enumerate(buckets):
        for m in range(n_models):
            ok = bucket[~run.failed[bucket, m]]
            if ok.size == 0:
                continue
            est = run.ate[ok, m]
            mse[j, m] = np.mean(est ** 2)
            ordered = np.sort(est)  # np.median's value, without its import of numpy.ma
            median_dist[j, m] = ((ordered[(ok.size - 1) // 2] + ordered[ok.size // 2]) / 2) ** 2
            below = np.mean(est < 0.0)
            above = np.mean(est > 0.0)
            excess[j, m] = max(0.0, 2.0 * max(below, above) - 1.0)
            coverage[j, m] = np.mean(
                (run.ci_lo[ok, m] <= 0.0) & (0.0 <= run.ci_hi[ok, m])
            )

    r_mse = _relative(mse, run.dim_index)
    r_median_dist = _relative(median_dist, run.dim_index)
    r_excess = _relative(excess, run.dim_index)

    return BucketMetrics(
        model_ids=run.model_ids, kappa=kappa, bucket_sizes=sizes,
        zeta_range=zeta_range, mse=mse, median_dist=median_dist,
        excess_frac=excess, coverage=coverage, r_mse=r_mse,
        r_median_dist=r_median_dist, r_excess_frac=r_excess,
    )


def pooled_coverage(run: AaRun) -> dict[str, float]:
    """Fraction of intervals covering zero, pooled over all splits."""
    out = {}
    for m, model_id in enumerate(run.model_ids):
        ok = ~run.failed[:, m]
        covered = (run.ci_lo[ok, m] <= 0.0) & (0.0 <= run.ci_hi[ok, m])
        out[model_id] = float(covered.mean()) if ok.any() else float("nan")
    return out


def write_splits_csv(run: AaRun, path) -> None:
    """Write ``report.aa_splits_table``: one row per (split, model)."""
    report.write_file(path, *report.aa_splits_table(run))


def _relative(metric: np.ndarray, dim_col: int) -> np.ndarray:
    """(baseline - model) / baseline per bucket; NaN where undefined."""
    baseline = metric[:, dim_col][:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(baseline == 0.0, np.nan, (baseline - metric) / baseline)
    rel[:, dim_col] = np.nan
    return rel
