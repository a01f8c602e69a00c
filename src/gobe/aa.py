"""Monte Carlo A/A re-randomization audit.

One arm of a real experiment is repeatedly split into two fake arms, so the
true effect is zero by construction. Each split records the pre-period
imbalance between the fake arms and every model's estimate on the relabelled
data, giving an empirical picture of conditional bias, robustness, and
interval calibration as a function of chance imbalance.

Splits are fixed-margin half-splits (sizes differ by at most one) rather
than per-unit coin flips, which pins the fake arm sizes and removes a noise
source from the bucketed metrics. Each split draws from its own seed stream
and indexes the arm rows once into the two fake-arm blocks that every model
is fitted on. Splits run serially: the per-split work is mostly Python, so
threads would cost more CPU than they save in wall time.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .dataset import ExperimentData, restrict_to_arm
from .errors import MODEL_FAILURES, ValidationError
from .estimator import check_alpha, estimate_arms
from .regression import ModelSpec, with_dim_baseline
from .rng import child_rng, child_seed


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
    true_ate: float = 0.0

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

    for s in range(s_splits):
        perm = child_rng(seed, s).permutation(n)
        # ascending rows, so every block matches a boolean-mask split bit for bit
        control, treated = np.sort(perm[n // 2:]), np.sort(perm[: n // 2])
        zeta[s] = float(x[treated].mean() - x[control].mean())
        arms = ((y[control], z[control]), (y[treated], z[treated]))
        for j, spec in enumerate(specs):
            try:
                est = estimate_arms(arms, spec, restricted.pre_period_col, alpha,
                                    child_seed(seed, s, j))
            except MODEL_FAILURES:
                failed[s, j] = True
                continue
            ate[s, j] = est.ate
            ci_lo[s, j], ci_hi[s, j] = est.ci

    return AaRun(
        model_ids=tuple(s.name for s in specs),
        zeta=zeta, ate=ate, ci_lo=ci_lo, ci_hi=ci_hi, failed=failed,
        arm=arm, n_units=n, alpha=alpha, kappa=kappa, seed=seed,
        dim_index=next(j for j, s in enumerate(specs) if s.kind == "dim"),
    )


def bucket_metrics(run: AaRun, kappa: int | None = None) -> BucketMetrics:
    """Bucket the splits by sorted imbalance and score each bucket.

    Buckets are equal-size kappa-iles of the imbalance values (stable tie
    order by split index, sizes differ by at most one). Within each bucket
    and model the metrics are the mean squared estimate, the squared
    distance of the median estimate from zero, the excess one-sided mass
    beyond one half, and the fraction of intervals covering zero. Failed
    splits are excluded per model.
    """
    kappa = run.kappa if kappa is None else kappa
    s = run.s_splits
    if kappa < 1 or kappa > s:
        raise ValidationError(f"kappa must be in [1, {s}], got {kappa}")
    order = np.argsort(run.zeta, kind="stable")
    buckets = np.array_split(order, kappa)
    n_models = len(run.model_ids)
    truth = run.true_ate

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
            mse[j, m] = np.mean((est - truth) ** 2)
            median_dist[j, m] = (np.median(est) - truth) ** 2
            below = np.mean(est < truth)
            above = np.mean(est > truth)
            excess[j, m] = max(0.0, 2.0 * max(below, above) - 1.0)
            coverage[j, m] = np.mean(
                (run.ci_lo[ok, m] <= truth) & (truth <= run.ci_hi[ok, m])
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
    """Fraction of intervals covering the truth, pooled over all splits."""
    out = {}
    for m, model_id in enumerate(run.model_ids):
        ok = ~run.failed[:, m]
        covered = (run.ci_lo[ok, m] <= run.true_ate) & (run.true_ate <= run.ci_hi[ok, m])
        out[model_id] = float(covered.mean()) if ok.any() else float("nan")
    return out


def write_splits_csv(run: AaRun, path) -> None:
    """One row per (split, model): s, zeta, model, ate, ci_lo, ci_hi."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "zeta", "model", "ate", "ci_lo", "ci_hi"])
        for s in range(run.s_splits):
            for m, model_id in enumerate(run.model_ids):
                writer.writerow([
                    s, repr(float(run.zeta[s])), model_id,
                    repr(float(run.ate[s, m])),
                    repr(float(run.ci_lo[s, m])),
                    repr(float(run.ci_hi[s, m])),
                ])


def _relative(metric: np.ndarray, dim_col: int) -> np.ndarray:
    """(baseline - model) / baseline per bucket; NaN where undefined."""
    baseline = metric[:, dim_col][:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(baseline == 0.0, np.nan, (baseline - metric) / baseline)
    rel[:, dim_col] = np.nan
    return rel
