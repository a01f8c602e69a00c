"""Spurious-covariate stress protocol and fit timing.

The covariate matrix is augmented with "folds" of synthetic Gaussian columns
matched to each real column's mean and sample standard deviation but drawn
independently of outcomes and assignment. Refitting the models across many
such draws measures how far point estimates drift, and how much variance
reduction degrades, when uncurated noise covariates enter the regression.
The full-data linear-regression estimate on the original covariates serves
as the reference value.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import ExperimentData, SyntheticConfig, generate
from .errors import ValidationError
from .estimator import estimate, estimate_specs, split_arms, variance_reduction
from .regression import ModelSpec, parse_models, with_dim_baseline
from .rng import child_seed

_TIMING_REPS = 3


@dataclass(frozen=True)
class StressConfig:
    """Protocol parameters: fold counts 1..folds are evaluated over mc_draws
    seeded draws for every model, against a fixed reference model."""

    folds: int
    mc_draws: int
    models: tuple[ModelSpec, ...]
    seed: int = 0
    alpha: float = 0.05
    reference_model: ModelSpec = field(default_factory=lambda: ModelSpec(kind="ols"))

    def __post_init__(self):
        if self.folds < 1:
            raise ValidationError("folds must be >= 1")
        if self.mc_draws < 1:
            raise ValidationError("mc_draws must be >= 1")
        specs = tuple(parse_models(self.models))
        if not specs:
            raise ValidationError("at least one model is required")
        object.__setattr__(self, "models", specs)


@dataclass(frozen=True)
class StressResult:
    """Error, variance-reduction and fit-time distributions per (model, folds, draw).

    ``errors``, ``vr`` and ``runtime_ms`` (each fit's wall time) are
    (n_models, folds, draws) arrays; failed fits hold NaN and are excluded
    from the medians. ``relative_errors`` tells whether errors are scaled by
    |reference| or left absolute (reference estimate of zero).
    """

    model_ids: tuple[str, ...]
    fold_counts: tuple[int, ...]
    errors: np.ndarray
    vr: np.ndarray
    runtime_ms: np.ndarray
    reference_model_id: str
    reference_ate: float
    relative_errors: bool
    failure_count: int

    def median_errors(self) -> np.ndarray:
        """Median error over draws, per (model, folds)."""
        return _median_over_draws(self.errors)

    def median_vr(self) -> np.ndarray:
        """Median variance reduction over draws, per (model, folds)."""
        return _median_over_draws(self.vr)

    def median_runtime_ms(self) -> np.ndarray:
        """Median fit wall time over draws, per (model, folds)."""
        return _median_over_draws(self.runtime_ms)


def _median_over_draws(values: np.ndarray) -> np.ndarray:
    """``np.nanmedian`` over draws, bit for bit, without its import of
    numpy.ma: NaN sorts last, and the middle pair's mean is (lo + hi) / 2."""
    ordered = np.sort(values, axis=2)
    n = np.count_nonzero(~np.isnan(values), axis=2)[..., None]
    lo = np.take_along_axis(ordered, (n - 1) // 2, axis=2)
    hi = np.take_along_axis(ordered, n // 2, axis=2)
    return ((lo + hi) / 2)[..., 0]


@dataclass(frozen=True)
class TimingCell:
    """Best-of-N wall time for one (sample size, folds, model) cell."""

    n_units: int
    folds: int
    model_id: str
    wall_ms: float
    dim_ratio: float


def augment(data: ExperimentData, folds: int, seed: int) -> ExperimentData:
    """Append ``folds`` blocks of moment-matched spurious covariates.

    The output has (folds + 1) * K covariate columns: the real block first,
    then fold 1..folds. Column k of every fold is drawn i.i.d. normal with
    the real column's mean and sample standard deviation (ddof=1). The
    pre-period column index is unchanged, since it points into the real
    block.
    """
    if folds < 1:
        raise ValidationError("folds must be >= 1")
    z = data.covariates
    n, k = z.shape
    mu = z.mean(axis=0)
    sd = z.std(axis=0, ddof=1) if n > 1 else np.zeros(k)
    if (sd == 0).any():
        warnings.warn("zero-variance covariate: its spurious copies are constant",
                      stacklevel=2)
    draws = np.random.default_rng(seed).standard_normal((n, folds * k))
    spurious = draws * np.tile(sd, folds) + np.tile(mu, folds)
    return replace(data, covariates=np.hstack([z, spurious]))


def error_distribution(data: ExperimentData, config: StressConfig) -> StressResult:
    """Measure estimate drift and variance reduction under spurious folds.

    One maximal augmentation per Monte Carlo seed is split by arm once, into
    row indices, and fold counts 1..folds fit nested views of its leading
    column blocks; neither the split nor a view copies the table.
    Errors are |estimate - reference| / |reference| against the reference
    model's estimate on the original data (absolute when that reference is
    zero, with ``relative_errors`` flagging the convention used).
    """
    reference = estimate(data, config.reference_model, alpha=config.alpha, seed=config.seed)
    relative = reference.ate != 0.0
    baseline_dim = estimate(data, ModelSpec(kind="dim"), alpha=config.alpha, seed=config.seed)
    n_models = len(config.models)
    errors = np.full((n_models, config.folds, config.mc_draws), np.nan)
    vr = np.full_like(errors, np.nan)
    runtime_ms = np.full_like(errors, np.nan)
    failures = 0
    for s in range(config.mc_draws):
        arms = split_arms(augment(data, config.folds, seed=child_seed(config.seed, s)))
        for fold in range(1, config.folds + 1):
            view = tuple((y, z[:, : (fold + 1) * data.k_covariates], rows) for y, z, rows in arms)
            for j, spec in enumerate(config.models):
                [est], ms = _timed(estimate_specs, view, [spec], data.pre_period_col,
                                   config.alpha, [child_seed(config.seed, s, fold, j)])
                if isinstance(est, Exception):  # a model that cannot fit this draw
                    failures += 1
                    continue
                runtime_ms[j, fold - 1, s] = ms
                drift = abs(est.ate - reference.ate)
                errors[j, fold - 1, s] = drift / abs(reference.ate) if relative else drift
                reduction = variance_reduction(est, baseline_dim)
                if reduction is not None:
                    vr[j, fold - 1, s] = reduction
    return StressResult(
        model_ids=tuple(spec.name for spec in config.models),
        fold_counts=tuple(range(1, config.folds + 1)),
        errors=errors, vr=vr, runtime_ms=runtime_ms,
        reference_model_id=config.reference_model.name,
        reference_ate=reference.ate,
        relative_errors=relative,
        failure_count=failures,
    )


def timing_profile(data_sizes: list[int], folds_list: list[int],
                   models: list[ModelSpec | str], k_covariates: int = 5,
                   outcome_cor: float = 0.5, seed: int = 0,
                   alpha: float = 0.05) -> list[TimingCell]:
    """Wall-clock table over synthetic datasets of the given sizes.

    Each cell is the best of three repetitions on a monotonic clock, with
    BLAS pinned to one thread when threadpoolctl is available so ratios to
    the difference-in-means baseline stay comparable. A folds entry of 0
    times the un-augmented fit.
    """
    specs = with_dim_baseline(models)
    specs.sort(key=lambda s: s.kind != "dim")  # time the baseline first
    cells = []
    with _single_threaded_blas():
        for n in data_sizes:
            base = generate(SyntheticConfig(
                n_units=n, k_covariates=k_covariates, outcome_cor=outcome_cor,
                seed=child_seed(seed, n),
            ))
            for folds in folds_list:
                data = base if folds == 0 else augment(base, folds, seed=child_seed(seed, n, folds))
                dim_ms = None
                for spec in specs:
                    best = min(
                        _timed(estimate, data, spec, alpha, child_seed(seed, n, folds, rep))[1]
                        for rep in range(_TIMING_REPS)
                    )
                    if spec.kind == "dim":
                        dim_ms = best
                    cells.append(TimingCell(
                        n_units=n, folds=folds, model_id=spec.name,
                        wall_ms=best, dim_ratio=best / dim_ms if dim_ms else float("nan"),
                    ))
    return cells


def _timed(estimator_fn, *args) -> tuple:
    """One estimator call's result and its wall time in milliseconds."""
    start = time.perf_counter()
    est = estimator_fn(*args)
    return est, (time.perf_counter() - start) * 1e3


def _single_threaded_blas():
    try:
        from threadpoolctl import threadpool_limits
        return threadpool_limits(limits=1)
    except ImportError:
        import contextlib
        return contextlib.nullcontext()
