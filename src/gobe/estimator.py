"""Treatment effect estimation via per-arm regression imputation.

One regression is fitted per arm, each unit's unobserved counterfactual is
imputed with the other arm's model, and the effect is the average imputed
difference. The difference-in-means estimator is the covariate-free special
case, so it shares this exact code path. The reported variance is the sum of
per-arm in-sample mean squared errors scaled by arm size, and intervals are
Gaussian; arm sizes are recorded so consumers can judge the asymptotics.

Each call splits the rows by arm once and fits each arm's block, with one
``regression.fit_plan`` for all the specs of a call (``estimate_specs``;
``estimate`` is its one-spec case). An arm's block is its outcomes and its
row indices into the experiment's covariate table, which both arms share:
an estimate holds the table once, and reads an arm's rows from it a row
block at a time. The ATE,
(sum_treated(y - f0(z)) + sum_control(f1(z) - y)) / N, needs for
identity-link fits only each arm's size, means and slopes (Lin 2013), and
each MSE only the RSS the fit keeps, so assembly reads no rows: only a log
link pair (``tweedie``) sums predictions over the other arm. ``affine_ate``
and ``interval`` state this once, for ``estimate`` and the A/A moment form.
``two_step`` is its base with calibrated slopes (Cohen & Fogarty 2020): one
scalar per arm, which an identity-link base's fit holds, so only a log-link
base is evaluated on rows after its fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .dataset import ExperimentData
from .errors import MODEL_FAILURES, ValidationError
from .regression import FittedArmModel, ModelSpec, evaluate, fit_plan, parse_model

# one arm: (its outcomes, the covariate table both arms share, its row indices
# into the table); the outcomes are copied, the table is not
ArmBlock = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class AteEstimate:
    """Point estimate, uncertainty, and bookkeeping for one model.

    ``lift`` is the effect relative to the absolute observed control-arm
    mean and is None (with an explanatory flag) when that mean is zero.
    ``lift_ci`` divides the effect interval by the same constant, ignoring
    noise in the denominator.
    """

    model_id: str
    ate: float
    variance: float
    mse_per_arm: tuple[float, float]
    ci: tuple[float, float]
    alpha: float
    n_per_arm: tuple[int, int]
    control_mean: float
    lift: float | None
    lift_ci: tuple[float, float] | None
    flags: tuple[str, ...] = ()


def fit_arm_models(data: ExperimentData, spec: ModelSpec,
                   seed: int = 0) -> tuple[FittedArmModel, FittedArmModel]:
    """Fit the spec on each arm's rows. Both fits use the same seed so that
    relabelling the arms permutes the results instead of changing them."""
    arms = split_arms(data)
    for t, (y, _, _) in enumerate(arms):
        if y.shape[0] == 0:
            raise ValidationError(f"arm {t} is empty")
    [models] = fit_plan([spec], arms, [seed], data.pre_period_col)
    if isinstance(models, Exception):
        raise models
    return tuple(models)


def impute(data: ExperimentData,
           models: tuple[FittedArmModel, FittedArmModel]) -> np.ndarray:
    """N x 2 matrix of potential-outcome values.

    Column t holds the observed outcome for units assigned to arm t (copied
    bit-for-bit) and the arm-t model's prediction for everyone else.
    """
    for t, (model, size) in enumerate(zip(models, data.arm_sizes())):
        if model.n_obs and model.n_obs != size:
            raise ValidationError(
                f"arm {t} model was fitted on {model.n_obs} rows but the arm has {size}"
            )
    out = np.column_stack([evaluate(model, data.covariates) for model in models])
    treated = data.assignment == 1
    out[~treated, 0] = data.outcome[~treated]
    out[treated, 1] = data.outcome[treated]
    return out


def estimate(data: ExperimentData, spec: ModelSpec | str,
             alpha: float = 0.05, seed: int = 0) -> AteEstimate:
    """Run the full imputation estimator for one model choice.

    Parameters
    ----------
    data : ExperimentData
        Experiment with both arms present and at least 2 units per arm.
    spec : ModelSpec or canonical model name
        ``two_step:<base>`` specs are composed from their base model.
    alpha : float
        Significance level; the interval covers 1 - alpha nominally.
    seed : int
        Drives cross-validation fold draws; everything else is exact.
    """
    if isinstance(spec, str):
        spec = parse_model(spec)
    [est] = estimate_specs(checked_arms(data, alpha), [spec], data.pre_period_col, alpha, [seed])
    if isinstance(est, Exception):
        raise est
    return est


def estimate_specs(arms: tuple[ArmBlock, ArmBlock], specs: list[ModelSpec], pre_period_col: int,
                   alpha: float, seeds: list[int]) -> list[AteEstimate | Exception]:
    """``estimate`` of every spec, each with its seed, on rows already split
    into ``(y0, Z, rows0), (y1, Z, rows1)``, from one ``regression.fit_plan``
    of their (base) specs: per spec, its estimate, or the ``MODEL_FAILURES``
    error it raises. Any other error propagates. The caller guarantees what
    ``estimate`` checks: alpha in (0, 1), >= 2 finite rows per arm."""
    out = fit_plan([spec.base or spec for spec in specs], arms, seeds, pre_period_col)
    for i, (spec, models) in enumerate(zip(specs, out)):
        if not isinstance(models, Exception):
            try:
                out[i] = _assemble(arms, spec, models, alpha)
            except MODEL_FAILURES as exc:
                out[i] = exc
    return out


def _assemble(arms: tuple[ArmBlock, ArmBlock], spec: ModelSpec, models: list[FittedArmModel],
              alpha: float) -> AteEstimate:
    """The estimate of ``spec`` from its (base) arm models."""
    (y0, z0, rows0), (y1, z1, rows1) = arms
    n0, n1 = y0.shape[0], y1.shape[0]
    gaps = (models[1].mean_parts - models[0].mean_parts).sum(axis=0)  # part by part
    slopes, rss = [m.coefficients / m.sds for m in models], [m.rss for m in models]
    flags = [m.flags for m in models]
    if spec.kind == "two_step":
        gaps, slopes, rss, flags = _two_step(arms, models, gaps, slopes, rss)
    if spec.kind == "two_step" or models[0].link == models[1].link == "identity":
        ate = float(affine_ate((n0, n1), gaps, slopes))
    else:
        ate = (float(np.sum(y1 - evaluate(models[0], z1, rows1)))
               + float(np.sum(evaluate(models[1], z0, rows0) - y0))) / (n0 + n1)
    mses, variance, ci = interval(ate, rss, (n0, n1), alpha)
    lo, hi = float(ci[0]), float(ci[1])
    control_mean = float(y0.mean())
    flags = tuple(f"arm{t}:{flag}" for t in (0, 1) for flag in flags[t])
    if control_mean == 0.0:
        lift, lift_ci = None, None
        flags += ("lift_undefined",)
    else:
        scale = abs(control_mean)
        lift, lift_ci = ate / scale, (lo / scale, hi / scale)
    return AteEstimate(model_id=spec.name, ate=ate, variance=variance, mse_per_arm=mses,
                       ci=(lo, hi), alpha=alpha, n_per_arm=(n0, n1), control_mean=control_mean,
                       lift=lift, lift_ci=lift_ci, flags=flags)


def _two_step(arms: tuple[ArmBlock, ArmBlock], base: list[FittedArmModel], gaps, slopes, rss):
    """Step two of ``two_step`` on its base's gaps, slopes and RSS. Arm t
    regresses its outcome on its base prediction f_t: with f and q the two
    centered in one orthonormal basis (S w and q of identity-link fits; the
    rows if either arm's base has a log link, and gaps and slopes of f_0, f_1),
    the slope gamma_t = f.q / f.f scales b_t and the RSS is |q - gamma_t f|^2.
    Where f is constant (no pair, or min == max) arm t's step two is ``dim``.
    Its sums are pairwise, not BLAS dot products, whose bits on arm rows
    follow the thread count."""
    pairs = [m.centered for m in base]
    if any(m.link == "log" for m in base):
        f = [[evaluate(m, z, rows) for m in base] for _, z, rows in arms]  # f[t][s] = f_s(Z_t)
        if not all(np.isfinite(ft).all() for ft in f):
            raise ValidationError("base predictions contain non-finite values")
        gaps, slopes = np.append(np.mean(f[1], axis=1) - np.mean(f[0], axis=1), gaps[-1]), np.eye(2)
        q = [y - y.mean() for y, _, _ in arms]
        pairs = [None if f[t][t].min() == f[t][t].max() else (f[t][t] - f[t][t].mean(), q[t])
                 for t in (0, 1)]
        rss = [float(np.sum(v * v)) for v in q]
    gammas, flags = [0.0, 0.0], [tuple(f"base:{flag}" for flag in m.flags) for m in base]
    for t, pair in enumerate(pairs):
        if pair is None:
            flags[t] = ("dropped_zero_variance", "dim_fallback") + flags[t]
        else:
            gammas[t] = float(np.sum(pair[0] * pair[1]) / np.sum(pair[0] * pair[0]))
            rss[t] = float(np.sum((pair[1] - gammas[t] * pair[0]) ** 2))
    return gaps, [g * b for g, b in zip(gammas, slopes)], rss, flags


def variance_reduction(candidate: AteEstimate, baseline_dim: AteEstimate) -> float | None:
    """Percent variance reduction relative to the difference-in-means run.

    Negative when the candidate is noisier; None when the baseline variance
    is zero (undefined ratio).
    """
    if candidate.n_per_arm != baseline_dim.n_per_arm:
        raise ValidationError("variance reduction requires estimates from the same data")
    if baseline_dim.variance == 0.0:
        return None
    return 100.0 * (1.0 - candidate.variance / baseline_dim.variance)


def split_arms(data: ExperimentData) -> tuple[ArmBlock, ArmBlock]:
    """Partition the rows once into the control and treated blocks, each in
    ascending row order: each arm's outcomes, copied, with the covariate
    table, not copied, and the arm's rows in it."""
    treated = data.assignment == 1
    return tuple((np.take(data.outcome, rows), data.covariates, rows)
                 for rows in (np.flatnonzero(~treated), np.flatnonzero(treated)))


def check_alpha(alpha: float) -> None:
    """Raise unless the significance level lies in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")


def z_for_alpha(alpha: float) -> float:
    """Two-sided critical value z_{1-alpha/2} for a significance level, from
    ``statistics.NormalDist`` (Wichura's AS241 quantile, ~1e-16 relative)."""
    check_alpha(alpha)
    return NormalDist().inv_cdf(1.0 - alpha / 2.0)


def affine_ate(sizes, gaps, slopes):
    """ate = dy - dz'(n_1 b_0 + n_0 b_1)/N for identity-link fits through
    their arm means: (n_0, n_1), the treated-minus-control mean gaps of the
    covariates and the outcome (last), and each arm's raw slopes b_t.
    Elementwise over leading axes."""
    (n0, n1), (b0, b1) = sizes, slopes
    weights = n1 * b0 + n0 * b1
    return gaps[..., -1] - np.einsum("...k,...k->...", gaps[..., :-1], weights) / (n0 + n1)


def interval(ate, rss, sizes, alpha):
    """Per-arm MSEs RSS/(n - 1), the ATE variance and the interval ends; elementwise."""
    mses = tuple(r / (n - 1) for r, n in zip(rss, sizes))
    variance = ate_variance(mses, sizes)
    half_width = z_for_alpha(alpha) * np.sqrt(variance)
    return mses, variance, (ate - half_width, ate + half_width)


def ate_variance(mses, sizes):
    """Variance of the ATE, mse_1/n_1 + mse_0/n_0, from per-arm MSEs and sizes
    in (control, treated) order; elementwise on arrays."""
    (mse0, mse1), (n0, n1) = mses, sizes
    return mse1 / n1 + mse0 / n0


def checked_arms(data: ExperimentData, alpha: float) -> tuple[ArmBlock, ArmBlock]:
    """Validate alpha, split by arm and require >= 2 units in each arm."""
    check_alpha(alpha)
    arms = split_arms(data)
    n0, n1 = (y.shape[0] for y, _, _ in arms)
    if min(n0, n1) < 2:
        raise ValidationError(
            f"need >= 2 units per arm for the error estimate (sizes: {n0}, {n1})"
        )
    return arms
