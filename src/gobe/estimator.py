"""Treatment effect estimation via per-arm regression imputation.

One regression is fitted per arm, each unit's unobserved counterfactual is
imputed with the other arm's model, and the effect is the average imputed
difference. The difference-in-means estimator is the covariate-free special
case, so it shares this exact code path. The reported variance is the sum of
per-arm in-sample mean squared errors scaled by arm size, and intervals are
Gaussian; arm sizes are recorded so consumers can judge the asymptotics.

Each call splits the rows by arm once, into ``(y0, Z0)`` and ``(y1, Z1)``;
``estimate_arms`` fits and assembles on those blocks. The assembly takes
ATE = (sum_treated(y - f0(z)) + sum_control(f1(z) - y)) / N, each arm's MSE
from its own-arm residuals and the control mean from ``y0``, so no N x 2
imputation matrix is built (``impute`` builds one for callers that want it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import ExperimentData
from .errors import ValidationError
from .normal import z_for_alpha
from .regression import FittedArmModel, ModelSpec, evaluate, fit, parse_model

ArmBlock = tuple[np.ndarray, np.ndarray]  # (outcome, covariate rows) of one arm


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
    for t, (y, _) in enumerate(arms):
        if y.shape[0] == 0:
            raise ValidationError(f"arm {t} is empty")
    return tuple(fit(spec, y, z, seed=seed, pre_period_col=data.pre_period_col) for y, z in arms)


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
    return estimate_arms(_checked_arms(data, alpha), spec, data.pre_period_col, alpha, seed)


def estimate_two_step(data: ExperimentData, base_spec: ModelSpec | str,
                      alpha: float = 0.05, seed: int = 0) -> AteEstimate:
    """Two-step estimator: fit a base model per arm, then calibrate each arm
    with a linear model whose only covariate is that arm model's prediction.

    Arm t's step-two regression uses the base model's prediction as a fixed
    function of the covariates, so cross-arm imputation evaluates at each
    unit's imputed value. Point estimate, error terms, and interval all come
    from the second step.
    """
    if isinstance(base_spec, str):
        base_spec = parse_model(base_spec)
    return estimate(data, ModelSpec(kind="two_step", base=base_spec), alpha=alpha, seed=seed)


def estimate_arms(arms: tuple[ArmBlock, ArmBlock], spec: ModelSpec, pre_period_col: int,
                  alpha: float, seed: int) -> AteEstimate:
    """``estimate`` on rows already split into ``(y0, Z0), (y1, Z1)``, for
    callers that fit many models on one split. The caller guarantees what
    ``estimate`` checks: alpha in (0, 1), >= 2 finite rows per arm."""
    if spec.kind == "two_step":
        base = [fit(spec.base, y, z, seed=seed, pre_period_col=pre_period_col) for y, z in arms]
        # step-two covariates of arm t's rows: [f0(Z_t), f1(Z_t)]
        arms = tuple((y, np.column_stack([evaluate(b, z) for b in base])) for y, z in arms)
        if not all(np.isfinite(z).all() for _, z in arms):
            raise ValidationError("covariates contain non-finite values")
        models = tuple(fit(ModelSpec(kind="ols", columns=(t,)), y, z, seed=seed)
                       for t, (y, z) in enumerate(arms))
    else:
        models = tuple(fit(spec, y, z, seed=seed, pre_period_col=pre_period_col) for y, z in arms)
    return _assemble(arms, models, spec.name, alpha)


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
    """Partition the rows once into the control and treated blocks."""
    treated = data.assignment == 1
    control = ~treated
    return ((data.outcome[control], data.covariates[control]),
            (data.outcome[treated], data.covariates[treated]))


def check_alpha(alpha: float) -> None:
    """Raise unless the significance level lies in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")


def _checked_arms(data: ExperimentData, alpha: float) -> tuple[ArmBlock, ArmBlock]:
    """Validate alpha, split by arm and require >= 2 units in each arm."""
    check_alpha(alpha)
    arms = split_arms(data)
    n0, n1 = (y.shape[0] for y, _ in arms)
    if min(n0, n1) < 2:
        raise ValidationError(
            f"need >= 2 units per arm for the error estimate (sizes: {n0}, {n1})"
        )
    return arms


def _assemble(arms: tuple[ArmBlock, ArmBlock],
              models: tuple[FittedArmModel, FittedArmModel],
              model_id: str, alpha: float) -> AteEstimate:
    (y0, z0), (y1, z1) = arms
    model0, model1 = models
    n0, n1 = y0.shape[0], y1.shape[0]
    ate = (float(np.sum(y1 - evaluate(model0, z1)))
           + float(np.sum(evaluate(model1, z0) - y0))) / (n0 + n1)
    mses = []
    for (y, z), model in zip(arms, models):
        resid = y - evaluate(model, z)
        mses.append(float(resid @ resid / (y.shape[0] - 1)))
    variance = mses[1] / n1 + mses[0] / n0
    half_width = z_for_alpha(alpha) * math.sqrt(variance)
    control_mean = float(y0.mean())
    flags = tuple(f"arm{t}:{flag}" for t in (0, 1) for flag in models[t].flags)
    if control_mean == 0.0:
        lift, lift_ci = None, None
        flags += ("lift_undefined",)
    else:
        scale = abs(control_mean)
        lift = ate / scale
        lift_ci = ((ate - half_width) / scale, (ate + half_width) / scale)
    return AteEstimate(
        model_id=model_id,
        ate=ate,
        variance=variance,
        mse_per_arm=(mses[0], mses[1]),
        ci=(ate - half_width, ate + half_width),
        alpha=alpha,
        n_per_arm=(n0, n1),
        control_mean=control_mean,
        lift=lift,
        lift_ci=lift_ci,
        flags=flags,
    )
