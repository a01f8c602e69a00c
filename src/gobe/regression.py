"""Per-arm regression model zoo behind one fit/predict contract.

Every supported kind reduces at fit time to an affine map on standardized
covariates (plus an exponential inverse link for the Tweedie GLM), so the
estimator can treat all fitted models uniformly. Covariates are standardized
inside each fit and the intercept is never penalized; penalties therefore act
on a scale-free parameterization, which makes predictions invariant to affine
rescaling of any covariate column.

Penalized objectives use the mean-squared data term

    (1/2m) * sum_i (y_i - b0 - w . z_i)^2 + gamma * P(w)

with P(w) = lam * |w|_1 + (1 - lam)/2 * |w|_2^2. ``lasso`` is lam = 1,
``ridge`` is lam = 0, and ``elastic_net`` exposes lam as ``mix``. Under this
scaling the smallest gamma that zeroes every lasso coefficient is
max_k |z_k . (y - mean(y))| / m on standardized columns.

The penalized kinds never fit from rows directly. Each fit, and each
cross-validation fold, reduces its standardized training rows once to the
Gram matrix G = zs'zs/m and the cross moments c = zs'yc/m; ridge solves
(G + gamma I) w = c, and lasso/elastic-net run coordinate descent with
covariance updates on (G, c), so a sweep costs O(K^2) whatever m is. Only
the out-of-fold R^2 scores read rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ValidationError

KINDS = ("dim", "ols", "ridge", "lasso", "elastic_net", "pcr", "tweedie", "two_step")
_PENALIZED = ("ridge", "lasso", "elastic_net")

CD_TOL = 1e-8
CD_MAX_SWEEPS = 10_000
IRLS_MAX_ITER = 100
IRLS_TOL = 1e-10
GRID_SIZE = 50
GRID_SPAN = 1e-4
_ETA_CLIP = 500.0


@dataclass(frozen=True)
class ModelSpec:
    """Declarative choice of a regression model.

    ``hyper_grid`` (ridge/lasso/elastic_net) defaults to 50 log-spaced values
    from the data-dependent gamma_max down to 1e-4 * gamma_max. ``mix`` is
    the elastic-net l1 weight and has no default. ``columns`` restricts the
    model to a subset of covariates; the string ``"pre"`` resolves to the
    dataset's pre-period column at fit time. ``power`` is the Tweedie
    variance power; the Tweedie link is always log.
    """

    kind: str
    hyper_grid: tuple[float, ...] | None = None
    mix: float | None = None
    n_components: int | None = None
    variance_threshold: float = 0.90
    power: float = 1.5
    cv_folds: int = 5
    columns: tuple[int, ...] | str | None = None
    base: "ModelSpec | None" = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown model kind {self.kind!r}; expected one of {KINDS}")
        if self.hyper_grid is not None:
            grid = tuple(float(g) for g in self.hyper_grid)
            if not grid or any(g <= 0 for g in grid):
                raise ValidationError("hyper_grid must be non-empty and strictly positive")
            object.__setattr__(self, "hyper_grid", grid)
        if self.kind == "elastic_net":
            if self.mix is None:
                raise ValidationError("elastic_net requires an explicit mix in [0, 1]")
            if not 0.0 <= self.mix <= 1.0:
                raise ValidationError(f"elastic_net mix must be in [0, 1], got {self.mix}")
        if self.n_components is not None and self.n_components < 1:
            raise ValidationError("n_components must be >= 1")
        if not 0.0 < self.variance_threshold <= 1.0:
            raise ValidationError("variance_threshold must be in (0, 1]")
        if self.kind == "tweedie":
            if not 1.0 < self.power < 2.0:
                raise ValidationError(f"tweedie power must be in (1, 2), got {self.power}")
        if self.cv_folds < 2:
            raise ValidationError("cv_folds must be >= 2")
        if self.kind == "two_step":
            if self.base is None:
                raise ValidationError("two_step requires a base spec")
            if self.base.kind == "two_step":
                raise ValidationError("two_step cannot be nested")
        elif self.base is not None:
            raise ValidationError("base is only meaningful for two_step")
        if isinstance(self.columns, str):
            if self.columns != "pre":
                raise ValidationError(f"column subset must be indices or 'pre', got {self.columns!r}")
        elif self.columns is not None:
            cols = tuple(int(c) for c in self.columns)
            if not cols or len(set(cols)) != len(cols) or any(c < 0 for c in cols):
                raise ValidationError("column subset must be distinct non-negative indices")
            object.__setattr__(self, "columns", cols)

    @property
    def name(self) -> str:
        """Canonical identifier, e.g. ``ols``, ``elastic_net:0.5``, ``ols@pre``."""
        if self.kind == "two_step":
            return f"two_step:{self.base.name}"
        text = self.kind
        if self.kind == "elastic_net":
            text = f"elastic_net:{self.mix:g}"
        if self.columns == "pre":
            text += "@pre"
        elif self.columns is not None:
            text += "@" + ",".join(str(c) for c in self.columns)
        return text


def parse_model(text: str) -> ModelSpec:
    """Parse a canonical model name into a ModelSpec.

    Grammar: ``dim | ols | ridge | lasso | elastic_net:<mix> | pcr | tweedie
    | two_step:<base>``, optionally suffixed with ``@pre`` or ``@i,j,...``
    to restrict the covariate columns.
    """
    text = text.strip()
    if text.startswith("two_step:"):
        return ModelSpec(kind="two_step", base=parse_model(text[len("two_step:"):]))
    columns: tuple[int, ...] | str | None = None
    if "@" in text:
        text, _, suffix = text.partition("@")
        if suffix == "pre":
            columns = "pre"
        else:
            try:
                columns = tuple(int(c) for c in suffix.split(","))
            except ValueError:
                raise ValidationError(f"bad column subset {suffix!r}") from None
    kind, _, option = text.partition(":")
    if kind == "elastic_net":
        if not option:
            raise ValidationError("elastic_net needs a mix, e.g. elastic_net:0.5")
        try:
            mix = float(option)
        except ValueError:
            raise ValidationError(f"bad elastic_net mix {option!r}") from None
        return ModelSpec(kind="elastic_net", mix=mix, columns=columns)
    if option:
        raise ValidationError(f"unexpected option {option!r} for model {kind!r}")
    return ModelSpec(kind=kind, columns=columns)


def with_dim_baseline(models) -> list[ModelSpec]:
    """Parse model names and prepend ``dim`` when no dim spec is listed.

    Difference-in-means is the baseline for variance reduction and for the
    relative A/A metrics, so every multi-model run carries it.
    """
    specs = [parse_model(m) if isinstance(m, str) else m for m in models]
    if not any(s.kind == "dim" for s in specs):
        specs.insert(0, ModelSpec(kind="dim"))
    return specs


@dataclass(frozen=True)
class FittedArmModel:
    """One arm's fitted regression, reduced to standardized-space form.

    ``coefficients`` live in the standardized covariate space and are zero
    for columns the model does not use; ``means``/``sds`` store the
    standardization applied at fit time (sd 1.0 sentinel for unused
    columns). Predictions are ``intercept + coefficients . (z - means)/sds``
    passed through the inverse link.
    """

    spec: ModelSpec
    intercept: float
    coefficients: np.ndarray
    means: np.ndarray
    sds: np.ndarray
    used: np.ndarray
    link: str = "identity"
    chosen_gamma: float | None = None
    cv_scores: tuple[tuple[float, float], ...] | None = None
    n_components: int | None = None
    n_obs: int = 0
    flags: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        for name in ("coefficients", "means", "sds", "used"):
            arr = np.ascontiguousarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def predict(model: FittedArmModel, z: np.ndarray) -> np.ndarray | float:
    """Evaluate the fitted model on one covariate vector or an N x K matrix."""
    z = np.asarray(z, dtype=np.float64)
    single = z.ndim == 1
    mat = z[None, :] if single else z
    if mat.shape[1] != model.coefficients.shape[0]:
        raise ValidationError(
            f"covariate length {mat.shape[1]} does not match model ({model.coefficients.shape[0]})"
        )
    if not np.isfinite(mat).all():
        raise ValidationError("covariates contain non-finite values")
    out = evaluate(model, mat)
    return float(out[0]) if single else out


def evaluate(model: FittedArmModel, z: np.ndarray) -> np.ndarray:
    """Model values on the rows of an N x K float matrix, unchecked.

    Reads only the columns the model uses (none for ``dim``, one for
    ``@pre``). The caller guarantees the shape and finiteness that
    ``predict`` checks, e.g. by passing rows of an ``ExperimentData``.
    """
    cols = np.flatnonzero(model.used)
    if cols.size == 0:
        eta = np.full(z.shape[0], model.intercept)
    else:
        zs = ((z if cols.size == z.shape[1] else z[:, cols]) - model.means[cols]) / model.sds[cols]
        eta = model.intercept + zs @ model.coefficients[cols]
    return np.exp(np.clip(eta, -_ETA_CLIP, _ETA_CLIP)) if model.link == "log" else eta


def fit(spec: ModelSpec, outcome: np.ndarray, covariates: np.ndarray,
        seed: int = 0, pre_period_col: int | None = None) -> FittedArmModel:
    """Fit one arm's regression model.

    Parameters
    ----------
    spec : ModelSpec
        Model choice; ``two_step`` is composed at the estimator level and is
        rejected here.
    outcome, covariates : arrays
        The arm's outcomes (length m) and covariate rows (m x K).
    seed : int
        Drives cross-validation fold assignment only; deterministic kinds
        ignore it.
    pre_period_col : int, optional
        Needed to resolve a ``columns="pre"`` subset.
    """
    if spec.kind == "two_step":
        raise ValidationError("two_step is an estimator-level composition; fit its base instead")
    y = np.asarray(outcome, dtype=np.float64)
    z = np.asarray(covariates, dtype=np.float64)
    if z.ndim != 2:
        raise ValidationError("covariates must be a 2-D matrix")
    m, k = z.shape
    if y.shape != (m,) or m == 0:
        raise ValidationError("arm data is empty or misshapen")
    if spec.kind == "tweedie" and (y < 0).any():
        raise ValidationError("tweedie requires non-negative outcomes")

    y_bar = float(y.mean())
    flags: list[str] = []

    def dim_model(extra_flags=()):
        return FittedArmModel(
            spec=spec, intercept=y_bar, coefficients=np.zeros(k),
            means=np.zeros(k), sds=np.ones(k), used=np.zeros(k, dtype=bool),
            n_obs=m, flags=tuple(flags) + tuple(extra_flags),
        )

    if spec.kind == "dim":
        return dim_model()

    means = z.mean(axis=0)
    sds = z.std(axis=0)
    allowed = _resolve_columns(spec, k, pre_period_col)
    used = allowed & (sds > 0)
    if (allowed & ~used).any():
        flags.append("dropped_zero_variance")
    out_means = np.where(used, means, 0.0)
    out_sds = np.where(used, sds, 1.0)

    if not used.any():
        return dim_model(("dim_fallback",))

    zs = (z[:, used] - means[used]) / sds[used]
    yc = y - y_bar
    coefficients = np.zeros(k)
    intercept = y_bar
    link = "identity"
    chosen_gamma = None
    cv_scores = None
    n_components = None

    if spec.kind == "ols":
        w, rank = _ols(zs, yc)
        if rank < zs.shape[1]:
            flags.append("rank_deficient")
    elif spec.kind in _PENALIZED:
        gram, c = _moments(zs, yc)
        grid = spec.hyper_grid or default_gamma_grid(c)
        if len(grid) > 1:
            chosen_gamma, cv_scores = cross_validate(spec, y, z[:, used], seed=seed, grid=grid)
        else:
            chosen_gamma = grid[0]
        w, converged = _penalized(spec, gram, c, chosen_gamma)
        if not converged:
            flags.append("cd_max_sweeps")
    elif spec.kind == "pcr":
        w, n_components, clamped = _pcr(zs, yc, spec)
        if clamped:
            flags.append("pcr_rank_clamped")
    elif spec.kind == "tweedie":
        intercept, w = _tweedie_irls(zs, y, spec.power)
        link = "log"
    else:  # pragma: no cover - exhaustively validated in ModelSpec
        raise ValidationError(f"unhandled kind {spec.kind!r}")

    coefficients[used] = w
    return FittedArmModel(
        spec=spec, intercept=intercept, coefficients=coefficients,
        means=out_means, sds=out_sds, used=used, link=link,
        chosen_gamma=chosen_gamma, cv_scores=cv_scores,
        n_components=n_components, n_obs=m, flags=tuple(flags),
    )


def cross_validate(spec: ModelSpec, outcome: np.ndarray, covariates: np.ndarray,
                   seed: int = 0, grid: tuple[float, ...] | None = None,
                   ) -> tuple[float, tuple[tuple[float, float], ...]]:
    """Pick the regularization level by k-fold out-of-fold R^2.

    Folds are a seeded random partition with sizes differing by at most one.
    Each fold's training rows are standardized and reduced once to their
    Gram moments, on which the whole gamma path is fitted (large to small,
    warm-started); the test rows are scored in row space. Returns the gamma
    with the highest mean R^2 (ties go to the larger gamma, i.e. the
    stronger regularization) along with the per-gamma mean scores. The
    caller refits on the full arm data at the chosen value.
    """
    if spec.kind not in _PENALIZED:
        raise ValidationError(f"cross-validation applies to {_PENALIZED}, not {spec.kind!r}")
    y = np.asarray(outcome, dtype=np.float64)
    z = np.asarray(covariates, dtype=np.float64)
    m = y.shape[0]
    if m < spec.cv_folds:
        raise ValidationError(
            f"{m} rows cannot support {spec.cv_folds}-fold cross-validation; use fewer folds"
        )
    if grid is None:
        grid = spec.hyper_grid or default_gamma_grid(_standardized_moments(y, z)[1])
    order = np.argsort(grid)[::-1]  # large-to-small for warm starts and tie-breaks
    perm = np.random.default_rng(seed).permutation(m)
    folds = np.array_split(perm, spec.cv_folds)
    scores = np.zeros(len(grid))
    for fold in folds:
        mask = np.ones(m, dtype=bool)
        mask[fold] = False
        y_tr, z_tr = y[mask], z[mask]
        y_te, z_te = y[~mask], z[~mask]
        mu, sd = z_tr.mean(axis=0), z_tr.std(axis=0)
        keep = sd > 0
        zs_tr = (z_tr[:, keep] - mu[keep]) / sd[keep]
        zs_te = (z_te[:, keep] - mu[keep]) / sd[keep]
        y_bar = y_tr.mean()
        gram, c = _moments(zs_tr, y_tr - y_bar)
        ss_tot = float(np.sum((y_te - y_te.mean()) ** 2))
        w = np.zeros(c.shape[0])
        for idx in order:
            w, _ = _penalized(spec, gram, c, grid[idx], w0=w)
            if ss_tot != 0.0:  # R^2 of a zero-variance target is 0.0
                resid = y_te - (y_bar + zs_te @ w)
                scores[idx] += 1.0 - float(resid @ resid) / ss_tot
    scores /= len(folds)
    best = max(order, key=lambda idx: (scores[idx], grid[idx]))
    return grid[best], tuple((float(grid[i]), float(scores[i])) for i in range(len(grid)))


def default_gamma_grid(c: np.ndarray) -> tuple[float, ...]:
    """Log-spaced grid from gamma_max down to GRID_SPAN * gamma_max.

    ``c`` is the cross-moment vector zs' yc / m of ``_moments``.
    """
    gmax = _gamma_max(c)
    if gmax <= 0.0:
        return (1.0,)
    return tuple(np.geomspace(gmax, GRID_SPAN * gmax, GRID_SIZE))


def lasso_gamma_max(outcome: np.ndarray, covariates: np.ndarray) -> float:
    """Smallest gamma at which the lasso zeroes every slope.

    Reads the same cross moments as the coordinate-descent sweep, whose
    first step from zero is the soft threshold of exactly those values, so
    slopes vanish exactly (not just approximately) at this value.
    """
    return _gamma_max(_standardized_moments(outcome, covariates)[1])


def _gamma_max(c: np.ndarray) -> float:
    return float(np.max(np.abs(c))) if c.size else 0.0


def _standardized_moments(outcome, covariates) -> tuple[np.ndarray, np.ndarray]:
    """``_moments`` of the non-constant standardized columns, as ``fit`` builds them."""
    y = np.asarray(outcome, dtype=np.float64)
    z = np.asarray(covariates, dtype=np.float64)
    sds = z.std(axis=0)
    keep = sds > 0
    zs = (z[:, keep] - z.mean(axis=0)[keep]) / sds[keep]
    return _moments(zs, y - y.mean())


def _l1_weight(spec: ModelSpec) -> float:
    if spec.kind == "lasso":
        return 1.0
    if spec.kind == "ridge":
        return 0.0
    return float(spec.mix)


def _resolve_columns(spec: ModelSpec, k: int, pre_period_col: int | None) -> np.ndarray:
    allowed = np.zeros(k, dtype=bool)
    if spec.columns is None:
        allowed[:] = True
    elif spec.columns == "pre":
        if pre_period_col is None:
            raise ValidationError("columns='pre' needs the dataset's pre-period column index")
        allowed[pre_period_col] = True
    else:
        for c in spec.columns:
            if c >= k:
                raise ValidationError(f"column {c} out of range for K={k}")
            allowed[c] = True
    return allowed


def _ols(zs: np.ndarray, yc: np.ndarray) -> tuple[np.ndarray, int]:
    """Minimum-norm least squares via SVD (rank-revealing)."""
    w, _, rank, _ = np.linalg.lstsq(zs, yc, rcond=None)
    return w, int(rank)


def _moments(zs: np.ndarray, yc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix zs' zs / m and cross moments zs' yc / m.

    They are all of the rows the penalized solvers read: the data term of
    the objective is (yc'yc/m)/2 - w'c + w'Gw/2.
    """
    m = zs.shape[0]
    return zs.T @ zs / m, zs.T @ yc / m


def _penalized(spec: ModelSpec, gram: np.ndarray, c: np.ndarray, gamma: float,
               w0: np.ndarray | None = None) -> tuple[np.ndarray, bool]:
    """Penalized coefficients at one gamma, and whether the solver converged."""
    if spec.kind == "ridge":
        return _ridge(gram, c, gamma), True
    return _coordinate_descent(gram, c, gamma, _l1_weight(spec), w0=w0)


def _ridge(gram: np.ndarray, c: np.ndarray, gamma: float) -> np.ndarray:
    """Closed-form solution of the l2-penalized normal equations (G + gamma I) w = c."""
    return np.linalg.solve(gram + gamma * np.eye(c.shape[0]), c)


def _coordinate_descent(gram: np.ndarray, c: np.ndarray, gamma: float, lam: float,
                        w0: np.ndarray | None = None,
                        trace: list | None = None) -> tuple[np.ndarray, bool]:
    """Cyclic coordinate descent for the elastic-net objective, covariance form.

    Works on the Gram moments of ``_moments`` (Friedman, Hastie & Tibshirani
    2010, "covariance updates"): the partial residual correlation of
    coordinate j is c_j - (Gw)_j + G_jj w_j, and G w is kept current with one
    column update per changed coefficient, so a sweep costs O(K^2) whatever
    the number of rows. Stops when the largest coefficient change in a sweep
    drops below CD_TOL, or after CD_MAX_SWEEPS sweeps (reported via the
    returned flag). ``trace`` collects the coefficient vector after each sweep.
    """
    p = c.shape[0]
    diag = np.diag(gram).tolist()  # ~1.0 after standardization
    cs = c.tolist()
    w = [0.0] * p if w0 is None else w0.tolist()
    gw = gram @ np.array(w)
    l1 = gamma * lam
    l2 = gamma * (1.0 - lam)
    for _ in range(CD_MAX_SWEEPS):
        delta = 0.0
        for j in range(p):
            wj = w[j]
            rho = cs[j] - gw[j] + diag[j] * wj
            new = _soft_threshold(rho, l1) / (diag[j] + l2)
            if new != wj:
                gw += gram[j] * (new - wj)  # G is symmetric: row j is column j
                w[j] = new
                delta = max(delta, abs(new - wj))
        if trace is not None:
            trace.append(np.array(w))
        if delta < CD_TOL:
            return np.array(w), True
    return np.array(w), False


def _soft_threshold(x: float, t: float) -> float:
    if x > t:
        return x - t
    if x < -t:
        return x + t
    return 0.0


def penalized_objective(zs: np.ndarray, yc: np.ndarray, w: np.ndarray,
                        gamma: float, lam: float) -> float:
    """The objective minimized by the penalized kinds (used by tests)."""
    m = zs.shape[0]
    resid = yc - zs @ w
    return float(resid @ resid / (2 * m)
                 + gamma * (lam * np.abs(w).sum() + 0.5 * (1 - lam) * (w @ w)))


def _pcr(zs: np.ndarray, yc: np.ndarray, spec: ModelSpec) -> tuple[np.ndarray, int, bool]:
    """OLS on the leading principal-component scores of the standardized design."""
    u, s, vt = np.linalg.svd(zs, full_matrices=False)
    positive = int(np.count_nonzero(s > s[0] * 1e-12)) if s.size and s[0] > 0 else 0
    if positive == 0:
        return np.zeros(zs.shape[1]), 0, False
    clamped = False
    if spec.n_components is not None:
        r = spec.n_components
        if r > positive:
            r, clamped = positive, True
    else:
        ratio = np.cumsum(s ** 2) / np.sum(s ** 2)
        r = int(np.searchsorted(ratio, spec.variance_threshold - 1e-12) + 1)
        r = min(r, positive)
    w_scores = (u[:, :r].T @ yc) / s[:r]
    return vt[:r].T @ w_scores, r, clamped


def _tweedie_deviance(y: np.ndarray, mu: np.ndarray, p: float) -> float:
    """Total Tweedie deviance for power p in (1, 2); handles y = 0."""
    term = (np.power(y, 2.0 - p) / ((1.0 - p) * (2.0 - p))
            - y * np.power(mu, 1.0 - p) / (1.0 - p)
            + np.power(mu, 2.0 - p) / (2.0 - p))
    return float(2.0 * term.sum())


def _tweedie_irls(zs: np.ndarray, y: np.ndarray, power: float) -> tuple[float, np.ndarray]:
    """Iteratively reweighted least squares for the log-link Tweedie GLM."""
    y_bar = float(y.mean())
    if y_bar <= 0:
        raise ValidationError("tweedie with log link needs a positive mean outcome")
    m, p = zs.shape
    x = np.column_stack([np.ones(m), zs])
    mu = (y + y_bar) / 2.0
    eta = np.log(mu)
    dev = _tweedie_deviance(y, mu, power)
    for _ in range(IRLS_MAX_ITER):
        weights = np.power(mu, 2.0 - power)  # (dmu/deta)^2 / V(mu) at log link
        working = eta + (y - mu) / mu
        sw = np.sqrt(weights)
        beta, *_ = np.linalg.lstsq(x * sw[:, None], working * sw, rcond=None)
        eta = np.clip(x @ beta, -_ETA_CLIP, _ETA_CLIP)
        mu = np.exp(eta)
        new_dev = _tweedie_deviance(y, mu, power)
        if abs(new_dev - dev) <= IRLS_TOL * max(1.0, abs(dev)):
            return float(beta[0]), beta[1:]
        dev = new_dev
    raise ConvergenceError(
        f"tweedie IRLS did not converge in {IRLS_MAX_ITER} iterations",
        last_deviance=dev,
    )
