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

An arm is its outcomes, the experiment's covariate table and its row
indices into that table; the table is shared by both arms and never copied.
Every reader of an arm's rows gathers them from the table one block of 8192
row indices at a time.

The linear kinds never solve on rows. A fit shifts the rows [1, z, y] by a
point inside the data's range, the column means of the arm's first row
block and the outcome's mean, so that offset columns lose no accuracy to
the intercept, and keeps the R factor of their QR decomposition, a
(K+2) x (K+2) triangle (Golub & Van Loan, "Matrix Computations", 5.3), made
a row block at a time: the QR of each block, then of the stacked block
triangles (TSQR). So no copy of the arm is made, and R's bits do not
depend on the BLAS thread count, as those of a QR of all the rows do. Its
first row gives the shifted rows' means; below it, the standardized
covariates and the centered outcome are Q S and Q q for a small S and q.
``ols`` and ``pcr`` solve on the SVD of S; ridge solves (G + gamma I) w = c
with G = S'S/m and c = S'q/m, a whole gamma path in one stacked solve;
lasso/elastic-net run coordinate descent with covariance updates on (G, c);
the RSS is |q - S w|^2. Cross-validation reduces each fold to its own triangle, and the
arm's triangle is then the QR of the folds' stacked triangles; when every
fit on a column set cross-validates, the arm is reduced only fold by fold.
A column is constant when its minimum equals its maximum.

``fit_plan`` fits many specs on the blocks of an experiment (both arms) at
once. Each block is reduced once per column subset the specs use: one
pass over its row blocks, and one fold set per seed, which ridge, lasso
and elastic net share with their arm triangle and training moments. The
solves run after every reduction. The coordinate-descent chains of every
spec and block then run in lock step, one vectorised step per coordinate
across the chains, each with its own penalty mix: all CV folds'
warm-started gamma paths in one batch, then all final fits in one more. A
run of coordinates zero in every chain is checked in one step and skipped
while none would move. Each chain ends where it would alone, and each model
is the one its spec gets alone, bit for bit. ``fit`` is the one-spec,
one-block case, on all the rows of its covariates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import MODEL_FAILURES, ConvergenceError, ValidationError

KINDS = ("dim", "ols", "ridge", "lasso", "elastic_net", "pcr", "tweedie", "two_step")
_PENALIZED = ("ridge", "lasso", "elastic_net")

CD_TOL = 1e-8
CD_MAX_SWEEPS = 10_000
IRLS_MAX_ITER = 100
IRLS_TOL = 1e-10
GRID_SIZE = 50
GRID_SPAN = 1e-4
_ETA_CLIP = 500.0
_CV_FOLDS = 5
_PCR_VARIANCE_SHARE = 0.90
_TWEEDIE_POWER = 1.5
_BLOCK_ROWS = 8192  # rows per QR block; 1024 to 32768 gave the same bits at any thread count


@dataclass(frozen=True)
class ModelSpec:
    """Declarative choice of a regression model.

    ``hyper_grid`` (ridge/lasso/elastic_net) defaults to 50 log-spaced values
    from the data-dependent gamma_max down to 1e-4 * gamma_max. ``mix`` is
    the elastic-net l1 weight and has no default. ``columns`` restricts the
    model to a subset of covariates; the string ``"pre"`` resolves to the
    dataset's pre-period column at fit time. Without ``n_components``,
    ``pcr`` keeps the leading components that explain 90% of the variance.
    Penalized kinds cross-validate over 5 folds; ``tweedie`` has variance
    power 1.5 and a log link.
    """

    kind: str
    hyper_grid: tuple[float, ...] | None = None
    mix: float | None = None
    n_components: int | None = None
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


def parse_models(models) -> list[ModelSpec]:
    """Parse model names; reports key results by name, so each may appear once."""
    specs = [parse_model(m) if isinstance(m, str) else m for m in models]
    names = [s.name for s in specs]
    for name in names:
        if names.count(name) > 1:
            raise ValidationError(f"model {name!r} is listed more than once")
    return specs


def with_dim_baseline(models) -> list[ModelSpec]:
    """Parse model names and prepend ``dim`` when no dim spec is listed.

    Difference-in-means is the baseline for variance reduction and for the
    relative A/A metrics, so every multi-model run carries it.
    """
    specs = parse_models(models)
    if not any(s.kind == "dim" for s in specs):
        specs.insert(0, ModelSpec(kind="dim"))
    return specs


@dataclass(frozen=True)
class FittedArmModel:
    """One arm's fitted regression, reduced to standardized-space form.

    ``coefficients`` live in the standardized covariate space and are zero
    for columns the model does not use; ``sds`` store the standardization
    applied at fit time (sd 1.0 sentinel for unused columns). The two rows
    of ``mean_parts`` sum to the means of the allowed columns and the outcome
    (last; zero elsewhere): the means of the arm's first row block (of all
    its rows for the outcome), and the means left after subtracting them, so
    two arms' gaps keep the digits of large offsets.
    Predictions are ``intercept + coefficients . (z - means)/sds``, means the
    sum, through the inverse link; ``rss`` is the RSS on the arm's rows.
    ``centered`` holds S w and q, the arm's centered predictions and outcome
    in one orthonormal basis, for an identity-link fit with a slope, else None.
    """

    spec: ModelSpec
    intercept: float
    coefficients: np.ndarray
    mean_parts: np.ndarray
    sds: np.ndarray
    used: np.ndarray
    rss: float
    link: str = "identity"
    centered: np.ndarray | None = None
    chosen_gamma: float | None = None
    cv_scores: tuple[tuple[float, float], ...] | None = None
    n_components: int | None = None
    n_obs: int = 0
    flags: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        for name in ("coefficients", "mean_parts", "sds", "used", "centered"):
            if getattr(self, name) is not None:
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


def evaluate(model: FittedArmModel, z: np.ndarray, rows: np.ndarray | None = None,
             ) -> np.ndarray:
    """Model values on the rows of an N x K float matrix, or on its rows
    ``rows`` in that order, unchecked.

    Reads only the columns the model uses (none for ``dim``, one for
    ``@pre``). The caller guarantees the shape and finiteness that
    ``predict`` checks, e.g. by passing rows of an ``ExperimentData``.
    """
    cols = np.flatnonzero(model.used)
    means, sds = model.mean_parts.sum(axis=0)[cols], model.sds[cols]
    slopes = model.coefficients[cols]
    eta = np.empty(z.shape[0] if rows is None else rows.size)
    for span in _spans(eta.size):  # so no N x K temporary is made
        zb = z[span] if rows is None else _take(z, rows[span])
        zs = ((zb if cols.size == z.shape[1] else zb[:, cols]) - means) / sds
        eta[span] = model.intercept + zs @ slopes
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
        The arm's outcomes (length m) and covariate rows (m x K), all of
        which the fit reads.
    seed : int
        Drives cross-validation fold assignment only; deterministic kinds
        ignore it.
    pre_period_col : int, optional
        Needed to resolve a ``columns="pre"`` subset.
    """
    z = np.asarray(covariates, dtype=np.float64)
    rows = np.arange(z.shape[0] if z.ndim else 0)
    [models] = fit_plan([spec], [(outcome, z, rows)], [seed], pre_period_col)
    if isinstance(models, Exception):
        raise models
    return models[0]


def fit_plan(specs, blocks, seeds, pre_period_col: int | None = None) -> list:
    """``fit`` of each spec, with its seed, on every ``(outcome, covariates,
    rows)`` block, an arm: its outcomes, a covariate table it may share with
    other blocks, and the rows of that table the outcomes belong to, in their
    order. Per spec, its models (one per block), or the ``MODEL_FAILURES``
    error its fit raises, as a value. Any other error propagates.

    Each block is reduced once per column subset (``_Reduction``), a row
    block at a time. Then the penalized chains of every spec and block run in
    lock step (``_in_lock_step``). Each model, and each error, is the one a
    fit of its spec alone gives, bit for bit.
    """
    fits, failures = {}, {}
    for i, spec in enumerate(specs):
        if spec.kind == "two_step":
            failures[i] = ValidationError(
                "two_step is an estimator-level composition; fit its base instead")
    for t, (outcome, covariates, rows) in enumerate(blocks):
        y = np.asarray(outcome, dtype=np.float64)
        z = np.asarray(covariates, dtype=np.float64)
        rows = np.asarray(rows, dtype=np.intp)
        groups = {}  # the specs of each column subset
        for i, spec in enumerate(specs):
            if i in failures:
                continue
            try:
                allowed = _checked_columns(spec, y, z, rows, pre_period_col)
            except MODEL_FAILURES as exc:
                failures[i] = exc
                continue
            if allowed is None:
                fits[i, t] = _mean_model(spec, y, np.zeros((2, z.shape[1] + 1)), ())
            else:
                groups.setdefault(allowed.tobytes(), (allowed, []))[1].append(i)
        for allowed, members in groups.values():
            cv = [seeds[i] for i in members if _cross_validates(specs[i], y.shape[0])]
            arm = _Reduction(y, z, rows, allowed, cv[0] if len(cv) == len(members) else None)
            for i in members:
                try:
                    fits[i, t] = _fit(specs[i], arm, seeds[i])
                except MODEL_FAILURES as exc:
                    failures[i] = exc
    fits.update(_in_lock_step(
        {key: fit for key, fit in fits.items() if not isinstance(fit, FittedArmModel)},
        failures))
    return [failures[i] if i in failures else [fits[i, t] for t in range(len(blocks))]
            for i in range(len(specs))]


def _checked_columns(spec: ModelSpec, y: np.ndarray, z: np.ndarray, rows: np.ndarray,
                     pre_period_col: int | None) -> np.ndarray | None:
    """The covariate columns the spec may use on this block (None for
    ``dim``), after the checks ``fit`` makes on the block."""
    if z.ndim != 2:
        raise ValidationError("covariates must be a 2-D matrix")
    if y.ndim != 1 or y.shape != rows.shape or y.size == 0:
        raise ValidationError("arm data is empty or misshapen")
    if spec.kind == "tweedie" and (y < 0).any():
        raise ValidationError("tweedie requires non-negative outcomes")
    if spec.kind == "dim":
        return None
    return _resolve_columns(spec, z.shape[1], pre_period_col)


class _Reduction:
    """One block's rows [1, z[rows], y] over one column subset, shifted by
    ``shift``, the column means of its first ``_BLOCK_ROWS`` rows (``np.mean``
    bit for bit) and y's mean, and what the fits on those columns read off
    them: which columns of z vary, the rows' QR triangle (``_reduce``) and,
    per seed, a ``_FoldSet`` made on first use. Given ``fold_seed``, the seed
    of a fit that cross-validates whenever a column varies, which columns
    vary is read off that seed's folds, and the triangle is made only if a
    fit asks."""

    def __init__(self, y: np.ndarray, z: np.ndarray, rows: np.ndarray, allowed: np.ndarray,
                 fold_seed: int | None = None):
        self.y, self.z, self.rows, self.allowed = y, z, rows, allowed
        self.cols = np.flatnonzero(allowed)
        head = rows[:_BLOCK_ROWS]  # gathered for the shift and freed before the pass
        self.shift = np.append(np.add.reduce(np.ascontiguousarray(
            _take(z, head)[:, self.cols].T), axis=1) / head.size, y.mean())
        self._fold_sets = {}
        if fold_seed is None:
            self.triangle, lo, hi = _reduce(y, z, rows, self.cols, self.shift)
        else:  # the folds partition the rows, so their extremes are the rows'
            folds = self.fold_set(fold_seed).folds
            lo, hi = np.min([f[1] for f in folds], axis=0), np.max([f[2] for f in folds], axis=0)
        self.varies = (lo != hi)[1:-1]

    @cached_property
    def triangle(self) -> np.ndarray:
        return _reduce(self.y, self.z, self.rows, self.cols, self.shift)[0]

    def fold_set(self, seed: int) -> "_FoldSet":
        if seed not in self._fold_sets:
            self._fold_sets[seed] = _FoldSet(_folds(self, seed))
        return self._fold_sets[seed]


class _FoldSet:
    """The cross-validation folds of ``_folds``, the arm triangle read off
    them (the QR of their stacked triangles), and, once asked for, each
    scored fold's training moments and test reduction, which every penalized
    fit on these folds shares. Fold i trains on the QR of the other folds'
    stacked triangles, dropping columns constant on those rows."""

    def __init__(self, folds: list[tuple]):
        self.folds = folds
        self.triangle = np.linalg.qr(np.vstack([f[0] for f in folds]), mode="r")

    @cached_property
    def training(self) -> list[tuple]:
        m = sum(f[4] for f in self.folds)
        out = []
        for i, (r_te, _, _, ss_tot, m_te) in enumerate(self.folds):
            if ss_tot == 0.0:  # R^2 of a zero-variance target is 0.0
                continue
            train = self.folds[:i] + self.folds[i + 1:]
            keep = np.min([f[1] for f in train], axis=0) != np.max([f[2] for f in train], axis=0)
            keep = keep[1:-1]  # the z columns that vary on the training rows
            r_tr = np.linalg.qr(np.vstack([f[0] for f in train]), mode="r")
            offsets, sds, s, q = _standardize(r_tr, m - m_te, keep)
            out.append((s.T @ s / (m - m_te), s.T @ q / (m - m_te),
                        (r_te, ss_tot, keep, offsets, sds)))
        return out


def _fit(spec: ModelSpec, arm: _Reduction, seed: int):
    """``fit`` of a spec with covariates on its block's reduction. This call
    makes the fold set a cross-validated fit reads; it returns the model of a
    fit with no varying column, else a generator: it solves, yielding the
    penalized chains it needs as ``_in_lock_step`` serves them, and returns
    the model."""
    m, varies, allowed = arm.y.shape[0], arm.varies, arm.allowed
    k = allowed.size
    # a cross-validated fit reads the arm's triangle off its folds' triangles
    cv = varies.any() and _cross_validates(spec, m)
    r = arm.fold_set(seed).triangle if cv else arm.triangle
    offsets, sds, s, q = _standardize(r, m, varies)
    mean_parts = np.zeros((2, k + 1))
    mean_parts[:, np.append(allowed, True)] = arm.shift, offsets
    flags = () if varies.all() else ("dropped_zero_variance",)
    if not varies.any():
        return _mean_model(spec, arm.y, mean_parts, flags + ("dim_fallback",))
    used = allowed.copy()
    used[allowed] = varies
    y, z, rows, shift, y_bar = arm.y, arm.z, arm.rows, arm.shift, float(arm.y.mean())
    folds = None
    if spec.kind in _PENALIZED:
        gram, c = s.T @ s / m, s.T @ q / m
        grid = spec.hyper_grid or default_gamma_grid(c)
        if len(grid) > 1:
            folds = arm.fold_set(seed)

    def model(w, link="identity", intercept=y_bar, rss=None, flags=flags, **fitted):
        coefficients, out_sds = np.zeros(k), np.ones(k)
        coefficients[used], out_sds[used] = w, sds
        centered = None
        if link == "identity":  # Q (q - S w) is the centered outcome less the fit
            sw = s @ w
            rss = float(np.sum((q - sw) ** 2))
            centered = np.stack([sw, q]) if sw.any() else None
        return FittedArmModel(
            spec=spec, intercept=intercept, coefficients=coefficients, mean_parts=mean_parts,
            sds=out_sds, used=used, rss=rss, link=link, centered=centered, n_obs=m,
            flags=flags, **fitted)

    def solve():
        if spec.kind in ("ols", "pcr"):
            w, n_components, flag = _svd_fit(spec, s, q, m)
            return model(w, n_components=n_components, flags=flags + ((flag,) if flag else ()))
        if spec.kind == "tweedie":  # on the block's rows standardized as above
            cols, used_cols = np.flatnonzero(varies), np.flatnonzero(used)
            used_shift = np.append(shift[cols], 0.0)

            def design(span):  # [1, zs]: the block less its shift and then its offset, over sds
                x = _shifted_block(_take(z, rows[span]), y[span], used_cols, used_shift)
                x[:, 1:-1] -= offsets[cols]
                x[:, 1:-1] /= sds
                return x[:, :-1]

            intercept, w, rss = _tweedie_irls(design, y)
            return model(w, link="log", intercept=intercept, rss=rss)
        lam = None if spec.kind == "ridge" else 1.0 if spec.kind == "lasso" else float(spec.mix)
        chosen_gamma, cv_scores = grid[0], None
        if folds is not None:
            chosen_gamma, cv_scores = yield from _cross_validate(folds, grid, lam)
        [(path, converged)] = yield [(gram, c, (chosen_gamma,), lam)]
        return model(path[0], chosen_gamma=chosen_gamma, cv_scores=cv_scores,
                     flags=flags + (() if converged[0] else ("cd_max_sweeps",)))

    return solve()


def _cross_validates(spec: ModelSpec, m: int) -> bool:
    """Whether a fit of the spec on m rows cross-validates, given a varying column."""
    return (spec.kind in _PENALIZED and m >= _CV_FOLDS
            and (spec.hyper_grid is None or len(spec.hyper_grid) > 1))


def _mean_model(spec: ModelSpec, y: np.ndarray, mean_parts: np.ndarray,
                flags: tuple[str, ...]) -> FittedArmModel:
    """The fit with no slope: ``dim``, or a fit none of whose columns vary."""
    y_bar = float(y.mean())
    if spec.kind == "dim":
        mean_parts[0, -1] = y_bar
    # a pairwise sum, not a BLAS dot product, whose last bit follows the thread count
    resid = y - y_bar
    resid *= resid
    k = mean_parts.shape[1] - 1
    return FittedArmModel(
        spec=spec, intercept=y_bar, coefficients=np.zeros(k), mean_parts=mean_parts,
        sds=np.ones(k), used=np.zeros(k, dtype=bool), rss=float(np.sum(resid)),
        n_obs=y.shape[0], flags=flags,
    )


def _in_lock_step(steps: dict, failures: dict) -> dict:
    """Run the generators of ``_fit``, keyed (spec index, block), and return
    what each returns. Each round advances every generator to its next
    request, a list of ``(gram, c, gammas, lam)`` chains, then solves the
    requests of all of them in one ``_paths`` call and sends each its paths.
    A ``MODEL_FAILURES`` error goes to ``failures`` under its spec, whose
    other generators then stop."""
    models = {}
    answers = dict.fromkeys(steps)
    while answers:
        requests = {}
        for key, answer in answers.items():
            if key[0] in failures:
                continue
            try:
                requests[key] = steps[key].send(answer)
            except StopIteration as done:
                models[key] = done.value
            except MODEL_FAILURES as exc:
                failures[key[0]] = exc
        chains = [chain for chains in requests.values() for chain in chains]
        paths = iter(_paths(chains) if chains else ())
        answers = {key: [next(paths) for _ in chains] for key, chains in requests.items()}
    return models


def cross_validate(spec: ModelSpec, outcome: np.ndarray, covariates: np.ndarray,
                   seed: int = 0) -> tuple[float, tuple[tuple[float, float], ...]]:
    """``fit``'s choice of penalty: the ``(chosen_gamma, cv_scores)`` that
    ``fit(spec, outcome, covariates, seed)`` reports over the spec's
    ``hyper_grid``. The spec's column subset is honoured (``@pre`` raises, as
    ``fit`` does without a pre-period column index). Raises ValidationError
    when that fit does not cross-validate: its grid has one gamma or no
    covariate column varies."""
    if spec.kind not in _PENALIZED:
        raise ValidationError(f"cross-validation applies to {_PENALIZED}, not {spec.kind!r}")
    model = fit(spec, outcome, covariates, seed)
    if model.cv_scores is None:
        raise ValidationError("nothing to cross-validate: the grid has one gamma "
                              "or no covariate column varies")
    return model.chosen_gamma, model.cv_scores


def _folds(arm: _Reduction, seed: int) -> list[tuple]:
    """(R_f, column minima, column maxima, outcome sum of squares, size) of
    each cross-validation fold of the arm's shifted rows, each reduced from
    its rows in the arm's order. Fold i is the i-th of the ``np.array_split``
    of a permutation of the arm's positions; one label per position stands
    in for the permutation while the folds are reduced."""
    m = arm.y.shape[0]
    if m < _CV_FOLDS:
        raise ValidationError(f"{m} rows are too few for {_CV_FOLDS}-fold cross-validation: "
                              f"an arm needs >= {_CV_FOLDS} rows")
    q, extra = divmod(m, _CV_FOLDS)
    fold_of = np.empty(m, dtype=np.int8)
    fold_of[np.random.default_rng(seed).permutation(m)] = np.repeat(
        np.arange(_CV_FOLDS, dtype=np.int8), [q + 1] * extra + [q] * (_CV_FOLDS - extra))
    folds = []
    for i in range(_CV_FOLDS):
        at = np.flatnonzero(fold_of == i)
        y = arm.y[at]
        r, lo, hi = _reduce(y, arm.z, arm.rows[at], arm.cols, arm.shift)
        y_te = y - arm.shift[-1]
        ss_tot = 0.0 if lo[-1] == hi[-1] else float(np.sum((y_te - y_te.mean()) ** 2))
        folds.append((r, lo, hi, ss_tot, at.size))
    return folds


def _cross_validate(folds: _FoldSet, grid: tuple[float, ...], lam: float | None):
    """``fit``'s cross-validation on a fold set, as a generator that yields
    one chain per scored fold, its gamma path large to small, and is sent
    their paths. A gamma's SSE on fold i is |R_i a|^2 for a = (intercept
    offset, -slopes, 1). Returns the gamma of highest mean out-of-fold R^2
    (a constant target scores 0; ties go to the larger gamma) and the
    per-gamma mean scores."""
    order = np.argsort(grid)[::-1]  # large-to-small for warm starts and tie-breaks
    gammas = [grid[idx] for idx in order]
    paths = yield [(gram, c, gammas, lam) for gram, c, _ in folds.training]
    scores = np.zeros(len(grid))
    for (_, _, (r_te, ss_tot, keep, offsets, sds)), (path, _) in zip(folds.training, paths):
        v = np.empty((len(grid), sds.shape[0]))
        v[order] = path / sds
        a = np.zeros((r_te.shape[1], len(grid)))
        a[0], a[-1] = v @ offsets[:-1][keep] - offsets[-1], 1.0
        a[1:-1][keep] = -v.T
        resid = r_te @ a
        scores += 1.0 - np.einsum("ij,ij->j", resid, resid) / ss_tot
    scores /= len(folds.folds)
    best = max(order, key=lambda idx: (scores[idx], grid[idx]))
    return grid[best], tuple((float(grid[i]), float(scores[i])) for i in range(len(grid)))


def default_gamma_grid(c: np.ndarray) -> tuple[float, ...]:
    """Log-spaced grid from gamma_max down to GRID_SPAN * gamma_max, where ``c``
    holds the cross moments S'q/m of the standardized columns and the outcome."""
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
    y, z = np.asarray(outcome, dtype=np.float64), np.asarray(covariates, dtype=np.float64)
    arm = _Reduction(y, z, np.arange(z.shape[0]), np.ones(z.shape[1], dtype=bool))
    *_, s, q = _standardize(arm.triangle, y.shape[0], arm.varies)
    return _gamma_max(s.T @ q / y.shape[0])


def _gamma_max(c: np.ndarray) -> float:
    return float(np.max(np.abs(c))) if c.size else 0.0


def _spans(m: int) -> list[slice]:
    """The row blocks of m rows, ``_BLOCK_ROWS`` at a time."""
    return [slice(start, start + _BLOCK_ROWS) for start in range(0, m, _BLOCK_ROWS)]


def _take(z: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The rows ``rows`` of z. np.take copies a non-contiguous z (a column
    view) whole before it gathers, so such a z is indexed instead."""
    return np.take(z, rows, axis=0) if z.flags.c_contiguous else z[rows]


def _reduce(y: np.ndarray, z: np.ndarray, rows: np.ndarray, cols: np.ndarray,
            shift: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R, column minima, column maxima) of the rows [1, z[rows][:, cols], y]
    less [0, shift], y being the outcomes of the table rows ``rows``. Each
    row block is gathered from z, built column by column and QR-reduced in
    turn, and R is the QR of the stacked block triangles (``_stacked``)."""
    triangles, lo, hi = [], np.inf, -np.inf
    for span in _spans(rows.size):
        x = _shifted_block(_take(z, rows[span]), y[span], cols, shift)
        lo, hi = np.minimum(lo, x.min(axis=0)), np.maximum(hi, x.max(axis=0))
        triangles.append(np.linalg.qr(x, mode="r"))
        del x  # so that the next block is gathered with this one freed
    return _stacked(triangles), lo, hi


def _shifted_block(zb: np.ndarray, yb: np.ndarray, cols: np.ndarray,
                   shift: np.ndarray) -> np.ndarray:
    """[1, zb[:, cols], yb] less [0, shift], written column by column into
    one column-major matrix."""
    x = np.empty((yb.shape[0], cols.size + 2), order="F")
    x[:, 0] = 1.0
    for i, c in enumerate(cols):
        np.subtract(zb[:, c], shift[i], out=x[:, 1 + i])
    np.subtract(yb, shift[-1], out=x[:, -1])
    return x


def _stacked(triangles: list[np.ndarray]) -> np.ndarray:
    """R of the rows whose row blocks have these QR triangles: the one, or the
    QR of them stacked (TSQR; Demmel, Grigori, Hoemmen & Langou 2012)."""
    return triangles[0] if len(triangles) == 1 else np.linalg.qr(np.vstack(triangles), mode="r")


def _standardize(r: np.ndarray, m: int, keep: np.ndarray,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read the triangle r of m shifted rows [1, z, y] as standardized least squares:
    the shifted means of z and y (r's first row), the sds of z's ``keep``
    columns, and S, q with those standardized columns Q S and the centered
    outcome Q q for one orthonormal Q, so S'S = zs'zs and S'q = zs'yc."""
    offsets = r[0, 1:] / r[0, 0]
    t = r[1:, 1:]
    tz = t[:, :-1][:, keep]
    sds = np.sqrt(np.einsum("ij,ij->j", tz, tz) / m)
    return offsets, sds, tz / sds, t[:, -1]


def _svd_fit(spec: ModelSpec, s: np.ndarray, q: np.ndarray, m: int,
             ) -> tuple[np.ndarray, int | None, str | None]:
    """``ols`` or ``pcr`` slopes from the SVD of S, as (w, n_components, flag).
    S has the singular values of the m standardized rows: ``ols`` keeps those
    above lstsq's cutoff eps * max(m, p) * s_0, ``pcr`` those above 1e-12 * s_0."""
    u, sv, vt = np.linalg.svd(s, full_matrices=False)
    p, n_components, flag = s.shape[1], None, None
    if spec.kind == "ols":
        r = int(np.count_nonzero(sv > np.finfo(np.float64).eps * max(m, p) * sv[0]))
        flag = "rank_deficient" if r < p else None
    else:
        positive = int(np.count_nonzero(sv > sv[0] * 1e-12))
        if spec.n_components is not None:
            r = spec.n_components
            if r > positive:
                r, flag = positive, "pcr_rank_clamped"
        else:
            ratio = np.cumsum(sv ** 2) / np.sum(sv ** 2)
            r = min(int(np.searchsorted(ratio, _PCR_VARIANCE_SHARE - 1e-12) + 1), positive)
        n_components = r
    return vt[:r].T @ ((u[:, :r].T @ q) / sv[:r]), n_components, flag


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


def _paths(chains: list[tuple]) -> list[tuple[np.ndarray, np.ndarray]]:
    """The coefficients of each ``(gram, c, gammas, lam)`` chain at its gammas
    in order, each warm-started from the last and the first from zero, and
    whether the solver converged at each. ``lam`` is the chain's l1 share of
    the penalty, or None for ridge, which is solved in closed form; every
    other chain goes to one ``_coordinate_descent`` call."""
    out = [None] * len(chains)
    descent = []
    for i, (gram, c, gammas, lam) in enumerate(chains):
        if lam is None:  # (G + gamma I) w = c, every gamma in one stacked solve
            lhs = gram + np.asarray(gammas)[:, None, None] * np.eye(len(c))
            rhs = np.broadcast_to(c, (len(gammas), len(c)))[:, :, None]
            out[i] = np.linalg.solve(lhs, rhs)[:, :, 0], np.ones(len(gammas), dtype=bool)
        else:
            descent.append(i)
    if descent:
        for i, path in zip(descent, _coordinate_descent([chains[i] for i in descent])):
            out[i] = path
    return out


def _coordinate_descent(chains: list[tuple]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Cyclic coordinate descent for the elastic-net objective, covariance
    form, on many ``(gram, c, gammas, lam)`` gamma paths in lock step, each
    with its own l1 share ``lam``; returns ``_paths``' result.

    Each chain works on the moments G = S'S/m and c = S'q/m (Friedman, Hastie
    & Tibshirani 2010, "covariance updates"): the partial residual
    correlation of coordinate j is c_j - (Gw)_j + G_jj w_j, and G w is kept
    current with one row update per step, so a sweep costs O(K^2) whatever
    the number of rows. At gamma, a chain's l1 weight is gamma * lam and its
    l2 weight gamma * (1 - lam). A gamma is done after the first sweep whose
    largest coefficient change is below CD_TOL (converged), or after
    CD_MAX_SWEEPS sweeps (not); the chain then takes its next gamma, with G w
    recomputed from its own G, and leaves the batch after its last.

    All chains take coordinate j's step together in a few ufunc calls. They
    are padded to a common p with inert coordinates (unit diagonal, zero c
    and off-diagonal G), which never move. Each w_j keeps its sweep-start
    value until its step, so a sweep's G_jj w_j terms are formed in one
    product at its start. The soft threshold rho - clip(rho, -l1, l1) is
    +0.0 for |rho| <= l1, and a coefficient that stays put adds only a zero
    to G w, so each chain's coefficients are the ones it reaches alone
    (``tests/oracles.coordinate_descent``), whatever it is batched with, bit
    for bit; at l1 = 0 a zero may differ in sign.

    A zero w_j stays zero exactly when |c_j - (Gw)_j| <= l1, the KKT
    condition that screening rules test (Tibshirani et al. 2012, "Strong
    rules for discarding predictors in lasso-type problems"); here it is
    tested exactly, at the step's own time. So each sweep takes the runs of
    coordinates that are zero in every chain, padding included, and tests a
    run's coordinates at once when it reaches the run. Those before the
    first that would move in some chain are skipped, since a skipped step
    leaves G w as it is; that one is stepped, and the rest of the run is
    tested again.
    """
    out = [(np.empty((len(gammas), c.shape[0])), np.empty(len(gammas), dtype=bool))
           for _, c, gammas, _ in chains]
    ids = np.arange(len(chains))
    sizes = np.array([c.shape[0] for _, c, _, _ in chains], dtype=int)
    lengths = np.array([len(gammas) for _, _, gammas, _ in chains], dtype=int)
    n, p = ids.size, int(sizes.max(initial=0))
    # coordinate-major: g[j, :, b] is row j of chain b's G, w[j] coordinate j of every chain
    g, c = np.zeros((p, p, n)), np.zeros((p, n))
    g[np.arange(p), np.arange(p)] = 1.0
    for b, i in enumerate(ids):
        gram, cb, _, _ = chains[i]
        g[:sizes[b], :sizes[b], b], c[:sizes[b], b] = gram, cb
    diag = np.einsum("jjb->jb", g).copy()
    w, gw, dl2 = np.zeros((p, n)), np.zeros((p, n)), np.empty((p, n))
    l1, neg_l1 = np.empty(n), np.empty(n)
    step, sweeps = np.zeros(n, dtype=int), np.zeros(n, dtype=int)

    def start(b):
        """Set chain b to its next gamma, with G w from its own G."""
        i, size = ids[b], sizes[b]
        gamma, lam = chains[i][2][step[b]], chains[i][3]
        l1[b] = gamma * lam
        neg_l1[b] = -l1[b]
        dl2[:, b] = diag[:, b] + gamma * (1.0 - lam)
        gw[:size, b] = chains[i][0] @ w[:size, b].copy()
        sweeps[b] = 0

    def coordinates(zero):
        """The coordinates to step this sweep, in order. ``zero`` flags those
        zero in every chain at the sweep's start, and ends with False."""
        j = 0
        while j < p:
            if zero[j]:
                e = zero.index(False, j)
                # row-major over (coordinate, chain); a NaN counts as moving
                inert = (np.abs(c[j:e] - gw[j:e]) <= l1).ravel()
                f = int(inert.argmin())
                if inert[f]:
                    j = e
                    continue
                j += f // n
            yield j
            j += 1

    for b in range(n):
        start(b)
    subtract, multiply, add, maximum, minimum, divide = (
        np.subtract, np.multiply, np.add, np.maximum, np.minimum, np.divide)
    while n:
        rho, t, d, dg = np.empty(n), np.empty(n), np.empty(n), np.empty((p, n))
        dw, w_new = np.empty((p, n)), np.empty((p, n))
        # views of coordinate j's entries; w holds the coefficients at the sweep's start
        rows = list(zip(c, gw, dw, dl2, w, w_new, g))
        live = np.ones(n, dtype=bool)
        while live.all():
            multiply(diag, w, dw)
            w_new[...] = w
            for j in coordinates((w == 0).all(axis=1).tolist() + [False]):
                cj, gwj, dwj, dl2j, wj, new, gj = rows[j]
                subtract(cj, gwj, rho)
                add(rho, dwj, rho)
                minimum(maximum(rho, neg_l1, out=t), l1, out=t)
                subtract(rho, t, t)
                divide(t, dl2j, new)
                subtract(new, wj, d)
                multiply(gj, d, dg)
                add(gw, dg, gw)
            sweeps += 1
            delta = np.max(np.abs(w_new - w), axis=0, initial=0.0)
            w[...] = w_new
            for b in np.flatnonzero((delta < CD_TOL) | (sweeps >= CD_MAX_SWEEPS)):
                path, converged = out[ids[b]]
                path[step[b]], converged[step[b]] = w[:sizes[b], b], delta[b] < CD_TOL
                step[b] += 1
                if step[b] < lengths[b]:
                    start(b)
                else:
                    live[b] = False
        # drop the finished chains, and the padding no live chain needs
        ids, sizes, lengths, step, sweeps = (a[live] for a in (ids, sizes, lengths, step, sweeps))
        l1, neg_l1 = l1[live], neg_l1[live]
        n, p = ids.size, int(sizes.max(initial=0))
        g, c, diag, w, gw, dl2 = (a[..., live][:p] for a in (g, c, diag, w, gw, dl2))
        g = g[:, :p]
    return out


def _tweedie_deviance(y_term, y: np.ndarray, mu: np.ndarray, mu_power, p: float) -> float:
    """Total Tweedie deviance for power p in (1, 2); handles y = 0. The IRLS makes
    ``y_term`` = y^(2-p)/((1-p)(2-p)) once, and ``mu_power`` = mu^(2-p) its weights."""
    term = y_term - y * np.power(mu, 1.0 - p) / (1.0 - p) + mu_power / (2.0 - p)
    return float(2.0 * term.sum())


def _tweedie_irls(design, y: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Iteratively reweighted least squares for the log-link Tweedie GLM on the
    design [1, zs], whose rows ``design(span)`` gives per row block: (intercept,
    slopes, RSS of the final means). Each step solves on the R of [sw * design,
    sw * working] with lstsq's rank cutoff for all the rows, so a rank-deficient
    design keeps its minimum-norm answer. One pass over the row blocks builds
    each block's design once: it takes step i's linear predictor, and from its
    means the block's triangle for step i + 1, which goes unused once step i
    has converged."""
    y_bar = float(y.mean())
    if y_bar <= 0:
        raise ValidationError("tweedie with log link needs a positive mean outcome")
    spans = _spans(y.shape[0])
    p = _TWEEDIE_POWER
    y_term = np.power(y, 2.0 - p) / ((1.0 - p) * (2.0 - p))
    mu = (y + y_bar) / 2.0
    eta = np.log(mu)
    weights = np.power(mu, 2.0 - p)  # (dmu/deta)^2 / V(mu) at log link
    dev = _tweedie_deviance(y_term, y, mu, weights, p)

    def step(beta):
        """R of the next weighted least squares [sw * design, sw * working],
        after eta, mu and the weights are set from ``beta``, if given."""
        triangles = []
        for span in spans:
            x = design(span)
            if beta is not None:
                eta[span] = np.clip(x @ beta, -_ETA_CLIP, _ETA_CLIP)
                mu[span] = np.exp(eta[span])
                weights[span] = np.power(mu[span], 2.0 - p)
            sw = np.sqrt(weights[span])
            wx = np.empty((x.shape[0], x.shape[1] + 1), order="F")
            np.multiply(x, sw[:, None], out=wx[:, :-1])
            np.multiply(eta[span] + (y[span] - mu[span]) / mu[span], sw, out=wx[:, -1])
            triangles.append(np.linalg.qr(wx, mode="r"))
        return _stacked(triangles)

    r = step(None)
    for _ in range(IRLS_MAX_ITER):
        k = r.shape[1] - 1
        beta, *_ = np.linalg.lstsq(r[:, :k], r[:, k],
                                   rcond=np.finfo(np.float64).eps * max(y.shape[0], k))
        r = step(beta)
        new_dev = _tweedie_deviance(y_term, y, mu, weights, p)
        if abs(new_dev - dev) <= IRLS_TOL * max(1.0, abs(dev)):
            return float(beta[0]), beta[1:], float(np.sum((y - mu) ** 2))
        dev = new_dev
    raise ConvergenceError(
        f"tweedie IRLS did not converge in {IRLS_MAX_ITER} iterations",
        last_deviance=dev,
    )
