"""Independent reference implementations used to check the library.

Everything here goes straight at raw design matrices with numpy/scipy and
never calls into the package's fitting code, so a bug cannot hide on both
sides of a comparison. The one exception is ``per_split_reference``: the A/A
audit as one ``estimate`` per relabelled dataset, the row path that the
audit's arm-block and moment-form splits are held to.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.stats import norm

from gobe.dataset import restrict_to_arm, with_assignment
from gobe.errors import MODEL_FAILURES
from gobe.estimator import estimate
from gobe.regression import with_dim_baseline
from gobe.rng import child_rng, child_seed


def lin_interacted_ate(y, j, z):
    """ATE as the treatment coefficient of the single interacted regression
    y ~ 1 + j + z + j*(z - mean(z))."""
    y = np.asarray(y, float)
    j = np.asarray(j, float)
    z = np.atleast_2d(np.asarray(z, float))
    zc = z - z.mean(axis=0)
    design = np.column_stack([np.ones(y.shape[0]), j, z, j[:, None] * zc])
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(beta[1])


def dim_ate(y, j):
    """Plain difference of observed arm means."""
    y = np.asarray(y, float)
    j = np.asarray(j)
    return float(y[j == 1].mean() - y[j == 0].mean())


def gobe_ols_ate(y, j, z):
    """Imputation estimator with raw per-arm least squares (with intercept)."""
    y = np.asarray(y, float)
    j = np.asarray(j)
    z = np.asarray(z, float)
    full = np.column_stack([np.ones(y.shape[0]), z])
    out = np.empty((y.shape[0], 2))
    for t in (0, 1):
        mask = j == t
        beta, *_ = np.linalg.lstsq(full[mask], y[mask], rcond=None)
        out[:, t] = full @ beta
        out[mask, t] = y[mask]
    return float(np.mean(out[:, 1] - out[:, 0]))


def exact_ols_ate(y, j, z):
    """The per-arm ``ols`` imputation ATE in exact rational arithmetic, as a
    ``Fraction``. Every float is an integer over one common power of two, so
    each arm's centered normal equations are integers; Gauss-Jordan
    elimination over ``Fraction`` solves them (full-rank arms assumed). The
    ATE is the mean over all units of the treated-arm value less the
    control-arm value, each unit's own outcome standing in for its own arm's
    prediction; the predictions are summed over each arm's rows."""
    ratios = [[v.as_integer_ratio() for v in row] for row in np.column_stack([z, y]).tolist()]
    scale = max(d for row in ratios for _, d in row)
    w = [[n * (scale // d) for n, d in row] for row in ratios]  # [z, y] * scale
    k = len(w[0]) - 1
    arms = [[r for r, t in zip(w, j) if t == arm] for arm in (0, 1)]
    sums = [[sum(r[c] for r in rows) for c in range(k + 1)] for rows in arms]
    fits = []
    for rows, s in zip(arms, sums):
        m = len(rows)
        a = [[Fraction(m * sum(r[c] * r[d] for r in rows) - s[c] * s[d]) for d in range(k + 1)]
             for c in range(k)]
        for c in range(k):
            p = next(i for i in range(c, k) if a[i][c] != 0)
            a[c], a[p] = a[p], a[c]
            a[c] = [v / a[c][c] for v in a[c]]
            for i in range(k):
                if i != c and a[i][c] != 0:
                    a[i] = [v - a[i][c] * u for v, u in zip(a[i], a[c])]
        fits.append(([Fraction(v, m) for v in s], [a[c][k] for c in range(k)]))

    def predicted_sum(t, s, n):
        """Sum of arm t's predictions over n rows whose [z, y] column sums are s."""
        means, b = fits[t]
        return n * means[k] + sum(bc * (s[c] - n * means[c]) for c, bc in enumerate(b))

    (n0, n1), (s0, s1) = (len(rows) for rows in arms), sums
    total = (s1[k] - predicted_sum(0, s1, n1)) + (predicted_sum(1, s0, n0) - s0[k])
    return total / (len(w) * scale)


def ridge_standardized(y, z, gamma):
    """Closed-form ridge coefficients in standardized space, mean-loss scaling."""
    y = np.asarray(y, float)
    z = np.asarray(z, float)
    m = y.shape[0]
    zs = (z - z.mean(axis=0)) / z.std(axis=0)
    a = zs.T @ zs + m * gamma * np.eye(zs.shape[1])
    return np.linalg.solve(a, zs.T @ (y - y.mean()))


def z_quantile(p):
    return float(norm.ppf(p))


def two_sample_power(variance, effect, alpha):
    return float(norm.cdf(abs(effect) / math.sqrt(variance) - norm.ppf(1 - alpha / 2)))


def closed_form_day(mse0, mse1, n0_anchor, n1_anchor, anchor_day, effect,
                    alpha, target_power):
    """First day at which linearly growing arms reach the target power.

    Valid when both arms grow proportionally to d / anchor_day, in which
    case V(d) = (anchor_day / d) * V(anchor_day) and the power condition
    inverts in closed form.
    """
    v_anchor = mse1 / n1_anchor + mse0 / n0_anchor
    z_need = norm.ppf(1 - alpha / 2) + norm.ppf(target_power)
    d_star = anchor_day * v_anchor * z_need ** 2 / effect ** 2
    return max(int(math.ceil(d_star)), anchor_day + 1)


# --- row-space penalized fits -------------------------------------------------
# The elastic-net path as it is defined on the rows: cyclic coordinate descent
# that keeps the full residual vector, and k-fold CV that refits each fold from
# its rows. The same tolerance, sweep cap, fold partition, warm starts and
# tie-break as the package, so results agree up to rounding.

CD_TOL = 1e-8
CD_MAX_SWEEPS = 10_000


def rowspace_coordinate_descent(zs, yc, gamma, lam, w0=None):
    """Elastic-net coefficients on standardized rows; returns (w, converged)."""
    m, p = zs.shape
    col_scale = np.einsum("ij,ij->j", zs, zs) / m
    w = np.zeros(p) if w0 is None else w0.copy()
    resid = yc - zs @ w
    l1, l2 = gamma * lam, gamma * (1.0 - lam)
    for _ in range(CD_MAX_SWEEPS):
        delta = 0.0
        for j in range(p):
            wj = w[j]
            rho = zs[:, j] @ resid / m + col_scale[j] * wj
            new = np.sign(rho) * max(abs(rho) - l1, 0.0) / (col_scale[j] + l2)
            if new != wj:
                resid += zs[:, j] * (wj - new)
                w[j] = new
                delta = max(delta, abs(new - wj))
        if delta < CD_TOL:
            return w, True
    return w, False


# --- serial coordinate descent -----------------------------------------------
# The covariance-form elastic-net solver on one chain at a time, with the
# tolerance and sweep cap above.

def coordinate_descent(gram, c, gamma, lam, w0=None, trace=None):
    """Cyclic coordinate descent for the elastic-net objective, covariance form.

    Works on the moments G = S'S/m and c = S'q/m (Friedman, Hastie &
    Tibshirani 2010, "covariance updates"): the partial residual correlation of
    coordinate j is c_j - (Gw)_j + G_jj w_j, and G w is kept current with one
    column update per changed coefficient, so a sweep costs O(K^2) whatever
    the number of rows. Stops when the largest coefficient change in a sweep
    drops below CD_TOL, or after CD_MAX_SWEEPS sweeps (reported via the
    returned flag). ``trace`` collects the coefficient vector after each sweep.
    The package's lock-step kernel runs many of these chains at once and is
    held to this one-chain form bit for bit.
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
            new = (rho - l1 if rho > l1 else rho + l1 if rho < -l1 else 0.0) / (diag[j] + l2)
            if new != wj:
                gw += gram[j] * (new - wj)  # G is symmetric: row j is column j
                w[j] = new
                delta = max(delta, abs(new - wj))
        if trace is not None:
            trace.append(np.array(w))
        if delta < CD_TOL:
            return np.array(w), True
    return np.array(w), False


def coordinate_descent_path(gram, c, gammas, lam):
    """``coordinate_descent`` at each gamma in order, each warm-started from
    the last and the first from zero: (coefficients per gamma, converged per
    gamma)."""
    w = np.zeros(c.shape[0])
    path, converged = np.empty((len(gammas), c.shape[0])), np.empty(len(gammas), dtype=bool)
    for i, gamma in enumerate(gammas):
        w, converged[i] = coordinate_descent(gram, c, gamma, lam, w0=w)
        path[i] = w
    return path, converged


def penalized_objective(zs, yc, w, gamma, lam):
    """The objective the penalized kinds minimize, on standardized rows zs
    and the centered outcome yc."""
    m = zs.shape[0]
    resid = yc - zs @ w
    return float(resid @ resid / (2 * m)
                 + gamma * (lam * np.abs(w).sum() + 0.5 * (1 - lam) * (w @ w)))


def rowspace_penalized(zs, yc, gamma, lam, w0=None):
    """Ridge in closed form on the rows (lam = None), else coordinate descent."""
    if lam is None:
        m, p = zs.shape
        return np.linalg.solve(zs.T @ zs + m * gamma * np.eye(p), zs.T @ yc), True
    return rowspace_coordinate_descent(zs, yc, gamma, lam, w0=w0)


def _standardize(z, like):
    """z standardized by the columns of ``like`` that vary (minimum below maximum)."""
    keep = like.min(axis=0) != like.max(axis=0)
    return (z[:, keep] - like.mean(axis=0)[keep]) / like.std(axis=0)[keep]


def rowspace_cross_validate(y, z, grid, lam, folds=5, seed=0):
    """(chosen gamma, ((gamma, mean out-of-fold R^2), ...)) by row-space refits."""
    y = np.asarray(y, float)
    z = np.asarray(z, float)
    m = y.shape[0]
    order = np.argsort(grid)[::-1]
    parts = np.array_split(np.random.default_rng(seed).permutation(m), folds)
    scores = np.zeros(len(grid))
    for part in parts:
        test = np.zeros(m, dtype=bool)
        test[part] = True
        zs_tr, zs_te = _standardize(z[~test], z[~test]), _standardize(z[test], z[~test])
        y_tr, y_te = y[~test], y[test]
        w = np.zeros(zs_tr.shape[1])
        for idx in order:
            w, _ = rowspace_penalized(zs_tr, y_tr - y_tr.mean(), grid[idx], lam, w0=w)
            ss_tot = np.sum((y_te - y_te.mean()) ** 2)
            pred = y_tr.mean() + zs_te @ w
            scores[idx] += 0.0 if ss_tot == 0 else 1.0 - np.sum((y_te - pred) ** 2) / ss_tot
    scores /= folds
    best = max(order, key=lambda idx: (scores[idx], grid[idx]))
    return grid[best], tuple((float(grid[i]), float(scores[i])) for i in range(len(grid)))


def rowspace_fit(y, z, grid, lam, folds=5, seed=0):
    """(chosen gamma, cv scores or None, standardized coefficients, converged)
    for the non-constant columns, with the grid given explicitly."""
    y = np.asarray(y, float)
    z = np.asarray(z, float)
    keep = z.min(axis=0) != z.max(axis=0)
    scores = None
    gamma = grid[0]
    if len(grid) > 1:
        gamma, scores = rowspace_cross_validate(y, z[:, keep], grid, lam, folds, seed)
    w, converged = rowspace_penalized(_standardize(z[:, keep], z[:, keep]), y - y.mean(),
                                      gamma, lam)
    return gamma, scores, w, converged


# --- row-space ols and pcr ---------------------------------------------------
# Least squares and principal components straight from the standardized rows:
# lstsq with its default cutoff, and the SVD of the rows. Constant columns are
# those whose minimum equals their maximum.

def rowspace_ols(zs, yc):
    """Minimum-norm least squares via SVD; returns (w, rank)."""
    w, _, rank, _ = np.linalg.lstsq(zs, yc, rcond=None)
    return w, int(rank)


def rowspace_pcr(zs, yc, n_components=None, variance_share=0.90):
    """OLS on the leading principal-component scores of the rows; returns
    (w, number of components, whether n_components was clamped to the rank)."""
    u, s, vt = np.linalg.svd(zs, full_matrices=False)
    positive = int(np.count_nonzero(s > s[0] * 1e-12)) if s.size and s[0] > 0 else 0
    if positive == 0:
        return np.zeros(zs.shape[1]), 0, False
    clamped = False
    if n_components is not None:
        r = n_components
        if r > positive:
            r, clamped = positive, True
    else:
        ratio = np.cumsum(s ** 2) / np.sum(s ** 2)
        r = min(int(np.searchsorted(ratio, variance_share - 1e-12) + 1), positive)
    return vt[:r].T @ ((u[:, :r].T @ yc) / s[:r]), r, clamped


def rowspace_linear_fit(y, z, kind, n_components=None):
    """(standardized coefficients of the non-constant columns, flags,
    n_components) of ``ols`` or ``pcr``, as ``fit`` reports them."""
    y = np.asarray(y, float)
    z = np.asarray(z, float)
    keep = z.min(axis=0) != z.max(axis=0)
    zk = z[:, keep]
    zs = (zk - zk.mean(axis=0)) / zk.std(axis=0)
    yc = y - y.mean()
    flags = () if keep.all() else ("dropped_zero_variance",)
    if kind == "ols":
        w, rank = rowspace_ols(zs, yc)
        return w, flags + (("rank_deficient",) if rank < zs.shape[1] else ()), None
    w, r, clamped = rowspace_pcr(zs, yc, n_components)
    return w, flags + (("pcr_rank_clamped",) if clamped else ()), r


# --- tweedie on the raw rows -------------------------------------------------

def tweedie_irls(y, z, power=1.5, tol=1e-10, max_iter=100):
    """The log-link Tweedie GLM by plain IRLS on the raw rows [1, z]:
    (intercept, slopes, RSS of the final means). It starts from the means
    (y + mean(y))/2; each step is the lstsq of the sqrt(w)-weighted rows on
    the weighted working response, w = mu^(2 - power); it stops at the first
    step whose deviance moves by at most tol * max(1, |previous deviance|)."""
    y = np.asarray(y, float)
    x = np.column_stack([np.ones(y.shape[0]), np.asarray(z, float)])
    p = power

    def deviance(mu):
        return 2.0 * np.sum(y ** (2 - p) / ((1 - p) * (2 - p)) - y * mu ** (1 - p) / (1 - p)
                            + mu ** (2 - p) / (2 - p))

    mu = (y + y.mean()) / 2.0
    eta, dev = np.log(mu), deviance(mu)
    for _ in range(max_iter):
        sw = np.sqrt(mu ** (2 - p))
        beta, *_ = np.linalg.lstsq(x * sw[:, None], (eta + (y - mu) / mu) * sw, rcond=None)
        eta = x @ beta
        mu = np.exp(eta)
        new_dev = deviance(mu)
        if abs(new_dev - dev) <= tol * max(1.0, abs(dev)):
            return float(beta[0]), beta[1:], float(np.sum((y - mu) ** 2))
        dev = new_dev
    raise RuntimeError(f"tweedie IRLS did not converge in {max_iter} iterations")


# --- A/A splits on the row path ----------------------------------------------

def per_split_reference(data, arm, models, s_splits, alpha, seed):
    """Each split relabels the arm, rebuilds the dataset and estimates every
    model on it: the loop ``run_aa`` reproduces, bit for bit for the splits
    it fits from rows and within its stated tolerance for the moment form."""
    restricted = restrict_to_arm(data, arm)
    specs = with_dim_baseline(models)
    n, x = restricted.n_units, restricted.pre_period
    zeta = np.empty(s_splits)
    ate, ci_lo, ci_hi = (np.full((s_splits, len(specs)), np.nan) for _ in range(3))
    failed = np.zeros((s_splits, len(specs)), dtype=bool)
    for s in range(s_splits):
        perm = child_rng(seed, s).permutation(n)
        assignment = np.zeros(n, dtype=np.int8)
        assignment[perm[: n // 2]] = 1
        zeta[s] = float(x[assignment == 1].mean() - x[assignment == 0].mean())
        split_data = with_assignment(restricted, assignment)
        for j, spec in enumerate(specs):
            try:
                est = estimate(split_data, spec, alpha=alpha, seed=child_seed(seed, s, j))
            except MODEL_FAILURES:
                failed[s, j] = True
                continue
            ate[s, j] = est.ate
            ci_lo[s, j], ci_hi[s, j] = est.ci
    return zeta, ate, ci_lo, ci_hi, failed
