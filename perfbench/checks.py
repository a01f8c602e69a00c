"""Output checks on a plain pass, built on the oracles in ``tests/oracles.py``.

Every check is one operation in the result's ``attempted`` count and a
failing check counts in ``failed``. The input CSV is re-read here with
``numpy.loadtxt``, not with gobe's loader, so the oracles see the raw table.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import jsonschema
import numpy as np

from gobe import dataset, estimator, stress
from gobe.rng import child_seed
from oracles import closed_form_day, dim_ate, lin_interacted_ate

COVERAGE_SIGMAS = 4.0  # binomial band for pooled A/A coverage


def run_checks(root: Path, input_path: Path, argv_list: list[list[str]]) -> list[dict]:
    schema = json.loads((root / "src/gobe/schemas/report.schema.json").read_text(encoding="utf-8"))
    table = _read_table(input_path)
    results = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        results.append({"name": name, "ok": bool(ok), "detail": detail})

    for argv in argv_list:
        opts = _options(argv)
        cmd_out = Path(opts["out"])
        doc = json.loads((cmd_out / "report.json").read_text(encoding="utf-8"))
        try:
            jsonschema.validate(doc, schema)
            check(f"{argv[0]}: report validates against the shipped schema", True, "ok")
        except jsonschema.ValidationError as exc:
            check(f"{argv[0]}: report validates against the shipped schema", False, exc.message)
        {"estimate": _check_estimate, "power": _check_power, "aa": _check_aa,
         "stress": _check_stress}[argv[0]](check, doc, table, opts, cmd_out)
    return results


def _read_table(path: Path) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: raw[:, i] for i, name in enumerate(header)}


def _options(argv: list[str]) -> dict[str, str]:
    return {argv[i][2:].replace("-", "_"): argv[i + 1]
            for i in range(1, len(argv) - 1) if argv[i].startswith("--")}


def _columns(table, opts):
    y = table[opts["outcome_col"]]
    j = table[opts["assignment_col"]].astype(np.int8)
    names = opts["covariate_cols"].split(",")
    z = np.column_stack([table[c] for c in names])
    return y, j, z, names.index(opts["pre_period_col"])


def _by_model(items):
    return {item["model_id"]: item for item in items}


def _check_estimate(check, doc, table, opts, out):
    y, j, z, _ = _columns(table, opts)
    est = _by_model(doc["estimates"])
    gap = abs(est["ols"]["ate"] - lin_interacted_ate(y, j, z))
    check("estimate: ols ATE equals the interacted-regression oracle within 1e-8", gap < 1e-8,
          f"|diff|={gap:.2e}")
    gap = abs(est["dim"]["ate"] - dim_ate(y, j))
    check("estimate: dim ATE equals the difference of means within 1e-12", gap < 1e-12,
          f"|diff|={gap:.2e}")


def _check_power(check, doc, table, opts, out):
    y, j, z, pre = _columns(table, opts)
    day = int(opts["day"])
    delta = float(opts["delta"])
    seed = int(opts["seed"])
    alpha = doc["alpha"]
    seen = table[opts["day_col"]] <= day
    analysis = dataset.ExperimentData(unit_ids=np.arange(int(seen.sum())), assignment=j[seen],
                                      outcome=y[seen], covariates=z[seen], pre_period_col=pre)
    n0 = int(np.count_nonzero(j[seen] == 0))
    n1 = int(np.count_nonzero(j[seen] == 1))
    effect = delta * abs(float(y[seen & (j == 0)].mean()))
    for rec in doc["recommendations"]:
        mse0, mse1 = estimator.estimate(analysis, rec["model_id"], alpha=alpha, seed=seed).mse_per_arm
        oracle = closed_form_day(mse0, mse1, n0, n1, day, effect, alpha, doc["target_power"])
        found = rec["D_prime"]
        ok = oracle > doc["horizon"] if found is None else abs(found - oracle) <= 1
        check(f"power: {rec['model_id']} D_prime within 1 day of the closed form "
              "(none past the horizon)", ok, f"D_prime={found}, oracle={oracle}")


def _check_aa(check, doc, table, opts, out):
    s = doc["s_splits"]
    alpha = doc["alpha"]
    half_width = COVERAGE_SIGMAS * math.sqrt(alpha * (1 - alpha) / s)
    for model in ("dim", "ols"):
        cov = doc["pooled_coverage"][model]
        check(f"aa: {model} pooled coverage within {COVERAGE_SIGMAS:g} binomial sd of 1-alpha",
              cov is not None and abs(cov - (1 - alpha)) <= half_width,
              f"coverage={cov}, band=1-alpha+-{half_width:.4f}")
    with open(out / doc["splits_csv"], encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1
    expected = s * len(doc["models"])
    check("aa: aa_splits.csv has S x M data rows", rows == expected, f"{rows} vs {expected}")


def _check_stress(check, doc, table, opts, out):
    y, j, z, pre = _columns(table, opts)
    seed = int(opts["seed"])
    folds = int(opts["folds"])
    data = dataset.ExperimentData(unit_ids=np.arange(y.shape[0]), assignment=j, outcome=y,
                                  covariates=z, pre_period_col=pre)
    plain = estimator.estimate(data, "dim", seed=seed)
    noisy = estimator.estimate(stress.augment(data, folds, seed=child_seed(seed, 0)), "dim", seed=seed)
    check("stress: dim estimate bit-identical with and without noise folds",
          plain.ate == noisy.ate and plain.variance == noisy.variance,
          f"ate {plain.ate!r} vs {noisy.ate!r}")
    vr = doc["median_vr"]["dim"]
    err = doc["median_err"]["dim"]
    check("stress: reported dim variance reduction is 0 and its error flat across folds",
          all(v == 0.0 for v in vr) and len(set(err)) == 1, f"vr={vr}, err={err}")
