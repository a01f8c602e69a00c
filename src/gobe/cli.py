"""Command-line surface and batch orchestration.

Commands: ``estimate``, ``aa``, ``stress``, ``power``, ``simulate``,
``batch``. Options can come from an INI config file (sections ``[run]`` and
``[schema]``, keys named like the long flags without ``--``); explicit flags
override the file. All randomness flows from the single ``--seed`` recorded
in the run manifest, and re-running a command with the same config and seed
reproduces the report files byte for byte; timings and version stamps live
in the manifest only.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import aa as aa_mod
from . import dataset, power, report, stress
from .errors import MODEL_FAILURES, SchemaError, ValidationError
from .estimator import estimate, variance_reduction
from .regression import ModelSpec, parse_model, with_dim_baseline

ENV_OUT_DIR = "GOBE_OUT"
_RUN_KEYS = {
    "input", "out", "seed", "alpha", "models", "day", "arm", "s_splits",
    "kappa", "jobs", "folds", "draws", "reference_model", "delta",
    "power_target", "horizon", "experiments", "day_filters", "n_units",
    "assignment_prob", "k_covariates", "outcome_cor", "true_ate",
    "noise_sd", "daily_arrivals",
}
_SCHEMA_KEYS = {"assignment", "outcome", "covariates", "pre_period", "day", "unit_id"}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    started = time.perf_counter()
    try:
        options = _merge_options(args)
        out_dir = _resolve_out_dir(options)
        handler = _HANDLERS[args.command]
        handler(options, out_dir)
        report.write_manifest(
            out_dir / "manifest.json", args.command, options,
            seed=int(options.get("seed", 0)),
            timings_ms={"total": (time.perf_counter() - started) * 1e3},
        )
    except Exception as exc:  # argparse exits on its own errors before this
        _emit_error(exc, args)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gobe",
        description="Covariate-adjusted treatment effect estimation and auditing for A/B tests.",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p, with_input=True):
        p.add_argument("--config", help="INI config file; flags override it")
        if with_input:
            p.add_argument("--input", help="experiment CSV file")
            _schema_flags(p)
        p.add_argument("--out", help=f"output directory (default ${ENV_OUT_DIR} or ./gobe_out)")
        p.add_argument("--seed", type=int, help="master seed (default 0)")
        p.add_argument("--alpha", type=float, help="significance level (default 0.05)")
        p.add_argument("--models", help="comma-separated model names, e.g. dim,ols,ridge,"
                                        "lasso,elastic_net:0.5,pcr,tweedie,two_step:ols,ols@pre")

    p = sub.add_parser("estimate", help="treatment effect estimates for one experiment")
    common(p)
    p.add_argument("--day", type=int, help="analyze only units triggered by this day")

    p = sub.add_parser("aa", help="A/A re-randomization robustness audit of one arm")
    common(p)
    p.add_argument("--arm", type=int, help="arm to re-randomize (default 0)")
    p.add_argument("--s-splits", type=int, help="number of re-randomizations (default 1000)")
    p.add_argument("--kappa", type=int, help="imbalance buckets (default min(20, s-splits))")
    p.add_argument("--jobs", type=int, help="accepted and ignored: splits run serially")

    p = sub.add_parser("stress", help="spurious-covariate robustness and timing")
    common(p)
    p.add_argument("--folds", type=int, help="max spurious folds (default 5)")
    p.add_argument("--draws", type=int, help="Monte Carlo draws per fold count (default 100)")
    p.add_argument("--reference-model", help="ground-truth model (default ols)")

    p = sub.add_parser("power", help="duration recommendation from projected power")
    common(p)
    p.add_argument("--day", type=int, help="analysis day anchoring the forecast (required)")
    p.add_argument("--delta", type=float, help="hypothesized relative effect (required)")
    p.add_argument("--power-target", type=float, help="target power (default 0.8)")
    p.add_argument("--horizon", type=int, help="last day scanned (default 10x the analysis day)")

    p = sub.add_parser("simulate", help="write a synthetic experiment CSV")
    common(p, with_input=False)
    _simulate_flags(p)

    p = sub.add_parser("batch", help="simulate and analyze many experiments, then aggregate")
    common(p, with_input=False)
    _simulate_flags(p)
    p.add_argument("--experiments", type=int, help="number of experiments (default 3)")
    p.add_argument("--day-filters", help="comma-separated analysis days, e.g. 7,28")
    return parser


def _schema_flags(p):
    p.add_argument("--assignment-col", dest="schema_assignment", help="arm column name")
    p.add_argument("--outcome-col", dest="schema_outcome", help="outcome column name")
    p.add_argument("--covariate-cols", dest="schema_covariates",
                   help="comma-separated covariate column names")
    p.add_argument("--pre-period-col", dest="schema_pre_period",
                   help="which covariate column is the pre-period metric")
    p.add_argument("--day-col", dest="schema_day", help="optional day column name")
    p.add_argument("--unit-id-col", dest="schema_unit_id", help="optional id column name")


def _simulate_flags(p):
    p.add_argument("--n-units", type=int, help="units per experiment (default 1000)")
    p.add_argument("--assignment-prob", type=float, help="treatment probability (default 0.5)")
    p.add_argument("--k-covariates", type=int, help="covariate count (default 3)")
    p.add_argument("--outcome-cor", type=float, help="target corr(pre-period, outcome)")
    p.add_argument("--true-ate", type=float, help="injected additive effect (default 0)")
    p.add_argument("--noise-sd", type=float, help="outcome noise scale (default 1)")
    p.add_argument("--daily-arrivals", type=float, help="expected units per day (0 = no days)")


def _merge_options(args: argparse.Namespace) -> dict:
    """Config-file values overlaid with explicitly set CLI flags."""
    options: dict = {}
    schema: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        ini = configparser.ConfigParser()
        if not ini.read(config_path):
            raise ValidationError(f"config file {config_path!r} not found")
        for key, value in ini.items("run") if ini.has_section("run") else []:
            key = key.replace("-", "_")
            if key not in _RUN_KEYS:
                raise ValidationError(f"unknown [run] config key {key!r}")
            options[key] = value
        for key, value in ini.items("schema") if ini.has_section("schema") else []:
            if key not in _SCHEMA_KEYS:
                raise ValidationError(f"unknown [schema] config key {key!r}")
            schema[key] = value
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        if key.startswith("schema_"):
            schema[key[len("schema_"):]] = value
        else:
            options[key] = value
    if schema:
        options["schema"] = schema
    return options


def _resolve_out_dir(options: dict) -> Path:
    out = options.get("out") or os.environ.get(ENV_OUT_DIR) or "gobe_out"
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    options["out"] = str(out_dir)
    return out_dir


def _emit_error(exc: Exception, args: argparse.Namespace) -> None:
    doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    text = json.dumps(doc, indent=2)
    print(text, file=sys.stderr)
    out = getattr(args, "out", None) or os.environ.get(ENV_OUT_DIR)
    if out:
        try:
            Path(out).mkdir(parents=True, exist_ok=True)
            (Path(out) / "error.json").write_text(text + "\n", encoding="utf-8")
        except OSError:
            pass


def _load_input(options: dict) -> dataset.ExperimentData:
    path = options.get("input")
    if not path:
        raise ValidationError("--input (or config input=) is required")
    if not Path(path).exists():
        raise ValidationError(f"input file {path!r} does not exist")
    schema = options.get("schema") or {}
    for key in ("assignment", "outcome", "covariates", "pre_period"):
        if key not in schema:
            raise SchemaError(f"schema is missing the {key!r} column mapping")
    return dataset.load_csv(path, dataset.CsvSchema(
        assignment=schema["assignment"],
        outcome=schema["outcome"],
        covariates=tuple(_split_list(schema["covariates"])),
        pre_period=schema["pre_period"],
        day=schema.get("day"),
        unit_id=schema.get("unit_id"),
    ))


def _split_list(value) -> list[str]:
    if isinstance(value, (list, tuple)):
        return list(value)
    return [item.strip() for item in str(value).split(",") if item.strip()]


def _model_specs(options: dict, default: str = "dim,ols") -> list[ModelSpec]:
    return with_dim_baseline(_split_list(options.get("models", default)))


def _synthetic_config(options: dict, seed: int) -> dataset.SyntheticConfig:
    return dataset.SyntheticConfig(
        n_units=int(options.get("n_units", 1000)),
        assignment_prob=float(options.get("assignment_prob", 0.5)),
        k_covariates=int(options.get("k_covariates", 3)),
        outcome_cor=float(options.get("outcome_cor", 0.0)),
        true_ate=float(options.get("true_ate", 0.0)),
        noise_sd=float(options.get("noise_sd", 1.0)),
        daily_arrivals=float(options.get("daily_arrivals", 0.0)),
        seed=seed,
    )


@contextmanager
def _recording_failure(spec: ModelSpec, failures: list[dict]):
    """Record a non-baseline model's failure in ``failures``; the baseline's propagates."""
    try:
        yield
    except MODEL_FAILURES as exc:
        if spec.kind == "dim":
            raise
        failures.append({"model_id": spec.name, "type": type(exc).__name__,
                         "message": str(exc)})


def _estimate_doc(data: dataset.ExperimentData, specs: list[ModelSpec],
                  alpha: float, seed: int, day_filter: int | None) -> dict:
    """Estimates for every model; a non-baseline model failure is recorded
    instead of aborting the run."""
    estimates = []
    failures = []
    baseline = None
    for spec in specs:
        with _recording_failure(spec, failures):
            estimates.append(estimate(data, spec, alpha=alpha, seed=seed))
            if spec.kind == "dim" and baseline is None:
                baseline = estimates[-1]
    vr = {est.model_id: variance_reduction(est, baseline) for est in estimates}
    doc = {
        "kind": "estimate",
        "seed": seed,
        "alpha": alpha,
        "input": {
            "n_units": data.n_units,
            "k_covariates": data.k_covariates,
            "n_per_arm": list(data.arm_sizes()),
            "day_filter": day_filter,
        },
        "estimates": [report.ate_to_dict(est) for est in estimates],
        "variance_reduction": vr,
    }
    if failures:
        doc["failures"] = failures
    return doc


def _cmd_estimate(options: dict, out_dir: Path) -> None:
    data = _load_input(options)
    seed = int(options.get("seed", 0))
    alpha = float(options.get("alpha", 0.05))
    day = options.get("day")
    if day is not None:
        data = dataset.filter_by_day(data, int(day))
    doc = _estimate_doc(data, _model_specs(options), alpha, seed, None if day is None else int(day))
    report.write_report(doc, out_dir / "report.json")


def _cmd_aa(options: dict, out_dir: Path) -> None:
    data = _load_input(options)
    seed = int(options.get("seed", 0))
    run = aa_mod.run_aa(
        data,
        arm=int(options.get("arm", 0)),
        models=_model_specs(options),
        s_splits=int(options.get("s_splits", 1000)),
        alpha=float(options.get("alpha", 0.05)),
        seed=seed,
        kappa=None if options.get("kappa") is None else int(options["kappa"]),
        n_jobs=int(options.get("jobs", 1)),
    )
    metrics = aa_mod.bucket_metrics(run)
    aa_mod.write_splits_csv(run, out_dir / "aa_splits.csv")
    report.write_report(report.aa_to_dict(run, metrics, "aa_splits.csv"),
                        out_dir / "report.json")


def _cmd_stress(options: dict, out_dir: Path) -> None:
    data = _load_input(options)
    seed = int(options.get("seed", 0))
    config = stress.StressConfig(
        folds=int(options.get("folds", 5)),
        mc_draws=int(options.get("draws", 100)),
        models=tuple(_model_specs(options)),
        seed=seed,
        alpha=float(options.get("alpha", 0.05)),
        reference_model=parse_model(str(options.get("reference_model", "ols"))),
    )
    result = stress.error_distribution(data, config)
    _write_stress_csv(result, data.n_units, out_dir / "stress.csv")
    report.write_report(
        report.stress_to_dict(result, seed, config.mc_draws, "stress.csv"),
        out_dir / "report.json",
    )


def _write_stress_csv(result: stress.StressResult, n_units: int, path: Path) -> None:
    med_err = result.median_errors()
    med_vr = result.median_vr()
    med_ms = result.median_runtime_ms()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "folds", "n_units", "median_err", "median_vr", "runtime_ms"])
        for i, model_id in enumerate(result.model_ids):
            for j, fold in enumerate(result.fold_counts):
                ms = med_ms[i, j]
                writer.writerow([
                    model_id, fold, n_units,
                    repr(float(med_err[i, j])), repr(float(med_vr[i, j])),
                    "" if np.isnan(ms) else f"{ms:.3f}",
                ])


def _cmd_power(options: dict, out_dir: Path) -> None:
    data = _load_input(options)
    seed = int(options.get("seed", 0))
    alpha = float(options.get("alpha", 0.05))
    if "day" not in options:
        raise ValidationError("--day (analysis day) is required for power")
    if "delta" not in options:
        raise ValidationError("--delta (hypothesized relative effect) is required for power")
    day = int(options["day"])
    delta = float(options["delta"])
    target = float(options.get("power_target", 0.8))
    horizon = int(options["horizon"]) if "horizon" in options else None
    analysis = dataset.filter_by_day(data, day)
    forecast = power.forecast_arm_sizes(data, day, horizon)
    recs = []
    failures = []
    for spec in _model_specs(options):
        with _recording_failure(spec, failures):
            est = estimate(analysis, spec, alpha=alpha, seed=seed)
            recs.append(power.recommend_duration(est, forecast, delta, alpha, target))
    doc = {
        "kind": "power",
        "seed": seed,
        "anchor_day": day,
        "horizon": forecast.horizon,
        "delta": delta,
        "alpha": alpha,
        "target_power": target,
        "recommendations": [report.recommendation_to_dict(r) for r in recs],
    }
    if failures:
        doc["failures"] = failures
    report.write_report(doc, out_dir / "report.json")


def _cmd_simulate(options: dict, out_dir: Path) -> None:
    seed = int(options.get("seed", 0))
    config = _synthetic_config(options, seed)
    data = dataset.generate(config)
    dataset.write_csv(data, out_dir / "synthetic.csv")
    doc = {
        "kind": "simulate",
        "seed": seed,
        "config": {k: getattr(config, k) for k in (
            "n_units", "assignment_prob", "k_covariates", "outcome_cor",
            "true_ate", "noise_sd", "daily_arrivals", "seed")},
        "n_units": data.n_units,
        "n_per_arm": list(data.arm_sizes()),
        "csv": "synthetic.csv",
    }
    report.write_report(doc, out_dir / "report.json")


def _cmd_batch(options: dict, out_dir: Path) -> None:
    from .rng import child_seed

    seed = int(options.get("seed", 0))
    alpha = float(options.get("alpha", 0.05))
    n_experiments = int(options.get("experiments", 3))
    day_filters = [int(d) for d in _split_list(options.get("day_filters", ""))] or [None]
    if any(day_filters) and float(options.get("daily_arrivals", 0.0)) <= 0:
        options = dict(options)
        options["daily_arrivals"] = max(1.0, int(options.get("n_units", 1000)) / 28)
    specs = _model_specs(options)
    reports_dir = out_dir / "reports"
    reports_dir.mkdir(exist_ok=True)
    paths = []
    for w in range(n_experiments):
        data = dataset.generate(_synthetic_config(options, child_seed(seed, w)))
        for day in day_filters:
            subset = data if day is None else dataset.filter_by_day(data, day)
            doc = _estimate_doc(subset, specs, alpha, child_seed(seed, w), day)
            doc["experiment"] = w
            name = f"exp{w:03d}.json" if day is None else f"exp{w:03d}_day{day}.json"
            report.write_report(doc, reports_dir / name)
            paths.append(reports_dir / name)
    for name, (header, rows) in aggregate(paths).items():
        with open(out_dir / f"{name}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)


def aggregate(paths: list) -> dict[str, tuple[list[str], list[list]]]:
    """Meta-analysis tables over reports of one common kind.

    For estimate reports: per-model variance-reduction quartiles, overall
    and within sample-size quartile groups. For aa reports: quartiles across
    experiments of each per-experiment median relative metric. For power
    reports: quartiles of the day savings versus the baseline, plus counts
    of experiments that only the candidate can reject within each extra-days
    budget.
    """
    docs = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    if not docs:
        raise ValidationError("aggregate needs at least one report")
    kinds = {doc.get("kind") for doc in docs}
    if len(kinds) != 1:
        raise ValidationError(f"aggregate needs one report kind, got {sorted(kinds)}")
    kind = kinds.pop()
    if kind == "estimate":
        return {"aggregate": _aggregate_estimates(docs)}
    if kind == "aa":
        return {"aggregate": _aggregate_aa(docs)}
    if kind == "power":
        return {"aggregate": _aggregate_power_deltas(docs),
                "extra_days": _aggregate_power_budgets(docs)}
    raise ValidationError(f"aggregate does not support {kind!r} reports")


def _quartiles(values: np.ndarray) -> list[float]:
    return [float(np.min(values)), float(np.percentile(values, 25)),
            float(np.median(values)), float(np.percentile(values, 75)),
            float(np.max(values))]


def _aggregate_estimates(docs: list[dict]) -> tuple[list[str], list[list]]:
    header = ["group", "model", "n_experiments",
              "vr_min", "vr_q25", "vr_median", "vr_q75", "vr_max"]
    sizes = np.array([doc["input"]["n_units"] for doc in docs])
    groups: dict[str, list[int]] = {"all": list(range(len(docs)))}
    if len(docs) >= 4:
        order = np.argsort(sizes, kind="stable")
        for q, chunk in enumerate(np.array_split(order, 4), start=1):
            groups[f"size_q{q}"] = [int(i) for i in chunk]
    models = list(dict.fromkeys(mid for doc in docs for mid in doc["variance_reduction"]))
    rows = []
    for group, idx in groups.items():
        for mid in models:
            values = np.array([
                docs[i]["variance_reduction"][mid]
                for i in idx
                if docs[i]["variance_reduction"].get(mid) is not None
            ])
            if values.size == 0:
                continue
            rows.append([group, mid, int(values.size), *_quartiles(values)])
    return header, rows


def _aggregate_aa(docs: list[dict]) -> tuple[list[str], list[list]]:
    header = ["model", "metric", "n_experiments", "q25", "median", "q75"]
    rows = []
    metrics = ("r_mse", "r_median_dist", "r_excess_frac", "coverage")
    models = list(dict.fromkeys(mid for doc in docs for mid in doc["bucket_metrics"]["per_model"]))
    for mid in models:
        for metric in metrics:
            values = []
            for doc in docs:
                block = doc["bucket_metrics"]["per_model"].get(mid)
                if block is None or metric not in block:
                    continue
                finite = [v for v in block[metric] if v is not None]
                if finite:
                    values.append(float(np.median(finite)))
            if values:
                arr = np.array(values)
                rows.append([mid, metric, len(values),
                             float(np.percentile(arr, 25)), float(np.median(arr)),
                             float(np.percentile(arr, 75))])
    return header, rows


def _aggregate_power_deltas(docs: list[dict]) -> tuple[list[str], list[list]]:
    header = ["model", "n_experiments", "days_saved_q25", "days_saved_median", "days_saved_q75"]
    deltas: dict[str, list[float]] = {}
    for doc in docs:
        recs = {r["model_id"]: r for r in doc["recommendations"]}
        dim = recs.get("dim")
        if dim is None or dim["D_prime"] is None:
            continue
        for mid, rec in recs.items():
            if mid == "dim" or rec["D_prime"] is None:
                continue
            deltas.setdefault(mid, []).append(dim["D_prime"] - rec["D_prime"])
    rows = []
    for mid, values in deltas.items():
        arr = np.array(values)
        rows.append([mid, len(values), float(np.percentile(arr, 25)),
                     float(np.median(arr)), float(np.percentile(arr, 75))])
    return header, rows


def _aggregate_power_budgets(docs: list[dict]) -> tuple[list[str], list[list]]:
    header = ["model", "extra_days", "n_reject_model_not_dim"]
    horizon = max((doc["horizon"] - doc["anchor_day"] for doc in docs), default=0)
    models = list(dict.fromkeys(rec["model_id"] for doc in docs for rec in doc["recommendations"]
                                if rec["model_id"] != "dim"))
    rows = []
    for mid in models:
        for budget in range(1, horizon + 1):
            count = 0
            for doc in docs:
                recs = {r["model_id"]: r for r in doc["recommendations"]}
                rec, dim = recs.get(mid), recs.get("dim")
                if rec is None or rec["D_prime"] is None:
                    continue
                cutoff = doc["anchor_day"] + budget
                model_ok = rec["D_prime"] <= cutoff
                dim_ok = dim is not None and dim["D_prime"] is not None and dim["D_prime"] <= cutoff
                if model_ok and not dim_ok:
                    count += 1
            rows.append([mid, budget, count])
    return header, rows


_HANDLERS = {
    "estimate": _cmd_estimate,
    "aa": _cmd_aa,
    "stress": _cmd_stress,
    "power": _cmd_power,
    "simulate": _cmd_simulate,
    "batch": _cmd_batch,
}


if __name__ == "__main__":
    sys.exit(main())
