"""Command-line surface: argument handling and command orchestration.

Commands: ``estimate``, ``aa``, ``stress``, ``power``, ``simulate``,
``batch``. ``batch`` writes one estimate report per experiment and day filter
(or, for a subset too small to estimate, its ``.error.json``), and
``aggregate.csv``: per-model variance-reduction quartiles, overall and by
size quartile, whose ``n_experiments`` counts those reports.

Options can come from an INI config file: a ``[run]`` key is named like the
command's long flag without ``--``, a ``[schema]`` key like the column flag
without ``--`` and ``-col``/``-cols``. Each value is parsed like its flag, a
key the command has no flag for is an error, and explicit flags override the
file. All randomness flows from the single ``--seed`` recorded in the run
manifest, and re-running a command with the same config and seed reproduces
the report files byte for byte; timings and version stamps live in the
manifest only. Each handler computes and returns its report document,
laid out by ``report``, for ``main`` to write; ``report`` also lays out and
writes every other file.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import aa as aa_mod
from . import dataset, power, report, stress
from .errors import SchemaError, ValidationError
from .estimator import (AteEstimate, check_alpha, checked_arms, estimate_specs,
                        variance_reduction)
from .regression import ModelSpec, parse_model, with_dim_baseline
from .rng import child_seed

ENV_OUT_DIR = "GOBE_OUT"


def main(argv: list[str] | None = None) -> int:
    parser, commands = _parsers()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    started = time.perf_counter()
    try:
        if args.config:
            # string defaults go through each option's type, as flag values do
            commands[args.command].set_defaults(**_config_values(args))
            args = parser.parse_args(argv)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        doc = _HANDLERS[args.command](args, out_dir)
        if doc is not None:  # every command but batch
            report.write_report(doc, out_dir / "report.json")
        report.write_manifest(
            out_dir / "manifest.json", args.command, vars(args), seed=args.seed,
            timings_ms={"total": (time.perf_counter() - started) * 1e3},
        )
    except Exception as exc:  # a bad flag or config value exits in argparse instead
        _emit_error(exc, args.out)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    return _parsers()[0]


def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The ``gobe`` parser and each command's subparser by name.

    Every option default is stated here and only here.
    """
    parser = argparse.ArgumentParser(
        prog="gobe",
        description="Covariate-adjusted treatment effect estimation and auditing for A/B tests.",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p, with_input=True, with_models=True):
        p.add_argument("--config", help="INI config file; flags override it")
        if with_input:
            p.add_argument("--input", help="experiment CSV file")
            _schema_flags(p)
        p.add_argument("--out", default=os.environ.get(ENV_OUT_DIR) or "gobe_out",
                       help=f"output directory (default %(default)s, from ${ENV_OUT_DIR} if set)")
        p.add_argument("--seed", type=int, default=0, help="master seed (default %(default)s)")
        if with_models:
            p.add_argument("--alpha", type=float, default=0.05,
                           help="significance level (default %(default)s)")
            p.add_argument("--models", default="dim,ols",
                           help="comma-separated model names (default %(default)s; others: "
                                "ridge, lasso, elastic_net:0.5, pcr, tweedie, two_step:ols, "
                                "ols@pre)")

    p = sub.add_parser("estimate", help="treatment effect estimates for one experiment")
    common(p)
    p.add_argument("--day", type=int, help="analyze only units triggered by this day")

    p = sub.add_parser("aa", help="A/A re-randomization robustness audit of one arm")
    common(p)
    p.add_argument("--arm", type=int, default=0, help="arm to re-randomize (default %(default)s)")
    p.add_argument("--s-splits", type=int, default=1000,
                   help="number of re-randomizations (default %(default)s)")
    p.add_argument("--kappa", type=int, help="imbalance buckets (default min(20, s-splits))")
    p.add_argument("--jobs", type=int, help="accepted and ignored: splits run serially")

    p = sub.add_parser("stress", help="spurious-covariate robustness and timing")
    common(p)
    p.add_argument("--folds", type=int, default=5, help="max spurious folds (default %(default)s)")
    p.add_argument("--draws", type=int, default=100,
                   help="Monte Carlo draws per fold count (default %(default)s)")
    p.add_argument("--reference-model", default="ols",
                   help="ground-truth model (default %(default)s)")

    p = sub.add_parser("power", help="duration recommendation from projected power")
    common(p)
    p.add_argument("--day", type=int, help="analysis day anchoring the forecast (required)")
    p.add_argument("--delta", type=float, help="hypothesized relative effect (required)")
    p.add_argument("--power-target", type=float, default=0.8,
                   help="target power (default %(default)s)")
    p.add_argument("--horizon", type=int, help="last day scanned (default "
                   f"{power.DEFAULT_HORIZON_FACTOR}x the analysis day)")

    p = sub.add_parser("simulate", help="write a synthetic experiment CSV")
    common(p, with_input=False, with_models=False)
    _simulate_flags(p)

    p = sub.add_parser("batch", help="simulate and analyze many experiments, then aggregate")
    common(p, with_input=False)
    _simulate_flags(p)
    p.add_argument("--experiments", type=int, default=3,
                   help="number of experiments (default %(default)s)")
    p.add_argument("--day-filters", type=_day_list, default=[],
                   help="comma-separated analysis days, e.g. 7,28 (default: no filter); with "
                        "--daily-arrivals 0, units arrive max(1, n-units/28) a day")
    return parser, sub.choices


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
    """Flags named after the ``SyntheticConfig`` fields they set."""
    p.add_argument("--n-units", type=int, default=1000,
                   help="units per experiment (default %(default)s)")
    p.add_argument("--assignment-prob", type=float, default=0.5,
                   help="treatment probability (default %(default)s)")
    p.add_argument("--k-covariates", type=int, default=3,
                   help="covariate count (default %(default)s)")
    p.add_argument("--outcome-cor", type=float, default=0.0,
                   help="target corr(pre-period, outcome) (default %(default)s)")
    p.add_argument("--true-ate", type=float, default=0.0,
                   help="injected additive effect (default %(default)s)")
    p.add_argument("--noise-sd", type=float, default=1.0,
                   help="outcome noise scale (default %(default)s)")
    p.add_argument("--daily-arrivals", type=float, default=0.0,
                   help="expected units per day, 0 = no days (default %(default)s)")


def _day_list(text: str) -> list[int]:
    try:
        days = [int(day) for day in _split_list(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid day list: {text!r}") from None
    for i, day in enumerate(days):
        if day in days[:i]:
            raise argparse.ArgumentTypeError(f"day {day} is listed more than once in {text!r}")
    return days


def _config_values(args: argparse.Namespace) -> dict[str, str]:
    """The ``--config`` file's values keyed by this command's option dests.

    ``[run] key`` sets dest ``key`` and ``[schema] key`` sets ``schema_key``
    (``-`` read as ``_``); a key the command has no option for is an error.
    """
    ini = configparser.ConfigParser()
    if not ini.read(args.config):
        raise ValidationError(f"config file {args.config!r} not found")
    dests = set(vars(args)) - {"command", "config"}
    values = {}
    for section, prefix in (("run", ""), ("schema", "schema_")):
        for key, value in ini.items(section) if ini.has_section(section) else []:
            dest = prefix + key.replace("-", "_")
            if dest not in dests:
                raise ValidationError(
                    f"unknown [{section}] config key {key!r} for command {args.command!r}")
            values[dest] = value
    return values


def _emit_error(exc: Exception, out: str) -> None:
    sys.stderr.write(report.json_text(exc))
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
        report.write_file(Path(out) / "error.json", exc)
    except OSError:
        pass


def _load_input(args: argparse.Namespace) -> dataset.ExperimentData:
    if not args.input:
        raise ValidationError("--input (or config input=) is required")
    if not Path(args.input).exists():
        raise ValidationError(f"input file {args.input!r} does not exist")
    for key in ("assignment", "outcome", "covariates", "pre_period"):
        if getattr(args, f"schema_{key}") is None:
            raise SchemaError(f"schema is missing the {key!r} column mapping")
    return dataset.load_csv(args.input, dataset.CsvSchema(
        assignment=args.schema_assignment,
        outcome=args.schema_outcome,
        covariates=tuple(_split_list(args.schema_covariates)),
        pre_period=args.schema_pre_period,
        day=args.schema_day,
        unit_id=args.schema_unit_id,
    ))


def _split_list(value: str) -> list[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def _model_specs(args: argparse.Namespace) -> list[ModelSpec]:
    return with_dim_baseline(_split_list(args.models))


def _synthetic_config(args: argparse.Namespace) -> dataset.SyntheticConfig:
    return dataset.SyntheticConfig(
        **{field.name: getattr(args, field.name) for field in fields(dataset.SyntheticConfig)})


def _estimates(data: dataset.ExperimentData, specs: list[ModelSpec], alpha: float,
               seed: int, failures: list[tuple[str, Exception]],
               ) -> list[tuple[ModelSpec, AteEstimate]]:
    """Each model's estimate from one split of the rows by arm and one fit
    plan; a non-baseline model failure is recorded in ``failures`` as its
    (model id, error) instead of aborting the run."""
    arms = checked_arms(data, alpha)
    fitted = []
    for spec, est in zip(specs, estimate_specs(arms, specs, data.pre_period_col, alpha,
                                               [seed] * len(specs))):
        if isinstance(est, AteEstimate):
            fitted.append((spec, est))
        elif spec.kind == "dim":
            raise est
        else:
            failures.append((spec.name, est))
    return fitted


def _estimate_doc(data: dataset.ExperimentData, specs: list[ModelSpec],
                  alpha: float, seed: int, day_filter: int | None) -> dict:
    """Estimates for every model, with their variance reduction against the
    first difference-in-means run."""
    failures = []
    fitted = _estimates(data, specs, alpha, seed, failures)
    baseline = next(est for spec, est in fitted if spec.kind == "dim")
    vr = {est.model_id: variance_reduction(est, baseline) for _, est in fitted}
    return report.estimate_to_dict(data, [est for _, est in fitted], vr, failures,
                                   seed, alpha, day_filter)


def _cmd_estimate(args: argparse.Namespace, out_dir: Path) -> dict:
    dataset.check_days(args.day)
    data = _load_input(args)
    if args.day is not None:
        data = dataset.filter_by_day(data, args.day)
    return _estimate_doc(data, _model_specs(args), args.alpha, args.seed, args.day)


def _cmd_aa(args: argparse.Namespace, out_dir: Path) -> dict:
    run = aa_mod.run_aa(
        _load_input(args), arm=args.arm, models=_model_specs(args), s_splits=args.s_splits,
        alpha=args.alpha, seed=args.seed, kappa=args.kappa,
    )
    aa_mod.write_splits_csv(run, out_dir / "aa_splits.csv")
    return report.aa_to_dict(run, aa_mod.bucket_metrics(run), aa_mod.pooled_coverage(run),
                             "aa_splits.csv")


def _cmd_stress(args: argparse.Namespace, out_dir: Path) -> dict:
    data = _load_input(args)
    config = stress.StressConfig(
        folds=args.folds,
        mc_draws=args.draws,
        models=tuple(_model_specs(args)),
        seed=args.seed,
        alpha=args.alpha,
        reference_model=parse_model(args.reference_model),
    )
    result = stress.error_distribution(data, config)
    doc, header, rows = report.stress_layout(result, data.n_units, args.seed, config.mc_draws,
                                             "stress.csv")
    report.write_file(out_dir / "stress.csv", header, rows)
    return doc


def _cmd_power(args: argparse.Namespace, out_dir: Path) -> dict:
    if args.day is None:
        raise ValidationError("--day (analysis day) is required for power")
    if args.delta is None:
        raise ValidationError("--delta (hypothesized relative effect) is required for power")
    power.check_power_args(args.delta, args.alpha, args.power_target)
    dataset.check_days(args.day, args.horizon)
    data = _load_input(args)
    failures = []
    fitted = _estimates(dataset.filter_by_day(data, args.day), _model_specs(args), args.alpha,
                        args.seed, failures)
    forecast = power.forecast_arm_sizes(data, args.day, args.horizon)
    recs = [power.recommend_duration(est, forecast, args.delta, args.alpha, args.power_target)
            for _, est in fitted]
    return report.power_to_dict(recs, forecast, failures, args.seed, args.delta, args.alpha,
                                args.power_target)


def _cmd_simulate(args: argparse.Namespace, out_dir: Path) -> dict:
    config = _synthetic_config(args)
    data = dataset.generate(config)
    dataset.write_csv(data, out_dir / "synthetic.csv")
    return report.simulate_to_dict(config, data, "synthetic.csv")


def _cmd_batch(args: argparse.Namespace, out_dir: Path) -> None:
    if args.experiments < 1:
        raise ValidationError(f"--experiments must be >= 1, got {args.experiments}")
    check_alpha(args.alpha)
    for day in args.day_filters:
        dataset.check_days(day)
    config = _synthetic_config(args)
    if args.day_filters and config.daily_arrivals <= 0:
        config = replace(config, daily_arrivals=max(1.0, config.n_units / 28))
    specs = _model_specs(args)
    reports_dir = out_dir / "reports"
    reports_dir.mkdir(exist_ok=True)
    docs, errors = [], []
    for w in range(args.experiments):
        seed = child_seed(args.seed, w)
        data = dataset.generate(replace(config, seed=seed))
        for day in args.day_filters or [None]:
            stem = f"exp{w:03d}" if day is None else f"exp{w:03d}_day{day}"
            try:  # a subset too small to estimate is recorded, and the rest aggregated
                subset = data if day is None else dataset.filter_by_day(data, day)
                doc = _estimate_doc(subset, specs, args.alpha, seed, day)
            except ValidationError as exc:
                report.write_file(reports_dir / f"{stem}.error.json", exc)
                errors.append(exc)
                continue
            doc["experiment"] = w
            docs.append(report.write_report(doc, reports_dir / f"{stem}.json"))
    if not docs:
        raise errors[0]
    report.write_file(out_dir / "aggregate.csv", *aggregate(docs))


def aggregate(docs: list[dict]) -> tuple[list[str], list[list]]:
    """Per-model variance-reduction quartiles over estimate reports as
    written (a ``None`` reduction is left out), for group ``all`` and, from
    four reports on, the ``n_units`` quartile groups ``size_q1``..``size_q4``.
    """
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
            ordered = np.sort(values)
            rows.append([group, mid, int(values.size), float(ordered[0]),
                         *(float(q) for q in _quartiles(ordered)), float(ordered[-1])])
    return header, rows


def _quartiles(ordered: np.ndarray) -> tuple:
    """``np.percentile(x, 25)``, ``np.median(x)`` and ``np.percentile(x, 75)``
    of the sorted, NaN-free ``ordered``, bit for bit, without their import
    of numpy.ma. A quartile interpolates linearly between the order
    statistics around index (n - 1) q as numpy's ``_lerp`` does, from the
    upper one when the fraction is 0.5 or more; the median is the middle
    pair's mean, (lo + hi) / 2."""
    n = ordered.size

    def lerp(q):
        i, t = divmod((n - 1) * q, 1)
        lo, hi = ordered[int(i)], ordered[min(int(i) + 1, n - 1)]
        return hi - (hi - lo) * (1 - t) if t >= 0.5 else lo + (hi - lo) * t

    return lerp(0.25), (ordered[(n - 1) // 2] + ordered[n // 2]) / 2, lerp(0.75)


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
