"""Traced replay of gobe commands, one span around every layer call.

The replay parses the same argv the CLI gets and then calls each module's
public functions itself, in the order the command calls them, so that every
call can be timed without patching or wrapping the program. Spans live in
memory and are written out at the end of the run. A layer's self time is
its span minus the child spans recorded inside it.

After each command the replay runs probes on the data the workload
estimates on (the full table for ``readout``, one A/A split for
``aa-audit``, the widest noise view for ``stress-noise``). The probes time
what the command does inside calls the replay cannot see into: per-model
fits, cross-validation, prediction, imputation, and a sample of A/A splits
and stress draws.
"""

from __future__ import annotations

import json
import re
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from gobe import aa, cli, dataset, estimator, power, regression, report, stress
from gobe.rng import child_rng, child_seed

ZOO = ("dim", "ols", "ridge", "lasso", "elastic_net", "pcr", "tweedie", "two_step_ols", "ols_pre")
PENALIZED = ("ridge", "lasso", "elastic_net")
AA_MODELS = ("dim", "ols", "ols_pre")
STRESS_MODELS = ("dim", "ols", "lasso")
STRESS_FOLDS = (1, 2, 3, 4, 5)
AA_REPLAY_SPLITS = 100
STRESS_REPLAY_DRAWS = 1
MODEL_PROBE_REPS = {"readout": 1, "aa-audit": 20, "stress-noise": 3}
PREDICT_REPS = 5

PER_LAYER = (
    [("dataset.load_csv_s", "s"), ("dataset.rows_ingested", "count"),
     ("dataset.bytes_ingested", "bytes"), ("dataset.filter_by_day_s", "s"),
     ("dataset.restrict_to_arm_s", "s"), ("dataset.with_assignment_ms", "ms")]
    + [(f"regression.fit_s.{m}", "s") for m in ZOO if m != "two_step_ols"]
    + [(f"regression.cross_validate_s.{m}", "s") for m in PENALIZED]
    + [("regression.predict_ms", "ms"), ("regression.fits", "count"),
       ("regression.fit_failures", "count")]
    + [(f"estimator.estimate_s.{m}", "s") for m in ZOO]
    + [("estimator.assemble_s", "s"), ("estimator.impute_ms", "ms")]
    + [("aa.run_aa_s", "s"), ("aa.split_ms", "ms"), ("aa.split.permute_ms", "ms")]
    + [(f"aa.split.estimate_ms.{m}", "ms") for m in AA_MODELS]
    + [("aa.bucket_metrics_s", "s"), ("aa.write_splits_csv_s", "s"),
       ("aa.splits_csv_bytes", "bytes"), ("aa.failed_splits", "count")]
    + [("stress.error_distribution_s", "s"), ("stress.draw_ms", "ms"), ("stress.augment_ms", "ms")]
    + [(f"stress.estimate_ms.{m}.f{f}", "ms") for m in STRESS_MODELS for f in STRESS_FOLDS]
    + [("stress.timing_profile_s", "s"), ("stress.failures", "count")]
    + [("power.forecast_arm_sizes_s", "s"), ("power.recommend_duration_s", "s")]
    + [("report.write_report_s", "s"), ("report.validate_s", "s"), ("report.bytes", "bytes"),
       ("report.byte_identical", "bool")]
    + [("cli.self_s", "s"), ("bench.trace_overhead_s", "s"), ("bench.failed_frac", "ratio")]
)


def model_key(model_id: str) -> str:
    """``elastic_net:0.5`` -> ``elastic_net``, ``two_step:ols`` -> ``two_step_ols``."""
    return re.sub(r"^elastic_net:[^@]*", "elastic_net", model_id).replace(":", "_").replace("@", "_")


def fits_per_estimate(model_id: str) -> int:
    """Per-arm fits behind one estimate: two, or four for a two-step model."""
    return 4 if model_id.startswith("two_step:") else 2


def duration(span: dict) -> float:
    return span["end"] - span["start"]


class Tracer:
    """In-memory span recorder; spans nest by call order."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"name": name, "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None, **attrs}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def select(self, name: str, **attrs) -> list[dict]:
        return [s for s in self.spans if s["name"] == name
                and all(s.get(k) == v for k, v in attrs.items())]

    def total_s(self, name: str, **attrs) -> float:
        return sum(duration(s) for s in self.select(name, **attrs))

    def mean_ms(self, name: str, **attrs) -> float:
        spans = self.select(name, **attrs)
        return 1e3 * self.total_s(name, **attrs) / len(spans)

    def self_s(self, name: str) -> float:
        """Summed self time of every span with this name."""
        total = 0.0
        for i, s in enumerate(self.spans):
            if s["name"] != name:
                continue
            children = sum(duration(c) for c in self.spans if c["parent"] == i)
            total += duration(s) - children
        return total


class Replay:
    """Replays one workload's commands; ``metrics()`` reduces the spans."""

    def __init__(self, workload: str, trace_root: Path, reference_root: Path):
        self.workload = workload
        self.trace_root = trace_root
        self.reference_root = reference_root
        self.tr = Tracer()
        self.values: dict[str, float] = {}
        self.rows_ingested = 0
        self.bytes_ingested = 0
        self.report_bytes = 0
        self.fits = 0
        self.fit_failures = 0
        self.model_ids: list[str] = []
        self._last_doc: dict | None = None

    # -- command replays -------------------------------------------------

    def run(self, argv: list[str]) -> None:
        with self.tr.span("cli"):
            args = cli.build_parser().parse_args(argv)
            handler = {"estimate": self._estimate, "power": self._power,
                       "aa": self._aa, "stress": self._stress}[args.command]
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            seed = args.seed or 0
            alpha = args.alpha or 0.05
            probe = handler(args, out, seed, alpha)
            report.write_manifest(out / "manifest.json", args.command, vars(args), seed=seed,
                                  timings_ms={"total": 0.0})
        probe()

    def _load(self, args) -> dataset.ExperimentData:
        schema = dataset.CsvSchema(
            assignment=args.schema_assignment, outcome=args.schema_outcome,
            covariates=tuple(c.strip() for c in args.schema_covariates.split(",")),
            pre_period=args.schema_pre_period, day=args.schema_day, unit_id=args.schema_unit_id,
        )
        with self.tr.span("dataset.load_csv"):
            data = dataset.load_csv(args.input, schema)
        self.rows_ingested += data.n_units
        self.bytes_ingested += Path(args.input).stat().st_size
        return data

    def _specs(self, args) -> list[regression.ModelSpec]:
        specs = [regression.parse_model(m) for m in args.models.split(",") if m.strip()]
        if not any(s.kind == "dim" for s in specs):
            specs.insert(0, regression.ModelSpec(kind="dim"))
        for spec in specs:
            if spec.name not in self.model_ids:
                self.model_ids.append(spec.name)
        return specs

    def _estimates(self, data, specs, alpha, seed):
        estimates = []
        for spec in specs:
            self.fits += fits_per_estimate(spec.name)
            with self.tr.span("estimator.estimate", model=model_key(spec.name), command="estimate"):
                try:
                    estimates.append(estimator.estimate(data, spec, alpha=alpha, seed=seed))
                except Exception:  # the CLI records a non-baseline failure the same way
                    if spec.kind == "dim":
                        raise
                    self.fit_failures += 1
        return estimates

    def _write_report(self, out: Path) -> None:
        """Write the document the CLI produced for the same command."""
        reference = self.reference_root / out.relative_to(self.trace_root) / "report.json"
        doc = json.loads(reference.read_text(encoding="utf-8"))
        with self.tr.span("report.write_report"):
            report.write_report(doc, out / "report.json")
        self.report_bytes += (out / "report.json").stat().st_size
        self._last_doc = doc

    def _estimate(self, args, out, seed, alpha):
        data = self._load(args)
        if args.day is not None:
            with self.tr.span("dataset.filter_by_day"):
                data = dataset.filter_by_day(data, args.day)
        specs = self._specs(args)
        estimates = self._estimates(data, specs, alpha, seed)
        with self.tr.span("estimator.variance_reduction"):
            for est in estimates:
                estimator.variance_reduction(est, estimates[0])
        self._write_report(out)
        return lambda: self._probe_models(data, specs, seed, alpha)

    def _power(self, args, out, seed, alpha):
        data = self._load(args)
        with self.tr.span("dataset.filter_by_day"):
            analysis = dataset.filter_by_day(data, args.day)
        with self.tr.span("power.forecast_arm_sizes"):
            forecast = power.forecast_arm_sizes(data, args.day, args.horizon)
        for spec in self._specs(args):
            self.fits += fits_per_estimate(spec.name)
            try:
                with self.tr.span("estimator.estimate", model=model_key(spec.name), command="power"):
                    est = estimator.estimate(analysis, spec, alpha=alpha, seed=seed)
                with self.tr.span("power.recommend_duration"):
                    power.recommend_duration(est, forecast, args.delta, alpha,
                                             args.power_target or 0.8)
            except Exception:  # the CLI records a non-baseline failure the same way
                if spec.kind == "dim":
                    raise
                self.fit_failures += 1
        self._write_report(out)
        return self._probe_report

    def _aa(self, args, out, seed, alpha):
        data = self._load(args)
        specs = self._specs(args)
        arm = args.arm or 0
        s_splits = args.s_splits or 1000
        with self.tr.span("aa.run_aa"):
            run = aa.run_aa(data, arm=arm, models=specs, s_splits=s_splits, alpha=alpha,
                            seed=seed, kappa=args.kappa or 20, n_jobs=args.jobs or 1)
        with self.tr.span("aa.bucket_metrics"):
            aa.bucket_metrics(run)
        with self.tr.span("aa.write_splits_csv"):
            aa.write_splits_csv(run, out / "aa_splits.csv")
        self._write_report(out)
        self.values["aa.split_ms"] = 1e3 * self.tr.total_s("aa.run_aa") / run.s_splits
        self.values["aa.splits_csv_bytes"] = (out / "aa_splits.csv").stat().st_size
        self.values["aa.failed_splits"] = run.failure_count
        self.fits += run.s_splits * sum(fits_per_estimate(s.name) for s in specs)
        self.fit_failures += run.failure_count

        def probe():
            with self.tr.span("dataset.restrict_to_arm"):
                restricted = dataset.restrict_to_arm(data, arm)
            split = self._replay_splits(restricted, specs, seed, alpha)
            self._probe_models(split, specs, seed, alpha)
        return probe

    def _replay_splits(self, restricted, specs, seed, alpha):
        """The per-split body of run_aa, serially, for the first splits."""
        n = restricted.n_units
        x = restricted.pre_period
        split = None
        for s in range(AA_REPLAY_SPLITS):
            with self.tr.span("aa.split"):
                with self.tr.span("aa.split.permute"):
                    perm = child_rng(seed, s).permutation(n)
                    assignment = np.zeros(n, dtype=np.int8)
                    assignment[perm[: n // 2]] = 1
                    float(x[assignment == 1].mean() - x[assignment == 0].mean())
                with self.tr.span("dataset.with_assignment"):
                    split = dataset.with_assignment(restricted, assignment)
                for j, spec in enumerate(specs):
                    with self.tr.span("aa.split.estimate", model=model_key(spec.name)):
                        estimator.estimate(split, spec, alpha=alpha, seed=child_seed(seed, s, j))
        return split

    def _stress(self, args, out, seed, alpha):
        data = self._load(args)
        specs = self._specs(args)
        config = stress.StressConfig(
            folds=args.folds or 5, mc_draws=args.draws or 100, models=tuple(specs), seed=seed,
            alpha=alpha, reference_model=regression.parse_model(args.reference_model or "ols"),
        )
        with self.tr.span("stress.error_distribution"):
            result = stress.error_distribution(data, config)
        with self.tr.span("stress.timing_profile"):
            stress.timing_profile([data.n_units], [0, *result.fold_counts], list(config.models),
                                  k_covariates=data.k_covariates, seed=seed)
        self._write_report(out)
        self.values["stress.draw_ms"] = (1e3 * self.tr.total_s("stress.error_distribution")
                                         / config.mc_draws)
        self.values["stress.failures"] = result.failure_count
        self.fits += 2 * fits_per_estimate(config.reference_model.name)
        self.fits += config.mc_draws * config.folds * sum(fits_per_estimate(s.name) for s in specs)
        self.fit_failures += result.failure_count

        def probe():
            view = self._replay_draws(data, config)
            self._probe_models(view, specs, seed, alpha)
        return probe

    def _replay_draws(self, data, config):
        """The per-draw body of error_distribution for the first draws."""
        k = data.k_covariates
        view = None
        for s in range(STRESS_REPLAY_DRAWS):
            with self.tr.span("stress.draw"):
                with self.tr.span("stress.augment"):
                    augmented = stress.augment(data, config.folds, seed=child_seed(config.seed, s))
                for fold in range(1, config.folds + 1):
                    view = dataset.ExperimentData(
                        unit_ids=augmented.unit_ids, assignment=augmented.assignment,
                        outcome=augmented.outcome,
                        covariates=augmented.covariates[:, : (fold + 1) * k],
                        pre_period_col=augmented.pre_period_col, day_index=augmented.day_index,
                    )
                    for j, spec in enumerate(config.models):
                        with self.tr.span("stress.estimate", model=model_key(spec.name), fold=fold):
                            estimator.estimate(view, spec, alpha=config.alpha,
                                               seed=child_seed(config.seed, s, fold, j))
        return view

    # -- probes ------------------------------------------------------------

    def _probe_models(self, data, specs, seed, alpha):
        """Fit, CV, predict and impute timings on the estimation data."""
        reps = MODEL_PROBE_REPS[self.workload]
        for spec in specs:
            key = model_key(spec.name)
            if spec.kind == "two_step":
                continue
            for _ in range(reps):  # back to back, so that their difference is the assembly
                with self.tr.span("regression.fit_arm_models", model=key):
                    estimator.fit_arm_models(data, spec, seed=seed)
                with self.tr.span("estimator.estimate", model=key, command="probe"):
                    estimator.estimate(data, spec, alpha=alpha, seed=seed)
            if spec.kind in PENALIZED:
                with self.tr.span("regression.cross_validate", model=key):
                    for t in (0, 1):
                        mask = data.arm_mask(t)
                        regression.cross_validate(spec, data.outcome[mask], data.covariates[mask],
                                                  seed=seed)
        models = estimator.fit_arm_models(data, regression.ModelSpec(kind="ols"), seed=seed)
        for _ in range(PREDICT_REPS):
            with self.tr.span("regression.predict"):
                regression.predict(models[0], data.covariates)
            with self.tr.span("estimator.impute"):
                estimator.impute(data, models)
        self._probe_report()

    def _probe_report(self):
        """Schema validation alone, on the last command's report."""
        with self.tr.span("report.validate"):
            report.validate_report(self._last_doc)

    # -- reduction -----------------------------------------------------------

    def metrics(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer values, and the names that do not apply to this workload."""
        tr = self.tr
        v = dict(self.values)
        v["dataset.load_csv_s"] = tr.total_s("dataset.load_csv")
        v["dataset.rows_ingested"] = self.rows_ingested
        v["dataset.bytes_ingested"] = self.bytes_ingested
        if tr.select("dataset.filter_by_day"):
            v["dataset.filter_by_day_s"] = tr.total_s("dataset.filter_by_day")
        if tr.select("dataset.restrict_to_arm"):
            v["dataset.restrict_to_arm_s"] = tr.total_s("dataset.restrict_to_arm")
        if tr.select("dataset.with_assignment"):
            v["dataset.with_assignment_ms"] = tr.mean_ms("dataset.with_assignment")

        keys = [model_key(m) for m in self.model_ids]
        # readout's own estimate command runs on the estimation data; the others estimate
        # on it only in the probes
        estimate_command = "estimate" if self.workload == "readout" else "probe"
        assemble = 0.0
        for key in keys:
            if tr.select("estimator.estimate", model=key, command=estimate_command):
                v[f"estimator.estimate_s.{key}"] = tr.mean_ms(
                    "estimator.estimate", model=key, command=estimate_command) / 1e3
            fits = tr.select("regression.fit_arm_models", model=key)
            if fits:
                v[f"regression.fit_s.{key}"] = tr.mean_ms("regression.fit_arm_models", model=key) / 1e3
                pairs = zip(fits, tr.select("estimator.estimate", model=key, command="probe"))
                assemble += statistics.median(duration(e) - duration(f) for f, e in pairs)
            if tr.select("regression.cross_validate", model=key):
                v[f"regression.cross_validate_s.{key}"] = tr.total_s("regression.cross_validate", model=key)
        v["estimator.assemble_s"] = assemble
        v["estimator.impute_ms"] = tr.mean_ms("estimator.impute")
        v["regression.predict_ms"] = tr.mean_ms("regression.predict")
        v["regression.fits"] = self.fits
        v["regression.fit_failures"] = self.fit_failures

        if tr.select("aa.run_aa"):
            v["aa.run_aa_s"] = tr.total_s("aa.run_aa")
            v["aa.split.permute_ms"] = tr.mean_ms("aa.split.permute")
            for key in keys:
                v[f"aa.split.estimate_ms.{key}"] = tr.mean_ms("aa.split.estimate", model=key)
            v["aa.bucket_metrics_s"] = tr.total_s("aa.bucket_metrics")
            v["aa.write_splits_csv_s"] = tr.total_s("aa.write_splits_csv")

        if tr.select("stress.error_distribution"):
            v["stress.error_distribution_s"] = tr.total_s("stress.error_distribution")
            v["stress.augment_ms"] = tr.mean_ms("stress.augment")
            v["stress.timing_profile_s"] = tr.total_s("stress.timing_profile")
            for key in keys:
                for fold in STRESS_FOLDS:
                    if tr.select("stress.estimate", model=key, fold=fold):
                        v[f"stress.estimate_ms.{key}.f{fold}"] = tr.mean_ms(
                            "stress.estimate", model=key, fold=fold)

        if tr.select("power.forecast_arm_sizes"):
            v["power.forecast_arm_sizes_s"] = tr.total_s("power.forecast_arm_sizes")
            v["power.recommend_duration_s"] = tr.total_s("power.recommend_duration")

        v["report.write_report_s"] = tr.total_s("report.write_report")
        v["report.validate_s"] = tr.total_s("report.validate")
        v["report.bytes"] = self.report_bytes
        v["cli.self_s"] = tr.self_s("cli")
        v["bench.traced_wall_s"] = tr.total_s("cli")

        names = {name for name, _ in PER_LAYER}
        unknown = sorted(set(v) - names - {"bench.traced_wall_s"})
        if unknown:
            raise RuntimeError(f"replay produced metrics outside PER_LAYER: {unknown}")
        not_applicable = sorted(names - set(v) - {"report.byte_identical",
                                                   "bench.trace_overhead_s", "bench.failed_frac"})
        return v, not_applicable

    def spans(self) -> list[dict]:
        t0 = self.tr.spans[0]["start"] if self.tr.spans else 0.0
        return [{**s, "start": s["start"] - t0, "end": s["end"] - t0} for s in self.tr.spans]
