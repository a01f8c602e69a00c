"""Every file gobe writes: the report and table layouts, the schema check,
and the one writer.

Each command's report document and each CSV table's rows are laid out here,
beside the shipped schema. Reports are deterministic functions of (config,
seed) — wall-clock timings and version stamps go to the run manifest
instead, so re-running a command reproduces the report byte for byte.
``write_file`` writes every file under a temporary name and renames it into
place, so an interrupted run leaves no truncated file. This module imports
no command module at import time, so they can import it to write.

Every report is validated on every write, by a small checker in this module
that applies the keywords the shipped schema uses as JSON Schema draft
2020-12 reads them. A report it rejects raises ``gobe.errors.ValidationError``
naming the schema file and the report's kind; the tests hold it to
``jsonschema``'s verdict. The manifest's version stamp is ``gobe.__version__``.
"""

from __future__ import annotations

import csv
import json
import math
import os
import platform
import sys
from dataclasses import asdict
from importlib import resources
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .errors import ValidationError

if TYPE_CHECKING:  # the command modules import this one
    from collections.abc import Iterable

    from . import aa, dataset, estimator, power, stress

_SCHEMA = json.loads(
    resources.files("gobe").joinpath("schemas/report.schema.json").read_text("utf-8")
)


def validate_report(doc: dict) -> None:
    """Raise ``ValidationError`` unless the document is valid under the shipped schema."""
    if not _accepts(doc, _SCHEMA):
        kind = doc.get("kind") if type(doc) is dict else None
        raise ValidationError(f"report of kind {kind!r} does not match schemas/report.schema.json")


_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "null": type(None)}
_NUMBER = (int, float)  # exact types: a bool is no number


def _is(value, name: str) -> bool:
    if name == "integer":
        return type(value) is int or type(value) is float and value.is_integer()
    return type(value) in _NUMBER if name == "number" else type(value) is _TYPES[name]


# keyword -> whether (value, argument, the schema holding it) passes, by draft
# 2020-12 as far as the shipped schema uses it: every "$ref" points into the
# root "$defs" and every "enum"/"const" member is a string, so "in" is JSON equality
_KEYWORDS = {
    "type": lambda v, a, s: any(_is(v, t) for t in ([a] if type(a) is str else a)),
    "enum": lambda v, a, s: v in a,
    "const": lambda v, a, s: v == a,
    "minimum": lambda v, a, s: type(v) not in _NUMBER or not v < a,
    "exclusiveMinimum": lambda v, a, s: type(v) not in _NUMBER or not v <= a,
    "exclusiveMaximum": lambda v, a, s: type(v) not in _NUMBER or not v >= a,
    "minItems": lambda v, a, s: type(v) is not list or len(v) >= a,
    "maxItems": lambda v, a, s: type(v) is not list or len(v) <= a,
    "required": lambda v, a, s: type(v) is not dict or all(k in v for k in a),
    "properties": lambda v, a, s: type(v) is not dict or all(
        _accepts(v[k], sub) for k, sub in a.items() if k in v),
    "additionalProperties": lambda v, a, s: type(v) is not dict or all(
        _accepts(x, a) for k, x in v.items() if k not in s.get("properties", {})),
    "items": lambda v, a, s: type(v) is not list or all(_accepts(x, a) for x in v),
    "$ref": lambda v, a, s: _accepts(v, _SCHEMA["$defs"][a.removeprefix("#/$defs/")]),
    "allOf": lambda v, a, s: all(_accepts(v, sub) for sub in a),
    "oneOf": lambda v, a, s: sum(_accepts(v, sub) for sub in a) == 1,
    "if": lambda v, a, s: _accepts(v, s.get("then" if _accepts(v, a) else "else", {})),
    # "then" and "else" are read by "if"; the rest only annotate
    **dict.fromkeys(("then", "else", "$defs", "$schema", "title"), lambda v, a, s: True),
}


def _accepts(value, schema: dict | bool) -> bool:
    """Whether ``value`` is valid under ``schema``, a subschema of the shipped one."""
    if type(schema) is bool:  # a boolean schema accepts everything or nothing
        return schema
    return all(_KEYWORDS[key](value, arg, schema) for key, arg in schema.items())


def write_file(path, content, rows: Iterable | None = None) -> None:
    """Write one output file atomically.

    ``content`` is a JSON document, an exception (written as its error
    document), or, with ``rows``, a CSV header whose rows are streamed from
    the iterable. On any failure the temporary file is removed and ``path``
    keeps what it held.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    fh = open(tmp, "w", encoding="utf-8", newline=None if rows is None else "")
    try:
        with fh:
            if rows is None:
                fh.write(json_text(content))
            else:
                writer = csv.writer(fh)
                writer.writerow(content)
                writer.writerows(rows)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def json_text(doc: dict | BaseException) -> str:
    """A JSON document, or an exception's error document, as gobe writes it."""
    if isinstance(doc, BaseException):
        doc = {"error": _described(doc)}
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def write_report(doc: dict, path) -> dict:
    """Validate and atomically write a report document; returns it as written."""
    doc = jsonable(doc)
    validate_report(doc)
    write_file(path, doc)
    return doc


def write_manifest(path, command: str, config: dict, seed: int,
                   timings_ms: dict[str, float]) -> None:
    """Run metadata: config echo, seed, versions, the BLAS and thread setup
    (numpy 1.24 does not record its BLAS: null), timings. Not byte-stable."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    write_file(path, jsonable({
        "command": command,
        "config": config,
        "seed": seed,
        "versions": {
            "gobe": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            # not platform.platform(): its uname() processor field runs `uname -p`
            "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}",
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
        },
        "threads": {name: os.environ.get(name) for name in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "timings_ms": timings_ms,
    }))


def _described(exc: BaseException) -> dict:
    return {"type": type(exc).__name__, "message": str(exc)}


def _with_failures(doc: dict, failures: list[tuple[str, Exception]]) -> dict:
    """``doc`` with a ``failures`` entry per (model id, error), if there are any."""
    if failures:
        doc["failures"] = [{"model_id": model_id, **_described(exc)}
                           for model_id, exc in failures]
    return doc


def estimate_to_dict(data: dataset.ExperimentData, estimates: list[estimator.AteEstimate],
                     vr: dict[str, float | None], failures: list[tuple[str, Exception]],
                     seed: int, alpha: float, day_filter: int | None) -> dict:
    return _with_failures({
        "kind": "estimate", "seed": seed, "alpha": alpha,
        "input": {"n_units": data.n_units, "k_covariates": data.k_covariates,
                  "n_per_arm": list(data.arm_sizes()), "day_filter": day_filter},
        "estimates": [asdict(est) for est in estimates], "variance_reduction": vr,
    }, failures)


def power_to_dict(recs: list[power.DurationRecommendation], forecast: power.ArmForecast,
                  failures: list[tuple[str, Exception]], seed: int, delta: float,
                  alpha: float, target_power: float) -> dict:
    return _with_failures({
        "kind": "power", "seed": seed, "anchor_day": forecast.anchor_day,
        "horizon": forecast.horizon, "delta": delta, "alpha": alpha,
        "target_power": target_power,
        "recommendations": [recommendation_to_dict(r) for r in recs],
    }, failures)


def recommendation_to_dict(rec: power.DurationRecommendation) -> dict:
    return {
        "model_id": rec.model_id,
        "D": rec.anchor_day,
        "D_prime": rec.day_found,
        "delta": rec.delta,
        "alpha": rec.alpha,
        "power_target": rec.target_power,
        "projected_variance_at_D_prime": rec.projected_variance,
    }


def simulate_to_dict(config: dataset.SyntheticConfig, data: dataset.ExperimentData,
                     csv_name: str) -> dict:
    return {"kind": "simulate", "seed": config.seed, "config": asdict(config),
            "n_units": data.n_units, "n_per_arm": list(data.arm_sizes()), "csv": csv_name}


def aa_to_dict(run: aa.AaRun, metrics: aa.BucketMetrics, pooled_coverage: dict[str, float],
               splits_csv: str) -> dict:
    absolute = ("mse", "median_dist", "excess_frac", "coverage")
    relative = ("r_mse", "r_median_dist", "r_excess_frac")  # against the dim baseline
    per_model = {model_id: {name: getattr(metrics, name)[:, m].tolist()
                            for name in absolute + (relative if m != run.dim_index else ())}
                 for m, model_id in enumerate(run.model_ids)}
    return {
        "kind": "aa",
        "seed": run.seed,
        "alpha": run.alpha,
        "arm": run.arm,
        "s_splits": run.s_splits,
        "kappa": metrics.kappa,
        "models": list(run.model_ids),
        "n_units": run.n_units,
        "failure_count": run.failure_count,
        "pooled_coverage": pooled_coverage,
        "bucket_metrics": {
            "kappa": metrics.kappa,
            "bucket_sizes": metrics.bucket_sizes.tolist(),
            "zeta_range": metrics.zeta_range.tolist(),
            "per_model": per_model,
        },
        "splits_csv": splits_csv,
    }


def aa_splits_table(run: aa.AaRun) -> tuple[list[str], Iterable[list]]:
    """One row per (split, model): s, zeta, model, ate, ci_lo, ci_hi."""
    rows = ([s, repr(float(run.zeta[s])), model_id, repr(float(run.ate[s, m])),
             repr(float(run.ci_lo[s, m])), repr(float(run.ci_hi[s, m]))]
            for s in range(run.s_splits) for m, model_id in enumerate(run.model_ids))
    return ["s", "zeta", "model", "ate", "ci_lo", "ci_hi"], rows


def stress_layout(result: stress.StressResult, n_units: int, seed: int, mc_draws: int,
                  table_csv: str) -> tuple[dict, list[str], Iterable[list]]:
    """The stress report and its table's header and rows, from one
    computation of the per-(model, folds) medians."""
    med_err = result.median_errors()
    med_vr = result.median_vr()
    med_ms = result.median_runtime_ms()
    doc = {
        "kind": "stress",
        "seed": seed,
        "reference": {"model_id": result.reference_model_id, "ate": result.reference_ate},
        "fold_counts": list(result.fold_counts),
        "mc_draws": mc_draws,
        "relative_errors": result.relative_errors,
        "median_err": {mid: med_err[i].tolist() for i, mid in enumerate(result.model_ids)},
        "median_vr": {mid: med_vr[i].tolist() for i, mid in enumerate(result.model_ids)},
        "failure_count": result.failure_count,
        "table_csv": table_csv,
    }
    rows = ([model_id, fold, n_units, repr(float(med_err[i, j])), repr(float(med_vr[i, j])),
             "" if np.isnan(med_ms[i, j]) else f"{med_ms[i, j]:.3f}"]
            for i, model_id in enumerate(result.model_ids)
            for j, fold in enumerate(result.fold_counts))
    header = ["model", "folds", "n_units", "median_err", "median_vr", "runtime_ms"]
    return doc, header, rows


def jsonable(value):
    """Convert numpy scalars/arrays and NaN values into JSON-safe natives."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [jsonable(v) for v in (value.tolist() if type(value) is np.ndarray else value)]
    if isinstance(value, (np.floating, float)):
        return None if math.isnan(value) else float(value)
    if isinstance(value, (np.integer, np.bool_)):
        return value.item()
    return value
