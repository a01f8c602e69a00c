"""Report serialization: JSON documents validated against the shipped schema.

Reports are deterministic functions of (config, seed) — wall-clock timings
and version stamps go to the run manifest instead, so re-running a command
reproduces the report byte for byte. Writes go through a temp file and an
atomic rename.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
from importlib import metadata, resources

import numpy as np
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from .aa import AaRun, BucketMetrics, pooled_coverage
from .power import DurationRecommendation
from .stress import StressResult

_SCHEMA = json.loads(
    resources.files("gobe").joinpath("schemas/report.schema.json").read_text("utf-8")
)
# Built once: the schema itself is checked against its metaschema by a test,
# not on every report.
_VALIDATOR = validator_for(_SCHEMA)(_SCHEMA)


def validate_report(doc: dict) -> None:
    """Raise jsonschema.ValidationError if the document is malformed.

    The error raised is the one ``jsonschema.validate`` would raise.
    """
    error = best_match(_VALIDATOR.iter_errors(doc))
    if error is not None:
        raise error


def write_report(doc: dict, path) -> None:
    """Validate and atomically write a report document."""
    doc = jsonable(doc)
    validate_report(doc)
    _atomic_write(json.dumps(doc, indent=2, allow_nan=False) + "\n", path)


def write_manifest(path, command: str, config: dict, seed: int,
                   timings_ms: dict[str, float]) -> None:
    """Run metadata: config echo, seed, versions, timings. Not byte-stable."""
    doc = jsonable({
        "command": command,
        "config": config,
        "seed": seed,
        "versions": {
            "gobe": _package_version(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "timings_ms": timings_ms,
    })
    _atomic_write(json.dumps(doc, indent=2, allow_nan=False) + "\n", path)


def aa_to_dict(run: AaRun, metrics: BucketMetrics, splits_csv: str) -> dict:
    per_model = {}
    for m, model_id in enumerate(run.model_ids):
        block = {
            "mse": metrics.mse[:, m].tolist(),
            "median_dist": metrics.median_dist[:, m].tolist(),
            "excess_frac": metrics.excess_frac[:, m].tolist(),
            "coverage": metrics.coverage[:, m].tolist(),
        }
        if m != run.dim_index:
            block["r_mse"] = metrics.r_mse[:, m].tolist()
            block["r_median_dist"] = metrics.r_median_dist[:, m].tolist()
            block["r_excess_frac"] = metrics.r_excess_frac[:, m].tolist()
        per_model[model_id] = block
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
        "pooled_coverage": pooled_coverage(run),
        "bucket_metrics": {
            "kappa": metrics.kappa,
            "bucket_sizes": metrics.bucket_sizes.tolist(),
            "zeta_range": metrics.zeta_range.tolist(),
            "per_model": per_model,
        },
        "splits_csv": splits_csv,
    }


def stress_to_dict(result: StressResult, seed: int, mc_draws: int, table_csv: str) -> dict:
    med_err = result.median_errors()
    med_vr = result.median_vr()
    return {
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


def recommendation_to_dict(rec: DurationRecommendation) -> dict:
    return {
        "model_id": rec.model_id,
        "D": rec.anchor_day,
        "D_prime": rec.day_found,
        "delta": rec.delta,
        "alpha": rec.alpha,
        "power_target": rec.target_power,
        "projected_variance_at_D_prime": rec.projected_variance,
    }


def jsonable(value):
    """Convert numpy scalars/arrays and NaN values into JSON-safe natives."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return None if math.isnan(value) else value
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def _package_version() -> str:
    try:
        return metadata.version("gobe")
    except metadata.PackageNotFoundError:
        return "unknown"


def _atomic_write(text: str, path) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)
