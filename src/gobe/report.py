"""Report serialization: JSON documents validated against the shipped schema.

Reports are deterministic functions of (config, seed) — wall-clock timings
and version stamps go to the run manifest instead, so re-running a command
reproduces the report byte for byte. Writes go through a temp file and an
atomic rename.

Every report is validated on every write, by a small checker in this module
that applies the keywords the shipped schema uses as JSON Schema draft
2020-12 reads them. A report it rejects raises ``gobe.errors.ValidationError``
naming the schema file and the report's kind; the tests hold it to
``jsonschema``'s verdict. The manifest's version stamp is ``gobe.__version__``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
from importlib import resources

import numpy as np

from . import __version__
from .aa import AaRun, BucketMetrics, pooled_coverage
from .errors import ValidationError
from .power import DurationRecommendation
from .stress import StressResult

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
            "gobe": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            # not platform.platform(): its uname() processor field runs `uname -p`
            "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}",
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


def _atomic_write(text: str, path) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)
