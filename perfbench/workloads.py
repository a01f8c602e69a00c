"""Workload definitions and seeded input generation.

Each workload in ``workloads.json`` names a generator and the gobe command
lines it runs. The ``--seed`` given to the benchmark seeds the generator and
is passed on as every command's ``--seed``, so one seed fixes the inputs.
The program sees only the generated CSV.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

SPEC_PATH = Path(__file__).with_name("workloads.json")


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def workload(name: str) -> dict:
    for item in load_spec()["workloads"]:
        if item["name"] == name:
            return item
    raise KeyError(name)


def workload_names() -> list[str]:
    return [item["name"] for item in load_spec()["workloads"]]


def commands(spec: dict, input_path: Path, out_dir: Path, seed: int) -> list[list[str]]:
    """The workload's gobe argv lists with placeholders filled in."""
    fill = {"{input}": str(input_path), "{out}": str(out_dir), "{seed}": str(seed)}
    out = []
    for template in spec["commands"]:
        argv = []
        for arg in template:
            for key, value in fill.items():
                arg = arg.replace(key, value)
            argv.append(arg)
        out.append(argv)
    return out


def write_input(spec: dict, seed: int, path: Path) -> dict:
    """Generate the workload's CSV; returns the column layout."""
    gen = spec["generator"]
    rng = np.random.default_rng(seed)
    if gen["kind"] == "revenue":
        columns = _revenue(rng, gen)
    elif gen["kind"] == "gaussian":
        columns = _gaussian(rng, gen)
    else:
        raise ValueError(f"unknown generator kind {gen['kind']!r}")
    names = list(columns)
    table = np.column_stack([columns[c] for c in names])
    fmt = ["%d" if np.issubdtype(columns[c].dtype, np.integer) else "%.17g" for c in names]
    np.savetxt(path, table, fmt=fmt, delimiter=",", header=",".join(names), comments="")
    return {"columns": names, "n_rows": int(table.shape[0])}


def _revenue(rng: np.random.Generator, gen: dict) -> dict[str, np.ndarray]:
    """Zero-inflated, right-skewed revenue outcome with a day column.

    ``z1`` is pre-period revenue (zero for inactive users, gamma otherwise);
    the other covariates are standard normal. The outcome is gamma with a
    log-linear mean, zero for non-buyers, and multiplied by ``1 + lift`` in
    the treatment arm, so the Tweedie log-link model fits it.
    """
    n, k = gen["n_units"], gen["k_covariates"]
    assignment = (rng.random(n) < gen["assignment_prob"]).astype(np.int64)
    day = rng.integers(1, gen["days"] + 1, n)
    z = np.empty((n, k))
    active = rng.random(n) < gen["active_frac"]
    z[:, 0] = np.where(active, rng.gamma(2.0, 1.0, n), 0.0)
    z[:, 1:] = rng.standard_normal((n, k - 1))
    mean = np.exp(0.2 + 0.25 * z[:, 0] + 0.1 * z[:, 1] - 0.05 * z[:, 2]) * (1 + gen["lift"] * assignment)
    buys = rng.random(n) < 0.5 + 0.3 * active
    outcome = np.where(buys, rng.gamma(2.0, mean / 2.0), 0.0)
    columns = {"assignment": assignment, "outcome": outcome}
    columns.update({f"z{i + 1}": z[:, i] for i in range(k)})
    columns["day"] = day
    return columns


def _gaussian(rng: np.random.Generator, gen: dict) -> dict[str, np.ndarray]:
    """Gaussian covariates; the outcome loads on z1 (the pre-period) and z2."""
    n, k = gen["n_units"], gen["k_covariates"]
    rho = gen["outcome_cor"]
    assignment = (rng.random(n) < gen["assignment_prob"]).astype(np.int64)
    z = rng.standard_normal((n, k))
    outcome = (rho * z[:, 0] + 0.2 * z[:, 1] + np.sqrt(1.0 - rho * rho) * rng.standard_normal(n)
               + gen["true_ate"] * assignment)
    columns = {"assignment": assignment, "outcome": outcome}
    columns.update({f"z{i + 1}": z[:, i] for i in range(k)})
    return columns
