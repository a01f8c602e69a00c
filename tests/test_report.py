import copy
import functools
import json
import operator
import os
import tempfile
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema.validators import validator_for

from gobe import report
from gobe.aa import AaRun, write_splits_csv
from gobe.cli import main
from gobe.errors import ValidationError


def _real_reports() -> dict[str, dict]:
    """One report of each kind, written by the CLI on a small simulated input.
    ``estimate`` reads it with an extra constant covariate, so that its
    estimates carry flags."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        assert main(["simulate", "--n-units", "600", "--outcome-cor", "0.6", "--true-ate", "0.3",
                     "--daily-arrivals", "40", "--seed", "5", "--out", str(root / "simulate")]) == 0
        sim = root / "simulate" / "synthetic.csv"
        lines = sim.read_text("utf-8").splitlines()
        flat = root / "flat.csv"
        flat.write_text("\n".join([lines[0] + ",flat"] + [line + ",1.0" for line in lines[1:]]),
                        encoding="utf-8")
        schema = ["--assignment-col", "assignment", "--outcome-col", "outcome",
                  "--pre-period-col", "z1", "--day-col", "day", "--seed", "5"]
        runs = {"estimate": [flat, "z1,z2,z3,flat", "--models", "dim,ols,lasso,two_step:ols,tweedie"],
                "aa": [sim, "z1,z2,z3", "--models", "dim,ols", "--s-splits", "20", "--kappa", "4"],
                "stress": [sim, "z1,z2,z3", "--models", "dim,ols", "--folds", "2", "--draws", "2"],
                "power": [sim, "z1,z2,z3", "--models", "dim,ols", "--day", "7", "--delta", "1.0"]}
        for kind, (csv, covariates, *args) in runs.items():
            assert main([kind, "--input", str(csv), "--covariate-cols", covariates, *schema,
                         *args, "--out", str(root / kind)]) == 0
        return {kind: json.loads((root / kind / "report.json").read_text("utf-8"))
                for kind in ("simulate", *runs)}


REPORTS = _real_reports()
_DROP = object()


def _put(doc, path, value):
    """Replace the value at ``path`` in ``doc``, or drop it if ``value`` is ``_DROP``."""
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value


def _edited(kind, path, value=_DROP):
    """A copy of the real ``kind`` report with the value at ``path`` replaced or dropped."""
    doc = copy.deepcopy(REPORTS[kind])
    _put(doc, path, value)
    return doc


def test_report_schema_is_valid_under_its_metaschema():
    validator_for(report._SCHEMA).check_schema(report._SCHEMA)


def _subschemas(schema: dict):
    """``schema`` and every subschema in it, the root first."""
    yield schema
    for key, arg in schema.items():
        subschemas = (arg.values() if key in ("properties", "$defs") else [arg]
                      if type(arg) is dict else arg if type(arg) is list else ())
        for sub in subschemas:
            if type(sub) is dict:
                yield from _subschemas(sub)


def test_the_checker_implements_every_keyword_of_the_schema():
    """What the checker takes for granted of the shipped schema: draft
    2020-12, no keyword it lacks, only string ``enum``/``const`` members (so
    ``in`` is JSON equality) and every ``$ref`` a plain name in the root ``$defs``."""
    assert report._SCHEMA["$schema"] == "https://json-schema.org/draft/2020-12/schema"
    schemas = list(_subschemas(report._SCHEMA))
    assert set().union(*schemas) <= report._KEYWORDS.keys()
    members = [x for s in schemas for x in s.get("enum", [])]
    members += [s["const"] for s in schemas if "const" in s]
    assert members and all(type(x) is str for x in members)
    refs = [s["$ref"] for s in schemas if "$ref" in s]
    names = [ref.removeprefix("#/$defs/") for ref in refs if ref.startswith("#/$defs/")]
    assert refs and len(names) == len(refs)
    assert all(name in report._SCHEMA["$defs"] and not set(name) & set("/~%") for name in names)


@pytest.mark.parametrize("kind", sorted(REPORTS))
def test_the_checker_accepts_every_real_report(kind):
    assert report._accepts(REPORTS[kind], report._SCHEMA)


@pytest.mark.parametrize("doc", [
    {"kind": "estimate", "seed": "x"},
    {"kind": "nope"},
    [],
    *(_edited(kind, ("seed",), True) for kind in sorted(REPORTS)),
    _edited("simulate", ("n_per_arm",), [1]),
    _edited("estimate", ("estimates", 1, "alpha"), 1),
    _edited("estimate", ("estimates", 1, "variance"), -1.0),
    _edited("estimate", ("estimates", 1, "lift_ci"), [1.0]),
    _edited("estimate", ("estimates", 2, "n_per_arm", 0), 1.5),
    _edited("estimate", ("failures", 0, "message")),
    _edited("aa", ("bucket_metrics",)),
    _edited("aa", ("bucket_metrics", "kappa"), 0),
    _edited("stress", ("relative_errors",), 1),
    _edited("power", ("recommendations", 0, "D"), 0),
    _edited("power", ("recommendations", 1, "D_prime"), 7.5),
])
def test_validate_report_raises_what_jsonschema_validate_raises(doc):
    """gobe's ``ValidationError``, naming the schema file and the kind,
    wherever ``jsonschema.validate`` raises."""
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, report._SCHEMA)
    kind = doc.get("kind") if type(doc) is dict else None
    with pytest.raises(ValidationError) as ours:
        report.validate_report(doc)
    assert str(ours.value) == f"report of kind {kind!r} does not match schemas/report.schema.json"


def test_an_extra_key_fails_where_the_schema_sets_additional_properties_false(monkeypatch):
    """The shipped schema has no ``additionalProperties: false``, so a copy
    sets it on each estimate: the checker's boolean schema then rejects an
    extra key, as jsonschema does, and accepts the real report."""
    closed = copy.deepcopy(report._SCHEMA)
    closed["$defs"]["ate_estimate"]["additionalProperties"] = False
    monkeypatch.setattr(report, "_SCHEMA", closed)
    report.validate_report(REPORTS["estimate"])
    doc = _edited("estimate", ("estimates", 0, "note"), "extra")
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, closed)
    with pytest.raises(ValidationError, match="report of kind 'estimate' does not match"):
        report.validate_report(doc)


def _nodes(value, path=()):
    """(path, value) of every node of a JSON document, the root first."""
    yield path, value
    children = (value.items() if type(value) is dict
                else enumerate(value) if type(value) is list else ())
    for key, child in children:
        yield from _nodes(child, (*path, key))


_MUTATIONS = {  # name -> (which nodes it applies to, the values it puts there)
    "drop": (lambda path, value: type(path[-1]) is str, [_DROP]),
    "swap": (lambda path, value: type(value) not in (dict, list),
             [True, False, 0, 1, 1.0, 2.5, -1, None, "x", [], {}]),
    "cut": (lambda path, value: type(value) is list and len(value) == 2, None),
    "alpha": (lambda path, value: path[-1] == "alpha", [0, 1, 0.0, 1.0]),
    "variance": (lambda path, value: path[-1] == "variance", [-1.0, -5e-324, -0.0, 0.0]),
    "lift_ci": (lambda path, value: path[-1] == "lift_ci",
                [[1.0], [1.0, 2.0, 3.0], [None, 1.0], "x", 0.5, {}]),
}


@st.composite
def mutated_reports(draw):
    """A real report of any kind after one to three of: a dropped key, a
    leaf swapped for another JSON value, a pair cut to one item, alpha at 0
    or 1, a negative variance, a ``lift_ci`` outside both ``oneOf`` branches."""
    doc = copy.deepcopy(REPORTS[draw(st.sampled_from(sorted(REPORTS)))])
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(_nodes(doc))[1:]
        targets = {name: [(path, value) for path, value in nodes if applies(path, value)]
                   for name, (applies, _) in _MUTATIONS.items()}
        name = draw(st.sampled_from([name for name, found in targets.items() if found]))
        path, value = draw(st.sampled_from(targets[name]))
        values = _MUTATIONS[name][1]
        _put(doc, path, value[:1] if values is None else draw(st.sampled_from(values)))
    return doc


@settings(max_examples=80)
@given(doc=mutated_reports())
def test_the_checker_agrees_with_jsonschema_on_mutated_reports(doc):
    valid = validator_for(report._SCHEMA)(report._SCHEMA).is_valid(doc)
    assert report._accepts(doc, report._SCHEMA) == valid
    if valid:
        report.validate_report(doc)
    else:
        test_validate_report_raises_what_jsonschema_validate_raises(doc)


def _left_as_it_was(path, earlier):
    """The destination still holds its earlier bytes, and no temp file is left."""
    assert path.read_text("utf-8") == earlier
    assert not list(path.parent.glob("*.tmp.*"))


def test_an_interrupted_table_write_leaves_the_earlier_table(tmp_path):
    # rows raise part-way, after more than one buffer of them has been written
    zeta = np.array([0.5] * 3000 + ["not a number"], dtype=object)
    est = np.zeros((zeta.size, 1))
    run = AaRun(model_ids=("dim",), zeta=zeta, ate=est, ci_lo=est - 1, ci_hi=est + 1,
                failed=np.zeros(est.shape, dtype=bool), arm=0, n_units=8, alpha=0.05,
                kappa=1, seed=0)
    path = tmp_path / "aa_splits.csv"
    path.write_text("earlier\n", encoding="utf-8")
    with pytest.raises(ValueError):
        write_splits_csv(run, path)
    _left_as_it_was(path, "earlier\n")


@pytest.fixture
def renames_fail(monkeypatch):
    def replace(src, dst):
        raise OSError("rename interrupted")

    monkeypatch.setattr(os, "replace", replace)


def test_an_interrupted_report_write_leaves_the_earlier_report(tmp_path, renames_fail):
    path = tmp_path / "report.json"
    path.write_text("earlier\n", encoding="utf-8")
    with pytest.raises(OSError, match="rename interrupted"):
        report.write_report(REPORTS["simulate"], path)
    _left_as_it_was(path, "earlier\n")


def test_an_interrupted_error_write_leaves_the_earlier_error_file(tmp_path, renames_fail):
    path = tmp_path / "error.json"
    path.write_text("earlier\n", encoding="utf-8")
    assert main(["estimate", "--input", str(tmp_path / "missing.csv"),
                 "--out", str(tmp_path)]) == 1
    _left_as_it_was(path, "earlier\n")
