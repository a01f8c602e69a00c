import jsonschema
import pytest
from jsonschema.validators import validator_for

from gobe import report


def test_report_schema_is_valid_under_its_metaschema():
    validator_for(report._SCHEMA).check_schema(report._SCHEMA)


@pytest.mark.parametrize("doc", [
    {"kind": "estimate", "seed": "x"},
    {"kind": "nope"},
    [],
])
def test_validate_report_raises_what_jsonschema_validate_raises(doc):
    with pytest.raises(jsonschema.ValidationError) as ours:
        report.validate_report(doc)
    with pytest.raises(jsonschema.ValidationError) as reference:
        jsonschema.validate(doc, report._SCHEMA)
    assert ours.value.message == reference.value.message
    assert list(ours.value.absolute_path) == list(reference.value.absolute_path)
    assert list(ours.value.schema_path) == list(reference.value.schema_path)
