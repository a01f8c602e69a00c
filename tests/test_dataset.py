import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gobe import (
    CsvSchema,
    ExperimentData,
    ParseError,
    SchemaError,
    SyntheticConfig,
    ValidationError,
    generate,
    load_csv,
    restrict_to_arm,
    write_csv,
)
from gobe.dataset import filter_by_day

from oracles import dim_ate


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def small_csv(tmp_path):
    return write_lines(tmp_path / "exp.csv", [
        "arm,kpi,pre,extra",
        "0,1.5,0.2,1.0",
        "0,2.5,0.1,2.0",
        "1,3.5,0.3,0.5",
        "1,4.5,0.4,1.5",
    ])


SCHEMA = CsvSchema(assignment="arm", outcome="kpi",
                   covariates=("pre", "extra"), pre_period="pre")


def test_load_minimal_file(small_csv):
    data = load_csv(small_csv, SCHEMA)
    assert data.n_units == 4
    assert data.k_covariates == 2
    assert data.arm_sizes() == (2, 2)
    assert data.pre_period_col == 0
    np.testing.assert_array_equal(data.assignment, [0, 0, 1, 1])


def test_assignment_value_two_names_row(tmp_path):
    path = write_lines(tmp_path / "bad.csv", [
        "arm,kpi,pre,extra", "0,1,0,0", "2,1,0,0", "1,1,0,0",
    ])
    with pytest.raises(ValidationError, match="row 2"):
        load_csv(path, SCHEMA)


def test_single_arm_rejected(tmp_path):
    path = write_lines(tmp_path / "one_arm.csv", [
        "arm,kpi,pre,extra", "0,1,0,0", "0,2,0,0",
    ])
    with pytest.raises(ValidationError, match="non-empty"):
        load_csv(path, SCHEMA)


def test_unparseable_cell_names_row(tmp_path):
    path = write_lines(tmp_path / "junk.csv", [
        "arm,kpi,pre,extra", "0,1,0,0", "1,oops,0,0",
    ])
    with pytest.raises(ParseError, match="row 2.*kpi"):
        load_csv(path, SCHEMA)


def test_non_finite_cell_rejected(tmp_path):
    path = write_lines(tmp_path / "nan.csv", [
        "arm,kpi,pre,extra", "0,1,0,0", "1,nan,0,0",
    ])
    with pytest.raises(ValidationError, match="row 2.*non-finite"):
        load_csv(path, SCHEMA)


def test_missing_column_is_schema_error(tmp_path):
    path = write_lines(tmp_path / "cols.csv", ["arm,kpi,pre", "0,1,0", "1,1,0"])
    with pytest.raises(SchemaError, match="extra"):
        load_csv(path, SCHEMA)


def test_pre_period_must_be_covariate():
    with pytest.raises(SchemaError):
        CsvSchema(assignment="a", outcome="y", covariates=("z",), pre_period="w")


def test_round_trip_is_identity(tmp_path):
    data = generate(SyntheticConfig(n_units=60, k_covariates=3, outcome_cor=0.4,
                                    daily_arrivals=10.0, seed=5))
    schema = write_csv(data, tmp_path / "roundtrip.csv")
    back = load_csv(tmp_path / "roundtrip.csv", schema)
    np.testing.assert_array_equal(back.assignment, data.assignment)
    np.testing.assert_array_equal(back.outcome, data.outcome)
    np.testing.assert_array_equal(back.covariates, data.covariates)
    np.testing.assert_array_equal(back.day_index, data.day_index)
    assert back.pre_period_col == data.pre_period_col


_SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3.0)
_FLOATS = st.one_of(st.sampled_from(_SPECIAL_FLOATS),
                    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def csv_datasets(draw):
    n, k = draw(st.integers(2, 12)), draw(st.integers(1, 3))
    assignment = [0, 1] + draw(st.lists(st.integers(0, 1), min_size=n - 2, max_size=n - 2))
    rows = st.lists(_FLOATS, min_size=n, max_size=n)
    days = draw(st.one_of(st.none(), st.lists(st.integers(1, 10**6), min_size=n, max_size=n)))
    return ExperimentData(
        unit_ids=np.array(draw(st.lists(st.integers(-(2**62), 2**62), min_size=n, max_size=n))),
        assignment=np.array(assignment),
        outcome=np.array(draw(rows)),
        covariates=np.column_stack([draw(rows) for _ in range(k)]),
        pre_period_col=draw(st.integers(0, k - 1)),
        day_index=None if days is None else np.array(days),
    )


@given(data=csv_datasets())
def test_csv_round_trip_is_bit_exact(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    back = load_csv(path, write_csv(data, path))
    np.testing.assert_array_equal(back.assignment, data.assignment)
    np.testing.assert_array_equal(back.outcome.view(np.uint64), data.outcome.view(np.uint64))
    np.testing.assert_array_equal(back.covariates.view(np.uint64),
                                  data.covariates.view(np.uint64))
    if data.day_index is None:
        assert back.day_index is None
    else:
        np.testing.assert_array_equal(back.day_index, data.day_index)
    assert back.unit_ids.tolist() == [str(u) for u in data.unit_ids.tolist()]
    assert back.pre_period_col == data.pre_period_col


def test_generate_independent_case():
    data = generate(SyntheticConfig(n_units=1000, outcome_cor=0.0, seed=7))
    corr = np.corrcoef(data.pre_period, data.outcome)[0, 1]
    assert abs(corr) < 0.1


def test_generate_targets_correlation():
    data = generate(SyntheticConfig(n_units=50_000, outcome_cor=0.8, seed=3))
    corr = np.corrcoef(data.pre_period, data.outcome)[0, 1]
    assert abs(corr - 0.8) < 0.02


def test_generate_dim_recovers_effect_within_3se():
    # CLT bound: the arm-mean difference should land within 3 standard
    # errors of the injected effect, with the SE taken from the sample.
    data = generate(SyntheticConfig(n_units=10**5, outcome_cor=0.8,
                                    true_ate=0.5, seed=21))
    y, j = data.outcome, data.assignment
    se = np.sqrt(y[j == 1].var(ddof=1) / (j == 1).sum()
                 + y[j == 0].var(ddof=1) / (j == 0).sum())
    assert abs(dim_ate(y, j) - 0.5) < 3 * se


def test_generate_is_deterministic():
    a = generate(SyntheticConfig(n_units=500, k_covariates=4, outcome_cor=0.3,
                                 daily_arrivals=25.0, seed=99))
    b = generate(SyntheticConfig(n_units=500, k_covariates=4, outcome_cor=0.3,
                                 daily_arrivals=25.0, seed=99))
    np.testing.assert_array_equal(a.outcome, b.outcome)
    np.testing.assert_array_equal(a.covariates, b.covariates)
    np.testing.assert_array_equal(a.assignment, b.assignment)
    np.testing.assert_array_equal(a.day_index, b.day_index)
    c = generate(SyntheticConfig(n_units=500, k_covariates=4, outcome_cor=0.3,
                                 daily_arrivals=25.0, seed=100))
    assert not np.array_equal(a.outcome, c.outcome)


@pytest.mark.parametrize("bad", [
    dict(n_units=1),
    dict(assignment_prob=0.0),
    dict(assignment_prob=1.0),
    dict(outcome_cor=1.5),
    dict(noise_sd=0.0),
    dict(k_covariates=0),
])
def test_config_validation(bad):
    with pytest.raises(ValidationError):
        SyntheticConfig(**{"n_units": 100, **bad})


def test_restrict_to_arm():
    data = ExperimentData(
        unit_ids=np.arange(3), assignment=np.array([0, 0, 1]),
        outcome=np.array([1.0, 2.0, 3.0]), covariates=np.zeros((3, 1)),
        pre_period_col=0,
    )
    assert restrict_to_arm(data, 0).n_units == 2
    assert restrict_to_arm(data, 1).n_units == 1
    with pytest.raises(ValidationError, match="unknown arm"):
        restrict_to_arm(data, 2)


def test_restriction_partitions_rows():
    data = generate(SyntheticConfig(n_units=301, seed=2))
    part0 = restrict_to_arm(data, 0)
    part1 = restrict_to_arm(data, 1)
    assert part0.n_units + part1.n_units == data.n_units
    merged = np.sort(np.concatenate([part0.unit_ids, part1.unit_ids]))
    np.testing.assert_array_equal(merged, np.sort(data.unit_ids))


def test_day_filter():
    data = generate(SyntheticConfig(n_units=400, daily_arrivals=40.0, seed=8))
    early = filter_by_day(data, 5)
    assert early.n_units == int((data.day_index <= 5).sum())
    assert early.day_index.max() <= 5
    no_days = generate(SyntheticConfig(n_units=50, seed=8))
    with pytest.raises(ValidationError, match="day column"):
        filter_by_day(no_days, 5)


def test_arrival_days_start_at_one_and_cover_rate():
    data = generate(SyntheticConfig(n_units=2000, daily_arrivals=100.0, seed=17))
    assert data.day_index.min() == 1
    # ~20 days expected at 100/day; generous band against Poisson noise
    assert 15 <= data.day_index.max() <= 27


def _arrival_days_one_day_at_a_time(rng, n, rate):
    days, filled, day = [], 0, 0
    while filled < n:
        day += 1
        count = min(int(rng.poisson(rate)), n - filled)
        days += [day] * count
        filled += count
    return np.array(days, dtype=np.int64)


@pytest.mark.parametrize("rate", [0.01, 0.7, 12.0, 1000.0])
@pytest.mark.parametrize("seed", [0, 5])
def test_arrival_days_match_a_day_at_a_time_loop(rate, seed):
    from gobe.dataset import _poisson_arrival_days

    for n in (2, 333):
        expected = _arrival_days_one_day_at_a_time(np.random.default_rng(seed), n, rate)
        got = _poisson_arrival_days(np.random.default_rng(seed), n, rate)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)


def test_arrival_rate_too_small_to_fill_raises():
    with pytest.raises(ValidationError, match="daily_arrivals too small"):
        generate(SyntheticConfig(n_units=5, daily_arrivals=1e-8, seed=0))


def test_immutability():
    data = generate(SyntheticConfig(n_units=10, seed=0))
    with pytest.raises(ValueError):
        data.outcome[0] = 99.0
    with pytest.raises(ValueError):
        data.covariates[0, 0] = 99.0
