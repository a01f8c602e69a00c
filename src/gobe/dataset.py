"""Experiment data model, CSV ingestion, and synthetic data generation.

The unit-level table is immutable after construction: its arrays are
marked read-only. Loading rejects malformed rows with an error naming the row
rather than imputing or dropping.
"""

from __future__ import annotations

import csv
import io
import math
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import report
from .errors import ParseError, SchemaError, ValidationError

_MAX_GENERATED_DAYS = 10_000_000


@dataclass(frozen=True)
class CsvSchema:
    """Column-role mapping for CSV ingestion.

    ``pre_period`` must name one of the ``covariates`` columns; ``day`` and
    ``unit_id`` are optional.
    """

    assignment: str
    outcome: str
    covariates: tuple[str, ...]
    pre_period: str
    day: str | None = None
    unit_id: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(self.covariates))
        if not self.covariates:
            raise SchemaError("schema needs at least one covariate column")
        if self.pre_period not in self.covariates:
            raise SchemaError(
                f"pre-period column {self.pre_period!r} is not among the covariates"
            )
        names = [self.assignment, self.outcome, *self.covariates,
                 *(name for name in (self.day, self.unit_id) if name is not None)]
        if len(set(names)) != len(names):
            raise SchemaError("schema maps the same column to more than one role")

    @property
    def pre_period_col(self) -> int:
        return self.covariates.index(self.pre_period)


@dataclass(frozen=True)
class ExperimentData:
    """Unit-level records of one experiment.

    ``covariates`` is an N x K float matrix; ``pre_period_col`` marks the
    column holding each unit's pre-experimental value of the outcome metric,
    used for imbalance computations. ``day_index`` (1-based trigger day) is
    present only when duration analysis is requested.
    """

    unit_ids: np.ndarray
    assignment: np.ndarray
    outcome: np.ndarray
    covariates: np.ndarray
    pre_period_col: int
    day_index: np.ndarray | None = None

    def __post_init__(self):
        unit_ids = np.asarray(self.unit_ids)
        assignment = np.asarray(self.assignment)
        outcome = np.ascontiguousarray(self.outcome, dtype=np.float64)
        covariates = np.ascontiguousarray(self.covariates, dtype=np.float64)
        if covariates.ndim != 2:
            raise ValidationError("covariates must be a 2-D matrix")
        n = outcome.shape[0]
        if n < 1:
            raise ValidationError("dataset is empty")
        if not (assignment.shape == (n,) and covariates.shape[0] == n and unit_ids.shape == (n,)):
            raise ValidationError("column lengths disagree")
        # the given values, before the cast would recode them (0.5 and nan to 0)
        if not ((assignment == 0) | (assignment == 1)).all():
            raise ValidationError("assignment values must be 0 or 1")
        assignment = np.ascontiguousarray(assignment, dtype=np.int8)
        if not np.isfinite(outcome).all():
            raise ValidationError("outcome contains non-finite values")
        if not np.isfinite(covariates).all():
            raise ValidationError("covariates contain non-finite values")
        if not 0 <= self.pre_period_col < covariates.shape[1]:
            raise ValidationError(
                f"pre_period_col {self.pre_period_col} out of range for K={covariates.shape[1]}"
            )
        day_index = self.day_index
        if day_index is not None:
            day_index = np.asarray(day_index)
            if day_index.shape != (n,):
                raise ValidationError("day_index length disagrees with outcome")
            if not ((day_index >= 1) & (day_index < 2.0 ** 63)
                    & (day_index == np.floor(day_index))).all():
                raise ValidationError("day_index values must be positive integers")
            day_index = np.ascontiguousarray(day_index, dtype=np.int64)
            day_index.setflags(write=False)
        for arr in (unit_ids, assignment, outcome, covariates):
            arr.setflags(write=False)
        object.__setattr__(self, "unit_ids", unit_ids)
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "covariates", covariates)
        object.__setattr__(self, "day_index", day_index)

    @property
    def n_units(self) -> int:
        return self.outcome.shape[0]

    @property
    def k_covariates(self) -> int:
        return self.covariates.shape[1]

    @property
    def pre_period(self) -> np.ndarray:
        """The designated pre-experimental column of the covariate matrix."""
        return self.covariates[:, self.pre_period_col]

    def arm_mask(self, t: int) -> np.ndarray:
        return self.assignment == t

    def arm_sizes(self) -> tuple[int, int]:
        n1 = int(np.count_nonzero(self.assignment))
        return self.n_units - n1, n1


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the synthetic experiment generator.

    The outcome is built as ``rho * x + sqrt(1 - rho^2) * noise_sd * eps +
    true_ate * J`` with ``x`` (the pre-period column) and ``eps`` standard
    normal, so at ``noise_sd = 1`` corr(x, Y) targets ``rho``. Remaining
    covariates are independent standard normals.
    """

    n_units: int
    assignment_prob: float = 0.5
    k_covariates: int = 1
    outcome_cor: float = 0.0
    true_ate: float = 0.0
    noise_sd: float = 1.0
    daily_arrivals: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_units < 2:
            raise ValidationError("n_units must be >= 2")
        if not 0.0 < self.assignment_prob < 1.0:
            raise ValidationError("assignment_prob must be in (0, 1)")
        if self.k_covariates < 1:
            raise ValidationError("k_covariates must be >= 1")
        if abs(self.outcome_cor) > 1.0:
            raise ValidationError("outcome_cor must be in [-1, 1]")
        if self.noise_sd <= 0.0:
            raise ValidationError("noise_sd must be > 0")
        if self.daily_arrivals < 0.0:
            raise ValidationError("daily_arrivals must be >= 0")


def generate(config: SyntheticConfig) -> ExperimentData:
    """Generate a synthetic experiment, deterministic in the config seed; an arm may be empty."""
    rng = np.random.default_rng(config.seed)
    n, k = config.n_units, config.k_covariates
    rho = config.outcome_cor
    assignment = (rng.random(n) < config.assignment_prob).astype(np.int8)
    x = rng.standard_normal(n)
    eps = rng.standard_normal(n)
    outcome = (rho * x
               + math.sqrt(1.0 - rho * rho) * config.noise_sd * eps
               + config.true_ate * assignment)
    covariates = np.empty((n, k))
    covariates[:, 0] = x
    if k > 1:
        covariates[:, 1:] = rng.standard_normal((n, k - 1))
    day_index = _poisson_arrival_days(rng, n, config.daily_arrivals) if config.daily_arrivals > 0 else None
    return ExperimentData(
        unit_ids=np.arange(n, dtype=np.int64),
        assignment=assignment,
        outcome=outcome,
        covariates=covariates,
        pre_period_col=0,
        day_index=day_index,
    )


def _poisson_arrival_days(rng: np.random.Generator, n: int, rate: float) -> np.ndarray:
    """Assign units to days via cumulative Poisson arrival counts, drawn in
    blocks of days (bit-identical to one draw per day); only days with
    arrivals are kept between blocks."""
    block = int(min(1 << 20, max(1024, n / rate)))
    days, counts = [], []
    filled = 0
    for start in range(0, _MAX_GENERATED_DAYS, block):
        drawn = rng.poisson(rate, size=min(block, _MAX_GENERATED_DAYS - start))
        hit = np.flatnonzero(drawn)
        days.append(start + 1 + hit)
        counts.append(drawn[hit])
        filled += int(counts[-1].sum())
        if filled >= n:
            filled_by_day = np.minimum(np.cumsum(np.concatenate(counts)), n)
            return np.repeat(np.concatenate(days), np.diff(filled_by_day, prepend=0))
    raise ValidationError("daily_arrivals too small to populate the experiment")


def restrict_to_arm(data: ExperimentData, t: int) -> ExperimentData:
    """Keep only the units assigned to arm ``t`` (assignment retained as-is)."""
    if t not in (0, 1):
        raise ValidationError(f"unknown arm {t!r}; arms are 0 and 1")
    mask = data.arm_mask(t)
    if not mask.any():
        raise ValidationError(f"arm {t} is empty")
    return _subset(data, mask)


def check_days(day: int | None, horizon: int | None = None) -> None:
    """Raise ValidationError unless ``day`` >= 1 and ``horizon`` >= ``day``, where given."""
    if day is not None and day < 1:
        raise ValidationError("day filter must be >= 1")
    if horizon is not None and horizon < day:
        raise ValidationError("horizon must not precede the analysis day")


def filter_by_day(data: ExperimentData, day: int) -> ExperimentData:
    """Keep only units that triggered on or before ``day``. Arm sizes are left
    to the estimate (``estimator.checked_arms``), so a subset too small to
    estimate is told both of its arm sizes, whichever arm is short."""
    if data.day_index is None:
        raise ValidationError("day filtering requires a day column")
    check_days(day)
    mask = data.day_index <= day
    if not mask.any():
        raise ValidationError(f"no units triggered by day {day}")
    return _subset(data, mask)


def _subset(data: ExperimentData, rows: np.ndarray) -> ExperimentData:
    """The same experiment restricted to the selected rows (mask or indices)."""
    return replace(
        data,
        unit_ids=data.unit_ids[rows],
        assignment=data.assignment[rows],
        outcome=data.outcome[rows],
        covariates=data.covariates[rows],
        day_index=None if data.day_index is None else data.day_index[rows],
    )


def with_assignment(data: ExperimentData, assignment: np.ndarray) -> ExperimentData:
    """Same units with a replacement arm labelling (used by tests and the benchmark replay)."""
    return replace(data, assignment=assignment)


def load_csv(path, schema: CsvSchema) -> ExperimentData:
    """Load and validate an experiment table from a UTF-8 CSV file.

    The input is plain comma-separated UTF-8 text whose first line is a
    header naming the columns; fields may be quoted as in ``csv.reader``'s
    default dialect, and columns the schema does not map are ignored. Every
    data row must have as many fields as the header. No arm size or row count
    is checked here: each command checks the arms it reads, and a header-only
    file fails in ``ExperimentData`` (``dataset is empty``).

    Any unparseable or non-finite cell in a mapped column aborts the load
    with an error naming the offending data row (1-based, header excluded).
    Unit ids from a mapped ``unit_id`` column come back as strings, whatever
    type they had when written; without one they are the row positions
    0..N-1. Numbers parse bit-exactly from ``write_csv``'s output. A file
    with no quote or bare CR is opened once, checked in blocks of whole lines
    (a 1 MiB read completed to the end of its line), which give up their unit
    ids as they are checked, and parsed by numpy one block at a time into
    columns allocated at their final size, so the load holds the columns plus
    one block; others go to the row parser, which holds every row. A
    fast-path load whose bytes (keyed by their size and sha256) and schema
    equal those of the last accepted parse in the process returns that parse
    after one hash pass over the file; the process holds that one parse until
    a different input is parsed.
    """
    columns = _read_columns_fast(path, schema)
    if columns is None:
        columns = _read_rows(path, schema)
    ids, assignment, outcome, covariates, days = columns
    return ExperimentData(
        unit_ids=ids if ids is not None else np.arange(outcome.shape[0], dtype=np.int64),
        assignment=assignment,
        outcome=outcome,
        covariates=covariates,
        pre_period_col=schema.pre_period_col,
        day_index=days,
    )


# Bytes read per step by ``_line_blocks``.
_CHUNK_BYTES = 1 << 20

# Bytes on which numpy's reader and the row parser could disagree: a quote (a
# quoted field may hold a comma) and the separators U+001C-U+001F, which numpy
# strips around a number and float() does not. A carriage return not ending a
# line is checked for apart from these. None of them, and neither "," nor
# "\n", occurs inside a multi-byte UTF-8 sequence, so the checks read bytes.
_ROW_PARSER_ONLY = (b'"', b"\x1c", b"\x1d", b"\x1e", b"\x1f")
# Every byte but "," and "\n", deleted to leave a block's line structure.
_NOT_SEPARATOR = bytes(b for b in range(256) if b not in b",\n")
# ((schema, file size, sha256 of the scanned bytes), read-only columns) of the
# last accepted parse
_last_parse = None


def _read_columns_fast(path, schema: CsvSchema):
    """The mapped columns parsed by numpy's C reader, or None to leave the
    file to the row parser.

    Returns what ``_read_rows`` returns, value for value, for every file it
    accepts. It declines a file with a line ``_plain_lines`` rejects (a blank
    one included), an empty header line or one that does not resolve the
    schema's columns, a number numpy does not read (``1_000``, non-ASCII
    digits), or a value the row parser rejects: non-finite numbers, an
    assignment other than 0/1, or a day that is not an integer >= 1 (days
    from 2**53 up are declined too). It also declines a file whose lines
    changed in number since they were counted, and a block on which numpy
    warns (a block emptied since then). It has no row-count or arm rule: a
    header-only file gives empty columns, which ``ExperimentData`` rejects.

    The file is opened once. A call under the schema of the last accepted
    parse, on a file of its size, first hashes the file in one pass over
    ``_line_blocks`` and, if the bytes are the same, returns that parse.
    Otherwise the parse is released and ``_plain_lines`` checks and counts
    the lines of each block as its bytes are hashed; with a mapped
    ``unit_id``, the block's ids are split off into an array of their own,
    and the arrays are joined once the scan ends. Then the columns are
    allocated at their final size, and ``np.loadtxt`` parses each scanned
    block from the same handle into place. Beyond the columns and ids it
    holds one block and its parse. A result is kept if the file's size and
    mtime did not change.
    """
    import hashlib  # not at the top: ``import gobe.cli`` need not load OpenSSL

    global _last_parse
    held, _last_parse = _last_parse, None  # a declined file drops it too
    with open(path, "rb") as fh:
        scanned = os.fstat(fh.fileno())
        header = fh.readline()
        digest = hashlib.sha256(header)
        if held is not None and held[0][:2] == (schema, scanned.st_size):
            for block in _line_blocks(fh):
                digest.update(block)
            if held[0][2] == digest.digest():
                _last_parse = held
                return held[1]
            fh.seek(len(header))
            digest = hashlib.sha256(header)
        held = None
        commas = header.count(b",")
        # csv.reader reads an empty line as no fields, not as one empty field.
        if header in (b"\n", b"\r\n") or not _plain_lines(header, commas):
            return None
        try:
            col = _resolve_columns(header.rstrip(b"\r\n").decode().split(","), schema, path)
        except SchemaError:  # the row parser raises it, unless the rows fail first
            return None
        counts, ids = [], []  # the lines of each block, and its unit ids if mapped
        for block in _line_blocks(fh):
            lines = _plain_lines(block, commas)
            if lines is None:
                return None
            digest.update(block)
            counts.append(lines)
            if schema.unit_id is not None:  # every CR ends a CRLF pair, and every line a feed
                ids.append(np.array([line.split(",")[col[schema.unit_id]] for line in
                                     block.decode("utf-8").replace("\r", "").split("\n")[:-1]]))
        n_rows = sum(counts)
        ids = np.concatenate(ids) if ids else None
        numeric = [schema.assignment, schema.outcome, *schema.covariates]
        if schema.day is not None:
            numeric.append(schema.day)
        usecols, k = [col[c] for c in numeric], len(schema.covariates)
        assignment, outcome = np.empty(n_rows, np.int8), np.empty(n_rows)
        covariates = np.empty((n_rows, k))
        days = None if schema.day is None else np.empty(n_rows, np.int64)
        fh.seek(len(header))
        end = 0
        with io.TextIOWrapper(fh, encoding="utf-8") as text, warnings.catch_warnings():
            # numpy warns "input contained no data" on a block emptied since the scan
            warnings.simplefilter("error", UserWarning)
            for count in counts:  # a text handle holds less memory than bytes lines
                try:
                    table = np.loadtxt(text, delimiter=",", comments=None, usecols=usecols,
                                       ndmin=2, max_rows=count)
                except (ValueError, UserWarning):
                    return None
                if table.shape[0] != count or not np.isfinite(table).all():
                    return None  # fewer rows: the file changed since the scan
                arm, day = table[:, 0], table[:, -1]
                if not ((arm == 0) | (arm == 1)).all() or days is not None and not (
                        (day >= 1) & (day < 2.0 ** 53) & (day == np.floor(day))).all():
                    return None
                rows = slice(end, end + count)
                assignment[rows], outcome[rows] = arm, table[:, 1]
                covariates[rows] = table[:, 2:2 + k]
                if days is not None:
                    days[rows] = day
                end += count
            if text.read(1):  # more lines than the scan counted
                return None
            parsed = os.fstat(text.fileno())
    columns = (ids, assignment, outcome, covariates, days)
    for arr in columns:
        if arr is not None:
            arr.setflags(write=False)
    if (scanned.st_size, scanned.st_mtime_ns) == (parsed.st_size, parsed.st_mtime_ns):
        _last_parse = ((schema, scanned.st_size, digest.digest()), columns)  # bytes hashed
    return columns


def _line_blocks(fh):
    """The rest of ``fh`` as ``_CHUNK_BYTES`` reads completed to whole lines; a
    last line gets a missing line feed unless it ends in CR, for the CR check."""
    while block := fh.read(_CHUNK_BYTES):
        if not block.endswith(b"\n"):
            block += fh.readline()
            if not block.endswith((b"\n", b"\r")):
                block += b"\n"
        yield block


def _plain_lines(block: bytes, commas: int) -> int | None:
    """The number of lines ``block`` ends, or None if it is not strict UTF-8,
    holds a ``_ROW_PARSER_ONLY`` byte or a carriage return outside a CRLF
    pair, or ends a line whose comma count is not ``commas``."""
    if not block.isascii():
        try:
            block.decode("utf-8")
        except UnicodeDecodeError:
            return None
    if any(b in block for b in _ROW_PARSER_ONLY) or (
            b"\r" in block and block.count(b"\r") != block.count(b"\r\n")):
        return None
    separators = np.frombuffer(block.translate(None, _NOT_SEPARATOR), dtype=np.uint8)
    feeds = np.flatnonzero(separators == ord("\n"))
    # commas on each line: the gaps between its feed and the one before
    if (np.diff(feeds, prepend=-1) - 1 != commas).any():
        return None
    return feeds.size


def _read_rows(path, schema: CsvSchema):
    """The reference row parser: ``(ids, assignment, outcome, covariates,
    days)``, with ``ids``/``days`` None when unmapped, each cell parsed by
    ``float()`` and checked in the row that holds it."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise ParseError(f"header: {exc}") from None
        if header is None:
            raise SchemaError(f"{path}: file is empty")
        col = _resolve_columns(header, schema, path)
        assignment, outcome, days, ids = [], [], [], []
        cov_rows = []
        try:
            for i, row in enumerate(reader, start=1):
                if len(row) != len(header):
                    raise ParseError(f"row {i}: expected {len(header)} fields, got {len(row)}")
                assignment.append(_parse_assignment(row[col[schema.assignment]], i, schema.assignment))
                outcome.append(_parse_number(row[col[schema.outcome]], i, schema.outcome))
                cov_rows.append([_parse_number(row[col[c]], i, c) for c in schema.covariates])
                if schema.day is not None:
                    days.append(_parse_day(row[col[schema.day]], i, schema.day))
                if schema.unit_id is not None:
                    ids.append(row[col[schema.unit_id]])
        except csv.Error as exc:  # raised by the reader, before the row is parsed
            raise ParseError(f"row {len(outcome) + 1}: {exc}") from None
    return (np.array(ids) if ids else None,
            np.array(assignment, dtype=np.int8),
            np.array(outcome),
            np.array(cov_rows).reshape(len(outcome), len(schema.covariates)),
            np.array(days, dtype=np.int64) if days else None)


def write_csv(data: ExperimentData, path) -> CsvSchema:
    """Write a dataset as CSV with columns ``unit_id``, ``assignment``,
    ``outcome``, ``z1``..``zK`` and, if it has days, ``day``; floats use
    shortest round-trip formatting.

    Returns the schema describing the written columns, suitable for
    load_csv to reproduce the dataset exactly.
    """
    covs = [f"z{i + 1}" for i in range(data.k_covariates)]
    day = "day" if data.day_index is not None else None

    def rows():
        for i in range(data.n_units):
            row = [data.unit_ids[i], int(data.assignment[i]), repr(float(data.outcome[i]))]
            row.extend(repr(float(v)) for v in data.covariates[i])
            if day:
                row.append(int(data.day_index[i]))
            yield row

    header = ["unit_id", "assignment", "outcome", *covs] + ([day] if day else [])
    report.write_file(path, header, rows())
    return CsvSchema(assignment="assignment", outcome="outcome", covariates=tuple(covs),
                     pre_period=covs[data.pre_period_col], day=day, unit_id="unit_id")


def _resolve_columns(header: list[str], schema: CsvSchema, path) -> dict[str, int]:
    needed = [schema.assignment, schema.outcome, *schema.covariates]
    if schema.day is not None:
        needed.append(schema.day)
    if schema.unit_id is not None:
        needed.append(schema.unit_id)
    col = {}
    for name in needed:
        hits = [i for i, h in enumerate(header) if h == name]
        if not hits:
            raise SchemaError(f"{path}: column {name!r} not found in header")
        if len(hits) > 1:
            raise SchemaError(f"{path}: column {name!r} appears more than once")
        col[name] = hits[0]
    return col


def _parse_number(text: str, row: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(
            f"row {row}, column {column!r}: cannot parse {text!r} as a number"
        ) from None
    if not math.isfinite(value):
        raise ValidationError(f"row {row}, column {column!r}: non-finite value {text!r}")
    return value


def _parse_assignment(text: str, row: int, column: str) -> int:
    value = _parse_number(text, row, column)
    if value not in (0.0, 1.0):
        raise ValidationError(
            f"row {row}, column {column!r}: assignment must be 0 or 1, got {text!r}"
        )
    return int(value)


def _parse_day(text: str, row: int, column: str) -> int:
    value = _parse_number(text, row, column)
    if value != int(value) or value < 1:
        raise ValidationError(
            f"row {row}, column {column!r}: day must be a positive integer, got {text!r}"
        )
    if value >= 2.0 ** 63:
        raise ValidationError(
            f"row {row}, column {column!r}: day {text!r} does not fit a 64-bit integer"
        )
    return int(value)
