"""Survey ingestion, screening, descriptives and train/holdout splitting.

The on-disk format is a flat CSV with header

    id,age_band,gender,experience_band,vessel_type,dwt_band,delay_hours,q0,q1,...,q32,q33

where q0 is overall satisfaction before the trip, q33 after, and
q1..q32 are the catalog items. Ratings are integers on a 1..5 Likert
scale; an empty cell is a missing rating. delay_hours may be empty.

A screened survey is held column by column (see SurveyDataset): one
int8 code array for all ratings, a float delay array and one list per
text field, so every summary is a numpy reduction over a column.
"""
from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Mapping, Sequence

import numpy as np

from .catalog import DEFAULT_CATALOG, SATI_AFTER, SATI_BEFORE, VariableCatalog


class SurveyFormatError(ValueError):
    """Raised when a survey file does not match the expected layout."""


DEMOGRAPHICS = ("age_band", "gender", "experience_band", "vessel_type", "dwt_band")
_HEADER_FIXED = ["id", *DEMOGRAPHICS, "delay_hours"]


def _expected_header(n_items: int) -> list[str]:
    return _HEADER_FIXED + [f"q{i}" for i in range(0, n_items + 2)]


@dataclass(frozen=True)
class RespondentRecord:
    """One screened questionnaire row."""

    id: str
    age_band: str
    gender: str
    experience_band: str
    vessel_type: str
    dwt_band: str
    delay_hours: float | None
    sati_before: int
    sati_after: int
    ratings: Mapping[int, int]

    def rating(self, index: int) -> int | None:
        """Rating for an observed-variable index (0 and 33 are the bookends)."""
        if index == SATI_BEFORE:
            return self.sati_before
        if index == SATI_AFTER:
            return self.sati_after
        return self.ratings.get(index)


@dataclass(frozen=True)
class RejectedRow:
    row_number: int
    respondent_id: str
    reason: str


@dataclass(frozen=True, eq=False)
class SurveyDataset:
    """Screened respondents, stored as columns in row order.

    codes        : int8 array of shape (n, len(catalog) + 2), one column per
                   questionnaire field q0..q33; column 0 and the last column
                   are the overall satisfaction bookends. 0 means missing.
    delay_hours  : float64 array of shape (n,), NaN where no delay was given.
    demographics : field name (see DEMOGRAPHICS) -> one string per row.

    Two datasets are equal when their rows are; ``rejected`` is not compared.
    """

    catalog: VariableCatalog
    respondent_ids: list[str]
    codes: np.ndarray
    delay_hours: np.ndarray
    demographics: Mapping[str, list[str]]
    rejected: tuple[RejectedRow, ...] = ()

    def __post_init__(self) -> None:
        n = len(self.respondent_ids)
        if self.codes.dtype != np.int8 or self.codes.shape != (n, len(self.catalog) + 2):
            raise ValueError(f"codes must be int8 of shape ({n}, {len(self.catalog) + 2})")
        if self.delay_hours.shape != (n,):
            raise ValueError(f"delay_hours must have shape ({n},)")
        if set(self.demographics) != set(DEMOGRAPHICS) or any(len(v) != n for v in self.demographics.values()):
            raise ValueError("demographics must hold one column of length n per field in DEMOGRAPHICS")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SurveyDataset):
            return NotImplemented
        return (
            self.catalog == other.catalog
            and self.respondent_ids == other.respondent_ids
            and np.array_equal(self.codes, other.codes)
            and np.array_equal(self.delay_hours, other.delay_hours, equal_nan=True)
            and dict(self.demographics) == dict(other.demographics)
        )

    @classmethod
    def from_records(cls, records: Iterable[RespondentRecord], catalog: VariableCatalog) -> "SurveyDataset":
        """Build a dataset from row records (ratings must lie in 1..5)."""
        records = tuple(records)
        n_items = len(catalog)
        rows: list[list[int]] = []
        for r in records:
            ratings = (r.sati_before, r.sati_after, *r.ratings.values())
            if not set(r.ratings) <= set(catalog.indices) or not all(1 <= v <= 5 for v in ratings):
                raise ValueError(f"respondent {r.id!r}: ratings must lie in 1..5 and name catalog items")
            rows.append([r.sati_before, *(r.ratings.get(i, 0) for i in range(1, n_items + 1)), r.sati_after])
        return cls(
            catalog,
            [r.id for r in records],
            np.array(rows, dtype=np.int8).reshape(len(records), n_items + 2),
            np.array([math.nan if r.delay_hours is None else r.delay_hours for r in records], dtype=float),
            {name: [getattr(r, name) for r in records] for name in DEMOGRAPHICS},
        )

    @property
    def n(self) -> int:
        return len(self.respondent_ids)

    def ids(self) -> tuple[str, ...]:
        return tuple(self.respondent_ids)

    @property
    def respondents(self) -> tuple[RespondentRecord, ...]:
        """The rows as records, built anew on each access."""
        demo = [self.demographics[name] for name in DEMOGRAPHICS]
        return tuple(
            RespondentRecord(
                rid,
                *fields,
                None if math.isnan(delay) else delay,
                row[0],
                row[-1],
                {i: row[i] for i in range(1, len(row) - 1) if row[i]},
            )
            for rid, *fields, delay, row in zip(
                self.respondent_ids, *demo, self.delay_hours.tolist(), self.codes.tolist()
            )
        )

    def _col(self, index: int) -> int:
        if index == SATI_AFTER:
            return self.codes.shape[1] - 1
        if 0 <= index <= len(self.catalog):
            return index
        raise KeyError(f"no observed variable {index}")

    def column(self, index: int) -> np.ndarray:
        """int8 codes of one observed variable, 0 where missing."""
        return self.codes[:, self._col(index)]

    def observed(self, index: int) -> np.ndarray:
        """The non-missing ratings of one observed variable, in row order."""
        col = self.column(index)
        return col[col != 0].astype(float)

    def complete(self, indices: Sequence[int]) -> np.ndarray:
        """Row mask: True where every one of the observed variables is rated."""
        return (self.codes[:, [self._col(i) for i in indices]] != 0).all(axis=1)

    def matrix(self, indices: Sequence[int]) -> tuple[list[str], np.ndarray]:
        """Ratings as a float matrix, one row per respondent.

        Rows with any missing rating among the requested indices are
        dropped (listwise deletion).
        """
        keep = self.complete(indices)
        X = self.codes[np.ix_(keep, [self._col(i) for i in indices])].astype(float)
        return list(compress(self.respondent_ids, keep.tolist())), X

    def _take(self, rows: np.ndarray) -> "SurveyDataset":
        """The rows where the boolean mask is set, in their original order."""
        keep = rows.tolist()
        return SurveyDataset(
            self.catalog,
            list(compress(self.respondent_ids, keep)),
            self.codes[rows],
            self.delay_hours[rows],
            {name: list(compress(col, keep)) for name, col in self.demographics.items()},
        )


def _parse_rating(cell: str) -> tuple[int | None, str | None]:
    cell = cell.strip()
    if cell == "":
        return None, None
    try:
        value = int(cell)
    except ValueError:
        return None, "invalid rating"
    if not 1 <= value <= 5:
        return None, "rating out of range"
    return value, None


# the exact spelling of each code's cell; any other cell goes through _parse_rating
_CELL_OF = ("", "1", "2", "3", "4", "5")


def _parse_codes(cells: Sequence[str]) -> tuple[bytes, str | None]:
    """Codes of one row's rating cells, or the first failing cell's reason."""
    codes = bytearray()
    for cell in cells:
        value, reason = _parse_rating(cell)
        if reason is not None:
            return bytes(codes), reason
        codes.append(value or 0)
    return bytes(codes), None


def _parse_delay(cell: str) -> tuple[float, str | None]:
    cell = cell.strip()
    if cell == "":
        return math.nan, None
    try:
        delay = float(cell)
    except ValueError:
        return math.nan, "invalid delay"
    if not math.isfinite(delay):
        return math.nan, "invalid delay"
    if delay < 0:
        return math.nan, "negative delay"
    return delay, None


_CODE_OF_DIGIT = bytes.maketrans(b"012345", bytes(range(6)))


def _codes_of(lines: list[str]) -> bytes:
    """Codes of rows written one digit per cell ("0" for blank) with cells joined by ","."""
    return ",".join(lines).encode("ascii")[::2].translate(_CODE_OF_DIGIT)


_ROWS_PER_DECODE = 1 << 12  # rows held as text before their codes are decoded


def load_survey(path: str, catalog: VariableCatalog = DEFAULT_CATALOG) -> SurveyDataset:
    """Read and screen a survey CSV.

    Rows failing validation are excluded from the dataset and reported
    on the returned object's ``rejected`` tuple together with the
    1-based data row number and a reason. A row's first failing check
    names the reason; an id is taken only by an accepted row.

    One pass of the csv reader keeps each accepted row's ratings as one
    string of digits, decoded some thousand rows at a time. Only rows
    whose rating cells are not all exact spellings ("", "1".."5") are
    parsed cell by cell.
    """
    n_items = len(catalog)
    expected = _expected_header(n_items)
    width = len(expected)
    line_length = 2 * (n_items + 2) - 1
    exact = frozenset(_CELL_OF).issuperset
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SurveyFormatError("empty survey file") from None
        if [h.strip() for h in header] != expected:
            raise SurveyFormatError(
                "unexpected header; want " + ",".join(expected[:8]) + ",...," + expected[-1]
            )
        ids: list[str] = []
        demo: list[list[str]] = [[] for _ in DEMOGRAPHICS]
        delays: list[float] = []
        lines: list[str] = []  # accepted rows' ratings as digits, not yet decoded
        codes = bytearray()
        rejected: list[RejectedRow] = []
        seen: set[str] = set()
        labels: dict[str, str] = {}  # one string object per distinct demographic value
        for row_number, row in enumerate(reader, start=1):
            rid = row[0].strip() if row else ""
            if rid == "" and all(c.strip() == "" for c in row):
                continue
            if len(row) != width:
                reason = "wrong number of fields"
            elif rid == "":
                reason = "missing respondent id"
            elif rid in seen:
                reason = "duplicate respondent id"
            else:
                delay, reason = _parse_delay(row[6])
                cells = row[7:]
                if reason is None and not exact(cells):
                    row_codes, reason = _parse_codes(cells)
                    cells = [_CELL_OF[v] for v in row_codes]
                if reason is None and (cells[0] == "" or cells[-1] == ""):
                    reason = "missing overall satisfaction"
            if reason is not None:
                rejected.append(RejectedRow(row_number, rid, reason))
                continue
            seen.add(rid)
            ids.append(rid)
            for col, cell in zip(demo, row[1:6]):
                value = cell.strip()
                col.append(labels.setdefault(value, value))
            delays.append(delay)
            line = ",".join(cells)
            if len(line) != line_length:  # blank cells: a "0" in each
                line = line.replace(",,", ",0,").replace(",,", ",0,")
            lines.append(line)
            if len(lines) == _ROWS_PER_DECODE:
                codes += _codes_of(lines)
                lines.clear()
        codes += _codes_of(lines)
    return SurveyDataset(
        catalog,
        ids,
        np.frombuffer(codes, dtype=np.int8).reshape(len(ids), n_items + 2),
        np.array(delays, dtype=float),
        dict(zip(DEMOGRAPHICS, demo)),
        tuple(rejected),
    )


def write_survey(d: SurveyDataset, path: str) -> None:
    """Write a dataset back to the flat CSV format (reload round-trips)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_expected_header(len(d.catalog)))
        demo = [d.demographics[name] for name in DEMOGRAPHICS]
        for rid, *fields, delay, row in zip(
            d.respondent_ids, *demo, d.delay_hours.tolist(), d.codes.tolist()
        ):
            cells = [_CELL_OF[v] for v in row]
            writer.writerow([rid, *fields, "" if math.isnan(delay) else repr(delay), *cells])


@dataclass(frozen=True)
class ItemStats:
    """Moment summary for one rating column.

    Skewness and kurtosis are the sample third and fourth standardized
    moments (kurtosis in excess form); both are None when fewer than two
    distinct values are observed. The normality screen passes when both
    statistics lie in [-1.5, 1.5].
    """

    n: int
    mean: float
    std: float
    skewness: float | None
    kurtosis: float | None
    normal: bool | None


@dataclass(frozen=True)
class DescriptiveReport:
    items: Mapping[int, ItemStats]
    sati_before: ItemStats
    sati_after: ItemStats
    overall_sati_after: float


def _column_stats(values: Sequence[int]) -> ItemStats:
    """Moments of one column of ratings (integers on the 1..5 scale)."""
    x = np.asarray(values, dtype=float)
    n = x.size
    if n == 0:
        return ItemStats(0, math.nan, math.nan, None, None, None)
    mean = float(np.mean(x))
    std = float(np.std(x, ddof=1)) if n >= 2 else 0.0
    if n < 2 or x.min() == x.max():
        return ItemStats(n, mean, std, None, None, None)
    level = x.astype(np.intp)
    if x.min() < 1 or x.max() > 5 or not np.array_equal(level, x):
        raise ValueError("ratings must be integers in 1..5")
    # each power of a deviation is computed once per level, then looked up
    dev = np.arange(6) - mean
    m2, m3, m4 = (float(np.mean((dev**p)[level])) for p in (2, 3, 4))
    skew = m3 / m2**1.5
    kurt = m4 / m2**2 - 3.0
    normal = abs(skew) <= 1.5 and abs(kurt) <= 1.5
    return ItemStats(n, mean, std, skew, kurt, normal)


def describe(d: SurveyDataset) -> DescriptiveReport:
    """Per-item moment summaries plus the overall satisfaction bookends."""
    items = {idx: _column_stats(d.observed(idx)) for idx in d.catalog.indices}
    before = _column_stats(d.observed(SATI_BEFORE))
    after = _column_stats(d.observed(SATI_AFTER))
    return DescriptiveReport(items, before, after, after.mean)


def split(d: SurveyDataset, n_train: int, seed: int) -> tuple[SurveyDataset, SurveyDataset]:
    """Deterministic train/holdout split.

    Respondent ids are sorted lexicographically, shuffled with the
    seeded generator, and the first n_train go to the training part.
    Original row order is preserved inside each part.
    """
    if not 0 < n_train < d.n:
        raise ValueError(f"n_train must be in (0, {d.n})")
    ids = sorted(d.respondent_ids)
    rng = random.Random(seed)
    rng.shuffle(ids)
    train_ids = set(ids[:n_train])
    in_train = np.fromiter((rid in train_ids for rid in d.respondent_ids), dtype=bool, count=d.n)
    return d._take(in_train), d._take(~in_train)
