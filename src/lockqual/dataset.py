"""Survey ingestion, screening, descriptives and the train/holdout row mask.

The on-disk format is a flat CSV with header

    id,age_band,gender,experience_band,vessel_type,dwt_band,delay_hours,q0,q1,...,q32,q33

where q0 is overall satisfaction before the trip, q33 after, and
q1..q32 are the catalog items. Ratings are integers on a 1..5 Likert
scale; an empty cell is a missing rating. delay_hours may be empty.

A screened survey is held column by column (see SurveyDataset): one
int8 code array for all ratings, a float delay array, one string array
of ids and one number per row for its demographic cells, so every
summary is a numpy reduction over a column. A dataset is read with
load_survey or built from such columns; it has no per-row record form.
The training and holdout parts are not copied out of it: split draws a
boolean row mask, and `complete` and `moments` read the rows it sets.

load_survey reads the file in blocks of whole lines and screens each
block with NumPy over the byte positions of its line ends and commas;
only rows that fail a column screen are screened one by one. The first
block that csv.reader might split otherwise (a quote, a NUL, a CR not
followed by LF, a line longer than the csv field size limit) hands the
rest of the file to csv.reader.
"""
from __future__ import annotations

import codecs
import csv
import io
import math
import random
from array import array
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from numpy.dtypes import StringDType

from .catalog import DEFAULT_CATALOG, SATI_AFTER, SATI_BEFORE, VariableCatalog
from .moments import Moments

__all__ = [
    "SurveyFormatError",
    "DEMOGRAPHICS",
    "RespondentRecord",
    "RejectedRow",
    "Demographics",
    "SurveyDataset",
    "ItemStats",
    "DescriptiveReport",
    "load_survey",
    "write_survey",
    "describe",
    "split",
]


class SurveyFormatError(ValueError):
    """Raised when a survey file does not match the expected layout."""


DEMOGRAPHICS = ("age_band", "gender", "experience_band", "vessel_type", "dwt_band")
_HEADER_FIXED = ["id", *DEMOGRAPHICS, "delay_hours"]


def _expected_header(n_items: int) -> list[str]:
    return _HEADER_FIXED + [f"q{i}" for i in range(0, n_items + 2)]


@dataclass(frozen=True)
class RespondentRecord:
    """One questionnaire row as a record, the form that scoring.lvr and
    scoring.score_respondent score; a SurveyDataset holds its rows as columns."""

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


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


class Demographics:
    """The demographic cells of each row, as the number of its distinct tuple of cells.

    combos : the distinct tuples of cells, each in DEMOGRAPHICS order
    number : read-only int64 array of shape (n,), each row's tuple in combos
    """

    def __init__(self, combos: Sequence[tuple[str, ...]], number: np.ndarray) -> None:
        self.combos = tuple(combos)
        self.number = _read_only(np.asarray(number, dtype=np.int64))

    @classmethod
    def of_columns(cls, columns: Mapping[str, Sequence[str]]) -> "Demographics":
        """Number the rows of one string column per field in DEMOGRAPHICS."""
        if set(columns) != set(DEMOGRAPHICS) or len({len(columns[name]) for name in DEMOGRAPHICS}) != 1:
            raise ValueError("demographics must hold one column of length n per field in DEMOGRAPHICS")
        combo: dict[tuple[str, ...], int] = {}
        rows = zip(*(columns[name] for name in DEMOGRAPHICS))
        number = np.fromiter((combo.setdefault(t, len(combo)) for t in rows), dtype=np.int64)
        return cls(list(combo), number)

    def rows(self) -> list[tuple[str, ...]]:
        """Each row's cells, in DEMOGRAPHICS order."""
        return list(map(self.combos.__getitem__, self.number.tolist()))


@dataclass(frozen=True, eq=False)
class SurveyDataset:
    """Screened respondents, stored as columns in row order.

    respondent_ids : StringDType array of shape (n,).
    codes          : int8 array of shape (n, len(catalog) + 2), one column per
                     questionnaire field q0..q33; column 0 and the last column
                     are the overall satisfaction bookends. 0 means missing.
    delay_hours    : float64 array of shape (n,), NaN where no delay was given.
    demographics   : a Demographics, one number per row for its cells in the
                     DEMOGRAPHICS fields.

    Ids and demographics given as string sequences (one per field) are
    stored in these forms, and every array is held as a read-only view.
    A part of the rows, such as split's training part, is a boolean row
    mask passed as `rows`; None means every row.

    Two datasets are equal when their rows are; ``rejected`` is not compared.
    """

    catalog: VariableCatalog
    respondent_ids: np.ndarray
    codes: np.ndarray
    delay_hours: np.ndarray
    demographics: Demographics | Mapping[str, Sequence[str]]
    rejected: tuple[RejectedRow, ...] = ()

    def __post_init__(self) -> None:
        ids = self.respondent_ids
        if not isinstance(getattr(ids, "dtype", None), StringDType):  # each StringDType() casts by copy
            ids = np.array(ids, dtype=StringDType())
        if ids.ndim != 1:
            raise ValueError("respondent_ids must hold one string per row")
        n = ids.size
        if self.codes.dtype != np.int8 or self.codes.shape != (n, len(self.catalog) + 2):
            raise ValueError(f"codes must be int8 of shape ({n}, {len(self.catalog) + 2})")
        if self.codes.size and not 0 <= self.codes.min() <= self.codes.max() <= 5:
            raise ValueError("codes must be 0 (missing) or a rating 1..5")
        if self.delay_hours.shape != (n,):
            raise ValueError(f"delay_hours must have shape ({n},)")
        demo = self.demographics
        if not isinstance(demo, Demographics):
            demo = Demographics.of_columns(demo)
        if demo.number.shape != (n,):
            raise ValueError("demographics must hold one column of length n per field in DEMOGRAPHICS")
        put = object.__setattr__  # the dataclass is frozen
        put(self, "respondent_ids", _read_only(ids))
        put(self, "codes", _read_only(self.codes))
        put(self, "delay_hours", _read_only(self.delay_hours))
        put(self, "demographics", demo)
        put(self, "_counts", None)  # rating_counts(), once counted

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SurveyDataset):
            return NotImplemented
        return (
            self.catalog == other.catalog
            and np.array_equal(self.respondent_ids, other.respondent_ids)
            and np.array_equal(self.codes, other.codes)
            and np.array_equal(self.delay_hours, other.delay_hours, equal_nan=True)
            and self.demographics.rows() == other.demographics.rows()
        )

    @property
    def n(self) -> int:
        return self.respondent_ids.size

    def _col(self, index: int) -> int:
        if index == SATI_AFTER:
            return self.codes.shape[1] - 1
        if 0 <= index <= len(self.catalog):
            return index
        raise KeyError(f"no observed variable {index}")

    def column(self, index: int) -> np.ndarray:
        """int8 codes of one observed variable, 0 where missing."""
        return self.codes[:, self._col(index)]

    def rating_counts(self) -> np.ndarray:
        """int64 (len(catalog) + 2, 6): row `_col(index)` counts each code 0..5 of that variable.

        Counted column by column on the first call, so the widest copy made
        is one column as intp; each later call returns the same read-only
        table, which stays valid since the codes are read-only."""
        if self._counts is None:
            counts = np.stack([np.bincount(col, minlength=6) for col in self.codes.T])
            object.__setattr__(self, "_counts", _read_only(counts))
        return self._counts

    def complete(self, indices: Sequence[int], rows: np.ndarray | None = None) -> np.ndarray:
        """Row mask: True where every one of the observed variables is rated (and `rows` is set)."""
        keep = (self.codes[:, [self._col(i) for i in indices]] != 0).all(axis=1)
        return keep if rows is None else keep & rows

    def matrix(self, indices: Sequence[int]) -> tuple[list[str], np.ndarray]:
        """Ratings as a float matrix, one row per respondent.

        Rows with any missing rating among the requested indices are
        dropped (listwise deletion).
        """
        keep = self.complete(indices)
        X = self.codes[np.ix_(keep, [self._col(i) for i in indices])].astype(float)
        return self.respondent_ids[keep].tolist(), X

    def moments(self, indices: Sequence[int], rows: np.ndarray | None = None) -> Moments:
        """n, column sums and cross products of the ratings over the complete rows.

        The same rows as `matrix(indices)`, without building it; with a row
        mask, only the complete rows it sets.
        """
        return Moments.of_codes(self.codes, [self._col(i) for i in indices], rows)


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
_EXACT = frozenset(_CELL_OF).issuperset
_CODE_OF_DIGIT = bytes.maketrans(b"012345", bytes(range(6)))


def _parse_codes(cells: Sequence[str]) -> tuple[bytes, str | None]:
    """Codes of one row's rating cells, or the first failing cell's reason."""
    if _EXACT(cells):
        line = ",".join(cells)
        if len(line) != 2 * len(cells) - 1:  # blank cells: a "0" in each
            line = ("," + line + ",").replace(",,", ",0,").replace(",,", ",0,")[1:-1]
        return line.encode("ascii")[::2].translate(_CODE_OF_DIGIT), None
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


def _check_header(header: list[str], expected: list[str]) -> None:
    if [h.strip() for h in header] != expected:
        raise SurveyFormatError("unexpected header; want " + ",".join(expected[:8]) + ",...," + expected[-1])


_BLOCK_BYTES = 1 << 18  # survey bytes screened per NumPy pass


def _delays_of(cells: list[str], blank: np.ndarray) -> np.ndarray:
    """float() of each delay cell; NaN where it is blank (a cell "nan" reads NaN too) or no number."""
    for k in np.flatnonzero(blank).tolist():
        cells[k] = "nan"
    try:
        return np.fromiter(map(float, cells), dtype=float, count=len(cells))
    except ValueError:
        return np.array([_parse_delay(c)[0] for c in cells])


class _Reader:
    """Accepted columns and rejected rows of one survey, filled in row order."""

    def __init__(self, catalog: VariableCatalog) -> None:
        self.expected = _expected_header(len(catalog))
        self.header = False  # has the header been read?
        self.rows = 0  # data rows read so far
        self.ids: list[str] = []
        self.demo = array("q")  # the number of each row's demographic cells in self.combos
        self.delays = array("d")
        self.codes = bytearray()
        self.rejected: list[RejectedRow] = []
        self.seen: set[str] = set()
        self.labels: dict[str, str] = {}  # one string object per distinct demographic value
        self.combos: list[tuple[str, ...]] = []  # distinct demographic cells of a row
        # their numbers, keyed by the tuple or, on the block path, by "a,b,c,d,e"
        self.combo: dict[tuple[str, ...] | str, int] = {}

    def row(self, row_number: int, row: list[str]) -> None:
        """Screen one row as csv.reader splits it."""
        rid = row[0].strip() if row else ""
        if rid == "" and all(c.strip() == "" for c in row):
            return
        if len(row) != len(self.expected):
            reason = "wrong number of fields"
        elif rid == "":
            reason = "missing respondent id"
        elif rid in self.seen:
            reason = "duplicate respondent id"
        else:
            delay, reason = _parse_delay(row[6])
            if reason is None:
                codes, reason = _parse_codes(row[7:])
                if reason is None and not (codes[0] and codes[-1]):
                    reason = "missing overall satisfaction"
        if reason is not None:
            self.rejected.append(RejectedRow(row_number, rid, reason))
            return
        self.seen.add(rid)
        self.ids.append(rid)
        values = tuple(map(str.strip, row[1:6]))
        number = self.combo.get(values)
        self.demo.append(self._new_combo(values, values) if number is None else number)
        self.delays.append(delay)
        self.codes += codes

    def csv_rows(self, fh) -> None:
        """Screen the rest of a binary file, from its position, through csv.reader."""
        n = self.rows
        with io.TextIOWrapper(fh, encoding="utf-8", newline="") as text:
            rows = csv.reader(text)
            try:
                if not self.header:
                    header = next(rows, None)
                    if header is None:
                        raise SurveyFormatError("empty survey file")
                    _check_header(header, self.expected)
                    self.header = True
                take = self.row
                for n, row in enumerate(rows, n + 1):
                    take(n, row)
            except csv.Error as exc:
                raise SurveyFormatError(f"row {n + 1}: {exc}" if self.header else f"header: {exc}") from None

    def block(self, buf: bytes, limit: int) -> bool:
        """Screen whole lines, each ending in "\n", by NumPy over their byte positions.

        Rows that pass every column screen are taken as runs of arrays; any
        other row goes through row(), in row order. Returns False, having
        read nothing, when csv.reader might not split each line at its
        commas: the block holds a quote, a NUL or a CR not followed by LF,
        or a line longer than limit.
        """
        if b'"' in buf or b"\0" in buf:
            return False
        a = np.frombuffer(buf, dtype=np.uint8)
        nl = np.flatnonzero(a == 10)
        crlf = a[nl - 1] == 13
        if np.count_nonzero(crlf) != np.count_nonzero(a == 13) or np.diff(nl, prepend=-1).max() > limit:
            return False
        if not self.header:
            self.header = True
            _check_header(buf[: nl[0] - crlf[0]].decode("utf-8").split(","), self.expected)
            head = nl[0] + 1
            a, buf, nl, crlf = a[head:], buf[head:], nl[1:] - head, crlf[1:]
        n_lines = nl.size
        if n_lines == 0:
            return True
        starts = np.concatenate(([0], nl[:-1] + 1))
        ends = nl - crlf
        commas = np.flatnonzero(a == 44)
        n_commas = len(self.expected) - 1
        upto = np.searchsorted(commas, nl)  # commas before each line end
        per_line = np.diff(upto, prepend=0)
        is_good = per_line == n_commas  # a line of the right width
        good = np.flatnonzero(is_good)
        if good.size == n_lines:
            c = commas.reshape(n_lines, n_commas)
        else:
            c = commas[(upto - per_line)[good, None] + np.arange(n_commas)]
        ls, le = starts[good], ends[good]

        # ratings: each cell empty or one digit 1..5, and both bookends given.
        # A digit 1..5 first in every non-empty cell, and as many such digits
        # as the cells hold bytes, mean every non-empty cell is one digit.
        first = a[1:].take(c[:, 6:])  # the byte after each comma
        digit = (first - np.uint8(ord("1"))) < 5
        fast = np.count_nonzero(digit, axis=1) == le - c[:, 6] - digit.shape[1]
        fast &= digit[:, 0] & digit[:, -1]
        codes = ((first - np.uint8(ord("0"))) * digit).view(np.int8)
        # the commas after the id, the demographics and the delay; the
        # others are let go, since they are most of the block's memory
        id_end, demo_end, delay_end = c[:, [0, 5, 6]].T
        del commas, c
        fast &= id_end > ls
        # the id, demographic and delay cells of each row as one string, with
        # "\n" after the id, after the demographics (still joined by ",")
        # and after the delay
        spans = np.column_stack((ls, delay_end + 1)).ravel()
        inside = np.zeros(spans.size + 1, dtype=bool)
        inside[1::2] = True
        text = a[np.repeat(inside, np.diff(spans, prepend=0, append=a.size))]
        row_ends = np.cumsum(delay_end + 1 - ls)
        # whitespace, a control or a non-ASCII byte
        strippable = np.flatnonzero((text - np.uint8(33)) > 126 - 33)
        if strippable.size:  # fields whose edges str.strip would change
            edge = (text[strippable - 1] == 44) | (text[strippable + 1] == 44)
            fast[np.searchsorted(row_ends, strippable[edge], side="right")] = False
        text[np.stack((id_end, demo_end, delay_end)) + (row_ends - delay_end - 1)] = 10
        cells = text.tobytes().decode("utf-8").split("\n")
        ids = cells[0:-1:3]
        blank = delay_end == demo_end + 1
        delays = _delays_of(cells[2::3], blank)
        with np.errstate(invalid="ignore"):
            fast &= np.isfinite(delays) & (delays >= 0) | blank
        # an id is taken only by an accepted row, so a row screened here
        # must hold the first occurrence of its id and one not taken before
        for k in np.flatnonzero(~fast).tolist():
            ids[k] = ids[k].strip()
        if len(set(ids)) < len(ids):
            at = dict(zip(reversed(ids), range(len(ids) - 1, -1, -1)))  # id -> its first row
            once = np.zeros(len(ids), dtype=bool)
            once[np.fromiter(at.values(), dtype=np.intp, count=len(at))] = True
            fast &= once
        if not self.seen.isdisjoint(ids):
            fast &= ~np.fromiter(map(self.seen.__contains__, ids), dtype=bool, count=len(ids))

        demo = self._combos(cells[1::3])
        slow = np.ones(n_lines, dtype=bool)
        slow[good[fast]] = False
        slow = np.flatnonzero(slow)
        taken = 0  # good lines taken so far
        for line, upto_good, line_is_good in zip(
            slow.tolist(), np.searchsorted(good, slow).tolist(), is_good[slow].tolist()
        ):
            self._run(ids, demo, delays, codes, taken, upto_good)
            self.row(self.rows + line + 1, buf[starts[line] : ends[line]].decode("utf-8").split(","))
            taken = upto_good + line_is_good
        self._run(ids, demo, delays, codes, taken, good.size)
        self.rows += n_lines
        return True

    def _new_combo(self, key: tuple[str, ...] | str, values: Sequence[str]) -> int:
        """Number one row's demographic cells, values, not seen before in self.combos."""
        number = self.combo[key] = len(self.combos)
        self.combos.append(tuple(self.labels.setdefault(v, v) for v in values))
        return number

    def _combos(self, joined: list[str]) -> np.ndarray:
        """The numbers of rows' demographic cells given joined by ","."""
        try:
            return np.fromiter(map(self.combo.__getitem__, joined), dtype=np.int64, count=len(joined))
        except KeyError:
            for key in set(joined).difference(self.combo):
                self._new_combo(key, key.split(","))
            return np.fromiter(map(self.combo.__getitem__, joined), dtype=np.int64, count=len(joined))

    def _run(self, ids, demo, delays, codes, i: int, j: int) -> None:
        """Take the screened rows i..j-1 of a block."""
        if i < j:
            self.ids += ids[i:j]
            self.seen.update(ids[i:j])
            self.demo.frombytes(demo[i:j].tobytes())
            self.delays.frombytes(delays[i:j].tobytes())
            self.codes += codes[i:j].tobytes()

    def dataset(self, catalog: VariableCatalog) -> SurveyDataset:
        return SurveyDataset(
            catalog,
            self.ids,
            np.frombuffer(self.codes, dtype=np.int8).reshape(len(self.ids), len(catalog) + 2),
            np.frombuffer(self.delays, dtype=float),
            Demographics(self.combos, np.frombuffer(self.demo, dtype=np.int64)),
            tuple(self.rejected),
        )


def load_survey(path: str, catalog: VariableCatalog = DEFAULT_CATALOG) -> SurveyDataset:
    """Read and screen a survey CSV.

    Rows failing validation are excluded from the dataset and reported
    on the returned object's ``rejected`` tuple together with the
    1-based data row number and a reason. A row's first failing check
    names the reason; an id is taken only by an accepted row.

    The file is read in blocks of whole lines. Each block is screened by
    NumPy over the byte positions of its line ends and commas: rating
    cells are decoded from their lengths and first bytes, and the id,
    demographic and delay cells are decoded as one string. A row that
    fails any of these screens (a wrong width, a cell that is not an
    exact spelling, a text field with an edge str.strip would change, a
    delay that is not a finite number >= 0, an id seen before) is
    screened on its own, in row order. The first block that holds a
    quote, a CR not followed by LF, a NUL or a line longer than
    csv.field_size_limit() hands the rest of the file to csv.reader, row
    by row; a csv error there is a SurveyFormatError naming the row.
    """
    reader = _Reader(catalog)
    limit = csv.field_size_limit()
    with open(path, "rb") as fh:
        offset = len(codecs.BOM_UTF8) if fh.read(len(codecs.BOM_UTF8)) == codecs.BOM_UTF8 else 0
        fh.seek(offset)
        carry = b""
        while True:
            chunk = fh.read(_BLOCK_BYTES)
            buf = carry + chunk
            cut = buf.rfind(b"\n") + 1 if chunk else len(buf)
            if chunk and cut == 0 and len(buf) <= limit:  # a line longer than one read
                carry = buf
                continue
            block, carry = buf[:cut], buf[cut:]
            if block and not block.endswith(b"\n"):  # the last line, without its line end
                block += b"\n"
            # at the end of the file the block is empty, and csv.reader reads
            # what is left: nothing, or an empty file's missing header
            if not block or not reader.block(block, limit):
                fh.seek(offset)
                reader.csv_rows(fh)
                break
            offset += cut
    return reader.dataset(catalog)


def write_survey(d: SurveyDataset, path: str) -> None:
    """Write a dataset back to the flat CSV format (reload round-trips)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_expected_header(len(d.catalog)))
        for rid, fields, delay, row in zip(
            d.respondent_ids.tolist(), d.demographics.rows(), d.delay_hours.tolist(), d.codes.tolist()
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


def _column_stats(counts: Sequence[int]) -> ItemStats:
    """Moments of one column of ratings from the counts of its codes 0..5 (0, missing, left out).

    n and the mean are integer sums; each level's deviation powers are weighted by its count."""
    c = np.asarray(counts, dtype=np.int64)[1:]
    n, levels = int(c.sum()), np.arange(1, 6)
    if n == 0:
        return ItemStats(0, math.nan, math.nan, None, None, None)
    mean = int(c @ levels) / n
    s2, s3, s4 = (float(np.sum(c * (levels - mean) ** p)) for p in (2, 3, 4))
    std = math.sqrt(s2 / (n - 1)) if n >= 2 else 0.0
    if np.count_nonzero(c) < 2:
        return ItemStats(n, mean, std, None, None, None)
    skew = s3 / n / (s2 / n) ** 1.5
    kurt = s4 / n / (s2 / n) ** 2 - 3.0
    return ItemStats(n, mean, std, skew, kurt, abs(skew) <= 1.5 and abs(kurt) <= 1.5)


def describe(d: SurveyDataset) -> DescriptiveReport:
    """Per-item moment summaries plus the overall satisfaction bookends, from d.rating_counts()."""
    counts = d.rating_counts()
    items = {idx: _column_stats(counts[d._col(idx)]) for idx in d.catalog.indices}
    before = _column_stats(counts[d._col(SATI_BEFORE)])
    after = _column_stats(counts[d._col(SATI_AFTER)])
    return DescriptiveReport(items, before, after, after.mean)


def split(d: SurveyDataset, n_train: int, seed: int) -> np.ndarray:
    """Deterministic train/holdout split, as the boolean mask of the training rows.

    Respondent ids are sorted lexicographically, shuffled with the
    seeded generator, and the first n_train go to the training part; a
    repeated id goes there when any of its copies does. The holdout is
    the rest, `~mask`. Each part keeps the dataset's row order.
    """
    if not 0 < n_train < d.n:
        raise ValueError(f"n_train must be in (0, {d.n})")
    # Random.shuffle is Fisher-Yates from the last slot down, and a slot is
    # final once its swap is made, so the holdout slots n_train.. are settled
    # by the first n - n_train swaps. Only those are drawn, with the rejection
    # loop of Random._randbelow, on the rows in the order of their sorted ids
    # (a stable sort by code point, as sorted() orders str).
    order = np.argsort(d.respondent_ids, kind="stable")
    rows = order.tolist()
    getrandbits = random.Random(seed).getrandbits
    for i in range(d.n - 1, n_train - 1, -1):
        bound = i + 1
        k = bound.bit_length()
        j = getrandbits(k)
        while j >= bound:
            j = getrandbits(k)
        rows[i], rows[j] = rows[j], rows[i]
    in_train = np.ones(d.n, dtype=bool)
    in_train[rows[n_train:]] = False
    ids = d.respondent_ids[order]
    first = np.ones(d.n, dtype=bool)  # where a run of equal ids starts, in sorted order
    np.not_equal(ids[1:], ids[:-1], out=first[1:])
    if not first.all():
        # a repeated id goes to training when any of its copies drew a training slot
        in_train[order] = np.logical_or.reduceat(in_train[order], np.flatnonzero(first))[np.cumsum(first) - 1]
    return in_train
