"""Analytic hierarchy process weighting of the supplier-side survey.

Experts compare factors pairwise on the odd 1-3-5-7-9 scale (with
reciprocals). A judgment file is read into one (m, n, n) stack of
matrices per hierarchy level, one slice per respondent (JudgmentSet).
The chosen respondents' matrices are aggregated by the element-wise
geometric mean over a stack, priorities come from the principal
eigenvector (power iteration), and Saaty's consistency ratio gates the
result. A two-level hierarchy (three criteria, two leaf factors each)
turns local priorities into global factor weights, which are then
compared against the demand-side standardized weights.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "SCALE",
    "JudgmentMatrix",
    "JudgmentStack",
    "Hierarchy",
    "DEFAULT_HIERARCHY",
    "JudgmentSet",
    "WeightVector",
    "ConsistencyResult",
    "BiasReport",
    "load_judgments",
    "aggregate_geomean",
    "weights_eigen",
    "weights_eigen_stack",
    "consistency",
    "consistency_ratios",
    "global_weights",
    "normalized_weights",
    "bias_report",
]

# selection codes: L* favours the left factor, R* the right, E equal
SCALE: Mapping[str, float] = {
    "L9": 9.0,
    "L7": 7.0,
    "L5": 5.0,
    "L3": 3.0,
    "E": 1.0,
    "R3": 1.0 / 3.0,
    "R5": 1.0 / 5.0,
    "R7": 1.0 / 7.0,
    "R9": 1.0 / 9.0,
}

# Saaty random consistency index by matrix size
RANDOM_INDEX: Mapping[int, float] = {
    1: 0.0,
    2: 0.0,
    3: 0.58,
    4: 0.90,
    5: 1.12,
    6: 1.24,
    7: 1.32,
    8: 1.41,
    9: 1.45,
    10: 1.49,
}


def _check_judgments(a: np.ndarray) -> None:
    """Positivity, unit diagonal and reciprocity of one matrix or of a stack of them."""
    if np.any(a <= 0):
        raise ValueError("judgments must be positive")
    # np.allclose(x, 1.0, atol) without its per-call overhead: the same
    # |x - 1| <= atol + rtol * 1 test, with its default rtol of 1e-5
    if not (np.abs(np.diagonal(a, axis1=-2, axis2=-1) - 1.0) <= 1e-12 + 1e-5).all():
        raise ValueError("diagonal must be 1")
    if not (np.abs(a * np.swapaxes(a, -1, -2) - 1.0) <= 1e-9 + 1e-5).all():
        raise ValueError("matrix must be reciprocal (a_ij * a_ji = 1)")


@dataclass(frozen=True)
class JudgmentMatrix:
    """Positive reciprocal pairwise-comparison matrix with named rows."""

    labels: tuple[str, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.values, dtype=float)
        n = len(self.labels)
        if a.shape != (n, n):
            raise ValueError("matrix shape must match the label count")
        _check_judgments(a)
        object.__setattr__(self, "values", a)

    @property
    def n(self) -> int:
        return len(self.labels)


@dataclass(frozen=True, eq=False)
class JudgmentStack:
    """Judgment matrices over the same labels, held as one (m, n, n) array.

    A slice, mask or index array gives the stack of the chosen matrices;
    matrix k is `values[k]`.
    """

    labels: tuple[str, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.values, dtype=float)
        n = len(self.labels)
        if a.ndim != 3 or a.shape[1:] != (n, n):
            raise ValueError("stack shape must be (m, n, n) with n the label count")
        _check_judgments(a)
        object.__setattr__(self, "values", a)

    @property
    def n(self) -> int:
        return len(self.labels)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, rows) -> "JudgmentStack":
        return JudgmentStack(self.labels, self.values[rows])


@dataclass(frozen=True)
class Hierarchy:
    """Two-level weighting tree: criteria on top, two leaf factors each."""

    criteria: tuple[str, ...]
    children: Mapping[str, tuple[str, str]]

    def __post_init__(self) -> None:
        if set(self.children) != set(self.criteria):
            raise ValueError("children must be keyed by the criteria")
        if "criteria" in self.criteria:
            raise ValueError('"criteria" names the top level and cannot be a criterion')
        leaves = [f for c in self.criteria for f in self.children[c]]
        if len(set(leaves)) != len(leaves):
            raise ValueError("leaf factors must be unique")

    @property
    def leaves(self) -> tuple[str, ...]:
        return tuple(f for c in self.criteria for f in self.children[c])


DEFAULT_HIERARCHY = Hierarchy(
    criteria=("WLOE", "WLFP", "WLMS"),
    children={
        "WLOE": ("safe_security", "time_convenience"),
        "WLFP": ("lockage_regulation", "supporting_facilities"),
        "WLMS": ("comfortable_conditions", "staff_skills"),
    },
)

@dataclass(frozen=True, eq=False)
class JudgmentSet:
    """Every respondent's judgments, one stack per hierarchy level.

    criteria holds the (m, n, n) criteria matrices and leaves[c] the
    matrices of criterion c's children, both in the order of
    respondent_ids; respondent k's matrices are slice k of each stack.
    """

    respondent_ids: tuple[str, ...]
    criteria: JudgmentStack
    leaves: Mapping[str, JudgmentStack]

    def __post_init__(self) -> None:
        m = len(self.respondent_ids)
        if len(self.criteria) != m or any(len(s) != m for s in self.leaves.values()):
            raise ValueError("every stack must hold one matrix per respondent")

    def __len__(self) -> int:
        return len(self.respondent_ids)


def _row_error(line_no: int, level: str, left: str, right: str, sel: str, hierarchy: Hierarchy) -> ValueError:
    """The reason a comparison row with these stripped fields is invalid."""
    if sel not in SCALE:
        return ValueError(f"row {line_no}: unknown selection code {sel!r}")
    if level != "criteria" and level not in hierarchy.children:
        return ValueError(f"row {line_no}: unknown level {level!r}")
    return ValueError(f"row {line_no}: invalid pair ({left!r}, {right!r}) for level {level!r}")


def _judgment_set(records: Iterable[tuple], hierarchy: Hierarchy) -> JudgmentSet:
    """Fill one stack per level from (respondent_id, level, left, right, selection) rows.

    Comparisons are numbered in level order (criteria first), then pair
    order; respondent k's comparison s lands at k * n_slots + s of one flat
    array, so the first empty cell names the first missing comparison by
    respondent, level and pair. Row errors are raised in row order first.
    """
    levels = [("criteria", hierarchy.criteria)] + [(c, hierarchy.children[c]) for c in hierarchy.criteria]
    slots = [
        (level, labels, i, j) for level, labels in levels for i in range(len(labels)) for j in range(i + 1, len(labels))
    ]
    # (level, left, right, selection) of every valid row -> (slot, a_ij), where
    # a_ij is the judgment oriented on the pair's label order
    table: dict[tuple, tuple[int, float]] = {}
    for s, (level, labels, i, j) in enumerate(slots):
        a, b = labels[i], labels[j]
        if any(x != x.strip() for x in (level, a, b)):
            continue  # no stripped field can name it, so its rows all fail
        for left, right in ((a, b), (b, a)):
            for sel, value in SCALE.items():
                stored = value if left == min(left, right) else 1.0 / value
                table[level, left, right, sel] = s, (stored if a == min(a, b) else 1.0 / stored)
    index: dict[str, int] = {}
    cells: dict[int, float] = {}
    for line_no, (rid, level, left, right, sel) in enumerate(records, start=1):
        hit = table.get((level, left, right, sel))
        if hit is None:
            level, left, right, sel = (str(v).strip() for v in (level, left, right, sel))
            hit = table.get((level, left, right, sel))
            if hit is None:
                raise _row_error(line_no, level, left, right, sel, hierarchy)
        rid = str(rid).strip()
        code = index.setdefault(rid, len(index)) * len(slots) + hit[0]
        if code in cells:
            raise ValueError(f"respondent {rid!r}: duplicate comparison {left!r} vs {right!r}")
        cells[code] = hit[1]
    ids = tuple(index)
    flat = np.full(len(ids) * len(slots), np.nan)
    flat[np.fromiter(cells, dtype=np.intp, count=len(cells))] = np.fromiter(
        cells.values(), dtype=float, count=len(cells)
    )
    missing = np.flatnonzero(np.isnan(flat))
    if missing.size:
        k, s = divmod(int(missing[0]), len(slots))
        level, labels, i, j = slots[s]
        raise ValueError(
            f"respondent {ids[k]!r}: missing comparison {labels[i]!r} vs {labels[j]!r} at level {level!r}"
        )
    values = flat.reshape(len(ids), len(slots))
    stacks = {level: np.tile(np.eye(len(labels)), (len(ids), 1, 1)) for level, labels in levels}
    for s, (level, _, i, j) in enumerate(slots):
        stacks[level][:, i, j] = values[:, s]
        stacks[level][:, j, i] = 1.0 / values[:, s]
    criteria, *leaves = (JudgmentStack(labels, stacks[level]) for level, labels in levels)
    return JudgmentSet(ids, criteria, dict(zip(hierarchy.criteria, leaves)))


_FIELDS = ("respondent_id", "level", "left_factor", "right_factor", "selection")


def load_judgments(path: str, hierarchy: Hierarchy = DEFAULT_HIERARCHY) -> JudgmentSet:
    """Read a judgment CSV into one stack of judgment matrices per hierarchy level.

    Each row carries respondent_id, level ("criteria" or a criterion
    code), the two factors compared and a selection code from SCALE.
    Every respondent must supply each comparison exactly once.
    """
    rows: list[list[str]] = []
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = None
        try:
            header = next(reader, None)
            if header is None or not set(_FIELDS).issubset(header):
                raise ValueError("judgment CSV must have columns " + ",".join(sorted(_FIELDS)))
            for row in reader:
                if row:
                    rows.append(row)
        except csv.Error as exc:
            raise ValueError(f"row {len(rows) + 1}: {exc}" if header else f"header: {exc}") from None
    column = {name: k for k, name in enumerate(header)}  # the last of repeated names, as csv.DictReader
    take = itemgetter(*(column[f] for f in _FIELDS))
    # a short row reads None for the fields it lacks, as csv.DictReader's restval
    pad = [None] * len(header)
    return _judgment_set((take(row if len(row) >= len(header) else row + pad) for row in rows), hierarchy)


def aggregate_geomean(matrices: JudgmentStack) -> JudgmentMatrix:
    """Element-wise geometric mean of a stack of matrices, made reciprocal again.

    The diagonal is exactly 1 and |a_ij * a_ji - 1| <= 2 * eps off it;
    about one pair in four is off by one ulp after rounding.
    """
    if not len(matrices):
        raise ValueError("nothing to aggregate")
    g = np.exp(np.log(matrices.values).mean(axis=0))
    g = np.sqrt(g / g.T)  # wash out the mean's round-off: a_ij * a_ji is 1 to within 2 eps
    np.fill_diagonal(g, 1.0)
    return JudgmentMatrix(matrices.labels, g)


@dataclass(frozen=True)
class WeightVector:
    """Normalized positive weights with competition ranks (1 = heaviest)."""

    labels: tuple[str, ...]
    weights: Mapping[str, float]

    def __post_init__(self) -> None:
        if set(self.labels) != set(self.weights):
            raise ValueError("labels and weights must agree")
        vals = [self.weights[k] for k in self.labels]
        if not all(0 < v < math.inf for v in vals):
            raise ValueError("weights must be positive and finite")
        if abs(sum(vals) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")

    @property
    def ranks(self) -> Mapping[str, int]:
        ordered = sorted(self.labels, key=lambda k: (-self.weights[k], k))
        return {k: pos + 1 for pos, k in enumerate(ordered)}


def normalized_weights(raw: Mapping[str, float], labels: Sequence[str] | None = None) -> WeightVector:
    """Normalize positive, finite raw weights (for example standardized path weights)."""
    if labels is None:
        labels = tuple(raw)
    missing = [k for k in labels if k not in raw]
    if missing:
        raise ValueError(f"no weights for {missing}")
    vals = {k: float(raw[k]) for k in labels}
    bad = [k for k, v in vals.items() if not math.isfinite(v)]
    if bad:
        raise ValueError(f"non-finite weights for {bad}")
    bad = [k for k, v in vals.items() if v <= 0]
    if bad:
        raise ValueError(f"nonpositive weights for {bad}")
    total = sum(vals.values())
    return WeightVector(tuple(labels), {k: v / total for k, v in vals.items()})


def weights_eigen_stack(
    a: np.ndarray, tol: float = 1e-12, max_iter: int = 10000
) -> tuple[np.ndarray, np.ndarray]:
    """Principal-eigenvector priorities of an (m, n, n) stack of matrices, by power iteration.

    Returns the (m, n) normalized weights and the (m,) Rayleigh estimates
    of the dominant eigenvalue (lambda_max >= n, equality iff consistent).
    Each matrix stops once its own weights move by less than tol, or after
    max_iter steps, so every matrix takes the steps it would take alone.
    """
    w = np.full(a.shape[:2], 1.0 / a.shape[1])
    live = np.arange(len(a))
    for _ in range(max_iter):
        if not live.size:
            break
        w_live = w[live]
        v = np.matmul(a[live], w_live[..., None])[..., 0]
        w_new = v / v.sum(axis=1, keepdims=True)
        w[live] = w_new
        live = live[~(np.abs(w_new - w_live).max(axis=1) < tol)]
    v = np.matmul(a, w[..., None])[..., 0]
    return w, (v / w).mean(axis=1)


def weights_eigen(m: JudgmentMatrix, tol: float = 1e-12, max_iter: int = 10000) -> tuple[WeightVector, float]:
    """Priorities and lambda_max of one matrix: the stack's power iteration on a stack of one."""
    w, lam = weights_eigen_stack(m.values[None], tol, max_iter)
    wv = WeightVector(m.labels, {k: float(w[0, i]) for i, k in enumerate(m.labels)})
    return wv, float(lam[0])


@dataclass(frozen=True)
class ConsistencyResult:
    n: int
    lambda_max: float
    ci: float
    cr: float
    passed: bool


def consistency_ratios(n: int, lambda_max: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """Saaty CI = (lambda - n)/(n - 1) and CR = CI / RI(n), elementwise.

    CI is floored at 0. Matrices of size 2 or smaller are consistent by
    construction and get CR = 0.
    """
    if n not in RANDOM_INDEX:
        raise ValueError(f"no random index for n = {n}")
    lam = np.asarray(lambda_max, dtype=float)
    ci = np.maximum((lam - n) / (n - 1), 0.0) if n > 1 else np.zeros_like(lam)
    cr = ci / RANDOM_INDEX[n] if n > 2 else np.zeros_like(lam)
    return ci, cr


def consistency(m: JudgmentMatrix, lambda_max: float, cr_gate: float = 0.1) -> ConsistencyResult:
    """Saaty consistency of one matrix (see consistency_ratios); passes when CR < cr_gate."""
    ci, cr = consistency_ratios(m.n, lambda_max)
    return ConsistencyResult(
        n=m.n, lambda_max=lambda_max, ci=float(ci), cr=float(cr), passed=bool(cr < cr_gate)
    )


def global_weights(
    h: Hierarchy,
    criteria_weights: WeightVector,
    leaf_weights: Mapping[str, WeightVector],
) -> WeightVector:
    """Compose criteria and local leaf priorities: global = parent * local."""
    if set(criteria_weights.labels) != set(h.criteria):
        raise ValueError("criteria weights do not match the hierarchy")
    out: dict[str, float] = {}
    for c in h.criteria:
        lw = leaf_weights.get(c)
        if lw is None:
            raise ValueError(f"missing leaf weights for criterion {c!r}")
        if set(lw.labels) != set(h.children[c]):
            raise ValueError(f"leaf weights for {c!r} do not match its children")
        for leaf in h.children[c]:
            out[leaf] = criteria_weights.weights[c] * lw.weights[leaf]
    return WeightVector(h.leaves, out)


@dataclass(frozen=True)
class BiasRow:
    factor: str
    ow: float
    ow_rank: int
    sw: float
    sw_rank: int


@dataclass(frozen=True)
class BiasReport:
    """Demand-side (OW) vs supplier-side (SW) weight comparison.

    spearman is the rank correlation of the two orderings; dominance
    records, per criterion, which sibling each side weights heavier and
    whether the two sides agree.
    """

    rows: tuple[BiasRow, ...]
    spearman: float
    dominance: Mapping[str, Mapping[str, object]]


def bias_report(ow: WeightVector, sw: WeightVector, h: Hierarchy = DEFAULT_HIERARCHY) -> BiasReport:
    if set(ow.labels) != set(sw.labels):
        raise ValueError("OW and SW must cover the same factors")
    if set(ow.labels) != set(h.leaves):
        raise ValueError("weights must cover the hierarchy leaves")
    ow_ranks = ow.ranks
    sw_ranks = sw.ranks
    rows = tuple(
        BiasRow(
            factor=f,
            ow=ow.weights[f],
            ow_rank=ow_ranks[f],
            sw=sw.weights[f],
            sw_rank=sw_ranks[f],
        )
        for f in h.leaves
    )
    n = len(rows)
    d2 = sum((r.ow_rank - r.sw_rank) ** 2 for r in rows)
    rho = 1.0 - 6.0 * d2 / (n * (n * n - 1)) if n > 1 else 1.0
    dominance: dict[str, dict[str, object]] = {}
    for c in h.criteria:
        a, b = h.children[c]
        ow_top = a if ow.weights[a] >= ow.weights[b] else b
        sw_top = a if sw.weights[a] >= sw.weights[b] else b
        dominance[c] = {"ow": ow_top, "sw": sw_top, "agree": ow_top == sw_top}
    return BiasReport(rows=rows, spearman=rho, dominance=dominance)
