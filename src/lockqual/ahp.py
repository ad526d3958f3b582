"""Analytic hierarchy process weighting of the supplier-side survey.

Experts compare factors pairwise on the odd 1-3-5-7-9 scale (with
reciprocals). Individual judgment matrices are aggregated by the
element-wise geometric mean, priorities come from the principal
eigenvector (power iteration), and Saaty's consistency ratio gates the
result. A two-level hierarchy (three criteria, two leaf factors each)
turns local priorities into global factor weights, which are then
compared against the demand-side standardized weights.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "SCALE",
    "JudgmentMatrix",
    "Hierarchy",
    "DEFAULT_HIERARCHY",
    "RespondentJudgments",
    "WeightVector",
    "ConsistencyResult",
    "BiasReport",
    "parse_judgments",
    "load_judgments",
    "aggregate_geomean",
    "weights_eigen",
    "consistency",
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
        if np.any(a <= 0):
            raise ValueError("judgments must be positive")
        # np.allclose(x, 1.0, atol) without its per-call overhead: the same
        # |x - 1| <= atol + rtol * 1 test, with its default rtol of 1e-5
        if not (np.abs(np.diag(a) - 1.0) <= 1e-12 + 1e-5).all():
            raise ValueError("diagonal must be 1")
        if not (np.abs(a * a.T - 1.0) <= 1e-9 + 1e-5).all():
            raise ValueError("matrix must be reciprocal (a_ij * a_ji = 1)")
        object.__setattr__(self, "values", a)

    @property
    def n(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class Hierarchy:
    """Two-level weighting tree: criteria on top, two leaf factors each."""

    criteria: tuple[str, ...]
    children: Mapping[str, tuple[str, str]]

    def __post_init__(self) -> None:
        if set(self.children) != set(self.criteria):
            raise ValueError("children must be keyed by the criteria")
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

@dataclass(frozen=True)
class RespondentJudgments:
    respondent_id: str
    criteria: JudgmentMatrix
    leaves: Mapping[str, JudgmentMatrix]


def _pairs(labels: Sequence[str]) -> list[tuple[str, str]]:
    return [(labels[i], labels[j]) for i in range(len(labels)) for j in range(i + 1, len(labels))]


def parse_judgments(
    rows: Iterable[Mapping[str, str]],
    hierarchy: Hierarchy = DEFAULT_HIERARCHY,
) -> tuple[RespondentJudgments, ...]:
    """Build per-respondent judgment matrices from flat comparison rows.

    Each row carries respondent_id, level ("criteria" or a criterion
    code), the two factors compared and a selection code from SCALE.
    Every respondent must supply each comparison exactly once.
    """
    per_resp: dict[str, dict[str, dict[frozenset, float]]] = {}
    order: list[str] = []
    for line_no, row in enumerate(rows, start=1):
        rid = str(row["respondent_id"]).strip()
        level = str(row["level"]).strip()
        left = str(row["left_factor"]).strip()
        right = str(row["right_factor"]).strip()
        sel = str(row["selection"]).strip()
        if sel not in SCALE:
            raise ValueError(f"row {line_no}: unknown selection code {sel!r}")
        if level == "criteria":
            labels = hierarchy.criteria
        elif level in hierarchy.children:
            labels = hierarchy.children[level]
        else:
            raise ValueError(f"row {line_no}: unknown level {level!r}")
        if left not in labels or right not in labels or left == right:
            raise ValueError(f"row {line_no}: invalid pair ({left!r}, {right!r}) for level {level!r}")
        if rid not in per_resp:
            per_resp[rid] = {}
            order.append(rid)
        cells = per_resp[rid].setdefault(level, {})
        key = frozenset((left, right))
        if key in cells:
            raise ValueError(f"respondent {rid!r}: duplicate comparison {left!r} vs {right!r}")
        # store oriented value on the left factor
        value = SCALE[sel]
        cells[key] = value if left == min(left, right) else 1.0 / value
    out: list[RespondentJudgments] = []
    for rid in order:
        blocks = per_resp[rid]
        crit = _matrix_from_cells(hierarchy.criteria, blocks.get("criteria", {}), rid, "criteria")
        leaves = {
            c: _matrix_from_cells(hierarchy.children[c], blocks.get(c, {}), rid, c)
            for c in hierarchy.criteria
        }
        out.append(RespondentJudgments(rid, crit, leaves))
    return tuple(out)


def _matrix_from_cells(
    labels: Sequence[str], cells: Mapping[frozenset, float], rid: str, level: str
) -> JudgmentMatrix:
    n = len(labels)
    a = np.eye(n)
    for i, j in _pairs(labels):
        key = frozenset((i, j))
        if key not in cells:
            raise ValueError(f"respondent {rid!r}: missing comparison {i!r} vs {j!r} at level {level!r}")
        v = cells[key]
        # stored orientation is on the lexicographically smaller label
        v_ij = v if i == min(i, j) else 1.0 / v
        a[labels.index(i), labels.index(j)] = v_ij
        a[labels.index(j), labels.index(i)] = 1.0 / v_ij
    return JudgmentMatrix(tuple(labels), a)


def load_judgments(path: str, hierarchy: Hierarchy = DEFAULT_HIERARCHY) -> tuple[RespondentJudgments, ...]:
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"respondent_id", "level", "left_factor", "right_factor", "selection"}
        if reader.fieldnames is None or not required.issubset(set(reader.fieldnames)):
            raise ValueError("judgment CSV must have columns " + ",".join(sorted(required)))
        return parse_judgments(list(reader), hierarchy)


def aggregate_geomean(matrices: Sequence[JudgmentMatrix]) -> JudgmentMatrix:
    """Element-wise geometric mean; keeps reciprocity exactly."""
    if not matrices:
        raise ValueError("nothing to aggregate")
    labels = matrices[0].labels
    for m in matrices[1:]:
        if m.labels != labels:
            raise ValueError("all matrices must share the same labels")
    logs = np.mean([np.log(m.values) for m in matrices], axis=0)
    g = np.exp(logs)
    g = np.sqrt(g / g.T)  # wash out round-off so a_ij * a_ji is exactly 1
    np.fill_diagonal(g, 1.0)
    return JudgmentMatrix(labels, g)


@dataclass(frozen=True)
class WeightVector:
    """Normalized positive weights with competition ranks (1 = heaviest)."""

    labels: tuple[str, ...]
    weights: Mapping[str, float]

    def __post_init__(self) -> None:
        if set(self.labels) != set(self.weights):
            raise ValueError("labels and weights must agree")
        vals = [self.weights[k] for k in self.labels]
        if any(v <= 0 for v in vals):
            raise ValueError("weights must be positive")
        if abs(sum(vals) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")

    @property
    def ranks(self) -> Mapping[str, int]:
        ordered = sorted(self.labels, key=lambda k: (-self.weights[k], k))
        return {k: pos + 1 for pos, k in enumerate(ordered)}


def normalized_weights(raw: Mapping[str, float], labels: Sequence[str] | None = None) -> WeightVector:
    """Normalize positive raw weights (for example standardized path weights)."""
    if labels is None:
        labels = tuple(raw)
    missing = [k for k in labels if k not in raw]
    if missing:
        raise ValueError(f"no weights for {missing}")
    vals = {k: float(raw[k]) for k in labels}
    if any(v <= 0 for v in vals.values()):
        bad = [k for k, v in vals.items() if v <= 0]
        raise ValueError(f"nonpositive weights for {bad}")
    total = sum(vals.values())
    return WeightVector(tuple(labels), {k: v / total for k, v in vals.items()})


def weights_eigen(m: JudgmentMatrix, tol: float = 1e-12, max_iter: int = 10000) -> tuple[WeightVector, float]:
    """Principal-eigenvector priorities by power iteration.

    Returns the normalized weight vector and the Rayleigh estimate of
    the dominant eigenvalue (lambda_max >= n, equality iff consistent).
    """
    a = m.values
    n = m.n
    w = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        v = a @ w
        w_new = v / v.sum()
        if float(np.max(np.abs(w_new - w))) < tol:
            w = w_new
            break
        w = w_new
    v = a @ w
    lam = float(np.mean(v / w))
    wv = WeightVector(m.labels, {k: float(w[i]) for i, k in enumerate(m.labels)})
    return wv, lam


@dataclass(frozen=True)
class ConsistencyResult:
    n: int
    lambda_max: float
    ci: float
    cr: float
    passed: bool


def consistency(m: JudgmentMatrix, lambda_max: float, cr_gate: float = 0.1) -> ConsistencyResult:
    """Saaty consistency: CI = (lambda - n)/(n - 1), CR = CI / RI(n).

    Matrices of size 2 or smaller are consistent by construction and
    get CR = 0. The check passes when CR < cr_gate.
    """
    n = m.n
    if n not in RANDOM_INDEX:
        raise ValueError(f"no random index for n = {n}")
    ci = max((lambda_max - n) / (n - 1), 0.0) if n > 1 else 0.0
    ri = RANDOM_INDEX[n]
    cr = 0.0 if n <= 2 else ci / ri
    return ConsistencyResult(n=n, lambda_max=lambda_max, ci=ci, cr=cr, passed=cr < cr_gate)


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
