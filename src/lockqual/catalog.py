"""Variable catalog for the lock service quality survey.

The questionnaire carries 32 evaluation items plus two overall
satisfaction bookends (before and after the trip through the lock).
Each item has a stable index, a short abbreviation, a question kind and
an a priori construct hint used to label factor solutions.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping

__all__ = [
    "KINDS",
    "SATI_BEFORE",
    "SATI_AFTER",
    "DISPLAY_NAMES",
    "CatalogItem",
    "VariableCatalog",
    "load_catalog",
    "DEFAULT_CATALOG",
]

KINDS = ("frequency", "subjective", "satisfaction")
_FIELDS = ("index", "abbreviation", "kind", "latent_hint")  # of one item in a catalog file

# Observed-variable index space: 0 is the pre-trip overall satisfaction
# bookend, 1..32 are catalog items, 33 is the post-trip bookend.
SATI_BEFORE = 0
SATI_AFTER = 33

DISPLAY_NAMES: Mapping[str, str] = {
    "safe_security": "Safe & security",
    "time_convenience": "Time & convenience",
    "lockage_regulation": "Lockage regulation",
    "supporting_facilities": "Supporting facilities",
    "comfortable_conditions": "Comfortable conditions",
    "service_professional": "Service professionalism",
    "staff_skills": "Staff skills",
    "service_quality": "Overall service quality",
}


@dataclass(frozen=True)
class CatalogItem:
    """One survey item.

    index        : position in the questionnaire, 1-based.
    abbreviation : short mnemonic used in tables and reports.
    kind         : "frequency", "subjective" or "satisfaction".
    latent_hint  : a priori construct the item was written for.
    """

    index: int
    abbreviation: str
    kind: str
    latent_hint: str

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError("item index must be >= 1")
        if self.kind not in KINDS:
            raise ValueError(f"unknown question kind {self.kind!r}")
        if not self.abbreviation:
            raise ValueError("abbreviation must be non-empty")


@dataclass(frozen=True)
class VariableCatalog:
    """Immutable collection of survey items with unique contiguous indices."""

    items: tuple[CatalogItem, ...]

    def __post_init__(self) -> None:
        idx = [it.index for it in self.items]
        if sorted(idx) != list(range(1, len(idx) + 1)):
            raise ValueError("item indices must be unique and contiguous from 1")
        abbrevs = [it.abbreviation for it in self.items]
        if len(set(abbrevs)) != len(abbrevs):
            raise ValueError("abbreviations must be unique")

    def __len__(self) -> int:
        return len(self.items)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(it.index for it in self.items)

    def item(self, index: int) -> CatalogItem:
        for it in self.items:
            if it.index == index:
                return it
        raise KeyError(index)

    def abbreviation_of(self, index: int) -> str:
        return self.item(index).abbreviation

    def hint_of(self, index: int) -> str:
        return self.item(index).latent_hint

    @classmethod
    def from_json(cls, text: str) -> "VariableCatalog":
        """Read a JSON list of item objects; a missing or malformed field is a
        ValueError naming its row (counted from 0) and the field."""
        try:
            rows = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"catalog: not a JSON document ({exc})") from None
        if not isinstance(rows, list):
            raise ValueError("catalog: the document must be a list of item objects")
        items = []
        for j, r in enumerate(rows):
            if not isinstance(r, dict):
                raise ValueError(f"catalog: row {j} must be an object with {', '.join(_FIELDS)}")
            missing = [name for name in _FIELDS if name not in r]
            if missing:
                raise ValueError(f"catalog: row {j} has no {missing[0]!r}")
            if type(r["index"]) is not int:
                raise ValueError(f"catalog: row {j} 'index' must be an integer")
            try:
                items.append(CatalogItem(r["index"], str(r["abbreviation"]), str(r["kind"]), str(r["latent_hint"])))
            except ValueError as exc:
                raise ValueError(f"catalog: row {j}: {exc}") from None
        try:
            return cls(tuple(items))
        except ValueError as exc:
            raise ValueError(f"catalog: {exc}") from None


def _read_text(option: str, path: str) -> str:
    """The text of the UTF-8 file given to `option`; a file that is not UTF-8 is named."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{option} {path}: not UTF-8 text ({exc})") from None


def load_catalog(path: str) -> VariableCatalog:
    """The catalog in the JSON file at `path`, the file of `--catalog`."""
    return VariableCatalog.from_json(_read_text("--catalog", path))


def _default_items() -> tuple[CatalogItem, ...]:
    spec = [
        (1, "wea_deal", "frequency", "safe_security"),
        (2, "acc_deal", "frequency", "safe_security"),
        (3, "inc_deal", "frequency", "safe_security"),
        (4, "decl_proc", "satisfaction", "time_convenience"),
        (5, "wait_time", "satisfaction", "time_convenience"),
        (6, "oprt_eff", "satisfaction", "time_convenience"),
        (7, "waitime_change", "subjective", "time_convenience"),
        (8, "lock_wktime", "satisfaction", "time_convenience"),
        (9, "lock_cnvnt", "satisfaction", "time_convenience"),
        (10, "cong_deal", "satisfaction", "time_convenience"),
        (11, "cmprhn_regu", "subjective", "lockage_regulation"),
        (12, "travel_info", "satisfaction", "lockage_regulation"),
        (13, "info_pub", "satisfaction", "lockage_regulation"),
        (14, "auto_intlgnt", "satisfaction", "lockage_regulation"),
        (15, "waste_dispo", "subjective", "supporting_facilities"),
        (16, "sewage_dispo", "subjective", "supporting_facilities"),
        (17, "clear_sig", "subjective", "supporting_facilities"),
        (18, "lay_manag", "satisfaction", "supporting_facilities"),
        (19, "light_mark", "satisfaction", "supporting_facilities"),
        (20, "add_cnvnt", "subjective", "supporting_facilities"),
        (21, "support_ser", "satisfaction", "supporting_facilities"),
        (22, "env_cln", "subjective", "comfortable_conditions"),
        (23, "eco_env", "satisfaction", "comfortable_conditions"),
        (24, "cmplt_sign", "subjective", "comfortable_conditions"),
        (25, "ser_att", "satisfaction", "service_professional"),
        (26, "uni_drs", "subjective", "service_professional"),
        (27, "work_exec", "subjective", "service_professional"),
        (28, "lock_spec", "satisfaction", "service_professional"),
        (29, "policy_imple", "subjective", "staff_skills"),
        (30, "policy_anno", "subjective", "staff_skills"),
        (31, "cmpln_handle", "satisfaction", "staff_skills"),
        (32, "solv_prob", "satisfaction", "staff_skills"),
    ]
    return tuple(CatalogItem(*row) for row in spec)


DEFAULT_CATALOG = VariableCatalog(_default_items())
