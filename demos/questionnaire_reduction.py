#!/usr/bin/env python3
"""Shorten the questionnaire with an ordered-probit screen.

The post-trip overall satisfaction rating is regressed on the item
ratings; backward elimination removes the least significant item until
everything left clears the significance gate. What survives becomes a
simplified questionnaire that still tracks overall satisfaction. The
screen runs through the probit stage of `lockqual report`, and the
questionnaire printed is the rows of that stage's document.
"""
from __future__ import annotations

import argparse
from pathlib import Path

from lockqual.catalog import DEFAULT_CATALOG
from lockqual.dataset import load_survey
from lockqual.pipeline import GateThresholds, probit_section, write_questionnaire

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--survey", default=str(ROOT / "data" / "fixture_survey.csv"))
    ap.add_argument("--alpha", type=float, default=0.01)
    ap.add_argument("--csv", help="also write the simplified questionnaire CSV here")
    args = ap.parse_args()

    data = load_survey(args.survey, DEFAULT_CATALOG)
    items = DEFAULT_CATALOG.indices
    # every item a candidate, filed under the construct its catalog entry hints at;
    # the design is the rows that rate every item
    constructs = {i: DEFAULT_CATALOG.hint_of(i) for i in items}
    warnings: list[str] = []
    gates = GateThresholds(probit_alpha=args.alpha)
    doc = probit_section(data, constructs, DEFAULT_CATALOG, gates, False, warnings)

    print(f"observations: {doc['n_obs']}, candidate items: {len(items)}, gate p < {args.alpha}")
    print(f"initial log-likelihood {doc['initial_loglik']:.2f}, "
          f"pseudo R2 {doc['initial_pseudo_r2']:.3f}")
    for step in doc["steps"]:
        print(f"  dropped {step['dropped']} (p = {step['p_value']:.3f})")
    print(f"items kept: {len(doc['survivors'])} of {len(items)}")
    for w in warnings:
        print(f"warning: {w}")

    final = doc["final"]
    print("\nfinal model:")
    print(f"  log-likelihood {final['loglik']:.2f}, pseudo R2 {final['pseudo_r2']:.3f}")
    print(f"  LR chi2 {final['lr_chi2']:.1f} on {len(doc['survivors'])} df (p = {final['lr_p']:.2e})")
    for row in final["coef_table"]:
        print(f"  {row['name']:16s} beta {row['beta']:7.3f}  z {row['z']:6.2f}  p {row['p']:.4f}")

    print("\nsimplified questionnaire:")
    current = None
    for row in doc["questionnaire"]:
        if row["construct"] != current:
            current = row["construct"]
            print(f"  [{current}]")
        print(f"    Q{row['question_number']}: {row['abbreviation']} ({row['description']})")
    if args.csv:
        write_questionnaire(doc["questionnaire"], args.csv)
        print(f"\nwrote {args.csv}")


if __name__ == "__main__":
    main()
