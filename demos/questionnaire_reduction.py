#!/usr/bin/env python3
"""Shorten the questionnaire with an ordered-probit screen.

The post-trip overall satisfaction rating is regressed on the item
ratings; backward elimination removes the least significant item until
everything left clears the significance gate. What survives becomes a
simplified questionnaire that still tracks overall satisfaction.
"""
from __future__ import annotations

import argparse
from pathlib import Path

from lockqual import oprobit
from lockqual.catalog import DEFAULT_CATALOG, DISPLAY_NAMES, SATI_AFTER
from lockqual.dataset import load_survey

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--survey", default=str(ROOT / "data" / "fixture_survey.csv"))
    ap.add_argument("--alpha", type=float, default=0.01)
    ap.add_argument("--csv", help="also write the simplified questionnaire CSV here")
    args = ap.parse_args()

    data = load_survey(args.survey, DEFAULT_CATALOG)
    items = DEFAULT_CATALOG.indices
    # the rows that rate every item
    _, X = data.matrix(items)
    y = data.column(SATI_AFTER)[data.complete(items)].astype(int)
    names = tuple(DEFAULT_CATALOG.abbreviation_of(i) for i in items)

    print(f"observations: {X.shape[0]}, candidate items: {len(items)}, gate p < {args.alpha}")
    out = oprobit.backward_eliminate(X, y, names, alpha=args.alpha)
    print(f"initial log-likelihood {out.initial.loglik:.2f}, "
          f"pseudo R2 {out.initial.pseudo_r2:.3f}")
    for step in out.steps:
        print(f"  dropped {step.dropped} (p = {step.p_value:.3f})")
    print(f"items kept: {len(out.survivors)} of {len(items)}")

    final = out.final
    print("\nfinal model:")
    print(f"  log-likelihood {final.loglik:.2f}, pseudo R2 {final.pseudo_r2:.3f}")
    print(f"  LR chi2 {final.lr_chi2:.1f} on {final.lr_df} df (p = {final.lr_p:.2e})")
    for row in final.coef_table():
        if row["name"].startswith("kappa"):
            continue
        print(f"  {row['name']:16s} beta {row['beta']:7.3f}  z {row['z']:6.2f}  p {row['p']:.4f}")

    metadata = {}
    order: list[str] = []
    for idx in items:
        abbrev = DEFAULT_CATALOG.abbreviation_of(idx)
        hint = DEFAULT_CATALOG.hint_of(idx)
        construct = DISPLAY_NAMES.get(hint, hint)
        metadata[abbrev] = {"construct": construct, "description": abbrev.replace("_", " ")}
        if construct not in order:
            order.append(construct)
    q = oprobit.build_questionnaire(out.survivors, metadata, construct_order=order)
    print("\nsimplified questionnaire:")
    current = None
    for entry in q.entries:
        if entry.construct != current:
            current = entry.construct
            print(f"  [{current}]")
        print(f"    Q{entry.number}: {entry.description}")
    if args.csv:
        oprobit.write_questionnaire_csv(q, args.csv)
        print(f"\nwrote {args.csv}")


if __name__ == "__main__":
    main()
