#!/usr/bin/env python3
"""Two-perspective evaluation walkthrough on the bundled fixture data.

Runs the customer side (screening, reliability, factor extraction,
structural fit, holdout scoring, entropy and delay bands) and the
supplier side (pairwise-judgment weighting) step by step through the
library API, printing the numbers an analyst would look at. The same
flow is available as one command: lockqual report --input ... --judgments ...
"""
from __future__ import annotations

import argparse
from pathlib import Path

from lockqual import ahp, efa, psychometrics, scoring, sem
from lockqual.catalog import DEFAULT_CATALOG, DISPLAY_NAMES
from lockqual.dataset import describe, load_survey, split
from lockqual.pipeline import _label_factors, synthesize_models

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--survey", default=str(ROOT / "data" / "fixture_survey.csv"))
    ap.add_argument("--judgments", default=str(ROOT / "data" / "fixture_judgments.csv"))
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    data = load_survey(args.survey, DEFAULT_CATALOG)
    rep = describe(data)
    print(f"respondents kept after screening: {data.n} (rejected {len(data.rejected)})")
    print(f"post-trip overall satisfaction mean: {rep.overall_sati_after:.3f}")

    _, x = data.matrix(DEFAULT_CATALOG.indices)
    adq = psychometrics.adequacy(x)
    print(
        f"Cronbach alpha {adq.cronbach_alpha:.3f}, KMO {adq.kmo:.3f}, "
        f"Bartlett chi2 {adq.bartlett_chi2:.1f} (p {adq.bartlett_p:.2e})"
    )

    # the training rows' mask; the holdout is ~train
    train = split(data, round(0.6 * data.n), args.seed)
    print(f"train/holdout split: {train.sum()}/{(~train).sum()}")

    # exploratory structure on the training part only, from its complete rows' moments
    xt = data.moments(DEFAULT_CATALOG.indices, train)
    rotated = efa.rotate_varimax(
        efa.extract_pca(psychometrics.correlation_matrix(xt), items=DEFAULT_CATALOG.indices)
    )
    assignment = efa.prune(rotated, data=xt)
    labels = _label_factors(assignment, DEFAULT_CATALOG)
    print(f"\nfactors retained: {rotated.n_factors} "
          f"(cumulative variance {rotated.cumulative_explained[-1]:.1f}%)")
    for j in sorted(assignment.factor_items):
        items = assignment.factor_items[j]
        alpha = assignment.per_factor_alpha.get(j)
        extra = f", alpha {alpha:.3f}" if alpha is not None else ""
        print(f"  {DISPLAY_NAMES.get(labels[j], labels[j])}: items {list(items)}{extra}")
    for di in assignment.dropped_items:
        print(f"  dropped item {di.item}: {di.reason}")

    # confirmatory fit of the synthesized structural model
    warnings: list[str] = []
    cfa, structural = synthesize_models(assignment, labels, warnings)
    ms = data.moments(structural.observed, train)
    est = sem.standardize(sem.fit_ml(structural, ms.cov(), n=ms.n))
    fi = sem.fit_indices(est)
    print(
        f"\nstructural fit: chi2 {fi.chi2:.1f}/{fi.df} df "
        f"(CMIN/DF {fi.cmin_df:.3f}), RMSEA {fi.rmsea:.3f}, "
        f"CFI {fi.cfi:.3f}, GFI {fi.gfi:.3f}"
    )

    weights = scoring.weights_from_estimate(est)
    print("standardized factor weights on overall quality:")
    for name in weights.latents:
        print(f"  {DISPLAY_NAMES.get(name, name)}: {weights.latent_weights[name]:.3f}")

    summary = scoring.validation_summary(data, weights, ~train)
    print(
        f"\nholdout scoring: n {summary.n_scored}, mean relative error "
        f"{summary.mean_error:.3f}, within 10%: {summary.share_within_10pct:.1%}"
    )

    latent_items = {labels[j]: list(v) for j, v in assignment.factor_items.items()}
    ent = scoring.entropy_report(data, latent_items)
    print("\nperception variability by factor (1 - entropy, descending):")
    for name in ent.ranking:
        print(f"  {DISPLAY_NAMES.get(name, name)}: {ent.variability[name]:.4f}")

    strata = scoring.delay_strata(data)
    print("\nsatisfaction by delay band:")
    for band in strata.bands:
        print(f"  {band.label:7s} n={band.n:4d} ({band.share_pct:5.1f}%) mean {band.s_mean:.3f}")

    # supplier side: aggregate the pairwise judgments
    judgments = ahp.load_judgments(args.judgments)
    agg = ahp.aggregate_geomean(judgments.criteria)
    wv, lam = ahp.weights_eigen(agg)
    cns = ahp.consistency(agg, lam)
    print(
        f"\nsupplier panel: {len(judgments)} respondents, aggregate CR {cns.cr:.4f} "
        f"({'consistent' if cns.passed else 'inconsistent'})"
    )
    leaf_weights = {}
    for crit_name in ahp.DEFAULT_HIERARCHY.criteria:
        leaf_weights[crit_name], _ = ahp.weights_eigen(ahp.aggregate_geomean(judgments.leaves[crit_name]))
    gw = ahp.global_weights(ahp.DEFAULT_HIERARCHY, wv, leaf_weights)

    ow = ahp.normalized_weights(dict(weights.latent_weights), labels=gw.labels)
    rep_b = ahp.bias_report(ow, gw)
    print("\ndemand vs supplier weights (rank in parentheses):")
    for row in rep_b.rows:
        print(
            f"  {DISPLAY_NAMES.get(row.factor, row.factor):24s} "
            f"customer {row.ow:.3f} ({row.ow_rank})  supplier {row.sw:.3f} ({row.sw_rank})"
        )
    print(f"rank correlation (Spearman): {rep_b.spearman:.3f}")


if __name__ == "__main__":
    main()
