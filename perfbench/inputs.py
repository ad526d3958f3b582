"""Generate the synthetic survey and judgment files of the survey workload.

    python perfbench/inputs.py --n 100000 --seed 3 --out-dir DIR

The survey is drawn from `lockqual.synth`'s SEM truth with 1% of the item
cells blank. Then about 0.1% of the rows are made defective in place, in
turns: an out-of-range rating, the id of the row before it, or a blank
overall-satisfaction bookend. The judgment file holds `n // 50` synthetic
experts. Both files are a pure function of `--n` and `--seed`.
"""
from __future__ import annotations

import argparse
import dataclasses
import os

import numpy as np

from lockqual import dataset, synth

MISSING_RATE = 0.01
DEFECT_RATE = 0.001
FIRST_ITEM_FIELD = 8  # id + six demographic fields + q0
BOOKEND_FIELDS = (7, 40)  # q0, q33


def _defects(lines: list[str], seed: int) -> None:
    """Make rows defective in place; defect rows are never adjacent."""
    n = len(lines) - 1
    rng = np.random.default_rng([seed, 1])
    rows = np.sort(rng.choice(np.arange(1, n // 2) * 2, size=max(3, round(n * DEFECT_RATE)), replace=False))
    for k, row in enumerate(rows.tolist()):
        fields = lines[row].split(",")
        kind = k % 3
        if kind == 0:
            fields[FIRST_ITEM_FIELD + int(rng.integers(32))] = "7"
        elif kind == 1:
            fields[0] = lines[row - 1].split(",", 1)[0]
        else:
            fields[BOOKEND_FIELDS[int(rng.integers(2))]] = ""
        lines[row] = ",".join(fields)


def generate(n: int, seed: int, out_dir: str) -> dict[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    paths = {"survey": os.path.join(out_dir, "survey.csv"), "judgments": os.path.join(out_dir, "judgments.csv")}
    spec = dataclasses.replace(synth.default_sem_truth(n=n, seed=seed), missing_rate=MISSING_RATE)
    dataset.write_survey(synth.gen_sem_survey(spec), paths["survey"])
    with open(paths["survey"], encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\r\n")
    _defects(lines, seed)
    with open(paths["survey"], "w", encoding="utf-8", newline="") as fh:
        fh.write("\r\n".join(lines))
    rows = synth.gen_ahp_judgments(synth.AhpSpec(n_respondents=max(n // 50, 10), seed=seed))
    synth.write_judgments_csv(rows, paths["judgments"])
    return paths


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()
    generate(args.n, args.seed, args.out_dir)


if __name__ == "__main__":
    main()
