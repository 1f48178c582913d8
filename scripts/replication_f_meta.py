"""Worked example: combining BFFs across an original study and its replication.

Two one-way ANOVAs compared confirmatory information processing between
three groups. The original study (n = 85) reported F(2, 82) = 4.05; the
replication (n = 140) reported F(2, 137) = 1.99. Each study maps a root mean
square effect size omega onto its own prior scale through its own sample
size, so the Bayes factors multiply pointwise in omega. The combined curve
peaks near 5.75 at omega 0.139 and shows better than 2:1 support only for
omega between roughly 0.05 and 0.26.

Writes replication_f_meta.csv and replication_f_meta.svg (with per-study
curves) to --out-dir and prints the headline numbers.
"""

from __future__ import annotations

import argparse
import math
import os

from bff.bayes_factors import Family, TestStatistic
from bff.curves import EffectGrid, Study, combine, evaluate_bff
from bff.effect_sizes import Design, StudyDesign
from bff.exports import build_export, emit

SUPPORT_THRESHOLD = 2.0


def make_study(f_value: float, df2: int, n: int, label: str) -> Study:
    return Study(
        statistic=TestStatistic(family=Family.F, value=f_value, df1=2, df2=df2),
        design=StudyDesign(design=Design.LINEAR_MODEL_F, n=n, k=2),
        label=label,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="out", help="directory for exports")
    args = parser.parse_args(argv)

    studies = [
        make_study(4.05, 82, 85, "original"),
        make_study(1.99, 137, 140, "replication"),
    ]
    grid = EffectGrid(min=0.0, max=0.6, steps=500)

    singles = [evaluate_bff(study, grid) for study in studies]
    for study, single in zip(studies, singles):
        print(
            f"{study.label}: max BF {math.exp(single.max_log_bf):.2f}"
            f" at omega {single.argmax_omega:.3f}"
        )

    curve = combine(studies, grid)
    export = build_export(curve, thresholds=(SUPPORT_THRESHOLD,), per_study=tuple(singles))

    print(f"combined ({curve.label}):")
    print(f"max BF {export.summary.max_bf10:.2f} at omega {curve.argmax_omega:.3f}")
    for omega in curve.crossings:
        print(f"BF=1 crossing at omega {omega:.3f}")
    for block in export.summary.thresholds:
        for omega in block.crossings:
            print(f"BF={block.threshold_bf:g} crossing at omega {omega:.3f}")

    os.makedirs(args.out_dir, exist_ok=True)
    for fmt in ("csv", "svg"):
        path = os.path.join(args.out_dir, f"replication_f_meta.{fmt}")
        emit(export, fmt, path)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
