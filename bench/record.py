"""Regenerate the reference pools in refs/ from the package as it stands.

    PYTHONPATH=src python3 bench/record.py [batch] [meta] [oracle]

Each pool holds seeded inputs and the values the package produced for them:
the maximum, argmax and crossings of every curve op, and the closed-form
ln BF10 of every oracle point. The benchmark checks each op against these
values, so re-record only on purpose, from a commit whose outputs are known to
be right; the committed pools were recorded from the initial package.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bff  # noqa: E402
from bff.bayes_factors import Family, TestStatistic, log_bf  # noqa: E402
from bff.curves import EffectGrid, combine, evaluate_bff  # noqa: E402
from bff.exports import build_export  # noqa: E402
from bff.oracle import log_bf_quadrature  # noqa: E402
from workloads import (  # noqa: E402
    META_CLASSES,
    ORACLE_STRATA,
    REFS,
    REPLICATION_STUDIES,
    THRESHOLDS,
    curve_summary,
    draw_study,
    make_study,
)

BATCH_CASES = 2000
META_PER_CLASS = 24
ORACLE_CASES = {"t": 100, "chisq": 100, "f": 100, "z": 30}

DEFAULT_GRID = {"min": 0.0, "max": 1.0, "steps": 500}

# the paper's three worked examples, with the values the package gives for
# them (the README's targets that fail by design are not used)
PAPER = [
    {"paper": "z=2, n=100", "format": "csv", "thresholds": [0.2],
     "studies": [{"family": "z", "value": 2.0, "design": "one_sample_z", "n": 100}],
     "expect": {"max_bf": 2.90, "argmax": 0.153}},
    {"paper": "chisq 12.65 on 6 df, n=707", "format": "svg", "thresholds": [0.2],
     "studies": [{"family": "chisq", "value": 12.65, "df1": 6,
                  "design": "multinomial_chisq", "n": 707, "k": 6}],
     "expect": {"max_bf": 3.07, "argmax": 0.035}},
    {"paper": "F replication meta-analysis", "format": "json", "thresholds": [0.2, 2.0],
     "studies": REPLICATION_STUDIES,
     "expect": {"max_bf": 5.753, "argmax": 0.139}},
]


def record_curve(case: dict) -> dict:
    studies = [make_study(s) for s in case["studies"]]
    grid = EffectGrid(**case["grid"])
    curve = evaluate_bff(studies[0], grid) if len(studies) == 1 else combine(studies, grid)
    export = build_export(curve, thresholds=tuple(case["thresholds"]))
    case["ref"] = curve_summary(curve, export)
    return case


def batch_pool(rng: random.Random) -> list[dict]:
    cases = []
    for p in PAPER:
        case = record_curve({k: v for k, v in p.items() if k != "expect"}
                            | {"grid": dict(DEFAULT_GRID)})
        got_bf = math.exp(case["ref"]["max_log_bf"])
        digits = len(str(p["expect"]["max_bf"]).split(".")[1])
        if (round(got_bf, digits), round(case["ref"]["argmax_omega"], 3)) != (
            p["expect"]["max_bf"], p["expect"]["argmax"]
        ):
            raise SystemExit(f"{p['paper']}: max BF {got_bf} at {case['ref']['argmax_omega']}")
        cases.append(case)
    for _ in range(BATCH_CASES):
        strength = rng.uniform(0.0, 1.0)
        first = draw_study(rng, strength)
        studies = [first]
        if rng.random() < 0.1:
            # a replication: same design, its own sample and statistic
            studies.append(draw_study(rng, strength * rng.uniform(0.5, 1.2), first["design"]))
        cases.append(record_curve({
            "studies": studies,
            "grid": {"min": 0.0, "max": rng.choice((0.5, 1.0, 2.0)),
                     "steps": round(10 ** rng.uniform(math.log10(50), math.log10(500)))},
            "thresholds": sorted(rng.sample(THRESHOLDS, rng.randint(1, 3))),
            "format": rng.choice(("csv", "json", "svg")),
        }))
    return cases


def meta_pool(rng: random.Random) -> list[dict]:
    cases = []
    for n_studies, steps in META_CLASSES:
        for _ in range(META_PER_CLASS):
            # modest per-study evidence, as in a literature of small effects;
            # the combined ln BF stays far below the exp() overflow at 709
            studies = [draw_study(rng, rng.uniform(0.0, 0.4)) for _ in range(n_studies)]
            cases.append(record_curve({
                "studies": studies,
                "grid": {"min": 0.0, "max": 1.0, "steps": steps},
                "thresholds": [rng.choice(THRESHOLDS)],
            }))
    return cases


def oracle_pool(rng: random.Random) -> list[dict]:
    """Points drawn from the ranges of acceptance criterion 5's grid."""
    cases = []
    for family, count in ORACLE_CASES.items():
        costs = []
        for _ in range(count):
            case = {"family": family, "tau2": 10 ** rng.uniform(-1.0, 1.0)}
            if family in ("z", "t"):
                case["value"] = rng.uniform(0.5, 4.0)
                if family == "t":
                    case["df1"] = rng.randint(2, 40)
            elif family == "chisq":
                case.update(value=rng.uniform(1.0, 20.0), df1=rng.randint(1, 10))
            else:
                case.update(value=rng.uniform(0.3, 6.0), df1=rng.randint(1, 8),
                            df2=rng.randint(10, 120))
            stat = TestStatistic(Family(family), case["value"], df1=case.get("df1"),
                                 df2=case.get("df2"))
            case["ref"] = {"log_bf": log_bf(stat, case["tau2"])}
            start = time.perf_counter()
            log_bf_quadrature(stat, case["tau2"])
            costs.append((time.perf_counter() - start, case))
        # cost strata, by rank within the family (see workloads.OracleOps)
        costs.sort(key=lambda c: c[0])
        for rank, (_, case) in enumerate(costs):
            case["stratum"] = 0 if family == "z" else rank * ORACLE_STRATA // count
            cases.append(case)
    return cases


def main() -> int:
    REFS.mkdir(exist_ok=True)
    pools = {"batch": (batch_pool, 101), "meta": (meta_pool, 202),
             "oracle": (oracle_pool, 303)}
    for name in sys.argv[1:] or pools:
        build, seed = pools[name]
        start = time.perf_counter()
        cases = build(random.Random(seed))
        doc = {"recorded_with": f"bff {bff.__version__}", "seed": seed, "cases": cases}
        with open(REFS / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"{name}: {len(cases)} cases in {time.perf_counter() - start:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
