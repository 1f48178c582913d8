"""The four benchmark workloads: seeded inputs, one timed op, and its check.

Each workload object hands out cases in a seeded order (`case(i)`), runs one
case as one op (`run(case)`, the only timed call) and checks the result
(`check(case, result)`, which returns a failure message or None). Inputs for
the in-process workloads come from the reference pools in `refs/`, recorded
from the package by `record.py`; the seed only chooses their order. The CLI
workload draws its inputs directly from the seed and checks each invocation
against the same computation done in process.

Package functions are looked up on their modules at call time so that the
span shims in `tracing.py` see every call.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import bff.cli as cli
import bff.curves as curves
import bff.exports as exports
import bff.oracle as oracle
from bff.bayes_factors import Family, TestStatistic
from bff.curves import EffectGrid, Study
from bff.effect_sizes import Design, StudyDesign

REFS = Path(__file__).resolve().parent / "refs"

# the tolerances tests/test_curves.py and tests/test_acceptance.py assert
LOG_BF_REL = 1e-9
ARGMAX_ABS = 2e-5
CROSSING_ABS = 5e-6
ORACLE_REL = 1e-6

THRESHOLDS = (0.1, 0.2, 0.5, 2.0, 3.0, 10.0, 30.0)
# the paper's replication example: an original F study and its replication
REPLICATION_STUDIES = [
    {"family": "f", "value": 4.05, "df1": 2, "df2": 82, "design": "linear_model_f",
     "n": 85, "k": 2, "label": "original"},
    {"family": "f", "value": 1.99, "df1": 2, "df2": 137, "design": "linear_model_f",
     "n": 140, "k": 2, "label": "replication"},
]
SAMPLE_EVERY = 10  # every tenth rendered op also checks determinism and the CSV round trip

# ---------------------------------------------------------------- inputs


def make_study(spec: dict) -> Study:
    stat = TestStatistic(
        Family(spec["family"]), spec["value"], df1=spec.get("df1"), df2=spec.get("df2")
    )
    design = StudyDesign(
        Design(spec["design"]),
        n=spec.get("n"),
        n1=spec.get("n1"),
        n2=spec.get("n2"),
        k=spec.get("k"),
    )
    return Study(statistic=stat, design=design, label=spec.get("label", ""))


def draw_study(rng: random.Random, strength: float, design: str | None = None) -> dict:
    """A study-file record; strength 0 is null-like, 1 is strong evidence."""
    design = design or rng.choice([d.value for d in Design])
    n = max(10, round(10 ** rng.uniform(1.0, 4.0)))
    sign = rng.choice((-1.0, 1.0))
    if design in ("one_sample_z", "two_sample_z", "one_sample_t", "two_sample_t"):
        spec = {"value": round(sign * (6.0 * strength + rng.uniform(0.0, 0.5)), 4)}
        if design.startswith("two_sample"):
            n1 = max(3, round(n * rng.uniform(0.3, 0.7)))
            spec.update(n1=n1, n2=max(3, n - n1))
        else:
            spec["n"] = n
        if design.endswith("_t"):
            df = spec["n"] - 1 if "n" in spec else spec["n1"] + spec["n2"] - 2
            spec.update(family="t", df1=df)
        else:
            spec["family"] = "z"
    elif design in ("multinomial_chisq", "likelihood_ratio_chisq"):
        k = rng.randint(1, 10)
        h = k * rng.uniform(0.2, 1.5) + 50.0 * strength * strength
        spec = {"family": "chisq", "value": round(h, 4), "df1": k, "n": n, "k": k}
    else:
        k = rng.randint(1, 8)
        n = max(n, k + 3)
        f = (k * rng.uniform(0.2, 1.5) + 50.0 * strength * strength) / k
        spec = {"family": "f", "value": round(f, 4), "df1": k, "df2": n - k - 1,
                "n": n, "k": k}
    spec["design"] = design
    return spec


def curve_summary(curve, export) -> dict:
    """The reference view of one curve op: maximum, argmax and crossings."""
    return {
        "max_log_bf": curve.max_log_bf,
        "argmax_omega": curve.argmax_omega,
        "crossings": list(curve.crossings),
        "thresholds": [list(b.crossings) for b in export.summary.thresholds],
    }


def _close_lists(got, want, tol) -> bool:
    return len(got) == len(want) and all(abs(a - b) <= tol for a, b in zip(got, want))


def compare_summary(got: dict, ref: dict) -> str | None:
    """None when got matches ref within the suite's tolerances, else why not."""
    scale = max(1.0, abs(ref["max_log_bf"]))
    if not abs(got["max_log_bf"] - ref["max_log_bf"]) <= LOG_BF_REL * scale:
        return f"max ln BF {got['max_log_bf']!r} != reference {ref['max_log_bf']!r}"
    if not abs(got["argmax_omega"] - ref["argmax_omega"]) <= ARGMAX_ABS:
        return f"argmax {got['argmax_omega']!r} != reference {ref['argmax_omega']!r}"
    if not _close_lists(got["crossings"], ref["crossings"], CROSSING_ABS):
        return f"BF=1 crossings {got['crossings']} != reference {ref['crossings']}"
    if len(got["thresholds"]) != len(ref["thresholds"]) or not all(
        _close_lists(g, r, CROSSING_ABS) for g, r in zip(got["thresholds"], ref["thresholds"])
    ):
        return f"threshold crossings {got['thresholds']} != reference {ref['thresholds']}"
    return None


def load_pool(name: str) -> list[dict]:
    with open(REFS / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)["cases"]


# ---------------------------------------------------------------- workloads


class CurveOps:
    """batch-reanalysis and meta-combine: curve, export and (maybe) render."""

    def __init__(self, pool: list[dict], order: list[int], cycle: int):
        self.pool = pool
        self.order = order
        self.cycle = cycle
        for case in pool:
            case["objects"] = [make_study(s) for s in case["studies"]]
            g = case["grid"]
            case["grid_obj"] = EffectGrid(min=g["min"], max=g["max"], steps=g["steps"])

    def case(self, i: int) -> dict:
        return self.pool[self.order[i % len(self.order)]]

    def studies_in(self, case: dict) -> int:
        return len(case["objects"])

    def run(self, case: dict):
        studies = case["objects"]
        if len(studies) == 1:
            curve = curves.evaluate_bff(studies[0], case["grid_obj"])
        else:
            curve = curves.combine(studies, case["grid_obj"])
        export = exports.build_export(curve, thresholds=tuple(case["thresholds"]))
        text = exports.render(export, case["format"]) if case.get("format") else None
        return curve, export, text

    def check(self, case: dict, result, i: int) -> str | None:
        curve, export, text = result
        if len(export.rows) != case["grid"]["steps"]:
            return f"export has {len(export.rows)} rows for {case['grid']['steps']} steps"
        why = compare_summary(curve_summary(curve, export), case["ref"])
        if why or text is None:
            return why
        if not text:
            return "empty render"
        if i % SAMPLE_EVERY == 0:
            if exports.render(export, case["format"]) != text:
                return f"{case['format']} render is not deterministic"
            csv_text = exports.render(export, "csv")
            if exports.render(exports.parse_csv(csv_text), "csv") != csv_text:
                return "CSV round trip changed the bytes"
        return None

    def warm_up(self) -> None:
        """Run every code path an op takes once, on a small grid."""
        studies = self.case(0)["objects"][:2]
        grid = EffectGrid(steps=50)
        curve = curves.combine(studies, grid)
        export = exports.build_export(curves.evaluate_bff(studies[0], grid), (2.0,))
        for fmt in ("csv", "json", "svg"):
            exports.render(exports.build_export(curve, (2.0,)), fmt)
        exports.parse_csv(exports.render(export, "csv"))


def batch_reanalysis(seed: int) -> CurveOps:
    pool = load_pool("batch")
    paper = [i for i, c in enumerate(pool) if c.get("paper")]
    rest = [i for i, c in enumerate(pool) if not c.get("paper")]
    random.Random(seed).shuffle(rest)
    return CurveOps(pool, paper + rest, cycle=1)


META_CLASSES = ((2, 100000), (6, 33000), (20, 10000), (60, 3300), (200, 1000), (200, 500))


def meta_combine(seed: int) -> CurveOps:
    pool = load_pool("meta")
    rng = random.Random(seed)
    by_class = []
    for n_studies, steps in META_CLASSES:
        members = [
            i for i, c in enumerate(pool)
            if len(c["studies"]) == n_studies and c["grid"]["steps"] == steps
        ]
        rng.shuffle(members)
        by_class.append(members)
    # every cycle runs one case of each size class, so each run's cost mix
    # is the same whatever the seed
    order = [m[j] for j in range(min(map(len, by_class))) for m in by_class]
    return CurveOps(pool, order, cycle=len(META_CLASSES))


# the recorded pool ranks each family's points by cost into ORACLE_STRATA
# groups; every cycle takes one point from each group of t, chisq and f, cheap
# and dear groups alternating, plus one z point, so that the cost of a run
# does not depend on which points the seed picks
ORACLE_STRATA = 10
ORACLE_CYCLE = [(f, s) for s in (0, 9, 1, 8, 2, 7, 3, 6, 4, 5) for f in ("t", "chisq", "f")]
ORACLE_CYCLE.insert(len(ORACLE_CYCLE) // 2, ("z", 0))


class OracleOps:
    def __init__(self, seed: int):
        rng = random.Random(seed)
        groups: dict[tuple[str, int], list[dict]] = {}
        for case in load_pool("oracle"):
            case["stat"] = TestStatistic(
                Family(case["family"]), case["value"], df1=case.get("df1"),
                df2=case.get("df2"),
            )
            groups.setdefault((case["family"], case["stratum"]), []).append(case)
        for members in groups.values():
            rng.shuffle(members)
        self.cycle = len(ORACLE_CYCLE)
        self.order = [
            groups[key][j % len(groups[key])]
            for j in range(max(map(len, groups.values())))
            for key in ORACLE_CYCLE
        ]

    def case(self, i: int) -> dict:
        return self.order[i % len(self.order)]

    def studies_in(self, case: dict) -> int:
        return 1

    def run(self, case: dict) -> float:
        return oracle.log_bf_quadrature(case["stat"], case["tau2"])

    def check(self, case: dict, result: float, i: int) -> str | None:
        closed = case["ref"]["log_bf"]
        if not abs(result - closed) <= ORACLE_REL * abs(closed):
            return f"quadrature {result!r} vs closed form {closed!r}: rel err > {ORACLE_REL}"
        return None

    def warm_up(self) -> None:
        z = next(c for c in self.order if c["family"] == "z")
        self.check(z, self.run(z), 0)


# ---------------------------------------------------------------- CLI


def _fmt(x: float) -> str:
    return repr(float(x))


def cli_argvs(seed: int, count: int, tmp: Path) -> list[dict]:
    """count seeded invocations cycling through the README's five commands."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        kind = ("z", "chisq", "f", "t", "combine")[i % 5]
        if kind == "z":
            n = round(10 ** rng.uniform(1.0, 4.0))
            argv = ["z", "--stat", _fmt(round(rng.uniform(-5, 5), 3)), "--n", str(n)]
        elif kind == "chisq":
            k = rng.randint(1, 10)
            n = round(10 ** rng.uniform(1.0, 4.0))
            argv = ["chisq", "--stat", _fmt(round(rng.uniform(0, k + 40), 3)),
                    "--df", str(k), "--n", str(n),
                    "--mapping", rng.choice(("multinomial", "lrt")),
                    "--threshold", _fmt(rng.choice(THRESHOLDS))]
        elif kind == "f":
            k = rng.randint(1, 8)
            n = max(k + 3, round(10 ** rng.uniform(1.0, 4.0)))
            argv = ["f", "--stat", _fmt(round(rng.uniform(0.1, 8.0), 3)),
                    "--df1", str(k), "--df2", str(n - k - 1), "--n", str(n)]
        elif kind == "t":
            n1 = round(10 ** rng.uniform(0.7, 3.7))
            n2 = round(10 ** rng.uniform(0.7, 3.7))
            argv = ["t", "--stat", _fmt(round(rng.uniform(-5, 5), 3)),
                    "--df", str(n1 + n2 - 2), "--n1", str(n1), "--n2", str(n2)]
        else:
            studies = [
                dict(draw_study(rng, rng.uniform(0.0, 1.0)), label=f"study {j + 1}")
                for j in range(rng.randint(2, 5))
            ]
            path = tmp / f"studies-{i % 10}.json"
            argv = ["combine", "--studies", str(path), "--per-study",
                    "--format", "svg", "--out", str(tmp / "combined.svg")]
            cases.append({"argv": argv, "studies": studies, "path": path})
            continue
        cases.append({"argv": argv})
    return cases


def _parse_summary(lines: list[str]) -> dict:
    """Numbers from the CLI summary: max BF, argmax and crossing lines."""
    first = lines[0].split()
    got = {"max_bf": float(first[2]), "argmax": float(first[5]), "bf1": [], "thr": []}
    for line in lines[1:]:
        if line.startswith("BF=1 crossing at omega "):
            got["bf1"].append(float(line.split()[-1]))
        elif line.startswith("BF=") and " crossing at omega " in line:
            got["thr"].append(float(line.split()[-1]))
    return got


class CliOps:
    """One python -m bff.cli subprocess per op, strictly one at a time."""

    def __init__(self, seed: int, root: Path):
        self.tmp = root / ".bench_out" / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.root = root
        self.cases = cli_argvs(seed, 1000, self.tmp)
        self.cycle = 5

    def case(self, i: int) -> dict:
        case = self.cases[i % len(self.cases)]
        if "studies" in case:
            case["path"].write_text(json.dumps({"studies": case["studies"]}), encoding="utf-8")
            out = Path(case["argv"][-1])
            if out.exists():
                out.unlink()
        return case

    def studies_in(self, case: dict) -> int:
        return len(case.get("studies", ())) or 1

    def run(self, case: dict):
        out_path, err_path = self.tmp / "stdout.txt", self.tmp / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.run(
                [sys.executable, "-m", "bff.cli", *case["argv"]],
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                cwd=self.root, timeout=60,
            )
        return proc.returncode, out_path.read_text(encoding="utf-8")

    def expected(self, case: dict):
        """The export text and curve the library produces for this invocation."""
        args = cli.build_parser().parse_args(case["argv"])
        if args.command == "combine":
            studies = [make_study(s) for s in case["studies"]]
            grid = EffectGrid()
            curve = curves.combine(studies, grid)
            per_study = tuple(curves.evaluate_bff(s, grid) for s in studies)
        else:
            # the CLI's own argument-to-study mapping is under test, so only
            # the argument parser is reused here
            argv = case["argv"]
            opt = dict(zip(argv[1::2], argv[2::2]))
            value = float(opt["--stat"])
            if args.command == "z":
                stat = TestStatistic(Family.Z, value)
                design = StudyDesign(Design.ONE_SAMPLE_Z, n=int(opt["--n"]))
            elif args.command == "t":
                stat = TestStatistic(Family.T, value, df1=int(opt["--df"]))
                design = StudyDesign(Design.TWO_SAMPLE_T, n1=int(opt["--n1"]),
                                     n2=int(opt["--n2"]))
            elif args.command == "chisq":
                k = int(opt["--df"])
                stat = TestStatistic(Family.CHISQ, value, df1=k)
                mapping = {"multinomial": Design.MULTINOMIAL_CHISQ,
                           "lrt": Design.LIKELIHOOD_RATIO_CHISQ}[opt["--mapping"]]
                design = StudyDesign(mapping, n=int(opt["--n"]), k=k)
            else:
                k = int(opt["--df1"])
                stat = TestStatistic(Family.F, value, df1=k, df2=int(opt["--df2"]))
                design = StudyDesign(Design.LINEAR_MODEL_F, n=int(opt["--n"]), k=k)
            curve = curves.evaluate_bff(Study(stat, design, label=args.command))
            per_study = ()
        export = exports.build_export(curve, tuple(args.threshold), per_study)
        return curve, export, exports.render(export, args.format)

    def check(self, case: dict, result, i: int) -> str | None:
        code, stdout = result
        if code != 0:
            return f"exit code {code} for {' '.join(case['argv'])}"
        curve, export, text = self.expected(case)
        if "studies" in case:
            written = Path(case["argv"][-1]).read_text(encoding="utf-8")
            if written != text:
                return "--out file differs from the in-process export"
        elif not stdout.endswith("\n\n" + text):
            return "stdout export differs from the in-process export"
        got = _parse_summary(stdout.splitlines())
        thr = [w for b in export.summary.thresholds for w in b.crossings]
        ok = (
            abs(got["max_bf"] - export.summary.max_bf10) <= 0.005 * (1 + 1e-9)
            and abs(got["argmax"] - curve.argmax_omega) <= 0.0005 * (1 + 1e-9)
            and _close_lists(got["bf1"], list(curve.crossings), 0.0005 * (1 + 1e-9))
            and _close_lists(got["thr"], thr, 0.0005 * (1 + 1e-9))
        )
        return None if ok else f"summary {got} disagrees with the in-process curve"

    def warm_up(self) -> None:
        self.expected(self.case(0))


def make(name: str, seed: int, root: Path):
    if name == "cli-oneshot":
        return CliOps(seed, root)
    if name == "batch-reanalysis":
        return batch_reanalysis(seed)
    if name == "meta-combine":
        return meta_combine(seed)
    if name == "oracle-verify":
        return OracleOps(seed)
    raise ValueError(f"unknown workload {name!r}")
