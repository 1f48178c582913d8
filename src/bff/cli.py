"""Command line interface.

Subcommands z, t, chisq, and f evaluate a single study's BFF; combine reads a
JSON study file and multiplies the per-study Bayes factors on a shared grid.
Exit codes: 0 success, 1 compute failure (quadrature or series breakdown,
or a curve that is not finite), 2 usage or study-file error, including any
non-finite number in the input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .bayes_factors import Family, TestStatistic
from .curves import BFFCurve, EffectGrid, Study, combine, evaluate_bff
from .effect_sizes import Design, EffectSize, StudyDesign, tau2_for
from .exports import CurveExport, build_export, emit, render
from .numerics import IntegrationError, SeriesError
from .oracle import log_bf_quadrature


class StudyFileError(Exception):
    """The study file is malformed; message names the offending field."""


_DESIGN_TAGS = {d.value: d for d in Design}
_FAMILY_TAGS = {f.value: f for f in Family}

_STUDY_FIELDS = {"family", "value", "df1", "df2", "design", "n", "n1", "n2", "k", "label"}

_CHISQ_MAPPINGS = {
    "multinomial": Design.MULTINOMIAL_CHISQ,
    "lrt": Design.LIKELIHOOD_RATIO_CHISQ,
}


def _positive_int(name: str):
    def parse(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"{name} must be a positive integer")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bff",
        description=(
            "Bayes factor functions: evidence against a point null as a "
            "function of standardized effect size."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--omega-min", type=float, default=None, help="grid start (default 0)")
    common.add_argument("--omega-max", type=float, default=None, help="grid end (default 1)")
    common.add_argument("--steps", type=_positive_int("steps"), default=None,
                        help="grid points (default 500)")
    common.add_argument("--format", choices=["csv", "json", "svg"], default="csv",
                        help="export format (default csv)")
    common.add_argument("--out", default=None, help="write the export here instead of stdout")
    common.add_argument("--oracle", action="store_true",
                        help="recompute sampled Bayes factors by quadrature and "
                             "report the largest log discrepancy")
    common.add_argument("--threshold", type=float, action="append", default=[],
                        metavar="BF", help="also report crossings of this Bayes factor "
                                           "(repeatable)")

    single = argparse.ArgumentParser(add_help=False, parents=[common])
    single.add_argument("--stat", type=float, required=True, help="observed statistic")
    single.add_argument("--n", type=_positive_int("n"), default=None, help="total sample size")
    single.add_argument("--n1", type=_positive_int("n1"), default=None, help="group 1 size")
    single.add_argument("--n2", type=_positive_int("n2"), default=None, help="group 2 size")
    single.add_argument("--label", default="", help="curve label for SVG output")

    pz = sub.add_parser("z", parents=[single], help="BFF for a z statistic")
    pt = sub.add_parser("t", parents=[single], help="BFF for a t statistic")
    pt.add_argument("--df", type=_positive_int("df"), required=True, help="degrees of freedom")
    pc = sub.add_parser("chisq", parents=[single], help="BFF for a chi-squared statistic")
    pc.add_argument("--df", type=_positive_int("df"), required=True, help="degrees of freedom")
    pc.add_argument("--mapping", choices=sorted(_CHISQ_MAPPINGS), required=True,
                    help="how the statistic arose, which fixes the tau2 rule")
    pf = sub.add_parser("f", parents=[single], help="BFF for an F statistic")
    pf.add_argument("--df1", type=_positive_int("df1"), required=True, help="numerator df")
    pf.add_argument("--df2", type=_positive_int("df2"), required=True, help="denominator df")
    pf.add_argument("--mapping", choices=["linear"], default="linear",
                    help="tau2 rule (linear model)")

    pcomb = sub.add_parser("combine", parents=[common],
                           help="multiply BFFs across studies in a study file")
    pcomb.add_argument("--studies", required=True, help="JSON study file")
    pcomb.add_argument("--per-study", action="store_true",
                       help="include per-study curves in the export")
    return parser


def _grid_from_args(args, base: EffectGrid | None = None) -> EffectGrid:
    base = base or EffectGrid()
    return EffectGrid(
        min=args.omega_min if args.omega_min is not None else base.min,
        max=args.omega_max if args.omega_max is not None else base.max,
        steps=args.steps if args.steps is not None else base.steps,
    )


def _design_for_args(args, command: str) -> StudyDesign:
    two_sample = args.n1 is not None or args.n2 is not None
    if two_sample and (args.n1 is None or args.n2 is None):
        raise ValueError("two-sample designs need both --n1 and --n2")
    if two_sample and args.n is not None:
        raise ValueError("give either --n or --n1/--n2, not both")
    if command == "z":
        if two_sample:
            return StudyDesign(Design.TWO_SAMPLE_Z, n1=args.n1, n2=args.n2)
        return StudyDesign(Design.ONE_SAMPLE_Z, n=args.n)
    if command == "t":
        if two_sample:
            return StudyDesign(Design.TWO_SAMPLE_T, n1=args.n1, n2=args.n2)
        return StudyDesign(Design.ONE_SAMPLE_T, n=args.n)
    if command == "chisq":
        if two_sample:
            raise ValueError("chisq designs use --n, not --n1/--n2")
        return StudyDesign(_CHISQ_MAPPINGS[args.mapping], n=args.n, k=args.df)
    if two_sample:
        raise ValueError("f designs use --n, not --n1/--n2")
    return StudyDesign(Design.LINEAR_MODEL_F, n=args.n, k=args.df1)


def _study_from_args(args, command: str) -> Study:
    design = _design_for_args(args, command)
    if command == "z":
        stat = TestStatistic(Family.Z, args.stat)
    elif command == "t":
        stat = TestStatistic(Family.T, args.stat, df1=args.df)
    elif command == "chisq":
        stat = TestStatistic(Family.CHISQ, args.stat, df1=args.df)
    else:
        stat = TestStatistic(Family.F, args.stat, df1=args.df1, df2=args.df2)
    return Study(statistic=stat, design=design, label=args.label or command)


def parse_study_file(text: str) -> tuple[list[Study], EffectGrid | None]:
    """Parse the JSON study-file schema into studies and an optional grid."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise StudyFileError(f"study file is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise StudyFileError("study file must be a JSON object")
    unknown = set(doc) - {"studies", "grid"}
    if unknown:
        raise StudyFileError(f"unknown top-level keys: {sorted(unknown)}")
    records = doc.get("studies")
    if not isinstance(records, list) or not records:
        raise StudyFileError("'studies' must be a nonempty array")

    studies = []
    for i, record in enumerate(records):
        where = f"studies[{i}]"
        if not isinstance(record, dict):
            raise StudyFileError(f"{where} must be an object")
        unknown = set(record) - _STUDY_FIELDS
        if unknown:
            raise StudyFileError(f"{where} has unknown fields: {sorted(unknown)}")
        family_tag = record.get("family")
        if family_tag not in _FAMILY_TAGS:
            raise StudyFileError(
                f"{where}.family must be one of {sorted(_FAMILY_TAGS)}, got {family_tag!r}"
            )
        design_tag = record.get("design")
        if design_tag not in _DESIGN_TAGS:
            raise StudyFileError(
                f"{where}.design must be one of {sorted(_DESIGN_TAGS)}, got {design_tag!r}"
            )
        value = record.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise StudyFileError(f"{where}.value must be a number")
        label = record.get("label", "")
        if not isinstance(label, str):
            raise StudyFileError(f"{where}.label must be a string")

        def int_field(name: str) -> int | None:
            raw = record.get(name)
            if raw is None:
                return None
            if not isinstance(raw, int) or isinstance(raw, bool):
                raise StudyFileError(f"{where}.{name} must be an integer")
            return raw

        try:
            stat = TestStatistic(
                _FAMILY_TAGS[family_tag],
                float(value),
                df1=int_field("df1"),
                df2=int_field("df2"),
            )
            design = StudyDesign(
                _DESIGN_TAGS[design_tag],
                n=int_field("n"),
                n1=int_field("n1"),
                n2=int_field("n2"),
                k=int_field("k"),
            )
            studies.append(Study(statistic=stat, design=design, label=label))
        except ValueError as e:
            raise StudyFileError(f"{where}: {e}") from e

    grid = None
    if "grid" in doc:
        g = doc["grid"]
        if not isinstance(g, dict) or set(g) - {"min", "max", "steps"}:
            raise StudyFileError("grid must be an object with keys min, max, steps")
        try:
            grid = EffectGrid(
                min=float(g.get("min", 0.0)),
                max=float(g.get("max", 1.0)),
                steps=int(g.get("steps", 500)),
            )
        except (TypeError, ValueError) as e:
            raise StudyFileError(f"grid: {e}") from e
    return studies, grid


def _odds_text(bf: float) -> str:
    if bf >= 1.0:
        return f"{bf:.2f}:1 for H1"
    return f"1:{1.0 / bf:.2f} against H1"


def _print_summary(export: CurveExport) -> None:
    s = export.summary
    print(f"max BF {s.max_bf10:.2f} at omega {s.argmax_omega:.3f}")
    print(f"odds at maximum: {_odds_text(s.max_bf10)}")
    for w in s.crossings_bf1:
        print(f"BF=1 crossing at omega {w:.3f}")
    for block in s.thresholds:
        if block.crossings:
            for w in block.crossings:
                print(f"BF={block.threshold_bf:g} crossing at omega {w:.3f}")
        else:
            print(f"BF={block.threshold_bf:g}: no crossing on the grid")


def _oracle_report(studies: list[Study], curve: BFFCurve) -> None:
    stride = max(1, (len(curve.omegas) - 1) // 20)
    sampled = [
        p
        for p in zip(curve.omegas[::stride].tolist(), curve.log_bfs[::stride].tolist())
        if p[0] > 0.0
    ]
    worst = 0.0
    for omega, log_bf_closed in sampled:
        log_bf_quad = 0.0
        for study in studies:
            tau2 = tau2_for(study.design, EffectSize(omega))
            log_bf_quad += log_bf_quadrature(study.statistic, tau2)
        worst = max(worst, abs(log_bf_quad - log_bf_closed))
    print(f"oracle max |dlog BF| {worst:.3e} over {len(sampled)} grid points")


def _deliver(export: CurveExport, args) -> None:
    _print_summary(export)
    if args.out:
        emit(export, args.format, args.out)
        print(f"wrote {args.format} to {args.out}")
    else:
        print()
        sys.stdout.write(render(export, args.format))


def _thresholds_from_args(args) -> tuple[float, ...]:
    for t in args.threshold:
        if not (math.isfinite(t) and t > 0):
            raise ValueError(f"--threshold must be a finite positive Bayes factor, got {t}")
    return tuple(args.threshold)


def _run_single(args) -> int:
    study = _study_from_args(args, args.command)
    grid = _grid_from_args(args)
    curve = evaluate_bff(study, grid)
    export = build_export(curve, thresholds=_thresholds_from_args(args))
    _deliver(export, args)
    if args.oracle:
        _oracle_report([study], curve)
    return 0


def _run_combine(args) -> int:
    try:
        with open(args.studies, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise StudyFileError(f"cannot read study file: {e}") from e
    studies, file_grid = parse_study_file(text)
    designs = {s.design.design for s in studies}
    if len(designs) > 1:
        print(
            "warning: combining across different designs assumes a comparable "
            "effect size omega in every study",
            file=sys.stderr,
        )
    grid = _grid_from_args(args, file_grid)
    curve = combine(studies, grid)
    per_study = (
        tuple(evaluate_bff(s, grid) for s in studies) if args.per_study else ()
    )
    export = build_export(
        curve, thresholds=_thresholds_from_args(args), per_study=per_study
    )
    _deliver(export, args)
    if args.oracle:
        _oracle_report(studies, curve)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "combine":
            return _run_combine(args)
        return _run_single(args)
    except StudyFileError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (IntegrationError, SeriesError, ArithmeticError) as e:
        print(f"compute error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
