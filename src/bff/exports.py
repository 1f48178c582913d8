"""Serialization of BFF curves: CSV, JSON, and dependency-free SVG plots.

All three formats print floats with 17 significant digits, enough for exact
float64 round trips, and contain nothing nondeterministic: rendering the same
curve twice yields byte-identical documents, and a parsed CSV re-renders to
the exact bytes it came from. A linear-space bf10 above the largest double
is inf: CSV writes `inf`, JSON writes `null`; log_bf10 is always finite.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .bayes_factors import linear_bf
from .curves import BFFCurve, find_crossings
from .effect_sizes import ZONE_BOUNDS, ZONES

LN10 = math.log(10.0)
_ZONE_NAMES = tuple(z.value for z in ZONES)

# zone shading for the SVG plots, from very small through large
ZONE_BANDS = (
    (0.0, 0.1, "#f4cccc"),
    (0.1, 0.35, "#fce5cd"),
    (0.35, 0.65, "#cfe2f3"),
    (0.65, math.inf, "#d9ead3"),
)
MAIN_COLOR = "#1c4587"
SERIES_COLORS = ("#cc0000", "#38761d", "#674ea7", "#b45f06", "#134f5c")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _json_num(x: float) -> str:
    """A JSON number, or null for a saturated (infinite) bf10."""
    return _fmt(x) if math.isfinite(x) else "null"


@dataclass(frozen=True, slots=True)
class ExportRow:
    omega: float
    bf10: float
    log_bf10: float
    zone: str


@dataclass(frozen=True)
class ThresholdCrossings:
    threshold_bf: float
    crossings: tuple[float, ...]


@dataclass(frozen=True)
class ExportSummary:
    max_bf10: float
    max_log_bf10: float
    argmax_omega: float
    crossings_bf1: tuple[float, ...]
    thresholds: tuple[ThresholdCrossings, ...] = ()


@dataclass(frozen=True)
class PerStudySeries:
    label: str
    points: tuple[tuple[float, float], ...]  # (omega, log_bf10)


@dataclass(frozen=True)
class CurveExport:
    rows: tuple[ExportRow, ...]
    summary: ExportSummary
    per_study: tuple[PerStudySeries, ...] = ()
    label: str = ""


def build_export(
    curve: BFFCurve,
    thresholds: tuple[float, ...] = (),
    per_study: tuple[BFFCurve, ...] = (),
) -> CurveExport:
    """Assemble the serializable view of a curve.

    thresholds are Bayes factors (linear space) whose crossings get reported
    alongside the BF=1 crossings the curve already carries.
    """
    log_bfs = curve.log_bfs.tolist()
    bands = np.searchsorted(ZONE_BOUNDS, curve.omegas, side="right").tolist()
    zones = [_ZONE_NAMES[i] for i in bands]
    rows = tuple(
        map(ExportRow, curve.omegas.tolist(), map(linear_bf, log_bfs), log_bfs, zones)
    )
    threshold_blocks = tuple(
        ThresholdCrossings(t, tuple(find_crossings(curve, math.log(t))))
        for t in thresholds
    )
    summary = ExportSummary(
        max_bf10=linear_bf(curve.max_log_bf),
        max_log_bf10=curve.max_log_bf,
        argmax_omega=curve.argmax_omega,
        crossings_bf1=curve.crossings,
        thresholds=threshold_blocks,
    )
    series = tuple(
        PerStudySeries(c.label or f"study {i + 1}", c.points)
        for i, c in enumerate(per_study)
    )
    return CurveExport(rows=rows, summary=summary, per_study=series, label=curve.label)


def render_csv(export: CurveExport) -> str:
    """CSV document: data rows, then the summary as '#' comment lines."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["omega", "bf10", "log_bf10", "zone"])
    for row in export.rows:
        writer.writerow([_fmt(row.omega), _fmt(row.bf10), _fmt(row.log_bf10), row.zone])
    s = export.summary
    lines = [
        f"# max_bf10 {_fmt(s.max_bf10)}",
        f"# max_log_bf10 {_fmt(s.max_log_bf10)}",
        f"# argmax_omega {_fmt(s.argmax_omega)}",
        " ".join(["# crossings_bf1"] + [_fmt(w) for w in s.crossings_bf1]),
    ]
    for block in s.thresholds:
        lines.append(
            " ".join(
                [f"# threshold_bf {_fmt(block.threshold_bf)} crossings"]
                + [_fmt(w) for w in block.crossings]
            )
        )
    buf.write("\n".join(lines) + "\n")
    return buf.getvalue()


def parse_csv(text: str) -> CurveExport:
    """Inverse of render_csv; parse(render(x)) re-renders byte-identically."""
    data_lines: list[str] = []
    comment_lines: list[str] = []
    for line in text.splitlines():
        if not line:
            continue
        (comment_lines if line.startswith("#") else data_lines).append(line)
    reader = csv.reader(data_lines)
    header = next(reader, None)
    if header != ["omega", "bf10", "log_bf10", "zone"]:
        raise ValueError(f"unexpected CSV header: {header}")
    rows = tuple(
        ExportRow(float(r[0]), float(r[1]), float(r[2]), r[3]) for r in reader
    )
    fields: dict[str, float] = {}
    crossings: tuple[float, ...] = ()
    thresholds: list[ThresholdCrossings] = []
    for line in comment_lines:
        tokens = line[1:].split()
        if not tokens:
            continue
        key = tokens[0]
        if key in ("max_bf10", "max_log_bf10", "argmax_omega"):
            fields[key] = float(tokens[1])
        elif key == "crossings_bf1":
            crossings = tuple(float(t) for t in tokens[1:])
        elif key == "threshold_bf":
            if len(tokens) < 3 or tokens[2] != "crossings":
                raise ValueError(f"malformed threshold comment: {line}")
            thresholds.append(
                ThresholdCrossings(float(tokens[1]), tuple(float(t) for t in tokens[3:]))
            )
        else:
            raise ValueError(f"unknown summary comment: {line}")
    missing = {"max_bf10", "max_log_bf10", "argmax_omega"} - fields.keys()
    if missing:
        raise ValueError(f"summary comments missing {sorted(missing)}")
    summary = ExportSummary(
        max_bf10=fields["max_bf10"],
        max_log_bf10=fields["max_log_bf10"],
        argmax_omega=fields["argmax_omega"],
        crossings_bf1=crossings,
        thresholds=tuple(thresholds),
    )
    return CurveExport(rows=rows, summary=summary)


def render_json(export: CurveExport) -> str:
    """JSON document mirroring the CSV contents plus any per-study series."""
    out: list[str] = ["{", '  "points": [']
    for i, row in enumerate(export.rows):
        comma = "," if i + 1 < len(export.rows) else ""
        out.append(
            f'    {{"omega": {_fmt(row.omega)}, "bf10": {_json_num(row.bf10)}, '
            f'"log_bf10": {_fmt(row.log_bf10)}, "zone": {json.dumps(row.zone)}}}{comma}'
        )
    out.append("  ],")
    s = export.summary
    out.append('  "summary": {')
    out.append(f'    "max_bf10": {_json_num(s.max_bf10)},')
    out.append(f'    "max_log_bf10": {_fmt(s.max_log_bf10)},')
    out.append(f'    "argmax_omega": {_fmt(s.argmax_omega)},')
    crossings = ", ".join(_fmt(w) for w in s.crossings_bf1)
    comma = "," if s.thresholds else ""
    out.append(f'    "crossings_bf1": [{crossings}]{comma}')
    if s.thresholds:
        out.append('    "thresholds": [')
        for i, block in enumerate(s.thresholds):
            comma = "," if i + 1 < len(s.thresholds) else ""
            xs = ", ".join(_fmt(w) for w in block.crossings)
            out.append(
                f'      {{"threshold_bf": {_fmt(block.threshold_bf)}, '
                f'"crossings": [{xs}]}}{comma}'
            )
        out.append("    ]")
    out.append("  }" + ("," if export.per_study else ""))
    if export.per_study:
        out.append('  "per_study": [')
        for i, series in enumerate(export.per_study):
            comma = "," if i + 1 < len(export.per_study) else ""
            pts = ", ".join(
                f"[{_fmt(w)}, {_fmt(lb)}]" for w, lb in series.points
            )
            out.append(
                f'    {{"label": {json.dumps(series.label)}, "points": [{pts}]}}{comma}'
            )
        out.append("  ]")
    out.append("}")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(export: CurveExport) -> str:
    """800x600 SVG: zone bands, log-scale BF axis, BF=1 line, curve(s)."""
    width, height = 800, 600
    ml, mr, mt, mb = 70, 24, 24, 56
    pw, ph = width - ml - mr, height - mt - mb

    w_min = export.rows[0].omega
    w_max = export.rows[-1].omega
    logs10 = [r.log_bf10 / LN10 for r in export.rows]
    for series in export.per_study:
        logs10.extend(lb / LN10 for _, lb in series.points)
    y_lo = math.floor(min(0.0, min(logs10)))
    y_hi = math.ceil(max(0.0, max(logs10)))
    if y_hi == y_lo:
        y_hi += 1

    def x(w: float) -> float:
        return ml + (w - w_min) / (w_max - w_min) * pw

    def y(log10_bf: float) -> float:
        return mt + (y_hi - log10_bf) / (y_hi - y_lo) * ph

    def polyline(points: list[tuple[float, float]], color: str, sw: float) -> str:
        coords = " ".join(f"{px:.2f},{py:.2f}" for px, py in points)
        return (
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{sw}" />'
        )

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff" />',
    ]

    for lo, hi, color in ZONE_BANDS:
        lo_c, hi_c = max(lo, w_min), min(hi, w_max)
        if lo_c >= hi_c:
            continue
        out.append(
            f'<rect x="{x(lo_c):.2f}" y="{mt}" width="{x(hi_c) - x(lo_c):.2f}" '
            f'height="{ph}" fill="{color}" />'
        )

    decade_step = max(1, math.ceil((y_hi - y_lo) / 10))
    for d in range(y_lo, y_hi + 1, decade_step):
        py = y(d)
        out.append(
            f'<line x1="{ml}" y1="{py:.2f}" x2="{ml + pw}" y2="{py:.2f}" '
            f'stroke="#bbbbbb" stroke-width="0.5" />'
        )
        label = f"{10.0 ** d:g}"
        out.append(
            f'<text x="{ml - 8}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="13">{label}</text>'
        )

    n_ticks = 6
    for i in range(n_ticks):
        w = w_min + (w_max - w_min) * i / (n_ticks - 1)
        px = x(w)
        out.append(
            f'<line x1="{px:.2f}" y1="{mt + ph}" x2="{px:.2f}" y2="{mt + ph + 5}" '
            f'stroke="#333333" stroke-width="1" />'
        )
        out.append(
            f'<text x="{px:.2f}" y="{mt + ph + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{w:.2f}</text>'
        )

    out.append(
        f'<line x1="{ml}" y1="{y(0.0):.2f}" x2="{ml + pw}" y2="{y(0.0):.2f}" '
        f'stroke="#444444" stroke-width="1.5" stroke-dasharray="6 4" />'
    )

    for i, series in enumerate(export.per_study):
        color = SERIES_COLORS[i % len(SERIES_COLORS)]
        pts = [(x(w), y(lb / LN10)) for w, lb in series.points]
        out.append(polyline(pts, color, 1.5))

    main_pts = [(x(r.omega), y(r.log_bf10 / LN10)) for r in export.rows]
    out.append(polyline(main_pts, MAIN_COLOR, 2.5))

    s = export.summary
    px, py = x(s.argmax_omega), y(s.max_log_bf10 / LN10)
    out.append(
        f'<line x1="{px:.2f}" y1="{mt + ph}" x2="{px:.2f}" y2="{py:.2f}" '
        f'stroke="#222222" stroke-width="1" stroke-dasharray="2 3" />'
    )
    out.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3.5" fill="{MAIN_COLOR}" />')
    note = f"max BF {s.max_bf10:.2f} at omega {s.argmax_omega:.3f}"
    out.append(
        f'<text x="{px + 8:.2f}" y="{py - 8:.2f}" font-family="sans-serif" '
        f'font-size="13">{_escape(note)}</text>'
    )

    legend_entries = [(MAIN_COLOR, export.label or "combined")] if export.per_study else []
    legend_entries += [
        (SERIES_COLORS[i % len(SERIES_COLORS)], series.label)
        for i, series in enumerate(export.per_study)
    ]
    for i, (color, label) in enumerate(legend_entries):
        ly = mt + 16 + 18 * i
        out.append(
            f'<line x1="{ml + pw - 150}" y1="{ly}" x2="{ml + pw - 120}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2.5" />'
        )
        out.append(
            f'<text x="{ml + pw - 112}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="13">{_escape(label)}</text>'
        )

    out.append(
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#333333" stroke-width="1" />'
    )
    out.append(
        f'<text x="{ml + pw / 2:.2f}" y="{height - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">standardized effect size (omega)</text>'
    )
    out.append(
        f'<text x="20" y="{mt + ph / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 20 {mt + ph / 2:.2f})">Bayes factor BF10 (log scale)</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def emit(export: CurveExport, format: str, path: str) -> str:
    """Render the export in the given format and write it to path."""
    text = render(export, format)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return text


def render(export: CurveExport, format: str) -> str:
    if format == "csv":
        return render_csv(export)
    if format == "json":
        return render_json(export)
    if format == "svg":
        return render_svg(export)
    raise ValueError(f"unknown export format: {format}")
