"""Serialization of BFF curves: CSV, JSON, and dependency-free SVG plots.

All three formats print floats with 17 significant digits, enough for exact
float64 round trips, and contain nothing nondeterministic: rendering the same
curve twice yields byte-identical documents, and a parsed CSV re-renders to
the exact bytes it came from. A linear-space bf10 above the largest double
is inf: CSV writes `inf`, JSON writes `null`; log_bf10 is always finite.
Renders fill whole columns into one % template per part (%.17g and %.2f print a
float as f"{x:.17g}" and f"{x:.2f}" do), and the SVG maps coordinates as arrays.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .bayes_factors import linear_bf
from .curves import BFFCurve, Sweep, threshold_crossings
from .effect_sizes import ZONE_BOUNDS, ZONES, zone_index

LN10 = math.log(10.0)
_ZONE_NAMES = tuple(z.value for z in ZONES)

# zone shading for the SVG plots, from very small through large
ZONE_BANDS = tuple(
    zip(
        (0.0, *ZONE_BOUNDS),
        (*ZONE_BOUNDS, math.inf),
        ("#f4cccc", "#fce5cd", "#cfe2f3", "#d9ead3"),
    )
)
MAIN_COLOR = "#1c4587"
SERIES_COLORS = ("#cc0000", "#38761d", "#674ea7", "#b45f06", "#134f5c")


_fmt = "{:.17g}".format  # a float with 17 significant digits


def _rows(row: str, *columns: list) -> str:
    """row once per entry of the columns, all filled by one % call: no Python work per row."""
    cells = [None] * (len(columns) * len(columns[0]))
    for i, column in enumerate(columns):
        cells[i :: len(columns)] = column
    return (row * len(columns[0])) % tuple(cells)


@dataclass(frozen=True, slots=True)
class ExportRow:
    omega: float
    bf10: float
    log_bf10: float
    zone: str


@dataclass(frozen=True, eq=False)
class ExportRows(Sequence):
    """Read-only rows over omega and ln BF10 columns, copying neither.

    bf10 and zone are derived: linear_bf(log_bf10) and omega's ZONE_BOUNDS band.
    """

    omegas: np.ndarray
    log_bf10s: np.ndarray

    def __len__(self) -> int:
        return len(self.omegas)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ExportRows(self.omegas[i], self.log_bf10s[i])
        i = range(len(self))[i]  # IndexError past either end
        return next(iter(self[i : i + 1]))

    def __iter__(self):
        return map(ExportRow, *self.columns())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExportRows)
            and np.array_equal(self.omegas, other.omegas)
            and np.array_equal(self.log_bf10s, other.log_bf10s)
        )

    def columns(self) -> tuple[list[float], list[float], list[float], list[str]]:
        """The omega, bf10, log_bf10 and zone columns as Python lists."""
        omegas, log_bf10s = self.omegas.tolist(), self.log_bf10s.tolist()
        zones = [_ZONE_NAMES[b] for b in zone_index(self.omegas).tolist()]
        return omegas, list(map(linear_bf, log_bf10s)), log_bf10s, zones


@dataclass(frozen=True)
class ThresholdCrossings:
    threshold_bf: float
    crossings: tuple[float, ...]


@dataclass(frozen=True)
class ExportSummary:
    max_log_bf10: float
    argmax_omega: float
    crossings_bf1: tuple[float, ...]
    thresholds: tuple[ThresholdCrossings, ...] = ()

    @property
    def max_bf10(self) -> float:
        return linear_bf(self.max_log_bf10)


@dataclass(frozen=True)
class PerStudySeries:
    label: str
    points: ExportRows


@dataclass(frozen=True)
class CurveExport:
    rows: ExportRows
    summary: ExportSummary
    per_study: tuple[PerStudySeries, ...] = ()
    label: str = ""


def build_export(
    curve: BFFCurve,
    thresholds: tuple[float, ...] = (),
    per_study: tuple[BFFCurve | Sweep, ...] = (),
) -> CurveExport:
    """Assemble the serializable view of a curve.

    thresholds are Bayes factors (linear space) whose crossings get reported
    alongside the BF=1 crossings the curve already carries. Each per-study
    series reads only the omegas, log_bfs and label of a curve or a sweep.
    """
    crossings = threshold_crossings(curve, [math.log(t) for t in thresholds])
    threshold_blocks = tuple(map(ThresholdCrossings, thresholds, crossings))
    summary = ExportSummary(
        max_log_bf10=curve.max_log_bf,
        argmax_omega=curve.argmax_omega,
        crossings_bf1=curve.crossings,
        thresholds=threshold_blocks,
    )
    series = tuple(
        PerStudySeries(c.label or f"study {i + 1}", ExportRows(c.omegas, c.log_bfs))
        for i, c in enumerate(per_study)
    )
    rows = ExportRows(curve.omegas, curve.log_bfs)
    return CurveExport(rows=rows, summary=summary, per_study=series, label=curve.label)


def render_csv(export: CurveExport) -> str:
    """CSV document: data rows, then the summary as '#' comment lines."""
    # numbers and the fixed zone names never need CSV quoting
    rows = _rows("%.17g,%.17g,%.17g,%s\n", *export.rows.columns())
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
    return "".join(["omega,bf10,log_bf10,zone\n", rows, "\n".join(lines), "\n"])


def parse_csv(text: str) -> CurveExport:
    """Inverse of render_csv; parse(render(x)) re-renders byte-identically.

    A data row without exactly 4 fields, a row whose bf10 or zone disagrees with omega and
    log_bf10, a log_bf10 or max_log_bf10 that is not finite, fewer than 2 data rows or a last
    omega not above the first (a rendered curve spans an omega range), or a max_bf10 that
    disagrees with max_log_bf10, is a ValueError.
    """
    lines = [(n, line) for n, line in enumerate(text.splitlines(), 1) if line]
    data = [(n, line) for n, line in lines if not line.startswith("#")]
    comment_lines = [(n, line) for n, line in lines if line.startswith("#")]
    reader = csv.reader(line for _, line in data)
    header = next(reader, None)
    if header != ["omega", "bf10", "log_bf10", "zone"]:
        raise ValueError(f"unexpected CSV header: {header}")
    records = list(reader)
    for (n, line), r in zip(data[1:], records):
        if len(r) != 4:
            raise ValueError(f"CSV line {n} needs 4 fields, has {len(r)}: {line}")
    omegas = np.array([float(r[0]) for r in records])
    log_bf10s = np.array([float(r[2]) for r in records])
    omegas.flags.writeable = log_bf10s.flags.writeable = False
    rows = ExportRows(omegas, log_bf10s)
    for (n, line), r, row in zip(data[1:], records, rows):
        if not math.isfinite(row.log_bf10):
            raise ValueError(f"CSV line {n} has a log_bf10 that is not finite: {line}")
        if float(r[1]) != row.bf10 or r[3] != row.zone:
            raise ValueError(f"CSV line {n} needs bf10 {_fmt(row.bf10)}, zone {row.zone!r}: {line}")
    if len(rows) < 2 or not omegas[-1] > omegas[0]:
        span = f" from omega {_fmt(omegas[0])} to {_fmt(omegas[-1])}" if len(rows) else ""
        raise ValueError(f"CSV needs 2 or more data rows spanning omega, has {len(rows)}{span}")
    fields: dict[str, float] = {}
    crossings: tuple[float, ...] = ()
    thresholds: list[ThresholdCrossings] = []
    for n, line in comment_lines:
        tokens = line[1:].split()
        if not tokens:
            continue
        key = tokens[0]
        if key in ("max_bf10", "max_log_bf10", "argmax_omega"):
            fields[key] = float(tokens[1])
            if key == "max_log_bf10" and not math.isfinite(fields[key]):
                raise ValueError(f"CSV line {n} has a max_log_bf10 that is not finite: {line}")
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
        max_log_bf10=fields["max_log_bf10"],
        argmax_omega=fields["argmax_omega"],
        crossings_bf1=crossings,
        thresholds=tuple(thresholds),
    )
    if fields["max_bf10"] != summary.max_bf10:
        raise ValueError(f"# max_bf10 {_fmt(fields['max_bf10'])} disagrees with max_log_bf10")
    return CurveExport(rows=rows, summary=summary)


def render_json(export: CurveExport) -> str:
    """JSON document mirroring the CSV contents plus any per-study series."""
    omegas, bf10s, log_bf10s, zones = export.rows.columns()
    # the fixed ASCII zone names need no JSON escaping
    row = '    {"omega": %.17g, "bf10": %.17g, "log_bf10": %.17g, "zone": "%s"},\n'
    rows = _rows(row, omegas, bf10s, log_bf10s, zones)[:-2]
    if not math.isfinite(sum(bf10s)):  # JSON has no inf or nan: such a bf10 is null
        rows = rows.replace('"bf10": inf', '"bf10": null').replace('"bf10": nan', '"bf10": null')
    out: list[str] = ["{", '  "points": [', *([rows] if rows else []), "  ],"]
    s = export.summary
    out.append('  "summary": {')
    out.append(f'    "max_bf10": {_fmt(s.max_bf10) if s.max_bf10 < math.inf else "null"},')
    out.append(f'    "max_log_bf10": {_fmt(s.max_log_bf10)},')
    out.append(f'    "argmax_omega": {_fmt(s.argmax_omega)},')
    crossings = ", ".join(_fmt(w) for w in s.crossings_bf1)
    comma = "," if s.thresholds else ""
    out.append(f'    "crossings_bf1": [{crossings}]{comma}')
    if s.thresholds:
        blocks = (
            f'      {{"threshold_bf": {_fmt(b.threshold_bf)}, '
            f'"crossings": [{", ".join(map(_fmt, b.crossings))}]}}'
            for b in s.thresholds
        )
        out += ['    "thresholds": [', ",\n".join(blocks), "    ]"]
    out.append("  }" + ("," if export.per_study else ""))
    if export.per_study:
        series = (
            f'    {{"label": {json.dumps(p.label)}, "points": ['
            + _rows("[%.17g, %.17g], ", p.points.omegas.tolist(), p.points.log_bf10s.tolist())[:-2]
            + "]}"
            for p in export.per_study
        )
        out += ['  "per_study": [', ",\n".join(series), "  ]"]
    out.append("}")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(export: CurveExport) -> str:
    """800x600 SVG: zone bands, log-scale BF axis, BF=1 line, curve(s)."""
    width, height = 800, 600
    ml, mr, mt, mb = 70, 24, 24, 56
    pw, ph = width - ml - mr, height - mt - mb

    # each series' omegas and log10 BF10 columns; x and y map arrays as they map floats
    main = (export.rows.omegas, export.rows.log_bf10s / LN10)
    studies = [(s.points.omegas, s.points.log_bf10s / LN10) for s in export.per_study]
    w_min, w_max = float(main[0][0]), float(main[0][-1])
    logs10 = np.concatenate([main[1], *(logs for _, logs in studies)]).tolist()
    y_lo = math.floor(min(0.0, min(logs10)))
    y_hi = math.ceil(max(0.0, max(logs10)))
    if y_hi == y_lo:
        y_hi += 1

    def x(w):
        return ml + (w - w_min) / (w_max - w_min) * pw

    def y(log10_bf):
        return mt + (y_hi - log10_bf) / (y_hi - y_lo) * ph

    def polyline(ws: np.ndarray, logs: np.ndarray, color: str, sw: float) -> str:
        coords = _rows("%.2f,%.2f ", x(ws).tolist(), y(logs).tolist())[:-1]
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

    for i, (ws, logs) in enumerate(studies):
        out.append(polyline(ws, logs, SERIES_COLORS[i % len(SERIES_COLORS)], 1.5))

    out.append(polyline(*main, MAIN_COLOR, 2.5))

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
