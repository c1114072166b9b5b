"""Static SVG line charts for the emitted CSVs.

Hand-rolled SVG so output bytes are fully deterministic: a median line
per metric with a min/max band across trials for learning curves, and a
per-player action breakdown for the actions schema.
"""

from __future__ import annotations

import csv
import statistics
from collections import defaultdict

from .experiment import ACTIONS_HEADER, LEARNING_CURVE_HEADER


class ChartError(ValueError):
    """CSV is malformed or has no plottable rows. A CSV that cannot be
    opened raises the OSError itself, an I/O failure."""


PANEL_W = 760
PANEL_H = 220
MARGIN_L = 70
MARGIN_R = 20
MARGIN_T = 34
MARGIN_B = 36
COLORS = ["#2b6cb0", "#c53030", "#2f855a", "#b7791f", "#6b46c1", "#4a5568"]
BAND_FILL = "#2b6cb0"
# The largest magnitude drawn: sums and spans of values this size stay
# finite, and so does every coordinate.
PLOT_LIMIT = 1e300


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _scale(values: list[float], lo_px: float, hi_px: float):
    lo, hi = min(values), max(values)
    if hi == lo:
        hi = lo + 1.0
    span = hi - lo or 1.0  # when 1.0 is below lo's precision
    return lambda v: lo_px + (v - lo) / span * (hi_px - lo_px), lo, hi


def _panel(
    title: str,
    xs: list[int],
    series: list[tuple[str, str, list[float]]],
    band: tuple[list[float], list[float]] | None,
    y_offset: int,
) -> str:
    """One chart panel; series entries are (label, color, values)."""
    all_y = [v for _, _, values in series for v in values]
    if band is not None:
        all_y += band[0] + band[1]
    x_map, _, _ = _scale([float(x) for x in xs], MARGIN_L, PANEL_W - MARGIN_R)
    top = y_offset + MARGIN_T
    bottom = y_offset + PANEL_H - MARGIN_B
    y_map, y_lo, y_hi = _scale(all_y, bottom, top)

    parts = [
        f'<text x="{MARGIN_L}" y="{y_offset + 20}" font-family="monospace" '
        f'font-size="13" font-weight="bold">{title}</text>',
        f'<line x1="{MARGIN_L}" y1="{bottom}" x2="{PANEL_W - MARGIN_R}" '
        f'y2="{bottom}" stroke="#444"/>',
        f'<line x1="{MARGIN_L}" y1="{top}" x2="{MARGIN_L}" y2="{bottom}" '
        f'stroke="#444"/>',
        f'<text x="{MARGIN_L - 6}" y="{bottom + 4}" font-family="monospace" '
        f'font-size="10" text-anchor="end">{_fmt(y_lo)}</text>',
        f'<text x="{MARGIN_L - 6}" y="{top + 4}" font-family="monospace" '
        f'font-size="10" text-anchor="end">{_fmt(y_hi)}</text>',
        f'<text x="{MARGIN_L}" y="{bottom + 16}" font-family="monospace" '
        f'font-size="10">{xs[0]}</text>',
        f'<text x="{PANEL_W - MARGIN_R}" y="{bottom + 16}" '
        f'font-family="monospace" font-size="10" text-anchor="end">'
        f"bin_start {xs[-1]}</text>",
    ]
    if 0 in (y_lo, y_hi) or y_lo < 0 < y_hi:
        zero = y_map(0.0)
        parts.append(
            f'<line x1="{MARGIN_L}" y1="{_fmt(zero)}" '
            f'x2="{PANEL_W - MARGIN_R}" y2="{_fmt(zero)}" '
            f'stroke="#bbb" stroke-dasharray="3"/>'
        )
    if band is not None:
        lows, highs = band
        pts = [f"{_fmt(x_map(x))},{_fmt(y_map(v))}" for x, v in zip(xs, highs)]
        pts += [
            f"{_fmt(x_map(x))},{_fmt(y_map(v))}"
            for x, v in zip(reversed(xs), reversed(lows))
        ]
        parts.append(
            f'<polygon points="{" ".join(pts)}" fill="{BAND_FILL}" '
            f'fill-opacity="0.18" stroke="none"/>'
        )
    for label_idx, (label, color, values) in enumerate(series):
        pts = " ".join(
            f"{_fmt(x_map(x))},{_fmt(y_map(v))}" for x, v in zip(xs, values)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        lx = PANEL_W - MARGIN_R - 90
        ly = top + 14 * label_idx
        parts.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 16}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 20}" y="{ly + 4}" font-family="monospace" '
            f'font-size="10">{label}</text>'
        )
    return "\n".join(parts)


def _svg(width: int, height: int, body: str) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n'
        f'<rect width="100%" height="100%" fill="white"/>\n{body}\n</svg>\n'
    )


def _read_rows(path: str) -> tuple[list[str], list[dict]]:
    try:
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.DictReader(f)
            header = reader.fieldnames or []
            rows = list(reader)
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ChartError(f"{path} is not a readable CSV: {exc}")
    if not rows:
        raise ChartError(f"{path} has no data rows")
    return list(header), rows


def _number(row: dict, column: str, parse=float):
    """row[column] parsed, if a chart can draw it: within ±PLOT_LIMIT."""
    value = parse(row[column])
    if not abs(value) <= PLOT_LIMIT:
        raise ValueError(f"{column} is {row[column]!r}")
    return value


def _render_learning_curve(path: str, rows: list[dict]) -> str:
    """Three stacked panels: score average, invasions, successful defers."""
    titles = [
        ("cs_avg", "collective score per step (median, min/max band)"),
        ("invasions", "invasions per bin"),
        ("successful_defers", "successful defer votes per bin"),
    ]
    by_bin: dict[int, dict[str, list[float]]] = defaultdict(
        lambda: defaultdict(list)
    )
    for n, row in enumerate(rows, start=1):
        try:
            start = _number(row, "bin_start", int)
            for column, _ in titles:
                by_bin[start][column].append(_number(row, column))
        except (TypeError, ValueError) as exc:
            raise ChartError(
                f"{path}: malformed learning-curve data row {n}: {exc}"
            )
    xs = sorted(by_bin)
    panels = []
    for idx, (column, title) in enumerate(titles):
        med = [statistics.median(by_bin[x][column]) for x in xs]
        lo = [min(by_bin[x][column]) for x in xs]
        hi = [max(by_bin[x][column]) for x in xs]
        band = None if lo == hi else (lo, hi)
        panels.append(
            _panel(title, xs, [("median", COLORS[0], med)], band, idx * PANEL_H)
        )
    return _svg(PANEL_W, PANEL_H * len(titles), "\n".join(panels))


def _render_actions(path: str, rows: list[dict]) -> str:
    """One panel per player, six action-count series each (trial 0)."""
    names = ACTIONS_HEADER[3:]
    by_player: dict[int, dict[int, list[int]]] = defaultdict(dict)
    for n, row in enumerate(rows, start=1):
        try:
            if int(row["trial"]) != 0:
                continue
            counts = [_number(row, name, int) for name in names]
            start = _number(row, "bin_start", int)
            by_player[int(row["player"])][start] = counts
        except (TypeError, ValueError) as exc:
            raise ChartError(f"{path}: malformed actions data row {n}: {exc}")
    if not by_player:
        raise ChartError(f"{path} has no trial-0 rows to plot")
    panels = []
    for idx, player in enumerate(sorted(by_player)):
        bins = by_player[player]
        xs = sorted(bins)
        series = [
            (name, COLORS[a], [float(bins[x][a]) for x in xs])
            for a, name in enumerate(names)
        ]
        panels.append(
            _panel(f"player {player} actions per bin", xs, series, None,
                   idx * PANEL_H)
        )
    return _svg(PANEL_W, PANEL_H * len(panels), "\n".join(panels))


def render_csv(path: str) -> str:
    """Dispatch on the CSV header; raises ChartError for unknown schemas."""
    header, rows = _read_rows(path)
    if header == LEARNING_CURVE_HEADER:
        return _render_learning_curve(path, rows)
    if header == ACTIONS_HEADER:
        return _render_actions(path, rows)
    raise ChartError(f"no chart for CSV {path} with header {header}")
