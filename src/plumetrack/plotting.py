"""Self-contained SVG plots of run logs.

Two figure kinds mirror the recorded time series: an x-y trajectory of the
head point (with the observer-estimate path, start/end markers, and
optionally the true advected source path) and a concentration time series
(four sensors, their mean, and a horizontal reference at c0).  The log's
columns are lists of floats, and the figures take any sequences of floats
(the source path, of (x, y) pairs), so plotting imports no numpy.  Output
is hand-built SVG with fixed formatting: identical logs, identical files.
"""

from __future__ import annotations

import csv
import math
import sys
from pathlib import Path

from .simulator import CSV_COLUMNS

WIDTH, HEIGHT = 800, 500
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 65, 20, 30, 45

SENSOR_COLORS = ("#1f77b4", "#2ca02c", "#9467bd", "#8c564b")
MEAN_COLOR = "#000000"
REFERENCE_COLOR = "#d62728"
TRAJ_COLOR = "#1f77b4"
ESTIMATE_COLOR = "#ff7f0e"
SOURCE_COLOR = "#7f7f7f"


class PlotDataError(ValueError):
    """Plot input is missing, malformed, empty or not plottable."""


def read_log(path) -> dict[str, list]:
    """Parse a run-log CSV into columns, each a list of finite floats
    (ctrue NaN where empty, the one gap a run writes; status strings)."""
    p = Path(path)
    try:
        with open(p, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise PlotDataError(f"{p}: empty file") from None
            if tuple(header) != CSV_COLUMNS:
                raise PlotDataError(f"{p}: unexpected header {header!r}")
            rows = list(reader)
    except OSError as exc:
        raise PlotDataError(f"{p}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise PlotDataError(f"{p}: not UTF-8 text") from None
    except csv.Error as exc:
        raise PlotDataError(f"{p}: {exc}") from None
    if not rows:
        raise PlotDataError(f"{p}: no data rows")
    cols: dict[str, list] = {name: [] for name in CSV_COLUMNS}
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(CSV_COLUMNS):
            raise PlotDataError(f"{p}:{lineno}: expected "
                                f"{len(CSV_COLUMNS)} fields, got {len(row)}")
        for name, cell in zip(CSV_COLUMNS, row):
            if name == "status":
                cols[name].append(cell)
            elif name == "ctrue" and not cell:
                cols[name].append(math.nan)
            else:
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise PlotDataError(f"{p}:{lineno}: {cell!r} in column "
                                        f"'{name}' is not a finite number")
                cols[name].append(value)
    return cols


def _fmt(v: float) -> str:
    return "%.2f" % v


def _bounds(*columns) -> tuple[float, float]:
    """Least and greatest value as floats, both NaN if one is (builtin
    ``min`` and ``max`` may skip it), so that ``_scale`` refuses a NaN."""
    values = [v for column in columns for v in column]
    if any(v != v for v in values):
        return math.nan, math.nan
    return float(min(values)), float(max(values))


def _scale(lo: float, hi: float, pix_lo: float, pix_hi: float):
    span = hi - lo
    if not math.isfinite(span):
        raise PlotDataError(f"plotted range [{lo:g}, {hi:g}] overflows")
    k = (pix_hi - pix_lo) / span if span > 0 else math.inf
    if not math.isfinite(k):         # an empty or subnormal span: one unit
        lo -= 0.5
        k = pix_hi - pix_lo
    return lambda v: pix_lo + (v - lo) * k


def _ticks(lo: float, hi: float, n: int = 5):
    """At most n + 1 round values in [lo, hi], strictly increasing."""
    raw = (hi - lo) / n
    if not raw >= sys.float_info.min:
        return [lo]
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    first = math.ceil(lo / step) * step
    count = int((hi - first) / step + 1e-9) + 1
    # near large values a step can be finer than the spacing of floats
    ticks = sorted({first + i * step for i in range(count)})
    return [0.0 if abs(v) < 1e-12 * step else v for v in ticks]


def _polyline(xs, ys, color: str, width: float = 1.5, dash: str = "") -> str:
    pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys))
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<polyline fill="none" stroke="{color}" '
            f'stroke-width="{width}"{extra} points="{pts}" />')


def _frame(x_lo, x_hi, y_lo, y_hi, sx, sy, x_label: str, y_label: str):
    parts = [f'<rect x="{MARGIN_L}" y="{MARGIN_T}" '
             f'width="{WIDTH - MARGIN_L - MARGIN_R}" '
             f'height="{HEIGHT - MARGIN_T - MARGIN_B}" '
             'fill="none" stroke="#333333" stroke-width="1" />']
    for tx in _ticks(x_lo, x_hi):
        px = sx(tx)
        parts.append(f'<line x1="{_fmt(px)}" y1="{HEIGHT - MARGIN_B}" '
                     f'x2="{_fmt(px)}" y2="{HEIGHT - MARGIN_B + 4}" '
                     'stroke="#333333" stroke-width="1" />')
        parts.append(f'<text x="{_fmt(px)}" y="{HEIGHT - MARGIN_B + 16}" '
                     'font-size="11" text-anchor="middle" '
                     f'fill="#333333">{tx:g}</text>')
    for ty in _ticks(y_lo, y_hi):
        py = sy(ty)
        parts.append(f'<line x1="{MARGIN_L - 4}" y1="{_fmt(py)}" '
                     f'x2="{MARGIN_L}" y2="{_fmt(py)}" '
                     'stroke="#333333" stroke-width="1" />')
        parts.append(f'<text x="{MARGIN_L - 7}" y="{_fmt(py + 4)}" '
                     'font-size="11" text-anchor="end" '
                     f'fill="#333333">{ty:g}</text>')
    parts.append(f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) // 2}" '
                 f'y="{HEIGHT - 8}" font-size="12" text-anchor="middle" '
                 f'fill="#333333">{x_label}</text>')
    parts.append(f'<text x="14" y="{(MARGIN_T + HEIGHT - MARGIN_B) // 2}" '
                 'font-size="12" text-anchor="middle" '
                 f'transform="rotate(-90 14 {(MARGIN_T + HEIGHT - MARGIN_B) // 2})" '
                 f'fill="#333333">{y_label}</text>')
    return parts


def _document(body: list[str]) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff" />')
    return head + "\n" + "\n".join(body) + "\n</svg>\n"


def _legend(entries, x0: int) -> list[str]:
    parts = []
    for i, (label, color) in enumerate(entries):
        y = MARGIN_T + 14 + 16 * i
        parts.append(f'<line x1="{x0}" y1="{y - 4}" x2="{x0 + 18}" '
                     f'y2="{y - 4}" stroke="{color}" stroke-width="2" />')
        parts.append(f'<text x="{x0 + 23}" y="{y}" font-size="11" '
                     f'fill="#333333">{label}</text>')
    return parts


def timeseries_svg(log: dict, c0: float | None) -> str:
    """Concentration time series: c1..c4, their mean, reference at c0."""
    t = log["t"]
    series = [log["c1"], log["c2"], log["c3"], log["c4"], log["chat"]]
    y_lo, y_hi = _bounds(*series, [] if c0 is None else [c0])
    pad = 0.05 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    x_lo, x_hi = _bounds(t)
    x_hi = x_hi if x_hi > x_lo else x_lo + 1.0
    sx = _scale(x_lo, x_hi, MARGIN_L, WIDTH - MARGIN_R)
    sy = _scale(y_lo, y_hi, HEIGHT - MARGIN_B, MARGIN_T)

    body = _frame(x_lo, x_hi, y_lo, y_hi, sx, sy,
                  "time (s)", "concentration (ppb)")
    legend = []
    for i, s in enumerate(series[:4]):
        body.append(_polyline([sx(v) for v in t], [sy(v) for v in s],
                              SENSOR_COLORS[i], 1.2))
        legend.append((f"sensor {i + 1}", SENSOR_COLORS[i]))
    body.append(_polyline([sx(v) for v in t],
                          [sy(v) for v in series[4]], MEAN_COLOR, 1.8))
    legend.append(("mean", MEAN_COLOR))
    if c0 is not None:
        body.append(_polyline([sx(x_lo), sx(x_hi)], [sy(c0), sy(c0)],
                              REFERENCE_COLOR, 1.5, dash="6 4"))
        legend.append((f"reference {c0:g}", REFERENCE_COLOR))
    body.extend(_legend(legend, WIDTH - MARGIN_R - 130))
    return _document(body)


def trajectory_svg(log: dict, source_path=None) -> str:
    """Head-point trajectory with the observer-estimate path and markers."""
    zx, zy = log["zx"], log["zy"]
    hx, hy = log["xhat"], log["yhat"]
    src = list(zip(*source_path)) if source_path is not None else []
    x_lo, x_hi = _bounds(zx, hx, *src[:1])
    y_lo, y_hi = _bounds(zy, hy, *src[1:])
    pad = 0.05 * max(x_hi - x_lo or 1.0, y_hi - y_lo or 1.0)
    x_lo, x_hi = x_lo - pad, x_hi + pad
    y_lo, y_hi = y_lo - pad, y_hi + pad
    # keep x and y scales equal so loops look like loops
    span = max(x_hi - x_lo, (y_hi - y_lo) * (WIDTH - MARGIN_L - MARGIN_R)
               / (HEIGHT - MARGIN_T - MARGIN_B))
    x_mid, y_mid = 0.5 * (x_lo + x_hi), 0.5 * (y_lo + y_hi)
    x_lo, x_hi = x_mid - span / 2, x_mid + span / 2
    aspect = (HEIGHT - MARGIN_T - MARGIN_B) / (WIDTH - MARGIN_L - MARGIN_R)
    y_lo, y_hi = y_mid - span * aspect / 2, y_mid + span * aspect / 2
    sx = _scale(x_lo, x_hi, MARGIN_L, WIDTH - MARGIN_R)
    sy = _scale(y_lo, y_hi, HEIGHT - MARGIN_B, MARGIN_T)

    body = _frame(x_lo, x_hi, y_lo, y_hi, sx, sy, "x (m)", "y (m)")
    legend = []
    if src:
        body.append(_polyline([sx(v) for v in src[0]],
                              [sy(v) for v in src[1]],
                              SOURCE_COLOR, 1.2, dash="2 3"))
        legend.append(("source path", SOURCE_COLOR))
    body.append(_polyline([sx(v) for v in hx], [sy(v) for v in hy],
                          ESTIMATE_COLOR, 1.2, dash="5 3"))
    legend.append(("estimate", ESTIMATE_COLOR))
    body.append(_polyline([sx(v) for v in zx], [sy(v) for v in zy],
                          TRAJ_COLOR, 1.8))
    legend.append(("head point", TRAJ_COLOR))
    body.append(f'<circle cx="{_fmt(sx(zx[0]))}" cy="{_fmt(sy(zy[0]))}" '
                'r="5" fill="#2ca02c" stroke="#000000" stroke-width="1" />')
    body.append(f'<rect x="{_fmt(sx(zx[-1]) - 4)}" y="{_fmt(sy(zy[-1]) - 4)}" '
                'width="8" height="8" fill="#d62728" '
                'stroke="#000000" stroke-width="1" />')
    body.extend(_legend(legend, WIDTH - MARGIN_R - 130))
    return _document(body)
