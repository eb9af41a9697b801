import math
from pathlib import Path

import numpy as np
import pytest

from plumetrack import guidance as G
from plumetrack import simulator as SIM
from plumetrack.field import FlowField, FrozenGaussian
from plumetrack.guidance import GuidanceGains
from plumetrack.plotting import (PlotDataError, _ticks, read_log,
                                 timeseries_svg, trajectory_svg)
from plumetrack.sensing import NoiseModel, SensorRig
from plumetrack.simulator import Scenario
from plumetrack.vessel import VesselParams


@pytest.fixture(scope="module")
def logfile(tmp_path_factory):
    sc = Scenario(
        name="plot", seed=1, duration=3.0, control_period=0.05,
        physics_substep=0.05, sign_convention=G.SIGN_PDE,
        tracked_point="head", flow_noise_sigma=0.0,
        field0=FrozenGaussian(60.0, 18.0, (0.0, 0.0),
                              FlowField.uniform((0.1, 0.0))),
        rig=SensorRig.cross(0.75), noise=NoiseModel(),
        params=VesselParams(), start_pose=(10.8695, 0.5, -math.pi / 2),
        gains=GuidanceGains(c0=50.0, k=1.2, k1=5.0, k2=11.0, v_d=1.5))
    path = tmp_path_factory.mktemp("logs") / "log.csv"
    with open(path, "w") as fh:
        SIM.run(sc).to_csv(fh)
    return path


def test_read_log_roundtrip(logfile):
    log = read_log(logfile)
    assert len(log["t"]) == 61
    assert log["t"][1] == pytest.approx(0.05)
    assert set(log) == set(
        "t x y theta zx zy xhat yhat c1 c2 c3 c4 chat gx gy lap "
        "ux uy nu omega sat status ctrue".split())


def test_read_log_missing_file(tmp_path):
    with pytest.raises(PlotDataError):
        read_log(tmp_path / "nope.csv")


def test_read_log_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(PlotDataError):
        read_log(p)


def test_read_log_oversized_field(tmp_path, logfile):
    # the csv module refuses a field over its 128 KiB limit
    p = tmp_path / "huge.csv"
    lines = logfile.read_text().splitlines()
    p.write_text("\n".join([lines[0], "1" * 200_000]) + "\n")
    with pytest.raises(PlotDataError, match="field larger than field limit"):
        read_log(p)


def test_read_log_ragged_row(tmp_path, logfile):
    p = tmp_path / "ragged.csv"
    lines = logfile.read_text().splitlines()
    p.write_text("\n".join([lines[0], "1,2,3"]) + "\n")
    with pytest.raises(PlotDataError):
        read_log(p)


def with_cell(tmp_path, logfile, column, value) -> Path:
    """The log with ``column`` of its second data row set to ``value``."""
    header, *rows = logfile.read_text().splitlines()
    cells = rows[1].split(",")
    cells[header.split(",").index(column)] = value
    rows[1] = ",".join(cells)
    p = tmp_path / "mutated.csv"
    p.write_text("\n".join([header, *rows]) + "\n")
    return p


@pytest.mark.parametrize("column", ["c1", "ctrue"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_read_log_rejects_non_finite_cell(tmp_path, logfile, column, value):
    p = with_cell(tmp_path, logfile, column, value)
    with pytest.raises(PlotDataError, match=f":3: '{value}' in column "
                       f"'{column}' is not a finite number"):
        read_log(p)


def test_read_log_empty_ctrue_is_nan(tmp_path, logfile):
    log = read_log(with_cell(tmp_path, logfile, "ctrue", ""))
    assert math.isnan(log["ctrue"][1])
    assert np.isfinite(np.delete(log["ctrue"], 1)).all()


def test_ticks_finer_than_float_spacing():
    # a step of 5 cannot advance past 1e17, where floats are 16 apart
    lo, hi = 1e17, 1e17 + 16
    ticks = _ticks(lo, hi)
    assert 1 <= len(ticks) <= 6
    assert all(lo <= v <= hi for v in ticks)
    assert all(a < b for a, b in zip(ticks, ticks[1:]))


def test_timeseries_series_count(logfile):
    svg = timeseries_svg(read_log(logfile), 50.0)
    assert svg.count("<polyline") == 6
    svg_no_ref = timeseries_svg(read_log(logfile), None)
    assert svg_no_ref.count("<polyline") == 5


def test_reference_line_sits_at_c0(logfile):
    # a mean series pinned at exactly c0 renders at the reference line's y
    log = read_log(logfile)
    n = len(log["t"])
    for key in ("c1", "c2", "c3", "c4", "chat"):
        log[key] = np.full(n, 50.0)
    svg = timeseries_svg(log, 50.0)
    polys = [seg.split('points="')[1].split('"')[0]
             for seg in svg.split("<polyline")[1:]]
    mean_ys = {p.split(",")[1] for p in polys[4].split()}
    ref_ys = {p.split(",")[1] for p in polys[5].split()}
    assert len(mean_ys) == 1 and mean_ys == ref_ys


def test_trajectory_markers_and_paths(logfile):
    log = read_log(logfile)
    svg = trajectory_svg(log)
    assert svg.count("<polyline") == 2
    assert "<circle" in svg and "<rect" in svg
    src = np.column_stack([np.linspace(0, 1, 61), np.zeros(61)])
    svg2 = trajectory_svg(log, src)
    assert svg2.count("<polyline") == 3


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_source_point_refused(logfile, value):
    # one point of the source path, in x or in y; builtin min and max
    # would pass over a NaN in mid-path
    log = read_log(logfile)
    for axis in (0, 1):
        src = np.column_stack([np.linspace(0, 1, 61), np.zeros(61)])
        src[30, axis] = value
        with pytest.raises(PlotDataError, match="plotted range"):
            trajectory_svg(log, src)


def test_render_deterministic(logfile):
    log = read_log(logfile)
    assert timeseries_svg(log, 50.0) == timeseries_svg(log, 50.0)
    assert trajectory_svg(log) == trajectory_svg(log)
