import io
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from plumetrack.simulator import TABLE_COLUMNS, WIDTH

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"

# tests that start `python -m plumetrack.cli` or a demo import the package
# from src/, so the suite runs without an install
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))


# column groups of a run's table read as one (n, k) view
COLUMN_GROUPS = {"pose": ("x", "y", "theta"), "z": ("zx", "zy"),
                 "xhat": ("xhat", "yhat"),
                 "readings": ("c1", "c2", "c3", "c4"),
                 "grad": ("gx", "gy"), "u": ("ux", "uy")}


def column_index(name: str):
    """Where column ``name`` sits in a record of a run's table: its index
    in TABLE_COLUMNS, or the slice of a group of COLUMN_GROUPS."""
    group = COLUMN_GROUPS.get(name, (name,))
    first = TABLE_COLUMNS.index(group[0])
    return first if len(group) == 1 else slice(first, first + len(group))


def column(log, name: str):
    """A read-only numpy view of column ``name`` of ``log.table``: (n,)
    for a column (``sat`` compared with 0 into bools), (n, k) for a
    group of k columns."""
    view = np.frombuffer(log.table).reshape(-1, WIDTH)[:, column_index(name)]
    if name == "sat":
        view = view != 0
    view.flags.writeable = False
    return view


def csv_text(log) -> str:
    """The CSV text that ``log.to_csv`` writes to a file."""
    fh = io.StringIO()
    log.to_csv(fh)
    return fh.getvalue()


def rotation(theta: float) -> tuple[float, float]:
    """(cos theta, sin theta), the pair by which the layers rotate."""
    return math.cos(theta), math.sin(theta)


@pytest.fixture(scope="session")
def scenarios_dir() -> Path:
    return SCENARIOS


@pytest.fixture(scope="session")
def case1_doc() -> dict:
    return json.loads((SCENARIOS / "case1.json").read_text())


@pytest.fixture(scope="session")
def case2_doc() -> dict:
    return json.loads((SCENARIOS / "case2.json").read_text())


@pytest.fixture(scope="session")
def advection_doc() -> dict:
    return json.loads((SCENARIOS / "pure_advection.json").read_text())
