import json
import os
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"

# tests that start `python -m plumetrack.cli` or a demo import the package
# from src/, so the suite runs without an install
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))


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
