import json
import math
import re
from dataclasses import MISSING, fields

import numpy as np
import pytest

from plumetrack.field import (FlowField, FrozenGaussian, GaussianPuff,
                              GridField, PuffPlume)
from plumetrack.guidance import GuidanceGains
from plumetrack.scenario_io import (ScenarioError, load_scenario,
                                    parse_sweep_value, scenario_from_dict,
                                    set_path)
from plumetrack.sensing import NoiseModel, SensorRig
from plumetrack.vessel import VesselParams

MINIMAL = {
    "schema": 1,
    "duration": 10.0,
    "field": {
        "type": "frozen-gaussian", "peak": 60.0, "sigma": 18.0,
        "center": [0.0, 0.0],
        "flow": {"type": "uniform", "velocity": [0.1, 0.0]}},
    "vessel": {"start_pose": [10.0, 0.0, 0.0]},
    "gains": {"c0": 50.0, "k": 1.2, "k1": 5.0, "k2": 11.0, "v_d": 1.5},
}

GRID = {
    "type": "grid", "origin": [-8.0, -8.0], "cell_size": 0.5,
    "shape": [32, 32], "diffusion": 0.05,
    "flow": {"type": "uniform", "velocity": [0.5, 0.0]},
    "init_puff": {"release_time": -40.0, "point": [-20.0, 0.0],
                  "strength": 1200.0}}

PIECEWISE = {"type": "piecewise", "boundaries": [5.0],
             "velocities": [[0.1, 0.0], [0.0, 0.1]]}


def doc(**overrides) -> dict:
    d = json.loads(json.dumps(MINIMAL))
    d.update(overrides)
    return d


class TestSchema:
    def test_minimal_document_defaults(self):
        sc = scenario_from_dict(doc())
        assert sc.control_period == 0.05
        assert sc.physics_substep == 0.05
        assert sc.sign_convention == "pde-derived"
        assert sc.tracked_point == "head"
        assert sc.noise.sigma == 0.0
        assert sc.noise.floor == 0.01
        assert sc.noise.range_max == 10000.0
        assert sc.params.offset == 0.5
        assert np.allclose(sc.rig.offsets[0], [0.75, 0.0])
        assert isinstance(sc.field0, FrozenGaussian)

    def test_models_supply_the_defaults(self, case1_doc):
        sc = scenario_from_dict(doc())
        assert sc.noise == NoiseModel()
        assert sc.params == VesselParams()
        assert sc.gains == GuidanceGains(c0=50.0, k=1.2, k1=5.0, k2=11.0,
                                         v_d=1.5)
        puffs = json.loads(json.dumps(case1_doc["field"]))
        for key in ("start_time", "emission_rate", "puff_interval"):
            del puffs[key]
        plume = scenario_from_dict(doc(field=puffs)).field0
        assert plume.start_time == PuffPlume.start_time
        assert plume.emission_rate == PuffPlume.emission_rate == 0.0
        assert plume.puff_interval == PuffPlume.puff_interval == 0.5
        grid = scenario_from_dict(doc(field=GRID)).field0
        assert grid.boundary == GridField.boundary

    @pytest.mark.parametrize("base, section, model", [
        ("case1", ("noise",), NoiseModel),
        ("case1", ("vessel",), VesselParams),
        ("case1", ("gains",), GuidanceGains),
        ("case1", ("rig",), SensorRig),
        ("case1", ("field",), PuffPlume),
        ("case1", ("field", "seed_puffs", 0), GaussianPuff),
        ("minimal", ("field",), FrozenGaussian),
        ("grid", ("field", "init_puff"), GaussianPuff),
        ("piecewise", ("field", "flow"), FlowField),
    ])
    def test_each_key_is_a_model_field(self, case1_doc, base, section,
                                       model):
        # a section's required keys are its model's fields without a
        # default, and a key that is no field is refused
        base = {"case1": case1_doc, "minimal": MINIMAL,
                "grid": doc(field=GRID),
                "piecewise": doc(field=dict(MINIMAL["field"],
                                            flow=PIECEWISE))}[base]
        path = "<scenario>" + "".join(
            f"[{k}]" if isinstance(k, int) else f".{k}" for k in section)
        required = [f.name for f in fields(model) if f.default is MISSING]
        if model is GaussianPuff:
            required.remove("diffusion")          # the field's, passed in

        def refused(edit, msg):
            d = json.loads(json.dumps(base))
            node = d
            for key in section:
                node = node[key]
            edit(node)
            with pytest.raises(ScenarioError,
                               match=f"^{re.escape(f'{path}: {msg}')}$"):
                scenario_from_dict(d)

        for name in required:
            refused(lambda node: node.pop(name),
                    f"missing required field '{name}'")
        refused(lambda node: node.update(bogus=1.0),
                "unknown field(s): bogus")

    def test_wrong_schema_version(self):
        for schema in (2, True):
            with pytest.raises(ScenarioError, match="schema"):
                scenario_from_dict(doc(schema=schema))

    def test_unknown_top_level_field(self):
        with pytest.raises(ScenarioError, match="bogus"):
            scenario_from_dict(doc(bogus=1))

    def test_missing_required_named(self):
        d = doc()
        del d["gains"]
        with pytest.raises(ScenarioError, match="gains"):
            scenario_from_dict(d)

    def test_unknown_gain_named(self):
        d = doc()
        d["gains"]["k9"] = 1.0
        with pytest.raises(ScenarioError, match="k9"):
            scenario_from_dict(d)

    def test_bad_sign_convention(self):
        with pytest.raises(ScenarioError, match="sign_convention"):
            scenario_from_dict(doc(sign_convention="upside-down"))

    def test_substep_larger_than_control_period(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict(doc(physics_substep=0.2))

    def test_negative_duration(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict(doc(duration=-5))

    def test_bool_is_not_a_number(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict(doc(duration=True))

    def test_bad_rig_rejected(self):
        d = doc(rig={"offsets": [[1, 0], [1, 0], [0, 1], [0, -1]]})
        with pytest.raises(ScenarioError, match="rig"):
            scenario_from_dict(d)

    def test_nonfinite_rig_rejected(self):
        d = doc(rig={"offsets": [[math.nan, 0], [-1, 0], [0, 1], [0, -1]]})
        with pytest.raises(ScenarioError, match="rig"):
            scenario_from_dict(d)

    def test_gain_invariant_violation(self):
        d = doc()
        d["gains"]["k1"] = -1.0
        with pytest.raises(ScenarioError, match="gains"):
            scenario_from_dict(d)

    def test_puff_field(self, case1_doc):
        sc = scenario_from_dict(json.loads(json.dumps(case1_doc)))
        assert isinstance(sc.field0, PuffPlume)
        assert sc.field0.diffusion == 0.03
        assert len(sc.field0.seed_puffs) == 1

    def test_grid_field_and_init_time(self):
        d = doc()
        d["field"] = {
            "type": "grid", "origin": [-5.0, -5.0], "cell_size": 0.5,
            "shape": [20, 20], "diffusion": 0.1,
            "flow": {"type": "uniform", "velocity": [0.0, 0.0]},
            "init_puff": {"release_time": -10.0, "point": [0.0, 0.0],
                          "strength": 100.0}}
        d["vessel"]["start_pose"] = [0.0, 0.0, 0.0]
        sc = scenario_from_dict(d)
        assert isinstance(sc.field0, GridField)
        assert sc.field0.shape == (20, 20)

    def test_grid_init_puff_must_predate_start(self):
        d = doc()
        d["field"] = {
            "type": "grid", "origin": [-5.0, -5.0], "cell_size": 0.5,
            "shape": [20, 20], "diffusion": 0.1,
            "flow": {"type": "uniform", "velocity": [0.0, 0.0]},
            "init_puff": {"release_time": 1.0, "point": [0.0, 0.0],
                          "strength": 100.0}}
        with pytest.raises(ScenarioError, match="release_time"):
            scenario_from_dict(d)

    def test_unknown_field_type(self):
        d = doc()
        d["field"] = {"type": "mystery"}
        with pytest.raises(ScenarioError, match="type"):
            scenario_from_dict(d)

    def test_piecewise_flow(self):
        d = doc()
        d["field"]["flow"] = {"type": "piecewise", "boundaries": [5.0],
                              "velocities": [[0.1, 0.0], [0.0, 0.1]]}
        sc = scenario_from_dict(d)
        assert np.allclose(sc.field0.flow.at(6.0), [0.0, 0.1])

    def test_nonfinite_piecewise_flow_rejected(self):
        for bounds, vels in (([math.nan], [[0.1, 0.0], [0.0, 0.1]]),
                             ([5.0], [[math.inf, 0.0], [0.0, 0.1]])):
            d = doc()
            d["field"]["flow"] = {"type": "piecewise", "boundaries": bounds,
                                  "velocities": vels}
            with pytest.raises(ScenarioError, match="flow"):
                scenario_from_dict(d)

    @pytest.mark.parametrize("key, value", [
        ("rig.offsets", [[True, 0], [-1, 0], [0, True], [0, -1]]),
        ("rig.offsets", [["0.75", "0"], ["-0.75", "0"], ["0", "0.75"],
                         ["0", "-0.75"]]),
        ("field.flow.boundaries", ["5"]),
        ("field.flow.velocities", [["0.1", False], [0, True]]),
    ])
    def test_arrays_hold_numbers_only(self, key, value):
        d = doc(rig={"offsets": [[1, 0], [-1, 0], [0, 1], [0, -1]]})
        d["field"]["flow"] = json.loads(json.dumps(PIECEWISE))
        scenario_from_dict(d)
        set_path(d, key, value)
        msg = f"<scenario>.{key}: expected an array of finite numbers"
        with pytest.raises(ScenarioError, match=f"^{re.escape(msg)}"):
            scenario_from_dict(d)

    def test_bundled_scenarios_load(self, scenarios_dir):
        for name in ("case1.json", "case2.json", "pure_advection.json",
                     "uneven_rig_demo.json"):
            sc = load_scenario(scenarios_dir / name)
            assert sc.duration == 60.0

    def test_noise_seed_decouples_sensor_stream(self):
        # a pinned noise.seed makes readings independent of the run seed
        from plumetrack.simulator import run
        d = doc(noise={"sigma": 2.0, "seed": 123}, duration=2.0)
        a = run(scenario_from_dict(dict(d, seed=1)))
        b = run(scenario_from_dict(dict(d, seed=2)))
        assert np.array_equal(a.readings, b.readings)
        c = run(scenario_from_dict(dict(d, noise={"sigma": 2.0, "seed": 124},
                                        seed=1)))
        assert not np.array_equal(a.readings, c.readings)


class TestSweepHelpers:
    def test_set_path(self):
        d = doc()
        set_path(d, "gains.k1", 9.0)
        assert d["gains"]["k1"] == 9.0
        set_path(d, "duration", 20.0)
        assert d["duration"] == 20.0

    def test_set_path_missing_intermediate(self):
        with pytest.raises(ScenarioError, match="nosuch"):
            set_path(doc(), "nosuch.k1", 1.0)

    def test_set_path_into_scalar(self):
        with pytest.raises(ScenarioError):
            set_path(doc(), "duration.x", 1.0)

    def test_new_leaf_is_caught_by_validation(self):
        d = doc()
        set_path(d, "gains.k9", 1.0)
        with pytest.raises(ScenarioError, match="k9"):
            scenario_from_dict(d)

    def test_parse_sweep_value(self):
        assert parse_sweep_value("5") == 5
        assert parse_sweep_value("0.5") == 0.5
        assert parse_sweep_value("pde-derived") == "pde-derived"
