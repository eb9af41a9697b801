import json
import math
import pickle
import re
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest

from plumetrack.field import (FlowField, FrozenGaussian, GaussianPuff,
                              GridField, PuffPlume)
from plumetrack.guidance import GuidanceGains
from plumetrack.scenario_io import (ScenarioError, load_scenario,
                                    parse_sweep_value, scenario_from_dict,
                                    set_path)
from plumetrack.sensing import NoiseModel, SensorRig
from plumetrack.simulator import MAX_STEPS, expected_records
from plumetrack.vessel import VesselParams

from conftest import column

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

    def test_case1_scenario_compares_hashes_and_pickles_by_value(
            self, case1_doc):
        # the sweep's process pool pickles each scenario it runs
        a, b = (scenario_from_dict(json.loads(json.dumps(case1_doc)))
                for _ in range(2))
        assert a == b and hash(a) == hash(b)
        copied = pickle.loads(pickle.dumps(a))
        assert copied == a and hash(copied) == hash(a)

    def test_grid_scenario_compares_hashes_and_pickles_by_value(self):
        a, b = (scenario_from_dict(doc(field=GRID)) for _ in range(2))
        assert a.field0.conc is not b.field0.conc
        assert a == b and hash(a) == hash(b)
        copied = pickle.loads(pickle.dumps(a))
        assert copied == a and hash(copied) == hash(a)
        # the unpickled grid owns aligned read-only cells too
        assert copied.field0.conc.ctypes.data % 64 == 0
        assert not copied.field0.conc.flags.writeable
        conc = a.field0.conc.copy()
        conc[5, 7] += 1e-9
        changed = replace(a, field0=replace(a.field0, conc=conc))
        assert changed != a and changed.field0 != a.field0

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
        assert sc.field0.conc.shape == (20, 20)

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

    @pytest.mark.parametrize("duration, period, refused", [
        (700000.0, 0.7, None), (9000.0, 0.009, None),
        (700000.7, 0.7, "1,000,001 steps"), (1e300, 1e-300, "inf steps"),
        (60.0, 1e-300, r"6e\+301 steps")])
    def test_step_limit_counts_as_the_run_counts(self, duration, period,
                                                 refused):
        # the first two ratios round above 1,000,000, but the run takes
        # exactly 1,000,000 steps; constructed only, never run.  A count
        # of 1e15 or more is given in three figures, so the line stays
        # short (60 / 1e-300 steps once took 302 digits)
        d = doc(duration=duration, control_period=period)
        if refused is None:
            scenario_from_dict(d)
            assert expected_records(duration, period) - 1 == MAX_STEPS
        else:
            with pytest.raises(ScenarioError, match=refused) as refusal:
                scenario_from_dict(d)
            assert len(str(refusal.value)) < 120

    def test_train_limit_counts_to_the_last_build(self, case1_doc):
        # 900,000 releases by the end of the run, but the build at t = 0
        # already computes those released by HORIZON, 4,000,000 or so
        d = json.loads(json.dumps(case1_doc))
        d["duration"] = 0.9
        d["field"].update(start_time=0.0, puff_interval=1e-6)
        with pytest.raises(ScenarioError, match="emission train"):
            scenario_from_dict(d)
        assert scenario_from_dict(json.loads(json.dumps(case1_doc)))

    def test_replaced_fields_are_bounded_as_loaded_ones(self, case1_doc):
        # the limits live in Scenario and its field, not in the loader, so
        # a scenario made by replace is refused as its document would be:
        # a grid at k = 5,000 needs about 5.3 million substeps in 60 s
        grid = scenario_from_dict(doc(field=GRID, duration=60.0))
        with pytest.raises(ValueError, match="explicit grid substeps"):
            replace(grid, field0=replace(grid.field0, diffusion=5000.0))
        case1 = scenario_from_dict(json.loads(json.dumps(case1_doc)))
        with pytest.raises(ValueError, match="emission train"):
            replace(case1, field0=replace(case1.field0, puff_interval=1e-6))

    @pytest.mark.parametrize("change, key", [
        (dict(start_pose=(12.0, 0.0)), "start_pose"),
        (dict(start_pose="abc"), "start_pose"),
        (dict(start_pose=(12.0, 0.0, math.nan)), "start_pose"),
        (dict(seed=-1, noise=NoiseModel(sigma=2.0)), "seed"),
        (dict(seed=1.5, flow_noise_sigma=0.05), "seed"),
        (dict(seed=True), "seed"),
    ])
    def test_replaced_values_are_judged_as_loaded_ones(self, case1_doc,
                                                       change, key):
        # the rules on values live in the models, not in the loader, so a
        # scenario made by replace is refused at construction rather than
        # crashing mid-run
        case1 = scenario_from_dict(json.loads(json.dumps(case1_doc)))
        with pytest.raises(ValueError, match=f"^{key} must be"):
            replace(case1, **change)

    def test_scenario_stores_seed_and_pose_converted(self, case1_doc):
        case1 = scenario_from_dict(json.loads(json.dumps(case1_doc)))
        sc = replace(case1, seed=np.int64(3), start_pose=np.array([1, 2, 3]))
        assert type(sc.seed) is int and sc.seed == 3
        assert sc.start_pose == (1.0, 2.0, 3.0)
        assert all(type(v) is float for v in sc.start_pose)

    @pytest.mark.parametrize("seed", [-1, 2.0, True, "7"])
    def test_noise_seed_is_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="^seed must be"):
            NoiseModel(sigma=2.0, seed=seed)
        assert NoiseModel(sigma=2.0, seed=np.int64(7)).seed == 7

    @pytest.mark.parametrize("shape", [(20.7, 20), (20, 20, 1), [20], "ab"])
    def test_grid_shape_is_two_integers(self, shape):
        puff = GaussianPuff(-10.0, (0.0, 0.0), 100.0, 0.1)
        flow = FlowField.uniform((0.0, 0.0))
        with pytest.raises(ValueError, match="^shape must be two integers"):
            GridField.from_puff(puff, flow, 0.0, (-5.0, -5.0), 0.5, shape)
        grid = GridField.from_puff(puff, flow, 0.0, (-5.0, -5.0), 0.5,
                                   (np.int64(21), 20))
        assert grid.conc.shape == (21, 20)

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
        assert np.array_equal(column(a, "readings"), column(b, "readings"))
        c = run(scenario_from_dict(dict(d, noise={"sigma": 2.0, "seed": 124},
                                        seed=1)))
        assert not np.array_equal(column(a, "readings"), column(c, "readings"))


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
