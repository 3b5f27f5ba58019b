import json
import math
import sys

import pytest

from rupturesim.config import (
    Numerics,
    config_from_dict,
    config_to_dict,
    effective_parameters,
    load_scenario,
    save_scenario,
    validate,
)
from rupturesim.errors import DomainError, ParseError, SchemaError


def minimal_scenario(**over):
    raw = {
        "omega": 1.0,
        "junctions": [0.5],
        "jump_strengths": [0.0],
        "forcing_offset": 0.0,
        "sigma1": 1.0,
        "sigma2": 1.0,
        "tau": 1.0,
        "alpha": 1.0,
        "eta_c": 0.01,
        "eta_a": 0.03,
        "d": 0.1,
        "mode": "decoupled",
    }
    raw.update(over)
    return raw


def test_preset_scenario_fields(ex1):
    assert ex1.omega == 1.0
    assert ex1.junctions == (0.1, 0.6, 0.9)
    assert ex1.jump_strengths == (1.0, 1.0, 1.0)
    assert ex1.forcing_offset == 3.0
    assert ex1.sigma1 == ex1.sigma2 == ex1.tau == 1.0
    assert ex1.alpha == 1.0
    assert ex1.eta_a == 0.03
    assert ex1.eta_c == 0.03e-12
    assert ex1.d == 0.1
    assert ex1.mode == "decoupled"
    assert ex1.numerics.grid_points == 1024
    assert ex1.numerics.dt == 1.0e-4


def test_zero_forcing_scenario_is_valid():
    cfg = config_from_dict(minimal_scenario())
    assert cfg.jump_strengths == (0.0,)
    assert cfg.forcing_offset == 0.0


def test_reset_level_must_exceed_threshold():
    with pytest.raises(DomainError):
        config_from_dict(minimal_scenario(eta_a=0.01, eta_c=0.01))
    with pytest.raises(DomainError):
        config_from_dict(minimal_scenario(eta_a=0.005, eta_c=0.01))
    with pytest.raises(DomainError, match="eta_a must be finite"):
        config_from_dict(minimal_scenario(eta_a=math.inf))


@pytest.mark.parametrize("name", ["dt", "event_tol", "fp_tol"])
def test_numerics_steps_and_tolerances_must_be_finite(name):
    with pytest.raises(DomainError, match=f"numerics.{name}"):
        Numerics(**{name: math.inf})


@pytest.mark.parametrize("dt", [5e-324, 1e-310, 2e-308])
def test_numerics_dt_must_be_a_normal_float(dt):
    # a subnormal step made the step counts overflow to infinity
    with pytest.raises(DomainError, match="numerics.dt"):
        Numerics(dt=dt)
    assert Numerics(dt=sys.float_info.min).dt == sys.float_info.min


def test_junctions_must_be_sorted_and_in_range():
    with pytest.raises(DomainError):
        config_from_dict(minimal_scenario(junctions=[0.6, 0.1], jump_strengths=[1, 1]))
    with pytest.raises(DomainError):
        config_from_dict(minimal_scenario(junctions=[1.5], jump_strengths=[1]))


def test_unknown_and_missing_fields_are_schema_errors():
    with pytest.raises(SchemaError):
        config_from_dict(minimal_scenario(bogus=1))
    raw = minimal_scenario()
    del raw["omega"]
    with pytest.raises(SchemaError):
        config_from_dict(raw)
    with pytest.raises(SchemaError):
        config_from_dict(minimal_scenario(omega="one"))
    with pytest.raises(SchemaError):
        config_from_dict(minimal_scenario(numerics={"step": 1}))


def test_malformed_json_is_a_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_scenario(path)


def test_load_scenario_applies_numerics_defaults(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(minimal_scenario()))
    cfg = load_scenario(path)
    assert cfg.numerics == Numerics()
    assert cfg.reduction_case == "case_i"


def test_validate_mass_conserving_preset(ex1):
    report = validate(ex1)
    assert report.condition_C_holds
    assert report.integral_f == 0.0
    assert report.mass_conserving


def test_validate_negative_strength_fails_sign_condition():
    cfg = config_from_dict(
        minimal_scenario(junctions=[0.2, 0.7], jump_strengths=[-1.0, 2.0], forcing_offset=1.0)
    )
    report = validate(cfg)
    assert not report.condition_C_holds


def test_validate_reports_forcing_integral():
    cfg = config_from_dict(minimal_scenario(jump_strengths=[1.0], forcing_offset=2.0))
    report = validate(cfg)
    assert report.condition_C_holds
    assert report.integral_f == pytest.approx(-1.0, abs=0.0)
    assert not report.mass_conserving


def test_validate_is_deterministic(ex1):
    assert validate(ex1) == validate(ex1)


def test_forcing_integral_vanishes_for_mass_conserving_choice():
    # awkward strengths: the reported integral must vanish to one ulp of the sum
    strengths = [0.1, 0.2, 0.30000000000000004, math.pi / 10]
    omega = 0.7
    offset = math.fsum(strengths) / omega
    cfg = config_from_dict(
        minimal_scenario(
            omega=omega,
            junctions=[0.05, 0.2, 0.4, 0.6],
            jump_strengths=strengths,
            forcing_offset=offset,
        )
    )
    report = validate(cfg)
    total = math.fsum(strengths)
    assert abs(report.integral_f) <= math.ulp(total)
    assert report.mass_conserving


def test_scenario_round_trip_is_bit_exact(tmp_path):
    cfg = config_from_dict(
        minimal_scenario(
            omega=math.pi,
            junctions=[0.1, 1.0 / 3.0, 2.0],
            jump_strengths=[0.1, math.sqrt(2), 1e-7],
            forcing_offset=1.2345678901234567,
            alpha=0.756,
            eta_c=3.0e-14,
            numerics={"dt": 2.5e-5, "grid_points": 512},
        )
    )
    path = tmp_path / "round.json"
    save_scenario(cfg, path)
    again = load_scenario(path)
    assert again == cfg
    assert config_to_dict(again) == config_to_dict(cfg)


def test_effective_parameters_reduction_cases():
    cfg = config_from_dict(
        minimal_scenario(jump_strengths=[2.0], forcing_offset=4.0, sigma1=0.5, sigma2=1.0, tau=2.0)
    )
    sigma, strengths, offset = effective_parameters(cfg)
    assert sigma == 1.0
    assert strengths == (1.0,)
    assert offset == 2.0
    cfg2 = config_from_dict(
        minimal_scenario(
            jump_strengths=[2.0],
            forcing_offset=4.0,
            sigma1=0.5,
            sigma2=1.0,
            tau=2.0,
            reduction_case="case_ii",
        )
    )
    sigma, strengths, offset = effective_parameters(cfg2)
    assert sigma == 1.0
    assert strengths == (4.0,)
    assert offset == 8.0


def test_config_is_immutable(ex1):
    with pytest.raises(Exception):
        ex1.omega = 2.0


def test_schema_errors_name_the_field():
    no_mode = minimal_scenario()
    del no_mode["mode"]
    cases = {
        "missing scenario fields: ['mode']": no_mode,
        "scenario document must be a JSON object": [],
        "field 'mode' must be a string": minimal_scenario(mode=1),
        "field 'junctions' must be an array of numbers": minimal_scenario(junctions=0.5),
        "field 'numerics' must be an object": minimal_scenario(numerics=[]),
        "unknown numerics fields: ['step']": minimal_scenario(numerics={"step": 1}),
        "field 'numerics.grid_points' must be an integer": minimal_scenario(
            numerics={"grid_points": 1.5}
        ),
        "field 'numerics.dt' must be a number": minimal_scenario(numerics={"dt": "x"}),
    }
    for message, raw in cases.items():
        with pytest.raises(SchemaError) as info:
            config_from_dict(raw)
        assert str(info.value) == message


def test_config_dict_lists_every_field_in_order():
    raw = config_to_dict(config_from_dict(minimal_scenario()))
    assert list(raw) == [*minimal_scenario(), "reduction_case", "numerics"]
    assert raw["junctions"] == [0.5] and raw["jump_strengths"] == [0.0]
    assert raw["numerics"] == {
        "grid_points": 1024, "dt": 1e-4, "event_tol": 1e-6, "fp_tol": 1e-6, "max_ruptures": 100,
    }
