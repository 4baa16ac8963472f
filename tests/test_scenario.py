"""Scenario loading, validation, and round-trip tests."""

import dataclasses
import math
import re

import numpy as np
import pytest

from swarmsim import PLATFORMS, build_simulation, load_scenario, wrap_angle
from swarmsim.scenario import (
    PATTERN_KINDS,
    MappingThresholdError,
    PoseOutsideArenaError,
    ScenarioError,
    UnknownPlatformError,
    from_meta,
    to_meta,
)


def scenario_dict(**overrides):
    raw = {
        "name": "t",
        "platform": "turtlebot3_waffle_pi",
        "arena": {"width": 10.0, "height": 10.0},
        "robots": {"poses": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]},
        "pattern": {"kind": "attraction", "params": {"attraction_range": 2.0}},
        "seed": 1,
        "duration": 5.0,
    }
    raw.update(overrides)
    return raw


def mean_dist_to_centroid(poses):
    xs = np.array([p.x for p in poses])
    ys = np.array([p.y for p in poses])
    return float(np.hypot(xs - xs.mean(), ys - ys.mean()).mean())


# -------------------------------------------------------------------- presets


def test_aggregation_preset_line_constants():
    cfg = load_scenario("experiment1-waffle")
    assert cfg.platform == "turtlebot3_waffle_pi"
    assert cfg.duration == 300.0
    assert cfg.dt == 0.1
    assert cfg.pattern == "attraction"
    assert cfg.pattern_params["attraction_range"] == 2.0
    assert len(cfg.poses) == 7
    xs = [p.x for p in cfg.poses]
    assert xs == [-6.0, -5.0, -4.0, -3.0, -2.0, -1.0, 0.0]  # rightmost at center
    assert all(p.y == 0.0 for p in cfg.poses)
    assert mean_dist_to_centroid(cfg.poses) == pytest.approx(12.0 / 7.0)
    # headings aim at the line midpoint, with at most the configured jitter
    for p in cfg.poses:
        target = 0.0 if p.x <= -3.0 else math.pi
        assert abs(wrap_angle(p.theta - target)) <= 0.3 + 1e-12


def test_preset_names_accept_hyphen_and_underscore():
    a = load_scenario("experiment1-waffle")
    b = load_scenario("experiment1_waffle")
    assert a == b


def test_discussion_preset_constants():
    cfg = load_scenario("experiment2")
    assert cfg.pattern == "discussed_dispersion"
    assert cfg.pattern_params["mapping"] == {0: 0.6, 1: 1.0, 2: 1.4}
    assert cfg.pattern_params["decision_duration"] == 20.0
    assert cfg.pattern_params["window_length"] == 1.0
    assert cfg.duration == 150.0
    assert len(cfg.initial_opinions) == 7
    assert set(cfg.initial_opinions) <= {0, 1, 2}


def test_voter_preset_constants():
    cfg = load_scenario("voting-demo")
    assert cfg.pattern == "voter"
    assert len(cfg.initial_opinions) == 7
    assert set(cfg.initial_opinions) <= set(range(7))


def test_unknown_preset_raises():
    with pytest.raises(ScenarioError):
        load_scenario("no-such-preset")


# ------------------------------------------------------------------ overrides


def test_seed_and_duration_overrides():
    cfg = load_scenario("experiment2", seed=9, duration=30.0)
    assert cfg.seed == 9
    assert cfg.duration == 30.0
    assert cfg.tick_count() == 300


def test_same_seed_reproduces_resolution():
    a = load_scenario("experiment2", seed=5)
    b = load_scenario("experiment2", seed=5)
    assert a.poses == b.poses
    assert a.initial_opinions == b.initial_opinions


def test_different_seeds_resolve_differently():
    a = load_scenario("experiment2", seed=5)
    b = load_scenario("experiment2", seed=6)
    assert a.poses != b.poses


def test_zero_duration_is_valid():
    cfg = load_scenario(scenario_dict(duration=0.0))
    assert cfg.tick_count() == 0


# ----------------------------------------------------------------- validation


def test_unknown_platform():
    with pytest.raises(UnknownPlatformError):
        load_scenario(scenario_dict(platform="roomba"))


def test_unknown_pattern_kind():
    with pytest.raises(ScenarioError):
        load_scenario(scenario_dict(pattern={"kind": "levitation"}))


def test_unknown_robot_key_rejected():
    with pytest.raises(ScenarioError, match="unknown robot keys"):
        load_scenario(scenario_dict(robots={"poses": [[0, 0, 0]], "color": "red"}))


def test_empty_pose_list_rejected():
    with pytest.raises(ScenarioError):
        load_scenario(scenario_dict(robots={"poses": []}))


def test_unknown_layout_rejected():
    with pytest.raises(ScenarioError):
        load_scenario(scenario_dict(robots={"layout": "ring", "count": 4}))


def test_pose_outside_arena():
    with pytest.raises(PoseOutsideArenaError):
        load_scenario(scenario_dict(robots={"poses": [[4.9, 0.0, 0.0]]}))


def test_pose_inside_interior_wall():
    with pytest.raises(PoseOutsideArenaError):
        load_scenario(
            scenario_dict(
                robots={"poses": [[0.0, 0.0, 0.0]]},
                extra_walls=[[0.05, -1.0, 0.05, 1.0]],
            )
        )


def test_negative_duration_rejected():
    with pytest.raises(ScenarioError):
        load_scenario(scenario_dict(duration=-1.0))


def test_attraction_range_below_sensor_floor():
    with pytest.raises(ScenarioError):
        load_scenario(
            scenario_dict(pattern={"kind": "attraction", "params": {"attraction_range": 0.1}})
        )


def test_mapping_below_protection_threshold():
    raw = scenario_dict(
        pattern={
            "kind": "discussed_dispersion",
            "params": {"mapping": {0: 0.4, 1: 1.0}, "opinions": [0, 1]},
        }
    )
    with pytest.raises(MappingThresholdError):
        load_scenario(raw)
    assert issubclass(MappingThresholdError, ScenarioError)


def test_opinion_outside_mapping_domain():
    raw = scenario_dict(
        pattern={
            "kind": "discussed_dispersion",
            "params": {"mapping": {0: 0.6, 1: 1.0}, "opinions": [0, 5]},
        }
    )
    with pytest.raises(ScenarioError):
        load_scenario(raw)


@pytest.mark.parametrize(
    "kind, params, message",
    [
        ("drive", {"linear": -1}, "linear speed must be positive"),
        ("drive", {"linear": "fast"}, "drive"),
        ("random_walk", {"drive_duration": [3, 1]}, "drive_duration"),
        ("random_walk", {"turn_angle": [0.5]}, "random_walk"),
        ("majority", {"window_length": 0}, "window_length must be positive"),
        ("discussed_dispersion", {"mapping": {0: 1.0}, "decision_duration": -1}, "decision"),
        ("flocking", {"front_half_width": 1.0}, "partition the full circle"),
        ("attraction", {"attraction_rnge": 2.0}, "attraction_rnge"),
        ("majority", {"window_lenght": 1.0}, "window_lenght"),
        ("majority", {"rule": "voter"}, "'rule'"),
        ("discussed_dispersion", {"mapping": {0: 1.0}, "opinion_choices": [0]}, "opinion_choices"),
    ],
    ids=[
        "negative-drive",
        "text-drive",
        "reversed-walk-durations",
        "short-turn-angle",
        "zero-window",
        "negative-decision",
        "flocking-half-widths",
        "misspelt-movement-key",
        "misspelt-voting-key",
        "voting-rule-as-parameter",
        "choices-for-mapped-opinions",
    ],
)
def test_bad_pattern_params_fail_at_load(kind, params, message):
    with pytest.raises(ScenarioError, match=kind) as info:
        load_scenario(scenario_dict(pattern={"kind": kind, "params": params}))
    assert message in str(info.value)


@pytest.mark.parametrize(
    "kind, params, key",
    [
        ("drive", {"linear": math.nan}, "linear"),
        ("flocking", {"linear": math.nan}, "linear"),
        ("attraction", {"attraction_range": math.nan}, "attraction_range"),
        ("discussed_dispersion", {"mapping": {0: math.nan, 1: 1.0}}, "mapping"),
        (
            "discussed_dispersion",
            {"mapping": {0: 1.0}, "decision_duration": math.nan},
            "decision_duration",
        ),
        ("dispersion", {"dispersion_range": math.inf}, "dispersion_range"),
        ("random_walk", {"angular": math.nan}, "angular"),
        ("random_walk", {"drive_duration": [1.0, math.inf]}, "drive_duration"),
        ("majority", {"window_length": math.nan}, "window_length"),
        ("voter", {"opinion_choices": []}, "opinion_choices"),
    ],
    ids=[
        "nan-drive-speed",
        "nan-flocking-speed",
        "nan-attraction-range",
        "nan-mapped-distance",
        "nan-decision-duration",
        "infinite-dispersion-range",
        "nan-walk-turn-rate",
        "infinite-walk-duration-bound",
        "nan-window",
        "empty-opinion-choices",
    ],
)
def test_non_finite_or_empty_pattern_param_names_the_key(kind, params, key):
    with pytest.raises(ScenarioError, match=re.escape(key)):
        load_scenario(scenario_dict(pattern={"kind": kind, "params": params}))


def test_flocking_half_widths_take_effect():
    half_widths = {"front_half_width": math.pi / 2, "back_half_width": 0.0}
    cfg = load_scenario(scenario_dict(pattern={"kind": "flocking", "params": half_widths}))
    flocking = build_simulation(cfg).nodes[0].behavior
    assert (flocking.front_half_width, flocking.back_half_width) == (math.pi / 2, 0.0)
    assert flocking.left_half_width == flocking.right_half_width == math.pi / 4


# The keys each kind accepts; opinions and opinion_choices are resolved
# before the behavior is built.
KIND_KEYS = {
    "attraction": {"attraction_range"},
    "dispersion": {"dispersion_range"},
    "drive": {"linear"},
    "random_walk": {"linear", "angular", "drive_duration", "turn_angle", "curved_turns"},
    "flocking": {
        "r_near",
        "r_far",
        "linear",
        "linear_turning",
        "angular",
        "front_half_width",
        "left_half_width",
        "back_half_width",
        "right_half_width",
    },
    "majority": {"window_length"},
    "voter": {"window_length"},
    "discussed_dispersion": {"window_length", "decision_duration", "mapping"},
}
BUILDER_FIELDS = ("limits", "rng", "robot_id", "own_opinion")
RUN_TIME_FIELDS = ("window_index", "heard", "announced", "mode", "remaining", "turn_left")


@pytest.mark.parametrize("kind", PATTERN_KINDS)
def test_pattern_parameters_are_the_behavior_fields_less_the_builder_fields(kind):
    cfg = load_scenario(kind_scenario(kind))
    behavior = type(build_simulation(cfg).nodes[0].behavior)
    init_fields = {f.name for f in dataclasses.fields(behavior) if f.init}
    assert init_fields - set(BUILDER_FIELDS) == KIND_KEYS[kind]


@pytest.mark.parametrize("key", BUILDER_FIELDS + RUN_TIME_FIELDS)
@pytest.mark.parametrize("kind", PATTERN_KINDS)
def test_builder_or_run_time_field_as_parameter_fails_at_load(kind, key):
    params = {**KIND_PARAMS.get(kind, {}), key: 1.0}
    with pytest.raises(ScenarioError, match=kind) as info:
        load_scenario(scenario_dict(pattern={"kind": kind, "params": params}))
    assert repr(key) in str(info.value)


def test_opinion_count_mismatch():
    raw = scenario_dict(
        pattern={"kind": "majority", "params": {"opinions": [0, 1, 0]}},
    )
    with pytest.raises(ScenarioError):
        load_scenario(raw)


# ------------------------------------------------------------------- headings


def test_inward_headings_face_line_midpoint():
    cfg = load_scenario(
        scenario_dict(robots={"layout": "line", "count": 3, "spacing": 1.0, "headings": "inward"})
    )
    assert [p.x for p in cfg.poses] == [-2.0, -1.0, 0.0]
    assert [p.theta for p in cfg.poses] == [0.0, 0.0, math.pi]


def test_explicit_heading_list():
    cfg = load_scenario(
        scenario_dict(
            robots={"layout": "line", "count": 3, "spacing": 0.5, "headings": [0.1, 0.2, 0.3]}
        )
    )
    assert [p.theta for p in cfg.poses] == pytest.approx([0.1, 0.2, 0.3])


def test_scalar_heading_broadcasts():
    cfg = load_scenario(scenario_dict(robots={"layout": "line", "count": 2, "headings": 1.5}))
    assert [p.theta for p in cfg.poses] == [1.5, 1.5]


@pytest.mark.parametrize(
    "robots, key",
    [
        ({"count": 3, "headings": [0.1, 0.2]}, "headings"),
        ({"count": 2, "headings": [0.1, 0.2, 0.3]}, "headings"),
        ({"count": 2, "headings": "outward"}, "headings"),
        ({"count": 2, "spacing": "x"}, "spacing"),
        ({"count": "two"}, "count"),
        ({"count": 2, "heading_jitter": "x"}, "heading_jitter"),
    ],
    ids=["short-headings", "long-headings", "unknown-headings", "spacing", "count", "jitter"],
)
def test_bad_layout_value_names_the_key(robots, key):
    with pytest.raises(ScenarioError, match=f"robots.{key}"):
        load_scenario(scenario_dict(robots={"layout": "line", **robots}))


@pytest.mark.parametrize(
    "robots, pattern, key",
    [
        ({"count": 2.7}, None, "robots.count"),
        ({"count": "2.5"}, None, "robots.count"),
        (None, {"kind": "majority", "params": {"opinions": [0, "a"]}}, "opinions"),
        (None, {"kind": "majority", "params": {"opinions": 1}}, "opinions"),
        (None, {"kind": "voter", "params": {"opinion_choices": [0, 1.5]}}, "opinion_choices"),
        (None, {"kind": "discussed_dispersion", "params": {"mapping": [1.0, 2.0]}}, "mapping"),
        (None, {"kind": "discussed_dispersion", "params": {"mapping": {0: "far"}}}, "mapping"),
        (None, {"kind": "discussed_dispersion", "params": {"mapping": {"a": 1.0}}}, "mapping"),
    ],
    ids=[
        "fractional-count",
        "fractional-count-text",
        "opinion-not-a-number",
        "opinions-not-a-list",
        "fractional-opinion-choice",
        "mapping-as-list",
        "mapped-distance-not-a-number",
        "mapped-opinion-not-a-number",
    ],
)
def test_bad_count_or_opinion_value_names_the_key(robots, pattern, key):
    overrides = {}
    if robots is not None:
        overrides["robots"] = {"layout": "line", **robots}
    if pattern is not None:
        overrides["pattern"] = pattern
    with pytest.raises(ScenarioError, match=re.escape(key)):
        load_scenario(scenario_dict(**overrides))


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"seed": 1.5}, "seed"),
        ({"seed": -1}, "seed"),
        ({"dt": "fast"}, "dt"),
        ({"duration": "long"}, "duration"),
        ({"duration": math.nan}, "duration"),
        ({"duration": math.inf}, "duration"),
        ({"duration": -1}, "duration"),
        ({"arena": {"width": "big", "height": 10.0}}, "arena.width"),
        ({"arena": {"width": 10.0, "height": 0}}, "arena.height"),
        ({"arena": {"width": math.inf, "height": 10.0}}, "arena.width"),
        ({"staleness_limit": -1}, "staleness_limit"),
        ({"extra_walls": [[0, 1, 2]]}, "extra_walls"),
        ({"extra_walls": [[0, 1, 2, math.inf]]}, "extra_walls"),
        ({"robots": {"poses": [[0, 0]]}}, "robots.poses"),
        ({"robots": {"poses": [[0, 0, math.nan]]}}, "robots.poses: [0, 0, nan]"),
        ({"duraton": 5}, "duraton"),
        ({"arena": {"widht": 10}}, "widht"),
        ({"arena": [10, 10]}, "arena"),
        ({"pattern": {"kind": "drive", "parms": {"linear": 0.2}}}, "parms"),
        ({"robots": {"poses": [[0, 0, 0], [1, 0, 0]], "count": 5}}, "count"),
        ({"robots": {"layout": "line", "count": True}}, "robots.count: True"),
        ({"seed": True}, "seed: True"),
        ({"dt": True}, "dt: True"),
        ({"robots": {"poses": [[0, 0, True]]}}, "robots.poses"),
        (
            {"pattern": {"kind": "majority", "params": {"opinions": [True, False]}}},
            "opinions: True",
        ),
        (
            {"pattern": {"kind": "discussed_dispersion", "params": {"mapping": {True: 1.0}}}},
            "mapping: True",
        ),
        ({"arena": {"width": True, "height": 10.0}}, "arena.width: True"),
    ],
    ids=[
        "fractional-seed",
        "negative-seed",
        "dt-not-a-number",
        "duration-not-a-number",
        "nan-duration",
        "infinite-duration",
        "negative-duration",
        "width-not-a-number",
        "zero-height",
        "infinite-width",
        "negative-staleness-limit",
        "short-wall-row",
        "infinite-wall-row",
        "short-pose-row",
        "nan-pose-row",
        "misspelt-top-level-key",
        "misspelt-arena-key",
        "arena-not-a-mapping",
        "misspelt-pattern-key",
        "layout-key-beside-poses",
        "boolean-count",
        "boolean-seed",
        "boolean-dt",
        "boolean-in-pose-row",
        "boolean-opinions",
        "boolean-mapped-opinion",
        "boolean-width",
    ],
)
def test_bad_top_level_value_names_the_key(overrides, key):
    with pytest.raises(ScenarioError, match=re.escape(key)):
        load_scenario(scenario_dict(**overrides))


@pytest.mark.parametrize("text", ["count: true", "count: yes", "count: on"])
def test_yaml_boolean_count_fails_at_load(tmp_path, text):
    path = tmp_path / "bool.yaml"
    path.write_text(
        "platform: turtlebot3_waffle_pi\n"
        "pattern: {kind: attraction}\n"
        f"robots: {{layout: line, {text}}}\n"
    )
    with pytest.raises(ScenarioError, match="robots.count: True is not a number"):
        load_scenario(path)


@pytest.mark.parametrize("text", ['"false"', "0", "1", "null", "[true]"])
def test_non_boolean_curved_turns_fails_at_load(tmp_path, text):
    path = tmp_path / "walk.yaml"
    path.write_text(
        "platform: turtlebot3_waffle_pi\n"
        f"pattern: {{kind: random_walk, params: {{curved_turns: {text}}}}}\n"
        "robots: {layout: line, count: 2}\n"
    )
    with pytest.raises(ScenarioError, match="curved_turns: .* is not a boolean"):
        load_scenario(path)


@pytest.mark.parametrize("value", [True, False])
def test_boolean_curved_turns_loads(value):
    pattern = {"kind": "random_walk", "params": {"curved_turns": value}}
    cfg = load_scenario(scenario_dict(pattern=pattern))
    assert build_simulation(cfg).nodes[0].behavior.curved_turns is value


def test_large_int_seed_stays_exact():
    seed = 2**64 + 1
    assert load_scenario(scenario_dict(seed=seed)).seed == seed
    assert load_scenario(scenario_dict(), seed=seed).seed == seed


def test_random_headings_within_range():
    cfg = load_scenario(
        scenario_dict(robots={"layout": "line", "count": 5, "headings": "random"}, seed=3)
    )
    assert all(-math.pi < p.theta <= math.pi for p in cfg.poses)


# ----------------------------------------------------------------- round trip


PRESETS = [
    "experiment1-waffle",
    "experiment1-burger",
    "experiment1-jackal",
    "experiment2",
    "voting-demo",
]
KIND_PARAMS = {
    "flocking": {"front_half_width": math.pi / 2, "back_half_width": 0.0},
    "discussed_dispersion": {"mapping": {0: 0.6, 1: 1.0}, "decision_duration": 2.0},
    "voter": {"opinion_choices": [0, 1, 2], "window_length": 0.5},
}


def kind_scenario(kind):
    return scenario_dict(
        pattern={"kind": kind, "params": KIND_PARAMS.get(kind, {})},
        extra_walls=[[3.0, -2.0, 3.0, 2.0]],
        staleness_limit=0.3,
    )


@pytest.mark.parametrize(
    "source",
    PRESETS + [kind_scenario(kind) for kind in PATTERN_KINDS],
    ids=PRESETS + [f"dict-{kind}" for kind in PATTERN_KINDS],
)
def test_meta_round_trip(source):
    cfg = load_scenario(source, seed=4)
    assert from_meta(to_meta(cfg)) == cfg


def test_from_meta_rejects_an_edited_platform_spec():
    meta = to_meta(load_scenario(scenario_dict()))
    meta["scenario"]["platform_spec"]["range_max"] = 3.0
    with pytest.raises(ScenarioError, match="range_max 3.0 != 3.5"):
        from_meta(meta)
