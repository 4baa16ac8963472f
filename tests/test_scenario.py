"""Scenario loading, validation, and round-trip tests."""

import dataclasses
import json
import math
import re
from importlib import resources

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_cli import (
    INT_PARAMETERS,
    MALFORMED_YAML,
    TINY_YAML,
    UNKNOWN_PLATFORM_YAML,
    int_parameters_yaml,
)

import swarmsim.scenario
from swarmsim import PLATFORMS, Pose2D, build_simulation, load_scenario, wrap_angle
from swarmsim.scenario import (
    _KEYS,
    _YAML_LOADER,
    PATTERN_KINDS,
    MappingThresholdError,
    PoseOutsideArenaError,
    ScenarioError,
    UnknownPlatformError,
    from_meta,
    to_meta,
    validate_scenario,
)
from swarmsim.sim import wall_clearance


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


@pytest.mark.parametrize(
    "source, message",
    [
        ("no-such-preset", "no such scenario file or preset: 'no-such-preset'"),
        ("no/such/file.yaml", "scenario file not found: no/such/file.yaml"),
    ],
)
def test_unknown_preset_raises(source, message):
    with pytest.raises(ScenarioError) as info:
        load_scenario(source)
    assert str(info.value) == message


def test_scenario_file_must_hold_a_mapping(tmp_path):
    path = tmp_path / "list.yaml"
    path.write_text("- name: t\n- platform: jackal\n")
    with pytest.raises(ScenarioError, match="^scenario file must hold a mapping$"):
        load_scenario(path)


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


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("range_min", 0.0, "need 0 < range_min < range_max"),
        ("beam_count", 0, "bad body geometry"),
        ("body_radius", 0.0, "bad body geometry"),
        ("turn_gain", 0.0, "speed limits must be positive"),
        ("protection_threshold", 0.0, "protection threshold must be positive"),
    ],
)
def test_platform_spec_rejects_bad_values(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        dataclasses.replace(PLATFORMS["jackal"], **{field: value})


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


def _pose_check_reference(config):
    """The start-pose check as a loop of one wall_clearance per robot: the
    message of the first failing robot, outside the arena before inside a
    wall, or None."""
    radius = config.spec.body_radius
    half_w, half_h = config.arena_width / 2.0, config.arena_height / 2.0
    walls = config.walls()
    for i, pose in enumerate(config.poses):
        if abs(pose.x) > half_w - radius or abs(pose.y) > half_h - radius:
            return f"robot {i} starts outside the arena: {pose}"
        if wall_clearance(pose.x, pose.y, walls) < radius:
            return f"robot {i} starts inside a wall: {pose}"
    return None


_RADIUS = PLATFORMS["turtlebot3_waffle_pi"].body_radius
# No extra wall; one; and two, the second of zero length. Each lies on a
# coordinate axis, where a body radius off the wall is a distance of
# exactly the body radius.
_EXTRA_WALLS = [[], [[0.0, -1.0, 0.0, 1.0]], [[-1.0, 0.0, 1.0, 0.0], [0.0, -0.4, 0.0, -0.4]]]


@st.composite
def _start_layouts(draw):
    """Arena, extra walls and start poses: inside the arena, outside it, or
    on an arena edge, a wall's coordinate, a body radius from either, or
    one ulp either side of one of those."""
    width, height = draw(st.sampled_from([(4.0, 4.0), (6.5, 3.0)]))
    walls = draw(st.sampled_from(_EXTRA_WALLS))

    def coordinate(half, lines):
        margin = half - _RADIUS
        edges = [half, margin, *lines] + [c + s * _RADIUS for c in lines for s in (-1.0, 1.0)]
        edge = st.tuples(
            st.sampled_from(edges + [-v for v in edges]),
            st.sampled_from([-math.inf, None, math.inf]),
        ).map(lambda e: e[0] if e[1] is None else math.nextafter(*e))
        outside = st.tuples(
            st.floats(margin, 2.0 * half, exclude_min=True), st.sampled_from([-1.0, 1.0])
        ).map(lambda t: t[0] * t[1])
        return draw(st.one_of(st.floats(-margin, margin), edge, outside))

    xs = [c for wall in walls for c in wall[0::2]]
    ys = [c for wall in walls for c in wall[1::2]]
    count = draw(st.integers(1, 5))
    poses = [Pose2D(coordinate(width / 2.0, xs), coordinate(height / 2.0, ys), 0.0) for _ in range(count)]
    return width, height, walls, poses


@given(_start_layouts())
@settings(max_examples=300)
def test_start_pose_check_raises_as_a_per_robot_wall_clearance_loop(layout):
    width, height, walls, poses = layout
    config = dataclasses.replace(
        load_scenario(scenario_dict()),
        arena_width=width,
        arena_height=height,
        extra_walls=walls,
        poses=poses,
    )
    expected = _pose_check_reference(config)
    if expected is None:
        validate_scenario(config)
    else:
        with pytest.raises(PoseOutsideArenaError) as info:
            validate_scenario(config)
        assert type(info.value) is PoseOutsideArenaError and str(info.value) == expected


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
        ("attraction", {"attraction_range": 0}, "attraction_range must be positive"),
        ("dispersion", {"dispersion_range": -1.0}, "dispersion_range must be positive"),
        ("random_walk", {"linear": 0}, "walk speeds must be positive"),
        ("random_walk", {"turn_angle": [2.0, 1.0]}, "bad turn_angle bounds"),
        ("flocking", {"r_near": 2.0, "r_far": 1.0}, "need 0 < r_near < r_far"),
        ("flocking", {"angular": 0}, "flocking speeds must be positive"),
        ("flocking", {"r_near": 1.0, "r_far": 5.0}, "bands must fit inside the sensor window"),
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
        "zero-attraction-range",
        "negative-dispersion-range",
        "zero-walk-speed",
        "reversed-turn-angles",
        "reversed-flocking-bands",
        "zero-flocking-speed",
        "flocking-band-past-range-max",
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
        ("discussed_dispersion", {"mapping": {}}, "mapping"),
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
        "empty-mapping",
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


_WRONGLY_TYPED = [
    ("platform: [jackal]", "platform"),
    ("platform: {name: jackal}", "platform"),
    ("pattern: {kind: drive, params: [1]}", "pattern.params"),
    ("pattern: {kind: drive, params: []}", "pattern.params"),
    ("name: [n]", "name"),
    ("name: 5", "name"),
]
_BOOLEAN_COUNTS = ["count: true", "count: yes", "count: on"]
_NON_BOOLEAN_CURVED_TURNS = ['"false"', "0", "1", "null", "[true]"]
_UNREADABLE_YAML = "name: t\nplatform: \x07\n"


def _wrongly_typed_yaml(text):
    lines = {"name": "name: t", "platform": "platform: jackal", "pattern": "pattern: {kind: drive}"}
    lines[text.split(":")[0]] = text
    return "\n".join(lines.values()) + "\nrobots: {poses: [[0, 0, 0]]}\n"


def _boolean_count_yaml(text):
    return (
        "platform: turtlebot3_waffle_pi\n"
        "pattern: {kind: attraction}\n"
        f"robots: {{layout: line, {text}}}\n"
    )


def _curved_turns_yaml(text):
    return (
        "platform: turtlebot3_waffle_pi\n"
        f"pattern: {{kind: random_walk, params: {{curved_turns: {text}}}}}\n"
        "robots: {layout: line, count: 2}\n"
    )


@pytest.mark.parametrize(
    "text, key",
    _WRONGLY_TYPED,
    ids=["platform-list", "platform-mapping", "params-list", "params-empty-list", "name-list", "name-int"],
)
def test_wrongly_typed_name_platform_or_params_names_the_key(tmp_path, text, key):
    path = tmp_path / "s.yaml"
    path.write_text(_wrongly_typed_yaml(text))
    with pytest.raises(ScenarioError, match=re.escape(f"{key}: ")):
        load_scenario(str(path))


@pytest.mark.parametrize("text", _BOOLEAN_COUNTS)
def test_yaml_boolean_count_fails_at_load(tmp_path, text):
    path = tmp_path / "bool.yaml"
    path.write_text(_boolean_count_yaml(text))
    with pytest.raises(ScenarioError, match="robots.count: True is not a number"):
        load_scenario(path)


@pytest.mark.parametrize("text", _NON_BOOLEAN_CURVED_TURNS)
def test_non_boolean_curved_turns_fails_at_load(tmp_path, text):
    path = tmp_path / "walk.yaml"
    path.write_text(_curved_turns_yaml(text))
    with pytest.raises(ScenarioError, match="curved_turns: .* is not a boolean"):
        load_scenario(path)


def _written_texts():
    """Every scenario file the tests write."""
    return [
        TINY_YAML,
        UNKNOWN_PLATFORM_YAML,
        MALFORMED_YAML,
        _UNREADABLE_YAML,
        *(int_parameters_yaml(kind, params) for kind, params, _ in INT_PARAMETERS),
        *(_wrongly_typed_yaml(text) for text, _ in _WRONGLY_TYPED),
        *(_boolean_count_yaml(text) for text in _BOOLEAN_COUNTS),
        *(_curved_turns_yaml(text) for text in _NON_BOOLEAN_CURVED_TURNS),
    ]


def _parsed(text, loader):
    """The value, and its repr (2 and 2.0 are equal, but load apart); or the
    error class and where it points, if it does."""
    try:
        value = yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        return type(exc), mark and (mark.line, mark.column)
    return value, repr(value)


def test_scenario_loader_parses_as_the_pure_python_safe_loader():
    assert _YAML_LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)
    presets = [
        res.read_text()
        for res in resources.files("swarmsim").joinpath("scenarios").iterdir()
        if res.name.endswith(".yaml")
    ]
    assert len(presets) >= 5
    for text in presets + _written_texts():
        assert _parsed(text, _YAML_LOADER) == _parsed(text, yaml.SafeLoader), text


@pytest.mark.parametrize(
    "text, where",
    [(MALFORMED_YAML, ", line 3, column 6: "), (_UNREADABLE_YAML, ": unacceptable character #x0007")],
    ids=["unclosed-list", "control-character"],
)
def test_malformed_yaml_raises_a_one_line_scenario_error_naming_the_file(tmp_path, text, where):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(ScenarioError, match=re.escape(f"{path}{where}")) as info:
        load_scenario(path)
    assert "\n" not in str(info.value)


# Texts that libyaml and the pure-Python parser word or mark apart.
_WORDED_APART_YAML = {
    "non-ascii-then-unclosed-list": "a: éé\nc: [x",
    "indented-key": "a: 1\n b: 2\n",
    "unclosed-list": "a: [1, 2",
    "list-then-mapping": "- a\nb: 1\n",
    "undefined-alias": "a: &x 1\nb: *y\n",
    "tab-indent": "a:\n\t- 1\n",
    "control-character": _UNREADABLE_YAML,
}


@pytest.mark.parametrize("text", _WORDED_APART_YAML.values(), ids=_WORDED_APART_YAML.keys())
def test_malformed_yaml_reads_the_same_however_pyyaml_was_built(monkeypatch, text):
    """The scenario error is the pure-Python parser's with either loader;
    the libyaml half runs where PyYAML has libyaml."""
    messages = set()
    for loader in [yaml.SafeLoader] + [yaml.CSafeLoader] * yaml.__with_libyaml__:
        monkeypatch.setattr(swarmsim.scenario, "_YAML_LOADER", loader)
        with pytest.raises(ScenarioError) as info:
            swarmsim.scenario._parse("s.yaml", text)
        messages.add(str(info.value))
    assert len(messages) == 1, messages


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


# Parameters written as ints, or a pair as a tuple: the header records
# numbers as written, and a pair as a list.
INT_PARAMS = [
    scenario_dict(pattern={"kind": "voter", "params": {"window_length": 2}}),
    scenario_dict(pattern={"kind": "drive", "params": {"linear": 1}}),
    scenario_dict(pattern={"kind": "random_walk", "params": {"drive_duration": (1, 2)}}),
]


@pytest.mark.parametrize(
    "source",
    PRESETS + [kind_scenario(kind) for kind in PATTERN_KINDS] + INT_PARAMS,
    ids=PRESETS
    + [f"dict-{kind}" for kind in PATTERN_KINDS]
    + ["int-window", "int-speed", "tuple-pair"],
)
def test_meta_round_trip(source):
    """The header as a trace file holds it, JSON text, gives the config back."""
    cfg = load_scenario(source, seed=4)
    assert from_meta(json.loads(json.dumps(to_meta(cfg)))) == cfg


def test_from_meta_rejects_an_edited_platform_spec():
    meta = to_meta(load_scenario(scenario_dict()))
    meta["scenario"]["platform_spec"]["range_max"] = 3.0
    with pytest.raises(ScenarioError, match="range_max 3.0 != 3.5"):
        from_meta(meta)


# ------------------------------------------------------------ typed keys


# The type of each scenario key and mapping, as README "Scenario files"
# states it: a tuple lists the strings it takes. "mapping" keys also take
# null, read as empty; number, list and row keys take none of the values
# drawn below.
KEY_TYPES = {
    "name": "string",
    "platform": tuple(PLATFORMS),
    "arena": "mapping",
    "arena.width": "number",
    "arena.height": "number",
    "robots": "mapping",
    "robots.poses": "rows",
    "robots.layout": ("line",),
    "robots.count": "number",
    "robots.spacing": "number",
    "robots.headings": ("random", "inward"),
    "robots.heading_jitter": "number",
    "pattern": "mapping",
    "pattern.kind": PATTERN_KINDS,
    "pattern.params": "mapping",
    "seed": "number",
    "duration": "number",
    "dt": "number",
    "extra_walls": "rows",
    "staleness_limit": "number",
}
# Pattern parameters are numbers, pairs of numbers or an opinion mapping,
# except these; opinions and opinion_choices are lists of whole numbers.
PARAM_TYPES = {"curved_turns": "boolean", "opinions": ("random",)}
LOADER_KEYS = {
    "majority": {"opinions", "opinion_choices"},
    "voter": {"opinions", "opinion_choices"},
    "discussed_dispersion": {"opinions"},
}

# An int no float holds.
TOO_LARGE = 10**400

# A list, a mapping, a string, a quoted number, a bool, null, NaN or a
# number too large for a float, alone or in a row.
WRONG_VALUES = st.one_of(
    st.lists(st.one_of(st.text(max_size=3), st.booleans(), st.none()), min_size=1, max_size=3),
    st.dictionaries(st.text(min_size=1, max_size=3), st.integers(), min_size=1, max_size=2),
    st.text(max_size=6),
    st.one_of(st.integers(), st.floats(allow_nan=False)).map(str),
    st.booleans(),
    st.none(),
    st.just(math.nan),
    st.sampled_from([TOO_LARGE, [[0, 0, TOO_LARGE]]]),
)


def of_type(key_type, value):
    if key_type == "mapping":
        return value is None or isinstance(value, dict)
    if key_type == "string":
        return isinstance(value, str)
    if key_type == "boolean":
        return isinstance(value, bool)
    if isinstance(key_type, tuple):
        return value in key_type
    return False


def test_key_types_cover_every_key():
    paths = {path for path, *_ in _KEYS}
    assert set(KEY_TYPES) == paths | {path.split(".")[0] for path in paths}


def _with_value(path, value):
    """A scenario that loads, with value put at path."""
    layout = path.startswith("robots.") and path != "robots.poses"
    raw = scenario_dict(robots={"layout": "line", "count": 2} if layout else {"poses": [[0, 0, 0]]})
    *parents, name = path.split(".")
    level = raw
    for parent in parents:
        level = level[parent]
    level[name] = value
    return raw


def _raises_naming(raw, path):
    with pytest.raises(ScenarioError) as info:
        load_scenario(raw)
    assert f"{path}: " in str(info.value)


@pytest.mark.parametrize("path", sorted(KEY_TYPES))
@settings(max_examples=40)
@given(value=WRONG_VALUES)
def test_wrongly_typed_key_raises_naming_its_path(path, value):
    assume(not of_type(KEY_TYPES[path], value))
    _raises_naming(_with_value(path, value), path)


@pytest.mark.parametrize(
    "kind, key",
    [
        (kind, key)
        for kind in PATTERN_KINDS
        for key in sorted(KIND_KEYS[kind] | LOADER_KEYS.get(kind, set()))
    ],
)
@settings(max_examples=40)
@given(value=WRONG_VALUES)
def test_wrongly_typed_pattern_parameter_raises_naming_its_path(kind, key, value):
    assume(not of_type(PARAM_TYPES.get(key, "number"), value))
    params = {**KIND_PARAMS.get(kind, {}), key: value}
    _raises_naming(scenario_dict(pattern={"kind": kind, "params": params}), f"pattern.params.{key}")


TOO_LARGE_AT = {
    "dt": TOO_LARGE,
    "seed": TOO_LARGE,
    "robots.poses": [[0, 0, TOO_LARGE]],
    "extra_walls": [[0, 0, 1, TOO_LARGE]],
    "pattern.params.linear": TOO_LARGE,
    "pattern.params.drive_duration": [1, TOO_LARGE],
}


@pytest.mark.parametrize("path", TOO_LARGE_AT)
def test_wrongly_typed_number_too_large_for_a_float_names_its_key(path):
    value = TOO_LARGE_AT[path]
    if path.startswith("pattern.params."):
        params = {path.rpartition(".")[2]: value}
        raw = scenario_dict(pattern={"kind": "random_walk", "params": params})
    else:
        raw = _with_value(path, value)
    _raises_naming(raw, path)


@pytest.mark.parametrize("path", ["arena", "robots", "pattern", "pattern.params"])
def test_null_mapping_loads_as_an_empty_one(path):
    def load(value):
        try:
            return load_scenario(_with_value(path, value))
        except ScenarioError as exc:  # pattern: the kind has no default
            return str(exc)

    assert load(None) == load({})
