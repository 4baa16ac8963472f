"""Scenario configuration, validation, and the run harness.

A scenario names a platform, an arena, robot start poses, one behavior with
parameters, a seed, and a duration. Scenarios load from YAML files, from
packaged presets (by name), or from dicts; loading resolves every random
choice (headings, opinions) so the resulting config is fully explicit and
reproducible. The resolved form round-trips through the trace header, which
is what makes replay and trace-only metrics possible. One list of keys,
_KEYS, drives the key check, typed loading and that round trip.
"""

from __future__ import annotations

import math
import typing
from dataclasses import asdict, dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Annotated, Literal

import numpy as np
import yaml

from .core import Pose2D, segment_distances
from .metrics import (
    MetricsReport,
    compute_metrics,
    header_scenario,
    header_value,
    write_metrics_json,
    write_series_csv,
)
from .patterns import (
    Attraction,
    DiscussedDispersion,
    Dispersion,
    Drive,
    Flocking,
    Majority,
    Pattern,
    RandomWalk,
    Voter,
)
from .platforms import PATTERN_DEFAULTS, PLATFORMS, PlatformSpec
from .protection import DEFAULT_STALENESS_LIMIT, ProtectionState
from .sim import RobotNode, Simulation, WorldState, rect_walls
from .trace import Trace, trace_from_columns, write_trace
from .typed import POSITIVE, ScenarioError, load_typed, whole_steps

# kind -> the behavior class whose init fields, less the ones
# _build_behavior sets, are that kind's scenario parameters.
BEHAVIORS: dict[str, type[Pattern]] = {
    "attraction": Attraction,
    "dispersion": Dispersion,
    "drive": Drive,
    "random_walk": RandomWalk,
    "flocking": Flocking,
    "majority": Majority,
    "voter": Voter,
    "discussed_dispersion": DiscussedDispersion,
}
PATTERN_KINDS = tuple(BEHAVIORS)
VOTING_KINDS = ("majority", "voter", "discussed_dispersion")
_BUILDER_FIELDS = ("limits", "rng", "robot_id", "own_opinion")

# Pattern defaults that hold on every platform (PATTERN_DEFAULTS holds the
# others). The loader resolves opinions and opinion_choices.
_KIND_DEFAULTS = {
    "random_walk": {"drive_duration": [0.5, 4.0], "turn_angle": [0.3, math.pi]},
    "majority": {"window_length": 1.0, "opinions": "random", "opinion_choices": [0, 1]},
    "voter": {"window_length": 1.0, "opinions": "random", "opinion_choices": [0, 1]},
    "discussed_dispersion": {"window_length": 1.0, "decision_duration": 20.0, "opinions": "random"},
}


class UnknownPlatformError(ScenarioError):
    pass


class MappingThresholdError(ScenarioError):
    """An opinion maps to a distance the protection layer would never allow."""


class PoseOutsideArenaError(ScenarioError):
    pass


@dataclass
class ScenarioConfig:
    """Fully resolved scenario; every field is explicit and serializable."""

    name: str
    platform: str
    arena_width: float
    arena_height: float
    poses: list[Pose2D]
    pattern: str
    pattern_params: dict
    seed: int
    duration: float
    dt: float
    extra_walls: list[list[float]]
    initial_opinions: list[int] | None
    staleness_limit: float

    @property
    def spec(self) -> PlatformSpec:
        return PLATFORMS[self.platform]

    def walls(self) -> np.ndarray:
        walls = rect_walls(self.arena_width, self.arena_height)
        if self.extra_walls:
            walls = np.vstack([walls, np.asarray(self.extra_walls, dtype=float)])
        return walls

    def tick_count(self) -> int:
        return int(round(self.duration / self.dt))


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


# libyaml's parser where PyYAML was built with it, else the pure-Python
# one. Both build values with SafeConstructor and resolve tags alike.
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

_SCENARIO_STREAM = 0
_WALK_STREAM = 1
_VOTER_STREAM = 2


_AT_LEAST_0 = Annotated[float, ">= 0", lambda v: v >= 0]
_POSES = Annotated[list[tuple[float, float, float]], "a list of at least one pose", bool]

# Every scenario key: (key path, at most two deep; type; default, loaded as
# it stands; the ScenarioConfig field it loads into and to_meta writes). A
# mapping may be null, and holds only the keys listed under it.
_KEYS = (
    ("name", str, "scenario", "name"),
    ("platform", str, None, "platform"),  # one of PLATFORMS
    ("arena.width", POSITIVE, 18.0, "arena_width"),
    ("arena.height", POSITIVE, 18.0, "arena_height"),
    ("robots.poses", _POSES, None, "poses"),  # None: a line layout places them
    ("robots.layout", Literal["line"], "line", None),
    ("robots.count", Annotated[int, ">= 1", lambda n: n >= 1], 1, None),
    ("robots.spacing", POSITIVE, 1.0, None),
    ("robots.headings", float | list[float] | Literal["random", "inward"], 0.0, None),
    ("robots.heading_jitter", _AT_LEAST_0, 0.0, None),
    ("pattern.kind", Literal[PATTERN_KINDS], None, "pattern"),
    ("pattern.params", dict, {}, "pattern_params"),  # keys by kind: _PARAMS
    ("seed", Annotated[int, ">= 0", lambda n: n >= 0], 0, "seed"),
    ("duration", _AT_LEAST_0, 60.0, "duration"),
    ("dt", POSITIVE, 0.1, "dt"),
    ("extra_walls", list[tuple[float, float, float, float]], [], "extra_walls"),
    ("staleness_limit", POSITIVE, DEFAULT_STALENESS_LIMIT, "staleness_limit"),
)
# mapping path -> the keys it may hold
_LEVELS: dict[str, set] = {"": {path.split(".")[0] for path, *_ in _KEYS}}
for _parent, _, _name in (path.rpartition(".") for path, *_ in _KEYS):
    _LEVELS.setdefault(_parent, set()).add(_name)

# kind -> pattern parameter -> type: the behavior's init fields, less the
# builder's, and the opinions the loader resolves.
_PARAMS = {
    kind: {f.name: hints[f.name] for f in fields(cls) if f.init and f.name not in _BUILDER_FIELDS}
    for kind, cls in BEHAVIORS.items()
    for hints in [typing.get_type_hints(cls)]
}
for _kind in VOTING_KINDS:
    _PARAMS[_kind]["opinions"] = list[int] | Literal["random"]
    if "opinion_choices" in _KIND_DEFAULTS[_kind]:
        _PARAMS[_kind]["opinion_choices"] = list[int]


def _known(noun: str, mapping: dict, known) -> None:
    unknown = mapping.keys() - known
    if unknown:
        raise ScenarioError(f"unknown {noun} keys: {sorted(unknown, key=str)}")


def _lookup(raw: dict) -> dict:
    """Each mapping of raw and each key of _KEYS, loaded, by its path."""
    values = {"": raw}
    for path, names in _LEVELS.items():  # "" first, then arena, robots, pattern
        if path:
            values[path] = load_typed(path, dict, raw.get(path))
        _known({"": "scenario", "robots": "robot"}.get(path, path), values[path], names)
    for path, typ, default, _ in _KEYS:
        parent, _, name = path.rpartition(".")
        values[path] = load_typed(path, typ, values[parent][name]) if name in values[parent] else default
    return values


def _resolve_poses(values: dict, rng: np.random.Generator) -> list[Pose2D]:
    if values["robots.poses"] is not None:
        layout = values["robots"].keys() - {"poses"}
        if layout:
            raise ScenarioError(f"robots.poses: layout keys {sorted(layout)} given with the poses")
        return [Pose2D(*row) for row in values["robots.poses"]]
    count, spacing = values["robots.count"], values["robots.spacing"]
    headings, jitter = values["robots.headings"], values["robots.heading_jitter"]
    if isinstance(headings, list) and len(headings) != count:
        raise ScenarioError(f"robots.headings: {len(headings)} headings, {count} robots")
    center = -(count - 1) / 2.0 * spacing
    poses = []
    for i in range(count):
        x = -(count - 1 - i) * spacing  # rightmost robot at the arena center
        if headings == "random":
            th = float(rng.uniform(-math.pi, math.pi))
        elif headings == "inward":
            # face the line's midpoint, the way robots get aimed at the
            # group when placed by hand for a gathering demo
            th = 0.0 if x <= center else math.pi
        else:
            th = headings[i] if isinstance(headings, list) else headings
        if jitter:
            th += float(rng.uniform(-jitter, jitter))
        poses.append(Pose2D(x, 0.0, th))
    return poses


def _pattern(
    kind: str, platform: str, given: dict, count: int, rng: np.random.Generator
) -> tuple[dict, list[int] | None]:
    """The kind's defaults on the platform, overridden by the given
    parameters, each loaded as its type; and, for a voting kind, the
    initial opinions of count robots."""
    types = _PARAMS[kind]
    _known(f"{kind} parameter", given, types)
    params = dict(PATTERN_DEFAULTS.get(platform, {}).get(kind, {}))
    for key, value in given.items():
        loaded = load_typed(f"{kind} parameter pattern.params.{key}", types[key], value)
        # numbers stay as written (an int stays an int), as headers record
        # them, and a pair as the list a header gives back
        if types[key] in (float, tuple[float, float]):
            loaded = value if types[key] is float else list(value)
        params[key] = loaded
    for key, value in _KIND_DEFAULTS.get(kind, {}).items():
        params.setdefault(key, value)
    if kind not in VOTING_KINDS:
        return params, None
    opinions = params.pop("opinions")
    if kind == "discussed_dispersion":
        key, choices = "mapping", sorted(params.get("mapping", {}))
    else:
        key, choices = "opinion_choices", params.pop("opinion_choices")
    if not choices:
        raise ScenarioError(f"pattern.params.{key}: needs at least one opinion")
    if opinions == "random":
        opinions = [int(choices[rng.integers(len(choices))]) for _ in range(count)]
    elif len(opinions) != count:
        raise ScenarioError("initial opinions must match the robot count")
    return params, opinions


def load_scenario(
    source: str | Path | dict,
    seed: int | None = None,
    duration: float | None = None,
) -> ScenarioConfig:
    """Load and resolve a scenario from a preset name, YAML path, or dict.

    seed/duration override the file's values before any random choice is
    drawn, so the override fully determines the resolved scenario.
    """
    raw = source if isinstance(source, dict) else _parse(source, _read_scenario_text(source))
    if not isinstance(raw, dict):
        raise ScenarioError("scenario file must hold a mapping")
    raw = raw | {key: v for key, v in (("seed", seed), ("duration", duration)) if v is not None}
    values = _lookup(raw)
    if values["platform"] not in PLATFORMS:
        raise UnknownPlatformError(f"unknown platform: {values['platform']!r}")
    kind = values["pattern.kind"]
    if kind is None:
        raise ScenarioError("pattern.kind is missing")
    rng = _rng(values["seed"], _SCENARIO_STREAM)
    poses = _resolve_poses(values, rng)
    params, opinions = _pattern(kind, values["platform"], values["pattern.params"], len(poses), rng)
    config = ScenarioConfig(
        **{field: values[path] for path, _, _, field in _KEYS if field}
        | {"poses": poses, "pattern_params": params, "initial_opinions": opinions}
    )
    validate_scenario(config)
    return config


def _read_scenario_text(source: str | Path) -> str:
    path = Path(source)
    if path.exists():
        return path.read_text()
    if path.suffix in (".yaml", ".yml"):
        raise ScenarioError(f"scenario file not found: {source}")
    preset = str(source).replace("-", "_")
    res = resources.files("swarmsim").joinpath(f"scenarios/{preset}.yaml")
    if not res.is_file():
        raise ScenarioError(f"no such scenario file or preset: {source!r}")
    return res.read_text()


def _parse(source: str | Path, text: str):
    try:
        return yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        error = exc
    # libyaml words and marks its errors apart from the pure-Python parser:
    # report the latter's where it fails too, so an error reads the same
    # however PyYAML was built.
    try:
        yaml.load(text, Loader=yaml.SafeLoader)
    except yaml.YAMLError as exc:
        error = exc
    # A ReaderError, a character YAML does not allow, has no mark; the first
    # line of its message names the character.
    mark = getattr(error, "problem_mark", None)
    where = f", line {mark.line + 1}, column {mark.column + 1}" if mark else ""
    problem = error.problem if mark else str(error).splitlines()[0]
    raise ScenarioError(f"{source}{where}: {problem}") from error


def validate_scenario(config: ScenarioConfig) -> None:
    # tick_count rounds duration / dt; a duration between two ticks would
    # lose or gain part of a step with no word.
    whole_steps("duration", config.duration, config.dt, 0)
    spec = config.spec
    radius = spec.body_radius
    x, y = np.array([(p.x, p.y) for p in config.poses]).T
    # Every start pose at once; the first failing robot raises, and for it
    # outside the arena goes before inside a wall.
    outside = (np.abs(x) > config.arena_width / 2.0 - radius) | (
        np.abs(y) > config.arena_height / 2.0 - radius
    )
    in_wall = segment_distances(x[:, None], y[:, None], config.walls()).min(axis=1) < radius
    bad = outside | in_wall
    if bad.any():
        i = int(bad.argmax())
        where = "outside the arena" if outside[i] else "inside a wall"
        raise PoseOutsideArenaError(f"robot {i} starts {where}: {config.poses[i]}")

    params = config.pattern_params
    kind = config.pattern
    if kind == "discussed_dispersion":
        mapping = params["mapping"]
        missing = set(config.initial_opinions) - set(mapping)
        if missing:
            raise ScenarioError(f"initial opinions outside mapping domain: {sorted(missing)}")
        low = [op for op, dist in mapping.items() if dist < spec.protection_threshold]
        if low:
            raise MappingThresholdError(
                f"mapped distances below protection threshold {spec.protection_threshold}: "
                f"opinions {sorted(low)}"
            )
        if any(dist <= spec.range_min for dist in mapping.values()):
            raise ScenarioError("mapped distances must exceed the sensor floor")
    # Building one behavior rejects the out-of-range values.
    try:
        _build_behavior(config, 0)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"bad {kind} parameters: {exc}") from exc
    # A voting window and the decision time end on a tick: a window shorter
    # than a step would close many windows per tick, one at a time.
    for key in ("window_length", "decision_duration"):
        if key in params:
            whole_steps(f"pattern.params.{key}", params[key], config.dt, 1)
    for key in ("attraction_range", "dispersion_range"):
        if params.get(key, math.inf) <= spec.range_min:
            raise ScenarioError(f"{key} must exceed the sensor floor")
    if kind == "flocking":
        if not (spec.range_min < params["r_near"] < params["r_far"] <= spec.range_max):
            raise ScenarioError("flocking bands must fit inside the sensor window")


def _build_behavior(config: ScenarioConfig, robot: int) -> Pattern:
    kind = config.pattern
    builder = {}
    if kind not in ("majority", "voter"):
        builder["limits"] = config.spec.limits()
    if kind == "random_walk":
        builder["rng"] = _rng(config.seed, _WALK_STREAM, robot)
    if kind == "voter":
        builder["rng"] = _rng(config.seed, _VOTER_STREAM, robot)
    if kind in VOTING_KINDS:
        builder.update(robot_id=robot, own_opinion=config.initial_opinions[robot])
    return BEHAVIORS[kind](**config.pattern_params, **builder)


def build_simulation(config: ScenarioConfig) -> Simulation:
    spec = config.spec
    count = len(config.poses)
    world = WorldState(config.walls(), list(config.poses), [spec.body_radius] * count, config.dt)
    nodes = [
        RobotNode(
            behavior=_build_behavior(config, i),
            protection=ProtectionState(
                threshold=spec.protection_threshold,
                limits=spec.limits(),
                staleness_limit=config.staleness_limit,
            ),
        )
        for i in range(count)
    ]
    return Simulation(world, nodes, spec, meta=to_meta(config))


def to_meta(config: ScenarioConfig) -> dict:
    spec = config.spec
    scenario = {field: getattr(config, field) for *_, field in _KEYS if field}
    params = scenario["pattern_params"] = dict(config.pattern_params)
    if "mapping" in params:
        params["mapping"] = {str(k): v for k, v in params["mapping"].items()}  # JSON keys
    scenario.update(
        arena=[scenario.pop("arena_width"), scenario.pop("arena_height")],
        poses=[[p.x, p.y, p.theta] for p in config.poses],
        initial_opinions=config.initial_opinions,
        platform_spec=asdict(spec),
        walls=[[float(v) for v in row] for row in config.walls()],
        robot_ids=list(range(len(config.poses))),
        radii=[spec.body_radius] * len(config.poses),
    )
    return {"format": "swarmsim-trace", "version": 1, "scenario": scenario}


def from_meta(meta: dict) -> ScenarioConfig:
    """The scenario a trace header records, resolved again by load_scenario.

    Fails, naming the key, if the header lacks a key this reads or holds
    one of the wrong type, and fails if its platform_spec differs from the
    packaged preset.
    """
    fields = [field for *_, field in _KEYS if field and not field.startswith("arena_")]
    sc = header_scenario(meta, "arena", "initial_opinions", "platform_spec", *fields)
    recorded = dict(sc)
    arena = header_value(sc, "arena", tuple[float, float])
    recorded["arena_width"], recorded["arena_height"] = arena
    params = recorded["pattern_params"] = dict(header_value(sc, "pattern_params", dict))
    spec = header_value(sc, "platform_spec", dict)
    if "mapping" in params:
        path = "trace header scenario.pattern_params.mapping"
        mapping = load_typed(path, dict, params["mapping"])
        params["mapping"] = {int(k): v for k, v in mapping.items()}
    if sc["initial_opinions"] is not None:
        params["opinions"] = sc["initial_opinions"]
    raw: dict = {}
    for path, _, _, field in _KEYS:
        parent, _, name = path.rpartition(".")  # paths are at most two deep
        if field:
            (raw.setdefault(parent, {}) if parent else raw)[name] = recorded[field]
    config = load_scenario(raw)
    preset = asdict(config.spec)
    differ = sorted(k for k in spec.keys() | preset.keys() if spec.get(k) != preset.get(k))
    if differ:
        raise ScenarioError(
            f"trace platform_spec differs from the {config.platform} preset: "
            + ", ".join(f"{k} {spec.get(k)!r} != {preset.get(k)!r}" for k in differ)
        )
    return config


def run(
    config: ScenarioConfig, out_dir: str | Path | None = None
) -> tuple[Trace, MetricsReport]:
    """Run a resolved scenario to completion; optionally write the artifacts.

    Writes trace.csv, metrics.json, and series.csv into out_dir when given.
    """
    sim = build_simulation(config)
    sim.run(config.tick_count())
    trace = trace_from_columns(sim.meta, sim.columns)
    report = compute_metrics(trace)
    if out_dir is not None:
        out = Path(out_dir)
        write_trace(trace, out / "trace.csv")
        write_metrics_json(report, out / "metrics.json")
        write_series_csv(report, out / "series.csv")
    return trace, report
