"""Scenario configuration, validation, and the run harness.

A scenario names a platform, an arena, robot start poses, one behavior with
parameters, a seed, and a duration. Scenarios load from YAML files, from
packaged presets (by name), or from dicts; loading resolves every random
choice (headings, opinions) so the resulting config is fully explicit and
reproducible. The resolved form round-trips through the trace header, which
is what makes replay and trace-only metrics possible.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .core import Pose2D
from .metrics import MetricsReport, compute_metrics, write_metrics_json, write_series_csv
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
from .sim import RobotNode, Simulation, WorldState, rect_walls, wall_clearance
from .trace import Trace, trace_from_columns, write_trace

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

DEFAULT_WINDOW_LENGTH = 1.0
DEFAULT_DECISION_DURATION = 20.0


class ScenarioError(ValueError):
    pass


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
    dt: float = 0.1
    extra_walls: list[list[float]] = field(default_factory=list)
    initial_opinions: list[int] | None = None
    staleness_limit: float = DEFAULT_STALENESS_LIMIT

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


_SCENARIO_STREAM = 0
_WALK_STREAM = 1
_VOTER_STREAM = 2


_TOP_KEYS = {
    "name", "platform", "arena", "robots", "pattern",
    "seed", "duration", "dt", "extra_walls", "staleness_limit",
}
_ARENA_KEYS = {"width", "height"}
_PATTERN_KEYS = {"kind", "params"}
_LAYOUT_KEYS = {"layout", "count", "spacing", "headings", "heading_jitter"}


def _known_keys(where: str, mapping, known: set) -> dict:
    """mapping itself, once every key in it is one of known."""
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{where}: {mapping!r} is not a mapping")
    unknown = mapping.keys() - known
    if unknown:
        raise ScenarioError(f"unknown {where} keys: {sorted(unknown, key=str)}")
    return mapping


def _resolve_poses(raw: dict, rng: np.random.Generator) -> list[Pose2D]:
    robots = _known_keys("robot", raw.get("robots") or {}, _LAYOUT_KEYS | {"poses"})
    if "poses" in robots:
        layout = robots.keys() & _LAYOUT_KEYS
        if layout:
            raise ScenarioError(f"robots.poses: layout keys {sorted(layout)} given with the poses")
        poses = [Pose2D(*row) for row in _rows("robots.poses", robots["poses"], 3)]
        if not poses:
            raise ScenarioError("need at least one robot")
        return poses
    layout = robots.get("layout", "line")
    if layout != "line":
        raise ScenarioError(f"unknown layout: {layout!r}")
    count = _whole_number("robots.count", robots.get("count", 1))
    spacing = _number("robots.spacing", robots.get("spacing", 1.0))
    if count < 1 or spacing <= 0:
        raise ScenarioError("bad line layout parameters")
    headings = robots.get("headings", 0.0)
    if headings not in ("random", "inward"):
        listed = headings if isinstance(headings, (list, tuple)) else [headings] * count
        headings = [_number("robots.headings", h) for h in listed]
        if len(headings) != count:
            raise ScenarioError(f"robots.headings: {len(headings)} headings, {count} robots")
    jitter = _number("robots.heading_jitter", robots.get("heading_jitter", 0.0))
    if jitter < 0:
        raise ScenarioError("heading_jitter must be >= 0")
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
            th = headings[i]
        if jitter:
            th += float(rng.uniform(-jitter, jitter))
        poses.append(Pose2D(x, 0.0, th))
    return poses


def _number(key: str, value) -> float:
    # YAML reads true/yes/on as a bool, which float() would take for 1.0.
    if isinstance(value, bool):
        raise ScenarioError(f"{key}: {value!r} is not a number")
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ScenarioError(f"{key}: {value!r} is not a number") from None


def _whole_number(key: str, value) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)  # exact: a float round trip rounds integers above 2**53
    number = _number(key, value)
    if not number.is_integer():
        raise ScenarioError(f"{key}: {value!r} is not a whole number")
    return int(number)


def _positive(key: str, value) -> float:
    number = _number(key, value)
    if not 0 < number < math.inf:
        raise ScenarioError(f"{key}: {value!r} is not a positive finite number")
    return number


def _rows(key: str, rows, width: int) -> list[list[float]]:
    if not isinstance(rows, (list, tuple)):
        raise ScenarioError(f"{key}: {rows!r} is not a list")
    out = []
    for row in rows:
        values = [_number(key, v) for v in row] if isinstance(row, (list, tuple)) else []
        if len(values) != width or not all(map(math.isfinite, values)):
            raise ScenarioError(f"{key}: {row!r} is not a row of {width} finite numbers")
        out.append(values)
    return out


def _whole_numbers(key: str, values) -> list[int]:
    if not isinstance(values, (list, tuple)):
        raise ScenarioError(f"{key}: {values!r} is not a list")
    return [_whole_number(key, v) for v in values]


def _resolve_opinions(
    kind: str, params: dict, count: int, rng: np.random.Generator
) -> list[int] | None:
    if kind not in VOTING_KINDS:
        return None
    raw = params.pop("opinions", "random")
    if kind == "discussed_dispersion":
        choices = sorted(params["mapping"])
    else:
        choices = _whole_numbers("opinion_choices", params.pop("opinion_choices", [0, 1]))
        if not choices:
            raise ScenarioError("opinion_choices: needs at least one opinion")
    if raw == "random":
        return [int(choices[rng.integers(len(choices))]) for _ in range(count)]
    opinions = _whole_numbers("opinions", raw)
    if len(opinions) != count:
        raise ScenarioError("initial opinions must match the robot count")
    return opinions


def _merged_params(platform: str, kind: str, overrides: dict) -> dict:
    params = dict(PATTERN_DEFAULTS.get(platform, {}).get(kind, {}))
    params.update(overrides)
    if kind in VOTING_KINDS:
        params.setdefault("window_length", DEFAULT_WINDOW_LENGTH)
    if kind == "discussed_dispersion":
        params.setdefault("decision_duration", DEFAULT_DECISION_DURATION)
        if "mapping" not in params:
            raise ScenarioError("discussed_dispersion needs an opinion mapping")
        mapping = params["mapping"]
        if not isinstance(mapping, dict):
            raise ScenarioError(f"mapping: {mapping!r} is not an opinion -> distance mapping")
        params["mapping"] = {
            _whole_number("mapping", k): _number(f"mapping[{k!r}]", v) for k, v in mapping.items()
        }
    # NaN passes every range check the configs make (each comparison is
    # False), so a non-finite number is rejected here, in any parameter.
    for key, value in params.items():
        items = value.values() if isinstance(value, dict) else value
        if not isinstance(value, (dict, list, tuple)):
            items = [value]
        if any(isinstance(v, float) and not math.isfinite(v) for v in items):
            raise ScenarioError(f"{kind} parameter {key}: {value!r} holds a non-finite number")
    return params


def load_scenario(
    source: str | Path | dict,
    seed: int | None = None,
    duration: float | None = None,
) -> ScenarioConfig:
    """Load and resolve a scenario from a preset name, YAML path, or dict.

    seed/duration override the file's values before any random choice is
    drawn, so the override fully determines the resolved scenario.
    """
    if isinstance(source, dict):
        raw = dict(source)
    else:
        text = _read_scenario_text(source)
        raw = yaml.safe_load(text)
        if not isinstance(raw, dict):
            raise ScenarioError("scenario file must hold a mapping")
    _known_keys("scenario", raw, _TOP_KEYS)

    name = raw.get("name", "scenario")
    if not isinstance(name, str):
        raise ScenarioError(f"name: {name!r} is not a string")
    platform = raw.get("platform")
    if not isinstance(platform, str) or platform not in PLATFORMS:
        raise UnknownPlatformError(f"unknown platform: {platform!r}")

    pattern = _known_keys("pattern", raw.get("pattern") or {}, _PATTERN_KEYS)
    kind = pattern.get("kind")
    if kind not in PATTERN_KINDS:
        raise ScenarioError(f"unknown pattern kind: {kind!r}")
    overrides = pattern.get("params")
    if overrides is None:
        overrides = {}
    if not isinstance(overrides, dict):
        raise ScenarioError(f"pattern.params: {overrides!r} is not a mapping")
    params = _merged_params(platform, kind, overrides)

    use_seed = _whole_number("seed", raw.get("seed", 0) if seed is None else seed)
    if use_seed < 0:
        raise ScenarioError(f"seed: {use_seed} is negative")
    use_duration = _number("duration", raw.get("duration", 60.0) if duration is None else duration)
    if not 0 <= use_duration < math.inf:
        raise ScenarioError(f"duration: {use_duration!r} is not a finite number >= 0")
    rng = _rng(use_seed, _SCENARIO_STREAM)

    arena = _known_keys("arena", raw.get("arena") or {}, _ARENA_KEYS)
    config = ScenarioConfig(
        name=name,
        platform=platform,
        arena_width=_positive("arena.width", arena.get("width", 18.0)),
        arena_height=_positive("arena.height", arena.get("height", 18.0)),
        poses=_resolve_poses(raw, rng),
        pattern=kind,
        pattern_params=params,
        seed=use_seed,
        duration=use_duration,
        dt=_positive("dt", raw.get("dt", 0.1)),
        extra_walls=_rows("extra_walls", raw.get("extra_walls", []), 4),
        staleness_limit=_positive(
            "staleness_limit", raw.get("staleness_limit", DEFAULT_STALENESS_LIMIT)
        ),
    )
    config.initial_opinions = _resolve_opinions(kind, params, len(config.poses), rng)
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


def validate_scenario(config: ScenarioConfig) -> None:
    spec = config.spec
    half_w = config.arena_width / 2.0
    half_h = config.arena_height / 2.0
    walls = config.walls()
    for i, pose in enumerate(config.poses):
        if abs(pose.x) > half_w - spec.body_radius or abs(pose.y) > half_h - spec.body_radius:
            raise PoseOutsideArenaError(f"robot {i} starts outside the arena: {pose}")
        if wall_clearance(pose.x, pose.y, walls) < spec.body_radius:
            raise PoseOutsideArenaError(f"robot {i} starts inside a wall: {pose}")

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
    # Building one behavior rejects unknown keys, builder and run-time
    # fields among the parameters, and out-of-range values.
    try:
        _build_behavior(config, 0)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"bad {kind} parameters: {exc}") from exc
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
    mapping = config.pattern_params.get("mapping")
    params = dict(config.pattern_params)
    if mapping is not None:
        params["mapping"] = {str(k): float(v) for k, v in mapping.items()}
    return {
        "format": "swarmsim-trace",
        "version": 1,
        "scenario": {
            "name": config.name,
            "platform": config.platform,
            "platform_spec": asdict(spec),
            "arena": [config.arena_width, config.arena_height],
            "extra_walls": config.extra_walls,
            "walls": [[float(v) for v in row] for row in config.walls()],
            "poses": [[p.x, p.y, p.theta] for p in config.poses],
            "robot_ids": list(range(len(config.poses))),
            "radii": [spec.body_radius] * len(config.poses),
            "pattern": config.pattern,
            "pattern_params": params,
            "initial_opinions": config.initial_opinions,
            "seed": config.seed,
            "duration": config.duration,
            "dt": config.dt,
            "staleness_limit": config.staleness_limit,
        },
    }


def from_meta(meta: dict) -> ScenarioConfig:
    """The scenario a trace header records, resolved again by load_scenario.

    Fails if the header's platform_spec differs from the packaged preset.
    """
    sc = meta["scenario"]
    params = dict(sc["pattern_params"])
    if sc["initial_opinions"] is not None:
        params["opinions"] = sc["initial_opinions"]
    width, height = sc["arena"]
    keys = ("name", "platform", "seed", "duration", "dt", "extra_walls", "staleness_limit")
    raw = {key: sc[key] for key in keys}
    raw["arena"] = {"width": width, "height": height}
    raw["robots"] = {"poses": sc["poses"]}
    raw["pattern"] = {"kind": sc["pattern"], "params": params}
    config = load_scenario(raw)
    recorded, preset = sc["platform_spec"], asdict(config.spec)
    differ = sorted(k for k in recorded.keys() | preset.keys() if recorded.get(k) != preset.get(k))
    if differ:
        raise ScenarioError(
            f"trace platform_spec differs from the {config.platform} preset: "
            + ", ".join(f"{k} {recorded.get(k)!r} != {preset.get(k)!r}" for k in differ)
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
