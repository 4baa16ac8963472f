"""Seeded inputs for the benchmark workloads.

Every generator here is a pure function of its seed: the same seed gives the
same scenario dict or the same synthetic trace columns. The program under
test only ever receives these generated inputs.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

DEFAULT_SEED = 0
DT = 0.1

# aggregation: the paper's experiment, shortened from 3000 to 600 ticks.
AGGREGATION_PRESET = "experiment1-waffle"
AGGREGATION_DURATION = 60.0

# crowd: a 7 x 7 grid, 1.3 m apart. The gap between bodies (at least 0.7 m
# after jitter) stays above the 0.5 m protection threshold, so protection is
# idle while raycast cost grows with R^2.
CROWD_SIDE = 7
CROWD_SPACING = 1.3
CROWD_JITTER = 0.15
CROWD_DURATION = 6.0
CROWD_DECISION = 3.0

# postprocess: a synthetic trace of 100 robots over 300 ticks. Every stage
# is linear in rows, so this keeps their balance while a 30 s run holds
# enough operations for a tail percentile.
POST_SIDE = 10
POST_SPACING = 1.2
POST_TICKS = 300
POST_DECISION_TICKS = 60

# opinion -> dispersion range for both discussed_dispersion scenarios
MAPPING = {0: 1.0, 1: 1.5, 2: 2.0}

_CROWD_STREAM = 101
_POST_STREAM = 102


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _grid(rng: np.random.Generator, side: int, spacing: float, jitter: float) -> list[list[float]]:
    offset = (side - 1) / 2.0
    poses = []
    for i in range(side):
        for j in range(side):
            poses.append(
                [
                    (i - offset) * spacing + float(rng.uniform(-jitter, jitter)),
                    (j - offset) * spacing + float(rng.uniform(-jitter, jitter)),
                    float(rng.uniform(-math.pi, math.pi)),
                ]
            )
    return poses


def _dispersion_scenario(name: str, poses: list, decision: float, duration: float, seed: int) -> dict:
    return {
        "name": name,
        "platform": "turtlebot3_waffle_pi",
        "arena": {"width": 18.0, "height": 18.0},
        "robots": {"poses": poses},
        "pattern": {
            "kind": "discussed_dispersion",
            "params": {
                "decision_duration": decision,
                "window_length": 1.0,
                "mapping": dict(MAPPING),
                "opinions": "random",
            },
        },
        "seed": seed,
        "duration": duration,
        "dt": DT,
    }


def crowd_scenario(seed: int) -> dict:
    """49 robots in a jittered grid voting, then dispersing at the agreed range."""
    poses = _grid(_rng(seed, _CROWD_STREAM), CROWD_SIDE, CROWD_SPACING, CROWD_JITTER)
    return _dispersion_scenario("crowd", poses, CROWD_DECISION, CROWD_DURATION, seed)


def postprocess_scenario(seed: int) -> dict:
    """The scenario whose header the synthetic trace carries."""
    poses = _grid(_rng(seed, _POST_STREAM), POST_SIDE, POST_SPACING, 0.1)
    return _dispersion_scenario(
        "postprocess", poses, POST_DECISION_TICKS * DT, POST_TICKS * DT, seed
    )


def synthetic_columns(config, column_names, seed: int) -> SimpleNamespace:
    """Trace columns shaped like a recorded run of ``config``.

    Rows are tick-major with robots in id order, as Simulation records them.
    Robots drift by a seeded random walk from their start poses; pattern
    commands are empty during the decision phase; opinions change only at
    window boundaries.
    """
    rng = _rng(seed, _POST_STREAM + 1)
    R = len(config.poses)
    T = config.tick_count()
    half_w = config.arena_width / 2.0 - 0.5
    half_h = config.arena_height / 2.0 - 0.5
    start = np.array([[p.x, p.y, p.theta] for p in config.poses])

    x = np.clip(start[:, 0] + np.cumsum(rng.normal(0.0, 0.01, (T, R)), axis=0), -half_w, half_w)
    y = np.clip(start[:, 1] + np.cumsum(rng.normal(0.0, 0.01, (T, R)), axis=0), -half_h, half_h)
    theta = start[:, 2] + np.cumsum(rng.normal(0.0, 0.05, (T, R)), axis=0)
    theta = np.arctan2(np.sin(theta), np.cos(theta))

    ticks = np.arange(1, T + 1)
    moving = (ticks > POST_DECISION_TICKS)[:, None]
    pattern_linear = np.where(moving, rng.uniform(0.0, 0.26, (T, R)), np.nan)
    pattern_angular = np.where(moving, rng.uniform(-1.82, 1.82, (T, R)), np.nan)
    suppressed = rng.random((T, R)) < 0.05
    cmd_linear = np.where(suppressed, rng.uniform(0.0, 0.26, (T, R)), pattern_linear)
    cmd_angular = np.where(suppressed, rng.uniform(-1.82, 1.82, (T, R)), pattern_angular)
    cmd_linear = np.where(np.isnan(cmd_linear), 0.0, cmd_linear)
    cmd_angular = np.where(np.isnan(cmd_angular), 0.0, cmd_angular)

    choices = np.array(sorted(config.pattern_params["mapping"]), dtype=float)
    opinion = np.empty((T, R))
    current = np.array(config.initial_opinions, dtype=float)
    window_ticks = int(round(config.pattern_params["window_length"] / config.dt))
    for t in range(T):
        if (t + 1) % window_ticks == 0:
            flip = rng.random(R) < 0.2
            current = np.where(flip, rng.choice(choices, R), current)
        opinion[t] = current

    values = {
        "tick": np.repeat(ticks, R).tolist(),
        "robot": np.tile(np.arange(R), T).tolist(),
        "clock": [float(t) * config.dt for t in np.repeat(ticks, R).tolist()],
        "x": x.ravel().tolist(),
        "y": y.ravel().tolist(),
        "theta": theta.ravel().tolist(),
        "pattern_linear": pattern_linear.ravel().tolist(),
        "pattern_angular": pattern_angular.ravel().tolist(),
        "cmd_linear": cmd_linear.ravel().tolist(),
        "cmd_angular": cmd_angular.ravel().tolist(),
        "suppressed": suppressed.ravel().astype(int).tolist(),
        "opinion": opinion.ravel().tolist(),
    }
    missing = set(column_names) - set(values)
    if missing:
        raise ValueError(f"trace schema has columns the generator does not know: {sorted(missing)}")
    return SimpleNamespace(**{name: values[name] for name in column_names})
