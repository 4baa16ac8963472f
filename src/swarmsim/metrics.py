"""Aggregate metrics, computed purely from a trace.

Series are aligned with recorded ticks (one entry per tick). Clearance uses
the same convention as the range sensor: distance from a robot's center to
the nearest obstacle surface (wall segment, or another body's circle).

Memory stays O(rows) plus one block: the pairwise and wall terms are
computed over blocks of ticks holding at most BLOCK_CELLS (tick, robot,
robot or wall) cells, and the series file is written in blocks of rows.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import segment_distances
from .trace import Trace, block_rows

# Pair and wall distance cells held at a time: a block of b ticks holds the
# (b, R, R) robot distances and the (b, R, S) wall distances.
BLOCK_CELLS = 1 << 18


@dataclass
class MetricsReport:
    robot_ids: list[int]
    clock: np.ndarray
    mean_distance_to_centroid: np.ndarray
    min_pairwise_distance: np.ndarray
    clearance: np.ndarray  # (ticks, robots)
    collision_count: int
    opinion_windows: list[dict[int, int]] | None
    consensus_time: float | None

    @property
    def tick_count(self) -> int:
        return len(self.clock)


def compute_metrics(trace: Trace) -> MetricsReport:
    scenario = trace.meta["scenario"]
    robot_ids = [int(r) for r in scenario["robot_ids"]]
    radii = np.asarray(scenario["radii"], dtype=float)
    walls = np.asarray(scenario["walls"], dtype=float).reshape(-1, 4)
    dt = float(scenario["dt"])
    R = len(robot_ids)

    n = len(trace.tick)
    T = n // R if R else 0
    if n != T * R:
        raise ValueError("trace rows do not form complete ticks")

    if T == 0:
        return MetricsReport(
            robot_ids=robot_ids,
            clock=np.empty(0),
            mean_distance_to_centroid=np.empty(0),
            min_pairwise_distance=np.empty(0),
            clearance=np.empty((0, R)),
            collision_count=0,
            opinion_windows=[] if _window_length(scenario) else None,
            consensus_time=None,
        )

    order = np.lexsort((trace.robot, trace.tick))
    _check_tick_grid(trace.tick[order].reshape(T, R), trace.robot[order].reshape(T, R))
    xs = trace.x[order].reshape(T, R)
    ys = trace.y[order].reshape(T, R)
    clock = trace.clock[order].reshape(T, R)[:, 0]
    opinions = trace.opinion[order].reshape(T, R)

    mean_dist = _mean_distance_to_centroid(xs, ys)

    min_pairwise = np.empty(T)
    clearance = np.empty((T, R))
    collisions = 0
    diagonal = np.arange(R)
    contact = radii[:, None] + radii
    step = max(1, BLOCK_CELLS // (R * (R + len(walls))))
    for start in range(0, T, step):
        ticks = slice(start, start + step)
        bx, by = xs[ticks], ys[ticks]
        # (b, R, R) center distances; a robot is not its own neighbour, so
        # the diagonal is inf (all of it when R = 1).
        pair = bx[:, :, None] - bx[:, None, :]
        np.hypot(pair, by[:, :, None] - by[:, None, :], out=pair)
        pair[:, diagonal, diagonal] = np.inf
        min_pairwise[ticks] = pair.min(axis=(1, 2))
        collisions += int(np.count_nonzero(pair < contact))
        pair -= radii  # now the distance to each neighbour's surface
        wall_clear = segment_distances(bx[..., None], by[..., None], walls)
        np.minimum(wall_clear.min(axis=2, initial=np.inf), pair.min(axis=2), out=clearance[ticks])
    collision_count = collisions // 2

    window_length = _window_length(scenario)
    has_opinions = not np.isnan(opinions).all()
    opinion_windows: list[dict[int, int]] | None = None
    if window_length and has_opinions:
        opinion_windows = []
        # Tick t runs at t*dt and lands in row t; window k closes at the
        # first tick time >= (k+1)*L, the same comparison the robots make.
        tick_times = np.arange(T) * dt
        k = 0
        while True:
            boundary = (k + 1) * window_length
            t_idx = int(np.searchsorted(tick_times, boundary, side="left"))
            if t_idx >= T:
                break
            row = opinions[t_idx]
            opinion_windows.append(dict(Counter(int(v) for v in row[~np.isnan(row)])))
            k += 1

    consensus_time: float | None = None
    if has_opinions:
        for t in range(T):
            row = opinions[t]
            if not np.isnan(row).any() and np.all(row == row[0]):
                consensus_time = float(clock[t])
                break

    return MetricsReport(
        robot_ids=robot_ids,
        clock=clock,
        mean_distance_to_centroid=mean_dist,
        min_pairwise_distance=min_pairwise,
        clearance=clearance,
        collision_count=collision_count,
        opinion_windows=opinion_windows,
        consensus_time=consensus_time,
    )


def _check_tick_grid(ticks: np.ndarray, robots: np.ndarray) -> None:
    """Sorted (T, R) tick and robot cells must hold robots 0..R-1 once per tick."""
    R = robots.shape[1]
    bad = (robots != np.arange(R)) | (ticks != ticks[:, :1])
    bad[1:, 0] |= ticks[1:, 0] <= ticks[:-1, 0]
    if bad.any():
        t, i = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValueError(
            f"trace rows do not form complete ticks: tick {ticks[t, i]}, robot {robots[t, i]}"
            f" is out of place; each tick needs one row for each of robots 0..{R - 1}"
        )


def _mean_distance_to_centroid(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Mean distance of the points in each row (last axis) to their centroid."""
    cx = xs.mean(axis=-1, keepdims=True)
    cy = ys.mean(axis=-1, keepdims=True)
    return np.hypot(xs - cx, ys - cy).mean(axis=-1)


def initial_spread(trace: Trace) -> float:
    """Mean distance to the centroid of the start poses the header records."""
    xs, ys, _ = np.asarray(trace.meta["scenario"]["poses"], dtype=float).T
    return float(_mean_distance_to_centroid(xs, ys))


def _window_length(scenario: dict) -> float | None:
    params = scenario.get("pattern_params") or {}
    wl = params.get("window_length")
    return float(wl) if wl else None


def _json_safe(value):
    if value is None:
        return None
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_metrics_json(report: MetricsReport, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    final_mean = float(report.mean_distance_to_centroid[-1]) if report.tick_count else None
    final_pair = float(report.min_pairwise_distance[-1]) if report.tick_count else None
    payload = {
        "tick_count": report.tick_count,
        "robot_ids": report.robot_ids,
        "collision_count": report.collision_count,
        "consensus_time": report.consensus_time,
        "final_mean_distance_to_centroid": _json_safe(final_mean),
        "final_min_pairwise_distance": _json_safe(final_pair),
        "min_clearance_per_robot": [
            _json_safe(float(report.clearance[:, i].min())) if report.tick_count else None
            for i in range(len(report.robot_ids))
        ],
        "opinion_windows": (
            None
            if report.opinion_windows is None
            else [{str(k): v for k, v in hist.items()} for hist in report.opinion_windows]
        ),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def write_series_csv(report: MetricsReport, path: str | Path) -> Path:
    """Plot-ready column file: one row per tick."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = ["clock", "mean_distance_to_centroid", "min_pairwise_distance"]
    header += [f"clearance_r{rid}" for rid in report.robot_ids]
    row_format = ",".join(["%r"] * len(header)) + "\n"
    step = block_rows(len(header))
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, report.tick_count, step):
            ticks = slice(start, start + step)
            stacked = np.column_stack((
                report.clock[ticks],
                report.mean_distance_to_centroid[ticks],
                report.min_pairwise_distance[ticks],
                report.clearance[ticks],
            ))
            # tolist() gives Python floats: "%r" of a numpy float prints np.float64(...)
            rows = stacked.astype(float, copy=False).tolist()
            fh.writelines(row_format % tuple(row) for row in rows)
    return path
