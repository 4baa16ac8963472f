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
from functools import partial
from pathlib import Path

import numpy as np

from .core import segment_distances
from .trace import Trace, block_rows, float_texts, text_cells, write_rows

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


def header_scenario(meta: dict, *keys: str) -> dict:
    """The scenario of a trace header; a key of `keys` that it lacks raises a
    ValueError naming the key's path, such as scenario.radii."""
    if "scenario" not in meta:
        raise ValueError("trace header has no scenario")
    missing = [key for key in keys if key not in meta["scenario"]]
    if missing:
        raise ValueError(f"trace header has no scenario.{missing[0]}")
    return meta["scenario"]


def compute_metrics(trace: Trace) -> MetricsReport:
    scenario = header_scenario(trace.meta, "robot_ids", "radii", "walls", "dt")
    robot_ids = [int(r) for r in scenario["robot_ids"]]
    radii = np.asarray(scenario["radii"], dtype=float)
    walls = np.asarray(scenario["walls"], dtype=float).reshape(-1, 4)
    dt = float(scenario["dt"])
    window_length = float((scenario.get("pattern_params") or {}).get("window_length") or 0)
    R = len(robot_ids)

    n = len(trace.tick)
    T = n // R if R else 0
    if n != T * R:
        raise ValueError("trace rows do not form complete ticks")

    # Rows as every writer lays them out: tick-major, robots 0..R-1.
    _check_tick_grid(trace.tick.reshape(T, R), trace.robot.reshape(T, R))
    xs = trace.x.reshape(T, R)
    ys = trace.y.reshape(T, R)
    clock = trace.clock.reshape(T, R)[:, :1].reshape(T)
    opinions = trace.opinion.reshape(T, R)

    mean_dist = _mean_distance_to_centroid(xs, ys)

    min_pairwise = np.empty(T)
    clearance = np.empty((T, R))
    collisions = 0
    diagonal = np.arange(R)
    contact = radii[:, None] + radii
    step = max(1, BLOCK_CELLS // (R * (R + len(walls)) or 1))
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

    movement_only = opinions.size and np.isnan(opinions).all()  # rows, but no opinion cell
    opinion_windows: list[dict[int, int]] | None = None
    if window_length and not movement_only:
        # Tick t runs at t*dt and lands in row t; window k closes at the
        # first tick time >= (k+1)*L, the same comparison the robots make.
        # Boundaries up to T*dt reach past the last tick time, (T-1)*dt.
        boundaries = np.arange(1, int(T * dt / window_length) + 1) * window_length
        closing = np.searchsorted(np.arange(T) * dt, boundaries)
        rows = opinions[closing[closing < T]]
        opinion_windows = [dict(Counter(int(v) for v in row[~np.isnan(row)])) for row in rows]

    # NaN equals nothing, so a row where a robot has not voted never agrees
    agreed = np.flatnonzero((opinions == opinions[:, :1]).all(axis=1))
    consensus_time = float(clock[agreed[0]]) if agreed.size else None

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
    """(T, R) tick and robot cells must hold robots 0..R-1 in order once per tick."""
    R = robots.shape[1]
    bad = (robots != np.arange(R)) | (ticks != ticks[:, :1])
    bad[1:, :1] |= ticks[1:, :1] <= ticks[:-1, :1]
    if bad.any():
        t, i = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValueError(
            f"trace rows do not form complete ticks: tick {ticks[t, i]}, robot {robots[t, i]}"
            f" is out of place; each tick needs one row for each of robots 0..{R - 1}"
        )


def _mean_distance_to_centroid(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Mean distance of the points in each row (last axis) to their centroid."""
    # np.mean's own sum / count, without its warning on a header with no robots
    count = xs.shape[-1]
    cx = xs.sum(axis=-1, keepdims=True) / count
    cy = ys.sum(axis=-1, keepdims=True) / count
    return np.hypot(xs - cx, ys - cy).sum(axis=-1) / count


def initial_spread(trace: Trace) -> float:
    """Mean distance to the centroid of the start poses the header records."""
    xs, ys, _ = np.asarray(header_scenario(trace.meta, "poses")["poses"], dtype=float).T
    return float(_mean_distance_to_centroid(xs, ys))


def _json_safe(value):
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
            _json_safe(float(v)) for v in report.clearance.min(axis=0, initial=np.inf)
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
    step = block_rows(len(header))
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, report.tick_count, step):
            ticks = slice(start, start + step)
            # one row per series column, as the bits of its floats
            bits = np.vstack(
                (
                    report.clock[ticks],
                    report.mean_distance_to_centroid[ticks],
                    report.min_pairwise_distance[ticks],
                    report.clearance[ticks].T,
                ),
                dtype=float,
            ).view(np.int64)
            cells = text_cells(bits[:-1], float_texts)
            cells.append(text_cells(bits[-1], partial(float_texts, end="\n")))
            write_rows(fh, cells)
    return path
