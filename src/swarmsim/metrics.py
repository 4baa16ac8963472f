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

from .core import near_pairs, segment_distances
from .trace import Trace, block_rows, float_texts, text_cells, write_rows
from .typed import POSITIVE, load_typed

# Pair and wall distance cells held at a time: a block of b ticks holds the
# (b, R, R) robot distances and the (b, R, S) wall distances.
BLOCK_CELLS = 1 << 18
# The cell grid's candidate pairs a (tick, robot) row may take on average,
# and how many times a block's cell side may shrink to stay under it (each
# time by 0.9 or more; by about 7 where 2,500 robots share a cell).
_PAIR_BUDGET = 32
_SHRINKS = 16


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
    if not isinstance(meta.get("scenario"), dict):
        raise ValueError("trace header has no scenario")
    missing = [key for key in keys if key not in meta["scenario"]]
    if missing:
        raise ValueError(f"trace header has no scenario.{missing[0]}")
    return meta["scenario"]


def _header_value(scenario: dict, key: str, typ):
    """scenario[key] loaded as a typ, or a ScenarioError (a ValueError)
    naming its path, such as trace header scenario.radii."""
    return load_typed(f"trace header scenario.{key}", typ, scenario[key])


def compute_metrics(trace: Trace) -> MetricsReport:
    scenario = header_scenario(trace.meta, "robot_ids", "radii", "walls", "dt")
    robot_ids = _header_value(scenario, "robot_ids", list[int])
    radii = np.array(_header_value(scenario, "radii", list[float]), dtype=float)
    walls = _header_value(scenario, "walls", list[tuple[float, float, float, float]])
    walls = np.array(walls, dtype=float).reshape(-1, 4)
    dt = _header_value(scenario, "dt", POSITIVE)
    params = load_typed(
        "trace header scenario.pattern_params", dict, scenario.get("pattern_params")
    )
    window_length = load_typed(
        "trace header scenario.pattern_params.window_length",
        float,
        params.get("window_length") or 0,
    )
    R = len(robot_ids)
    if len(radii) != R:
        raise ValueError(f"trace header scenario.radii has {len(radii)} radii for {R} robot_ids")

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

    min_pairwise = np.empty(T)
    clearance = np.empty((T, R))
    collisions = 0
    step = max(1, BLOCK_CELLS // (R * (R + len(walls)) or 1))
    # A non-finite position gives NaN terms (inf - inf, inf * 0), as the
    # one-array reference does; numpy's warning on each says nothing more.
    with np.errstate(invalid="ignore"):
        mean_dist = _mean_distance_to_centroid(xs, ys)
        for start in range(0, T, step):
            ticks = slice(start, start + step)
            bx, by = xs[ticks], ys[ticks]
            # pairs from the cell grid where it can, the (b, R, R) pass where not
            near, surface, hits = _near_pair_terms(bx, by, radii) or _dense_rows(
                bx, by, radii, np.arange(bx.size)
            )
            min_pairwise[ticks] = near.reshape(-1, R).min(axis=1)
            surface = surface.reshape(-1, R)
            collisions += hits
            wall_clear = segment_distances(bx[..., None], by[..., None], walls)
            np.minimum(wall_clear.min(axis=2, initial=np.inf), surface, out=clearance[ticks])
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


def _cell_side(bx: np.ndarray, by: np.ndarray, radii: np.ndarray) -> float:
    """near_pairs' first cell side for a (b, R) block of positions: 1.3 mean
    spacings of a tick's R robots over the block's bounding box, and no less
    than the largest contact distance. NaN or inf where a position is not
    finite, or the box overflows."""
    R = bx.shape[1]
    w, h = np.ptp(bx), np.ptp(by)
    # the spacing of R robots over an area, or along a line
    spacing = np.maximum(np.sqrt(w * h / R), np.maximum(w, h) / R)
    return float(np.maximum(1.3 * spacing, 2 * radii.max())) * (1 + 1e-9)


def _near_pair_terms(bx: np.ndarray, by: np.ndarray, radii: np.ndarray):
    """_dense_rows' terms for every row of a (b, R) block of positions, from
    the pairs of near_pairs' cells; None where the block has a non-finite
    position, or no side gives few enough candidates.

    Each pair term is the dense pass's expression and min is exact, so a
    row's minima over its candidates are its dense minima wherever no other
    robot can be nearer: a robot that is no candidate lies more than
    side * (1 - 1e-10) away in x or y, so its rounded distance exceeds
    side * (1 - 1e-9), and its surface lies that less the largest radius
    away. A row whose minima do not clear those takes its dense row. Every
    colliding pair is a candidate, as the side is at least the largest
    contact distance.

    Robots bunched in a small part of the bounding box (a pile and a few
    stragglers, a far outlier) would give coarse cells holding most of the
    swarm: over _PAIR_BUDGET candidates a row, the side shrinks to where
    the budget would hold for robots spread evenly, no lower than the
    contact distance and at most _SHRINKS times, and the stragglers take
    their dense rows.
    """
    b, R = bx.shape
    side = _cell_side(bx, by, radii)
    if not 0 < side < math.inf:
        return None
    x, y, group = bx.ravel(), by.ravel(), np.repeat(np.arange(b), R)
    least = 2 * radii.max() * (1 + 1e-9)
    limit = _PAIR_BUDGET * x.size
    for _ in range(_SHRINKS + 1):
        pairs = near_pairs(x, y, side, group, limit)
        if not isinstance(pairs, int) or side <= least:
            break
        # where robots are dense, their candidates grow as the side squared
        side = max(side * 0.9 * math.sqrt(limit / pairs), least)
    if isinstance(pairs, int):
        return None
    a, o = pairs
    d = np.hypot(x[a] - x[o], y[a] - y[o])
    r = np.tile(radii, b)
    hits = int(np.count_nonzero(d < r[a] + r[o]))
    near = np.full(b * R, np.inf)
    surface = np.full(b * R, np.inf)
    if a.size:
        first = np.flatnonzero(np.diff(a, prepend=-1))
        near[a[first]] = np.minimum.reduceat(d, first)
        surface[a[first]] = np.minimum.reduceat(d - r[o], first)
    cut = side * (1 - 1e-9)
    (far,) = np.nonzero((near > cut) | (surface > cut - radii.max()))
    if far.size:
        near[far], surface[far], _ = _dense_rows(bx, by, radii, far)
    return near, surface, hits


def _dense_rows(bx: np.ndarray, by: np.ndarray, radii: np.ndarray, rows: np.ndarray):
    """For the given flat (tick, robot) rows of a (b, R) block of positions,
    the distances to the nearest other centre and to the nearest other
    surface, and the number of ordered colliding pairs among them."""
    t, i = np.divmod(rows, bx.shape[1])
    # (rows, R) center distances, in two arrays like a (b, R, R) block's;
    # a robot is not its own neighbour, so its own cell is inf.
    row = bx[t]
    np.subtract(bx[t, i, None], row, out=row)
    other = by[t]
    np.subtract(by[t, i, None], other, out=other)
    np.hypot(row, other, out=row)
    row[np.arange(rows.size), i] = np.inf
    np.add(radii[i, None], radii, out=other)  # contact distances
    hits = int(np.count_nonzero(row < other))
    near = row.min(axis=1)
    row -= radii  # now the distance to each neighbour's surface
    return near, row.min(axis=1), hits


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
    scenario = header_scenario(trace.meta, "poses")
    poses = _header_value(scenario, "poses", list[tuple[float, float, float]])
    xs, ys, _ = np.array(poses, dtype=float).reshape(-1, 3).T
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
