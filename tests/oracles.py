"""Independent numerical oracles for kinematics and ray casting tests.

These deliberately avoid the closed-form solutions used by the simulator:
pose integration is checked against a classical RK4 integrator run at a
fine substep, and ray casting against a brute-force marching sampler.
``potential_field_reference``, ``segment_distances_reference``,
``trace_rows_reference``, ``pair_metrics_reference``,
``opinion_windows_reference`` and ``consensus_time_reference`` are the
exceptions: they are the plain forms of ``potential_field``,
``segment_distances``, the trace writer's rows, the metrics' pairwise terms,
opinion windows and consensus time, kept to check the fast ones bit for bit.
The plain form of a whole simulator tick is ``reference_sim.reference_run``.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from swarmsim.core import REPULSIVE, ZERO_VECTOR, Vector2
from swarmsim.sim import rect_walls, wall_clearance
from swarmsim.trace import COLUMN_NAMES


def rk4_pose(x, y, theta, v, w, dt, substeps: int = 1000):
    """RK4 integration of the unicycle ODE, vectorized over maneuvers.

    State derivative: x' = v cos(theta), y' = v sin(theta), theta' = w.
    All arguments broadcast; returns (x, y, theta) arrays after time dt.
    """
    x = np.asarray(x, dtype=float).copy()
    y = np.asarray(y, dtype=float).copy()
    theta = np.asarray(theta, dtype=float).copy()
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    h = np.asarray(dt, dtype=float) / substeps

    for _ in range(substeps):
        k1x, k1y, k1t = v * np.cos(theta), v * np.sin(theta), w
        t2 = theta + 0.5 * h * k1t
        k2x, k2y, k2t = v * np.cos(t2), v * np.sin(t2), w
        t3 = theta + 0.5 * h * k2t
        k3x, k3y, k3t = v * np.cos(t3), v * np.sin(t3), w
        t4 = theta + h * k3t
        k4x, k4y, k4t = v * np.cos(t4), v * np.sin(t4), w
        x = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        y = y + (h / 6.0) * (k1y + 2 * k2y + 2 * k3y + k4y)
        theta = theta + (h / 6.0) * (k1t + 2 * k2t + 2 * k3t + k4t)
    return x, y, theta


def potential_field_reference(scan, effect_range, polarity):
    """potential_field as plain numpy: the valid mask, np.clip on the
    weights, cos/sin of the considered bearings and np.sum."""
    r = scan.ranges
    considered = scan.valid_mask() & (r <= effect_range)
    if not considered.any():
        return ZERO_VECTOR
    span = effect_range - scan.range_min
    if span > 0:
        w = np.clip((effect_range - r[considered]) / span, 0.0, 1.0)
    else:
        w = np.ones(int(considered.sum()))
    theta = scan.bearings()[considered]
    fx = float(np.sum(w * np.cos(theta)))
    fy = float(np.sum(w * np.sin(theta)))
    if polarity == REPULSIVE:
        return Vector2(-fx, -fy)
    return Vector2(fx, fy)


def segment_distances_reference(px, py, walls):
    """segment_distances with np.clip and the zero-length wall guard on every call."""
    ax, ay = walls[:, 0], walls[:, 1]
    ex, ey = walls[:, 2] - ax, walls[:, 3] - ay
    L2 = ex * ex + ey * ey
    with np.errstate(divide="ignore", invalid="ignore"):
        s = ((px - ax) * ex + (py - ay) * ey) / L2
    s = np.clip(np.where(L2 > 0, s, 0.0), 0.0, 1.0)
    return np.hypot(px - (ax + s * ex), py - (ay + s * ey))


def trace_rows_reference(trace) -> str:
    """The data rows of a trace file, formatted one cell at a time:
    repr(float(v)), str(int(v)), and "" or str(int(v)) for the opinion."""
    int_columns = {"tick", "robot", "suppressed"}

    def cell(name, value):
        if name == "opinion":
            return "" if math.isnan(value) else str(int(value))
        return str(int(value)) if name in int_columns else repr(float(value))

    columns = [getattr(trace, name) for name in COLUMN_NAMES]
    return "".join(
        ",".join(cell(name, value) for name, value in zip(COLUMN_NAMES, row)) + "\n"
        for row in zip(*columns)
    )


def pair_metrics_reference(xs, ys, radii, walls=np.empty((0, 4))):
    """Minimum pairwise distance per tick, the clearance per (tick, robot)
    and the collision count, from (T, R) positions, as one (T, R, R) array
    with the self pairs masked by an identity matrix and R = 1 handled
    apart; the clearance is the nearer of the robot-surface term and the
    (T, R, S) wall term."""
    T, R = xs.shape
    with np.errstate(invalid="ignore"):  # inf - inf where a position is inf
        pair = np.hypot(xs[:, :, None] - xs[:, None, :], ys[:, :, None] - ys[:, None, :])
    eye = np.eye(R, dtype=bool)
    pair_masked = np.where(eye[None, :, :], np.inf, pair)
    if R > 1:
        min_pairwise = pair_masked.min(axis=(1, 2))
        robot_clear = (pair_masked - radii[None, None, :]).min(axis=2)
    else:
        min_pairwise = np.full(T, np.inf)
        robot_clear = np.full((T, R), np.inf)
    wall_clear = np.full((T, R), np.inf)
    if len(walls):
        wall_clear = segment_distances_reference(xs[..., None], ys[..., None], walls).min(axis=2)
    sum_radii = radii[:, None] + radii[None, :]
    overlaps = (pair < sum_radii[None, :, :]) & ~eye[None, :, :]
    return min_pairwise, np.minimum(wall_clear, robot_clear), int(overlaps.sum()) // 2


def opinion_windows_reference(opinions, dt, window_length):
    """Opinion histograms from (T, R) opinions, one window at a time: window
    k closes at the first tick time t*dt >= (k+1)*window_length, and its
    histogram counts that row's opinions. None without a window length, or
    for a trace with rows but no opinion cell."""
    if not window_length or (opinions.size and np.isnan(opinions).all()):
        return None
    windows = []
    tick_times = np.arange(len(opinions)) * dt
    k = 0
    while True:
        boundary = (k + 1) * window_length
        t_idx = int(np.searchsorted(tick_times, boundary, side="left"))
        if t_idx >= len(opinions):
            return windows
        row = opinions[t_idx]
        windows.append(dict(Counter(int(v) for v in row[~np.isnan(row)])))
        k += 1


def consensus_time_reference(opinions, clock):
    """Clock of the first (T, R) opinion row, tick by tick, that has every
    robot's opinion and all of them equal; None if no row has."""
    for t in range(len(opinions)):
        row = opinions[t]
        if not np.isnan(row).any() and np.all(row == row[0]):
            return float(clock[t])
    return None


def marching_raycast(origin, heading, beam_count, walls, circles, step=1e-3, cap=12.0):
    """First-hit distance per beam by marching sample points along each ray.

    Circle hits are detected by point-in-disc tests; wall hits by a sign
    change of the point-vs-line side function between consecutive samples
    while the crossing lies within the segment span. Reported distances sit
    at most one step beyond the true hit. Beams with no hit within cap give
    inf.
    """
    ox, oy = origin
    angles = heading + (math.tau / beam_count) * np.arange(beam_count)
    dx, dy = np.cos(angles), np.sin(angles)
    t = np.arange(int(round(cap / step)) + 1) * step
    px = ox + dx[:, None] * t[None, :]
    py = oy + dy[:, None] * t[None, :]
    hit = np.zeros(px.shape, dtype=bool)

    for cx, cy, r in np.asarray(circles, dtype=float).reshape(-1, 3):
        hit |= (px - cx) ** 2 + (py - cy) ** 2 <= r * r

    for ax, ay, bx, by in np.asarray(walls, dtype=float).reshape(-1, 4):
        ex, ey = bx - ax, by - ay
        length_sq = ex * ex + ey * ey
        side = (px - ax) * ey - (py - ay) * ex
        span = ((px - ax) * ex + (py - ay) * ey) / length_sq
        sign_change = side[:, :-1] * side[:, 1:] <= 0.0
        lo = np.minimum(span[:, :-1], span[:, 1:])
        hi = np.maximum(span[:, :-1], span[:, 1:])
        hit[:, 1:] |= sign_change & (lo <= 1.0) & (hi >= 0.0)

    dist = t[np.argmax(hit, axis=1)]
    dist[~hit.any(axis=1)] = np.inf
    return dist


def random_scene(rng):
    """Random walled arena with interior segments and circular obstacles.

    Returns (origin, heading, beam_count, walls, circles) with the origin
    guaranteed at least 5 cm clear of every obstacle so marching starts
    outside everything.
    """
    width = rng.uniform(4.0, 8.0)
    height = rng.uniform(4.0, 8.0)
    walls = rect_walls(width, height)

    segments = []
    for _ in range(rng.integers(0, 3)):
        x0 = rng.uniform(-0.4 * width, 0.4 * width)
        y0 = rng.uniform(-0.4 * height, 0.4 * height)
        ang = rng.uniform(0.0, math.tau)
        length = rng.uniform(0.5, 3.0)
        segments.append([x0, y0, x0 + length * math.cos(ang), y0 + length * math.sin(ang)])
    if segments:
        walls = np.vstack([walls, np.asarray(segments, dtype=float)])

    discs = []
    for _ in range(rng.integers(0, 5)):
        discs.append(
            [
                rng.uniform(-0.5 * width + 0.5, 0.5 * width - 0.5),
                rng.uniform(-0.5 * height + 0.5, 0.5 * height - 0.5),
                rng.uniform(0.08, 0.4),
            ]
        )
    circles = np.asarray(discs, dtype=float).reshape(-1, 3)

    while True:
        ox = rng.uniform(-0.5 * width + 0.3, 0.5 * width - 0.3)
        oy = rng.uniform(-0.5 * height + 0.3, 0.5 * height - 0.3)
        if wall_clearance(ox, oy, walls) < 0.05:
            continue
        if circles.shape[0] and np.any(
            np.hypot(circles[:, 0] - ox, circles[:, 1] - oy) < circles[:, 2] + 0.05
        ):
            continue
        break

    heading = rng.uniform(0.0, math.tau)
    beam_count = int(rng.choice([24, 36, 60, 90]))
    return (ox, oy), heading, beam_count, walls, circles
