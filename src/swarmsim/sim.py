"""Deterministic fixed-timestep 2D simulator.

World model: a walled rectangle (plus optional interior wall segments) and
circular robot bodies moving under unicycle kinematics. Robot i is index i
everywhere: its pose, radius, node, vote sender and trace rows. Each robot
carries a planar range sensor simulated by exact ray casting. A tick has
four phases:

1. Sense: every robot's sweep in one raycast pass, as one (R, B) block,
   and its nearest valid reading per robot. The sweep is cut at the
   simulation's reach, the farthest any behavior (its read_range) or
   protection threshold of the run reads, where that is short of
   range_max: a reading past it changes no tick, field or protection
   check, so the cut changes no trace bit. The reach is taken at build,
   and a tick that reads past it, in phase 2 or 3, raises before any
   robot moves. Robot-to-wall distances are taken only when a wall can be
   in reach: each robot's nearest wall where they were last taken, less
   the distance it moved since, bounds its distance now (walls never
   move), and while every bound clears the cut the sweep sees no wall,
   and while it clears a robot's step plus radius its wall contact sees
   none. All of it is a pure function of the poses, radii, walls, spec
   and reach, so a tick whose (R, 3) pose array (WorldState.poses) has
   the bytes of the last sensed one, at its reach, reuses that sense; a
   swarm that stands still (a voting phase) senses once. The ranges
   block, the walls and the radii are read-only, so an in-place edit
   raises instead of going unsensed. A fresh sense raises, naming
   the robot, on a heading outside (-pi, pi], which no tick stores and
   the two moves would integrate apart.
2. Behave, in index order: tick each robot's behavior, one object holding
   its pattern's parameters and state (see patterns), on the votes heard
   since its last tick, and on its scan, a row of the block, if the
   behavior reads one (reads_scan); publish its votes. A field behavior
   returns a field request in place of a command.
3. Decide, as one array job: the protection check (a masked min over the
   block) and every potential field of the tick, requested or avoidance.
4. Move, in index order: arbitrate, move with wall contact, or on plain
   floats wrapped by wrap_angle where no wall is in reach, into a new pose
   array; then record the tick's trace rows into typed columns. Wall
   distances the sense did not take are taken here, once, for this tick.

Deciding for every robot before any moves changes no input: scans are taken
before any robot moves, fields read no votes, and votes are published in
the same order. A robot hears a vote in the tick it is sent if it comes
after the sender in index order, and in the next tick if it comes before;
the sender never hears its own vote. Robot-wall contact truncates motion at
the contact point; robot-robot overlap is not prevented, only recorded
downstream as a collision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .bus import Envelope, MessageBus, VOTE_TOPIC
from .core import DriveCommand, FieldRequest, Pose2D, ScanSnapshot, beam_trig
from .core import nearest_distances, potential_fields, segment_distances, vector_to_drive
from .core import wrap_angle
from .patterns.base import Pattern
from .platforms import PlatformSpec
from .protection import ProtectionState, arbitrate, avoidance_field, note_command, triggered
from .trace import SCHEMA

# Turn rates below this integrate as straight-line motion.
_OMEGA_EPS = 1e-9


def unicycle_step(x: float, y: float, theta: float, v: float, w: float, dt: float) -> tuple:
    """Exact unicycle step on floats, heading not wrapped: straight line for
    negligible turn rate, else a circular arc of radius v/omega."""
    if abs(w) < _OMEGA_EPS:
        return x + v * dt * math.cos(theta), y + v * dt * math.sin(theta), theta + w * dt
    theta1 = theta + w * dt
    x1 = x + (v / w) * (math.sin(theta1) - math.sin(theta))
    return x1, y + (v / w) * (math.cos(theta) - math.cos(theta1)), theta1


def integrate_pose(pose: Pose2D, cmd: DriveCommand, dt: float) -> Pose2D:
    """unicycle_step of a pose, its heading wrapped by Pose2D."""
    return Pose2D(*unicycle_step(pose.x, pose.y, pose.theta, cmd.linear, cmd.angular, dt))


def rect_walls(width: float, height: float) -> np.ndarray:
    """Boundary segments of an axis-aligned rectangle centered at the origin."""
    hw, hh = width / 2.0, height / 2.0
    return np.array(
        [
            [-hw, -hh, hw, -hh],
            [hw, -hh, hw, hh],
            [hw, hh, -hw, hh],
            [-hw, hh, -hw, -hh],
        ]
    )


def raycast(
    origin: tuple[float, float],
    heading: float,
    beam_count: int,
    walls: np.ndarray,
    circles: np.ndarray,
) -> np.ndarray:
    """Distance from origin to the first obstacle along each beam.

    Beam 0 points along the heading; bearings increase CCW in uniform steps
    covering a full revolution. Beams that hit nothing give inf. walls is an
    (S, 4) array of segments, circles an (C, 3) array of (cx, cy, r).
    """
    ox, oy = origin
    angles = heading + (math.tau / beam_count) * np.arange(beam_count)
    dx = np.cos(angles)
    dy = np.sin(angles)
    best = np.full(beam_count, np.inf)

    walls = np.asarray(walls, dtype=float).reshape(-1, 4)
    if walls.shape[0]:
        ax, ay = walls[:, 0], walls[:, 1]
        ex, ey = walls[:, 2] - ax, walls[:, 3] - ay
        aox = ax[None, :] - ox
        aoy = ay[None, :] - oy
        denom = dx[:, None] * ey[None, :] - dy[:, None] * ex[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (aox * ey[None, :] - aoy * ex[None, :]) / denom
            u = (aox * dy[:, None] - aoy * dx[:, None]) / denom
        hit = (denom != 0) & np.isfinite(t) & (t >= 0) & (u >= 0) & (u <= 1)
        t = np.where(hit, t, np.inf)
        best = np.minimum(best, t.min(axis=1))

    circles = np.asarray(circles, dtype=float).reshape(-1, 3)
    if circles.shape[0]:
        mx = circles[:, 0][None, :] - ox
        my = circles[:, 1][None, :] - oy
        r = circles[:, 2][None, :]
        b = dx[:, None] * mx + dy[:, None] * my
        c = mx * mx + my * my - r * r
        disc = b * b - c
        sq = np.sqrt(np.maximum(disc, 0.0))
        t1 = b - sq
        t2 = b + sq
        t = np.where(t1 >= 0, t1, np.where(t2 >= 0, t2, np.inf))
        t = np.where(disc >= 0, t, np.inf)
        best = np.minimum(best, t.min(axis=1))

    return best


@dataclass
class WorldState:
    """Walls plus robot i as a disc of radius radii[i] at row i of poses, an
    (R, 3) float array of (x, y, theta) built from Pose2Ds."""

    walls: np.ndarray
    poses: np.ndarray
    radii: np.ndarray
    dt: float = 0.1
    tick: int = 0

    def __post_init__(self):
        # Read-only copies: a tick's sense may be reused and is cut at the
        # swarm's reach (Simulation.step), so an in-place edit raises
        # instead of going unsensed.
        self.walls = np.array(self.walls, dtype=float).reshape(-1, 4)
        self.walls.flags.writeable = False
        self.radii = np.array(self.radii, dtype=float)
        self.radii.flags.writeable = False
        self.poses = np.array([(p.x, p.y, p.theta) for p in self.poses], dtype=float).reshape(-1, 3)
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.radii.shape != (len(self.poses),):
            raise ValueError(f"need one radius per pose, got {self.radii.shape} radii")

    @property
    def clock(self) -> float:
        return self.tick * self.dt


# Slack on the range_max cuts, so rounding at their boundary cannot drop a hit.
_CULL_EPS = 1e-6
# An origin this close to a body's surface (relative to its radius) is
# treated as inside it, and every beam is tested against that body.
_INSIDE_MARGIN = 1e-6
# Slack on a wall-distance lower bound (Simulation.step): the rounding of
# the wall distance and of the distance moved, under 1e-12 m for
# coordinates under a kilometre, cannot take it above the true distance.
_BOUND_EPS = 1e-6
# Slack on the wall-contact reach cut. A computed waypoint strays from its
# exact arc by rounding, most near the straight-line branch where v/w is
# large: under 1e-6 m for |v| <= 2 m/s. A millimetre stays clear of that.
_REACH_EPS = 1e-3


def wall_distances(world: WorldState) -> np.ndarray:
    """(R, S) distance from every robot's centre to every wall segment."""
    poses = world.poses
    return segment_distances(poses[:, 0, None], poses[:, 1, None], world.walls)


def raycast_scan(
    world: WorldState,
    spec: PlatformSpec,
    wall_dist: np.ndarray | None = None,
    reach: float = math.inf,
) -> np.ndarray:
    """Simulated sweeps for every robot, in index order: walls plus the other
    robot bodies, as one array pass. Returns the read-only (R, B) ranges
    block, row i being robot i's sweep, beam 0 along its heading.

    Each row holds the same bits as ``raycast`` over all walls and all
    other bodies, with hits beyond the cut encoded as inf; hits below
    range_min keep their raw distance. The cut is range_max, or reach where
    that is shorter; beyond range_max a hit is invalid in-band per the scan
    contract, and beyond reach nothing the caller reads can see it, so the
    sweep is the full one with every cell above reach set to inf. A wall or
    body is tested only if it lies within the cut of the origin, and a body
    only on the beams that can reach it; every tested element uses
    raycast's own expressions, a hit beyond the cut is dropped before the
    min, and min is exact, so the cuts change no other bit. wall_dist is
    ``wall_distances(world)``, or an (R, 0) block when the caller knows that
    no wall lies within the cut.
    """
    B = spec.beam_count
    poses = world.poses
    R = len(poses)
    if R == 0:
        return np.empty((0, B))
    cut = min(reach, spec.range_max)
    radii = world.radii
    ox, oy, heading = poses[:, 0], poses[:, 1], poses[:, 2]
    step = math.tau / B
    # Beam b of robot i points along heading[i] + step * b. Its cos and sin
    # are taken only where a test reads them; each is elementwise in the
    # same angle, so it has the same bits as in raycast's full row.
    best = np.full((R, B), np.inf)

    # Wall cut: a segment farther than the cut from the origin can only be
    # hit beyond it, which reads inf anyway.
    walls = world.walls
    if wall_dist is None:
        wall_dist = wall_distances(world)
    k, s = np.nonzero(wall_dist <= cut + _CULL_EPS)
    if k.size:
        angles = heading[k, None] + step * np.arange(B)  # full rows, only for kept pairs
        dx, dy = np.cos(angles), np.sin(angles)
        # raycast's wall expressions, on (robot-wall pair, beam) arrays
        ax, ay = walls[s, 0], walls[s, 1]
        ex, ey = (walls[s, 2] - ax)[:, None], (walls[s, 3] - ay)[:, None]
        aox = (ax - ox[k])[:, None]
        aoy = (ay - oy[k])[:, None]
        denom = dx * ey - dy * ex
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (aox * ey - aoy * ex) / denom
            u = (aox * dy - aoy * dx) / denom
        # 0 <= t <= cut also rejects raycast's denom == 0: t = x/0 is nan or
        # an inf that is either negative or the miss value anyway.
        hit = (t >= 0) & (t <= cut) & (u >= 0) & (u <= 1)
        np.minimum.at(best, k, np.where(hit, t, np.inf))

    # Neighbour cut, by the same argument: the nearest point of a body lies
    # its radius short of its centre.
    mx = ox[None, :] - ox[:, None]  # (R, R): body j seen from robot i
    my = oy[None, :] - oy[:, None]
    d2 = mx * mx + my * my
    keep = d2 <= (cut + radii[None, :] + _CULL_EPS) ** 2
    np.fill_diagonal(keep, False)
    i, j = np.nonzero(keep)
    if i.size:
        mx, my, r = mx[i, j], my[i, j], radii[j]
        c = mx * mx + my * my - r * r
        # Beam window: the body spans asin(r/d) either side of the bearing to
        # its centre; one more beam on each side. Beams outside it give a
        # discriminant below zero by far more than rounding, or point away.
        d = np.sqrt(d2[i, j])
        inside = d <= r * (1.0 + _INSIDE_MARGIN)
        half = np.arcsin(r / np.maximum(d, r))
        centre = (np.arctan2(my, mx) - heading[i]) / step
        lo = np.floor(centre - half / step).astype(np.int64) - 1
        hi = np.ceil(centre + half / step).astype(np.int64) + 1
        n = np.where(inside | (hi - lo + 1 >= B), B, hi - lo + 1)
        lo = np.where(n == B, 0, lo)
        # Cell m of pair p is beam lo[p] + m, flat at end[p] - n[p] + m;
        # pair holds each cell's pair, the one index every pair value is
        # gathered through.
        end = np.cumsum(n)
        pair = np.repeat(np.arange(i.size), n)
        beam = ((lo - end + n)[pair] + np.arange(end[-1])) % B
        row = i[pair]
        angles = heading[row] + step * beam
        # raycast's circle expressions, on flat (pair, beam) arrays: a hit is
        # t1 where t1 >= 0, else t2 where t2 >= 0, on a discriminant >= 0.
        b = np.cos(angles) * mx[pair] + np.sin(angles) * my[pair]
        disc = b * b - c[pair]
        sq = np.sqrt(np.maximum(disc, 0.0))
        t1 = b - sq
        t = np.where(t1 >= 0, t1, b + sq)
        t = np.where((disc >= 0) & (t >= 0) & (t <= cut), t, np.inf)
        np.minimum.at(best.ravel(), row * B + beam, t)

    best.flags.writeable = False
    return best


def wall_clearance(x: float, y: float, walls: np.ndarray) -> float:
    """Distance from a point to the nearest wall segment (inf if no walls)."""
    return float(segment_distances(x, y, walls).min(initial=math.inf))


def resolve_wall_contact(
    pose: Pose2D, cmd: DriveCommand, dt: float, radius: float, walls: np.ndarray
) -> Pose2D:
    """Integrate one step, truncating the motion at wall contact.

    The step is first sampled at waypoints no more than one body radius
    apart, so a step spanning several radii cannot jump across a thin wall;
    the admissible fraction is then bisected so the resulting body never
    overlaps a wall (assuming the starting pose does not).
    """
    if walls.shape[0] == 0:
        return integrate_pose(pose, cmd, dt)
    travel = abs(cmd.linear) * dt
    checks = max(1, math.ceil(travel / radius))
    lo, hi = 0.0, None
    for i in range(1, checks + 1):
        f = i / checks
        p = integrate_pose(pose, cmd, f * dt)
        if wall_clearance(p.x, p.y, walls) >= radius:
            lo = f
        else:
            hi = f
            break
    if hi is None:
        return p  # the last waypoint is the whole step: f == 1.0
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        p = integrate_pose(pose, cmd, mid * dt)
        if wall_clearance(p.x, p.y, walls) >= radius:
            lo = mid
        else:
            hi = mid
    return integrate_pose(pose, cmd, lo * dt)


def field_pass(
    ranges: np.ndarray,
    nearest: list[float],
    spec: PlatformSpec,
    commands: list,
    protections: list[ProtectionState],
    reach: float = math.inf,
) -> tuple[list[DriveCommand | None], list[DriveCommand | None]]:
    """The decide phase of a tick, for every robot at once.

    ranges is the tick's (R, B) block and nearest its ``nearest_distances``
    as a list; commands[i] is what robot i's behavior returned (a command,
    a field request or None) and protections[i] its protection state. reach
    is the distance the block was cut at (``raycast_scan``): a field or a
    protection threshold that would read past it raises. Returns each
    robot's behavior command, with a field request resolved on its scan, and
    its avoidance command, None where the protection check did not fire: the
    bits of the per-scan layers.
    """
    avoid = [i for i, (p, d) in enumerate(zip(protections, nearest)) if triggered(p, d)]
    fields = [i for i, cmd in enumerate(commands) if isinstance(cmd, FieldRequest)]
    # A field reads up to min(effect_range, range_max), a protection check and
    # its avoidance field up to min(threshold, range_max); the block stops at reach.
    reads = [commands[i].effect_range for i in fields] + [p.threshold for p in protections]
    if reach < spec.range_max and max(reads, default=reach) > reach:
        raise ValueError(
            f"a field request or protection threshold reads to {max(reads)} m, past the "
            f"sensed reach of {reach} m taken at build from read_range and thresholds"
        )
    requests = [commands[i] for i in fields] + [avoidance_field(protections[i]) for i in avoid]
    commands = list(commands)
    avoidance = [None] * len(commands)
    if not requests:
        return commands, avoidance
    effect_ranges = [q.effect_range for q in requests]
    B = spec.beam_count
    forces = potential_fields(
        ranges[fields + avoid],
        spec.range_min,
        spec.range_max,
        beam_trig(0.0, math.tau / B, B),
        effect_ranges,
        [q.polarity for q in requests],
    )
    for k, (i, q, force) in enumerate(zip(fields + avoid, requests, forces)):
        (commands if k < len(fields) else avoidance)[i] = vector_to_drive(force, q.limits)
    return commands, avoidance


# The trace cells the move phase lists per robot, in its order, poses first.
_ROW_COLUMNS = ("x", "y", "theta", "pattern_linear", "pattern_angular", "cmd_linear", "cmd_angular")


@dataclass(frozen=True, slots=True)
class RobotNode:
    """One robot's behavior and protection layer, fixed once built. The
    simulation's reach is taken from them at build, and a tick that reads
    past it raises (see Simulation.reach)."""

    behavior: Pattern
    protection: ProtectionState


class Simulation:
    """Owns the world, the vote bus, and the robot nodes (node i drives robot
    i); records the trace. Every robot carries the same sensor, described by
    spec."""

    def __init__(self, world: WorldState, nodes: list[RobotNode], spec: PlatformSpec, meta: dict):
        if len(nodes) != (R := len(world.poses)):
            raise ValueError(f"need one node per robot, got {len(nodes)} nodes")
        self.world = world
        self.nodes = tuple(nodes)
        self.spec = spec
        self.meta = meta
        self.bus = MessageBus(len(nodes))
        # Row t of each array is recorded tick t: its number, or one cell
        # per robot. Rows from _recorded on are room to grow.
        self._trace = {
            name: np.empty((0,) if name == "tick" else (0, R), dtype)
            for name, dtype in SCHEMA
            if name not in ("robot", "clock")
        }
        self._recorded = 0
        # The farthest any behavior or protection check of the run reads, taken
        # once, here. Each sweep is cut there; a field raised past it since
        # raises where a tick reads it, in the behave loop or in field_pass.
        reads = [d for node in nodes for d in (node.behavior.read_range, node.protection.threshold)]
        self.reach = min(spec.range_max, max(reads, default=0.0))
        # The last sense, (wall distances or None, ranges block, nearest wall
        # per robot or a lower bound on it, nearest valid reading per robot),
        # and the bytes of the pose array it was taken at.
        self._sense = None
        self._sense_key = None
        # The pose array wall distances were last taken at, and each robot's
        # nearest wall there.
        self._walls_at = None

    @property
    def columns(self) -> SimpleNamespace:
        """The trace so far, one array per trace column (trace.COLUMN_NAMES),
        as trace_from_columns takes it without a copy: views of the recorded
        columns, and tick, robot and clock built from the tick numbers."""
        T, R = self._recorded, len(self.nodes)
        cols = {name: rows[:T].reshape(-1) for name, rows in self._trace.items()}
        cols["tick"] = tick = np.repeat(cols["tick"], R)
        # tick * dt elementwise: the bits of the tick's own clock
        return SimpleNamespace(**cols, robot=np.tile(np.arange(R), T), clock=tick * self.world.dt)

    def _reserve(self, ticks: int) -> None:
        """Room in the recorded columns for ticks recorded ticks in all."""
        for name, rows in self._trace.items():
            if ticks > len(rows):
                grown = self._trace[name] = np.empty((ticks, *rows.shape[1:]), rows.dtype)
                grown[: self._recorded] = rows[: self._recorded]

    def scan(self, row: np.ndarray) -> ScanSnapshot:
        """One robot's row of the ranges block as its scan."""
        spec = self.spec
        return ScanSnapshot(row, 0.0, math.tau / spec.beam_count, spec.range_min, spec.range_max)

    def _take_walls(self) -> tuple[np.ndarray, list[float]]:
        """Wall distances at the world's poses, and each robot's nearest wall."""
        wall_dist = wall_distances(self.world)
        nearest = wall_dist.min(axis=1, initial=math.inf)
        self._walls_at = self.world.poses, nearest
        return wall_dist, nearest.tolist()

    def _wall_bounds(self) -> np.ndarray | None:
        """A lower bound on each robot's distance to its nearest wall at the
        world's poses, None before any wall distance is taken. Walls never
        move and distance to a fixed set is 1-Lipschitz, so the nearest wall
        where distances were last taken, less the distance moved since,
        bounds it."""
        if self._walls_at is None:
            return None
        at, nearest = self._walls_at
        poses = self.world.poses
        moved = np.hypot(poses[:, 0] - at[:, 0], poses[:, 1] - at[:, 1])
        return nearest - moved - _BOUND_EPS

    def step(self) -> None:
        world, nodes = self.world, self.nodes
        now = world.clock
        dt = world.dt
        tick = world.tick + 1
        R = len(nodes)

        # 1. Sense. Scans and wall distances are taken before any robot moves.
        # They are pure functions of the poses, radii, walls, spec and reach,
        # so poses with the bytes of the last sensed ones, at its reach, reuse
        # that sense. Wall distances are taken only where a wall can lie
        # within the cut; else the sweep sees no wall.
        key, rows = (world.poses.tobytes(), self.reach), world.poses.tolist()
        if key != self._sense_key:
            # Every tick stores finite positions and wrapped headings; an edit
            # between steps that does not would reach the behaviors, and the
            # float move would integrate an unwrapped heading.
            for i, (x, y, theta) in enumerate(rows):
                if not (math.isfinite(x) and math.isfinite(y)):
                    name, value = ("y", y) if math.isfinite(x) else ("x", x)
                    raise ValueError(f"robot {i} has {name} {value!r}, not finite")
                if not -math.pi < theta <= math.pi:
                    raise ValueError(f"robot {i} has heading {theta!r}, outside (-pi, pi]")
            self._sense = self._sense_key = None  # one sweep alive at a time
            spec = self.spec
            wall_dist, bounds = None, self._wall_bounds()
            if bounds is None or bounds.min(initial=math.inf) <= self.reach + _CULL_EPS:
                wall_dist, bounds = self._take_walls()
            else:
                bounds = bounds.tolist()
            ranges = raycast_scan(
                world, spec, np.empty((R, 0)) if wall_dist is None else wall_dist, self.reach
            )
            reading = nearest_distances(ranges, spec.range_min, spec.range_max).tolist()
            self._sense, self._sense_key = (wall_dist, ranges, bounds, reading), key
        wall_dist, ranges, bounds, reading = self._sense

        # 2. Behave, in index order: the bus sees the votes in that order.
        # Only a behavior that reads its scan gets one; it may not read past reach.
        outputs = []
        for i, (node, mailbox) in enumerate(zip(nodes, self.bus.mailboxes)):
            behavior, scan = node.behavior, None
            if behavior.reads_scan:
                if min(behavior.read_range, self.spec.range_max) > self.reach:
                    raise ValueError(
                        f"robot {i}'s behavior reads to {behavior.read_range} m, past the "
                        f"sensed reach of {self.reach} m taken at build"
                    )
                scan = self.scan(ranges[i])
            result = behavior.tick(scan, now, dt, mailbox.drain())
            for opinion in result.messages:
                self.bus.publish(Envelope(VOTE_TOPIC, opinion, i, now))
            outputs.append(result.command)

        # 3. Decide: every protection check and potential field in one pass.
        protections = [node.protection for node in nodes]
        commands, avoidance = field_pass(
            ranges, reading, self.spec, outputs, protections, self.reach
        )

        # 4. Move, listing each robot's float trace cells. The moved poses go
        # into a new array: world.poses holds the start poses, as the rows of
        # wall_dist do, and _walls_at may hold it, so it is never written.
        walls, cells = world.walls, []
        for i, (node, cmd, avoid, radius, (x, y, theta)) in enumerate(
            zip(nodes, commands, avoidance, world.radii.tolist(), rows)
        ):
            state = node.protection
            if cmd is not None:
                note_command(state, cmd, now)
            actuator = arbitrate(state, now, avoid)
            # Every waypoint lies within the step's arc length, |v|*dt, of the
            # start, so a wall farther than that plus the radius changes no
            # clearance test of resolve_wall_contact.
            reach = abs(actuator.linear) * dt + radius + _REACH_EPS
            if bounds[i] <= reach and wall_dist is None:  # a wall can be in reach:
                wall_dist, bounds = self._take_walls()  # exact, for this tick only
            if bounds[i] <= reach:
                near = walls[wall_dist[i] <= reach]
                p = resolve_wall_contact(Pose2D(x, y, theta), actuator, dt, radius, near)
                x, y, theta = p.x, p.y, p.theta
            else:  # integrate_pose on floats, as resolve_wall_contact with no wall
                x, y, theta = unicycle_step(x, y, theta, actuator.linear, actuator.angular, dt)
                theta = wrap_angle(theta)
            pattern = (math.nan, math.nan) if cmd is None else (cmd.linear, cmd.angular)
            cells += (x, y, theta, *pattern, actuator.linear, actuator.angular)
        block = np.fromiter(cells, float, len(cells)).reshape(R, len(_ROW_COLUMNS))
        poses = block[:, :3].copy()
        if not np.isfinite(poses).all():
            raise ValueError("pose components must be finite")

        if (t := self._recorded) == len(self._trace["tick"]):
            self._reserve(max(1, 2 * t))  # step() called alone; run() reserves
        trace = self._trace
        trace["tick"][t] = tick
        for name, column in zip(_ROW_COLUMNS, block.T):
            trace[name][t] = column
        trace["suppressed"][t] = [avoid is not None for avoid in avoidance]
        opinions = [node.behavior.opinion for node in nodes]
        trace["opinion"][t] = [math.nan if op is None else op for op in opinions]
        self._recorded = t + 1
        world.poses = poses
        world.tick = tick

    def run(self, ticks: int) -> None:
        self._reserve(self._recorded + ticks)
        for _ in range(ticks):
            self.step()
        # The post-processing that follows a run needs no sense.
        self._sense = self._sense_key = None
