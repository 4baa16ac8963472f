"""Core types and math shared by all swarm behaviors.

Everything here is pure: scan snapshots go in, force vectors and drive
commands come out. No simulator or middleware coupling.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

ATTRACTIVE = "attractive"
REPULSIVE = "repulsive"


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    if -math.pi < theta <= math.pi:
        return theta  # what math.remainder returns on this interval
    w = math.remainder(theta, math.tau)
    if w <= -math.pi:
        w += math.tau
    return w


@dataclass(frozen=True, slots=True)
class Vector2:
    x: float
    y: float

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


ZERO_VECTOR = Vector2(0.0, 0.0)


@dataclass(frozen=True, slots=True)
class Pose2D:
    """Planar pose. theta is normalized to (-pi, pi] at construction."""

    x: float
    y: float
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.theta)):
            raise ValueError("pose components must be finite")
        object.__setattr__(self, "theta", wrap_angle(self.theta))


@dataclass(frozen=True, slots=True)
class DriveCommand:
    """Differential-drive setpoint: forward speed [m/s], turn rate [rad/s]."""

    linear: float
    angular: float

    def __post_init__(self):
        if not (math.isfinite(self.linear) and math.isfinite(self.angular)):
            raise ValueError("drive command must be finite")


STOP = DriveCommand(0.0, 0.0)


@dataclass(frozen=True, slots=True)
class DriveLimits:
    """Per-platform actuation envelope plus the steering gain."""

    max_linear: float
    max_angular: float
    turn_gain: float = 1.0

    def __post_init__(self):
        if self.max_linear <= 0 or self.max_angular <= 0 or self.turn_gain <= 0:
            raise ValueError("drive limits must be positive")

    def clamp(self, linear: float, angular: float) -> DriveCommand:
        return DriveCommand(
            min(self.max_linear, max(-self.max_linear, linear)),
            min(self.max_angular, max(-self.max_angular, angular)),
        )


@dataclass(eq=False, slots=True)
class ScanSnapshot:
    """One full range sweep in the robot frame.

    Beam i points at bearing ``angle_min + i * angle_increment`` relative to
    the robot heading. Readings outside [range_min, range_max] are invalid
    in-band encodings (the simulator writes inf for beams that hit nothing
    inside the window and keeps raw sub-minimum distances as-is).
    """

    ranges: np.ndarray
    angle_min: float
    angle_increment: float
    range_min: float
    range_max: float

    def __post_init__(self):
        self.ranges = np.asarray(self.ranges, dtype=float)
        if self.ranges.ndim != 1 or self.ranges.size < 1:
            raise ValueError("ranges must be a non-empty 1-D array")
        if self.angle_increment <= 0:
            raise ValueError("angle_increment must be positive")
        sweep = self.ranges.size * self.angle_increment
        if abs(sweep - math.tau) > self.angle_increment + 1e-9:
            raise ValueError("beam set must cover a full revolution")
        if not (0 < self.range_min < self.range_max):
            raise ValueError("need 0 < range_min < range_max")

    def bearings(self) -> np.ndarray:
        return self.angle_min + np.arange(self.ranges.size) * self.angle_increment

    def trig(self) -> "BeamTrig":
        """cos, sin and wrapped bearing of every beam, shared by all scans
        with the same beam set."""
        return beam_trig(self.angle_min, self.angle_increment, self.ranges.size)

    def valid_mask(self) -> np.ndarray:
        return (self.ranges >= self.range_min) & (self.ranges <= self.range_max)


class BeamTrig(NamedTuple):
    cos: np.ndarray
    sin: np.ndarray
    wrapped: np.ndarray  # math.atan2(sin, cos): the bearing wrapped to [-pi, pi]


@functools.lru_cache(maxsize=64)
def beam_trig(angle_min: float, angle_increment: float, beam_count: int) -> BeamTrig:
    """Per-beam trig tables for one beam set, computed once and read-only.

    Each entry is the elementwise function of ``ScanSnapshot.bearings()``, so
    indexing a table gives the same bits as applying the function to the
    indexed bearings. wrapped is math.atan2's, entry by entry: np.arctan2's
    bits depend on the SIMD kernels numpy dispatches on the host.
    """
    bearings = angle_min + np.arange(beam_count) * angle_increment
    cos, sin = np.cos(bearings), np.sin(bearings)
    wrapped = np.array(list(map(math.atan2, sin.tolist(), cos.tolist())), dtype=float)
    tables = BeamTrig(cos, sin, wrapped)
    for table in tables:
        table.flags.writeable = False
    return tables


def segment_distances(px, py, walls: np.ndarray) -> np.ndarray:
    """Distance from a point to each segment of an (S, 4) wall array; points
    broadcast against the trailing (S,) wall axis."""
    ax, ay = walls[:, 0], walls[:, 1]
    ex, ey = walls[:, 2] - ax, walls[:, 3] - ay
    L2 = ex * ex + ey * ey
    if (L2 > 0).all():  # no zero-length wall: skip errstate and where, the common case
        s = ((px - ax) * ex + (py - ay) * ey) / L2
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            s = ((px - ax) * ex + (py - ay) * ey) / L2
        s = np.where(L2 > 0, s, 0.0)
    # np.clip without its wrapper; they differ only in the sign of a zero
    # s, which no distance can show.
    s = np.minimum(np.maximum(s, 0.0), 1.0)
    return np.hypot(px - (ax + s * ex), py - (ay + s * ey))


def nearest_obstacle(scan: ScanSnapshot) -> tuple[float, float] | None:
    """Closest valid reading as (distance, bearing), or None if none is valid.

    Ties go to the lowest beam index.
    """
    masked = np.where(scan.valid_mask(), scan.ranges, np.inf)
    idx = int(np.argmin(masked))
    if not math.isfinite(masked[idx]):
        return None
    return float(scan.ranges[idx]), float(scan.angle_min + idx * scan.angle_increment)


def nearest_distances(ranges: np.ndarray, range_min: float, range_max: float) -> np.ndarray:
    """Closest valid reading of every row of an (R, B) ranges block, inf
    where a row has none: the distance ``nearest_obstacle`` gives per scan."""
    valid = (ranges >= range_min) & (ranges <= range_max)
    return np.where(valid, ranges, np.inf).min(axis=1)


class FieldRequest(NamedTuple):
    """A command a behaviour leaves to the simulator's field pass: steer
    along ``potential_field(scan, effect_range, polarity)`` within limits."""

    effect_range: float
    polarity: str
    limits: DriveLimits

    def command(self, scan: ScanSnapshot) -> DriveCommand:
        """The request resolved on one scan."""
        force = potential_field(scan, self.effect_range, self.polarity)
        return vector_to_drive(force, self.limits)


def potential_field(scan: ScanSnapshot, effect_range: float, polarity: str = ATTRACTIVE) -> Vector2:
    """Weighted sum of unit bearing vectors over readings within effect_range.

    Weight falls off linearly from 1 at range_min to 0 at effect_range and is
    clamped to [0, 1]. Repulsive polarity is the exact negation of the
    attractive sum. Returns the zero vector when no reading qualifies. This
    is the one-row call of ``potential_fields``.
    """
    trig = scan.trig()
    return potential_fields(
        scan.ranges[None, :], scan.range_min, scan.range_max, trig, [effect_range], [polarity]
    )[0]


def potential_fields(
    ranges: np.ndarray,
    range_min: float,
    range_max: float,
    trig: BeamTrig,
    effect_ranges,
    polarities,
) -> list[Vector2]:
    """``potential_field`` of every row of a (K, B) ranges block, row k with
    its own effect range and polarity; every row has the beam set of trig.

    Each row's x and y terms are one contiguous slice of the row-major
    flattened considered cells, summed by one ``np.add.reduce`` along the
    last axis, which gives the bits of a per-scan sum. ``reduceat``,
    ``where=`` or zero padding would change the summation order and the bits.
    """
    for polarity in polarities:
        if polarity not in (ATTRACTIVE, REPULSIVE):
            raise ValueError(f"unknown polarity: {polarity!r}")
    effect_range = np.asarray(effect_ranges, dtype=float)
    K, B = ranges.shape
    # np.minimum keeps a NaN effect_range, so it considers nothing, as r <= NaN does.
    considered = (ranges >= range_min) & (ranges <= np.minimum(effect_range, range_max)[:, None])
    # The considered cells in row-major order, so each row's are contiguous.
    cells = np.flatnonzero(considered)
    rows, beams = np.divmod(cells, B)
    span = effect_range - range_min
    wide = span > 0
    # A considered r lies in [range_min, effect_range] and rounding is
    # monotonic, so 0 <= effect_range - r <= span holds for the rounded
    # values too: each weight is already in [0, 1], with no clip.
    w = (effect_range[rows] - ranges.reshape(-1)[cells]) / np.where(wide, span, 1.0)[rows]
    # A degenerate window weighs 1: every considered reading sits at range_min.
    w = np.where(wide[rows], w, 1.0)
    terms = w * np.stack((trig.cos[beams], trig.sin[beams]))
    forces = []
    start = 0
    ends = np.searchsorted(rows, np.arange(K), side="right").tolist()
    for end, polarity in zip(ends, polarities):
        if end == start:
            forces.append(ZERO_VECTOR)
            continue
        fx, fy = np.add.reduce(terms[:, start:end], axis=1).tolist()
        start = end
        forces.append(Vector2(-fx, -fy) if polarity == REPULSIVE else Vector2(fx, fy))
    return forces


def vector_to_drive(force: Vector2, limits: DriveLimits) -> DriveCommand:
    """Steer toward a force vector.

    Turn rate is proportional to the heading error and clamped; forward speed
    is gated by cos(error) so the robot never drives away from the force, and
    scaled by min(1, |force|). A zero force maps to a zero command.
    """
    phi = math.atan2(force.y, force.x)
    angular = max(-limits.max_angular, min(limits.max_angular, limits.turn_gain * phi))
    linear = limits.max_linear * max(0.0, math.cos(phi)) * min(1.0, force.norm())
    return DriveCommand(linear, angular)
