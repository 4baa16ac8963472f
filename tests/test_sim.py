"""Simulator tests: exact kinematics, ray casting, wall contact, determinism."""

import copy
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import marching_raycast, random_scene, rk4_pose
from reference_sim import reference_run, reference_scans
from swarmsim import (
    ATTRACTIVE,
    DriveCommand,
    PLATFORMS,
    Pose2D,
    ProtectionState,
    RobotNode,
    Simulation,
    WorldState,
    build_simulation,
    integrate_pose,
    load_scenario,
    raycast,
    wrap_angle,
)
import swarmsim.sim
from swarmsim.core import GRID_MIN_ROBOTS, FieldRequest, ScanSnapshot, nearest_obstacle
from swarmsim.patterns.base import Pattern, TickResult
from swarmsim.scenario import PATTERN_KINDS
from swarmsim.sim import (
    _REACH_EPS,
    field_pass,
    raycast_scan,
    rect_walls,
    resolve_wall_contact,
    wall_clearance,
    wall_distances,
)
from swarmsim.trace import COLUMN_NAMES

WAFFLE = PLATFORMS["turtlebot3_waffle_pi"]

NO_WALLS = np.zeros((0, 4))
NO_CIRCLES = np.zeros((0, 3))


class ConstantDrive(Pattern):
    """Test behavior that requests the same drive command every tick."""

    def __init__(self, cmd: DriveCommand):
        self.cmd = cmd

    def tick(self, scan, now, dt, inbox):
        return TickResult(command=self.cmd)


# ---------------------------------------------------------------- kinematics


def test_integrate_straight_line():
    p = integrate_pose(Pose2D(1.0, 2.0, math.pi / 2), DriveCommand(0.5, 0.0), 2.0)
    assert p.x == pytest.approx(1.0, abs=1e-12)
    assert p.y == pytest.approx(3.0, abs=1e-12)
    assert p.theta == pytest.approx(math.pi / 2)


def test_integrate_quarter_arc():
    # Unit speed and unit turn rate for a quarter period traces a quarter
    # of the unit circle: the robot ends at (1, 1) facing +y.
    p = integrate_pose(Pose2D(0.0, 0.0, 0.0), DriveCommand(1.0, 1.0), math.pi / 2)
    assert p.x == pytest.approx(1.0, abs=1e-12)
    assert p.y == pytest.approx(1.0, abs=1e-12)
    assert p.theta == pytest.approx(math.pi / 2, abs=1e-12)


def test_integrate_rest_and_spin():
    rest = integrate_pose(Pose2D(0.3, -0.7, 1.0), DriveCommand(0.0, 0.0), 0.1)
    assert (rest.x, rest.y, rest.theta) == (0.3, -0.7, 1.0)
    spin = integrate_pose(Pose2D(0.3, -0.7, 1.0), DriveCommand(0.0, 2.0), 0.5)
    assert (spin.x, spin.y) == (0.3, -0.7)
    assert spin.theta == pytest.approx(2.0)


def test_integrate_continuous_across_turn_rate_branch():
    # The straight-line shortcut for tiny turn rates must agree with the
    # arc formula in the limit.
    pose = Pose2D(0.0, 0.0, 0.4)
    cmd_zero = DriveCommand(1.0, 0.0)
    cmd_tiny = DriveCommand(1.0, 1e-12)
    a = integrate_pose(pose, cmd_zero, 0.5)
    b = integrate_pose(pose, cmd_tiny, 0.5)
    assert a.x == pytest.approx(b.x, abs=1e-9)
    assert a.y == pytest.approx(b.y, abs=1e-9)


@given(
    x=st.floats(-10, 10),
    y=st.floats(-10, 10),
    theta=st.floats(-math.pi, math.pi),
    v=st.floats(-3, 3),
    w=st.floats(-5, 5),
    dt=st.floats(0.001, 0.5),
)
def test_integrate_matches_rk4_oracle(x, y, theta, v, w, dt):
    p = integrate_pose(Pose2D(x, y, theta), DriveCommand(v, w), dt)
    ox, oy, ot = rk4_pose(x, y, theta, v, w, dt, substeps=1000)
    assert abs(p.x - float(ox)) < 1e-6
    assert abs(p.y - float(oy)) < 1e-6
    # poses normalize the heading, the oracle does not
    assert abs(wrap_angle(p.theta - float(ot))) < 1e-6


@pytest.mark.parametrize(
    "theta",
    [
        math.pi,
        -math.pi,
        np.nextafter(math.pi, math.inf),
        np.nextafter(-math.pi, -math.inf),
        np.nextafter(math.pi, 0.0),
        np.nextafter(-math.pi, 0.0),
        0.0,
        -0.0,
        3 * math.pi,
        -3 * math.pi,
        1e6,
        -1e6,
    ],
)
def test_float_wrap_has_the_bits_of_wrap_angle(theta):
    """The float move wraps by wrap_angle, whose pass-through on (-pi, pi]
    keeps the bits of the plain math.remainder form."""
    plain = math.remainder(float(theta), math.tau)
    if plain <= -math.pi:
        plain += math.tau
    assert wrap_angle(float(theta)).hex() == plain.hex()


# ---------------------------------------------------------------- ray casting


def test_raycast_circle_dead_ahead():
    dist = raycast((0.0, 0.0), 0.0, 4, NO_WALLS, np.array([[1.0, 0.0, 0.1]]))
    assert dist[0] == pytest.approx(0.9, abs=1e-12)
    assert np.all(np.isinf(dist[1:]))


def test_raycast_wall_dead_ahead():
    walls = np.array([[2.0, -1.0, 2.0, 1.0]])
    dist = raycast((0.0, 0.0), 0.0, 4, walls, NO_CIRCLES)
    assert dist[0] == pytest.approx(2.0, abs=1e-12)
    assert np.all(np.isinf(dist[1:]))


def test_raycast_beams_sweep_ccw_from_heading():
    # Heading +y puts the circle at (0, 1) on beam 0; with four beams the
    # circle at (-1, 0) sits one CCW step later on beam 1.
    circles = np.array([[0.0, 1.0, 0.2], [-1.0, 0.0, 0.2]])
    dist = raycast((0.0, 0.0), math.pi / 2, 4, NO_WALLS, circles)
    assert dist[0] == pytest.approx(0.8)
    assert dist[1] == pytest.approx(0.8)
    assert np.all(np.isinf(dist[2:]))


def test_raycast_from_inside_circle_reports_exit():
    dist = raycast((0.0, 0.0), 0.3, 8, NO_WALLS, np.array([[0.0, 0.0, 1.0]]))
    assert np.allclose(dist, 1.0)


def test_raycast_obstacle_behind_segment_is_missed():
    walls = np.array([[-2.0, -1.0, -2.0, 1.0]])
    dist = raycast((0.0, 0.0), 0.0, 1, walls, NO_CIRCLES)
    assert np.isinf(dist[0])


def test_raycast_matches_marching_oracle_on_random_scenes():
    rng = np.random.default_rng(1234)
    for _ in range(10):
        origin, heading, beams, walls, circles = random_scene(rng)
        exact = raycast(origin, heading, beams, walls, circles)
        march = marching_raycast(origin, heading, beams, walls, circles, step=1e-3, cap=12.0)
        err = np.abs(np.minimum(exact, 12.0) - np.minimum(march, 12.0))
        assert float(err.max()) <= 2e-3


# ------------------------------------------------------------ scan simulation


def _scan(world, spec, i=0):
    """Robot i's row of raycast_scan as a checked scan."""
    row = raycast_scan(world, spec)[i]
    return ScanSnapshot(row, 0.0, math.tau / spec.beam_count, spec.range_min, spec.range_max)


def test_sweep_of_an_empty_swarm_is_empty():
    world = WorldState(rect_walls(10.0, 10.0), [], [], 0.1)
    assert raycast_scan(world, WAFFLE).shape == (0, WAFFLE.beam_count)


def test_scan_lone_robot_in_large_arena_sees_nothing():
    world = WorldState(
        walls=rect_walls(18.0, 18.0),
        poses=[Pose2D(0.0, 0.0, 0.0)],
        radii=[0.15],
    )
    scan = _scan(world, WAFFLE)
    assert scan.ranges.shape == (360,)
    assert np.all(np.isinf(scan.ranges))
    assert not scan.valid_mask().any()


def test_scan_other_robot_body_blocks_beam():
    world = WorldState(
        walls=rect_walls(18.0, 18.0),
        poses=[Pose2D(0.0, 0.0, 0.0), Pose2D(1.0, 0.0, 0.0)],
        radii=[0.15, 0.1],
    )
    scan = _scan(world, WAFFLE)
    assert scan.ranges[0] == pytest.approx(0.9, abs=1e-12)
    assert scan.valid_mask()[0]


def test_scan_hit_beyond_max_encodes_as_inf():
    world = WorldState(
        walls=np.vstack([rect_walls(18.0, 18.0), [[3.6, -1.0, 3.6, 1.0]]]),
        poses=[Pose2D(0.0, 0.0, 0.0)],
        radii=[0.15],
    )
    scan = _scan(world, WAFFLE)
    assert np.isinf(scan.ranges[0])
    assert not scan.valid_mask()[0]


def _crowded_world(rng, range_max, count=None):
    """Random bodies of mixed radii in a walled arena with interior walls,
    count + 4 of them, or 5 to 17.

    The first body sits on a 1/64 m grid, so that one body touches its
    centre exactly and another has its centre exactly range_max + r away;
    a third body overlaps its centre and a fourth shares it.
    """
    width = float(rng.uniform(3.0, 12.0))
    walls = [rect_walls(width, width)]
    for _ in range(rng.integers(0, 4)):
        x0, y0 = rng.uniform(-0.4 * width, 0.4 * width, 2)
        ang, length = rng.uniform(0.0, math.tau), rng.uniform(0.2, 3.0)
        walls.append([[x0, y0, x0 + length * math.cos(ang), y0 + length * math.sin(ang)]])
    half = width / 2 - 0.5
    count = rng.integers(1, 14) if count is None else count
    poses = [[float(v) for v in rng.uniform(-half, half, 2)] for _ in range(count)]
    radii = [float(rng.choice([0.0625, 0.125, 0.15, 0.25, 0.4])) for _ in poses]
    x0, y0 = poses[0] = [round(v * 64) / 64 for v in poses[0]]
    poses.append([x0 + 0.03, y0 - 0.02])  # overlaps the first body's centre
    radii.append(0.25)
    poses.append([x0, y0])  # same centre as the first body
    radii.append(0.15)
    poses.append([x0, y0 + 0.125])  # the first body's centre on its surface
    radii.append(0.125)
    poses.append([x0 - (range_max + 0.25), y0])  # centre exactly range_max + r away
    radii.append(0.25)
    order = rng.permutation(len(poses))
    return WorldState(
        walls=np.vstack(walls),
        poses=[Pose2D(*poses[n], rng.uniform(-math.pi, math.pi)) for n in order],
        radii=[radii[n] for n in order],
    )


@pytest.mark.parametrize("beams", [1, 2, 3, 7, 90, 360, 361, 720])
def test_scan_pass_matches_per_robot_raycast_bit_for_bit(beams):
    rng = np.random.default_rng(beams)
    for _ in range(25):
        range_max = float(rng.choice([1.0, 2.5, 3.5]))
        spec = dataclasses.replace(WAFFLE, beam_count=beams, range_max=range_max)
        world = _crowded_world(rng, range_max)
        sweep = raycast_scan(world, spec)
        assert sweep.shape == (len(world.poses), beams)
        expect = reference_scans(world.poses.tolist(), world.radii.tolist(), world.walls, spec)
        for row, expected in zip(sweep, expect):
            assert np.array_equal(row.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("count", [GRID_MIN_ROBOTS - 5, GRID_MIN_ROBOTS + 10])
def test_scan_pass_on_both_sides_of_the_cell_grid_matches_per_robot_raycast(count):
    """Below GRID_MIN_ROBOTS the neighbour cut is the dense (R, R) pass,
    above it the cell grid's candidates; both give raycast's bits, with a
    body exactly range_max + r from another."""
    rng = np.random.default_rng(count)
    for _ in range(6):
        range_max = float(rng.choice([1.0, 2.5, 3.5]))
        spec = dataclasses.replace(WAFFLE, beam_count=90, range_max=range_max)
        world = _crowded_world(rng, range_max, count)
        sweep = raycast_scan(world, spec)
        expect = reference_scans(world.poses.tolist(), world.radii.tolist(), world.walls, spec)
        assert sweep.view(np.int64).tolist() == np.array(expect).view(np.int64).tolist()


@pytest.mark.parametrize("toward", [math.inf, -math.inf], ids=["up", "down"])
@pytest.mark.parametrize("name", ["arctan2", "arcsin"])
def test_beam_window_absorbs_a_one_ulp_shift_of_its_bearings(monkeypatch, name, toward):
    """np.arctan2 and np.arcsin give the beam window's centre and half-width;
    their bits depend on the SIMD kernels numpy dispatches. The window's
    extra beam on each side absorbs a one-ulp shift of either: the block
    keeps its bits. Scaling either by 0.9 does change some block, so the
    patch takes effect."""
    rng = np.random.default_rng(7)
    scenes = []
    for _ in range(300):
        beams = int(rng.choice([7, 90, 360, 361, 720]))
        range_max = float(rng.choice([1.0, 2.5, 3.5]))
        spec = dataclasses.replace(WAFFLE, beam_count=beams, range_max=range_max)
        world = _crowded_world(rng, range_max)
        scenes.append((world, spec, raycast_scan(world, spec).tobytes()))
    exact = getattr(np, name)
    monkeypatch.setattr(np, name, lambda *args: np.nextafter(exact(*args), toward))
    for world, spec, block in scenes:
        assert raycast_scan(world, spec).tobytes() == block
    monkeypatch.setattr(np, name, lambda *args: 0.9 * exact(*args))
    assert any(raycast_scan(world, spec).tobytes() != block for world, spec, block in scenes)


def test_scan_hit_below_floor_keeps_raw_distance_but_invalid():
    world = WorldState(
        walls=np.vstack([rect_walls(18.0, 18.0), [[0.05, -1.0, 0.05, 1.0]]]),
        poses=[Pose2D(0.0, 0.0, 0.0)],
        radii=[0.15],
    )
    scan = _scan(world, WAFFLE)
    assert scan.ranges[0] == pytest.approx(0.05, abs=1e-12)
    assert not scan.valid_mask()[0]


# -------------------------------------------------------------- wall contact


def test_wall_contact_truncates_at_surface():
    walls = rect_walls(2.0, 2.0)
    p = resolve_wall_contact(Pose2D(0.8, 0.0, 0.0), DriveCommand(1.0, 0.0), 1.0, 0.15, walls)
    assert p.x == pytest.approx(0.85, abs=1e-6)
    assert p.y == pytest.approx(0.0, abs=1e-12)
    assert wall_clearance(p.x, p.y, walls) >= 0.15 - 1e-12


def test_wall_contact_free_motion_untouched():
    walls = rect_walls(10.0, 10.0)
    pose = Pose2D(0.0, 0.0, 0.3)
    cmd = DriveCommand(0.5, 0.7)
    free = integrate_pose(pose, cmd, 0.1)
    contact = resolve_wall_contact(pose, cmd, 0.1, 0.15, walls)
    assert (contact.x, contact.y, contact.theta) == (free.x, free.y, free.theta)


@given(
    x=st.floats(-0.84, 0.84),
    y=st.floats(-0.84, 0.84),
    theta=st.floats(-math.pi, math.pi),
    v=st.floats(0.0, 3.0),
    w=st.floats(-5.0, 5.0),
)
def test_wall_contact_never_penetrates(x, y, theta, v, w):
    walls = rect_walls(2.0, 2.0)
    p = resolve_wall_contact(Pose2D(x, y, theta), DriveCommand(v, w), 0.5, 0.15, walls)
    assert wall_clearance(p.x, p.y, walls) >= 0.15 - 1e-9


def _contact_scene(rng):
    """Pose, command, dt, radius and walls, biased toward wall contact.

    The arena holds interior walls and one zero-length wall. The body
    starts clear of every wall, between radius and radius + |v|*dt + 0.3 m
    from a random one, and half the time heads for it. Turn rates mix
    straight moves, rates either side of the straight-line threshold, and
    arcs.
    """
    width, height = (float(v) for v in rng.uniform(2.0, 6.0, 2))
    walls = [rect_walls(width, height)]
    for _ in range(rng.integers(0, 4)):
        x0, y0 = rng.uniform(-0.4 * width, 0.4 * width), rng.uniform(-0.4 * height, 0.4 * height)
        ang, length = rng.uniform(0.0, math.tau), rng.uniform(0.3, 2.0)
        walls.append([[x0, y0, x0 + length * math.cos(ang), y0 + length * math.sin(ang)]])
    x0, y0 = rng.uniform(-0.4 * width, 0.4 * width), rng.uniform(-0.4 * height, 0.4 * height)
    walls.append([[x0, y0, x0, y0]])
    walls = np.vstack(walls)
    radius = float(rng.choice([0.1, 0.15, 0.25]))
    dt = float(rng.choice([0.1, 0.5, 1.0]))
    v = float(rng.choice([0.0, rng.uniform(0.05, 3.0), -rng.uniform(0.05, 3.0)]))
    w = float(rng.choice([0.0, 2e-9, -5e-10, rng.uniform(-0.5, 0.5), rng.uniform(-5.0, 5.0)]))
    travel = abs(v) * dt
    while True:
        ax, ay, bx, by = walls[rng.integers(walls.shape[0])]
        f = rng.uniform()
        fx, fy = ax + f * (bx - ax), ay + f * (by - ay)
        ang = rng.uniform(0.0, math.tau)
        gap = rng.uniform(radius, radius + travel + 0.3)
        x, y = fx + gap * math.cos(ang), fy + gap * math.sin(ang)
        inside = abs(x) < width / 2 - radius and abs(y) < height / 2 - radius
        if inside and wall_clearance(x, y, walls) >= radius:
            break
    theta = math.atan2(fy - y, fx - x) if rng.random() < 0.5 else rng.uniform(-math.pi, math.pi)
    return Pose2D(x, y, theta), DriveCommand(v, w), dt, radius, walls


def _resolve_in_reach(pose, cmd, dt, radius, walls):
    """resolve_wall_contact on the walls in reach, cut as Simulation.step cuts them."""
    dist = wall_distances(WorldState(walls=walls, poses=[pose], radii=[radius]))[0]
    near = walls[dist <= abs(cmd.linear) * dt + radius + _REACH_EPS]
    return resolve_wall_contact(pose, cmd, dt, radius, near), near


def _pose_bits(p):
    return np.array([p.x, p.y, p.theta]).view(np.int64)


def test_wall_contact_on_walls_in_reach_matches_all_walls_bit_for_bit():
    rng = np.random.default_rng(8)
    seen = {"contact": 0, "cut": 0, "no wall": 0}
    for _ in range(1500):
        pose, cmd, dt, radius, walls = _contact_scene(rng)
        cut, near = _resolve_in_reach(pose, cmd, dt, radius, walls)
        full = resolve_wall_contact(pose, cmd, dt, radius, walls)
        assert np.array_equal(_pose_bits(cut), _pose_bits(full))
        free = integrate_pose(pose, cmd, dt)
        seen["contact"] += (full.x, full.y) != (free.x, free.y)  # truncated by bisection
        seen["cut"] += 0 < len(near) < len(walls)
        seen["no wall"] += len(near) == 0
    assert min(seen.values()) >= 50, seen


@pytest.mark.parametrize("v", [0.0, 0.26, 1.0, 2.9])
def test_wall_contact_cut_keeps_a_wall_at_the_cut_distance(v):
    """A wall straight ahead at |v|*dt + r is touched at the end of the
    step; at the cut's edge it is kept, just past it dropped."""
    dt, radius = 0.5, 0.15
    pose, cmd = Pose2D(0.0, 0.0, 0.0), DriveCommand(v, 0.0)
    edge = abs(v) * dt + radius + _REACH_EPS
    for x, kept in [
        (abs(v) * dt + radius, True),
        (edge, True),
        (np.nextafter(edge, math.inf), False),
    ]:
        walls = np.vstack([rect_walls(20.0, 20.0), [[x, -1.0, x, 1.0]]])
        cut, near = _resolve_in_reach(pose, cmd, dt, radius, walls)
        assert near.tolist() == ([[x, -1.0, x, 1.0]] if kept else [])
        full = resolve_wall_contact(pose, cmd, dt, radius, walls)
        assert np.array_equal(_pose_bits(cut), _pose_bits(full))
        assert cut.x == pytest.approx(abs(v) * dt, abs=1e-9)


# ----------------------------------------------------------- world validation


@pytest.mark.parametrize("radii", [[], [0.1], [0.1, 0.1, 0.1], [[0.1, 0.1]]])
def test_world_rejects_radii_not_matching_poses(radii):
    poses = [Pose2D(0, 0, 0), Pose2D(1, 0, 0)]
    with pytest.raises(ValueError, match="one radius per pose"):
        WorldState(walls=rect_walls(4, 4), poses=poses, radii=radii)


@pytest.mark.parametrize("radius", [-0.1, math.nan, math.inf])
def test_world_rejects_a_radius_not_finite_and_non_negative(radius):
    """The sense's cell grid takes its side from the largest radius."""
    poses = [Pose2D(0, 0, 0), Pose2D(1, 0, 0)]
    with pytest.raises(ValueError, match="finite and non-negative"):
        WorldState(walls=rect_walls(4, 4), poses=poses, radii=[0.1, radius])


def test_world_rejects_nonpositive_dt():
    with pytest.raises(ValueError):
        WorldState(walls=rect_walls(4, 4), poses=[], radii=[], dt=0.0)


def test_world_clock_is_tick_times_dt():
    world = WorldState(walls=rect_walls(4, 4), poses=[], radii=[], dt=0.1)
    world.tick = 7
    assert world.clock == pytest.approx(0.7)


# ------------------------------------------------------------ full simulation


def _driven(walls, robots, dt=0.1, radius=WAFFLE.body_radius, threshold=0.05):
    """Robots (x, y, theta, v, w) of one radius, each driving its one (v, w)."""
    world = WorldState(walls, [Pose2D(*r[:3]) for r in robots], [radius] * len(robots), dt)
    nodes = [
        RobotNode(ConstantDrive(DriveCommand(v, w)), ProtectionState(threshold, WAFFLE.limits()))
        for *_, v, w in robots
    ]
    return Simulation(world, nodes, WAFFLE, meta={})


def test_trace_rows_hold_post_step_state():
    sim = _driven(rect_walls(4.0, 4.0), [(0.0, 0.0, 0.0, 0.2, 0.0)], threshold=0.5)
    sim.step()
    cols = sim.columns
    assert cols.tick.tolist() == [1]
    assert cols.clock.tolist() == [pytest.approx(0.1)]
    assert cols.x.tolist() == [pytest.approx(0.02)]
    assert cols.cmd_linear.tolist() == [pytest.approx(0.2)]
    assert cols.suppressed.tolist() == [0]


def test_drive_into_wall_suppression_prevents_contact():
    sim = _driven(rect_walls(4.0, 4.0), [(0.0, 0.0, 0.0, 0.26, 0.0)], threshold=0.5)
    sim.run(300)
    cols = sim.columns
    walls = sim.world.walls
    clearances = [wall_clearance(x, y, walls) for x, y in zip(cols.x, cols.y)]
    assert min(clearances) >= 0.3  # protection turns the robot well clear of the wall
    assert max(cols.suppressed) == 1
    assert max(cols.x) < 2.0 - WAFFLE.body_radius


@pytest.mark.parametrize("v, w", [(1e308, 0.0), (1e308, 1e-8), (0.0, 1e308), (0.0, -1e308)])
def test_non_finite_step_raises_as_integrate_pose_does(v, w):
    """A position that overflows fails the finite check; a heading that
    overflows fails math.sin first, in either move."""
    dt = 10.0
    sim = _driven(NO_WALLS, [(0.0, 0.0, 0.0, v, w)], dt, radius=0.1)
    world = sim.world
    with pytest.raises(ValueError) as raised:
        integrate_pose(Pose2D(0.0, 0.0, 0.0), DriveCommand(v, w), dt)
    with pytest.raises(ValueError, match=f"^{re.escape(str(raised.value))}$"):
        sim.step()
    assert world.poses.tolist() == [[0.0, 0.0, 0.0]]
    assert world.tick == 0 and len(sim.columns.tick) == 0


def test_robot_overlap_recorded_not_prevented():
    # With the protection threshold pushed down to the sensor floor the two
    # robots drive straight through each other; the world does not resolve
    # body overlap, it only happens and gets recorded.
    spec = WAFFLE
    robots = [(-0.6, 0.0, 0.0, 0.26, 0.0), (0.6, 0.0, math.pi, 0.26, 0.0)]
    sim = _driven(rect_walls(8.0, 8.0), robots, threshold=0.121)
    sim.run(80)
    cols = sim.columns
    xs = np.asarray(cols.x).reshape(-1, 2)
    ys = np.asarray(cols.y).reshape(-1, 2)
    gaps = np.hypot(xs[:, 0] - xs[:, 1], ys[:, 0] - ys[:, 1])
    assert gaps.min() < 2 * spec.body_radius  # bodies overlapped at some tick
    assert gaps[-1] > 2 * spec.body_radius  # and the run carried on past it
    assert len(cols.tick) == 160


def test_simulation_rejects_mismatched_nodes():
    sim = _driven(rect_walls(4.0, 4.0), [(0.0, 0.0, 0.0, 0.1, 0.0)], threshold=0.5)
    for nodes in ([], sim.nodes * 2):
        with pytest.raises(ValueError, match="one node per robot"):
            Simulation(sim.world, nodes, WAFFLE, meta={})


def test_two_runs_are_identical():
    def run_once():
        config = load_scenario("experiment1-waffle", seed=3, duration=5.0)
        sim = build_simulation(config)
        sim.run(config.tick_count())
        return sim.columns

    a, b = run_once(), run_once()
    for name in ("tick", "robot", "clock", "x", "y", "theta", "cmd_linear", "cmd_angular"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


class Announcer(Pattern):
    """Test behavior that votes its own tick count once per tick and
    records every inbox it is handed."""

    def __init__(self):
        self.inboxes = []

    def tick(self, scan, now, dt, inbox):
        self.inboxes.append(list(inbox))
        return TickResult(messages=[len(self.inboxes) - 1])


def test_vote_delivery_order_across_robots():
    spec = WAFFLE
    world = WorldState(
        walls=rect_walls(16.0, 16.0),
        poses=[Pose2D(3.0 * i - 3.0, 0.0, 0.0) for i in range(3)],
        radii=[spec.body_radius] * 3,
    )
    nodes = [
        RobotNode(
            behavior=Announcer(),
            protection=ProtectionState(threshold=spec.protection_threshold, limits=spec.limits()),
        )
        for i in range(3)
    ]
    sim = Simulation(world, nodes, spec, meta={})
    sim.run(3)

    # A vote (s, k) is sent by robot s in tick k. Robots after s hear it in
    # tick k, robots before s in tick k + 1, and s never hears it; each
    # inbox is in publish order and every stamp is the sender's clock at
    # sending.
    expected = {
        0: [[], [(1, 0), (2, 0)], [(1, 1), (2, 1)]],
        1: [[(0, 0)], [(2, 0), (0, 1)], [(2, 1), (0, 2)]],
        2: [[(0, 0), (1, 0)], [(0, 1), (1, 1)], [(0, 2), (1, 2)]],
    }
    for i, node in enumerate(nodes):
        heard = [[(env.sender, env.payload) for env in inbox] for inbox in node.behavior.inboxes]
        assert heard == expected[i]
        for inbox in node.behavior.inboxes:
            for env in inbox:
                assert env.stamp == env.payload * world.dt


# ------------------------------------------------------------- sense reuse

_REUSE_KINDS = {
    "majority": {},
    "voter": {},
    "discussed_dispersion": {"mapping": {0: 0.6, 1: 1.0}},
    "dispersion": {},
    "drive": {},
}


def _hex_columns(columns):
    return {name: [float(v).hex() for v in getattr(columns, name)] for name in COLUMN_NAMES}


class ScanKeeper(Pattern):
    """Test behavior that stands still and keeps every scan it is handed."""

    def __init__(self):
        self.scans = []

    def tick(self, scan, now, dt, inbox):
        self.scans.append(scan)
        return TickResult(command=DriveCommand(0.0, 0.0))


def _standing_sim(poses):
    spec = WAFFLE
    world = WorldState(walls=rect_walls(4.0, 4.0), poses=poses, radii=[spec.body_radius] * len(poses))
    nodes = [
        RobotNode(
            behavior=ScanKeeper(),
            protection=ProtectionState(threshold=spec.protection_threshold, limits=spec.limits()),
        )
        for _ in poses
    ]
    return Simulation(world, nodes, spec, meta={})


def _last_scans(sim):
    return np.stack([node.behavior.scans[-1].ranges for node in sim.nodes])


@pytest.fixture
def raycast_calls(monkeypatch):
    calls = []
    original = swarmsim.sim.raycast_scan

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(swarmsim.sim, "raycast_scan", counted)
    return calls


def test_standing_swarm_senses_once(raycast_calls):
    sim = _standing_sim([Pose2D(-1.0, 0.0, 0.3), Pose2D(1.0, 0.5, 2.0)])
    expected = raycast_scan(sim.world, WAFFLE)
    sim.run(20)
    assert len(raycast_calls) == 1
    for node in sim.nodes:
        assert len(node.behavior.scans) == 20
        assert len({scan.ranges.tobytes() for scan in node.behavior.scans}) == 1
    assert _last_scans(sim).tobytes() == expected.tobytes()


@pytest.mark.parametrize("k", [0, 1, 2], ids=["x", "y", "theta"])
def test_pose_edit_between_steps_is_sensed(k):
    sim = _standing_sim([Pose2D(-1.0, 0.0, 0.3), Pose2D(1.0, 0.5, 2.0)])
    sim.run(2)
    sim.world.poses[1, k] += 0.05
    expected = raycast_scan(sim.world, WAFFLE)
    assert expected.tobytes() != _last_scans(sim).tobytes()
    sim.step()
    assert _last_scans(sim).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "k, value, message",
    [
        (0, math.nan, "x nan, not finite"),
        (1, -math.inf, "y -inf, not finite"),
        (2, 4.0, "heading 4.0, outside (-pi, pi]"),
        (2, -math.pi, f"heading {-math.pi!r}, outside (-pi, pi]"),
        (2, math.nan, "heading nan, outside (-pi, pi]"),
    ],
    ids=["x-nan", "y-minus-inf", "heading-4", "heading-minus-pi", "heading-nan"],
)
def test_pose_edit_to_a_pose_no_tick_stores_raises(k, value, message):
    """No tick stores a non-finite position or a heading outside the wrap,
    and the behaviors and the float move would act on one: the next step
    raises, naming the robot, before any behavior ticks or any command
    reaches protection."""
    sim = _standing_sim([Pose2D(-1.0, 0.0, 0.3), Pose2D(1.0, 0.5, 2.0)])
    sim.step()
    stamps = [node.protection.last_cmd_stamp for node in sim.nodes]
    sim.world.poses[1, k] = value
    with pytest.raises(ValueError, match=re.escape(f"robot 1 has {message}")):
        sim.step()
    assert [len(node.behavior.scans) for node in sim.nodes] == [1, 1]
    assert [node.protection.last_cmd_stamp for node in sim.nodes] == stamps
    assert sim.world.tick == 1 and len(sim.columns.tick) == 2


@pytest.mark.parametrize("k", [0, 1, 2], ids=["x", "y", "theta"])
def test_sign_of_zero_flip_is_sensed(raycast_calls, k):
    sim = _standing_sim([Pose2D(0.0, 0.0, 0.0), Pose2D(1.0, 0.5, 2.0)])
    sim.step()
    sim.world.poses[0, k] = -0.0
    assert math.copysign(1.0, sim.world.poses[0, k]) == -1.0
    expected = raycast_scan(sim.world, WAFFLE)
    sim.step()
    assert len(raycast_calls) == 2
    assert _last_scans(sim).tobytes() == expected.tobytes()


def test_pose_edit_next_to_a_wall_is_bounded_afresh():
    """An in-place edit between steps puts a robot next to a wall. The wall
    bound measures the move from the poses wall distances were taken at, so
    the step stops at the wall as resolve_wall_contact against every wall
    does. It would not if a step updated the pose array in place."""
    spec = WAFFLE
    world = WorldState(
        walls=rect_walls(4.0, 4.0), poses=[Pose2D(0.0, 0.0, 0.0)], radii=[spec.body_radius]
    )
    # A reach of 0.05 m: the sense takes no wall distance 0.16 m from a wall.
    node = RobotNode(WallDriver(DriveCommand(0.26, 0.0), 0.0), ProtectionState(0.05, spec.limits()))
    sim = Simulation(world, [node], spec, meta={})
    sim.step()
    world.poses[0, 0] = 2.0 - spec.body_radius - 0.01
    start = Pose2D(*world.poses[0].tolist())
    sim.step()
    cmd = DriveCommand(sim.columns.cmd_linear[-1], sim.columns.cmd_angular[-1])
    want = resolve_wall_contact(start, cmd, world.dt, spec.body_radius, world.walls)
    assert want.x < start.x + cmd.linear * world.dt  # the wall cuts the step short
    assert np.array_equal(world.poses[0].view(np.int64), _pose_bits(want))


def test_sensed_blocks_and_radii_are_read_only():
    radii = np.array([WAFFLE.body_radius] * 2)
    sim = _standing_sim([Pose2D(-1.0, 0.0, 0.3), Pose2D(1.0, 0.5, 2.0)])
    world = WorldState(walls=sim.world.walls, poses=[Pose2D(0.0, 0.0, 0.0)] * 2, radii=radii)
    radii[0] = 1.0
    assert world.radii[0] == WAFFLE.body_radius
    sim.step()
    sweep = raycast_scan(sim.world, WAFFLE)
    for block in (sweep, sweep[0], sim.nodes[0].behavior.scans[0].ranges):
        with pytest.raises(ValueError, match="read-only"):
            block[0] = 1.0
    for radii in (world.radii, sim.world.radii):
        with pytest.raises(ValueError, match="read-only"):
            radii[0] = 1.0


def test_walls_are_read_only_as_the_reach_assumes():
    walls = rect_walls(4.0, 4.0)
    world = WorldState(walls=walls, poses=[Pose2D(0.0, 0.0, 0.0)], radii=[0.15])
    walls[0] = [-2.0, -2.0, 2.0, 0.0]
    assert world.walls[0].tolist() == [-2.0, -2.0, 2.0, -2.0]
    with pytest.raises(ValueError, match="read-only"):
        world.walls[0] = [-2.0, -2.0, 2.0, 0.0]
    assert wall_distances(world)[0].tolist() == [2.0, 2.0, 2.0, 2.0]


# ------------------------------------------------- sense cut at the reach


@given(
    seed=st.integers(0, 2**32 - 1),
    beams=st.sampled_from([1, 3, 7, 90, 360, 361]),
    range_max=st.sampled_from([1.0, 2.5, 3.5]),
    reach=st.one_of(st.floats(0.12, 5.0), st.sampled_from(["cell", "range_max"])),
)
def test_scan_cut_at_reach_is_the_full_scan_cut_there(seed, beams, range_max, reach):
    rng = np.random.default_rng(seed)
    spec = dataclasses.replace(WAFFLE, beam_count=beams, range_max=range_max)
    # A drawn reach gets a body centre exactly reach + r away.
    world = _crowded_world(rng, reach if isinstance(reach, float) else range_max)
    full = raycast_scan(world, spec)
    if reach == "range_max":
        reach = range_max
    elif reach == "cell":  # a cut exactly at a reading keeps it
        finite = full[np.isfinite(full)]
        reach = float(rng.choice(finite)) if finite.size else spec.range_min
    cut = raycast_scan(world, spec, reach=reach)
    assert cut.tobytes() == np.where(full > reach, np.inf, full).tobytes()


def _reach_scenario(kind, seed):
    """Eight robots at seeded spots of a 6 m arena, 0.45 m or more apart,
    so that every sweep holds readings on both sides of the reach."""
    rng = np.random.default_rng(seed)
    spots = [(x, y) for x in np.arange(-2.4, 2.5, 0.6) for y in np.arange(-2.4, 2.5, 0.6)]
    picks = rng.choice(len(spots), size=8, replace=False)
    jitter = rng.uniform(-0.07, 0.07, (8, 2))
    poses = [
        [float(spots[p][0] + dx), float(spots[p][1] + dy), float(rng.uniform(-math.pi, math.pi))]
        for p, (dx, dy) in zip(picks, jitter)
    ]
    params = dict(_REUSE_KINDS.get(kind, {}))
    if kind == "discussed_dispersion":
        params["decision_duration"] = 1.0
    raw = {
        "name": "reach",
        "platform": "turtlebot3_waffle_pi",
        "arena": {"width": 6.0, "height": 6.0},
        "robots": {"poses": poses},
        "pattern": {"kind": kind, "params": params},
        "seed": seed,
        "duration": 4.0,
    }
    return load_scenario(raw)


@pytest.mark.parametrize("kind", PATTERN_KINDS)
def test_each_kind_declares_its_reach(kind):
    config = _reach_scenario(kind, 0)
    params = config.pattern_params
    reads = {
        "attraction": params.get("attraction_range"),
        "dispersion": params.get("dispersion_range"),
        "discussed_dispersion": max(params.get("mapping", {0: 0.0}).values()),
        "flocking": params.get("r_far"),
    }.get(kind, 0.0)
    sim = build_simulation(config)
    assert {node.behavior.read_range for node in sim.nodes} == {reads}
    # Of the kinds, only flocking reads its scan in its tick.
    assert {node.behavior.reads_scan for node in sim.nodes} == {kind == "flocking"}
    assert sim.reach == min(WAFFLE.range_max, max(reads, WAFFLE.protection_threshold))
    assert sim.reach < WAFFLE.range_max  # so the run cuts its sweeps
    # A scan of a cut sweep keeps the sensor's window.
    assert sim.scan(np.zeros(WAFFLE.beam_count)).range_max == WAFFLE.range_max


def test_undeclared_read_range_reaches_the_full_range():
    sim = _driven(rect_walls(4.0, 4.0), [(0.0, 0.0, 0.0, 0.0, 0.0)], threshold=0.5)
    assert sim.nodes[0].behavior.read_range == math.inf
    assert sim.reach == WAFFLE.range_max


class ScanReader(Pattern):
    """Test behavior that reads its scan to read_range: it turns while
    anything valid is nearer than that, else drives straight."""

    def __init__(self, read_range):
        self.read_range = read_range

    def tick(self, scan, now, dt, inbox):
        nearest = nearest_obstacle(scan)
        if nearest is not None and nearest[0] < self.read_range:
            return TickResult(DriveCommand(0.05, 1.0))
        return TickResult(DriveCommand(0.2, 0.0))


def _reach_sim(kind):
    sim = build_simulation(_reach_scenario("flocking" if kind == "custom" else kind, 0))
    if kind == "custom":  # the flocking world, its robots reading to r_far
        nodes = [RobotNode(ScanReader(n.behavior.r_far), n.protection) for n in sim.nodes]
        sim = Simulation(sim.world, nodes, sim.spec, meta={})
    return sim


@pytest.mark.parametrize(
    "kind, owner, name",
    [
        ("flocking", "behavior", "r_far"),
        ("flocking", "behavior", "r_near"),
        ("flocking", "protection", "threshold"),
        ("attraction", "protection", "threshold"),
        ("attraction", "behavior", "attraction_range"),
        ("custom", "behavior", "read_range"),
    ],
)
def test_a_field_the_reach_is_taken_from_raised_raises_and_lowered_matches_the_reference(
    kind, owner, name
):
    # The reach is taken once, at build. A field raised past it afterwards
    # would read past the cut sweep: the next step raises before any robot
    # moves.
    sim = _reach_sim(kind)
    assert sim.reach < 3.0
    for node in sim.nodes:
        setattr(getattr(node, owner), name, 3.0)
    poses, tick = sim.world.poses.tobytes(), sim.world.tick
    with pytest.raises(ValueError, match="past the sensed reach"):
        sim.step()
    assert (sim.world.poses.tobytes(), sim.world.tick) == (poses, tick)
    # A field lowered reads short of the reach, and the run is exact.
    sim = _reach_sim(kind)
    for node in sim.nodes:
        target = getattr(node, owner)
        setattr(target, name, 0.5 * getattr(target, name))
    world, nodes = copy.deepcopy((sim.world, sim.nodes))
    sim.run(30)
    assert _hex_columns(sim.columns) == reference_run(world, nodes, sim.spec, 30)


def test_nodes_the_reach_is_taken_from_are_fixed_once_built():
    # A behavior with a farther r_far swapped in after build would read past
    # the reach taken from the old one, and its sweeps would go short.
    sim = build_simulation(_reach_scenario("flocking", 0))
    node = sim.nodes[0]
    farther = dataclasses.replace(node.behavior, r_far=3.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        node.behavior = farther
    with pytest.raises(TypeError):
        sim.nodes[0] = RobotNode(farther, node.protection)
    assert sim.nodes[0].behavior is node.behavior
    sim.step()


class Overreach(Pattern):
    """Test behavior that declares a shorter read_range than its field reads."""

    read_range = 1.0

    def __init__(self, effect_range):
        self.effect_range = effect_range

    def tick(self, scan, now, dt, inbox):
        return TickResult(FieldRequest(self.effect_range, ATTRACTIVE, WAFFLE.limits()))


def _overreach_sim(effect_range):
    world = WorldState(
        walls=rect_walls(4.0, 4.0),
        poses=[Pose2D(-0.6, 0.0, 0.0), Pose2D(0.6, 0.0, 0.0)],
        radii=[0.15, 0.15],
    )
    nodes = [
        RobotNode(
            behavior=Overreach(effect_range),
            protection=ProtectionState(threshold=0.5, limits=WAFFLE.limits()),
        )
        for _ in range(2)
    ]
    return Simulation(world, nodes, WAFFLE, meta={})


@pytest.mark.parametrize("effect_range", [1.0, 1.5])
def test_field_request_past_the_reach_raises(effect_range):
    sim = _overreach_sim(effect_range)
    assert sim.reach == 1.0
    if effect_range <= sim.reach:
        sim.step()
    else:
        with pytest.raises(ValueError, match="past the sensed reach"):
            sim.step()
        sim.reach = WAFFLE.range_max  # a full sense holds what the field reads
        sim.step()
        # The step senses anew at the new reach, as a simulation built with
        # it does; the sweep cut at 1.0 m misses the other robot.
        full = _overreach_sim(effect_range)
        full.reach = WAFFLE.range_max
        full.step()
        assert sim.world.poses.tobytes() == full.world.poses.tobytes()
    ranges = np.full((1, WAFFLE.beam_count), np.inf)
    state = ProtectionState(threshold=0.5, limits=WAFFLE.limits())
    request = FieldRequest(effect_range, ATTRACTIVE, WAFFLE.limits())
    if effect_range > 1.0:
        with pytest.raises(ValueError, match="past the sensed reach"):
            field_pass(ranges, [math.inf], WAFFLE, [request], [state], reach=1.0)
        # A threshold past the reach raises on a tick with no field to resolve.
        state.threshold = effect_range
        with pytest.raises(ValueError, match="past the sensed reach"):
            field_pass(ranges, [math.inf], WAFFLE, [None], [state], reach=1.0)
    field_pass(ranges, [math.inf], WAFFLE, [request], [state], reach=WAFFLE.range_max)


# ----------------------------------- wall distances only where a wall can reach


class WallDriver(ConstantDrive):
    """Test behavior that drives one arc every tick and reads to read_range."""

    def __init__(self, cmd: DriveCommand, read_range: float):
        super().__init__(cmd)
        self.read_range = read_range


def _wall_run(platform, seed, read_range, threshold):
    """Robots of mixed radii in a walled arena with interior walls, each
    starting clear of every wall but at most 0.6 m from one, driving arcs at
    up to the platform's top speed: into the walls, along them and off them.
    A reach shorter than a step plus a radius takes wall distances in the
    move phase."""
    spec = PLATFORMS[platform]
    threshold = threshold or spec.protection_threshold
    rng = np.random.default_rng(seed)
    width = float(rng.uniform(2.5, 8.0))
    walls = [rect_walls(width, width)]
    for _ in range(rng.integers(0, 4)):
        x0, y0 = rng.uniform(-0.4 * width, 0.4 * width, 2)
        ang, length = rng.uniform(0.0, math.tau), rng.uniform(0.2, 3.0)
        walls.append([[x0, y0, x0 + length * math.cos(ang), y0 + length * math.sin(ang)]])
    walls = np.vstack(walls)
    poses, radii, nodes = [], [], []
    while len(poses) < rng.integers(1, 7):
        radius = float(rng.choice([0.0625, 0.15, 0.3, 0.4]))
        x, y = rng.uniform(-width / 2, width / 2, 2)
        if not radius + 0.01 <= wall_clearance(x, y, walls) <= radius + 0.6:
            continue
        poses.append(Pose2D(float(x), float(y), float(rng.uniform(-math.pi, math.pi))))
        radii.append(radius)
        linear = spec.max_linear * float(rng.choice([1.0, rng.uniform(0.1, 1.0), -1.0]))
        angular = spec.max_angular * float(rng.uniform(-0.3, 0.3))
        nodes.append(
            RobotNode(
                behavior=WallDriver(DriveCommand(linear, angular), read_range),
                protection=ProtectionState(threshold=threshold, limits=spec.limits()),
            )
        )
    world = WorldState(walls=walls, poses=poses, radii=radii)
    return Simulation(world, nodes, spec, meta={})


def test_wall_bound_takes_wall_distances_once_far_from_the_walls(monkeypatch):
    # experiment1-waffle: no robot comes within 3 m of a wall, against a 2 m
    # reach and a few centimetres of travel per tick.
    calls = []
    original = swarmsim.sim.wall_distances
    monkeypatch.setattr(
        swarmsim.sim, "wall_distances", lambda *args: calls.append(1) or original(*args)
    )
    config = load_scenario("experiment1-waffle", seed=0, duration=30.0)
    build_simulation(config).run(config.tick_count())
    assert len(calls) == 1


# ------------------------------------------ whole runs against the reference


def _reuse_grid(kind, cells, headings, decision, seed):
    """Robots on a 5 x 5 grid of 0.9 m cells in a 5 m arena, some sharing a
    cell: standing voters, robots that protection pushes apart, and
    dispersers give static, partly static and moving ticks."""
    params = dict(_REUSE_KINDS[kind])
    if kind == "discussed_dispersion":
        params["decision_duration"] = decision
    raw = {
        "name": "reuse",
        "platform": "turtlebot3_waffle_pi",
        "arena": {"width": 5.0, "height": 5.0},
        "robots": {
            "poses": [
                [0.9 * (c % 5) - 1.8 + 0.01 * n, 0.9 * (c // 5) - 1.8, headings[n]]
                for n, c in enumerate(cells)
            ]
        },
        "pattern": {"kind": kind, "params": params},
        "seed": seed,
        "duration": 3.0,
    }
    return build_simulation(load_scenario(raw))


def _large_grid(kind, spacing, seed):
    """8 x 9 jittered robots, past GRID_MIN_ROBOTS, so that the sense takes
    its body candidates from the cell grid; walls 1.5 m from the grid."""
    rng = np.random.default_rng(seed)
    cells = [(i, j) for i in range(8) for j in range(9)]
    poses = [
        [spacing * (i - 3.5), spacing * (j - 4), float(rng.uniform(-math.pi, math.pi))]
        for i, j in cells
    ]
    for pose in poses:
        pose[0] += float(rng.uniform(-0.1, 0.1)) * spacing
    raw = {
        "name": "large grid",
        "platform": "turtlebot3_waffle_pi",
        "arena": {"width": 7 * spacing + 3.0, "height": 8 * spacing + 3.0},
        "robots": {"poses": poses},
        "pattern": {"kind": kind},
        "seed": seed,
        "duration": 1.0,
    }
    return build_simulation(load_scenario(raw))


# Robots driving into outer and interior walls, and others far from any.
_PRESSED_AGAINST_WALLS = (
    np.vstack([rect_walls(4.0, 4.0), [[-0.5, 0.6, 0.8, 0.6]]]),
    [(0.0, 0.0, 0.0, 0.26, 0.0), (-1.0, 1.0, 2.0, 0.26, 0.9), (1.0, -1.0, -2.5, 0.2, -1.5),
     (-1.2, -0.3, 3.0, 0.26, 1e-10), (0.5, 1.5, 1.2, 0.1, 0.0), (0.0, -1.5, 0.0, 0.0, 1.0)],
)
# Wall-free robots, headings at +-pi and turn rates at the straight-line switch.
_FLOAT_EDGE_ROBOT = st.tuples(
    st.floats(-5, 5),
    st.floats(-5, 5),
    st.sampled_from([math.pi, -math.pi, 0.0, -0.0]) | st.floats(-math.pi, math.pi),
    st.floats(-2, 2),
    st.sampled_from([0.0, 1e-10, -1e-10, 1e-9, -1e-9]) | st.floats(-5, 5),
)
# Scene families, each as (ticks, simulation).
_SCENES = {
    "reuse grid": st.tuples(st.integers(1, 30), st.builds(
        _reuse_grid,
        st.sampled_from(sorted(_REUSE_KINDS)),
        st.lists(st.integers(0, 24), min_size=1, max_size=6),
        st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5, math.pi]), min_size=6, max_size=6),
        st.sampled_from([1.0, 2.0]),
        st.integers(0, 2**16),
    )),
    "near walls": st.tuples(st.just(25), st.builds(
        _wall_run,
        st.sampled_from(sorted(PLATFORMS)),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 1.0, math.inf]),
        st.sampled_from([None, 0.05]),
    )),
    "pressed against walls": st.builds(lambda: (150, _driven(*_PRESSED_AGAINST_WALLS))),
    "grid past the cell threshold": st.tuples(st.integers(1, 3), st.builds(
        _large_grid,
        st.sampled_from(["attraction", "dispersion"]),
        st.sampled_from([0.6, 1.3]),
        st.integers(0, 1),
    )),
    "wall-free float edges": st.tuples(st.integers(1, 5), st.builds(
        _driven,
        st.just(NO_WALLS),
        st.lists(_FLOAT_EDGE_ROBOT, min_size=1, max_size=6),
        st.sampled_from([0.05, 0.1, 0.5]),
        st.just(0.1),
    )),
}


@pytest.mark.parametrize("family", list(_SCENES))
@settings(max_examples=40)
@given(data=st.data())
def test_whole_runs_match_the_reference_tick_bit_for_bit(family, data):
    """Every trace cell of a run of Simulation.step has the bits of the
    plain reference tick, run from the same start: no sense reuse, reach
    cut, wall bound, float move or batched decide pass changes one."""
    ticks, sim = data.draw(_SCENES[family])
    world, nodes = copy.deepcopy((sim.world, sim.nodes))
    sim.run(ticks)
    assert _hex_columns(sim.columns) == reference_run(world, nodes, sim.spec, ticks)


def test_wall_bound_takes_wall_distances_at_most_once_a_tick_near_the_walls(monkeypatch):
    """A reach of 0.05 m, short of a step plus a radius: the sense takes no
    wall distance once the robots are clear of the cut, and the move phase
    takes them for the robots pressed against the walls, several in most
    ticks, at most once a tick. The run has every trace cell of the
    reference tick."""
    walls, robots = _PRESSED_AGAINST_WALLS
    world = WorldState(walls, [Pose2D(*r[:3]) for r in robots], [WAFFLE.body_radius] * len(robots))
    nodes = [
        RobotNode(WallDriver(DriveCommand(v, w), 0.0), ProtectionState(0.05, WAFFLE.limits()))
        for *_, v, w in robots
    ]
    sim = Simulation(world, nodes, WAFFLE, meta={})
    start = copy.deepcopy((sim.world, sim.nodes))
    taken_at = []
    original = swarmsim.sim.wall_distances
    monkeypatch.setattr(
        swarmsim.sim, "wall_distances", lambda world: taken_at.append(world.tick) or original(world)
    )
    sim.run(150)
    assert len(taken_at) == len(set(taken_at)) > 100
    assert _hex_columns(sim.columns) == reference_run(*start, sim.spec, 150)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind", PATTERN_KINDS)
def test_every_kind_senses_to_its_reach_with_the_bits_of_a_full_sense(kind, seed):
    """A run that cuts its sweeps at the swarm's reach, and hands a scan only
    to behaviors that read it, has every trace cell of the reference tick,
    which senses to range_max and hands every behavior its scan."""
    config = _reach_scenario(kind, seed)
    sim = build_simulation(config)
    world, nodes = copy.deepcopy((sim.world, sim.nodes))
    sim.run(config.tick_count())
    assert _hex_columns(sim.columns) == reference_run(world, nodes, sim.spec, config.tick_count())
