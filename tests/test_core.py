"""Scan utilities: nearest obstacle, potential fields, drive mapping."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmsim.core import (
    GRID_MIN_ROBOTS,
    ATTRACTIVE,
    REPULSIVE,
    DriveCommand,
    DriveLimits,
    Pose2D,
    ScanSnapshot,
    Vector2,
    beam_trig,
    near_pairs,
    nearest_obstacle,
    potential_field,
    potential_fields,
    segment_distances,
    vector_to_drive,
    wrap_angle,
)

from swarmsim.sim import _CULL_EPS

from conftest import make_scan, scan_from_array, scans
from oracles import potential_field_reference, segment_distances_reference


def field_oracle(scan: ScanSnapshot, effect_range: float, polarity: str) -> Vector2:
    """Plain per-beam loop over the weight definition."""
    span = effect_range - scan.range_min
    fx = fy = 0.0
    for i, r in enumerate(scan.ranges):
        if not (scan.range_min <= r <= scan.range_max):
            continue
        if r > effect_range:
            continue
        if span <= 0.0:
            w = 1.0
        else:
            w = min(1.0, max(0.0, (effect_range - r) / span))
        theta = scan.angle_min + i * scan.angle_increment
        fx += w * math.cos(theta)
        fy += w * math.sin(theta)
    if polarity == REPULSIVE:
        fx, fy = -fx, -fy
    return Vector2(fx, fy)


# -- domain type validation --------------------------------------------------


def test_scan_rejects_partial_sweep():
    with pytest.raises(ValueError):
        ScanSnapshot(
            ranges=np.ones(90),
            angle_min=0.0,
            angle_increment=math.pi / 180.0,
            range_min=0.12,
            range_max=3.5,
        )


@pytest.mark.parametrize(
    "ranges, increment, message",
    [
        (np.ones(0), math.pi / 180.0, "ranges must be a non-empty 1-D array"),
        (np.ones((2, 180)), math.pi / 90.0, "ranges must be a non-empty 1-D array"),
        (np.ones(360), 0.0, "angle_increment must be positive"),
    ],
    ids=["empty", "2-D", "zero-increment"],
)
def test_scan_rejects_a_bad_beam_set(ranges, increment, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ScanSnapshot(ranges, 0.0, increment, range_min=0.12, range_max=3.5)


@pytest.mark.parametrize("limits", [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0)])
def test_drive_limits_must_be_positive(limits):
    with pytest.raises(ValueError, match="^drive limits must be positive$"):
        DriveLimits(*limits)


def test_potential_fields_rejects_an_unknown_polarity():
    scan = make_scan({0: 1.0})
    with pytest.raises(ValueError, match="^unknown polarity: 'sideways'$"):
        potential_fields(
            scan.ranges[None, :], scan.range_min, scan.range_max, scan.trig(), [2.0], ["sideways"]
        )


def test_scan_rejects_bad_window():
    with pytest.raises(ValueError):
        make_scan(range_min=0.0)
    with pytest.raises(ValueError):
        make_scan(range_min=3.5, range_max=3.5)


def test_pose_normalizes_theta():
    pose = Pose2D(0.0, 0.0, 3.0 * math.pi)
    assert pose.theta == pytest.approx(math.pi)
    assert Pose2D(0.0, 0.0, -math.pi).theta == pytest.approx(math.pi)


def test_drive_command_requires_finite():
    with pytest.raises(ValueError):
        DriveCommand(math.nan, 0.0)
    with pytest.raises(ValueError):
        DriveCommand(0.0, math.inf)


def test_wrap_angle_half_open_interval():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(2.0 * math.pi) == pytest.approx(0.0)


# -- nearest_obstacle ---------------------------------------------------------


def test_nearest_all_invalid_is_none():
    assert nearest_obstacle(make_scan(fill=3.5 + 1.0)) is None


def test_nearest_single_valid_beam():
    scan = make_scan({0: 0.4})
    assert nearest_obstacle(scan) == (0.4, 0.0)


def test_nearest_two_beams_picks_minimum():
    scan = make_scan({0: 0.4, 180: 0.3})
    dist, bearing = nearest_obstacle(scan)
    assert dist == 0.3
    assert bearing == pytest.approx(math.pi)


def test_nearest_tie_breaks_on_lowest_index():
    scan = make_scan({10: 0.5, 40: 0.5})
    dist, bearing = nearest_obstacle(scan)
    assert dist == 0.5
    assert bearing == pytest.approx(10 * scan.angle_increment)


def test_nearest_ignores_below_floor():
    scan = make_scan({0: 0.05, 90: 1.0})
    assert nearest_obstacle(scan) == (1.0, pytest.approx(math.pi / 2))


@given(scans())
def test_nearest_is_min_of_valid(scan):
    result = nearest_obstacle(scan)
    valid = [
        (r, i)
        for i, r in enumerate(scan.ranges)
        if scan.range_min <= r <= scan.range_max
    ]
    if not valid:
        assert result is None
    else:
        best = min(valid)
        assert result[0] == best[0]
        assert result[1] == pytest.approx(best[1] * scan.angle_increment)


# -- potential_field ----------------------------------------------------------


def test_field_empty_scan_is_zero():
    assert potential_field(make_scan(), 2.0, ATTRACTIVE) == Vector2(0.0, 0.0)


def test_field_weight_clamps_to_one_at_floor():
    scan = make_scan({0: 0.12})
    force = potential_field(scan, 2.0, ATTRACTIVE)
    assert force.x == pytest.approx(1.0)
    assert force.y == pytest.approx(0.0, abs=1e-12)


def test_field_lateral_cancellation():
    scan = make_scan({90: 1.0, 270: 1.0})
    force = potential_field(scan, 2.0, REPULSIVE)
    assert force.x == pytest.approx(0.0, abs=1e-12)
    assert force.y == pytest.approx(0.0, abs=1e-12)


def test_field_hand_computed_weights():
    # obstacle at 1.0 m ahead and another at exactly the effect range
    scan = make_scan({0: 1.0, 90: 2.0})
    force = potential_field(scan, 2.0, ATTRACTIVE)
    assert force.x == pytest.approx((2.0 - 1.0) / (2.0 - 0.12))
    assert force.x == pytest.approx(0.5319148936170213)
    assert force.y == pytest.approx(0.0, abs=1e-12)


def test_field_beyond_effect_range_ignored():
    scan = make_scan({0: 2.5})
    assert potential_field(scan, 2.0, ATTRACTIVE) == Vector2(0.0, 0.0)


def test_field_degenerate_span_uses_full_weight():
    scan = make_scan({0: 0.12})
    force = potential_field(scan, 0.12, ATTRACTIVE)
    assert force.x == pytest.approx(1.0)


@given(scans(), st.floats(min_value=0.13, max_value=5.0))
def test_field_matches_loop_oracle(scan, effect_range):
    got = potential_field(scan, effect_range, ATTRACTIVE)
    want = field_oracle(scan, effect_range, ATTRACTIVE)
    assert got.x == pytest.approx(want.x, abs=1e-12)
    assert got.y == pytest.approx(want.y, abs=1e-12)


@given(scans(), st.floats(min_value=0.13, max_value=5.0))
def test_field_repulsive_is_exact_negation(scan, effect_range):
    att = potential_field(scan, effect_range, ATTRACTIVE)
    rep = potential_field(scan, effect_range, REPULSIVE)
    assert rep.x == -att.x
    assert rep.y == -att.y


@given(scans(), st.integers(min_value=0, max_value=71))
def test_field_roll_preserves_magnitude(scan, shift):
    """Rotating the scan by whole beams rotates the force by the same angle."""
    shift = shift % len(scan.ranges)
    rolled = scan_from_array(np.roll(scan.ranges, shift))
    f0 = potential_field(scan, 2.0, ATTRACTIVE)
    f1 = potential_field(rolled, 2.0, ATTRACTIVE)
    delta = shift * scan.angle_increment
    want_x = f0.x * math.cos(delta) - f0.y * math.sin(delta)
    want_y = f0.x * math.sin(delta) + f0.y * math.cos(delta)
    assert f1.x == pytest.approx(want_x, abs=1e-9)
    assert f1.y == pytest.approx(want_y, abs=1e-9)


def _bits(force: Vector2) -> np.ndarray:
    return np.array([force.x, force.y]).view(np.int64)


def _random_ranges(rng, beams, range_min, range_max, effect_range):
    """Valid, below-floor, beyond-range and inf readings, plus readings
    exactly at range_min, range_max and effect_range."""
    ranges = rng.uniform(0.0, 1.3 * range_max, beams)
    ranges[rng.random(beams) < 0.3] = np.inf
    for value in (range_min, range_max, effect_range):
        ranges[rng.random(beams) < 0.05] = value
    return ranges


@pytest.mark.parametrize("beams", [1, 2, 3, 7, 360, 361, 720])
def test_field_matches_reference_bit_for_bit(beams):
    rng = np.random.default_rng(beams)
    range_min, range_max = 0.12, 3.5
    effect_ranges = [0.5, 2.0, 3.5, 5.0, math.inf, range_min, 0.1]  # last two: span <= 0
    for trial in range(60):
        angle_min = float(rng.choice([0.0, -math.pi, rng.uniform(-math.pi, math.pi)]))
        effect_range = effect_ranges[trial % len(effect_ranges)]
        scan = ScanSnapshot(
            ranges=_random_ranges(rng, beams, range_min, range_max, effect_range),
            angle_min=angle_min,
            angle_increment=math.tau / beams,
            range_min=range_min,
            range_max=range_max,
        )
        for polarity in (ATTRACTIVE, REPULSIVE):
            with np.errstate(invalid="ignore"):  # inf / inf weights at effect_range inf
                got = potential_field(scan, effect_range, polarity)
                want = potential_field_reference(scan, effect_range, polarity)
            assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("beams", [1, 7, 360, 361])
def test_beam_trig_indexes_to_the_bits_of_the_bearings(beams):
    rng = np.random.default_rng(beams)
    for angle_min in (0.0, -math.pi, 0.3):
        scan = make_scan(beam_count=beams)
        scan.angle_min = angle_min
        trig = scan.trig()
        assert trig is beam_trig(angle_min, scan.angle_increment, beams)
        assert not trig.cos.flags.writeable
        for _ in range(50):
            theta = scan.bearings()
            mask = rng.random(beams) < rng.random()
            cos, sin = np.cos(theta[mask]), np.sin(theta[mask])
            assert np.array_equal(trig.cos[mask].view(np.int64), cos.view(np.int64))
            assert np.array_equal(trig.sin[mask].view(np.int64), sin.view(np.int64))
            wrapped = np.array(list(map(math.atan2, np.sin(theta), np.cos(theta))))[mask]
            assert np.array_equal(trig.wrapped[mask].view(np.int64), wrapped.view(np.int64))


@pytest.mark.parametrize("beams", [1, 7, 90, 360, 361, 720])
@pytest.mark.parametrize("angle_min", [0.0, -math.pi, 0.3])
def test_beam_trig_wrapped_is_math_atan2_on_every_entry(beams, angle_min):
    """The wrapped bearings do not depend on the SIMD kernels numpy picks:
    np.arctan2 differs from math.atan2 on some entries where numpy
    dispatches AVX-512 kernels."""
    trig = beam_trig(angle_min, math.tau / beams, beams)
    assert not trig.wrapped.flags.writeable
    rows = zip(trig.wrapped.tolist(), trig.sin.tolist(), trig.cos.tolist())
    for k, (wrapped, sin, cos) in enumerate(rows):
        assert wrapped.hex() == math.atan2(sin, cos).hex(), k


# -- segment distances --------------------------------------------------------


@pytest.mark.parametrize("degenerate", [False, True])
def test_segment_distances_match_reference_bit_for_bit(degenerate):
    """With and without a zero-length wall, the bits of the plain form, for
    scalar points, the step's (R, 1) column and the metrics' (T, R, 1)
    block, with points on the walls, at their ends and on their lines."""
    rng = np.random.default_rng(int(degenerate))
    for _ in range(40):
        walls = rng.uniform(-3.0, 3.0, (int(rng.integers(1, 7)), 4))
        walls[rng.random(len(walls)) < 0.3, 0] = 0.0
        if degenerate:
            walls[0, 2:] = walls[0, :2]  # a zero-length wall
        ends = walls[rng.integers(len(walls), size=20)]
        f = rng.choice([0.0, 1.0, -0.5, 1.5, rng.uniform()], 20)
        on_lines = ends[:, :2] + f[:, None] * (ends[:, 2:] - ends[:, :2])
        px = np.concatenate([rng.uniform(-4.0, 4.0, 20), on_lines[:, 0]])
        py = np.concatenate([rng.uniform(-4.0, 4.0, 20), on_lines[:, 1]])
        points = [(px[:, None], py[:, None]), (px.reshape(4, 10, 1), py.reshape(4, 10, 1))]
        for x, y in points + list(zip(px[:5].tolist(), py[:5].tolist())):
            want = segment_distances_reference(x, y, walls).view(np.int64)
            assert np.array_equal(segment_distances(x, y, walls).view(np.int64), want)


# -- vector_to_drive ----------------------------------------------------------


def test_drive_zero_force_is_rest(tb3_limits):
    assert vector_to_drive(Vector2(0.0, 0.0), tb3_limits) == DriveCommand(0.0, 0.0)


def test_drive_aligned_unit_force():
    limits = DriveLimits(max_linear=0.2, max_angular=1.8)
    cmd = vector_to_drive(Vector2(1.0, 0.0), limits)
    assert cmd.linear == pytest.approx(0.2)
    assert cmd.angular == pytest.approx(0.0)


def test_drive_perpendicular_force():
    limits = DriveLimits(max_linear=0.2, max_angular=1.8)
    cmd = vector_to_drive(Vector2(0.0, 1.0), limits)
    assert cmd.linear == pytest.approx(0.0, abs=1e-12)
    assert cmd.angular == pytest.approx(math.pi / 2)


def test_drive_rearward_force_gates_linear(tb3_limits):
    cmd = vector_to_drive(Vector2(-1.0, 0.0), tb3_limits)
    assert cmd.linear == 0.0
    assert abs(cmd.angular) == pytest.approx(tb3_limits.max_angular)


def test_drive_small_force_scales_linear(tb3_limits):
    cmd = vector_to_drive(Vector2(0.5, 0.0), tb3_limits)
    assert cmd.linear == pytest.approx(0.26 * 0.5)


def test_drive_turn_gain_amplifies_steering():
    limits = DriveLimits(max_linear=0.26, max_angular=1.82, turn_gain=3.0)
    cmd = vector_to_drive(Vector2(1.0, 0.2), limits)
    assert cmd.angular == pytest.approx(min(1.82, 3.0 * math.atan2(0.2, 1.0)))


finite_forces = st.builds(
    Vector2,
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=-50.0, max_value=50.0),
)


@given(finite_forces)
def test_drive_respects_limits_totally(force):
    limits = DriveLimits(max_linear=0.26, max_angular=1.82, turn_gain=2.5)
    cmd = vector_to_drive(force, limits)
    assert 0.0 <= cmd.linear <= limits.max_linear + 1e-12
    assert abs(cmd.angular) <= limits.max_angular + 1e-12


# ------------------------------------------------------- neighbour candidates


@st.composite
def _point_sets(draw):
    """Points on both sides of GRID_MIN_ROBOTS in count: random ones, ones
    on a cell edge of the lowest point and one ulp either side of it, and
    a far pair of points within one side of each other, above or below the
    rest and within or past 2**16 sides of them."""
    side = draw(st.sampled_from([0.3, 1.0, 1.3, 3.650001]))
    count = draw(st.sampled_from([1, 2, 9, GRID_MIN_ROBOTS - 1, GRID_MIN_ROBOTS, 90]))
    edge = st.builds(
        lambda k, shift: float(np.nextafter(k * side, shift)) if shift else k * side,
        st.integers(0, 8),
        st.sampled_from([0.0, math.inf, -math.inf]),
    )
    cell = edge | st.floats(0.0, 9 * side)
    points = draw(st.lists(st.tuples(cell, cell), min_size=count, max_size=count))
    points[0] = (0.0, 0.0)  # the lowest point, up to an ulp
    if draw(st.booleans()):
        far = draw(st.sampled_from([1e4, 1e12, -1e12]))
        points += [(far, far), (far + 0.5 * side, far - 0.25 * side)]
    n, groups = len(points), draw(st.integers(1, 3))
    group = np.array(draw(st.lists(st.integers(0, groups - 1), min_size=n, max_size=n)))
    radius = st.sampled_from([0.0, 0.125, 0.15, 0.4])
    radii = np.array(draw(st.lists(radius, min_size=n, max_size=n)))
    x, y = np.array(points).T
    return x, y, side, (None if groups == 1 else group), radii


@settings(max_examples=150)
@given(_point_sets())
def test_near_pairs_hold_every_pair_within_the_side_and_the_dense_keep_set(points):
    """Candidates: distinct points of one group, grouped by a ascending,
    with every pair whose |dx| and |dy| are within side * (1 - 1e-10).
    With the sense's side for a cut, the sense's keep test on them keeps
    the dense (R, R) keep set."""
    x, y, side, group, radii = points
    a, b = near_pairs(x, y, side, group)
    g = np.zeros(len(x), dtype=int) if group is None else group
    assert (a != b).all() and (g[a] == g[b]).all() and (np.diff(a) >= 0).all()
    found = set(zip(a.tolist(), b.tolist()))
    assert len(found) == len(a)
    dx, dy = np.abs(x[:, None] - x), np.abs(y[:, None] - y)
    near = (dx <= side * (1 - 1e-10)) & (dy <= side * (1 - 1e-10)) & (g[:, None] == g)
    np.fill_diagonal(near, False)
    assert set(zip(*(k.tolist() for k in np.nonzero(near)))) <= found

    # raycast_scan's neighbour cut, dense and on the cell grid
    cut = side / (1 + 1e-9) - radii.max() - _CULL_EPS
    if cut <= 0:
        return
    mx, my = x[None, :] - x[:, None], y[None, :] - y[:, None]
    keep = (mx * mx + my * my <= (cut + radii[None, :] + _CULL_EPS) ** 2) & (g[:, None] == g)
    np.fill_diagonal(keep, False)
    a, b = near_pairs(x, y, (cut + radii.max() + _CULL_EPS) * (1 + 1e-9), group)
    mx, my = x[b] - x[a], y[b] - y[a]
    kept = mx * mx + my * my <= (cut + radii[b] + _CULL_EPS) ** 2
    assert set(zip(a[kept].tolist(), b[kept].tolist())) == set(
        zip(*(k.tolist() for k in np.nonzero(keep)))
    )
