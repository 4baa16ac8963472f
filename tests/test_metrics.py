"""Metric computation on hand-built traces, plus trace file round trips."""

import json
import math
import warnings
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    consensus_time_reference,
    opinion_windows_reference,
    pair_metrics_reference,
    trace_rows_reference,
)
import swarmsim.metrics as metrics_module
import swarmsim.trace as trace_module
from swarmsim.core import GRID_MIN_ROBOTS
from swarmsim import compute_metrics, load_scenario, read_trace, run, write_trace
from swarmsim.metrics import MetricsReport, write_metrics_json, write_series_csv
from swarmsim.trace import COLUMN_NAMES, SCHEMA, Trace


def meta_for(robot_count, dt=0.1, radius=0.15, walls=None, window_length=None):
    scenario = {
        "robot_ids": list(range(robot_count)),
        "radii": [radius] * robot_count,
        "walls": [] if walls is None else [[float(v) for v in w] for w in walls],
        "dt": dt,
        "pattern_params": {} if window_length is None else {"window_length": window_length},
    }
    return {"format": "swarmsim-trace", "version": 1, "scenario": scenario}


def make_trace(positions, opinions=None, dt=0.1, radius=0.15, walls=None, window_length=None):
    """Trace with given (ticks, robots, 2) positions and optional opinions."""
    pos = np.asarray(positions, dtype=float)
    ticks, robots, _ = pos.shape
    rows = ticks * robots
    tick = np.repeat(np.arange(1, ticks + 1), robots)
    zeros = np.zeros(rows)
    if opinions is None:
        opinion = np.full(rows, np.nan)
    else:
        opinion = np.asarray(opinions, dtype=float).ravel()
    return Trace(
        meta=meta_for(robots, dt=dt, radius=radius, walls=walls, window_length=window_length),
        tick=tick,
        robot=np.tile(np.arange(robots), ticks),
        clock=tick * dt,
        x=pos[:, :, 0].ravel(),
        y=pos[:, :, 1].ravel(),
        theta=zeros,
        pattern_linear=zeros,
        pattern_angular=zeros,
        cmd_linear=zeros,
        cmd_angular=zeros,
        suppressed=np.zeros(rows, dtype=int),
        opinion=opinion,
    )


# ------------------------------------------------------------------- spatial


def test_two_static_robots_two_meters_apart():
    pos = [[[-1.0, 0.0], [1.0, 0.0]]] * 3
    report = compute_metrics(make_trace(pos))
    assert report.tick_count == 3
    assert np.allclose(report.mean_distance_to_centroid, 1.0)
    assert np.allclose(report.min_pairwise_distance, 2.0)
    # no walls: clearance is the distance to the other body's surface
    assert np.allclose(report.clearance, 2.0 - 0.15)
    assert report.collision_count == 0
    assert report.consensus_time is None
    assert report.opinion_windows is None


def test_coincident_robots_have_zero_spread():
    pos = [[[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]]]
    report = compute_metrics(make_trace(pos))
    assert report.mean_distance_to_centroid[0] == 0.0
    assert report.min_pairwise_distance[0] == 0.0


def test_single_robot_pairwise_is_inf():
    report = compute_metrics(make_trace([[[0.0, 0.0]]]))
    assert np.isinf(report.min_pairwise_distance).all()
    assert np.isinf(report.clearance).all()


def test_clearance_picks_nearest_surface():
    walls = [[1.0, -2.0, 1.0, 2.0]]
    pos = [[[0.3, 0.0], [-0.5, 0.0]]]
    report = compute_metrics(make_trace(pos, radius=0.2, walls=walls))
    # robot 0: wall at 0.7, robot 1 surface at 0.8 - 0.2 = 0.6
    assert report.clearance[0, 0] == pytest.approx(0.6)
    # robot 1: wall at 1.5, robot 0 surface at 0.8 - 0.2 = 0.6
    assert report.clearance[0, 1] == pytest.approx(0.6)


def test_collisions_counted_per_pair_and_tick():
    apart = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
    touching = [[0.0, 0.0], [0.2, 0.0], [2.0, 0.0]]  # pair (0,1) overlaps
    report = compute_metrics(make_trace([apart, touching, touching], radius=0.15))
    assert report.collision_count == 2


def test_empty_trace_gives_empty_report():
    report = compute_metrics(make_trace(np.empty((0, 2, 2))))
    assert report.tick_count == 0
    assert report.collision_count == 0
    assert report.consensus_time is None
    assert report.mean_distance_to_centroid.size == 0


@pytest.mark.parametrize("window_length", [None, 1.0])
@pytest.mark.parametrize("robots", [0, 3], ids=["no-robots", "three-robots"])
def test_empty_trace_gives_the_empty_report_without_warnings(tmp_path, robots, window_length):
    """No ticks, or a header with no robots at all, go through the one path
    to the empty report without a numpy warning about an empty slice."""
    trace = make_trace(np.empty((0, robots, 2)), window_length=window_length)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = compute_metrics(trace)
        write_metrics_json(report, tmp_path / "metrics.json")
        write_series_csv(report, tmp_path / "series.csv")
    assert report.robot_ids == list(range(robots))
    assert report.clock.shape == (0,)
    assert report.mean_distance_to_centroid.shape == (0,)
    assert report.min_pairwise_distance.shape == (0,)
    assert report.clearance.shape == (0, robots)
    assert report.collision_count == 0
    assert report.opinion_windows == ([] if window_length else None)
    assert report.consensus_time is None
    payload = json.loads((tmp_path / "metrics.json").read_text())
    assert payload["min_clearance_per_robot"] == [None] * robots
    assert payload["final_mean_distance_to_centroid"] is None
    assert payload["opinion_windows"] == ([] if window_length else None)


def test_incomplete_tick_rows_rejected():
    trace = make_trace([[[0.0, 0.0], [1.0, 0.0]]])
    trace.tick = trace.tick[:-1]
    with pytest.raises(ValueError):
        compute_metrics(trace)


def _robot_nine_in_seven(trace):
    trace.robot[7 + 6] = 9


def _robot_one_twice_at_tick_one(trace):
    trace.robot[2] = 1


def _tick_one_twice(trace):
    trace.tick[7:14] = 1


def _robots_zero_and_one_swapped_at_tick_two(trace):
    # every tick stays complete; only the order of its rows is wrong
    for name in COLUMN_NAMES:
        column = getattr(trace, name)
        column[[7, 8]] = column[[8, 7]]


@pytest.mark.parametrize(
    "damage, where",
    [
        (_robot_nine_in_seven, "tick 2, robot 9"),
        (_robot_one_twice_at_tick_one, "tick 1, robot 1"),
        (_tick_one_twice, "tick 1, robot 0"),
        (_robots_zero_and_one_swapped_at_tick_two, "tick 2, robot 1"),
    ],
    ids=["unknown-robot", "duplicate-robot-row", "duplicate-tick", "rows-out-of-order"],
)
def test_malformed_tick_grid_rejected_naming_tick_and_robot(damage, where):
    trace = make_trace([[[float(i), 0.0] for i in range(7)]] * 3)
    damage(trace)
    with pytest.raises(ValueError, match=where):
        compute_metrics(trace)


_GRID = st.integers(0, 4).map(lambda k: 0.1 * k)  # coincident and overlapping bodies


def _clustered(draw, robots, ticks):
    """(ticks, robots, 2) positions in a few tight or loose clusters, with
    coincident bodies, and maybe a far robot, or a non-finite cell."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centres = rng.uniform(-10.0, 10.0, (draw(st.integers(1, 4)), 2))
    spread = draw(st.sampled_from([0.05, 0.3, 1.0]))
    pos = centres[rng.integers(0, len(centres), robots)]
    pos = pos + rng.normal(0.0, spread, (ticks, robots, 2))
    pos[:, 1] = pos[:, 0]  # coincident
    far = draw(st.sampled_from([None, 50.0, 1e6, 1e12]))
    if far is not None:
        pos[:, -1] = far
    if draw(st.integers(0, 9)) == 0:
        pos[rng.integers(ticks), rng.integers(robots), rng.integers(2)] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf])
        )
    return pos.tolist()


@st.composite
def _pair_scenes(draw):
    """Up to 6 robots on a coarse grid, or on both sides of the cell grid's
    threshold in clusters (_clustered)."""
    robots = draw(st.integers(1, 6) | st.integers(GRID_MIN_ROBOTS - 2, 80))
    ticks = draw(st.integers(1, 7))
    cells = st.one_of(_GRID, st.floats(-1.0, 1.0))
    if robots <= 6:
        row = st.lists(st.tuples(cells, cells), min_size=robots, max_size=robots)
        positions = draw(st.lists(row, min_size=ticks, max_size=ticks))
    else:
        positions = _clustered(draw, robots, ticks)
    radius = st.sampled_from([0.05, 0.1, 0.15, 0.25])
    radii = draw(st.lists(radius, min_size=robots, max_size=robots))
    # interior walls, a zero-length one among them when both ends coincide
    wall = st.tuples(cells, cells, cells, cells)
    walls = draw(st.lists(wall, max_size=2))
    # 0 gives one tick per block; above ticks, the whole trace is one block
    ticks_per_block = draw(st.integers(0, ticks + 1))
    return positions, radii, walls, ticks_per_block


# 70 robots in a 0.24 x 0.36 m pile: the spacing is far under a contact
# distance, and every colliding pair must still be a candidate.
_PILE = ([[[0.04 * (k % 7), 0.04 * (k // 7)] for k in range(70)]], [0.15] * 70, [], 1)
# A cell side of 0.5 m, from the largest radius. Robot 1's one candidate
# is robot 0, 0.46 m away, but the surface of robot 2, two cells off, is
# nearer; the other 67 robots share a point 1 m up.
_SURFACE_OUTSIDE_THE_CELLS = (
    [[[0.0, 0.0], [0.46, 0.0], [1.06, 0.0]] + [[0.5, 1.0]] * 67],
    [0.05, 0.05, 0.25] + [0.05] * 67,
    [],
    1,
)

# 66 robots 0.35 m apart and 4 stragglers up to 150 m off: the bounding box
# gives one cell for the pile, which shrinks to the pile's spacing, and the
# stragglers take their dense rows.
_PILE_AND_STRAGGLERS = (
    [
        [[0.35 * (k % 11), 0.35 * (k // 11)] for k in range(66)]
        + [[100.0, 0.0], [0.0, 100.0], [100.0, 100.0], [-50.0, 60.0]]
    ],
    [0.15] * 70,
    [],
    1,
)


def test_pair_terms_match_the_masked_reference(monkeypatch):
    """Blocks of one tick, several ticks with or without a remainder, or the
    whole trace give the bits of the one-array reference, through the dense
    pass and through the cell grid: its shrunk cells and dense-row fallback
    among them."""
    ran = Counter()
    near_pairs, dense_rows = metrics_module.near_pairs, metrics_module._dense_rows

    def counted_near_pairs(*args):
        pairs = near_pairs(*args)
        ran.update(["shrink" if isinstance(pairs, int) else "grid"])
        return pairs

    def counted_dense_rows(bx, by, radii, rows):
        ran.update(["fallback" if rows.size < bx.size else "dense"])
        return dense_rows(bx, by, radii, rows)

    monkeypatch.setattr(metrics_module, "near_pairs", counted_near_pairs)
    monkeypatch.setattr(metrics_module, "_dense_rows", counted_dense_rows)

    # the parent's 100 examples for the small scenes, about half of these
    @settings(max_examples=200)
    @given(_pair_scenes())
    @example(_PILE)
    @example(_SURFACE_OUTSIDE_THE_CELLS)
    @example(_PILE_AND_STRAGGLERS)
    def check(scene):
        positions, radii, walls, ticks_per_block = scene
        pos = np.asarray(positions, dtype=float)
        _, robots, _ = pos.shape
        trace = make_trace(positions, walls=walls)
        trace.meta["scenario"]["radii"] = radii
        with pytest.MonkeyPatch.context() as mp:
            cells = ticks_per_block * robots * (robots + len(walls))
            mp.setattr(metrics_module, "BLOCK_CELLS", cells)
            report = compute_metrics(trace)
        xs, ys = pos[:, :, 0], pos[:, :, 1]
        min_pairwise, clearance, collisions = pair_metrics_reference(
            xs, ys, np.asarray(radii), np.asarray(walls, dtype=float).reshape(-1, 4)
        )
        with np.errstate(invalid="ignore"):  # inf - inf where a position is inf
            centroid = np.hypot(
                xs - xs.mean(axis=1, keepdims=True), ys - ys.mean(axis=1, keepdims=True)
            )
        for got, want in [
            (report.min_pairwise_distance, min_pairwise),
            (report.clearance, clearance),
            (report.mean_distance_to_centroid, centroid.mean(axis=1)),
        ]:
            assert list(map(float.hex, got.ravel().tolist())) == list(
                map(float.hex, want.ravel().tolist())
            )
        assert report.collision_count == collisions

    check()
    assert all(ran[way] for way in ("dense", "grid", "shrink", "fallback")), ran


def test_non_finite_positions_give_the_reference_terms_without_warnings():
    trace, _ = run(load_scenario("experiment1-waffle", duration=1.0))
    trace.x[3] = math.inf  # tick 1, robot 3
    trace.y[7 + 3] = math.nan  # tick 2, robot 3
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = compute_metrics(trace)
    scenario = trace.meta["scenario"]
    xs, ys = trace.x.reshape(-1, 7), trace.y.reshape(-1, 7)
    with np.errstate(invalid="ignore"):
        min_pairwise, clearance, collisions = pair_metrics_reference(
            xs, ys, np.asarray(scenario["radii"]), np.asarray(scenario["walls"])
        )
    for got, want in [(report.min_pairwise_distance, min_pairwise), (report.clearance, clearance)]:
        assert list(map(float.hex, got.ravel().tolist())) == list(
            map(float.hex, want.ravel().tolist())
        )
    assert np.isnan(report.clearance[:2, 3]).all() and np.isnan(report.min_pairwise_distance[1])
    assert np.isnan(report.mean_distance_to_centroid[:2]).all()
    assert report.collision_count == collisions


# ------------------------------------------------------------------- opinions


def test_consensus_time_first_unanimous_row():
    pos = [[[0.0, 0.0], [1.0, 0.0]]] * 3
    opinions = [[0, 1], [1, 1], [1, 1]]
    report = compute_metrics(make_trace(pos, opinions=opinions))
    assert report.consensus_time == pytest.approx(0.2)


def test_no_consensus_reported_when_opinions_never_agree():
    pos = [[[0.0, 0.0], [1.0, 0.0]]] * 2
    report = compute_metrics(make_trace(pos, opinions=[[0, 1], [1, 0]]))
    assert report.consensus_time is None


def test_window_histograms_sample_rows_at_window_close():
    pos = [[[0.0, 0.0], [1.0, 0.0]]] * 5
    opinions = [[0, 0], [0, 0], [0, 1], [1, 1], [1, 1]]
    report = compute_metrics(
        make_trace(pos, opinions=opinions, dt=0.1, window_length=0.2)
    )
    # window k closes at the first tick time >= (k+1)*0.2: rows 2 and 4
    assert report.opinion_windows == [{0: 1, 1: 1}, {1: 2}]


@st.composite
def _opinion_scenes(draw):
    robots = draw(st.integers(1, 6))
    ticks = draw(st.integers(0, 60))
    opinion = st.sampled_from([0.0, 1.0, 2.0, math.nan])
    opinions = draw(arrays(float, (ticks, robots), elements=opinion))
    # rows where no robot has voted yet, robots that never vote
    opinions[draw(st.lists(st.integers(0, max(ticks - 1, 0)), max_size=ticks))] = math.nan
    if draw(st.booleans()):
        opinions[:, draw(st.integers(0, robots - 1))] = math.nan
    dt = draw(st.sampled_from([0.1, 0.05, 1 / 3]))
    window_length = draw(
        st.one_of(st.none(), st.sampled_from([0.2, 0.3, 1.1, 2.2]), st.floats(0.01, 5.0))
    )
    return opinions, dt, window_length


@given(_opinion_scenes())
def test_opinion_terms_match_the_loop_references(scene):
    """Window histograms and consensus time equal the window-by-window and
    tick-by-tick loops, for empty traces, unvoted rows and robots, and
    boundaries that fall between, on or next to tick times."""
    opinions, dt, window_length = scene
    ticks, robots = opinions.shape
    trace = make_trace(
        np.zeros((ticks, robots, 2)), opinions=opinions, dt=dt, window_length=window_length
    )
    report = compute_metrics(trace)
    assert report.opinion_windows == opinion_windows_reference(opinions, dt, window_length)
    assert report.consensus_time == consensus_time_reference(opinions, trace.clock[::robots])


def test_movement_only_trace_has_no_opinion_windows():
    pos = [[[0.0, 0.0], [1.0, 0.0]]] * 2
    report = compute_metrics(make_trace(pos, window_length=1.0))
    assert report.opinion_windows is None


# ----------------------------------------------------------------- trace files


def test_trace_round_trip_is_byte_stable(tmp_path):
    config = load_scenario("experiment2", seed=2, duration=3.0)
    trace, _ = run(config)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_trace(trace, first)
    write_trace(read_trace(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_trace_round_trip_preserves_missing_opinions(tmp_path):
    config = load_scenario("experiment1-waffle", seed=0, duration=1.0)
    trace, _ = run(config)
    assert np.isnan(trace.opinion).all()
    path = tmp_path / "t.csv"
    write_trace(trace, path)
    back = read_trace(path)
    assert np.isnan(back.opinion).all()
    assert back.meta == trace.meta
    for name in ("tick", "robot", "clock", "x", "y", "theta", "cmd_linear", "cmd_angular"):
        assert np.array_equal(getattr(back, name), getattr(trace, name))


@pytest.mark.parametrize("last_opinion", [math.nan, 2.0])
def test_opinion_cells_read_back_on_a_last_line_without_newline(tmp_path, last_opinion):
    opinions = [[math.nan, 1.0], [0.0, last_opinion]]
    trace = make_trace([[[0.0, 0.0], [1.0, 0.0]]] * 2, opinions=opinions)
    path = write_trace(trace, tmp_path / "t.csv")
    path.write_text(path.read_text().rstrip("\n"))
    back = read_trace(path)
    read, wrote = back.opinion.tolist(), trace.opinion.tolist()
    assert list(map(float.hex, read)) == list(map(float.hex, wrote))


@pytest.mark.parametrize(
    "text, message",
    [
        ("x,y\n1,2\n", "{path} is not a trace file"),
        (trace_module.HEADER_PREFIX + "{}\nx,y\n1,2\n", "unexpected trace columns: ['x', 'y']"),
    ],
)
def test_read_trace_rejects_other_files(tmp_path, text, message):
    path = tmp_path / "not_a_trace.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        read_trace(path)
    assert str(info.value) == message.format(path=path)


@pytest.mark.parametrize("damage", ["short", "long"])
def test_read_trace_rejects_rows_of_the_wrong_width(tmp_path, damage):
    config = load_scenario("experiment1-waffle", seed=0, duration=0.5)
    trace, _ = run(config)
    path = tmp_path / "t.csv"
    write_trace(trace, path)
    lines = path.read_text().splitlines(keepends=True)
    row = lines[4].rstrip("\n")
    lines[4] = (row.rsplit(",", 1)[0] if damage == "short" else row + ",0") + "\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=r"t\.csv, line 5: "):
        read_trace(path)


@pytest.mark.parametrize(
    "column, cell, dtype",
    [
        ("x", "one", "float64"),
        ("x", "1_0.5", "float64"),  # Python's float() reads it
        ("x", "\u0967.5", "float64"),  # a Devanagari digit one, which float() also reads
        ("tick", "9223372036854775808", "int64"),  # 2**63, one past int64
    ],
)
def test_read_trace_names_the_line_of_a_bad_cell(tmp_path, column, cell, dtype):
    trace = make_trace([[[0.0, 0.0], [1.0, 0.0]]] * 2)
    path = write_trace(trace, tmp_path / "t.csv")
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[4].split(",")
    index = COLUMN_NAMES.index(column)
    cells[index] = cell
    lines[4] = ",".join(cells)
    path.write_text("".join(lines))
    with pytest.raises(ValueError) as info:
        read_trace(path)
    assert str(info.value) == (
        f"{path}, line 5: could not convert string {cell!r} to {dtype} at row 0, column {index + 1}."
    )


_INT64 = st.integers(-(2**63), 2**63 - 1)
# NaN, -NaN and a NaN with another payload: distinct bits, all written "nan"
_NANS = [math.nan, -math.nan, *np.array([0x7FF0_0000_0000_0001], dtype=np.int64).view(float)]
_EDGE_FLOATS = [0.0, -0.0, *_NANS, math.inf, -math.inf, 5e-324, 1e-310, 1e300, -1e300]
_FLOATS = st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS))
_OPINIONS = st.one_of(st.just(math.nan), st.integers(-(2**62), 2**62).map(float))


def _pool(draw, cells, *always):
    """A few cells, besides `always`, that every column of a kind draws from."""
    return st.sampled_from([*always, *draw(st.lists(cells, min_size=1, max_size=4))])


@st.composite
def _trace_columns(draw):
    """Columns of n rows whose cells come from small pools shared by all the
    columns of a kind, so that cells repeat within a column and across
    columns: -0.0 beside 0.0, NaNs of other bits, and a cmd_* column may be
    its pattern_* column. A float column may come as an int array."""
    n = draw(st.integers(0, 8))
    pools = {
        float: _pool(draw, _FLOATS, 0.0, -0.0, *_NANS),
        np.int64: _pool(draw, _INT64),
        "opinion": _pool(draw, _OPINIONS, math.nan),
    }
    columns = {}
    for name, dtype in SCHEMA:
        if name.startswith("cmd_") and draw(st.booleans()):
            columns[name] = columns[name.replace("cmd_", "pattern_")].copy()
            continue
        if name == "opinion":
            cells, as_dtype = pools["opinion"], float
        elif dtype is int or draw(st.booleans()):
            cells, as_dtype = pools[np.int64], np.int64
        else:
            cells, as_dtype = pools[float], float
        columns[name] = np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=as_dtype)
    return columns


@given(_trace_columns())
def test_write_trace_matches_per_cell_formatting_and_reads_back(tmp_path_factory, columns):
    trace = Trace(meta_for(1), **columns)
    path = write_trace(trace, tmp_path_factory.getbasetemp() / "cells.csv")
    assert path.read_text().split("\n", 2)[2] == trace_rows_reference(trace)
    back = read_trace(path)
    for name, dtype in SCHEMA:
        read = getattr(back, name).tolist()
        if dtype is int:
            assert read == columns[name].tolist(), name
        else:
            wrote = columns[name].astype(float).tolist()
            assert list(map(float.hex, read)) == list(map(float.hex, wrote)), name


@pytest.mark.parametrize(
    "name, cell, shown",
    [
        ("tick", 1.7, "1.7"),
        ("suppressed", 2.5, "2.5"),
        ("robot", math.nan, "nan"),
        ("tick", 2.0**63, "9.223372036854776e+18"),
        ("opinion", 1.5, "1.5"),
        ("opinion", math.inf, "inf"),
    ],
)
def test_write_trace_rejects_a_cell_that_is_not_an_integer(tmp_path, name, cell, shown):
    # The cells used to be truncated: tick 1.7 was written as 1.
    trace = make_trace([[[0.0, 0.0], [1.0, 0.0]]] * 3)
    values = getattr(trace, name).astype(float)
    values[3:] = cell
    setattr(trace, name, values)
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError) as info:
        write_trace(trace, path)
    what = "NaN or an integer" if name == "opinion" else "an int64"
    assert str(info.value) == f"trace column {name!r}, row 3: {shown} is not {what}"
    assert not path.exists()


@pytest.mark.parametrize(
    "name, cell, shown",
    [
        ("tick", 1.7, "1.7"),
        ("robot", math.nan, "nan"),
        ("suppressed", 2.0**63, "9.223372036854776e+18"),
    ],
)
def test_trace_from_columns_rejects_a_fractional_int_cell(name, cell, shown):
    # np.asarray(..., dtype=int) used to truncate: tick 1.7 became 1.
    trace = make_trace([[[0.0, 0.0], [1.0, 0.0]]] * 3)
    columns = SimpleNamespace(**{n: getattr(trace, n).tolist() for n in COLUMN_NAMES})
    getattr(columns, name)[3] = cell
    with pytest.raises(ValueError) as info:
        trace_module.trace_from_columns(trace.meta, columns)
    assert str(info.value) == f"trace column {name!r}, row 3: {shown} is not an int64"


@pytest.mark.parametrize("cell", ["1.5", "inf", "-0.5"])
def test_read_trace_rejects_a_fractional_opinion(tmp_path, cell):
    # A 1.5 used to read back, and compute_metrics truncated it to 1.
    trace = make_trace([[[0.0, 0.0], [1.0, 0.0]]] * 2, opinions=[[0.0, 1.0], [1.0, 1.0]])
    path = write_trace(trace, tmp_path / "t.csv")
    lines = path.read_text().splitlines(keepends=True)
    lines[4] = lines[4].rsplit(",", 1)[0] + f",{cell}\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError) as info:
        read_trace(path)
    assert str(info.value) == f"{path}, line 5: opinion {cell} is not NaN or an integer"
    lines[4] = lines[4].rsplit(",", 1)[0] + ",1.0\n"  # a whole float is an integer
    path.write_text("".join(lines))
    assert read_trace(path).opinion.tolist() == [0.0, 1.0, 1.0, 1.0]


# Row counts around the block size b: rows = multiple * b + offset.
_BOUNDARY_ROWS = pytest.mark.parametrize(
    "multiple, offset",
    [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)],
    ids=["empty", "one-row", "block-1", "block", "block+1", "two-blocks+1"],
)


@pytest.fixture
def small_blocks(monkeypatch):
    """Files written and read in blocks of 4 trace rows."""
    monkeypatch.setattr(trace_module, "BLOCK_CELLS", 4 * len(SCHEMA))


def _random_trace(rows):
    rng = np.random.default_rng(rows)
    columns = {
        name: rng.integers(-5, 5, rows) if dtype is int else rng.normal(size=rows)
        for name, dtype in SCHEMA
    }
    columns["opinion"] = np.where(rng.random(rows) < 0.5, np.nan, rng.integers(0, 3, rows))
    return Trace(meta_for(1), **columns)


def _assert_same_columns(back, trace):
    for name, dtype in SCHEMA:
        read, wrote = getattr(back, name), getattr(trace, name)
        assert read.dtype == np.dtype(dtype), name
        if dtype is int:
            assert read.tolist() == wrote.tolist(), name
        else:
            assert list(map(float.hex, read.tolist())) == list(map(float.hex, wrote.tolist())), name


@_BOUNDARY_ROWS
@pytest.mark.filterwarnings("error")
def test_trace_at_block_boundaries_matches_per_cell_formatting(
    small_blocks, tmp_path, multiple, offset
):
    rows = multiple * trace_module.block_rows(len(SCHEMA)) + offset
    trace = _random_trace(rows)
    path = write_trace(trace, tmp_path / "t.csv")
    assert path.read_text().split("\n", 2)[2] == trace_rows_reference(trace)
    back = read_trace(path)
    assert len(back.tick) == rows
    _assert_same_columns(back, trace)


@_BOUNDARY_ROWS
def test_series_at_block_boundaries_matches_per_row_repr(small_blocks, tmp_path, multiple, offset):
    robots = 2
    rows = multiple * trace_module.block_rows(3 + robots) + offset
    rng = np.random.default_rng(rows)
    clearance = rng.normal(size=(rows, robots))
    clearance[::3, 1] = np.inf
    report = MetricsReport(
        robot_ids=list(range(robots)),
        clock=np.arange(rows) * 0.1,
        mean_distance_to_centroid=rng.normal(size=rows),
        min_pairwise_distance=rng.normal(size=rows),
        clearance=clearance,
        collision_count=0,
        opinion_windows=None,
        consensus_time=None,
    )
    path = write_series_csv(report, tmp_path / "series.csv")
    cells = np.column_stack((
        report.clock, report.mean_distance_to_centroid, report.min_pairwise_distance, clearance
    ))
    want = "".join(",".join(map(repr, row)) + "\n" for row in cells.tolist())
    assert path.read_text().split("\n", 1)[1] == want


@pytest.mark.filterwarnings("error")
def test_blank_lines_only_read_as_an_empty_trace(small_blocks, tmp_path):
    path = write_trace(_random_trace(0), tmp_path / "t.csv")
    path.write_text(path.read_text() + "\n" * 9)
    _assert_same_columns(read_trace(path), _random_trace(0))


@pytest.mark.filterwarnings("error")
def test_blank_lines_are_skipped_and_counted_across_blocks(small_blocks, tmp_path):
    trace = _random_trace(9)
    path = write_trace(trace, tmp_path / "t.csv")
    header, names, *rows = path.read_text().splitlines(keepends=True)
    # a block of blank lines alone, then blank lines inside and across blocks
    blank = ["\n"]
    lines = [header, names, *blank * 4, *rows[:3], *blank, *rows[3:6], *blank * 2, *rows[6:]]
    lines += blank
    path.write_text("".join(lines))
    _assert_same_columns(read_trace(path), trace)

    lineno = len(lines) - 1  # the last row, after every blank line
    cells = lines[lineno - 1].split(",")
    cells[COLUMN_NAMES.index("x")] = "one"
    lines[lineno - 1] = ",".join(cells)
    path.write_text("".join(lines))
    with pytest.raises(ValueError) as info:
        read_trace(path)
    assert str(info.value) == (
        f"{path}, line {lineno}: could not convert string 'one' to float64 at row 0, column 4."
    )

    lines[lineno - 1] = ",".join(cells[1:])
    path.write_text("".join(lines))
    with pytest.raises(ValueError) as info:
        read_trace(path)
    assert str(info.value) == f"{path}, line {lineno}: 11 fields, expected 12"


@pytest.mark.parametrize("change", ["missing", "extra"])
def test_trace_rejects_missing_or_extra_columns(change):
    trace = make_trace([[[0.0, 0.0], [1.0, 0.0]]] * 2)
    columns = {name: getattr(trace, name) for name in COLUMN_NAMES}
    if change == "missing":
        del columns["opinion"]
    else:
        columns["speed"] = columns["x"]
    with pytest.raises(TypeError, match="^trace columns must be exactly "):
        Trace(trace.meta, **columns)


def test_trace_rejects_ragged_columns():
    trace = make_trace([[[0.0, 0.0], [1.0, 0.0]]] * 2)
    columns = {name: getattr(trace, name) for name in COLUMN_NAMES}
    columns["x"] = columns["x"][:-1]
    with pytest.raises(ValueError, match="differ in length"):
        Trace(trace.meta, **columns)


def test_metrics_recompute_from_file_is_identical(tmp_path):
    config = load_scenario("voting-demo", seed=1, duration=5.0)
    trace, report = run(config, out_dir=tmp_path)
    again = compute_metrics(read_trace(tmp_path / "trace.csv"))
    assert np.array_equal(report.mean_distance_to_centroid, again.mean_distance_to_centroid)
    assert np.array_equal(report.min_pairwise_distance, again.min_pairwise_distance)
    assert np.array_equal(report.clearance, again.clearance)
    assert report.collision_count == again.collision_count
    assert report.opinion_windows == again.opinion_windows
    assert report.consensus_time == again.consensus_time


def test_artifact_files_written_and_parse(tmp_path):
    config = load_scenario("experiment2", seed=3, duration=2.0)
    _, report = run(config, out_dir=tmp_path)
    payload = json.loads((tmp_path / "metrics.json").read_text())
    assert payload["tick_count"] == report.tick_count
    assert payload["robot_ids"] == report.robot_ids
    assert payload["collision_count"] == report.collision_count
    assert len(payload["min_clearance_per_robot"]) == 7
    series = (tmp_path / "series.csv").read_text().splitlines()
    assert series[0].startswith("clock,mean_distance_to_centroid,min_pairwise_distance")
    assert len(series) == report.tick_count + 1


def test_series_and_json_for_empty_run(tmp_path):
    config = load_scenario("experiment1-waffle", seed=0, duration=0.0)
    _, report = run(config, out_dir=tmp_path)
    assert report.tick_count == 0
    payload = json.loads((tmp_path / "metrics.json").read_text())
    assert payload["final_mean_distance_to_centroid"] is None
    assert payload["min_clearance_per_robot"] == [None] * 7
