"""End-to-end acceptance checks over the shipped presets and core guarantees.

One test per numbered criterion. Each builds its verdict line with the
measured numbers and asserts on it, so a failing criterion shows exactly
what was measured.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from conftest import scan_from_array
from swarmsim import (
    DriveCommand,
    PLATFORMS,
    ProtectionState,
    arbitrate,
    integrate_pose,
    load_scenario,
    nearest_obstacle,
    raycast,
    run,
    wrap_angle,
)
from swarmsim.core import Pose2D, nearest_distances
from swarmsim.bus import Envelope, VOTE_TOPIC
from swarmsim.patterns import Majority
from swarmsim.protection import avoidance_command, note_command
from swarmsim.sim import field_pass
from oracles import marching_raycast, random_scene, rk4_pose


def initial_spread(poses) -> float:
    xs = np.array([p.x for p in poses])
    ys = np.array([p.y for p in poses])
    return float(np.hypot(xs - xs.mean(), ys - ys.mean()).mean())


def verdict(num: int, ok: bool, detail: str) -> str:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return line


# -----------------------------------------------------------------------------
# 1. Aggregation halves the spread on the 7-robot line preset.


def test_criterion_1_aggregation_halves_spread():
    ratios = []
    collisions = 0
    runtimes = []
    for seed in range(10):
        config = load_scenario("experiment1-waffle", seed=seed)
        start = initial_spread(config.poses)
        t0 = time.perf_counter()
        _, report = run(config)
        runtimes.append(time.perf_counter() - t0)
        ratios.append(float(report.mean_distance_to_centroid[-1]) / start)
        collisions += report.collision_count
    halved = sum(r <= 0.5 for r in ratios)
    ok = halved >= 8 and collisions == 0 and max(runtimes) < 30.0
    line = verdict(
        1,
        ok,
        f"{halved}/10 seeds ended at <=50% of initial spread "
        f"(ratios {', '.join(f'{r:.2f}' for r in ratios)}); "
        f"overlaps {collisions}; max runtime {max(runtimes):.1f}s",
    )
    assert ok, line


# -----------------------------------------------------------------------------
# 2. All three platform presets aggregate; the larger platform groups looser.


def test_criterion_2_cross_platform_aggregation():
    finals = {}
    details = []
    contracted = True
    for preset in ("experiment1-burger", "experiment1-waffle", "experiment1-jackal"):
        config = load_scenario(preset, seed=0)
        start = initial_spread(config.poses)
        _, report = run(config)
        final = float(report.mean_distance_to_centroid[-1])
        pairwise = float(report.min_pairwise_distance[-1])
        finals[config.platform] = pairwise
        contracted &= final < start
        details.append(f"{config.platform}: spread {start:.2f}->{final:.2f}, pair {pairwise:.2f}")
    looser = (
        finals["jackal"] > finals["turtlebot3_burger"]
        and finals["jackal"] > finals["turtlebot3_waffle_pi"]
    )
    ok = contracted and looser
    line = verdict(2, ok, "; ".join(details))
    assert ok, line


# -----------------------------------------------------------------------------
# 3. Discussed dispersion: one-window consensus, then clearance at the agreed
#    distance.


def test_criterion_3_discussed_dispersion():
    mapping = {0: 0.6, 1: 1.0, 2: 1.4}
    unique_majority_seeds = 0
    one_window = 0
    clearance_ok = 0
    for seed in range(20):
        config = load_scenario("experiment2", seed=seed)
        _, report = run(config)

        counts = Counter(config.initial_opinions)
        top = max(counts.values())
        winners = [op for op, n in counts.items() if n == top]
        if len(winners) == 1:
            unique_majority_seeds += 1
            if report.opinion_windows[0] == {winners[0]: 7}:
                one_window += 1

        last_window = report.opinion_windows[-1]
        assert len(last_window) == 1, f"seed {seed} never reached consensus"
        consensus = next(iter(last_window))
        target = mapping[consensus]
        tail = report.clearance[report.clock >= 140.0 - 1e-9]
        if bool((tail >= target - 0.05).all()):
            clearance_ok += 1

    ok = (
        unique_majority_seeds > 0
        and one_window == unique_majority_seeds
        and clearance_ok == 20
    )
    line = verdict(
        3,
        ok,
        f"one-window consensus {one_window}/{unique_majority_seeds} unique-majority seeds; "
        f"clearance at agreed distance {clearance_ok}/20 seeds",
    )
    assert ok, line


# -----------------------------------------------------------------------------
# 4. The arbiter output is exactly the avoidance command under threat and
#    exactly the fresh behavior command on clear scans.


def test_criterion_4_suppression_soundness():
    spec = PLATFORMS["turtlebot3_waffle_pi"]
    rng = np.random.default_rng(42)
    threat_checked = clear_checked = 0
    scans, states, cmds = [], [], []
    for _ in range(10_000):
        kinds = rng.uniform(size=spec.beam_count)
        ranges = np.where(
            kinds < 0.55,
            np.inf,
            np.where(kinds < 0.65, rng.uniform(0.0, 0.119), rng.uniform(0.125, 3.4)),
        )
        scans.append(scan_from_array(ranges))
        cmds.append(DriveCommand(float(rng.uniform(0, 0.26)), float(rng.uniform(-1.82, 1.82))))
        states.append(ProtectionState(threshold=0.5, limits=spec.limits()))
        note_command(states[-1], cmds[-1], 3.0)
    # Every scan goes through one decision pass, as one simulator tick's would.
    block = np.array([scan.ranges for scan in scans])
    nearest = nearest_distances(block, spec.range_min, spec.range_max).tolist()
    _, avoidance = field_pass(block, nearest, spec, [None] * len(scans), states)
    for scan, state, cmd, avoid in zip(scans, states, cmds, avoidance):
        out = arbitrate(state, 3.0, avoid)
        nearest = nearest_obstacle(scan)
        if nearest is not None and nearest[0] < 0.5:
            assert out == avoidance_command(state, scan)
            threat_checked += 1
        else:
            assert out == cmd
            clear_checked += 1
    ok = threat_checked > 0 and clear_checked > 0
    line = verdict(
        4,
        ok,
        f"10000 randomized arbiter inputs exact "
        f"({threat_checked} threatened, {clear_checked} clear)",
    )
    assert ok, line


# -----------------------------------------------------------------------------
# 5. Oracle equivalence: kinematics vs RK4, raycast vs marching, majority rule
#    vs counting.


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(7)

    n = 1000
    xs = rng.uniform(-10, 10, n)
    ys = rng.uniform(-10, 10, n)
    thetas = rng.uniform(-np.pi, np.pi, n)
    vs = rng.uniform(-3, 3, n)
    ws = rng.uniform(-5, 5, n)
    dts = rng.uniform(0.001, 0.5, n)
    ox, oy, ot = rk4_pose(xs, ys, thetas, vs, ws, dts, substeps=1000)
    pose_err = 0.0
    for i in range(n):
        p = integrate_pose(Pose2D(xs[i], ys[i], thetas[i]), DriveCommand(vs[i], ws[i]), dts[i])
        pose_err = max(
            pose_err,
            abs(p.x - ox[i]),
            abs(p.y - oy[i]),
            abs(wrap_angle(p.theta - ot[i])),
        )
    pose_ok = pose_err < 1e-6

    ray_err = 0.0
    for _ in range(100):
        origin, heading, beams, walls, circles = random_scene(rng)
        exact = raycast(origin, heading, beams, walls, circles)
        march = marching_raycast(origin, heading, beams, walls, circles, step=1e-3, cap=12.0)
        err = np.abs(np.minimum(exact, 12.0) - np.minimum(march, 12.0))
        ray_err = max(ray_err, float(err.max()))
    ray_ok = ray_err <= 2e-3

    majority_exact = 0
    for _ in range(1000):
        self_id = int(rng.integers(0, 8))
        own = int(rng.integers(0, 5))
        state = Majority(robot_id=self_id, own_opinion=own, window_length=1.0)
        last: dict[int, int] = {}
        inbox = []
        for _ in range(int(rng.integers(0, 12))):
            sender = int(rng.integers(0, 8))
            opinion = int(rng.integers(0, 5))
            inbox.append(Envelope(VOTE_TOPIC, opinion, sender, 0.0))
            last[sender] = opinion
        state.tick(None, 0.0, 0.1, inbox)
        last[self_id] = own
        counts = Counter(last.values())
        top = max(counts.values())
        tied = sorted(op for op, c in counts.items() if c == top)
        expected = own if own in tied else tied[0]
        result = state.close_window()
        majority_exact += result == expected
    majority_ok = majority_exact == 1000

    ok = pose_ok and ray_ok and majority_ok
    line = verdict(
        5,
        ok,
        f"pose max err {pose_err:.2e} (<1e-6); raycast max err {ray_err * 1000:.3f}mm (<=2mm); "
        f"majority exact {majority_exact}/1000",
    )
    assert ok, line


# -----------------------------------------------------------------------------
# 6. Same seed, same preset: bit-identical trace files.


def test_criterion_6_bitwise_determinism(tmp_path):
    cases = [
        ("experiment1-burger", 20.0),
        ("experiment1-waffle", 20.0),
        ("experiment1-jackal", 20.0),
        ("experiment2", 30.0),
        ("voting-demo", 20.0),
    ]
    identical = 0
    for preset, duration in cases:
        paths = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{preset}-{attempt}"
            config = load_scenario(preset, seed=11, duration=duration)
            run(config, out_dir=out)
            paths.append(out / "trace.csv")
        identical += paths[0].read_bytes() == paths[1].read_bytes()
    ok = identical == len(cases)
    line = verdict(6, ok, f"{identical}/{len(cases)} presets reran bit-identically")
    assert ok, line


# -----------------------------------------------------------------------------
# 7. Voting properties: tumbling windows partition time; the voter rule never
#    resurrects an extinct opinion.


@given(stamp=st.floats(0.0, 1e6), length=st.floats(0.01, 100.0))
def test_criterion_7a_windows_partition_time(stamp, length):
    base = int(stamp // length)
    hits = []
    for k in range(max(0, base - 2), base + 3):
        state = Majority(robot_id=0, own_opinion=0, window_length=length)
        state.window_index = k
        if state.window_start <= stamp < state.window_end:
            hits.append(k)
    assert len(hits) == 1, f"stamp {stamp} lies in windows {hits} for length {length}"


def test_criterion_7b_voter_live_opinions_nonincreasing():
    runs_checked = 0
    for seed in (0, 1, 2):
        config = load_scenario("voting-demo", seed=seed, duration=101.0)
        _, report = run(config)
        assert len(report.opinion_windows) >= 100
        live = set(config.initial_opinions)
        for hist in report.opinion_windows:
            now_live = set(hist)
            assert now_live <= live, f"seed {seed}: {now_live - live} reappeared"
            live = now_live
        runs_checked += 1
    ok = runs_checked == 3
    line = verdict(7, ok, f"window partition property + {runs_checked} 100-window voter runs")
    assert ok, line
