#!/usr/bin/env python3
"""How the cost of one robot-tick grows with swarm size.

Runs attraction (or dispersion, with --kind) on a square grid of robots
1.3 m apart, for R = 9, 25, 49, 100, 196, 900 and 2,500, in a 40 m arena or
one 6 m wider than the grid where that is larger. A measurement is the
best of three timings of Simulation.step in µs per robot-tick, in its own
process with one checkout's src/ on the path. In each of ROUNDS rounds the
checkouts take turns at every R, in an order that flips each round, so a
drift in host speed falls on all of them alike; each R gets the median and
quartiles.

    python3 scripts/scaling_sweep.py --tree parent=../parent --tree change=. \\
        --kind attraction --kind dispersion --out BENCH_scaling.json

A tree is LABEL=DIR, where DIR is the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

SIDES = (3, 5, 7, 10, 14, 30, 50)
KINDS = ("attraction", "dispersion")
SPACING = 1.3
ARENA = 40.0
TICKS = 20
REPEATS = 3
ROUNDS = 7


def arena(side: int) -> float:
    return max(ARENA, (side - 1) * SPACING + 6.0)


def scenario(side: int, kind: str = "attraction") -> dict:
    """A side x side grid centred in the arena, headings spread evenly."""
    offset = (side - 1) / 2.0
    cells = [(i, j) for i in range(side) for j in range(side)]
    poses = [
        [(i - offset) * SPACING, (j - offset) * SPACING, math.tau * (7 * k % 16) / 16]
        for k, (i, j) in enumerate(cells)
    ]
    return {
        "name": f"scaling-{side * side}",
        "platform": "turtlebot3_waffle_pi",
        "arena": {"width": arena(side), "height": arena(side)},
        "robots": {"poses": poses},
        "pattern": {"kind": kind},
        "seed": 0,
        "duration": TICKS * 0.1,
        "dt": 0.1,
    }


def measure(side: int, kind: str) -> float:
    """Best of REPEATS fresh runs, in µs of Simulation.step per robot-tick."""
    from swarmsim import build_simulation, load_scenario

    config = load_scenario(scenario(side, kind))
    best = math.inf
    for _ in range(REPEATS):
        sim = build_simulation(config)
        start = time.perf_counter()
        sim.run(TICKS)
        best = min(best, time.perf_counter() - start)
    return best / (TICKS * side * side) * 1e6


def run_tree(root: Path, side: int, kind: str) -> float:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.update({v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--measure", str(side), "--kind", kind],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    )
    return float(out.stdout.split()[-1])


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 1), "median": round(median, 1), "q3": round(q3, 1)}


def commit(root: Path) -> str:
    """The checkout's HEAD, marked -dirty when it holds uncommitted changes."""
    out = subprocess.run(
        ["git", "describe", "--always", "--dirty"],
        cwd=root,
        capture_output=True,
        text=True,
        check=False,
    )
    return out.stdout.strip() or "unknown"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--tree", action="append", metavar="LABEL=DIR", help="default: this checkout")
    ap.add_argument(
        "--kind",
        action="append",
        choices=KINDS,
        help="the robots' pattern, repeatable; default: attraction",
    )
    ap.add_argument("--out", type=Path, help="write the results as JSON here")
    ap.add_argument("--measure", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()
    kinds = args.kind or ["attraction"]
    if args.measure:
        print(measure(args.measure, kinds[0]))
        return

    default = f"change={Path(__file__).resolve().parents[1]}"
    trees = dict(t.split("=", 1) for t in args.tree or [default])
    roots = {label: Path(d).resolve() for label, d in trees.items()}
    samples = {
        label: {kind: {str(side * side): [] for side in SIDES} for kind in kinds} for label in roots
    }
    for round_ in range(ROUNDS):
        order = list(roots) if round_ % 2 == 0 else list(roots)[::-1]
        for kind in kinds:
            for side in SIDES:
                for label in order:
                    us = run_tree(roots[label], side, kind)
                    samples[label][kind][str(side * side)].append(us)
                    print(
                        f"round {round_} {kind} R={side * side:4d} {label:>10s} {us:9.1f}",
                        flush=True,
                    )

    doc = {
        "what": f"Simulation.step time per robot-tick, by pattern kind, on a 1.3 m grid "
        f"in a {ARENA:g} m arena or one 6 m wider than the grid, {TICKS} ticks, "
        f"best of {REPEATS} runs per process; "
        f"median and quartiles over {ROUNDS} alternating rounds",
        "unit": "us",
        "env": {
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
        },
        "trees": {
            label: {
                "commit": commit(root),
                "us_per_robot_tick": {
                    kind: {r: quartiles(us) for r, us in by_r.items()}
                    for kind, by_r in samples[label].items()
                },
            }
            for label, root in roots.items()
        },
    }
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
