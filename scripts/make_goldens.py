#!/usr/bin/env python3
"""Regenerate the golden runs that tests/test_golden.py replays byte for byte.

Two paper presets cut short, plus one short run (5 robots, at most 100
ticks) for every other pattern kind. Each run lands in <out>/<name>-seed0.
A golden changes only on purpose: regenerate it after a change that is meant
to alter trace bytes, and say so with the change.

--manifest writes the paper's seed batches at their full durations instead
(PAPER_RUNS: seeds 0-9 of each experiment1 platform, seeds 0-19 of
experiment2) as sha256s of each run's three files, plus its spread ratio and
consensus time as text. tests/test_golden.py replays one seed per preset.

    PYTHONPATH=src python3 scripts/make_goldens.py [--out tests/golden]
    PYTHONPATH=src python3 scripts/make_goldens.py --manifest [tests/paper_runs.json]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import tempfile
from pathlib import Path

from swarmsim import load_scenario, run
from swarmsim.metrics import initial_spread

PRESETS = [("experiment1-waffle", 20.0), ("experiment2", 30.0)]
# preset -> the seeds of its batch, after the source paper's experiments
PAPER_RUNS = {
    "experiment1-waffle": range(10),
    "experiment1-burger": range(10),
    "experiment1-jackal": range(10),
    "experiment2": range(20),
}
MANIFEST = "tests/paper_runs.json"


def _line(count: int, spacing: float, headings="random", **extra) -> dict:
    return {"layout": "line", "count": count, "spacing": spacing, "headings": headings, **extra}


def _scenario(name: str, kind: str, params: dict, robots: dict, **extra) -> dict:
    raw = {
        "name": name,
        "platform": "turtlebot3_waffle_pi",
        "arena": {"width": 10.0, "height": 10.0},
        "robots": robots,
        "pattern": {"kind": kind, "params": params},
        "seed": 0,
        "duration": 10.0,
        "dt": 0.1,
    }
    raw.update(extra)
    return raw


SCENARIOS = [
    _scenario("dispersion", "dispersion", {"dispersion_range": 1.2}, _line(5, 0.7)),
    _scenario(
        "drive",
        "drive",
        {"linear": 0.26},
        _line(5, 1.0),
        extra_walls=[[1.5, -3.0, 1.5, 3.0]],
        staleness_limit=0.3,
    ),
    _scenario(
        "random-walk",
        "random_walk",
        {"curved_turns": True},
        _line(5, 1.0),
        platform="turtlebot3_burger",
    ),
    _scenario(
        "flocking",
        "flocking",
        {},
        _line(5, 2.0, headings=0.0, heading_jitter=0.5),
        platform="jackal",
        arena={"width": 18.0, "height": 18.0},
    ),
    _scenario(
        "majority",
        "majority",
        {"opinion_choices": [0, 1, 2], "window_length": 1.0},
        _line(5, 1.0),
    ),
    _scenario(
        "voter",
        "voter",
        {"opinion_choices": [0, 1, 2, 3], "window_length": 0.5},
        _line(5, 1.0),
    ),
]


def paper_run(preset: str, seed: int) -> dict:
    """The manifest entry of one full-length run of a preset."""
    with tempfile.TemporaryDirectory() as out:
        trace, report = run(load_scenario(preset, seed=seed), out_dir=out)
        entry = {
            name: hashlib.sha256((Path(out) / name).read_bytes()).hexdigest()
            for name in ("trace.csv", "metrics.json", "series.csv")
        }
    ratio = report.mean_distance_to_centroid[-1] / initial_spread(trace)
    consensus = report.consensus_time
    entry["spread_ratio"] = repr(float(ratio))
    entry["consensus_time"] = "never" if consensus is None else repr(consensus)
    return entry


def write_manifest(path: str) -> None:
    manifest = {
        preset: [{"seed": seed, **paper_run(preset, seed)} for seed in seeds]
        for preset, seeds in PAPER_RUNS.items()
    }
    Path(path).write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path} ({sum(map(len, PAPER_RUNS.values()))} runs)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="tests/golden")
    parser.add_argument("--manifest", nargs="?", const=MANIFEST, metavar="PATH")
    args = parser.parse_args()
    if args.manifest:
        write_manifest(args.manifest)
        return
    configs = [load_scenario(preset, seed=0, duration=d) for preset, d in PRESETS]
    configs += [load_scenario(raw) for raw in SCENARIOS]
    for config in configs:
        out = Path(args.out) / f"{config.name}-seed{config.seed}"
        run(config, out_dir=out)
        print(f"wrote {out} ({config.pattern}, {config.tick_count()} ticks)")


if __name__ == "__main__":
    main()
