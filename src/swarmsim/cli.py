"""Command line harness.

    swarmsim run <scenario> [--seed N] [--duration S] [--out DIR]
    swarmsim replay <trace> [--out DIR]
    swarmsim metrics <trace> [--out DIR]

run executes a scenario (preset name or YAML path) and writes trace.csv,
metrics.json, and series.csv. replay re-executes the scenario embedded in a
trace header and verifies the two files are byte-identical; on a mismatch it
prints where they first differ and, without --out, keeps the replay's files
in a temporary directory. metrics recomputes the report from a trace alone.
A bad scenario, a bad trace or a file that cannot be read prints one
``error:`` line on stderr and exits with status 2.

run and metrics print the same summary, read from the trace alone: the
experiment's outcome for that seed. A batch of seeds is a shell loop over
``run --seed``.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

from .metrics import (
    compute_metrics,
    header_scenario,
    header_value,
    initial_spread,
    write_metrics_json,
    write_series_csv,
)
from .scenario import from_meta, load_scenario, run
from .trace import COLUMN_NAMES, read_trace
from .typed import load_typed


def _summary_lines(trace, report) -> list[str]:
    lines = [f"ticks: {report.tick_count}", f"collisions: {report.collision_count}"]
    if report.tick_count:
        initial = initial_spread(trace)
        final = report.mean_distance_to_centroid[-1]
        ratio = f" (ratio {final / initial:.3f})" if initial else ""
        lines.append(f"mean distance to centroid: {initial:.4f} -> {final:.4f}{ratio}")
        lines.append(f"final min pairwise distance: {report.min_pairwise_distance[-1]:.4f}")
        lines.append(f"min clearance: {report.clearance.min():.4f}")
    scenario = header_scenario(trace.meta, "initial_opinions", "pattern_params")
    opinions = header_value(scenario, "initial_opinions", list[int] | None)
    params = header_value(scenario, "pattern_params", dict)
    mapping_path = "trace header scenario.pattern_params.mapping"
    mapping = load_typed(mapping_path, dict[str, float], params.get("mapping", {}))
    if opinions is not None:
        lines.append(f"initial opinions: {opinions}")
    if report.consensus_time is not None:
        # every row of the consensus tick holds the agreed opinion
        agreed = int(trace.opinion[trace.clock == report.consensus_time][0])
        line = f"consensus at t={report.consensus_time:.1f}s on opinion {agreed}"
        if mapping:
            if str(agreed) not in mapping:
                raise ValueError(f"{mapping_path} has no range for the agreed opinion {agreed}")
            line += f", dispersion range {mapping[str(agreed)]} m"
        lines.append(line)
    elif opinions is not None:
        lines.append("consensus: never")
    return lines


def _cmd_run(args) -> int:
    config = load_scenario(args.scenario, seed=args.seed, duration=args.duration)
    out = Path(args.out) if args.out else Path("runs") / f"{config.name}-seed{config.seed}"
    trace, report = run(config, out_dir=out)
    print(f"wrote {out / 'trace.csv'}")
    for line in _summary_lines(trace, report):
        print(line)
    return 0


def _first_difference(recorded: bytes, replayed: bytes) -> str:
    """Where two differing trace files first differ: the header, a (tick,
    robot, column) cell, or a line present in only one of them."""
    lines = zip_longest(recorded.decode().splitlines(True), replayed.decode().splitlines(True))
    for lineno, (a, b) in enumerate(lines, start=1):
        if a == b:
            continue
        if lineno <= 2:
            return "header differs"
        if a is None or b is None:
            return f"line {lineno} only in the {'trace' if b is None else 'replay'}: {a or b!r}"
        old, new = a.rstrip("\n").split(","), b.rstrip("\n").split(",")
        for name, x, y in zip(COLUMN_NAMES, old, new):
            if x != y:
                return (
                    f"tick {new[0]}, robot {new[1]}, column {name}: "
                    f"{x!r} in the trace, {y!r} in the replay"
                )
        return f"line {lineno}: {a!r} in the trace, {b!r} in the replay"


def _cmd_replay(args) -> int:
    original = Path(args.trace)
    trace = read_trace(original)
    config = from_meta(trace.meta)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    else:
        out = Path(tempfile.mkdtemp(prefix="swarmsim-replay-"))
    run(config, out_dir=out)
    recorded, replayed = original.read_bytes(), (out / "trace.csv").read_bytes()
    same = replayed == recorded
    print(f"replayed {config.name} seed {config.seed}: {'MATCH' if same else 'MISMATCH'}")
    if not same:
        print(f"first difference: {_first_difference(recorded, replayed)}")
    if same and not args.out:
        shutil.rmtree(out)
    else:
        print(f"replay artifacts in {out}")
    return 0 if same else 1


def _cmd_metrics(args) -> int:
    trace_path = Path(args.trace)
    trace = read_trace(trace_path)
    report = compute_metrics(trace)
    summary = _summary_lines(trace, report)  # reads the rest of the header before any write
    out = Path(args.out) if args.out else trace_path.parent
    write_metrics_json(report, out / "metrics.json")
    write_series_csv(report, out / "series.csv")
    print(f"wrote {out / 'metrics.json'} and {out / 'series.csv'}")
    for line in summary:
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="swarmsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario preset or YAML file")
    p_run.add_argument("scenario", help="preset name (e.g. experiment1-waffle) or YAML path")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--duration", type=float, default=None)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(fn=_cmd_run)

    p_replay = sub.add_parser("replay", help="re-run a trace's scenario and compare bytes")
    p_replay.add_argument("trace")
    p_replay.add_argument("--out", default=None)
    p_replay.set_defaults(fn=_cmd_replay)

    p_metrics = sub.add_parser("metrics", help="recompute metrics from a trace file")
    p_metrics.add_argument("trace")
    p_metrics.add_argument("--out", default=None)
    p_metrics.set_defaults(fn=_cmd_metrics)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # ScenarioError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
