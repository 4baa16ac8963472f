"""swarmsim benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload aggregation --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from ./src.
Each workload is a closed loop: one operation at a time until --seconds
have passed. With --trace 0 the last stdout line holds the end-to-end
metrics; with --trace 1 it holds per-layer metrics from spans recorded
around calls into swarmsim's modules (see tracer.py). The line before it
records the environment, the sample counts and the raw (unscaled) times.
Scratch output goes to .bench_build/perfbench/ in the checkout.

End-to-end timings are scaled to a reference host speed by a probe timed
throughout each cycle of set-up and operation; see hostspeed.py.

Every run also checks outputs: each operation's trace.csv (and metrics
files) must be byte-identical to the first operation's, to earlier runs of
the same seed in this checkout, and, for the default seed, to the sha256
values in perfbench/expected.json. A failed check or a raised exception
counts as a failed operation.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy loads: each workload is single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from hostspeed import REFERENCE_PROBE_S, HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("aggregation", "crowd", "postprocess")
# Set-up is timed in small batches between operations, so that its median
# spans the same machine conditions as the operations do.
SETUP_BATCH = 10

# name, unit, layers it is drawn from (missing if any layer's hook is gone)
PER_LAYER = [
    ("scenario.load_s", "s", ()),
    ("scenario.build_s", "s", ()),
    ("sim.robot_ticks", "count", ()),
    ("sim.step.busy_s", "s", ("sim.step",)),
    ("sim.step.other_s", "s", ("sim.step",)),
    ("sim.raycast.busy_s", "s", ("sim.raycast",)),
    ("sim.raycast.calls", "count", ("sim.raycast",)),
    ("sim.raycast.us_per_call", "us", ("sim.raycast",)),
    ("sim.integrate.busy_s", "s", ("sim.integrate",)),
    ("sim.integrate.pose_evals_per_call", "count", ("sim.integrate",)),
    ("sim.integrate.bisections", "count", ("sim.integrate",)),
    ("core.potential_field.busy_s", "s", ("core.potential_field",)),
    ("core.potential_field.calls", "count", ("core.potential_field",)),
    ("core.nearest_obstacle.busy_s", "s", ("core.nearest_obstacle",)),
    ("core.nearest_obstacle.calls", "count", ("core.nearest_obstacle",)),
    ("protection.triggered.busy_s", "s", ("protection.triggered",)),
    ("protection.arbitrate.busy_s", "s", ("protection.arbitrate",)),
    ("protection.suppressed_ratio", "ratio", ("protection.triggered",)),
    ("patterns.tick.busy_s", "s", ("patterns.tick",)),
    ("patterns.tick.calls", "count", ("patterns.tick",)),
    ("bus.busy_s", "s", ("bus.publish", "bus.drain")),
    ("bus.publish.calls", "count", ("bus.publish",)),
    ("bus.deliveries", "count", ("bus.publish",)),
    ("bus.vote.publishes", "count", ("bus.publish",)),
    ("trace.from_columns_s", "s", ("trace.from_columns",)),
    ("trace.write_s", "s", ("trace.write",)),
    ("trace.read_s", "s", ("trace.read",)),
    ("trace.bytes", "bytes", ()),
    ("metrics.compute_s", "s", ("metrics.compute",)),
    ("metrics.write_s", "s", ("metrics.write",)),
    ("tracing.overhead_s", "s", ()),
]


class CheckFailed(Exception):
    pass


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def environment() -> dict:
    import numpy

    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
    }


def _commit() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class StepTimer:
    """Times every Simulation.step call made inside ``with``.

    Between steps it lets the host-speed probe run (outside the step's time).
    """

    def __init__(self, samples: list[float], speed):
        self.samples = samples
        self.speed = speed

    def __enter__(self):
        from swarmsim.sim import Simulation

        self.original = original = Simulation.__dict__["step"]
        samples, clock, probe = self.samples, time.perf_counter, self.speed.maybe_probe

        def step(sim):
            start = clock()
            original(sim)
            samples.append(clock() - start)
            probe()

        Simulation.step = step
        return self

    def __exit__(self, *exc):
        from swarmsim.sim import Simulation

        Simulation.step = self.original


class SimWorkload:
    """aggregation and crowd: one operation is scenario.run(config, out_dir)."""

    def __init__(self, name: str, seed: int):
        import inputs

        self.name = name
        if name == "aggregation":
            self.source, self.duration = inputs.AGGREGATION_PRESET, inputs.AGGREGATION_DURATION
            self.seed = seed
        else:
            self.source, self.duration = inputs.crowd_scenario(seed), None
            self.seed = None
        self.config = self.load()

    def load(self):
        from swarmsim.scenario import load_scenario

        return load_scenario(self.source, seed=self.seed, duration=self.duration)

    def setup_once(self) -> tuple[float, float]:
        from swarmsim.scenario import build_simulation

        t0 = time.perf_counter()
        config = self.load()
        t1 = time.perf_counter()
        build_simulation(config)
        return t1 - t0, time.perf_counter() - t1

    def work_units(self) -> int:
        return self.config.tick_count() * len(self.config.poses)

    def operation(self, out: Path, step_samples: list[float], speed) -> tuple[float, float, dict]:
        """(op seconds, seconds inside Simulation.step, output sha256s).

        Op seconds leave out the host-speed probes run between steps.
        """
        import swarmsim.scenario as scenario

        first = len(step_samples)
        with StepTimer(step_samples, speed):
            probed = speed.spent
            t0 = time.perf_counter()
            scenario.run(self.config, out)
            elapsed = time.perf_counter() - t0 - (speed.spent - probed)
        stepped = sum(step_samples[first:])
        if len(step_samples) - first != self.config.tick_count():
            raise CheckFailed(f"{len(step_samples) - first} steps, expected {self.config.tick_count()}")
        return elapsed, stepped, _output_shas(out)


class PostprocessWorkload:
    """postprocess: from_columns, write, read, compute and write metrics."""

    def __init__(self, seed: int):
        import inputs
        from swarmsim.scenario import load_scenario, to_meta
        from swarmsim.trace import COLUMN_NAMES

        self.config = load_scenario(inputs.postprocess_scenario(seed))
        self.meta = to_meta(self.config)
        self.columns = inputs.synthetic_columns(self.config, COLUMN_NAMES, seed)
        self.round_trip_checked = False

    def setup_once(self) -> tuple[float, float]:
        from swarmsim.scenario import from_meta

        t0 = time.perf_counter()
        from_meta(self.meta)
        return time.perf_counter() - t0, 0.0

    def work_units(self) -> int:
        return len(self.columns.tick)

    def operation(self, out: Path, step_samples: list[float], speed) -> tuple[float, float, dict]:
        """Host-speed probes run between the stages; op seconds leave them out."""
        import numpy as np
        import swarmsim.metrics as metrics
        import swarmsim.trace as trace_mod

        out.mkdir(parents=True, exist_ok=True)
        probed = speed.spent
        t0 = time.perf_counter()
        trace = trace_mod.trace_from_columns(self.meta, self.columns)
        speed.burst()
        trace_mod.write_trace(trace, out / "trace.csv")
        speed.burst()
        back = trace_mod.read_trace(out / "trace.csv")
        speed.burst()
        report = metrics.compute_metrics(back)
        speed.burst()
        metrics.write_metrics_json(report, out / "metrics.json")
        metrics.write_series_csv(report, out / "series.csv")
        elapsed = time.perf_counter() - t0 - (speed.spent - probed)
        step_samples.append(elapsed)

        if back.meta != self.meta:
            raise CheckFailed("trace header changed in the round trip")
        for name in trace_mod.COLUMN_NAMES:
            if not np.array_equal(getattr(back, name), getattr(trace, name), equal_nan=True):
                raise CheckFailed(f"column {name} changed in the round trip")
        if not self.round_trip_checked:
            trace_mod.write_trace(back, out / "trace.roundtrip.csv")
            if (out / "trace.roundtrip.csv").read_bytes() != (out / "trace.csv").read_bytes():
                raise CheckFailed("write(read(trace)) is not byte-identical to the trace")
            self.round_trip_checked = True
        return elapsed, elapsed, _output_shas(out)


def _output_shas(out: Path) -> dict:
    return {name: sha256(out / name) for name in ("trace.csv", "metrics.json", "series.csv")}


def make_workload(name: str, seed: int):
    if name == "postprocess":
        return PostprocessWorkload(seed)
    return SimWorkload(name, seed)


class Runner:
    """Runs cycles of set-up and one operation, counting attempts and failures.

    The timings kept for the end-to-end metrics are scaled to the reference
    host speed by the probes of their own cycle (see hostspeed.py); raw
    set-up and operation times are kept beside them.
    """

    def __init__(self, workload, name: str, seed: int):
        self.workload = workload
        self.name = name
        self.seed = seed
        self.speed = HostSpeed()
        self.attempted = 0
        self.failed = 0
        self.first_shas: dict | None = None
        self.loads: list[float] = []
        self.builds: list[float] = []
        self.raw_run_s: list[float] = []
        self.scales: list[float] = []
        self.setup_s: list[float] = []
        self.run_s: list[float] = []
        self.throughput: list[float] = []
        self.step_samples: list[float] = []

    def cycle(self, out: Path) -> None:
        """A batch of set-ups and one operation, between two probe bursts."""
        first = len(self.speed.samples)
        self.speed.burst()
        setups = []
        for _ in range(SETUP_BATCH):
            load_s, build_s = self.workload.setup_once()
            self.loads.append(load_s)
            self.builds.append(build_s)
            setups.append(load_s + build_s)
        done = self.op(out)
        self.speed.burst()
        scale = self.speed.scale(first)
        self.scales.append(scale)
        self.setup_s.extend(t * scale for t in setups)
        if done is not None:
            elapsed, stepped, samples = done
            self.raw_run_s.append(elapsed)
            self.run_s.append(elapsed * scale)
            self.throughput.append(self.workload.work_units() / (stepped * scale))
            self.step_samples.extend(t * scale for t in samples)

    def op(self, out: Path) -> tuple[float, float, list[float]] | None:
        """One checked operation: raw (op seconds, step seconds, step samples), or None if it failed."""
        self.attempted += 1
        gc.collect()
        samples: list[float] = []
        try:
            elapsed, stepped, shas = self.workload.operation(out, samples, self.speed)
            if self.first_shas is None:
                self.first_shas = shas
                check_history(self.name, self.seed, shas)
            elif shas != self.first_shas:
                raise CheckFailed(f"outputs differ from the first operation: {shas}")
        except Exception:  # one failed operation must not end the run
            traceback.print_exc()
            self.failed += 1
            return None
        return elapsed, stepped, samples


def check_history(name: str, seed: int, shas: dict) -> None:
    """Outputs of one seed must match earlier runs in this checkout."""
    path = OUT / "outputs.json"
    history = json.loads(path.read_text()) if path.is_file() else {}
    key = f"{name}/seed{seed}"
    if key in history and history[key] != shas:
        raise CheckFailed(f"outputs differ from an earlier run of {key}: {history[key]}")
    history[key] = shas
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(history, indent=1, sort_keys=True))
    tmp.replace(path)


def golden_check(name: str, out: Path) -> bool:
    """Run the default seed once and compare with perfbench/expected.json."""
    import inputs

    expected = json.loads((HERE / "expected.json").read_text())[name]
    runner = Runner(make_workload(name, inputs.DEFAULT_SEED), name, inputs.DEFAULT_SEED)
    runner.op(out)
    if runner.failed or runner.first_shas != expected:
        print(f"golden check failed for {name}: got {runner.first_shas}, want {expected}", file=sys.stderr)
        return False
    return True


def percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "robot_ticks_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def end_to_end(runner: Runner) -> dict:
    """Medians over the run; step percentiles pool every step of every operation.

    Timings are in reference-host seconds (see hostspeed.py). On postprocess,
    which has no Simulation.step, a step is one operation.
    """
    values = {
        "setup_s": statistics.median(runner.setup_s),
        "run_s": statistics.median(runner.run_s),
        "robot_ticks_per_s": statistics.median(runner.throughput),
        "step_ms_p50": percentile(runner.step_samples, 50) * 1e3,
        "step_ms_p90": percentile(runner.step_samples, 90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def per_layer(tracer, runner: Runner, traced_s: list[float], out: Path) -> tuple[dict, dict]:
    """Per-operation layer figures from the traced operations, and checks."""
    from tracer import STEP_LAYERS

    n = len(traced_s)
    lt = tracer.layer_times()

    def layer(name: str) -> dict:
        return lt.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    counts = tracer.counts
    raycast = layer("sim.raycast")
    step = layer("sim.step")
    integrate_calls = counts["sim.integrate.calls"]
    checks = counts["protection.step_checks"]
    values = {
        "scenario.load_s": statistics.median(runner.loads),
        "scenario.build_s": statistics.median(runner.builds),
        "sim.robot_ticks": runner.workload.work_units() if step["calls"] else 0,
        "sim.step.busy_s": step["total_s"] / n,
        "sim.step.other_s": step["self_s"] / n,
        "sim.raycast.busy_s": raycast["self_s"] / n,
        "sim.raycast.calls": raycast["calls"] / n,
        "sim.raycast.us_per_call": raycast["total_s"] / raycast["calls"] * 1e6 if raycast["calls"] else 0.0,
        "sim.integrate.busy_s": layer("sim.integrate")["self_s"] / n,
        "sim.integrate.pose_evals_per_call": (
            counts["sim.integrate.pose_evals"] / integrate_calls if integrate_calls else 0.0
        ),
        "sim.integrate.bisections": counts["sim.integrate.bisections"] / n,
        "core.potential_field.busy_s": layer("core.potential_field")["self_s"] / n,
        "core.potential_field.calls": layer("core.potential_field")["calls"] / n,
        "core.nearest_obstacle.busy_s": layer("core.nearest_obstacle")["self_s"] / n,
        "core.nearest_obstacle.calls": layer("core.nearest_obstacle")["calls"] / n,
        "protection.triggered.busy_s": layer("protection.triggered")["self_s"] / n,
        "protection.arbitrate.busy_s": layer("protection.arbitrate")["self_s"] / n,
        "protection.suppressed_ratio": counts["protection.suppressed"] / checks if checks else 0.0,
        "patterns.tick.busy_s": layer("patterns.tick")["self_s"] / n,
        "patterns.tick.calls": layer("patterns.tick")["calls"] / n,
        "bus.busy_s": (layer("bus.publish")["self_s"] + layer("bus.drain")["self_s"]) / n,
        "bus.publish.calls": layer("bus.publish")["calls"] / n,
        "bus.deliveries": counts["bus.deliveries"] / n,
        "bus.vote.publishes": counts["bus.vote.publishes"] / n,
        "trace.from_columns_s": layer("trace.from_columns")["total_s"] / n,
        "trace.write_s": layer("trace.write")["total_s"] / n,
        "trace.read_s": layer("trace.read")["total_s"] / n,
        "trace.bytes": (out / "trace.csv").stat().st_size,
        "metrics.compute_s": layer("metrics.compute")["total_s"] / n,
        "metrics.write_s": layer("metrics.write")["total_s"] / n,
        "tracing.overhead_s": statistics.mean(traced_s) - statistics.mean(runner.raw_run_s),
    }
    accounted = sum(layer(name)["self_s"] for name in STEP_LAYERS) + step["self_s"]
    checks_out = {
        "step_total_s": step["total_s"],
        "step_accounted_s": accounted,
        "accounted": abs(accounted - step["total_s"]) <= 1e-9 * max(1.0, step["total_s"]),
    }
    metrics = {}
    for name, unit, layers in PER_LAYER:
        gone = any(lay in tracer.missing for lay in layers)
        metrics[name] = (None if gone else values[name], unit)
    return metrics, checks_out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "swarmsim" / "__init__.py").is_file():
        print(f"no swarmsim sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import swarmsim

    if Path(swarmsim.__file__).resolve().parent != (SRC / "swarmsim").resolve():
        print(f"imported swarmsim from {swarmsim.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from tracer import Tracer

    OUT.mkdir(parents=True, exist_ok=True)
    work_dir = OUT / args.workload
    name, seed = args.workload, args.seed

    golden_ok = golden_check(name, work_dir / "golden")
    workload = make_workload(name, seed)
    runner = Runner(workload, name, seed)
    runner.attempted += 1
    runner.failed += not golden_ok

    tracer = Tracer()
    traced_s: list[float] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        runner.cycle(work_dir / "op")
        if args.trace:
            with tracer:
                done = runner.op(work_dir / "op")
            if done is not None:
                traced_s.append(done[0])
        if time.perf_counter() >= deadline:
            break

    info = {
        "env": environment(),
        "workload": name,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "operations": len(runner.run_s),
        "traced_operations": len(traced_s),
        "step_samples": len(runner.step_samples),
        "host_speed": {
            "reference_probe_s": REFERENCE_PROBE_S,
            "probes": len(runner.speed.samples),
            "probe_s_mean": statistics.fmean(runner.speed.samples),
            "scale_median": statistics.median(runner.scales),
            "raw_setup_s": statistics.median(a + b for a, b in zip(runner.loads, runner.builds)),
            "raw_run_s": statistics.median(runner.raw_run_s) if runner.raw_run_s else None,
        },
        "outputs": runner.first_shas,
        "missing_layers": sorted(tracer.missing),
    }
    if not runner.run_s or (args.trace and not traced_s):
        print(json.dumps(info))
        print("no operation succeeded", file=sys.stderr)
        return 1
    if args.trace:
        metrics, accounting = per_layer(tracer, runner, traced_s, work_dir / "op")
        info["step_accounting"] = accounting
        if not accounting["accounted"]:
            runner.failed += 1
        tracer.write_spans(OUT / f"spans-{name}.csv")
    else:
        metrics = end_to_end(runner)

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    (OUT / f"result-{name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1) + "\n"
    )
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
