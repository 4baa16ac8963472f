"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --workloads aggregation crowd --seeds 1 2 3 4 5
    python3 perfbench/collect.py --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/baseline.json

For every end-to-end metric it prints the median, the quartiles and the
spread (interquartile distance over the median) of the per-run values, next
to the bound in BENCHMARK.json, and flags spreads above a third of the bound.
It then makes one traced run per workload, on the first seed, and keeps its
per-layer metrics in the summary.
Runs are sequential, one process at a time, from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path, help="write the summary as JSON here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in args.workloads:
        per_metric: dict[str, list[float]] = {name: [] for name in bounds}
        units: dict[str, str] = {}
        for seed in args.seeds:
            info, result = run_once(workload, seed, args.seconds, 0)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed} failed its checks: {result}")
            summary.setdefault("env", info["env"])
            for name, metric in result["metrics"].items():
                per_metric[name].append(metric["value"])
                units[name] = metric["unit"]
        rows = {}
        for name, values in per_metric.items():
            row = summarise(values)
            row["unit"] = units[name]
            row["bound"] = bounds[name]
            rows[name] = row
            flag = ""
            if name != "setup_s" and row["spread"] > bounds[name] / 3:
                flag = "  <-- above a third of the bound"
                steady = False
            print(f"{workload:12s} {name:18s} median {row['median']:12.6g} {row['unit']:5s} "
                  f"spread {row['spread']:.4f} (bound {bounds[name]}){flag}")
        info, result = run_once(workload, args.seeds[0], args.seconds, 1)
        if not result["correct"] or result["failed"]:
            raise SystemExit(f"{workload} traced seed {args.seeds[0]} failed its checks: {result}")
        rows["per_layer"] = {"seed": args.seeds[0], "info": info, "metrics": result["metrics"]}
        summary["workloads"][workload] = rows
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
