"""Run every workload, print every metric by name with its unit, and check the gates.

Usage:
    python3 perfbench/run_all.py [--seeds 0] [--sets 1] [--json PATH]

Every workload of BENCHMARK.json runs for its run_seconds, untraced once per
seed in each of --sets sets (end-to-end metrics).  Every workload of
workloads.py, BENCHMARK.json's and the solve-n4000 scaling probe, runs traced
once on the first seed (per-layer metrics).  Every run is a fresh process.
With several seeds the end-to-end figures are the medians over the seeds,
and each metric's spread (interquartile range over median) is shown next to
its bound from BENCHMARK.json.  With two sets each set's median is shown, and
how far the second lies from the first.  Exits 1 when any gate fails:

- every operation of every run passed its correctness check;
- on solve-n1000, vi.* + solver.control_map self time >= 80% of a traced op;
- fractional.frac_integral_all self time per op grows > 5x from solve-n1000 to solve-n4000;
- on verify, fuzzy.fuzzy_metric self time >= 50% of a traced op;
- verify makes no vi.* calls and the solves make no fuzzy.fuzzy_metric calls;
- trace.overhead is reported;
- with four or more seeds, every end-to-end spread but setup_s's, in every set,
  is within its metric's bound.  setup_s's spread is printed but not gated, as
  in the benchmark contract, because a fresh process's start-up on a shared
  host spreads wider than any bound the contract allows (0.17-0.40 measured);
  its set medians are gated like every other metric's;
- with two or more sets, every later set's median of every end-to-end metric
  differs from the first set's by no more than the metric's bound.

--json writes the medians, spreads and per-layer figures, with the
layer -> end-to-end -> workload predictions: the form of baseline.json.
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from metrics import PREDICTIONS  # noqa: E402
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run of run.py in a fresh process: its result line and its detail line."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("detail: "))


def machine() -> str:
    """The hardware and software the figures were measured on."""
    import numpy

    cpuinfo = Path("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
              if line.startswith("model name")] if cpuinfo.exists() else []
    return (f"{os.cpu_count()} x {models[0] if models else platform.processor() or platform.machine()}, "
            f"{platform.system()}, Python {platform.python_version()}, "
            f"numpy {numpy.__version__}")


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="0", help="comma-separated benchmark seeds")
    parser.add_argument("--sets", type=int, default=1, help="how many times to run every seed")
    parser.add_argument("--json", type=Path, help="write the summary here")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    gates: list[tuple[str, bool]] = []
    summary = {
        "machine": machine(),
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seeds": seeds,
        "sets": args.sets,
        "run_seconds": seconds,
        "predictions": PREDICTIONS,
        "workloads": {},
    }
    for name in WORKLOADS:
        # a workload BENCHMARK.json does not list is a scaling probe, run traced only
        probe = name not in workloads
        # e2e[metric][k] holds set k's values, one per seed
        e2e: dict[str, list[list[float]]] = {}
        units = {}
        attempted = failed = 0
        for k in range(0 if probe else args.sets):
            for seed in seeds:
                result, detail = run(name, seed, seconds, 0)
                attempted += result["attempted"]
                failed += result["failed"]
                tail = detail["op_wall_s_tail"]
                print(f"{name} set {k + 1} seed {seed}: {result['attempted']} ops, "
                      f"failed_frac {detail['failed_frac']:.4g}, op_wall_s_p50 {detail['op_wall_s_p50']:.4g} s"
                      + (f", op_wall_s_p{tail[0]} {tail[1]:.4g} s" if tail else ""))
                for metric, v in result["metrics"].items():
                    e2e.setdefault(metric, [[] for _ in range(args.sets)])[k].append(v["value"])
                    units[metric] = v["unit"]
        layers, detail = run(name, seeds[0], seconds, 1)
        attempted += layers["attempted"]
        failed += layers["failed"]
        gates.append((f"{name}: every operation correct ({failed}/{attempted} failed)", failed == 0))
        entry = {"attempted": attempted, "failed_frac": failed / attempted, "probe": probe,
                 "end_to_end": {}, "per_layer": {}}
        for metric, sets in e2e.items():
            bound = bounds[metric]
            medians = [statistics.median(values) for values in sets]
            row = {"value": medians[0], "unit": units[metric]}
            line = f"  {name:12s} {metric:40s} {medians[0]:12.6g} {units[metric]}"
            if len(seeds) >= 2:
                row["spread"] = [spread(values) for values in sets]
                line += "   spread " + " ".join(f"{x:.3f}" for x in row["spread"]) + f" (bound {bound})"
                if len(seeds) >= 4 and metric != "setup_s":
                    for k, x in enumerate(row["spread"]):
                        gates.append((f"{name}: {metric} set {k + 1} spread {x:.3f} <= {bound}", x <= bound))
            if args.sets >= 2:
                row["set_medians"] = medians
                row["set_drift"] = max(abs(m / medians[0] - 1.0) for m in medians[1:])
                line += f"   set medians {' '.join(f'{m:.6g}' for m in medians)}, drift {row['set_drift']:.3f}"
                gates.append((f"{name}: {metric} set medians within {row['set_drift']:.3f} <= {bound}",
                              row["set_drift"] <= bound))
            entry["end_to_end"][metric] = row
            print(line)
        print(f"  {name:12s} {'failed_frac':40s} {failed / attempted:12.6g} fraction")
        for metric, v in layers["metrics"].items():
            entry["per_layer"][metric] = v
            print(f"  {name:12s} {metric:40s} {v['value']:12.6g} {v['unit']}")
        summary["workloads"][name] = entry

    def layer(workload, metric):
        return summary["workloads"][workload]["per_layer"][metric]["value"]

    share = sum(layer("solve-n1000", m) for m in (
        "vi.solve_vi.self_s", "vi.vi_residual.self_s", "solver.control_map.self_s"
    )) / layer("solve-n1000", "trace.op_wall_s")
    gates.append((f"solve-n1000: vi.* + solver.control_map self share {share:.3f} >= 0.8", share >= 0.8))
    growth = (layer("solve-n4000", "fractional.frac_integral_all.self_s")
              / layer("solve-n1000", "fractional.frac_integral_all.self_s"))
    gates.append((f"frac_integral_all self time per op grows {growth:.2f}x > 5x", growth > 5.0))
    share = layer("verify", "fuzzy.fuzzy_metric.self_s") / layer("verify", "trace.op_wall_s")
    gates.append((f"verify: fuzzy.fuzzy_metric self share {share:.3f} >= 0.5", share >= 0.5))
    vi_calls = layer("verify", "vi.solve_vi.calls") + layer("verify", "vi.vi_residual.calls")
    gates.append((f"verify: {vi_calls:g} vi.* calls == 0", vi_calls == 0))
    for name in ("solve-n1000", "solve-n4000"):
        calls = layer(name, "fuzzy.fuzzy_metric.calls")
        gates.append((f"{name}: {calls:g} fuzzy.fuzzy_metric calls == 0", calls == 0))
    for name in WORKLOADS:
        overhead = layer(name, "trace.overhead")
        gates.append((f"{name}: trace.overhead {overhead:.3f} reported", math.isfinite(overhead)))

    print("gates:")
    for text, ok in gates:
        print(f"  {'PASS' if ok else 'FAIL'}  {text}")
    if args.json:
        args.json.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0 if all(ok for _, ok in gates) else 1


if __name__ == "__main__":
    sys.exit(main())
