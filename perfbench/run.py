"""Run one benchmark workload against the fdvi sources of this checkout.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop: one process, one CLI operation at a time through
fdvi.cli.main([...]) in-process, nothing concurrent, BLAS threads capped at
the CPUs this process may use.  Every operation is checked for correctness
from the files the CLI writes.

--trace 0 reports the end-to-end metrics.  An operation's wall and CPU time
are reported as the mean over the run: on a shared host the per-operation
times are bimodal (neighbours' load slows a whole stretch of operations by
about 1.5x), and the median jumps between the two modes where the mean moves
only with the share of slow operations.  The median and the tail percentile
are printed on the detail line before the result.

--trace 1 alternates untraced and traced operations and reports the
per-layer metrics from the traced ones; their spans are written to
.bench_out/ when the run ends.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set-up is probed in batches spread evenly from before the first operation
# to after the last, so that its median spans the same stretch of time as
# theirs.
SETUP_BATCHES = 5
SETUP_PROBES_PER_BATCH = 3

_CPUS = str(len(os.sched_getaffinity(0)))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, _CPUS)

# numpy reads the thread caps above when it is first imported
import numpy as np  # noqa: E402

from tracing import Tracer, root_of  # noqa: E402
from workloads import WORKLOADS, output_bytes, write_config  # noqa: E402


def build() -> None:
    """Byte-compile the package, so neither setup nor the first operation pays for it."""
    if not (SRC / "fdvi" / "cli.py").is_file():
        raise SystemExit(f"no fdvi sources at {SRC}")
    if not compileall.compile_dir(str(SRC / "fdvi"), quiet=1):
        raise SystemExit("byte-compiling the fdvi sources failed")
    sys.path.insert(0, str(SRC))
    import fdvi

    if Path(fdvi.__file__).resolve().parent != SRC / "fdvi":
        raise SystemExit(f"imported fdvi from {fdvi.__file__}, not from {SRC}")


def measure_setup(config: Path, overrides: list[str]) -> list[float]:
    """Seconds each fresh process took to import fdvi and build the problem."""
    times = []
    for _ in range(SETUP_PROBES_PER_BATCH):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(config), *overrides],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


@dataclass
class Op:
    wall: float
    cpu: float
    traced: bool
    fails: list[str]
    sweeps: int = 0
    bytes: int = 0
    spans: tuple[int, int] | None = None  # [first, last) index range in the tracer


def run_op(workload, argv: list[str], out: Path, seed: int, doc: dict, tracer) -> Op:
    from fdvi import cli

    workload.clear_output(out)
    captured = io.StringIO()
    first_span = len(tracer) if tracer is not None else 0
    if tracer is not None:
        tracer.install()
    rc = None
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            rc = cli.main(argv)
    except Exception:  # a crash is a failed operation, and the loop goes on
        captured.write(traceback.format_exc())
    finally:
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if tracer is not None:
            tracer.uninstall()
    op = Op(wall, cpu, tracer is not None, [], spans=(first_span, len(tracer)) if tracer is not None else None)
    try:
        if workload.command == "solve" and rc == 0:
            op.sweeps = json.loads((out / "solution_diagnostics.json").read_text())["iterations"]
            op.bytes = output_bytes(out)
        op.fails = workload.check(rc, out, seed, doc)
    except Exception:  # output the gate cannot read is a failed operation
        op.fails = [traceback.format_exc()]
    if op.fails:
        print(f"operation {' '.join(argv)} failed: {'; '.join(op.fails)}\n{captured.getvalue()}",
              file=sys.stderr)
    return op


def tail_percentile(values: list[float]):
    """The highest whole percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 20:
        return None
    pct = int(100 * (1 - 10 / n))
    return pct, statistics.quantiles(values, n=100)[pct - 1]


def end_to_end(ops: list[Op], setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "op_wall_s_mean": statistics.fmean(op.wall for op in ops),
        "op_cpu_s_mean": statistics.fmean(op.cpu for op in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(ops: list[Op], tracer, names: list[str]) -> dict:
    """Per traced op: calls and self time of each layer named "<layer>.calls" or
    "<layer>.self_s" in names, plus the derived metrics computed below."""
    traced = [op for op in ops if op.traced]
    plain = [op for op in ops if not op.traced]
    k = len(traced)
    sp = tracer.arrays()
    dur = sp["end"] - sp["start"]
    ids = {name: i for i, name in enumerate(tracer.names)}

    def mask(name):
        return sp["name_id"] == ids.get(name, -1)

    def calls(name):
        return float(np.count_nonzero(mask(name))) / k

    def self_s(name):
        return float(np.sum(sp["self"][mask(name)])) / k

    def ratio(a, b):
        return a / b if b else 0.0

    root = root_of(sp["parent"])
    under_solve = mask("solver.picard_solve")[root]
    traced_wall = sum(op.wall for op in traced)
    out = {}
    for name in names:
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = calls(layer)
        elif stat == "self_s":
            out[name] = self_s(layer)
    sweeps = sum(op.sweeps for op in traced) / k
    out["vi.residuals_per_solve"] = ratio(out["vi.vi_residual.calls"], out["vi.solve_vi.calls"])
    out["solver.sweeps"] = sweeps
    out["solver.operator_calls_per_sweep"] = ratio(out["solver.control_map.calls"], sweeps)
    lipschitz = mask("hypotheses.estimate_field_lipschitz")
    out["solver.rho_warning_s"] = float(np.sum(dur[lipschitz & under_solve])) / k
    out["solver.write_s"] = float(np.sum(dur[mask("solver.write_csv")])) / k
    out["solver.bytes_written"] = sum(op.bytes for op in traced) / k
    out["hypotheses.polish_share"] = float(np.sum(dur[mask("hypotheses.pattern_maximize")])) / traced_wall
    out["trace.op_wall_s"] = traced_wall / k
    out["trace.overhead"] = (statistics.median(op.wall for op in traced)
                             / statistics.median(op.wall for op in plain) - 1.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    build()
    from fdvi.config import example_config

    workload = WORKLOADS[args.workload]
    rng = workload.rng(args.seed)
    doc = example_config()
    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    ops: list[Op] = []
    try:
        config = work / "config.json"
        write_config(doc, config)
        out = work / "out"
        op_argv = workload.op_argv(args.seed, rng, config, out)
        overrides = [op_argv[i + 1] for i, a in enumerate(op_argv) if a == "--override"]

        def probe():  # set-up is an end-to-end metric, measured on untraced runs only
            return measure_setup(config, overrides) if tracer is None else []

        start = time.perf_counter()
        deadline = start + args.seconds
        setup = probe()
        batches = 1
        while True:
            traced = tracer is not None and len(ops) % 2 == 1
            ops.append(run_op(workload, op_argv, out, args.seed, doc, tracer if traced else None))
            now = time.perf_counter()
            if batches < SETUP_BATCHES - 1 and now >= start + batches * args.seconds / (SETUP_BATCHES - 1):
                setup += probe()
                batches += 1
            enough = len(ops) >= (2 if tracer is not None else 1)
            if enough and now >= deadline:
                break
            op_argv = workload.op_argv(args.seed, rng, config, out)
        while batches < SETUP_BATCHES:
            setup += probe()
            batches += 1
        if tracer is not None:
            spans_dir = ROOT / ".bench_out"
            spans_dir.mkdir(exist_ok=True)
            traced_ops = [op for op in ops if op.traced]
            tracer.save(spans_dir / f"spans-{workload.name}-seed{args.seed}.npz",
                        [op.spans for op in traced_ops], [op.wall for op in traced_ops])
            values = per_layer(ops, tracer, list(units))
        else:
            values = end_to_end(ops, statistics.median(setup))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for op in ops if op.fails)
    walls = [op.wall for op in ops if not op.traced]
    detail = {"workload": workload.name, "seed": args.seed, "ops": len(ops), "untraced_ops": len(walls),
              "failed_frac": failed / len(ops), "op_wall_s_p50": statistics.median(walls),
              "op_wall_s_tail": tail_percentile(walls)}
    print("detail: " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
