"""Record the default-seed reference outputs that the correctness gate compares against.

Usage: python3 perfbench/record_reference.py

Writes reference/<workload>.y.npy for each solve and reference/verify.report.json.
Run it only when a change is meant to alter these outputs, and say so.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import numpy as np

from run import ROOT, build
from workloads import DEFAULT_SEED, REFERENCE_DIR, REPORT_KEYS, WORKLOADS, write_config


def main() -> int:
    build()
    from fdvi import cli
    from fdvi.config import example_config
    from fdvi.solver import read_solution_csv

    work = ROOT / ".bench_work" / "record-reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    try:
        config = work / "config.json"
        write_config(example_config(), config)
        for workload in WORKLOADS.values():
            out = work / workload.name
            argv = workload.op_argv(DEFAULT_SEED, workload.rng(DEFAULT_SEED), config, out)
            workload.clear_output(out)
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            if rc != 0:
                raise SystemExit(f"{workload.name}: exit code {rc}")
            if workload.command == "solve":
                y, _, _ = read_solution_csv(out / "solution.csv")
                np.save(REFERENCE_DIR / f"{workload.name}.y.npy", y.values)
            else:
                report = json.loads((out / "report.json").read_text())
                (REFERENCE_DIR / "verify.report.json").write_text(
                    json.dumps({k: report[k] for k in REPORT_KEYS}, indent=2, sort_keys=True) + "\n")
            print(f"recorded {workload.name}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
