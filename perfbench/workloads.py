"""Workloads: seeded inputs, the CLI call of one operation, and its correctness gate.

Seed DEFAULT_SEED runs the shipped example_config() unchanged, and its
outputs are compared against references recorded under reference/.  Any
other seed draws one input per operation from a generator keyed by
(seed, workload): alpha in [0, 1] and selection.lambda in [-1, 1] for the
solves, the sampling seed for verify.  The program sees only a config file
and CLI arguments.
"""

from __future__ import annotations

import json
import math
import shutil
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
# Later changes that claim a gain must also show it on this seed.  It was
# used neither to tune the benchmark nor to record baseline.json, only to
# check that every operation on it passes.
HELD_OUT_SEED = 1009

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

PICARD_TOL = 1e-9
VI_TOL = 1e-10
BOUNDARY_TOL = 1e-12
REFERENCE_Y_TOL = 1e-8
REFERENCE_REL_TOL = 1e-9
RHO_REL_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "solve" or "verify"
    overrides: tuple[str, ...]

    def rng(self, seed: int) -> np.random.Generator:
        """The stream this workload draws its inputs from under a benchmark seed."""
        return np.random.default_rng([seed, zlib.crc32(self.name.encode())])

    def op_argv(self, seed: int, rng: np.random.Generator, config: Path, out: Path) -> list[str]:
        """CLI arguments of the next operation; draws from rng unless seed is the default."""
        argv = [self.command, "--config", str(config)]
        for item in self.overrides:
            argv += ["--override", item]
        if self.command == "solve":
            argv += ["--out", str(out)]
            if seed != DEFAULT_SEED:
                alpha = float(rng.uniform(0.0, 1.0))
                lam = float(rng.uniform(-1.0, 1.0))
                argv += ["--override", f"alpha={alpha!r}", "--override", f"selection.lambda=[{lam!r}]"]
        else:
            argv += ["--out", str(out / "report.json")]
            if seed != DEFAULT_SEED:
                argv += ["--seed", str(int(rng.integers(0, 2**31)))]
        return argv

    def clear_output(self, out: Path) -> None:
        """Remove the previous operation's files, so the gate reads only fresh ones."""
        shutil.rmtree(out, ignore_errors=True)
        if self.command == "verify":
            # `fdvi verify --out` does not create a missing parent directory
            out.mkdir(parents=True)

    def check(self, rc, out: Path, seed: int, doc: dict) -> list[str]:
        """Reasons the operation's outputs are wrong; empty when they are correct."""
        if rc != 0:
            return [f"exit code {rc}"]
        if self.command == "solve":
            return _check_solve(out, self.name if seed == DEFAULT_SEED else None)
        return _check_verify(out / "report.json", doc, seed == DEFAULT_SEED)


# BENCHMARK.json lists the workloads a benchmark run measures.  solve-n4000 is
# not among them: it is the scaling probe that run_all.py traces once to check
# that the O(N^2) convolution grows faster than the O(N) per-node loop.  A
# full benchmark repeats every workload some twenty times, and its time budget
# holds two workloads at the 60-s runs a steady figure needs, not three.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve-n1000", "solve", ()),
        Workload("solve-n4000", "solve", ("solver.N=4000",)),
        Workload("verify", "verify", ()),
    )
}


def _check_solve(out: Path, reference: str | None) -> list[str]:
    from fdvi.solver import SolutionBundle, read_solution_csv

    fails = []
    diag = json.loads((out / "solution_diagnostics.json").read_text())
    if diag.get("converged") is not True:
        fails.append("not converged")
    if not diag["final_residual"] <= PICARD_TOL:
        fails.append(f"final_residual {diag['final_residual']:.3e} > {PICARD_TOL:g}")
    if not diag["max_vi_residual"] <= VI_TOL:
        fails.append(f"max_vi_residual {diag['max_vi_residual']:.3e} > {VI_TOL:g}")
    if not diag["boundary_residual"] <= BOUNDARY_TOL:
        fails.append(f"boundary_residual {diag['boundary_residual']:.3e} > {BOUNDARY_TOL:g}")
    csv_path = out / "solution.csv"
    y, u, f = read_solution_csv(csv_path)
    again = out / "roundtrip.csv"
    SolutionBundle(y=y, u=u, f=f, alpha=0.0, lam=np.zeros(y.dim), diagnostics={}).write_csv(again)
    if again.read_bytes() != csv_path.read_bytes():
        fails.append("solution.csv does not round-trip bit-exactly")
    again.unlink()
    if reference is not None:
        ref = np.load(REFERENCE_DIR / f"{reference}.y.npy")
        if ref.shape != y.values.shape:
            fails.append(f"y has shape {y.values.shape}, reference {ref.shape}")
        else:
            gap = float(np.max(np.abs(y.values - ref)))
            if not gap <= REFERENCE_Y_TOL:
                fails.append(f"y is {gap:.3e} from the reference (tolerance {REFERENCE_Y_TOL:g})")
    return fails


def _close(a, b, rel: float) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None or isinstance(a, str):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isinf(a) or math.isinf(b):
            return a == b
        return abs(a - b) <= rel * max(abs(a), abs(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k], rel) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, z, rel) for x, z in zip(a, b))
    return False


REPORT_KEYS = ("constants", "rho", "delta", "verdicts", "flags", "overall_pass")


def _check_verify(path: Path, doc: dict, against_reference: bool) -> list[str]:
    fails = []
    report = json.loads(path.read_text())
    l_f = report["constants"]["L_F"]
    rho = 2.0 * l_f * doc["T"] ** doc["q"] / math.gamma(doc["q"] + 1.0)
    if not _close(report["rho"], rho, RHO_REL_TOL):
        fails.append(f"rho {report['rho']!r} != 2 L_F T^q / Gamma(q+1) = {rho!r}")
    if against_reference:
        ref = json.loads((REFERENCE_DIR / "verify.report.json").read_text())
        for key in REPORT_KEYS:
            if not _close(report.get(key), ref[key], REFERENCE_REL_TOL):
                fails.append(f"report {key} differs from the reference")
    return fails


def write_config(doc: dict, path: Path) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file()) if out.is_dir() else 0

