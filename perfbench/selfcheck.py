"""Quick self-check of the benchmark itself.

Usage: python3 perfbench/selfcheck.py

Runs every workload once at minimal length and asserts that:
- every workload and metric name in BENCHMARK.json matches [A-Za-z0-9_.-]+,
  and run.py emits exactly the declared metrics with their units;
- every operation passed its correctness check;
- in every traced operation the self times of its spans sum to no more than
  the operation's wall time;
- verify makes zero vi.* calls and the solves zero fuzzy.fuzzy_metric calls,
  counted in-process at every fdvi module name bound to those functions
  (where they are defined as well as where they are imported), so a call
  through any name is seen;
- in a directory holding only BENCHMARK.json and perfbench/, run.py exits
  nonzero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")

sys.path.insert(0, str(HERE))
from run import build  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, write_config  # noqa: E402


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(DEFAULT_SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check(condition: bool, message: str, detail: str = "") -> None:
    if not condition:
        raise SystemExit(f"selfcheck FAILED: {message}\n{detail}")
    print(f"ok  {message}")


def count_calls(workload, names: tuple[str, ...]) -> dict[str, int]:
    """Run one operation of workload in-process and count the calls of the fdvi
    functions called names, through every fdvi module attribute bound to them."""
    import fdvi.cli
    from fdvi.config import example_config

    counts = dict.fromkeys(names, 0)

    def counted(fn, name):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    functions = {name: getattr(fdvi, name) for name in names}
    saved = []
    for module in [m for key, m in sys.modules.items() if key == "fdvi" or key.startswith("fdvi.")]:
        for attr, value in vars(module).items():
            for name, fn in functions.items():
                if value is fn:
                    saved.append((module, attr, value))
                    setattr(module, attr, counted(fn, name))
    work = ROOT / ".bench_work" / f"selfcheck-{workload.name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config = work / "config.json"
        write_config(example_config(), config)
        out = work / "out"
        workload.clear_output(out)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = fdvi.cli.main(workload.op_argv(DEFAULT_SEED, workload.rng(DEFAULT_SEED), config, out))
        check(rc == 0, f"{workload.name} exits 0 in-process")
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)
        shutil.rmtree(work, ignore_errors=True)
    check(len(saved) > len(names), f"{workload.name}: patched {len(saved)} bindings of {', '.join(names)}")
    return counts


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    names = [*(w["name"] for w in bench["workloads"]), *declared[0], *declared[1]]
    check(all(NAME.fullmatch(n) for n in names), "every name matches [A-Za-z0-9_.-]+")

    for workload in WORKLOADS:
        for trace in (1,) if workload != "solve-n1000" else (0, 1):
            done = run(ROOT, workload, trace)
            check(done.returncode == 0, f"{workload} trace {trace} exits 0", done.stderr)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            check(result["correct"] and result["failed"] == 0, f"{workload} trace {trace}: every op correct")
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            check(got == declared[trace], f"{workload} trace {trace}: emits exactly the declared metrics")
        spans = np.load(ROOT / ".bench_out" / f"spans-{workload}-seed{DEFAULT_SEED}.npz")
        for (first, last), wall in zip(spans["op_bounds"], spans["op_walls"]):
            total = float(np.sum(spans["self"][first:last]))
            check(total <= wall, f"{workload}: traced self times {total:.4f} s <= op wall {wall:.4f} s")

    build()
    calls = count_calls(WORKLOADS["verify"], ("solve_vi", "vi_residual"))
    check(sum(calls.values()) == 0, f"verify makes zero vi.* calls {calls}")
    for workload in ("solve-n1000", "solve-n4000"):
        calls = count_calls(WORKLOADS[workload], ("fuzzy_metric",))
        check(calls["fuzzy_metric"] == 0, f"{workload} makes zero fuzzy.fuzzy_metric calls")
    # the counter sees calls: the solve makes vi.* calls through fdvi.solver's names
    calls = count_calls(WORKLOADS["solve-n1000"], ("solve_vi", "vi_residual"))
    check(min(calls.values()) > 0, f"solve-n1000 vi.* calls are counted {calls}")

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, "solve-n1000", 0)
        last = done.stdout.strip().splitlines()[-1:] or [""]
        check(done.returncode != 0 and not last[0].startswith("{"),
              "without the fdvi sources run.py exits nonzero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
