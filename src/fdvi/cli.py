"""Command-line front door.

Subcommands:
    solve    solve one instance, write trajectory CSV + diagnostics JSON
    band     solve a family over alpha/lambda, write per-run CSVs + envelope
    verify   run the hypothesis checks, write the report JSON
    vi       solve a single variational inequality given inline data
    example  materialize the built-in instance and run verify + solve + band

Exit codes: 0 success, 1 usage/config error, 2 non-convergence,
3 hypothesis failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from .config import LoadedProblem, apply_overrides, build_problem, example_config, load_config
from .errors import (
    ConfigError,
    EvalDomainError,
    FdviError,
    MaxPicardExceeded,
    NonfiniteValue,
    NonMonotoneError,
    NotConvergedError,
)
from .fractional import GridFunction
from .hypotheses import compute_rho, estimate_field_lipschitz, verify
from .solver import band_envelope, picard_solve, solve_band
from .vi import AffineOperator, BoxSet, VIInstance, solve_vi, vi_residual

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CONVERGENCE = 2
EXIT_HYPOTHESIS = 3


def _atomic_write(path: str, write) -> None:
    """Call write(tmp_path) on a temporary file next to path, then move it into place.

    The file gets the mode a plain open() would give it under the current
    umask (mkstemp creates it owner-only).  The temporary file is removed
    if the write or the move fails, and an OSError about it names path.
    """
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".tmp-",
                               suffix=os.path.basename(path))
    os.close(fd)
    umask = os.umask(0)
    os.umask(umask)
    try:
        write(tmp)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _check_outputs(paths) -> None:
    """Fail before any work if an output name is a directory; the final move would fail only after it."""
    for path in paths:
        if os.path.isdir(path):
            raise IsADirectoryError(f"output path {path} is a directory")


def _atomic_json(path: str, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _atomic_write(path, lambda tmp: Path(tmp).write_text(text))


def _bundle_paths(out_dir: str, stem: str) -> tuple[str, str]:
    """The trajectory CSV and diagnostics JSON one solve writes under stem."""
    return os.path.join(out_dir, f"{stem}.csv"), os.path.join(out_dir, f"{stem}_diagnostics.json")


def _write_bundle(bundle, out_dir: str, stem: str) -> None:
    csv_path, json_path = _bundle_paths(out_dir, stem)
    _atomic_write(csv_path, bundle.write_csv)
    _atomic_json(json_path, bundle.diagnostics)


def _load(args) -> LoadedProblem:
    doc = load_config(args.config)
    doc = apply_overrides(doc, args.override)
    if args.seed is not None and isinstance(doc, dict):
        sampling = doc.setdefault("sampling", {})
        if isinstance(sampling, dict):  # otherwise build_problem reports it at /sampling
            sampling["seed"] = args.seed
    return build_problem(doc)


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        items = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ConfigError("/", f"bad {what} list {text!r}: {exc}") from exc
    if not items:
        raise ConfigError("/", f"{what} list must not be empty")
    if any(math.isnan(x) for x in items):
        raise ConfigError("/", f"{what} list {text!r} contains NaN")
    return items


def _warn_if_rho_large(problem: LoadedProblem) -> None:
    """Warn before a solve when a cheap sampled rho over the sampling box is >= 1.

    The estimate is the verifier's, unpolished, on at most 2048 points of
    its grid (up to 8 times by 2048 // that many states): the first draws
    of the same streams.  The warning is advisory: where the field cannot be
    evaluated on the box it says so, and the solve goes on, because the
    solve evaluates the field only where its trajectory goes.
    """
    spec, dom = problem.spec, problem.sampling
    t_samples = min(dom.t_samples, 8)
    coarse = dataclasses.replace(dom, t_samples=t_samples, y_samples=min(dom.y_samples, 2048 // t_samples))
    try:
        l_f = estimate_field_lipschitz(spec.field, coarse, spec.T)
    except EvalDomainError as exc:  # EvalOverflowError too
        warnings.warn(f"could not estimate the contraction constant rho on the sampling box: {exc}")
        return
    rho = compute_rho(l_f, spec.T, spec.q)
    if rho >= 1.0:
        warnings.warn(
            f"sampled contraction constant rho = {rho:.4g} >= 1; "
            "the fuzzy part may not contract and the sweep may diverge"
        )


def _solve(problem: LoadedProblem, out_dir: str) -> int:
    _check_outputs(_bundle_paths(out_dir, "solution"))
    _warn_if_rho_large(problem)
    os.makedirs(out_dir, exist_ok=True)
    bundle = picard_solve(problem.spec, problem.solver, problem.selection)
    _write_bundle(bundle, out_dir, "solution")
    print(f"converged in {bundle.diagnostics['iterations']} sweeps; "
          f"final residual {bundle.diagnostics['final_residual']:.3e}")
    print(f"wrote {os.path.join(out_dir, 'solution.csv')}")
    return EXIT_OK


def cmd_solve(args) -> int:
    return _solve(_load(args), args.out)


def _band_stems(alphas, lambdas) -> list[str]:
    """One output stem per (alpha, lambda) run, in solve_band's order; stems must be distinct."""
    stems: dict[str, tuple[float, float]] = {}
    for alpha in alphas:
        for lam in lambdas:
            stem = f"band_alpha{alpha:g}_lambda{lam:g}"
            if stem in stems:
                raise ConfigError("/", f"runs (alpha={stems[stem][0]!r}, lambda={stems[stem][1]!r}) and "
                                       f"(alpha={alpha!r}, lambda={lam!r}) would both write {stem}.csv")
            stems[stem] = (alpha, lam)
    return list(stems)


def _band_paths(out_dir: str, stems) -> list[str]:
    """Every file a band sweep may write: each run's bundle, the envelope, the run status."""
    paths = [path for stem in stems for path in _bundle_paths(out_dir, stem)]
    return paths + [os.path.join(out_dir, name) for name in ("envelope.csv", "band_runs.json")]


def _run_band(problem: LoadedProblem, alphas, lambdas, out_dir: str) -> int:
    stems = _band_stems(alphas, lambdas)
    _check_outputs(_band_paths(out_dir, stems))
    os.makedirs(out_dir, exist_ok=True)
    runs = solve_band(problem.spec, problem.solver, alphas, lambdas)
    status = []
    for run, stem in zip(runs, stems):
        lam0 = float(run.lam[0])
        entry = {"alpha": run.alpha, "lambda": run.lam.tolist(), "converged": run.ok}
        if run.ok:
            _write_bundle(run.bundle, out_dir, stem)
            entry["csv"] = f"{stem}.csv"
        else:
            entry["error"] = run.error
            print(f"run alpha={run.alpha:g} lambda={lam0:g} failed: {run.error}", file=sys.stderr)
        status.append(entry)
    ok_runs = [r for r in runs if r.ok]
    if ok_runs:
        _, ymin, ymax = band_envelope(ok_runs)
        n = ymin.shape[1]
        columns = [f"y{i + 1}_{side}" for i in range(n) for side in ("min", "max")]
        envelope = GridFunction(ok_runs[0].bundle.y.grid, np.stack([ymin, ymax], axis=2).reshape(-1, 2 * n))
        _atomic_write(os.path.join(out_dir, "envelope.csv"), lambda tmp: envelope.to_csv(tmp, columns))
    _atomic_json(os.path.join(out_dir, "band_runs.json"), status)
    print(f"{len(ok_runs)}/{len(runs)} runs converged; wrote {out_dir}")
    return EXIT_OK if len(ok_runs) == len(runs) else EXIT_NO_CONVERGENCE


def cmd_band(args) -> int:
    problem = _load(args)
    alphas = _parse_float_list(args.alpha, "alpha")
    for a in alphas:
        if not 0.0 <= a <= 1.0:
            raise ConfigError("/", f"alpha {a} outside [0, 1]")
    lambdas = _parse_float_list(args.lam, "lambda")
    for l in lambdas:
        if not -1.0 <= l <= 1.0:
            raise ConfigError("/", f"lambda {l} outside [-1, 1]")
    _warn_if_rho_large(problem)
    return _run_band(problem, alphas, lambdas, args.out)


def _verify(problem: LoadedProblem, path: str) -> int:
    _check_outputs([path])
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    report = verify(problem.spec, problem.sampling, claimed=problem.claimed)
    _atomic_json(path, report.as_dict())
    verdict = "pass" if report.overall_pass else "FAIL"
    print(f"hypotheses {verdict}: rho = {report.rho:.4f}, delta = {report.delta}")
    for flag in report.flags:
        print(f"note: {flag}")
    print(f"wrote {path}")
    return EXIT_OK if report.overall_pass else EXIT_HYPOTHESIS


def cmd_verify(args) -> int:
    return _verify(_load(args), args.out)


def cmd_vi(args) -> int:
    w = np.array(_parse_float_list(args.w, "w"))
    rows = [r for r in args.M.split(";") if r.strip() != ""]
    mat = [_parse_float_list(r, "M row") for r in rows]
    width = max(map(len, mat), default=0)
    for k, (text, row) in enumerate(zip(rows, mat), 1):
        if len(row) < width:
            raise ConfigError("/", f"M row {k} {text!r} has {len(row)} entries, expected {width}")
    mat = np.array(mat)
    b = np.array(_parse_float_list(args.b, "b"))
    lo = np.array(_parse_float_list(args.k_lo, "K-lo"))
    hi = np.array(_parse_float_list(args.k_hi, "K-hi"))
    for what, values in (("w", w), ("M", mat), ("b", b)):
        if not np.all(np.isfinite(values)):
            raise ConfigError("/", f"{what} must be finite; only the K bounds may be infinite")
    inst = VIInstance(BoxSet(lo, hi), w, AffineOperator(mat, b))
    u = solve_vi(inst, tol=args.tol)
    payload = {"u": u.tolist(), "residual": vi_residual(inst, u), "mu": inst.s.mu}
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_example(args) -> int:
    config_path, report_path = (os.path.join(args.out, name) for name in ("config.json", "report.json"))
    band_dir = os.path.join(args.out, "band")
    alphas, lambdas = [0.0, 0.5, 1.0], [-1.0, 0.0, 1.0]
    # every output name, before the verify and the solves start
    _check_outputs([config_path, report_path, *_bundle_paths(args.out, "solution"),
                    *_band_paths(band_dir, _band_stems(alphas, lambdas))])
    os.makedirs(args.out, exist_ok=True)
    doc = example_config()
    _atomic_json(config_path, doc)
    problem = build_problem(doc)
    verify_rc = _verify(problem, report_path)
    _solve(problem, args.out)
    # solve and band run even when the hypotheses fail; that failure decides the exit code
    band_rc = _run_band(problem, alphas, lambdas, band_dir)
    return verify_rc or band_rc


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The fdvi parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="fdvi", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    # the options of every subcommand that loads a config
    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("--config", required=True)
    problem.add_argument("--override", action="append", metavar="KEY.PATH=VALUE")
    problem.add_argument("--seed", type=int)

    p_solve = sub.add_parser("solve", parents=[problem], help="solve one instance")
    p_solve.add_argument("--out", required=True, help="output directory")
    p_solve.set_defaults(fn=cmd_solve)

    p_band = sub.add_parser("band", parents=[problem], help="solve a family over alpha/lambda")
    p_band.add_argument("--out", required=True)
    p_band.add_argument("--alpha", required=True, help="comma-separated levels, e.g. 0,0.5,1")
    p_band.add_argument("--lambda", dest="lam", required=True,
                        help="comma-separated selections, e.g. --lambda=-1,0,1")
    p_band.set_defaults(fn=cmd_band)

    p_verify = sub.add_parser("verify", parents=[problem], help="check the existence hypotheses")
    p_verify.add_argument("--out", required=True, help="report JSON path")
    p_verify.set_defaults(fn=cmd_verify)

    p_vi = sub.add_parser("vi", help="solve one variational inequality")
    p_vi.add_argument("--w", required=True, help="comma-separated constant term")
    p_vi.add_argument("--M", required=True, help="matrix rows separated by ';'")
    p_vi.add_argument("--b", required=True)
    p_vi.add_argument("--K-lo", dest="k_lo", required=True, help="box lower bounds (inf allowed)")
    p_vi.add_argument("--K-hi", dest="k_hi", required=True)
    p_vi.add_argument("--tol", type=float, default=1e-10)
    p_vi.set_defaults(fn=cmd_vi)

    p_ex = sub.add_parser("example", help="run the built-in worked instance end to end")
    p_ex.add_argument("--out", required=True)
    p_ex.set_defaults(fn=cmd_example)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MaxPicardExceeded, NotConvergedError, NonfiniteValue) as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except NonMonotoneError as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (FdviError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
