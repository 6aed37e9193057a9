"""Command-line front end.

Subcommands: scan, threshold, witness, verify-example, kernel, grid.
Exit codes: 0 success or verdict PASS, 10 completed with a negative verdict
(no witness found, a verification check failed, no product vector), 2 usage
errors, 1 internal errors. No command draws random numbers, so every output
is a function of the argument list (--seed is only echoed in JSON): JSON
uses 17-significant-digit floats and insertion-ordered keys, CSV uses LF
endings.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import distill, kernel, linalg, minors, states
from ._fmt import json_dumps, sig17, write_csv

EXIT_OK = 0
EXIT_NOT_FOUND = 10
EXIT_USAGE = 2
EXIT_INTERNAL = 1

MAX_SCAN_STEPS = 10_000  # x values of one scan

NAMED_X = {
    "c1": (33.0 - 12.0 * math.sqrt(6.0)) / 25.0,
    "c2": (24.0 * math.sqrt(2.0) - 33.0) / 7.0,
}


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument errors are usage errors too: main reports them in one line."""

    def error(self, message):
        raise UsageError(message)


def parse_x(text: str) -> float:
    """Accept decimals, fractions like 3/11, and the named constants c1, c2."""
    s = text.strip().lower()
    if s in NAMED_X:
        return NAMED_X[s]
    try:
        if "/" in s:
            return float(Fraction(s))
        return float(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse x value {text!r}") from exc


def parse_complex(text: str) -> complex:
    try:
        return complex(text.strip().replace(" ", ""))
    except ValueError as exc:
        raise UsageError(f"cannot parse complex value {text!r}") from exc


def _check_case(case: str) -> None:
    if case not in states.CASES:
        raise UsageError(f"unknown case {case!r}; expected one of {states.CASES}")


def _family_state(args) -> tuple[states.QutritState, float]:
    """The family member named by --case and --x; a bad case or x is a usage error."""
    _check_case(args.case)
    x = parse_x(args.x)
    if not (0.0 <= x <= 1.0):
        raise UsageError("x must lie in [0, 1]")
    return states.build_family(args.case, x), x


def _emit(args, payload: dict, human: str):
    if args.json:
        sys.stdout.write(json_dumps(payload) + "\n")
    else:
        sys.stdout.write(human + "\n")


def _outpath(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


# --- scan --------------------------------------------------------------------


def cmd_scan(args) -> int:
    _check_case(args.case)
    x_min, x_max = parse_x(args.x_min), parse_x(args.x_max)
    if not (0.0 <= x_min < x_max <= 1.0):
        raise UsageError("need 0 <= x-min < x-max <= 1")
    if not 2 <= args.steps <= MAX_SCAN_STEPS:
        raise UsageError(f"need 2 <= steps <= {MAX_SCAN_STEPS}")
    xs = np.linspace(x_min, x_max, args.steps)
    res = distill.witness_stack(states.family_stack(args.case, xs))
    negative = res.negative
    columns = {"min_eig": res.spectra[:, 0], "second_eig": res.spectra[:, 1]}
    csv_path = _outpath(args, f"scan_{args.case}.csv")
    write_csv(csv_path, ["x", "min_eig_gamma", "second_eig_gamma", "negative_count",
                         "witness_found", "witness_value"],
              np.column_stack([xs, columns["min_eig"], columns["second_eig"], negative,
                               res.found, np.where(negative > 0, res.values, np.nan)]))

    brackets, x_list = {}, xs.tolist()
    for key, col in columns.items():
        a, b = col[:-1], col[1:]
        # eigensolver noise is not a crossing
        crossed = (np.abs(a) > 1e-12) & (np.abs(b) > 1e-12) & ((a < 0) != (b < 0))
        brackets[key] = [x_list[j:j + 2] for j in np.flatnonzero(crossed).tolist()]
    payload = {
        "case": args.case,
        "x_min": x_min,
        "x_max": x_max,
        "steps": args.steps,
        "seed": args.seed,
        "csv": csv_path,
        "brackets": brackets,
    }
    _emit(args, payload, f"scan {args.case}: {len(xs)} rows -> {csv_path}; "
          f"min-eig brackets {brackets['min_eig']}, second-eig brackets {brackets['second_eig']}")
    return EXIT_OK


# --- threshold ---------------------------------------------------------------


def _norm_target(text: str) -> str:
    t = text.strip().lower().replace("-", "_")
    if t in ("min_eig", "second_eig"):
        return t
    raise UsageError(f"unknown target {text!r}; expected min-eig or second-eig")


def cmd_threshold(args) -> int:
    _check_case(args.case)
    target = _norm_target(args.target)
    lo, hi = parse_x(args.bracket[0]), parse_x(args.bracket[1])
    if not (0.0 <= lo < hi <= 1.0):
        raise UsageError("need 0 <= LO < HI <= 1 for --bracket")
    try:
        res = distill.find_threshold(args.case, target, (lo, hi))
    except distill.NoSignChange as exc:
        raise UsageError(str(exc)) from exc
    payload = {
        "case": args.case,
        "target": target,
        "x_star": res.x_star,
        "bracket": [res.bracket[0], res.bracket[1]],
        "iterations": res.iterations,
        "seed": args.seed,
    }
    _emit(args, payload, f"threshold {args.case}/{target}: x* = {sig17(res.x_star)}")
    return EXIT_OK


# --- witness -----------------------------------------------------------------


def _check_strategy(text: str) -> None:
    """--strategy is accepted syntax only: any combination of the letters a,
    b, c (spaces and '+' ignored) runs the one witness construction."""
    letters = [ch for ch in text.replace("+", "") if not ch.isspace()]
    bad = [ch for ch in letters if ch not in "abc"]
    if bad:
        raise UsageError(f"unknown strategy letters {bad}; expected a subset of 'abc'")
    if not letters:
        raise UsageError("strategy needs at least one of the letters a, b, c")


def cmd_witness(args) -> int:
    state, x = _family_state(args)
    _check_strategy(args.strategy)
    rep = distill.witness_search(state)
    payload = rep.to_json()
    payload["case"] = args.case
    payload["x"] = x
    payload["seed"] = args.seed
    found = rep.witness is not None
    _emit(args, payload, ("witness found: value " + sig17(rep.best_value)) if found
          else f"no witness found (best value {rep.best_value})")
    return EXIT_OK if found else EXIT_NOT_FOUND


# --- verify-example ----------------------------------------------------------


def cmd_verify_example(args) -> int:
    x = parse_x(args.x)
    if not (0.0 < x < 1.0):
        raise UsageError("x must lie in (0, 1)")
    step = args.grid_step
    # every grid is checked before anything runs; the +-3 grids bound the +-2
    # cross-check grid of the same step
    c_panels = (0j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j)
    try:
        specs = [minors.MinorScanSpec(which=which, step=step, c_values=c_panels, x=x)
                 for which in ("alpha2_minor4", "F", "G")]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    checks = {}

    state = minors.mixed_frame_state(x)
    rep = distill.npt_check(state)
    checks["inertia"] = {
        "value": list(rep.inertia),
        "expected": [1, 0, 8],
        "pass": tuple(rep.inertia) == (1, 0, 8),
    }

    entries, all_psd = minors.psd_scan_form1(x=x)
    min_eig = min(e["min_eigenvalue"] for e in entries)
    write_csv(_outpath(args, "alpha1_psd_scan.csv"),
              ["re_b", "im_b", "re_c", "im_c", "value"],
              [[e["a"].real, e["a"].imag, 0.0, 0.0, e["min_eigenvalue"]] for e in entries])
    checks["alpha1_psd"] = {"n_points": len(entries), "min_eigenvalue": min_eig, "pass": all_psd}

    # the closed forms hold at x = 1/7 only: elsewhere they measure the step in x
    if x == minors.UNDISTILLABLE_X:
        real_grid = minors.default_real_bc_grid(step)
        for form in ("minor4", "minor5", "det"):
            rpt = minors.cross_check(form, real_grid)
            entry = rpt.to_json()
            entry["pass"] = entry.pop("passed")
            checks[f"cross_{form}"] = entry

    # proved: the table's exact certificate holds and the table matched the
    # direct minors in this run (x = 1/7 only); otherwise the grid decides
    for spec, name, table in zip(specs, ("minor4_scan", "F_scan", "G_scan"),
                                 ("minor4", "minor5", "det")):
        entry = minors.scan(spec, out_csv=_outpath(args, f"{name}.csv")).to_json()
        cross = checks.get(f"cross_{table}")
        if cross and cross["pass"] and minors.certify_positive(minors.CLOSED_FORMS[table][1]):
            entry["evidence_level"] = "proved"
        else:
            entry["evidence_level"] = "not_found_at_budget" if entry["pass"] else "searched"
        checks[spec.which] = entry

    overall = all(c["pass"] for c in checks.values())
    payload = {
        "x": x,
        "seed": args.seed,
        "grid_step": step,
        "checks": checks,
        "pass": overall,
    }
    report_path = _outpath(args, "verify_example.json")
    with open(report_path, "w", newline="\n") as fh:
        fh.write(json_dumps(payload) + "\n")
    failed = sorted(k for k, v in checks.items() if not v["pass"])
    _emit(args, payload, ("verify-example: PASS" if overall
          else f"verify-example: FAIL ({', '.join(failed)})") + f" -> {report_path}")
    return EXIT_OK if overall else EXIT_NOT_FOUND


# --- kernel ------------------------------------------------------------------


def _load_basis_file(path: str) -> states.QutritState:
    import json

    try:
        with open(path) as fh:
            raw = json.load(fh)
        vectors = []
        for entry in raw:
            v = np.array([complex(re, im) for re, im in entry], dtype=complex)
            if v.shape != (9,):
                raise ValueError("each vector needs exactly 9 [re, im] pairs")
            if not np.isfinite(v).all():
                raise ValueError("entries must be finite")
            vectors.append(v)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        raise UsageError(f"cannot read basis file {path!r}: {exc}") from exc
    if not vectors:
        raise UsageError("basis file is empty")
    try:
        return states.uniform_state_on_span(vectors)
    except states.ZeroVector as exc:
        raise UsageError(f"basis file {path!r} spans only the zero vector") from exc


def cmd_kernel(args) -> int:
    if args.basis_file is not None:
        state = _load_basis_file(args.basis_file)
        label = {"basis_file": args.basis_file}
    elif args.case is not None:
        state, x = _family_state(args)
        label = {"case": args.case, "x": x}
    else:
        raise UsageError("need either --case or --basis-file")
    try:
        split = kernel.range_and_kernel(state)
        exact = kernel.candidate_product_vector(state, split)
        searched = kernel.kernel_product_vector(state, split)
    except kernel.EmptyKernel:
        raise UsageError("state has a trivial kernel; nothing to search")
    payload = dict(label)
    payload["seed"] = args.seed
    payload["exact_cases"] = exact.to_json()
    payload["search"] = searched.to_json()
    found = exact.found or searched.found
    if found:
        verdict = "found"
    elif searched.evidence_level == "not_found_at_budget":
        verdict = "not found (no zero of the minors passed the residual check)"
    elif searched.margin is None:
        verdict = "none (antisymmetric subspace plus a Schmidt-rank-3 symmetric vector)"
    else:
        verdict = f"none (minor cubics rule out every u, margin {sig17(searched.margin)})"
    _emit(args, payload, "kernel product vector: " + verdict)
    return EXIT_OK if found else EXIT_NOT_FOUND


# --- grid --------------------------------------------------------------------


def cmd_grid(args) -> int:
    x = parse_x(args.x)
    c_values = tuple(parse_complex(c) for c in args.c) if args.c else (0j,)
    try:
        spec = minors.MinorScanSpec(
            which=args.which,
            re_range=(args.re_min, args.re_max),
            im_range=(args.im_min, args.im_max),
            step=args.step,
            c_values=c_values,
            x=x,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    csv_path = _outpath(args, f"{args.which}_grid.csv")
    try:
        gs = minors.scan(spec, out_csv=csv_path)
    except linalg.NonFiniteValue as exc:
        raise UsageError(f"grid too large for float64: {exc}") from exc
    payload = gs.to_json()
    payload["csv"] = csv_path
    payload["seed"] = args.seed
    _emit(args, payload, f"grid {args.which}: {gs.samples.shape[0]} points, "
          f"min {sig17(gs.min_value)} -> {csv_path}")
    return EXIT_OK


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--out", default=".", help="output directory for CSV/JSON files")
    common.add_argument("--seed", type=int, default=0,
                        help="echoed in JSON; no command draws random numbers")
    common.add_argument("--json", action="store_true", help="print a JSON summary to stdout")

    parser = _Parser(
        prog="qutritdistill",
        description="Two-qutrit rank-five family toolkit: PPT boundaries, "
                    "distillability witnesses, kernel product vectors, minor scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan", parents=[common], help="sweep x for one family case")
    p.add_argument("--case", required=True)
    p.add_argument("--x-min", default="0", dest="x_min")
    p.add_argument("--x-max", default="1", dest="x_max")
    p.add_argument("--steps", type=int, default=200)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("threshold", parents=[common], help="locate an eigenvalue crossing")
    p.add_argument("--case", required=True)
    p.add_argument("--target", required=True, help="min-eig or second-eig")
    p.add_argument("--bracket", nargs=2, required=True, metavar=("LO", "HI"))
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("witness", parents=[common], help="construct a distillability witness")
    p.add_argument("--case", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--strategy", default="c", help="any combination of a, b, c; accepted "
                   "for compatibility, every spelling runs the one construction")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("verify-example", parents=[common],
                       help="run the full x = 1/7 verification bundle")
    p.add_argument("--x", default="1/7")
    p.add_argument("--grid-step", type=float, default=0.05, dest="grid_step")
    p.set_defaults(func=cmd_verify_example)

    p = sub.add_parser("kernel", parents=[common], help="look for kernel product vectors")
    p.add_argument("--case")
    p.add_argument("--x", default="1/7")
    p.add_argument("--basis-file", dest="basis_file",
                   help="JSON array of 9-element vectors as [re, im] pairs spanning the range")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("grid", parents=[common], help="emit a scan grid as CSV")
    p.add_argument("--which", required=True, help="one of " + ", ".join(minors.WHICH_TOKENS))
    p.add_argument("--re-min", type=float, default=-3.0)
    p.add_argument("--re-max", type=float, default=3.0)
    p.add_argument("--im-min", type=float, default=-3.0)
    p.add_argument("--im-max", type=float, default=3.0)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--c", action="append", help="c value (repeatable), e.g. --c 1+1j")
    p.add_argument("--x", default="1/7")
    p.set_defaults(func=cmd_grid)
    return parser


def main(argv=None) -> int:
    parser = build_parser()  # live to the end: collected mid-command, it cost verify-example ~9%
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit:  # only --help exits: argument errors raise UsageError
        return EXIT_OK
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:  # library failures surface as internal errors
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


def entry():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
