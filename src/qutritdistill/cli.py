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
from ._fmt import complex_pair, json_dumps, sig17, write_csv, write_grid_csv

EXIT_OK = 0
EXIT_NOT_FOUND = 10
EXIT_USAGE = 2
EXIT_INTERNAL = 1

MAX_SCAN_STEPS = 10_000  # x values of one scan
GRID_HEADER = ["re_b", "im_b", "re_c", "im_c", "value"]  # every grid and scan CSV
TARGET_NAMES = tuple(key.replace("_", "-") for key in distill.THRESHOLD_TARGETS)

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
        raise argparse.ArgumentTypeError(f"cannot parse x value {text!r}") from exc


def parse_complex(text: str) -> complex:
    try:
        return complex(text.strip().replace(" ", ""))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse complex value {text!r}") from exc


def parse_steps(text: str) -> int:
    try:
        steps = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 2 <= steps <= MAX_SCAN_STEPS:
        raise argparse.ArgumentTypeError(f"need 2 <= steps <= {MAX_SCAN_STEPS}")
    return steps


def parse_target(text: str) -> str:
    """A key of distill.THRESHOLD_TARGETS, with - standing for _."""
    key = text.strip().lower().replace("-", "_")
    if key not in distill.THRESHOLD_TARGETS:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from {', '.join(map(repr, TARGET_NAMES))})")
    return key


def parse_strategy(text: str) -> str:
    """--strategy is accepted syntax only: any combination of the letters a,
    b, c (spaces and '+' ignored) runs the one witness construction."""
    letters = [ch for ch in text.replace("+", "") if not ch.isspace()]
    bad = [ch for ch in letters if ch not in "abc"]
    if bad:
        raise argparse.ArgumentTypeError(
            f"unknown strategy letters {bad}; expected a subset of 'abc'")
    if not letters:
        raise argparse.ArgumentTypeError("strategy needs at least one of the letters a, b, c")
    return text


def _emit(args, payload: dict, human: str):
    sys.stdout.write((json_dumps(payload) if args.json else human) + "\n")


def _outpath(args, name: str) -> str:
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot use {args.out!r} as the output directory: {exc}") from exc
    return os.path.join(args.out, name)


def _write_grid(path: str, gs: minors.GridScan) -> None:
    """The rows of gs.samples, written from the spec's axes."""
    spec = gs.spec
    write_grid_csv(path, GRID_HEADER, spec.axis("re"), spec.axis("im"), spec.c_values, gs.values)


# --- JSON --------------------------------------------------------------------
# The library returns data: these renderers and the commands' dict literals
# are the one owner of the JSON keys and their order.


def _pairs(zs) -> list:
    return [complex_pair(z) for z in zs]


def _report_json(rep: distill.DistillReport) -> dict:
    witness = None if rep.witness is None else {
        "form": "general", "params": {"rows": [_pairs(row) for row in rep.witness]},
        "value": rep.best_value}
    return {"is_npt": rep.is_npt, "inertia": list(rep.inertia),
            "min_eig_gamma": rep.min_eig_gamma, "negative_count": rep.inertia.negative,
            "witness": witness, "evidence_level": rep.evidence_level,
            "best_value": rep.best_value, "evaluations": 1}


def _product_vector_json(res: kernel.ProductVectorResult) -> dict:
    return {"found": bool(res.found),
            "factors": None if res.u is None else {"u": _pairs(res.u), "w": _pairs(res.w)},
            "residual": float(res.residual),
            "margin": None if res.margin is None else float(res.margin),
            "evidence_level": res.evidence_level}


def _grid_json(gs: minors.GridScan) -> dict:
    spec = gs.spec
    return {"which": spec.which, "scale": spec.scale, "min_value": gs.min_value,
            "argmin": {"b": complex_pair(gs.argmin[0]), "c": complex_pair(gs.argmin[1])},
            "grid": {"re_range": list(spec.re_range), "im_range": list(spec.im_range),
                     "step": spec.step, "c_values": _pairs(spec.c_values), "x": spec.x},
            "pass": gs.passed()}


# --- scan --------------------------------------------------------------------


def cmd_scan(args) -> int:
    x_min, x_max = args.x_min, args.x_max
    if not (0.0 <= x_min < x_max <= 1.0):
        raise UsageError("need 0 <= x-min < x-max <= 1")
    xs = np.linspace(x_min, x_max, args.steps)
    res = distill.witness_stack(states.family_stack(args.case, xs))
    negative = res.negative
    columns = {key: res.spectra[:, k] for key, k in distill.THRESHOLD_TARGETS.items()}
    csv_path = _outpath(args, f"scan_{args.case}.csv")
    write_csv(csv_path, ["x", *(f"{key}_gamma" for key in columns), "negative_count",
                         "witness_found", "witness_value"],
              np.column_stack([xs, *columns.values(), negative, res.found,
                               np.where(negative > 0, res.values, np.nan)]))

    # a bracket spans the nearest grid points on either side of a sign change
    # whose target eigenvalues are nonzero by linalg.spectrum_signs
    brackets, x_list, signs = {}, xs.tolist(), linalg.spectrum_signs(res.spectra)
    for key, k in distill.THRESHOLD_TARGETS.items():
        nonzero = np.flatnonzero(signs[:, k])
        flips = np.flatnonzero(np.diff(signs[nonzero, k])).tolist()
        brackets[key] = [[x_list[nonzero[j]], x_list[nonzero[j + 1]]] for j in flips]
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


def cmd_threshold(args) -> int:
    lo, hi = args.bracket
    if not (0.0 <= lo < hi <= 1.0):
        raise UsageError("need 0 <= LO < HI <= 1 for --bracket")
    res = distill.find_threshold(args.case, args.target, (lo, hi))
    payload = {
        "case": args.case,
        "target": args.target,
        "x_star": res.x_star,
        "bracket": [res.bracket[0], res.bracket[1]],
        "iterations": res.iterations,
        "seed": args.seed,
    }
    _emit(args, payload, f"threshold {args.case}/{args.target}: x* = {sig17(res.x_star)}")
    return EXIT_OK


# --- witness -----------------------------------------------------------------


def cmd_witness(args) -> int:
    state = states.build_family(args.case, args.x)
    rep = distill.witness_search(state)
    payload = {**_report_json(rep), "case": args.case, "x": args.x, "seed": args.seed}
    found = rep.witness is not None
    _emit(args, payload, ("witness found: value " + sig17(rep.best_value)) if found
          else f"no witness found (best value {rep.best_value})")
    return EXIT_OK if found else EXIT_NOT_FOUND


# --- verify-example ----------------------------------------------------------


def cmd_verify_example(args) -> int:
    x, step = args.x, args.grid_step
    # every grid is checked before anything runs; the +-3 grids bound the +-2
    # cross-check grid of the same step
    c_panels = (0j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j)
    specs = [minors.MinorScanSpec(which=which, step=step, c_values=c_panels, x=x)
             for which in ("alpha2_minor4", "F", "G")]
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
    write_csv(_outpath(args, "alpha1_psd_scan.csv"), GRID_HEADER,
              [[e["a"].real, e["a"].imag, 0.0, 0.0, e["min_eigenvalue"]] for e in entries])
    checks["alpha1_psd"] = {"n_points": len(entries), "min_eigenvalue": min_eig, "pass": all_psd}

    tables = ("minor4", "minor5", "det")
    # the closed forms hold at x = 1/7 only: elsewhere they measure the step in x
    if x == minors.UNDISTILLABLE_X:
        for rpt in minors.cross_check_family(tables, minors.default_real_bc_grid(step)):
            checks[f"cross_{rpt.which}"] = {
                "which": rpt.which, "n_points": rpt.n_points, "max_rel_dev": rpt.max_rel_dev,
                "worst": [{**w, "b": complex_pair(w["b"]), "c": complex_pair(w["c"])}
                          for w in rpt.worst],
                "non_real": [],  # the exact closed forms are real at every (b, c)
                "pass": rpt.passed}

    # proved: the table's exact certificate holds and the table matched the
    # direct minors in this run (x = 1/7 only); otherwise the grid decides
    for gs, name, table in zip(minors.scan_family(specs), ("minor4_scan", "F_scan", "G_scan"),
                               tables):
        _write_grid(_outpath(args, f"{name}.csv"), gs)
        entry = _grid_json(gs)
        cross = checks.get(f"cross_{table}")
        if cross and cross["pass"] and minors.certify_positive(minors.CLOSED_FORMS[table][1]):
            level = "proved"
        else:
            level = "not_found_at_budget" if entry["pass"] else "searched"
        checks[gs.spec.which] = {**entry, "evidence_level": level}

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
            if any(type(t) not in (int, float) for pair in entry for t in pair):
                raise ValueError("each [re, im] pair needs two JSON numbers")
            v = np.array([complex(re, im) for re, im in entry], dtype=complex)
            if v.shape != (9,):
                raise ValueError("each vector needs exactly 9 [re, im] pairs")
            if not np.isfinite(v).all():
                raise ValueError("entries must be finite")
            vectors.append(v)
    except (OSError, ValueError, TypeError, KeyError, OverflowError) as exc:
        raise UsageError(f"cannot read basis file {path!r}: {exc}") from exc
    if not vectors:
        raise UsageError("basis file is empty")
    try:
        return states.uniform_state_on_span(vectors)
    except states.ZeroVector as exc:
        raise UsageError(f"basis file {path!r} spans only the zero vector") from exc


def cmd_kernel(args) -> int:
    if args.basis_file is not None:
        if args.x is not None:
            raise UsageError("argument --x: not allowed with argument --basis-file")
        state = _load_basis_file(args.basis_file)
        source = {"basis_file": args.basis_file}
    else:
        x = parse_x("1/7") if args.x is None else args.x
        state = states.build_family(args.case, x)
        source = {"case": args.case, "x": x}
    split = kernel.range_and_kernel(state)
    exact = kernel.candidate_product_vector(state, split)
    searched = kernel.kernel_product_vector(state, split)
    payload = {**source, "seed": args.seed, "exact_cases": _product_vector_json(exact),
               "search": _product_vector_json(searched)}
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
    if args.c and args.which == "alpha1_psd":
        # form 1 has the one parameter a: each c panel would repeat the values
        raise UsageError("argument --c: not allowed with --which alpha1_psd")
    spec = minors.MinorScanSpec(which=args.which, re_range=(args.re_min, args.re_max),
                                im_range=(args.im_min, args.im_max), step=args.step,
                                c_values=tuple(args.c) if args.c else (0j,), x=args.x)
    csv_path = _outpath(args, f"{args.which}_grid.csv")
    gs = minors.scan(spec)
    _write_grid(csv_path, gs)
    payload = {**_grid_json(gs), "csv": csv_path, "seed": args.seed}
    _emit(args, payload, f"grid {args.which}: {gs.values.size} points, "
          f"min {sig17(gs.min_value)} -> {csv_path}")
    return EXIT_OK


# --- parser ------------------------------------------------------------------


# name: (help, adds its own arguments); cmd_<name>, - read as _, runs it
SUBCOMMANDS = {
    "scan": ("sweep x for one family case", lambda p: [
        p.add_argument("--case", required=True, choices=states.CASES),
        p.add_argument("--x-min", type=parse_x, default="0", dest="x_min"),
        p.add_argument("--x-max", type=parse_x, default="1", dest="x_max"),
        p.add_argument("--steps", type=parse_steps, default=200)]),
    "threshold": ("locate an eigenvalue crossing", lambda p: [
        p.add_argument("--case", required=True, choices=states.CASES),
        p.add_argument("--target", required=True, type=parse_target,
                       metavar="{" + ",".join(TARGET_NAMES) + "}",
                       help="the eigenvalue whose crossing to locate; _ may stand for -"),
        p.add_argument("--bracket", type=parse_x, nargs=2, required=True, metavar=("LO", "HI"))]),
    "witness": ("construct a distillability witness", lambda p: [
        p.add_argument("--case", required=True, choices=states.CASES),
        p.add_argument("--x", type=parse_x, required=True),
        p.add_argument("--strategy", type=parse_strategy, default="c", help="any combination of "
                       "a, b, c; accepted for compatibility, every spelling runs the one "
                       "construction")]),
    "verify-example": ("run the full x = 1/7 verification bundle", lambda p: [
        p.add_argument("--x", type=parse_x, default="1/7"),
        p.add_argument("--grid-step", type=float, default=0.05, dest="grid_step")]),
    "kernel": ("look for kernel product vectors", lambda p: [
        (source := p.add_mutually_exclusive_group(required=True)).add_argument(
            "--case", choices=states.CASES),
        source.add_argument("--basis-file", dest="basis_file", help="JSON array of 9-element "
                            "vectors as [re, im] pairs spanning the range"),
        p.add_argument("--x", type=parse_x, help="x of the --case family state (default 1/7)")]),
    "grid": ("emit a scan grid as CSV", lambda p: [
        p.add_argument("--which", required=True, choices=minors.WHICH_TOKENS),
        p.add_argument("--re-min", type=float, default=-3.0),
        p.add_argument("--re-max", type=float, default=3.0),
        p.add_argument("--im-min", type=float, default=-3.0),
        p.add_argument("--im-max", type=float, default=3.0),
        p.add_argument("--step", type=float, default=0.05),
        p.add_argument("--c", type=parse_complex, action="append", help="c value (repeatable), "
                       "e.g. --c 1+1j; not allowed with --which alpha1_psd"),
        p.add_argument("--x", type=parse_x, default="1/7")]),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """Register every subcommand, or only ``command`` when it names one: an argv
    that starts with it parses the same, and only its arguments are built."""
    parser = _Parser(
        prog="qutritdistill",
        description="Two-qutrit rank-five family toolkit: PPT boundaries, "
                    "distillability witnesses, kernel product vectors, minor scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command in SUBCOMMANDS else SUBCOMMANDS:
        help_text, add_arguments = SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", default=".", help="output directory for CSV/JSON files")
        p.add_argument("--seed", type=int, default=0,
                       help="echoed in JSON; no command draws random numbers")
        p.add_argument("--json", action="store_true", help="print a JSON summary to stdout")
        add_arguments(p)
        # looked up per build, as the lambdas look up theirs: a rebound cmd_* runs
        p.set_defaults(func=globals()["cmd_" + name.replace("-", "_")])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit:  # only --help exits: argument errors raise UsageError
        return EXIT_OK
    # input errors: the parser's, and the typed library errors only input can cause
    except (UsageError, states.OutOfRange, distill.NoSignChange, kernel.EmptyKernel,
            linalg.NonFiniteValue) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:  # library failures surface as internal errors
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


def entry():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
