"""Verdict checks behind the benchmark's failure count.

Each check tests a fact of the paper, not a digest pinned from one commit,
so a correct change to the program (say, fixed closed-form minors) does not
count as a failure. A check returns the list of problems it found; an empty
list means the command passed. Byte-determinism across the passes of one
run is checked separately by the runner.

The closed-form cross-checks inside ``verify-example`` fail today by design;
they are reported as ``minors.cross_check.failed`` in the traced run and are
not counted here.
"""

from __future__ import annotations

import json

THRESHOLD_TOL = 1e-8
CROSS_CHECKS = ("cross_minor4", "cross_minor5", "cross_det")


def _scan(check, payload):
    brackets = payload["brackets"]["min_eig"]
    return [f"no min-eig bracket contains {x!r} (brackets {brackets})"
            for x in check["contains"]
            if not any(lo <= x <= hi for lo, hi in brackets)]


def _threshold(check, payload):
    err = abs(payload["x_star"] - check["x_star"])
    return [] if err <= THRESHOLD_TOL else [f"x* = {payload['x_star']!r} is {err:.3e} off"]


def _witness(check, payload):
    wit = payload["witness"]
    if check["exit"] == 0 and (wit is None or not wit["value"] < 0.0):
        return [f"expected a certified negative witness, got {wit}"]
    if check["exit"] == 10 and wit is not None:
        return [f"expected no witness, got {wit}"]
    return []


def _kernel(check, payload):
    found = [k for k in ("exact_cases", "search") if payload[k]["found"]]
    return [f"unexpected product vector from {found}"] if found else []


def _grid_positive(check, payload):
    value = payload["min_value"]
    return [] if value > 0.0 else [f"grid minimum {value!r} is not positive"]


def _verify(check, payload):
    bad = sorted(k for k, v in payload["checks"].items()
                 if k not in CROSS_CHECKS and not v["pass"])
    return [f"verify-example checks failed: {bad}"] if bad else []


_EXPECTED_EXIT = {"scan": 0, "threshold": 0, "kernel": 10, "grid_positive": 0}
_CHECKS = {"scan": _scan, "threshold": _threshold, "witness": _witness,
           "kernel": _kernel, "grid_positive": _grid_positive, "verify": _verify}


def _expected_exit(check: dict, payload: dict) -> int:
    """Exit code the command must return: verify-example's exit code must
    agree with its own ``pass`` field, the rest are fixed per kind."""
    if check["kind"] == "verify":
        return 0 if payload["pass"] else 10
    if check["kind"] == "witness":
        return check["exit"]
    return _EXPECTED_EXIT[check["kind"]]


def check_command(check: dict, exit_code: int, stdout: str) -> list[str]:
    """Problems with one command's result; ``stdout`` is its ``--json`` output."""
    try:
        payload = json.loads(stdout)
    except ValueError:
        return [f"exit {exit_code}, stdout is not JSON: {stdout[:200]!r}"]
    try:
        problems = _CHECKS[check["kind"]](check, payload)
        want = _expected_exit(check, payload)
    except (KeyError, TypeError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
    if exit_code != want:
        problems.insert(0, f"exit code {exit_code}, expected {want}")
    return problems
