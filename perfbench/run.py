"""Benchmark of the qutritdistill CLI: one workload per invocation.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {bundle,grid,evidence} --seed N \
        --seconds S --trace {0,1}

The parent process generates the workload's inputs from the seed
(workloads.py) and runs the workload in one child process (child.py): a
closed loop, one caller, every subcommand in-process through
``qutritdistill.cli.main``, one warm-up pass and then passes until the next
one would overrun ``--seconds``. Every result is checked (checks.py). Before
and after the child, the parent times fresh interpreters importing
``qutritdistill.cli``: the cold start every CLI call pays.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over the
fresh interpreters), ``wall_s`` and ``cpu_s`` (median over the passes) and
``peak_rss_mb`` (the child's peak RSS). The three times are scaled to the
reference speed of calibrate.py, which cancels the drift of a shared host's
speed. ``--trace 1`` reports the
per-layer metrics from the tracer (tracing.py) plus the import-time split of
``python -X importtime`` and the tracing overhead. Failed commands over
commands run is ``failed``/``attempted`` on the last line.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics. Working files go to ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from calibrate import reference_seconds, scaled_passes  # noqa: E402
from tracing import LAYER_UNITS  # noqa: E402

SETUP_RUNS = 6
DEADLINE_S = 170.0  # the whole invocation must end within 180 s
OUT_ROOT = ".perfbench-out"


class BenchError(RuntimeError):
    pass


def _python_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _subprocess(cmd: list[str], env: dict, deadline: float) -> subprocess.CompletedProcess:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before " + " ".join(cmd))
    # run() kills the child on timeout and waits for it before raising
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=remaining)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def setup_times(src: str, n: int, deadline: float) -> list[tuple[float, float]]:
    """(wall seconds, the same at the reference speed) of ``n`` fresh
    interpreters that import qutritdistill.cli."""
    env = _python_env(src)
    times, refs = [], [reference_seconds()]
    for _ in range(n):
        t0 = time.perf_counter()
        _subprocess([sys.executable, "-c", "import qutritdistill.cli"], env, deadline)
        times.append(time.perf_counter() - t0)
        refs.append(reference_seconds())
    return list(zip(times, scaled_passes([[t] for t in times], list(zip(refs, refs[1:])))))


def import_split(stderr: str) -> tuple[float, float]:
    """(qutritdistill import, scipy.optimize import) seconds from the
    ``-X importtime`` log; scipy.optimize is 0 when the CLI no longer
    imports it at start-up."""
    total_us = scipy_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = len(name) - len(name.lstrip()) - 1
        if depth == 0 and name.strip().startswith("qutritdistill"):
            total_us += int(cumulative)
        if name.strip() == "scipy.optimize" and not scipy_us:
            scipy_us = int(cumulative)
    return total_us / 1e6, scipy_us / 1e6


def import_times(src: str, n: int, deadline: float) -> list[tuple[float, float]]:
    env = _python_env(src)
    cmd = [sys.executable, "-X", "importtime", "-c", "import qutritdistill.cli"]
    return [import_split(_subprocess(cmd, env, deadline).stderr) for _ in range(n)]


def git_commit(root: str) -> str:
    """Commit of the checkout, read from .git without running git; a checkout
    exported without .git reports "unknown"."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def source_digest(src: str) -> str:
    """sha256 of the package sources, which identifies the code under test
    where git_commit cannot."""
    h = hashlib.sha256()
    pkg = os.path.join(src, "qutritdistill")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _median_metric(values: list[float], unit: str) -> dict:
    return {"value": statistics.median(values), "unit": unit, "samples": len(values)}


def _pass_metric(samples: dict, key: str) -> dict:
    """Median pass seconds at the reference speed (calibrate.py) from the
    child's per-pass, per-command ``samples[key]``."""
    return _median_metric(scaled_passes(samples[key], samples["ref_s"]), "s")


def run(workload: str, seed: int, seconds: float, trace: bool, root: str = ".",
        small: bool = False, setup_runs: int = SETUP_RUNS) -> dict:
    """Run one workload and return the full result: the contract's four keys
    plus ``samples`` per metric and the run ``record``."""
    deadline = time.monotonic() + DEADLINE_S
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qutritdistill", "cli.py")):
        raise BenchError(f"no qutritdistill sources under {src!r}; run from a checkout root")
    workdir = os.path.join(root, OUT_ROOT, f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    commands = workloads.build(workload, seed, workdir, small=small)

    # Set-up samples are taken half before and half after the child, so that
    # they span the run instead of one moment of the host's load.
    measure_setup = import_times if trace else setup_times
    setup = measure_setup(src, setup_runs // 2, deadline)

    spec_path = os.path.join(workdir, "spec.json")
    result_path = os.path.join(workdir, "result.json")
    with open(spec_path, "w") as fh:
        json.dump({"src": src, "commands": commands, "outdir": os.path.join(workdir, "out"),
                   "seconds": seconds, "trace": trace,
                   "spans_path": os.path.join(workdir, "spans.jsonl") if trace else None}, fh)
    _subprocess([sys.executable, os.path.join(HERE, "child.py"), spec_path, result_path],
                dict(os.environ), deadline)
    with open(result_path) as fh:
        child = json.load(fh)
    shutil.rmtree(os.path.join(workdir, "out"), ignore_errors=True)  # grid CSVs are ~50 MB
    setup += measure_setup(src, setup_runs - setup_runs // 2, deadline)

    if trace:
        metrics = {"import.total_s": _median_metric([t for t, _ in setup], "s"),
                   "import.scipy_optimize_s": _median_metric([s for _, s in setup], "s")}
        plain, traced = child["trace"]["untraced"], child["trace"]["traced"]
        samples = len(traced["wall_s"])
        for name, value in child["layers"].items():
            metrics[name] = {"value": value, "unit": LAYER_UNITS[name], "samples": samples}
        metrics["trace.overhead_s"] = {
            "value": _pass_metric(traced, "wall_s")["value"]
            - _pass_metric(plain, "wall_s")["value"],
            "unit": "s", "samples": samples}
        raw = {}
    else:
        measured = child["measured"]
        metrics = {"setup_s": _median_metric([s for _, s in setup], "s"),
                   "wall_s": _pass_metric(measured, "wall_s"),
                   "cpu_s": _pass_metric(measured, "cpu_s"),
                   "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB", "samples": 1}}
        # the same medians before scaling to the reference speed, for the record
        raw = {"setup_s": statistics.median(t for t, _ in setup),
               "wall_s": statistics.median(map(sum, measured["wall_s"])),
               "cpu_s": statistics.median(map(sum, measured["cpu_s"])),
               "ref_s": statistics.median(r for ref in measured["ref_s"] for r in ref)}

    record = dict(child["environment"], workload=workload, seed=seed, seconds=seconds,
                  trace=trace, git_commit=git_commit(root),
                  source_sha256=source_digest(src), passes=child["passes"],
                  setup_runs=setup_runs, unscaled=raw,
                  fail_ratio=child["failed"] / child["attempted"],
                  problems=child["problems"])
    with open(os.path.join(workdir, "record.json"), "w") as fh:
        json.dump({"metrics": metrics, "record": record}, fh, indent=1)
    return {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
        "record": record,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    for name, m in res["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']} (median, n={m['samples']})")
    print(f"fail_ratio = {res['record']['fail_ratio']!r} ({res['failed']} of "
          f"{res['attempted']} commands)")
    print("record " + json.dumps(res["record"]))
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
