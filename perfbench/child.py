"""One workload in its own process: a closed loop with a single caller.

Usage: python3 perfbench/child.py SPEC.json RESULT.json

SPEC.json (written by run.py) holds the generated commands, the output
directory, the measuring budget in seconds and whether to trace. The child
runs every command in-process through ``qutritdistill.cli.main``, one after
another, times the reference loop of calibrate.py before and after each,
checks each result, and writes timings, failure counts and its own peak RSS
to RESULT.json. It starts no threads of its own; BLAS keeps its
environment default.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

from calibrate import reference_seconds
from checks import check_command
from tracing import Tracer, layer_metrics, median_metrics

MAX_LOGGED_PROBLEMS = 20


def _digest(stdout: str, outdir: str) -> str:
    """Hash of a command's stdout and every file it wrote."""
    h = hashlib.sha256(stdout.encode())
    for name in sorted(os.listdir(outdir)) if os.path.isdir(outdir) else ():
        h.update(name.encode() + b"\0")
        with open(os.path.join(outdir, name), "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


class Runner:
    """Runs passes over one command list and checks every result."""

    def __init__(self, commands: list[dict], outdir: str):
        from qutritdistill import cli

        self.cli = cli
        self.commands = commands
        self.outdirs = [os.path.join(outdir, str(k)) for k in range(len(commands))]
        self.first_digests = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.tracer = None
        self.layer_passes = []

    def one_pass(self) -> tuple[list, list, list]:
        """Run every command once; return the wall and cpu seconds of each,
        and the reference loop's seconds before, between and after them."""
        gc.collect()
        if self.tracer is not None:
            self.tracer.reset()
        results, walls, cpus, refs = [], [], [], [reference_seconds()]
        for cmd, outdir in zip(self.commands, self.outdirs):
            out, err = io.StringIO(), io.StringIO()
            t0, c0 = time.perf_counter(), time.process_time()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = self.cli.main(cmd["argv"] + ["--out", outdir])
                except Exception as exc:  # main maps library errors to exit 1 itself
                    code = None
                    err.write(f"raised {type(exc).__name__}: {exc}")
            walls.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
            refs.append(reference_seconds())
            results.append((code, out.getvalue(), err.getvalue()))
        if self.tracer is not None:
            self.layer_passes.append(layer_metrics(self.tracer.spans))
        self._check(results)
        return walls, cpus, refs

    def _check(self, results):
        digests = []
        for k, (cmd, (code, out, err)) in enumerate(zip(self.commands, results)):
            if code is None:
                problems = [err]
            else:
                problems = check_command(cmd["check"], code, out)
            digests.append(_digest(out, self.outdirs[k]))
            if self.first_digests is not None and digests[k] != self.first_digests[k]:
                problems.append("output bytes differ from the first pass")
            self.attempted += 1
            if problems:
                self.failed += 1
                if len(self.problems) < MAX_LOGGED_PROBLEMS:
                    self.problems.append({"argv": cmd["argv"], "problems": problems,
                                          "stderr": err[-500:]})
        if self.first_digests is None:
            self.first_digests = digests

    def timed_passes(self, budget: float) -> dict:
        """At least one pass, then more while the next one should still end
        within ``budget`` seconds of the first one's start. Returns the
        per-pass lists of ``one_pass``."""
        samples = {"wall_s": [], "cpu_s": [], "ref_s": []}
        t0 = time.perf_counter()
        while True:
            for key, values in zip(samples, self.one_pass()):
                samples[key].append(values)
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / len(samples["wall_s"]) > budget:
                return samples


def run(commands: list[dict], outdir: str, seconds: float, trace: bool,
        spans_path: str | None = None) -> dict:
    """Warm-up pass, then measured passes. Untraced: every pass of the budget
    is timed. Traced: half the budget untraced, half with the tracer
    installed, so the overhead is traced minus untraced pass time."""
    import qutritdistill

    runner = Runner(commands, outdir)
    runner.one_pass()  # warm-up: lru caches and lazy imports fill here
    result = {"passes": {"warmup": 1}}
    if not trace:
        result["measured"] = runner.timed_passes(seconds)
        result["passes"]["measured"] = len(result["measured"]["wall_s"])
    else:
        plain = runner.timed_passes(seconds / 2)
        runner.tracer = Tracer()
        runner.tracer.install(qutritdistill)
        try:
            traced = runner.timed_passes(seconds / 2)
        finally:
            runner.tracer.uninstall()
        if spans_path is not None:
            runner.tracer.dump(spans_path)  # spans of the last traced pass
        result["passes"].update(untraced=len(plain["wall_s"]), traced=len(traced["wall_s"]))
        result["layers"] = median_metrics(runner.layer_passes)
        result["trace"] = {"untraced": plain, "traced": traced}
    result.update(attempted=runner.attempted, failed=runner.failed, problems=runner.problems)
    return result


def environment() -> dict:
    """Library versions, BLAS and thread settings this process ran with."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv: list[str]) -> int:
    spec_path, result_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.abspath(spec["src"]))
    result = run(spec["commands"], spec["outdir"], spec["seconds"], spec["trace"],
                 spec.get("spans_path"))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = environment()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
