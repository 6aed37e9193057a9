"""Tests of the benchmark itself. Run from the repo root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import calibrate  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)

SCRATCH = os.path.join(ROOT, run.OUT_ROOT, "tests")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric_with_unit(workload, trace):
    res = run.run(workload, seed=3, seconds=0.0, trace=trace, root=ROOT, small=True,
                  setup_runs=1)
    assert res["correct"], res["record"]["problems"]
    assert res["failed"] == 0 and res["attempted"] >= 2
    wanted = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {name: m["unit"] for name, m in res["metrics"].items()}
    for record_key in ("python", "numpy", "scipy", "blas", "nproc", "OPENBLAS_NUM_THREADS",
                       "git_commit", "seed", "passes"):
        assert record_key in res["record"]


def test_wrong_verdict_counts_as_failure():
    witness = ["witness", "--case", "v", "--x", "1/7", "--strategy", "a", "--json"]
    commands = [
        {"argv": witness, "check": {"kind": "witness", "exit": 10}},
        {"argv": witness, "check": {"kind": "witness", "exit": 0}},  # deliberately wrong
    ]
    res = child.run(commands, os.path.join(SCRATCH, "wrong"), seconds=0.0, trace=False)
    assert res["attempted"] == 2 * (1 + res["passes"]["measured"])
    assert res["failed"] == res["attempted"] // 2
    assert "exit code 10, expected 0" in res["problems"][0]["problems"]


def test_output_that_changes_between_passes_counts_as_failure():
    class DriftingCli:
        calls = 0

        def main(self, argv):
            self.calls += 1
            sys.stdout.write(json.dumps({"min_value": float(self.calls)}))
            return 0

    runner = child.Runner([{"argv": [], "check": {"kind": "grid_positive"}}],
                          os.path.join(SCRATCH, "drift"))
    runner.cli = DriftingCli()
    runner.one_pass()
    runner.one_pass()
    assert (runner.attempted, runner.failed) == (2, 1)
    assert runner.problems[0]["problems"] == ["output bytes differ from the first pass"]


def test_bench_refuses_a_tree_without_sources(monkeypatch, capsys):
    empty = os.path.join(SCRATCH, "empty")
    os.makedirs(empty, exist_ok=True)
    monkeypatch.chdir(empty)
    assert run.main(["--workload", "grid", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_import_split_reads_top_level_and_scipy_optimize():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | encodings",
        "import time:       300 |     400000 |     scipy.optimize",
        "import time:      2000 |     700000 |   qutritdistill.kernel",
        "import time:      1000 |     800000 | qutritdistill",
        "import time:       500 |       5000 | qutritdistill.cli",
    ])
    assert run.import_split(log) == (0.805, 0.4)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["cli.cmd_scan", 1.0, 9.0, 0, None],
        ["distill.witness_search", 2.0, 6.0, 1, {"found": True}],
        ["distill.projected_min_eig", 3.0, 4.0, 2, None],
        ["_fmt.write_csv", 7.0, 8.0, 1, {"rows": 4, "bytes": 2_000_000}],
    ]
    m = tracing.layer_metrics(spans)
    assert m["cli.self_s"] == pytest.approx(2.0 + 3.0)
    assert m["distill.witness_search.self_s"] == pytest.approx(3.0)
    assert m["distill.eigensolves"] == 1
    assert m["distill.witness_found_ratio"] == 1.0
    assert m["fmt.write_csv.mb_per_s"] == pytest.approx(2.0)


def test_tracer_rebinds_names_imported_by_value_and_restores_them():
    import qutritdistill
    from qutritdistill import _fmt, cli, distill, minors

    originals = (_fmt.write_csv, cli.write_csv, distill.projected_min_eig, _fmt.sig17)
    tracer = tracing.Tracer()
    tracer.install(qutritdistill)
    try:
        assert cli.write_csv is _fmt.write_csv is minors.write_csv
        assert cli.write_csv.__wrapped__ is originals[0]
        assert distill.projected_min_eig is not originals[2]
        assert _fmt.sig17 is originals[3]
    finally:
        tracer.uninstall()
    assert (_fmt.write_csv, cli.write_csv, distill.projected_min_eig, _fmt.sig17) == originals


def test_scaling_to_reference_speed_cancels_host_speed():
    times = [[1.0, 0.5], [1.2, 0.4]]
    refs = [[0.02, 0.02, 0.02], [0.02, 0.03, 0.01]]
    half_speed = calibrate.scaled_passes([[2 * t for t in p] for p in times],
                                         [[2 * r for r in p] for p in refs])
    assert half_speed == pytest.approx(calibrate.scaled_passes(times, refs))
    ref = calibrate.REF_S
    assert calibrate.scaled_passes([[1.0, 2.0]], [[ref, ref, ref]]) == [pytest.approx(3.0)]
    assert calibrate.scaled_passes([[3.0]], [[ref / 2, ref / 2]]) == [pytest.approx(6.0)]
