"""Command-line entry points: exits, JSON payloads, CSV artifacts,
byte-for-byte determinism."""

import argparse
import csv
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from qutritdistill import cli, distill, kernel, linalg, states
from qutritdistill.cli import (EXIT_INTERNAL, EXIT_NOT_FOUND, EXIT_OK, EXIT_USAGE, NAMED_X,
                               parse_x)
from qutritdistill.distill import witness_search


C1 = (33 - 12 * np.sqrt(6)) / 25


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# --------------------------------------------------------------------- parse_x


def test_parse_x_named_constants():
    assert parse_x("c1") == NAMED_X["c1"]
    assert parse_x("c2") == NAMED_X["c2"]
    assert abs(NAMED_X["c1"] - C1) <= 1e-15
    assert abs(NAMED_X["c2"] - (24 * np.sqrt(2) - 33) / 7) <= 1e-15


def test_parse_x_fractions_and_floats():
    assert abs(parse_x("3/11") - 3 / 11) <= 1e-17
    assert abs(parse_x("1/7") - 1 / 7) <= 1e-17
    assert parse_x("0.25") == 0.25


def test_parse_x_rejects_garbage():
    with pytest.raises(Exception):
        parse_x("one seventh")


# ------------------------------------------------------------------- threshold


def test_threshold_accuracy(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        [
            "threshold",
            "--case", "v",
            "--target", "min-eig",
            "--bracket", "0.1", "0.2",
            "--json",
            "--out", str(tmp_path),
        ],
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert abs(doc["x_star"] - C1) <= 1e-13
    assert doc["case"] == "v"
    assert list(doc) == ["case", "target", "x_star", "bracket", "iterations", "seed"]


def test_threshold_second_eig_underscore_spelling(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        [
            "threshold",
            "--case", "v",
            "--target", "second_eig",
            "--bracket", "0.2", "0.4",
            "--json",
            "--out", str(tmp_path),
        ],
    )
    assert code == EXIT_OK
    assert abs(json.loads(out)["x_star"] - 3 / 11) <= 1e-13


def test_threshold_no_sign_change_is_usage_error(capsys, tmp_path):
    code, _, err = run(
        capsys,
        [
            "threshold",
            "--case", "v",
            "--target", "second-eig",
            "--bracket", "0.05", "0.14",
            "--out", str(tmp_path),
        ],
    )
    assert code == EXIT_USAGE
    assert err.startswith("usage error: second_eig does not strictly change sign")


@pytest.mark.parametrize("case, bracket", [("i", ("1/7", "1/4")), ("v", ("c1", "3/11"))])
def test_threshold_bracket_of_two_roots_is_usage_error(capsys, tmp_path, case, bracket):
    # both ends are PPT boundaries: their least eigenvalues differ in sign
    # only by roundoff, so the bracket holds no crossing
    code, out, err = run(capsys, ["threshold", "--case", case, "--target", "min-eig",
                                  "--bracket", *bracket, "--json", "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("usage error: min_eig does not strictly change sign")
    assert err.count("\n") == 1


def test_threshold_has_no_tol_option(capsys, tmp_path):
    # the crossing is a pencil root, not a bisection to a tolerance
    code, out, err = run(capsys, ["threshold", "--case", "v", "--target", "min-eig",
                                  "--bracket", "0.1", "0.2", "--tol-threshold", "1e-9",
                                  "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "--tol-threshold" in err
    assert out == ""


# --------------------------------------------------------------------- witness


def test_witness_found_exit_zero(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        ["witness", "--case", "i", "--x", "0.05", "--json", "--out", str(tmp_path)],
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["witness"] is not None
    assert doc["witness"]["value"] < -1e-10
    assert doc["is_npt"]


def test_witness_not_found_exit_ten(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        [
            "witness",
            "--case", "v",
            "--x", "1/7",
            "--strategy", "ab",
            "--json",
            "--out", str(tmp_path),
        ],
    )
    assert code == EXIT_NOT_FOUND
    doc = json.loads(out)
    assert doc["witness"] is None
    assert doc["inertia"] == [1, 0, 8]


def test_witness_report_field_names(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        ["witness", "--case", "v", "--x", "0.5", "--json", "--out", str(tmp_path)],
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    for key in (
        "is_npt",
        "inertia",
        "min_eig_gamma",
        "negative_count",
        "witness",
        "evidence_level",
        "best_value",
        "evaluations",
    ):
        assert key in doc
    rep = witness_search(states.build_family("v", 0.5))
    assert doc["negative_count"] == rep.inertia.negative >= 2
    assert doc["evaluations"] == 1


def test_witness_has_no_budget_option(capsys, tmp_path):
    # the witness is one construction: there is no search to give a budget
    code, out, err = run(capsys, ["witness", "--case", "v", "--x", "1/7", "--budget", "50",
                                  "--json", "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert "--budget" in err


def test_every_strategy_spelling_runs_the_construction(capsys, tmp_path):
    for x, exit_code in (("0.5", EXIT_OK), ("1/7", EXIT_NOT_FOUND), ("0.2", EXIT_NOT_FOUND)):
        argv = ["witness", "--case", "v", "--x", x, "--json", "--out", str(tmp_path)]
        code, default, _ = run(capsys, argv)
        assert code == exit_code
        assert json.loads(default)["evaluations"] == 1
        for strategy in ("a", "b", "c", "ab", "abc", "a + c"):
            assert run(capsys, argv + ["--strategy", strategy]) == (exit_code, default, "")
    code, out, err = run(capsys, ["witness", "--case", "v", "--x", "0.5", "--strategy", "abd"])
    assert code == EXIT_USAGE
    assert out == ""
    assert err == ("usage error: argument --strategy: unknown strategy letters ['d']; "
                   "expected a subset of 'abc'\n")


@pytest.mark.parametrize("argv", [
    ["scan", "--case", "v", "--steps", "26"],
    ["witness", "--case", "v", "--x", "0.5"],
    ["grid", "--which", "alpha2_minor4", "--step", "0.5"],
], ids=["scan", "witness", "grid"])
def test_tol_is_a_usage_error(capsys, tmp_path, argv):
    # NPT follows the inertia and certification the fixed NEG_TOL
    code, out, err = run(capsys, argv + ["--tol", "1e-9", "--json", "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "--tol" in err
    assert out == ""


def test_witness_best_value_is_the_certified_value(capsys, tmp_path):
    # the certified value is the one eigensolve of the compression by the
    # witness rows; the report must carry it as both best_value and value
    code, out, _ = run(capsys, ["witness", "--case", "i", "--x", "0.3", "--strategy", "c",
                                "--json", "--out", str(tmp_path)])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["evidence_level"] == "certified"
    assert doc["best_value"] == doc["witness"]["value"]


@pytest.mark.parametrize("strategy", ["", " + "], ids=["empty", "plus-only"])
def test_witness_without_strategy_letters_is_usage_error(capsys, tmp_path, strategy):
    code, out, err = run(capsys, ["witness", "--case", "v", "--x", "0.5", "--strategy", strategy,
                                  "--json", "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("usage error:")


def test_witness_deterministic_stdout(capsys, tmp_path):
    argv = ["witness", "--case", "v", "--x", "0.4", "--json", "--out", str(tmp_path)]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


# ------------------------------------------------------------------------ scan


def test_scan_brackets_both_crossings(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        [
            "scan",
            "--case", "v",
            "--x-min", "0.1",
            "--x-max", "0.35",
            "--steps", "26",
            "--json",
            "--out", str(tmp_path),
        ],
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert any(lo < C1 < hi for lo, hi in doc["brackets"]["min_eig"])
    assert any(lo < 3 / 11 < hi for lo, hi in doc["brackets"]["second_eig"])
    csv_path = tmp_path / "scan_v.csv"
    assert csv_path.exists()
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "x",
        "min_eig_gamma",
        "second_eig_gamma",
        "negative_count",
        "witness_found",
        "witness_value",
    ]
    assert len(rows) == 27


def test_scan_brackets_a_crossing_on_a_grid_point(capsys, tmp_path):
    # at --steps 29 and 50 a grid point is 1/7, where the eigenvalue is
    # zero by linalg.spectrum_signs: the bracket spans its neighbours
    for steps, roots in ((29, (1 / 7, 1 / 4)), (50, (1 / 7,))):
        code, out, _ = run(capsys, ["scan", "--case", "i", "--steps", str(steps), "--json",
                                    "--out", str(tmp_path)])
        assert code == EXIT_OK
        brackets = json.loads(out)["brackets"]["min_eig"]
        for root in roots:
            assert any(lo < root < hi for lo, hi in brackets), (steps, root, brackets)


def test_every_scan_bracket_is_a_threshold_bracket(capsys, tmp_path):
    seen = 0
    for case in states.CASES:
        for steps in range(2, 61):
            _, out, _ = run(capsys, ["scan", "--case", case, "--steps", str(steps), "--json",
                                     "--out", str(tmp_path)])
            for target, brackets in json.loads(out)["brackets"].items():
                for lo, hi in brackets:
                    x_star = distill.find_threshold(case, target, (lo, hi)).x_star
                    assert lo < x_star < hi, (case, steps, target, lo, hi)
                    seen += 1
    assert seen >= 500


def test_scan_steps_must_be_an_integer(capsys, tmp_path):
    code, out, err = run(capsys, ["scan", "--case", "v", "--steps", "abc", "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "usage error: argument --steps: invalid int value: 'abc'\n"


def test_scan_witness_column_covers_every_npt_point(capsys, tmp_path):
    # the construction certifies every NPT x outside [c2, c1], where case v
    # has one negative eigenvalue with a Schmidt-rank-3 eigenvector; cases
    # i-iv share their spectra, so their witness columns agree as well
    window = (NAMED_X["c2"], NAMED_X["c1"])
    found = {}
    for case in states.CASES:
        code, _, _ = run(capsys, ["scan", "--case", case, "--steps", "200", "--out", str(tmp_path)])
        assert code == EXIT_OK
        with open(tmp_path / f"scan_{case}.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 200
        found[case] = [row["witness_found"] for row in rows]
        npt = [row for row in rows if float(row["negative_count"]) > 0]
        assert len(npt) == (174 if case == "v" else 179)
        for row in npt:
            x = float(row["x"])
            if not window[0] <= x <= window[1]:
                assert row["witness_found"] == "1", (case, x)
                assert float(row["witness_value"]) < -1e-10, (case, x)
        assert all(row["witness_found"] == "0" for row in rows if row not in npt)
    assert found["i"] == found["ii"] == found["iii"] == found["iv"]
    assert found["i"].count("1") == 179


def test_scan_takes_one_partial_transpose_per_x(capsys, tmp_path, monkeypatch):
    # one stacked partial transpose holds every x, and its decomposition
    # gives every column of every row
    calls = []
    partial_transpose = linalg.partial_transpose

    def counted(*args):
        calls.append(args)
        return partial_transpose(*args)

    monkeypatch.setattr(linalg, "partial_transpose", counted)
    code, _, _ = run(capsys, ["scan", "--case", "v", "--steps", "40", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert len(calls) == 1
    rho = calls[0][0]
    assert rho.shape == (40, 9, 9)
    xs = np.linspace(0.0, 1.0, 40)
    assert all(np.array_equal(rho[k], states.build_family("v", float(x)).rho)
               for k, x in enumerate(xs))


def test_scan_eigenvalue_columns_are_the_witness_spectrum(capsys, tmp_path):
    for case in states.CASES:
        code, _, _ = run(capsys, ["scan", "--case", case, "--steps", "25", "--out", str(tmp_path)])
        assert code == EXIT_OK
        with open(tmp_path / f"scan_{case}.csv") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            spectrum = witness_search(states.build_family(case, float(row["x"]))).spectrum
            assert float(row["min_eig_gamma"]) == spectrum[0], (case, row["x"])
            assert float(row["second_eig_gamma"]) == spectrum[1], (case, row["x"])


@pytest.mark.parametrize("case", states.CASES)
def test_scan_rows_are_the_per_state_witness_search(capsys, tmp_path, case):
    # the one stacked pass writes what witness_search reports at each x:
    # two steps over [0, 1] (x = 0 and x = 1) and a two-point sub-interval
    for bounds in (["0", "1"], ["0.1", "0.2"]):
        argv = ["scan", "--case", case, "--x-min", bounds[0], "--x-max", bounds[1],
                "--steps", "2", "--out", str(tmp_path)]
        code, _, _ = run(capsys, argv)
        assert code == EXIT_OK
        with open(tmp_path / f"scan_{case}.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(row["x"]) for row in rows] == [parse_x(b) for b in bounds]
        for row in rows:
            rep = witness_search(states.build_family(case, float(row["x"])))
            negative = rep.inertia.negative
            assert float(row["min_eig_gamma"]) == rep.spectrum[0]
            assert float(row["second_eig_gamma"]) == rep.spectrum[1]
            assert int(row["negative_count"]) == negative
            assert float(row["witness_found"]) == (rep.witness is not None)
            if negative:
                assert float(row["witness_value"]) == rep.best_value
            else:
                assert row["witness_value"] == "NaN"


def test_commands_run_without_scipy(tmp_path):
    # every command runs on numpy alone: threshold, witness and scan solve
    # their pencils and eigenproblems with it, and kernel decides product
    # vectors by linear algebra on the minors of M(u)
    script = (
        "import sys\n"
        "from qutritdistill import cli\n"
        "for argv in sys.argv[2:]:\n"
        "    assert cli.main(argv.split() + ['--out', sys.argv[1]]) in (0, 10), argv\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    rng = np.random.default_rng(3)
    for n in (5, 4):
        (tmp_path / f"basis{n}.json").write_text(json.dumps(rng.normal(size=(n, 9, 2)).tolist()))
    commands = ["threshold --case v --target min-eig --bracket 0.1 0.2",
                "witness --case v --x 0.5", "scan --case v --steps 50",
                f"kernel --basis-file {tmp_path / 'basis5.json'}",
                f"kernel --basis-file {tmp_path / 'basis4.json'}", "kernel --case v --x 0"]
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)] + commands,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_scan_rejects_bad_case(capsys, tmp_path):
    code, _, err = run(capsys, ["scan", "--case", "vi", "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert err.strip()


# ---------------------------------------------------------------------- kernel


def test_kernel_case_not_found(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        ["kernel", "--case", "v", "--x", "1/7", "--json", "--out", str(tmp_path)],
    )
    assert code == EXIT_NOT_FOUND
    doc = json.loads(out)
    assert doc["search"]["found"] is False
    assert doc["search"]["evidence_level"] == "proved"
    assert doc["search"]["margin"] is None

    # the exact decision, without the lemma, also rules out every u
    decided = kernel.decide_kernel(*states.range_kernel(states.build_family("v", 1 / 7)))
    assert decided.found is False and decided.evidence_level == "certified"
    assert decided.margin >= 1e-3


def test_kernel_decomposes_the_state_once(capsys, tmp_path, monkeypatch):
    # the candidate check and the exact decision share one (range, kernel) pair
    calls = []
    range_kernel = states.range_kernel

    def counted(*args):
        calls.append(args)
        return range_kernel(*args)

    monkeypatch.setattr(states, "range_kernel", counted)
    code, _, _ = run(capsys, ["kernel", "--case", "v", "--x", "1/7", "--out", str(tmp_path)])
    assert code == EXIT_NOT_FOUND
    assert len(calls) == 1


def test_kernel_human_verdict_when_no_zero_passes(capsys, tmp_path, monkeypatch):
    missed = kernel.ProductVectorResult(found=False, u=None, w=None, residual=1.0)
    monkeypatch.setattr(kernel, "kernel_product_vector", lambda state, split=None: missed)
    code, out, _ = run(capsys, ["kernel", "--case", "v", "--out", str(tmp_path)])
    assert code == EXIT_NOT_FOUND
    assert out == ("kernel product vector: not found "
                   "(no zero of the minors passed the residual check)\n")


def test_kernel_human_verdict_reports_the_margin(capsys, tmp_path):
    path = tmp_path / "basis5.json"
    path.write_text(json.dumps(np.random.default_rng(5).normal(size=(5, 9, 2)).tolist()))
    code, out, _ = run(capsys, ["kernel", "--basis-file", str(path), "--out", str(tmp_path)])
    assert code == EXIT_NOT_FOUND
    margin = kernel.kernel_product_vector(cli._load_basis_file(str(path))).margin
    assert out == ("kernel product vector: none (minor cubics rule out every u, "
                   f"margin {cli.sig17(margin)})\n")


def test_kernel_basis_file_found(capsys, tmp_path):
    # span whose orthogonal complement contains |22>: the five-vector range
    # of the first explicit distillable construction
    import numpy as np
    from qutritdistill import states

    def pairs(v):
        return [[float(z.real), float(z.imag)] for z in v]

    sym = lambda i, j: (states.basis_ket(i, j) + states.basis_ket(j, i)) / np.sqrt(2)
    span = [
        states.basis_ket(0, 0),
        states.basis_ket(1, 1),
        sym(0, 1),
        sym(0, 2),
        sym(1, 2),
    ]
    path = tmp_path / "basis.json"
    path.write_text(json.dumps([pairs(v) for v in span]))
    code, out, _ = run(
        capsys,
        ["kernel", "--basis-file", str(path), "--json", "--out", str(tmp_path)],
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["exact_cases"]["found"] or doc["search"]["found"]


def test_kernel_case_defaults_to_one_seventh(capsys, tmp_path):
    argv = ["kernel", "--case", "v", "--json", "--out", str(tmp_path)]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_NOT_FOUND
    assert json.loads(out)["x"] == parse_x("1/7")
    assert run(capsys, argv + ["--x", "1/7"]) == (code, out, "")


@pytest.mark.parametrize("extra", [["--case", "vi"], ["--case", "v", "--x", "1.5"],
                                   ["--case", "v", "--x", "-0.1"]])
def test_kernel_rejects_bad_case_or_x(capsys, tmp_path, extra):
    code, out, err = run(capsys, ["kernel"] + extra + ["--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert err.startswith("usage error:")
    assert out == ""


def test_kernel_requires_some_input(capsys, tmp_path):
    code, _, err = run(capsys, ["kernel", "--json", "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert err.strip()


# ------------------------------------------------------------------------ grid


def test_grid_csv_header(capsys, tmp_path):
    code, _, _ = run(
        capsys,
        [
            "grid",
            "--which", "F",
            "--step", "0.5",
            "--json",
            "--out", str(tmp_path),
        ],
    )
    assert code == EXIT_OK
    path = tmp_path / "F_grid.csv"
    assert path.exists()
    header = path.read_text().splitlines()[0]
    assert header == "re_b,im_b,re_c,im_c,value"


@pytest.mark.parametrize("x", ["0", "1", "1.5", "-0.5"])
def test_grid_rejects_x_outside_open_unit_interval(capsys, tmp_path, x):
    code, out, err = run(capsys, ["grid", "--which", "alpha2_minor4", "--step", "0.5",
                                  "--x", x, "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert err.startswith("usage error: x must lie in (0, 1)")
    assert out == ""
    assert not (tmp_path / "alpha2_minor4_grid.csv").exists()


HUGE_GRID = ["--re-min=-1e200", "--re-max=1e200", "--im-min=-1e200", "--im-max=1e200",
             "--step", "1e199"]
# |b|^2 = 1e120 is finite, but the |b|^6 term of every form-2 minor from the 4th on is not
LARGE_GRID = ["--re-min=-1e60", "--re-max=1e60", "--im-min=-1e60", "--im-max=1e60",
              "--step", "1e59"]


@pytest.mark.parametrize("argv", [
    ["--which", "alpha2_minor4"] + HUGE_GRID,
    ["--which", "G"] + HUGE_GRID,
    ["--which", "alpha1_psd"] + HUGE_GRID,
    ["--which", "G", "--step", "0.5", "--c=1e200"],
    ["--which", "G"] + LARGE_GRID,
    ["--which", "F"] + LARGE_GRID,
    ["--which", "alpha2_minor4"] + LARGE_GRID,
    ["--which", "G", "--step", "0.5", "--c=1e60"],
])
def test_grid_overflow_is_usage_error(capsys, tmp_path, argv):
    # |b|^2 or |c|^2 = 1e400 overflows float64, and so does a minor at
    # |b| = 1e60: the grid stops with one usage error line and no
    # RuntimeWarning, and writes no CSV
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, ["grid"] + argv + ["--json", "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert err.startswith("usage error:")
    assert err.count("\n") == 1
    assert out == ""
    assert caught == []
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("c_args", [["--c=1+1j"], ["--c=0"],
                                    ["--c=0", "--c=1+1j", "--c=-2+0.5j"]])
def test_grid_alpha1_psd_rejects_c(capsys, tmp_path, c_args):
    # form 1 has the one parameter a: each c panel would repeat the same
    # values under its own c label, in the CSV and in argmin
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, ["grid", "--which", "alpha1_psd", "--step", "1", *c_args,
                                  "--json", "--out", str(out_dir)])
    assert code == EXIT_USAGE
    assert err == "usage error: argument --c: not allowed with --which alpha1_psd\n"
    assert out == ""
    assert not out_dir.exists()


def test_grid_has_no_scale_option(capsys, tmp_path):
    # F and G carry fixed scales that GridScan.passed relies on
    code, out, err = run(capsys, ["grid", "--which", "F", "--scale", "1",
                                  "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "--scale" in err
    assert out == ""


# ----------------------------------------------------------- degenerate inputs


THRESHOLD = ["threshold", "--case", "v", "--target", "min-eig", "--bracket"]


@pytest.mark.parametrize("argv", [
    THRESHOLD + ["0.2", "0.1"],
    THRESHOLD + ["nan", "0.2"],
    THRESHOLD + ["0.1", "inf"],
    THRESHOLD + ["-0.1", "0.2"],
    THRESHOLD + ["0.1", "1.5"],
    ["grid", "--which", "F", "--step", "nan"],
    ["grid", "--which", "F", "--step", "inf"],
    ["grid", "--which", "F", "--re-min", "nan"],
    ["verify-example", "--grid-step", "nan"],
    ["kernel", "--basis-file", "NAN_ENTRY"],
    ["kernel", "--basis-file", "ALL_ZERO"],
    ["grid", "--which", "F", "--step", "0.5", "--c=nan"],
    # alpha1_psd takes no --c at all; MinorScanSpec still rejects a non-finite c
    ["grid", "--which", "alpha1_psd", "--step", "1", "--c=inf", "--json"],
    # oversized: rejected before anything is computed or written, so
    # verify-example checks its grids before the inertia and the psd scan
    ["grid", "--which", "G", "--step", "1e-300"],
    ["verify-example", "--x", "0.2", "--grid-step", "1e-300"],
    ["scan", "--case", "v", "--steps", "1000000000000000000000000000000"],
    # the parser checks each argument: the cases and targets it knows, x values
    # it can read, and one of --case and --basis-file for kernel
    ["scan", "--case", "vi"],
    ["threshold", "--case", "vi", "--target", "min-eig", "--bracket", "0.1", "0.2"],
    ["witness", "--case", "vi", "--x", "0.5"],
    ["kernel", "--case", "vi"],
    ["threshold", "--case", "v", "--target", "max-eig", "--bracket", "0.1", "0.2"],
    ["witness", "--case", "v", "--x", "abc"],
    ["kernel", "--case", "v", "--x", "abc"],
    ["grid", "--which", "F", "--step", "0.5", "--x", "abc"],
    ["verify-example", "--x", "abc"],
    ["kernel", "--case", "v", "--basis-file", "BASIS"],
    ["kernel", "--basis-file", "BASIS", "--case", "vi"],
    ["kernel", "--basis-file", "BASIS", "--x", "abc"],
    # --x belongs to the --case state: with --basis-file it would go unused
    ["kernel", "--basis-file", "BASIS", "--x", "0.3"],
])
def test_degenerate_inputs_are_usage_errors(capsys, tmp_path, argv):
    vectors = np.eye(9)[:5].astype(complex)
    files = {"ALL_ZERO": np.zeros_like(vectors), "NAN_ENTRY": vectors.copy(), "BASIS": vectors}
    files["NAN_ENTRY"][4, 3] = np.nan
    for name, vs in files.items():
        (tmp_path / name).write_text(
            json.dumps([[[z.real, z.imag] for z in v] for v in vs.tolist()]))
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, argv + ["--out", str(out_dir)])
    assert code == EXIT_USAGE
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert out == ""
    assert not out_dir.exists()


BASIS_FILES = {
    "EMPTY": [],
    "EIGHT_PAIRS": [[[1.0, 0.0]] * 8],
    "NINE_VECTORS": np.stack([np.eye(9), np.zeros((9, 9))], axis=-1).tolist(),
}


@pytest.mark.parametrize("error, argv, message", [
    (cli.UsageError, ["scan", "--case", "v", "--x-min", "0.5", "--x-max", "0.2"],
     "need 0 <= x-min < x-max <= 1"),
    (cli.UsageError, ["grid", "--which", "F", "--c=abc"],
     "argument --c: cannot parse complex value 'abc'"),
    (cli.UsageError, ["kernel", "--basis-file", "EMPTY"], "basis file is empty"),
    (cli.UsageError, ["kernel", "--basis-file", "EIGHT_PAIRS"],
     "cannot read basis file 'EIGHT_PAIRS': each vector needs exactly 9 [re, im] pairs"),
    (states.OutOfRange, ["grid", "--which", "F", "--step", "0"], "step must be positive"),
    (states.OutOfRange, ["kernel", "--case", "v", "--x", "2"], "x=2.0 outside [0, 1]"),
    (distill.NoSignChange, ["threshold", "--case", "v", "--target", "min-eig",
                            "--bracket", "0.3", "0.4"],
     "min_eig does not strictly change sign on [0.3, 0.4]: f(lo)=-1.250e-02, f(hi)=-5.833e-02"),
    (kernel.EmptyKernel, ["kernel", "--basis-file", "NINE_VECTORS"],
     "state has a trivial kernel; nothing to search"),
    (linalg.NonFiniteValue, ["grid", "--which", "G", "--step", "0.5", "--c=1e200"],
     "grid too large for float64: a parameter product c_i conj(c_j) is not finite"),
    (linalg.NonFiniteValue, ["grid", "--which", "G"] + LARGE_GRID,
     "grid too large for float64: non-finite value in grid scan"),
], ids=["cross_argument", "parser", "empty_basis", "eight_pairs", "spec_out_of_range",
        "x_out_of_range", "no_sign_change", "trivial_kernel", "product_overflow",
        "minor_overflow"])
def test_main_maps_each_input_error_to_exit_2(capsys, tmp_path, error, argv, message):
    # the command raises the library's typed error; main alone turns it into
    # exit 2 and one stderr line
    for name, vectors in BASIS_FILES.items():
        (tmp_path / name).write_text(json.dumps(vectors))
        message = message.replace(f"'{name}'", repr(str(tmp_path / name)))
    argv = [str(tmp_path / a) if a in BASIS_FILES else a for a in argv]
    argv += ["--out", str(tmp_path / "out")]
    with pytest.raises(error):
        args = cli.build_parser().parse_args(argv)
        args.func(args)
    assert run(capsys, argv) == (EXIT_USAGE, "", f"usage error: {message}\n")


def test_library_failure_is_one_internal_error_line(capsys, tmp_path, monkeypatch):
    def fail(state):
        raise RuntimeError("eigensolver gave up")

    monkeypatch.setattr(distill, "witness_search", fail)
    code, out, err = run(capsys, ["witness", "--case", "v", "--x", "0.5", "--json",
                                  "--out", str(tmp_path)])
    assert (code, out) == (EXIT_INTERNAL, "")
    assert err == "internal error: RuntimeError: eigensolver gave up\n"


@pytest.mark.parametrize("text", [
    # an integer past the float range
    "[" + ", ".join(["[[1" + "0" * 400 + ", 0]" + ", [0, 0]" * 8 + "]"] * 5) + "]",
    # JSON booleans are not numbers
    json.dumps([[[k == j, False] for k in range(9)] for j in range(5)]),
], ids=["overflowing_integer", "booleans"])
def test_basis_file_entries_must_be_json_numbers(capsys, tmp_path, text):
    path = tmp_path / "basis.json"
    path.write_text(text)
    code, out, err = run(capsys, ["kernel", "--basis-file", str(path), "--json",
                                  "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert err.startswith(f"usage error: cannot read basis file {str(path)!r}")
    assert err.count("\n") == 1
    assert out == ""


@pytest.mark.parametrize("argv, out", [
    (["scan", "--case", "v"], "FILE"),
    (["grid", "--which", "F", "--step", "0.5"], "FILE/sub"),
], ids=["scan_into_file", "grid_under_file"])
def test_out_that_is_not_a_directory_is_usage_error(capsys, tmp_path, argv, out):
    (tmp_path / "FILE").write_text("kept\n")
    code, stdout, err = run(capsys, argv + ["--json", "--out", str(tmp_path / out)])
    assert code == EXIT_USAGE
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert stdout == ""
    assert (tmp_path / "FILE").read_text() == "kept\n"


def test_help_lists_cases_and_targets(capsys):
    code, out, _ = run(capsys, ["scan", "--help"])
    assert code == EXIT_OK
    assert "{i,ii,iii,iv,v}" in out
    code, out, _ = run(capsys, ["threshold", "--help"])
    assert code == EXIT_OK
    assert "{min-eig,second-eig}" in out


def _subparsers(parser) -> dict:
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.mark.parametrize("argv", [
    ["scan", "--case", "v", "--x-min", "1/7", "--steps", "9", "--json"],
    ["threshold", "--case", "i", "--target", "second_eig", "--bracket", "c1", "0.5"],
    ["witness", "--case", "iii", "--x", "0.3", "--strategy", "a+b", "--seed", "4"],
    ["verify-example", "--grid-step", "0.5", "--out", "d"],
    ["kernel", "--basis-file", "b.json"],
    ["grid", "--which", "G", "--c", "1+1j", "--c=-1", "--re-min=-2", "--x", "0.2"],
], ids=lambda argv: argv[0])
def test_one_subcommand_parser_parses_and_helps_as_the_full_one(argv):
    alone, full = cli.build_parser(argv[0]), cli.build_parser()
    assert alone.parse_args(argv) == full.parse_args(argv)
    assert _subparsers(alone)[argv[0]].format_help() == _subparsers(full)[argv[0]].format_help()


@pytest.mark.parametrize("argv", [[], ["-h"], ["bogus"], ["sc"], ["scan", "extra"],
                                  ["scan", "--case", "v", "extra"], ["--out", "x", "scan"]])
def test_main_answers_help_and_errors_as_the_full_parser(capsys, monkeypatch, argv):
    got = run(capsys, argv)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert got == run(capsys, argv)
    assert got[0] in (EXIT_OK, EXIT_USAGE) and got[1:] != ("", "")


def test_main_registers_only_the_invoked_subcommand(capsys, monkeypatch):
    assert list(_subparsers(cli.build_parser("scan"))) == ["scan"]
    assert list(_subparsers(cli.build_parser("sc"))) == list(cli.SUBCOMMANDS)
    # argv from sys.argv, and the cmd_* bound when main runs
    monkeypatch.setattr(sys, "argv", ["qutritdistill", "scan", "--case", "v"])
    monkeypatch.setattr(cli, "cmd_scan", lambda args: 7)
    assert run(capsys, None) == (7, "", "")


# -------------------------------------------------------------- verify-example


def test_verify_example_default_passes(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        ["verify-example", "--json", "--out", str(tmp_path), "--grid-step", "0.25"],
    )
    doc = json.loads(out)
    assert doc["pass"], {k: v for k, v in doc["checks"].items()}
    assert code == EXIT_OK
    for which in ("alpha2_minor4", "F", "G"):
        assert doc["checks"][which]["evidence_level"] == "proved"


def test_verify_example_off_point_fails_inertia(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        [
            "verify-example",
            "--x", "0.5",
            "--json",
            "--out", str(tmp_path),
            "--grid-step", "0.5",
        ],
    )
    assert code == EXIT_NOT_FOUND
    doc = json.loads(out)
    assert not doc["checks"]["inertia"]["pass"]
    # every minor grid has a negative point there
    for which in ("alpha2_minor4", "F", "G"):
        assert not doc["checks"][which]["pass"]
        assert doc["checks"][which]["evidence_level"] == "searched"


def test_verify_example_skips_cross_checks_off_reference_point(capsys, tmp_path):
    # the closed forms hold at x = 1/7 only, so at 0.2 they are not checked;
    # the PPT state there fails the inertia check and nothing else
    code, out, _ = run(
        capsys,
        ["verify-example", "--x", "0.2", "--grid-step", "0.5", "--json", "--out", str(tmp_path)],
    )
    doc = json.loads(out)
    assert not [k for k in doc["checks"] if k.startswith("cross_")]
    assert [k for k, v in doc["checks"].items() if not v["pass"]] == ["inertia"]
    assert code == EXIT_NOT_FOUND
    # without the cross-checks nothing is proved: a positive grid is all there is
    for which in ("alpha2_minor4", "F", "G"):
        assert doc["checks"][which]["evidence_level"] == "not_found_at_budget"



def test_verify_example_runs_cross_checks_at_one_seventh(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        ["verify-example", "--x", "1/7", "--grid-step", "0.5", "--json", "--out", str(tmp_path)],
    )
    doc = json.loads(out)
    for name in ("cross_minor4", "cross_minor5", "cross_det"):
        assert doc["checks"][name]["pass"]
        assert doc["checks"][name]["n_points"] == 81
    assert doc["checks"]["alpha1_psd"]["min_eigenvalue"] > 5e-3
    assert code == EXIT_OK
    for which in ("alpha2_minor4", "F", "G"):
        assert doc["checks"][which]["evidence_level"] == "proved"
        assert "refined_min" not in doc["checks"][which]


def test_verify_example_cross_check_grid_is_spaced_by_the_step(capsys, tmp_path, monkeypatch):
    # 0.7 does not divide 4: the real axis is -2, -1.3, ..., 1.5 (6 points),
    # not 7 points spaced 2/3
    from qutritdistill import minors

    calls = []
    real_cross_check_family = minors.cross_check_family

    def recording(forms, grid, printed=False):
        calls.append((forms, grid))
        return real_cross_check_family(forms, grid, printed)

    monkeypatch.setattr(minors, "cross_check_family", recording)
    code, out, _ = run(capsys, ["verify-example", "--grid-step", "0.7", "--json",
                                "--out", str(tmp_path)])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["grid_step"] == 0.7
    for name in ("cross_minor4", "cross_minor5", "cross_det"):
        assert doc["checks"][name]["n_points"] == 36
    axis = (-2.0 + 0.7 * np.arange(6)).tolist()
    assert len(calls) == 1
    forms, grid = calls[0]
    assert forms == ("minor4", "minor5", "det")
    assert grid == [(complex(b), complex(c)) for b in axis for c in axis]


@pytest.mark.parametrize("step", ["0.5", "0.04"])
def test_verify_example_scans_match_grid_command_bytes(capsys, tmp_path, step):
    # verify-example's three scans come from one family scan; each CSV is
    # the grid command's on the same five c panels, also at step 0.04,
    # whose 22,801-point panels are past ELIDE_POINTS
    run(capsys, ["verify-example", "--grid-step", step, "--out", str(tmp_path / "verify")])
    panels = ["--c=0", "--c=1+1j", "--c=1-1j", "--c=-1+1j", "--c=-1-1j"]
    for which, name in (("alpha2_minor4", "minor4_scan"), ("F", "F_scan"), ("G", "G_scan")):
        code, _, _ = run(capsys, ["grid", "--which", which, "--step", step, *panels,
                                  "--out", str(tmp_path / "grid")])
        assert code == EXIT_OK
        grid_csv = (tmp_path / "grid" / f"{which}_grid.csv").read_bytes()
        assert (tmp_path / "verify" / f"{name}.csv").read_bytes() == grid_csv, which


def test_verify_example_writes_master_json(capsys, tmp_path):
    run(
        capsys,
        ["verify-example", "--json", "--out", str(tmp_path), "--grid-step", "0.5"],
    )
    master = tmp_path / "verify_example.json"
    assert master.exists()
    doc = json.loads(master.read_text())
    assert set(doc.keys()) == {"x", "seed", "grid_step", "checks", "pass"}


# ---------------------------------------------------------------- JSON contract


def _key_paths(doc, prefix=""):
    """Every dict key of doc as a dotted path, in document order; list
    elements share the path prefix[] and each path is listed once."""
    paths = []
    if isinstance(doc, dict):
        for key, val in doc.items():
            paths.append(prefix + key)
            paths += _key_paths(val, prefix + key + ".")
    elif isinstance(doc, list):
        for val in doc:
            paths += [p for p in _key_paths(val, prefix[:-1] + "[].") if p not in paths]
    return paths


def _nested(name, keys):
    return [name] + [f"{name}.{key}" for key in keys]


REPORT_KEYS = ["is_npt", "inertia", "min_eig_gamma", "negative_count", "witness"]
REPORT_TAIL = ["evidence_level", "best_value", "evaluations", "case", "x", "seed"]
RESULT_KEYS = ["found", "factors", "factors.u", "factors.w", "residual", "margin",
               "evidence_level"]
GRID_KEYS = (["which", "scale", "min_value"] + _nested("argmin", ["b", "c"])
             + _nested("grid", ["re_range", "im_range", "step", "c_values", "x"]) + ["pass"])
CROSS_KEYS = ["which", "n_points", "max_rel_dev", "worst", "non_real", "pass"]
VERIFY_KEYS = (
    ["x", "seed", "grid_step", "checks"]
    + _nested("checks.inertia", ["value", "expected", "pass"])
    + _nested("checks.alpha1_psd", ["n_points", "min_eigenvalue", "pass"])
    + [path for form in ("minor4", "minor5", "det")
       for path in _nested(f"checks.cross_{form}", CROSS_KEYS)]
    + [path for which in ("alpha2_minor4", "F", "G")
       for path in _nested(f"checks.{which}", GRID_KEYS + ["evidence_level"])]
    + ["pass"]
)


def test_json_payload_key_order_is_pinned(capsys, tmp_path):
    # key names and their order, nested keys included, are the output contract
    basis = tmp_path / "basis4.json"
    basis.write_text(json.dumps(np.random.default_rng(5).normal(size=(4, 9, 2)).tolist()))
    expected = {
        "scan --case v --steps 50": ["case", "x_min", "x_max", "steps", "seed", "csv"]
        + _nested("brackets", ["min_eig", "second_eig"]),
        "threshold --case v --target min-eig --bracket 0.1 0.2":
            ["case", "target", "x_star", "bracket", "iterations", "seed"],
        "witness --case i --x 0.3": REPORT_KEYS + ["witness.form", "witness.params",
                                                   "witness.params.rows", "witness.value"]
        + REPORT_TAIL,
        "witness --case v --x 1/7": REPORT_KEYS + REPORT_TAIL,
        "kernel --case v --x 1": ["case", "x", "seed"] + _nested("exact_cases", RESULT_KEYS)
        + _nested("search", RESULT_KEYS),
        f"kernel --basis-file {basis}": ["basis_file", "seed"]
        + _nested("exact_cases", [k for k in RESULT_KEYS if not k.startswith("factors.")])
        + _nested("search", RESULT_KEYS),
        "grid --which G --step 0.5 --c 1+1j": GRID_KEYS + ["csv", "seed"],
        "verify-example --grid-step 0.5": VERIFY_KEYS,
    }
    for argv, keys in expected.items():
        _, out, _ = run(capsys, argv.split() + ["--json", "--out", str(tmp_path)])
        assert _key_paths(json.loads(out)) == keys, argv
    assert _key_paths(json.loads((tmp_path / "verify_example.json").read_text())) == VERIFY_KEYS


# ----------------------------------------------------------------- entry point


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qutritdistill.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "threshold" in proc.stdout


def test_usage_error_without_subcommand():
    proc = subprocess.run(
        [sys.executable, "-m", "qutritdistill.cli"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_USAGE


# ------------------------------------------------------------ evidence levels

EVIDENCE_LEVELS = {"proved", "certified", "searched", "not_found_at_budget"}


def _evidence_levels(doc):
    if isinstance(doc, dict):
        for key, val in doc.items():
            if key == "evidence_level":
                yield val
            else:
                yield from _evidence_levels(val)
    elif isinstance(doc, list):
        for val in doc:
            yield from _evidence_levels(val)


def test_every_evidence_level_is_in_the_vocabulary(capsys, tmp_path):
    from qutritdistill.distill import precondition_report

    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps([[[1.0 if k == j else 0.0, 0.0] for k in range(9)]
                                 for j in (0, 4, 8, 1, 5)]))
    commands = [
        ["witness", "--case", "v", "--x", "0.5"],
        ["witness", "--case", "v", "--x", "1/7"],
        ["kernel", "--case", "v", "--x", "1/7"],
        ["kernel", "--case", "i", "--x", "0"],
        ["kernel", "--basis-file", str(basis)],
        ["verify-example", "--x", "1/7", "--grid-step", "0.5"],
        ["verify-example", "--x", "0.3", "--grid-step", "0.5"],
    ]
    seen = []
    for argv in commands:
        _, out, _ = run(capsys, argv + ["--json", "--out", str(tmp_path)])
        seen += list(_evidence_levels(json.loads(out)))
    for state in (states.build_family("v", 1 / 7), states.build_family("v", 0.5),
                  states.from_density(np.eye(9))):
        seen += list(_evidence_levels(precondition_report(state)))
    assert set(seen) <= EVIDENCE_LEVELS, sorted(set(seen) - EVIDENCE_LEVELS)
    assert set(seen) == EVIDENCE_LEVELS
