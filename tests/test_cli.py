"""Command-line entry points: exits, JSON payloads, CSV artifacts,
byte-for-byte determinism."""

import csv
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from qutritdistill import cli, linalg, states
from qutritdistill.cli import EXIT_NOT_FOUND, EXIT_OK, EXIT_USAGE, NAMED_X, parse_x
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
    assert err == "usage error: unknown strategy letters ['d']; expected a subset of 'abc'\n"


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
    from qutritdistill import kernel, states

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
    ["grid", "--which", "alpha1_psd", "--step", "1", "--c=inf", "--json"],
    # oversized: rejected before anything is computed or written, so
    # verify-example checks its grids before the inertia and the psd scan
    ["grid", "--which", "G", "--step", "1e-300"],
    ["verify-example", "--x", "0.2", "--grid-step", "1e-300"],
    ["scan", "--case", "v", "--steps", "1000000000000000000000000000000"],
])
def test_degenerate_inputs_are_usage_errors(capsys, tmp_path, argv):
    vectors = np.eye(9)[:5].astype(complex)
    files = {"ALL_ZERO": np.zeros_like(vectors), "NAN_ENTRY": vectors.copy()}
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

    grids = []
    real_cross_check = minors.cross_check

    def recording(which, grid, printed=False):
        grids.append(grid)
        return real_cross_check(which, grid, printed)

    monkeypatch.setattr(minors, "cross_check", recording)
    code, out, _ = run(capsys, ["verify-example", "--grid-step", "0.7", "--json",
                                "--out", str(tmp_path)])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["grid_step"] == 0.7
    for name in ("cross_minor4", "cross_minor5", "cross_det"):
        assert doc["checks"][name]["n_points"] == 36
    axis = (-2.0 + 0.7 * np.arange(6)).tolist()
    assert len(grids) == 3
    for grid in grids:
        assert grid == [(complex(b), complex(c)) for b in axis for c in axis]


def test_verify_example_writes_master_json(capsys, tmp_path):
    run(
        capsys,
        ["verify-example", "--json", "--out", str(tmp_path), "--grid-step", "0.5"],
    )
    master = tmp_path / "verify_example.json"
    assert master.exists()
    doc = json.loads(master.read_text())
    assert set(doc.keys()) == {"x", "seed", "grid_step", "checks", "pass"}


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
