"""CSV serialization: the one-call "%.17g" writer and the grid writer
produce the bytes a per-cell sig17 rendering would, for arrays and for
lists of rows, with NaN and Infinity spelled as in JSON; the grid writer's
numpy kernel gives the bytes of "%.17g" value by value. JSON
serialization: the one layout."""

import math
import tracemalloc
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from qutritdistill import cli
from qutritdistill._fmt import (CSV_BLOCK, _digit_words, _sig17_block, json_dumps, sig17,
                                write_csv, write_grid_csv)
from qutritdistill.minors import MinorScanSpec, scan

HEADER = ["a", "b", "c", "d", "e"]


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _both_paths(tmp_path, arr):
    """(bytes write_csv gives for arr, bytes of the per-cell sig17 reference);
    the list form of arr must write the same bytes as the array."""
    write_csv(tmp_path / "block.csv", HEADER, arr)
    write_csv(tmp_path / "list.csv", HEADER, arr.tolist())
    block = _read(tmp_path / "block.csv")
    assert _read(tmp_path / "list.csv") == block
    return block, _sig17_csv(HEADER, arr.tolist())


def _sig17_csv(header, rows):
    """The per-cell sig17 reference bytes of a CSV file."""
    lines = [",".join(header)] + [",".join(sig17(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def test_block_path_matches_cells_on_random_floats(tmp_path):
    rng = np.random.default_rng(5)
    n = 20000  # 10^5 cells
    mags = 10.0 ** rng.uniform(-300, 300, size=(n, 5))
    arr = rng.choice([-1.0, 1.0], size=(n, 5)) * mags * rng.uniform(1, 10, size=(n, 5))
    assert np.isfinite(arr).all()
    block, cells = _both_paths(tmp_path, arr)
    assert block == cells
    assert block.count(b"\n") == n + 1


def test_block_path_matches_cells_on_edge_values(tmp_path):
    edge = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1e17]
    arr = np.array([edge, [-v for v in edge], edge[::-1]])
    block, cells = _both_paths(tmp_path, arr)
    assert block == cells
    assert block.splitlines()[1] == b"-0,4.9406564584124654e-324,1.7976931348623157e+308," \
                                    b"0.10000000000000001,1e+17"


def test_block_path_ragged_row_count(tmp_path):
    n = 2 * CSV_BLOCK + 3
    arr = np.arange(5 * n, dtype=float).reshape(n, 5) / 7.0
    block, cells = _both_paths(tmp_path, arr)
    assert block == cells
    assert block.count(b"\n") == n + 1


def test_non_finite_arrays_write_json_spellings(tmp_path):
    arr = np.array([[np.nan, np.inf, -np.inf, 0.5, -0.0]])
    path = tmp_path / "nonfinite.csv"
    write_csv(path, HEADER, arr)
    assert _read(path) == b"a,b,c,d,e\nNaN,Infinity,-Infinity,0.5,-0\n"


def test_list_rows_with_int_and_bool_cells(tmp_path):
    # the shape of the scan subcommand's rows: an int count and a NaN value
    rows = [[0.125, -1e-3, 2.5e-17, 1, 0.0, float("nan")],
            [1.0, 3.0, -2, 0, 1.0, -0.25]]
    path = tmp_path / "rows.csv"
    write_csv(path, ["x", "p", "q", "n", "f", "w"], rows)
    assert _read(path) == (b"x,p,q,n,f,w\n"
                           b"0.125,-0.001,2.4999999999999999e-17,1,0,NaN\n"
                           b"1,3,-2,0,1,-0.25\n")


def test_non_finite_value_in_a_later_block(tmp_path):
    # past CSV_BLOCK rows of finite values, one -inf
    arr = np.full((CSV_BLOCK + 2, 5), 0.5)
    arr[CSV_BLOCK + 1, 2] = -np.inf
    block, cells = _both_paths(tmp_path, arr)
    assert block == cells
    assert block.splitlines()[-1] == b"0.5,0.5,-Infinity,0.5,0.5"


def test_column_turning_distinct_mid_file_matches_cells(tmp_path):
    # column a repeats 7 values in its first CSV_BLOCK rows, takes a fresh
    # value per row in the next and repeats one value in the last: a column
    # that changes its character mid-file keeps the per-cell bytes
    n = 3 * CSV_BLOCK
    rows = np.arange(n)
    arr = np.column_stack([
        np.where(rows < CSV_BLOCK, (rows % 7) / 3.0, rows / 7.0),
        (rows % 11) * 0.1,
        np.full(n, -2.5),
        rows // CSV_BLOCK * 1e-17,
        np.sqrt(rows + 0.5),
    ])
    arr[2 * CSV_BLOCK:, 0] = 1.0 / 3.0
    block, cells = _both_paths(tmp_path, arr)
    assert block == cells


def test_signed_zeros_stay_apart(tmp_path):
    arr = np.zeros((2 * CSV_BLOCK + 1, 5))
    arr[::2, 1] = -0.0
    arr[:, 3] = -0.0
    block, cells = _both_paths(tmp_path, arr)
    assert block == cells
    lines = block.splitlines()
    assert lines[1] == b"0,-0,0,-0,0"
    assert lines[2] == b"0,0,0,-0,0"


def test_repeated_non_finite_values_match_cells(tmp_path):
    n = CSV_BLOCK + 9
    arr = np.tile(np.array([np.nan, np.inf, -np.inf, 1.5])[:, None], ((n + 3) // 4, 5))[:n]
    arr[:, 4] = np.arange(n) / 3.0
    block, cells = _both_paths(tmp_path, arr)
    assert block == cells
    assert block.splitlines()[1:5] == [
        b"NaN,NaN,NaN,NaN,0",
        b"Infinity,Infinity,Infinity,Infinity,0.33333333333333331",
        b"-Infinity,-Infinity,-Infinity,-Infinity,0.66666666666666663",
        b"1.5,1.5,1.5,1.5,1",
    ]


def test_multi_panel_scan_csv_matches_cells(tmp_path):
    spec = MinorScanSpec(which="alpha2_minor4", step=0.05,
                         c_values=(0j, complex(-0.0, 0.5), 1 - 1j))
    path = tmp_path / "scan.csv"
    res = scan(spec)
    cli._write_grid(str(path), res)
    assert len(res.samples) > 2 * CSV_BLOCK
    header = ["re_b", "im_b", "re_c", "im_c", "value"]
    assert _read(path) == _sig17_csv(header, res.samples.tolist())


GRID_HEADER = ["re_b", "im_b", "re_c", "im_c", "value"]


@pytest.mark.parametrize("kwargs", [
    # one re_b point; im_b stops at 0.8, short of 1.05
    {"which": "F", "re_range": (0.5, 0.5), "im_range": (-1.0, 1.05), "step": 0.3},
    # re_b stops at 0.6, short of 1; one im_b point
    {"which": "alpha2_minor4", "re_range": (0.0, 1.0), "im_range": (0.0, 0.0), "step": 0.6},
    {"which": "alpha1_psd", "step": 0.25, "c_values": (1 + 1j,)},
    {"which": "G", "step": 0.5,
     "c_values": (complex(-0.0, 0.5), complex(1.0, -0.0), complex(-0.0, -0.0), 0j)},
    # 6001 im_b points: several line templates per run, on two c panels
    {"which": "alpha2_minor4", "re_range": (0.0, 0.002), "im_range": (-3.0, 3.0),
     "step": 0.001, "c_values": (0j, 1j)},
], ids=["single_re_point", "axis_short_of_hi", "alpha1_psd", "signed_zero_panels",
        "im_axis_past_csv_block"])
def test_grid_writer_matches_cells(tmp_path, kwargs):
    path = tmp_path / "grid.csv"
    res = scan(MinorScanSpec(**kwargs))
    cli._write_grid(str(path), res)
    assert _read(path) == _sig17_csv(GRID_HEADER, res.samples.tolist())


def test_grid_writer_matches_cells_on_edge_values(tmp_path):
    rng = np.random.default_rng(7)
    re_axis = np.array([-1.7976931348623157e308, 0.0, 5e-324, 0.1, 1e17])
    im_axis = np.array([-3.0, 1.0 / 3.0, 2.5e-17])
    c_values = (complex(-0.0, 1e-300), complex(1e300, -0.0))
    n = len(re_axis) * len(im_axis) * len(c_values)
    values = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
    values[:2] = [-0.0, 0.0]
    write_grid_csv(tmp_path / "grid.csv", GRID_HEADER, re_axis, im_axis, c_values, values)
    rows = [[b, i, c.real, c.imag, 0.0] for c in c_values for b in re_axis for i in im_axis]
    for row, v in zip(rows, values.tolist()):
        row[4] = v
    block = _read(tmp_path / "grid.csv")
    assert block == _sig17_csv(GRID_HEADER, rows)
    assert block.splitlines()[1] == b"-1.7976931348623157e+308,-3,-0,1e-300,-0"


def test_write_grid_csv_memory_stays_below_one_column(tmp_path):
    # a 632 x 633 grid: the writer holds its line templates and one run,
    # never a copy of the value column (3.2 MB)
    re_axis, im_axis = -3.0 + 0.01 * np.arange(632), -3.0 + 0.01 * np.arange(633)
    values = np.sin(np.arange(len(re_axis) * len(im_axis)))
    tracemalloc.start()
    try:
        write_grid_csv(tmp_path / "big.csv", GRID_HEADER, re_axis, im_axis, (0.5 - 1.5j,), values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < values.nbytes
    assert _read(tmp_path / "big.csv").count(b"\n") == len(values) + 1


def _assert_kernel_matches_percent_g(values):
    values = np.asarray(values, dtype=np.float64)
    assert _sig17_block(values) == [b"%.17g" % v for v in values.tolist()]


def test_kernel_matches_percent_g_on_seeded_doubles():
    rng = np.random.default_rng(11)
    # the whole finite range, and the exact domain 1e-4 <= |x| < 1e17 with a decade on each side
    wide = 10.0 ** rng.uniform(-321, 307, 20000) * rng.uniform(1, 10, 20000)
    domain = 10.0 ** rng.uniform(-5, 18, 100000)
    values = np.concatenate([wide, domain])
    _assert_kernel_matches_percent_g(values * rng.choice([-1.0, 1.0], values.size))


def test_kernel_matches_percent_g_on_zeros_subnormals_and_powers_of_ten():
    subnormals = [5e-324, 1e-320, 2.2250738585072009e-308, 2.2250738585072014e-308]
    powers = np.array([float(f"1e{k}") for k in range(-25, 26)])
    edges = [1e-4, np.nextafter(1e-4, 0), 1e16, np.nextafter(1e16, 0), 99999999999999999.0,
             np.nextafter(1e17, 0), 1e17, np.nextafter(1e17, np.inf)]
    values = np.concatenate([[0.0], subnormals, powers, np.nextafter(powers, 0),
                             np.nextafter(powers, np.inf), edges])
    _assert_kernel_matches_percent_g(np.concatenate([values, -values]))
    assert _sig17_block([99999999999999999.0, -0.0, 1e-4, 0.5]) == [
        b"1e+17", b"-0", b"0.0001", b"0.5"]


def test_kernel_rounds_18_digit_ties_half_even():
    # 1e15 + k + 0.25 is exact, and its 18th digit is a 5: the kept digit
    # 2 stays, while + 0.75 rounds the odd 7 up to 8; the same one decade down
    k = np.arange(30000, dtype=np.float64)
    ties = np.concatenate([1e15 + k + 0.25, 1e15 + k + 0.75, 1e14 + k + 0.125, 1e14 + k + 0.375])
    _assert_kernel_matches_percent_g(np.concatenate([ties, -ties]))
    assert _sig17_block([1e15 + 0.25, 1e15 + 0.75]) == [b"1000000000000000.2", b"1000000000000000.8"]


def _digits17(text: bytes) -> int:
    """The 17-digit integer N of a "%.17g" text in fixed notation."""
    return int(text.lstrip(b"-").replace(b".", b"").lstrip(b"0").ljust(17, b"0"))


# the digit groups the split forms: digits 0-8 and 9-16 (its halves), then
# 1-4, 5-8, 9-12 and 13-16 (its four-digit groups)
DIGIT_SPLIT_EDGES = {
    "N = 10**16": lambda n: n == 10 ** 16,
    "N = 10**17 - 1": lambda n: n == 10 ** 17 - 1,
    "high half 10**8": lambda n: n // 10 ** 8 == 10 ** 8,
    "high half 10**9 - 1": lambda n: n // 10 ** 8 == 10 ** 9 - 1,
    "low half 0": lambda n: n % 10 ** 8 == 0,
    "low half 10**8 - 1": lambda n: n % 10 ** 8 == 10 ** 8 - 1,
    **{f"group {g} is {v:04d}": (lambda n, g=g, v=v: n // 10 ** (12 - 4 * g) % 10 ** 4 == v)
       for g in range(4) for v in (0, 9999)},
}


def _digit_split_targets(rng):
    """17-digit integers with every edge of DIGIT_SPLIT_EDGES, the others
    filled with seeded random digits."""
    targets = [10 ** 16, 10 ** 17 - 1]
    for _ in range(12):
        hi, lo = int(rng.integers(10 ** 8, 10 ** 9)), int(rng.integers(0, 10 ** 8))
        targets += [10 ** 16 + lo, (10 ** 9 - 1) * 10 ** 8 + lo, hi * 10 ** 8,
                    hi * 10 ** 8 + 10 ** 8 - 1]
        for g in range(4):
            for v in (0, 9999):
                n = hi * 10 ** 8 + lo
                scale = 10 ** (12 - 4 * g)
                targets.append(n - (n // scale % 10 ** 4 - v) * scale)
    return targets


def test_digit_split_pins_every_group_edge():
    # rows "-0." + the 17 digits, as "%017d" spells them, for every edge;
    # N = 10**17 - 1 is the digits of no double in the exact domain, so it
    # is pinned here, on the integers themselves
    targets = _digit_split_targets(np.random.default_rng(61))
    assert all(any(edge(n) for n in targets) for edge in DIGIT_SPLIT_EDGES.values())
    rows = _digit_words(np.array(targets, dtype=np.int64)).view("S24").ravel().tolist()
    assert rows == [b"-0.%017d" % n for n in targets]


def test_kernel_matches_percent_g_on_digit_split_edges():
    # the double nearest N * 10**(E - 16), kept when "%.17g" writes the
    # digits N, for each E of the exact domain: every edge that a double
    # reaches, with both signs
    targets = _digit_split_targets(np.random.default_rng(67))
    values = []
    for n in targets:
        for e in range(-4, 17):
            v = float(Fraction(n) * Fraction(10) ** (e - 16))
            if v < 1e17 and _digits17(b"%.17g" % v) == n:
                values.append(v)
    reached = {name for name, edge in DIGIT_SPLIT_EDGES.items()
               if any(edge(_digits17(b"%.17g" % v)) for v in values)}
    assert reached == set(DIGIT_SPLIT_EDGES) - {"N = 10**17 - 1"}
    _assert_kernel_matches_percent_g(np.concatenate([values, np.negative(values)]))


@pytest.mark.parametrize("direction", [-np.inf, np.inf], ids=["low", "high"])
def test_kernel_survives_a_log10_one_ulp_off(monkeypatch, direction):
    # the exponent from log10 is checked against the exact product, so a
    # libm whose log10 misses by one ulp changes no byte
    exact = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(exact(a), direction))
    powers = np.array([float(f"1e{k}") for k in range(-4, 17)])
    values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
                             3 * powers, [np.nextafter(1e17, 0)]])
    _assert_kernel_matches_percent_g(np.concatenate([values, -values]))


def test_kernel_spells_non_finite_values_as_sig17():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        texts = _sig17_block(np.array([np.nan, np.inf, -np.inf, 0.0, 1e300, 2.5]))
    assert texts == [b"NaN", b"Infinity", b"-Infinity", b"0", b"1.0000000000000001e+300", b"2.5"]


def test_grid_writer_mixes_kernel_and_per_value_texts_across_blocks(tmp_path):
    # values outside the exact domain inside the first block and on both
    # sides of the boundary between the first two blocks
    re_axis, im_axis = np.array([-0.5, 0.0, 2.0]), np.linspace(-1.0, 1.0, CSV_BLOCK + 5)
    rng = np.random.default_rng(3)
    values = rng.uniform(-2.0, 2.0, len(re_axis) * len(im_axis))
    odd = [0.0, -0.0, 3e-5, -1e-300, 1e17, -2.5e20, 5e-324]
    values[5:5 + len(odd)] = odd
    values[CSV_BLOCK - 3:CSV_BLOCK + 4] = odd
    write_grid_csv(tmp_path / "grid.csv", GRID_HEADER, re_axis, im_axis, (1 - 0.25j,), values)
    rows = [[b, i, 1.0, -0.25, v] for (b, i), v in
            zip(((b, i) for b in re_axis.tolist() for i in im_axis.tolist()), values.tolist())]
    assert _read(tmp_path / "grid.csv") == _sig17_csv(GRID_HEADER, rows)


@pytest.mark.parametrize("count", [3, 7])
def test_grid_writer_rejects_a_value_column_of_the_wrong_length(tmp_path, count):
    path = tmp_path / "grid.csv"
    with pytest.raises(ValueError, match=f"{count} values for a 2 x 2 grid on 1 c values"):
        write_grid_csv(path, GRID_HEADER, np.array([0.0, 1.0]), np.array([0.0, 1.0]), (0j,),
                       np.arange(count, dtype=float))
    assert not path.exists()


def test_grid_writer_spells_non_finite_values_as_write_csv(tmp_path):
    re_axis, im_axis = np.array([0.0, 1.0]), np.array([-1.0, 0.5])
    values = np.array([np.nan, np.inf, -np.inf, 0.25])
    write_grid_csv(tmp_path / "grid.csv", GRID_HEADER, re_axis, im_axis, (2j,), values)
    rows = [[b, i, 0.0, 2.0, v] for (b, i), v in
            zip(((b, i) for b in re_axis for i in im_axis), values.tolist())]
    write_csv(tmp_path / "table.csv", GRID_HEADER, rows)
    assert _read(tmp_path / "grid.csv") == _read(tmp_path / "table.csv")
    assert _read(tmp_path / "grid.csv").splitlines()[1:3] == [b"0,-1,0,2,NaN", b"0,0.5,0,2,Infinity"]


def test_json_layout(capsys):
    # the layout of every --json payload, as cli._emit prints it
    payload = {
        "empty_dict": {}, "empty_list": [], "rows": [[1, 0.5], [-2.0, 1e-300]],
        "nested": {"a": {"b": [True, None]}}, "text": 'say "hi" \\ \x01', "flag": True,
        "none": None, "int": 7, "float": 0.1, "nan": math.nan, "inf": math.inf,
        "minus_inf": -math.inf, "tuple": (3,),
    }
    expected = r'''{
  "empty_dict": {},
  "empty_list": [],
  "rows": [
    [
      1,
      0.5
    ],
    [
      -2,
      1e-300
    ]
  ],
  "nested": {
    "a": {
      "b": [
        true,
        null
      ]
    }
  },
  "text": "say \"hi\" \\ \u0001",
  "flag": true,
  "none": null,
  "int": 7,
  "float": 0.10000000000000001,
  "nan": NaN,
  "inf": Infinity,
  "minus_inf": -Infinity,
  "tuple": [
    3
  ]
}'''
    cli._emit(SimpleNamespace(json=True), payload, "")
    assert capsys.readouterr().out == expected + "\n"


@pytest.mark.parametrize("value, message", [
    ({"z": [1j]}, "encode complex values as"),
    ({"s": {1}}, "unsupported scalar"),
], ids=["complex", "unsupported_type"])
def test_json_rejects_values_without_a_json_spelling(value, message):
    with pytest.raises(TypeError, match=message):
        json_dumps(value)
