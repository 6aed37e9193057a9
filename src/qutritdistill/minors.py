"""Positivity scans of projection-compressed partial transposes at x = 1/7.

The state under test is the fifth family member at x = 1/7, moved to the
frame K (x) conj(K) before the partial transpose, with
K = [[1, i], [1, -i]]/sqrt2 on levels 0 and 1 and level 2 untouched: K acts
on the first qutrit and its complex conjugate on the second. The choice
matters: under K (x) K the 4th leading minor of form 2 at the origin is
72/5531904 instead of 640/5531904. distill's two row families compress it
to a 6x6 matrix:

    form 1:  P1a, rows (1, a, 0) and (0, 0, 1)
    form 2:  P2bc, rows (1, 0, b) and (0, 1, c)

Both the rows and the compression are defined in distill. build_projected
returns one compression, the per-point reference; scan, psd_scan_form1 and
cross_check go through distill's chunked path with the bases cached per
(x, form): each chunk holds only the leading k x k blocks the requested
minor needs, and is reduced by det or eigvalsh into one preallocated value
column.

For form 2 the objects of interest are the 4th, 5th and 6th leading principal
minors of the compressed matrix; their positivity over all complex (b, c) is
the evidence that no such compression turns negative. F and G are the 5th
minor and determinant times the fixed integers SCALE_F and SCALE_G, so that
their grid minima at c = 0 land in the window [1, 10]; the scale follows
from the target alone and cannot be set. GridScan.passed asks a positive
minimum of every minor, on any c panel. For form 1 it asks the smallest
eigenvalue at each a to stay above the roundoff floor _psd_floor(a).

eval_closed_form evaluates exact closed forms of the three minors, valid at
x = 1/7 only: integer polynomials in |b|^2, |c|^2 and Re(bc) over the DEN_*
denominators. certify_positive proves a table positive for every complex
(b, c) in exact rational arithmetic; all three tables pass, which settles
the sign of these minors at x = 1/7 where a grid can only sample it.
eval_printed_form keeps the polynomials as printed in the source analysis;
they are not minors of this compression (constant terms 737, 2680 and 24120
against 640, 1280 and 11520, and non-real values off the real (b, c)
slice). cross_check compares either set against directly
computed minors at x = 1/7, as deviations relative to the direct value,
and reports them instead of correcting either side. It evaluates the
exact set in one array pass over the grid, bitwise equal to
eval_closed_form point by point, and the printed set point by point,
since each non-real printed value is reported on its own.

A MinorScanSpec axis runs lo, lo + step, ... up to its last point <= hi,
and a spec of more than MAX_GRID_POINTS points is rejected when made.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Optional, Sequence

import numpy as np

from . import distill, linalg, states
# write_csv is unused here, but perfbench/tests checks the tracer rebinds it
from ._fmt import complex_pair, write_csv, write_grid_csv  # noqa: F401

UNDISTILLABLE_X = 1.0 / 7.0

CROSS_TOL = 1e-9  # largest relative deviation a cross_check passes
CROSS_LOGGED = 20  # worst points a cross_check report lists
MAX_GRID_POINTS = 4_000_000  # points of a MinorScanSpec, over every c panel
AXIS_TOL = 1e-9  # relative slack of (hi - lo) / step before an axis ends

DEN_MINOR4 = 5531904
DEN_MINOR5 = 464679936
DEN_DET = 39033114624

SCALE_F = 1075648  # applied to the 5th leading principal minor
SCALE_G = 7529536  # applied to the determinant

WHICH_TOKENS = ("alpha1_psd", "alpha2_minor4", "alpha2_minor5", "alpha2_det", "F", "G")

_BLOCK = {"alpha2_minor4": 4, "alpha2_minor5": 5, "alpha2_det": 6, "F": 5, "G": 6}
_FORMS = {1: distill.FORM_P1A, 2: distill.FORM_P2BC}
_AUTO_SCALE = {"F": float(SCALE_F), "G": float(SCALE_G)}


# --- frame and compression ---------------------------------------------------


def mixed_frame_state(x: float = UNDISTILLABLE_X) -> states.QutritState:
    state = states.build_family("v", x)
    k = states.phase_mix_on_01()
    op = states.LocalOperator(k, k.conj())
    return states.from_density(states.apply_local(state, op), case_id="v", x=x)


@lru_cache(maxsize=32)
def _mixed_frame_pt(x: float) -> np.ndarray:
    """Partial transpose of the frame-rotated fifth-family state."""
    return linalg.partial_transpose(mixed_frame_state(x).rho)


@lru_cache(maxsize=32)
def _bases(x: float, form: str) -> list:
    return distill.compression_bases(_mixed_frame_pt(x), form)


def _check_x(x: float) -> None:
    if not (0.0 < x < 1.0):
        raise states.OutOfRange(f"x must lie in (0, 1), got {x}")


def build_projected(form_id: int, params, x: float = UNDISTILLABLE_X) -> np.ndarray:
    """6x6 Hermitian compression of the partial transpose in the mixed frame
    by the chosen row family; params is a or (a,) for form 1, (b, c) for 2.
    A non-finite result raises distill.NonFiniteValue, without a RuntimeWarning."""
    _check_x(x)
    form = _FORMS.get(form_id)
    if form is None:
        raise ValueError(f"unknown form_id {form_id}; expected 1 or 2")
    values = (params,) if np.isscalar(params) else tuple(params)
    with np.errstate(over="ignore", invalid="ignore"):
        out = distill.projected_matrix(_mixed_frame_pt(float(x)), distill.family_rows(form, values))
        sym = 0.5 * (out + out.conj().T)
    if not np.isfinite(sym).all():
        raise distill.NonFiniteValue(f"the form {form_id} compression at {values} is not finite")
    linalg.check_hermitian(out)
    return sym


def _values(which: str, b: np.ndarray, c: np.ndarray, x: float) -> np.ndarray:
    """scan()'s value column at the points of the complex arrays b and c:
    the smallest eigenvalue of form 1 for alpha1_psd (b carries a, c is
    unused), else the leading minor of form 2 `which` names, times SCALE_F
    for F and SCALE_G for G.
    The compressions arrive from distill in chunks of (m, k, k) leading
    blocks and are reduced into one preallocated column. A value that
    overflows comes out inf or NaN without a RuntimeWarning; scan rejects
    it."""
    if which == "alpha1_psd":
        form, params, k = distill.FORM_P1A, (b,), 6
    else:
        form, params, k = distill.FORM_P2BC, (b, c), _BLOCK[which]
    scale = _AUTO_SCALE.get(which, 1.0)
    out = np.empty(len(b))
    start = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for alphas in distill.compression_chunks(_bases(float(x), form), params, k):
            stop = start + len(alphas)
            if which == "alpha1_psd":
                out[start:stop] = np.linalg.eigvalsh(alphas)[:, 0]
            else:
                out[start:stop] = np.linalg.det(alphas).real * scale
            start = stop
    return out


# --- closed forms ------------------------------------------------------------


# DEN * minor = sum of coef * |b|^(2i) * |c|^(2j) * Re(bc)^k over the
# (i, j, k): coef entries, exact at x = 1/7. The test suite rebuilds the
# compression in Gaussian-rational arithmetic and checks these tables.
CLOSED_FORMS = {
    "minor4": (DEN_MINOR4, {
        (0, 0, 0): 640, (1, 0, 0): 2628, (0, 1, 0): 260, (0, 0, 1): 256,
        (2, 0, 0): 1264, (1, 1, 0): 256, (1, 0, 1): 144, (2, 1, 0): 144,
        (3, 0, 0): 567,
    }),
    "minor5": (DEN_MINOR5, {
        (0, 0, 0): 1280, (1, 0, 0): 5256, (0, 1, 0): 6280, (0, 0, 1): 512,
        (2, 0, 0): 2528, (1, 1, 0): 21248, (0, 2, 0): 2340, (1, 0, 1): 288,
        (0, 1, 1): 2304, (3, 0, 0): 1134, (1, 2, 0): 1134,
    }),
    "det": (DEN_DET, {
        (0, 0, 0): 11520, (1, 0, 0): 46152, (0, 1, 0): 46152, (0, 0, 1): 9216,
        (2, 0, 0): 18144, (1, 1, 0): 156636, (0, 2, 0): 18144, (1, 0, 1): 18720,
        (0, 1, 1): 18720, (3, 0, 0): 8190, (2, 1, 0): 8190, (1, 2, 0): 8190,
        (0, 3, 0): 8190,
    }),
}


def eval_closed_form(which: str, b: complex, c: complex) -> float:
    """Exact 4th ("minor4"), 5th ("minor5") or 6th ("det") leading principal
    minor of build_projected(2, (b, c)) at x = 1/7, from CLOSED_FORMS.

    The value is real for every complex (b, c), since it depends on b and c
    only through |b|^2, |c|^2 and Re(bc). It does not hold at other x.
    """
    return float(_closed_form(which, complex(b), complex(c)))


def _closed_form(which: str, b, c):
    """eval_closed_form at complex scalars or at equal-shape complex arrays
    b and c. Both take the same IEEE operations in the same order, so an
    array pass is bitwise equal to per-point calls: Re(bc) is spelled out as
    b.real * c.real - b.imag * c.imag, and the terms are added left to
    right, never by the compensated float sum of newer Pythons."""
    if which not in CLOSED_FORMS:
        raise ValueError(f"unknown closed form {which!r}; expected minor4, minor5 or det")
    den, terms = CLOSED_FORMS[which]
    p = b.real * b.real + b.imag * b.imag
    q = c.real * c.real + c.imag * c.imag
    r = b.real * c.real - b.imag * c.imag
    ps = (1.0, p, p * p, p * p * p)
    qs = (1.0, q, q * q, q * q * q)
    rs = (1.0, r)
    total = 0.0
    for (i, j, k), coef in terms.items():
        total = total + coef * ps[i] * qs[j] * rs[k]
    return total / den


def certify_positive(terms: dict) -> bool:
    """Exact proof that sum of coef * p^i * q^j * r^k over the (i, j, k):
    coef entries of a CLOSED_FORMS table is positive whenever p = |b|^2,
    q = |c|^2 and r = Re(bc) for some complex (b, c).

    Since |Re(bc)| <= |b||c| <= (p + q)/2, each term with k >= 1 is at least
    -|coef| p^i q^j ((p + q)/2)^k. The bound is a polynomial in p, q >= 0
    alone, so a positive constant term and no negative coefficient prove the
    claim. Arithmetic is in fractions.Fraction; False means "not proved",
    not "negative somewhere"."""
    bound: dict = {}
    for (i, j, k), coef in terms.items():
        if k == 0:
            bound[i, j] = bound.get((i, j), 0) + Fraction(coef)
            continue
        for t in range(k + 1):  # -|coef| p^i q^j ((p + q)/2)^k, binomially
            key = (i + t, j + k - t)
            bound[key] = bound.get(key, 0) - Fraction(abs(coef) * comb(k, t), 2 ** k)
    return bound.get((0, 0), 0) > 0 and all(v >= 0 for v in bound.values())


def eval_printed_form(which: str, b: complex, c: complex) -> float:
    """Evaluate one of the closed-form minors as printed in the source
    analysis at (b, c).

    These are not the minors of build_projected (see eval_closed_form); they
    are kept so that their mismatch stays measurable. The polynomials mix b^2
    with conj(b)^2 terms and are kept exactly as printed; the deeply nested
    sum in the determinant is grouped by balanced parentheses, the reading
    pinned by the constant term 9*536*5 over the common denominator. Raises
    linalg.NonRealMinor when the result has a non-negligible imaginary part
    instead of silently dropping it: principal minors of a Hermitian matrix
    are real, so that signals a transcription problem in the polynomial.
    """
    b = complex(b)
    c = complex(c)
    bb = b.conjugate()
    cc = c.conjugate()
    ab2 = (b * bb).real  # |b|^2
    ac2 = (c * cc).real  # |c|^2

    if which == "minor4":
        val = (
            737
            + 268 * b**2
            + 648 * ab2**3
            + 715 * ac2
            + ab2**2 * (1184 + 63 * ac2)
            + bb * (b * (1427 + 324 * b**2) + 4 * bb * (67 + 81 * ab2) + 778 * b * ac2)
        ) / DEN_MINOR4
    elif which == "minor5":
        val = (
            536 * (5 + b**2)
            + ab2 * (8533 + 648 * b**2 - 504 * c**2)
            + 9 * ac2**2 * (715 + 63 * ab2)
            + bb**2 * (536 + 6868 * b**2 + 4095 * c**2 + 81 * ab2 * (8 + 7 * b**2 - 7 * c**2))
            + ac2 * (9233 + 2412 * b**2 + 4788 * ab2**2 + 7388 * ab2 + 2412 * bb**2)
            - 18 * b * (-65 * b + 9 * b * ab2 + 8 * bb) * cc**2
        ) / DEN_MINOR5
    elif which == "det":
        val = (
            585 * b * (8 + 7 * b**2 - 7 * c**2) * bb**3
            + bb**2 * (4824 + 50436 * b**2 + 30647 * c**2 - 65 * ac2 * (-212 - 595 * b**2 + 63 * c**2))
            + ab2 * (
                71037
                + 4680 * b**2
                + 13780 * c**2
                + 38675 * ac2**2
                + 56293 * ac2
                - 1170 * (-14 + b**2) * cc**2
            )
            + 9 * (
                536 * (5 + b**2 + c**2)
                + cc * (
                    c * (7893 + 1820 * b**2 + 520 * c**2)
                    + cc * (536 + 1058 * b**2 + 5604 * c**2 + 65 * ac2 * (8 - 2 * b**2 + 7 * c**2))
                )
            )
        ) / DEN_DET
    else:
        raise ValueError(f"unknown closed form {which!r}; expected minor4, minor5 or det")

    val = complex(val)
    if abs(val.imag) > 1e-10 * max(1.0, abs(val)):
        raise linalg.NonRealMinor(
            f"{which} at b={b}, c={c} evaluated to {val}; imaginary residue too large"
        )
    return float(val.real)


@dataclass
class CrossCheckReport:
    which: str
    n_points: int
    max_rel_dev: float
    passed: bool
    worst: list
    non_real: list

    def to_json(self) -> dict:
        return asdict(self)


def cross_check(which: str, grid: Sequence[tuple], printed: bool = False) -> CrossCheckReport:
    """Compare a closed-form minor against the directly computed one at
    x = 1/7 over a grid of (b, c) pairs. Deviations are reported, never
    raised; points where the closed form fails to be real are collected
    separately. The check passes when no deviation exceeds CROSS_TOL, and
    the report lists up to CROSS_LOGGED of the worst points beyond it.

    printed=True checks the source's printed polynomials (eval_printed_form)
    instead of the exact ones. Each deviation is |closed - direct| / |direct|,
    infinite where only the direct value is zero."""
    if which not in CLOSED_FORMS:
        raise ValueError(f"unknown closed form {which!r}")
    points = np.array(grid, dtype=complex).reshape(-1, 2)
    directs = _values("alpha2_" + which, points[:, 0], points[:, 1], UNDISTILLABLE_X)
    non_real = []
    if printed:  # per point, to report each non-real value
        kept, closed = [], []
        for idx, (b, c) in enumerate(points.tolist()):
            try:
                closed.append(eval_printed_form(which, b, c))
                kept.append(idx)
            except linalg.NonRealMinor as exc:
                non_real.append({"b": complex_pair(b), "c": complex_pair(c), "error": str(exc)})
        points, directs, closed = points[kept], directs[kept], np.array(closed)
    else:
        closed = _closed_form(which, points[:, 0], points[:, 1])
    err = np.abs(closed - directs)
    with np.errstate(divide="ignore", invalid="ignore"):
        devs = np.where(directs != 0.0, err / np.abs(directs), np.where(err == 0.0, 0.0, np.inf))
    order = np.argsort(-devs, kind="stable")
    max_dev = float(devs[order[0]]) if len(order) else 0.0
    worst = [
        {
            "b": complex_pair(complex(points[t, 0])), "c": complex_pair(complex(points[t, 1])),
            "closed": float(closed[t]), "direct": float(directs[t]), "deviation": float(devs[t]),
        }
        for t in order[:CROSS_LOGGED].tolist()
        if devs[t] > CROSS_TOL
    ]
    return CrossCheckReport(
        which=which,
        n_points=len(devs) + len(non_real),
        max_rel_dev=max_dev,
        passed=(max_dev <= CROSS_TOL) and not non_real,
        worst=worst,
        non_real=non_real,
    )


# --- grids -------------------------------------------------------------------


def _psd_floor(a):
    """-1e-10 (1 + |a|^2), the least form-1 eigenvalue at a that counts as
    PSD: the rows have squared norm 1 + |a|^2, and roundoff grows with it."""
    return -1e-10 * (1.0 + abs(a) ** 2)


def default_a_grid() -> list:
    """|a| over 20 log-spaced magnitudes in [1e-2, 1e2] x 24 phases, plus 0."""
    out = [0j]
    mags = np.logspace(-2, 2, 20)
    for m in mags:
        for p in range(24):
            out.append(m * np.exp(2j * np.pi * p / 24))
    return out


def _axis_length(lo: float, hi: float, step: float) -> float:
    """Points of the axis lo, lo + step, ... up to the last one <= hi,
    allowing a relative AXIS_TOL so that 6 / 0.05 = 119.99999999999999
    still ends at lo + 120 step; inf when hi - lo overflows."""
    return float(np.floor((hi - lo) / step * (1.0 + AXIS_TOL))) + 1.0


def default_real_bc_grid(step: float = 0.2) -> list:
    """The real (b, c) points of the MinorScanSpec axis on [-2, 2] at step."""
    vals = -2.0 + step * np.arange(int(_axis_length(-2.0, 2.0, step)))
    return [(complex(bv), complex(cv)) for bv in vals for cv in vals]


@dataclass
class MinorScanSpec:
    which: str
    re_range: tuple = (-3.0, 3.0)
    im_range: tuple = (-3.0, 3.0)
    step: float = 0.05
    c_values: tuple = (0j,)
    x: float = UNDISTILLABLE_X

    def __post_init__(self):
        if self.which not in WHICH_TOKENS:
            raise ValueError(f"unknown scan target {self.which!r}; expected one of {WHICH_TOKENS}")
        _check_x(self.x)
        if not np.isfinite([*self.re_range, *self.im_range, self.step]).all():
            raise ValueError("grid ranges and step must be finite")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.re_range[1] < self.re_range[0] or self.im_range[1] < self.im_range[0]:
            raise ValueError("empty grid range")
        if not self.c_values:
            raise ValueError("need at least one c value")
        if not np.isfinite(np.array(self.c_values, dtype=complex)).all():
            raise ValueError("c values must be finite")
        points = (_axis_length(*self.re_range, self.step) * _axis_length(*self.im_range, self.step)
                  * len(self.c_values))
        if points > MAX_GRID_POINTS:
            raise ValueError(f"grid exceeds {MAX_GRID_POINTS} points (re_b x im_b x c values)")

    @property
    def scale(self) -> float:
        """SCALE_F for F, SCALE_G for G, 1 otherwise; set by which alone."""
        return _AUTO_SCALE.get(self.which, 1.0)

    def axis(self, which_axis: str) -> np.ndarray:
        lo, hi = self.re_range if which_axis == "re" else self.im_range
        return lo + self.step * np.arange(int(_axis_length(lo, hi, self.step)))

    def to_json(self) -> dict:
        return {
            "re_range": [self.re_range[0], self.re_range[1]],
            "im_range": [self.im_range[0], self.im_range[1]],
            "step": self.step,
            "c_values": [complex_pair(complex(c)) for c in self.c_values],
            "x": self.x,
        }


@dataclass
class GridScan:
    spec: MinorScanSpec
    samples: np.ndarray  # rows: re_b, im_b, re_c, im_c, value
    min_value: float
    argmin: tuple  # (b, c)

    def passed(self) -> bool:
        if self.spec.which == "alpha1_psd":
            a, values = self.samples[:, 0] + 1j * self.samples[:, 1], self.samples[:, 4]
            return bool(np.all(values >= _psd_floor(a)))
        return bool(self.min_value > 0.0)

    def to_json(self) -> dict:
        return {
            "which": self.spec.which,
            "scale": self.spec.scale,
            "min_value": self.min_value,
            "argmin": {"b": complex_pair(self.argmin[0]), "c": complex_pair(self.argmin[1])},
            "grid": self.spec.to_json(),
            "pass": self.passed(),
        }


def scan(spec: MinorScanSpec, out_csv: Optional[str] = None) -> GridScan:
    """Evaluate the chosen quantity over the grid. Rows are ordered by
    (c value, re_b, im_b); for alpha1_psd the b columns carry the a parameter
    and the value is the smallest eigenvalue on the six support rows."""
    re_axis = spec.axis("re")
    im_axis = spec.axis("im")
    bb, ii = np.meshgrid(re_axis, im_axis, indexing="ij")
    b_flat = (bb + 1j * ii).reshape(-1)
    rows = []
    best = (np.inf, 0j, 0j)
    for c_val in spec.c_values:
        c_val = complex(c_val)
        values = _values(spec.which, b_flat, np.full(b_flat.size, c_val), spec.x)
        if not np.all(np.isfinite(values)):
            raise distill.NonFiniteValue("non-finite value in grid scan")
        block = np.column_stack([
            b_flat.real, b_flat.imag,
            np.full(b_flat.size, c_val.real), np.full(b_flat.size, c_val.imag),
            values,
        ])
        rows.append(block)
        k = int(np.argmin(values))
        if values[k] < best[0]:
            best = (float(values[k]), complex(b_flat[k]), c_val)
    samples = np.vstack(rows)
    result = GridScan(spec=spec, samples=samples, min_value=best[0], argmin=(best[1], best[2]))
    if out_csv is not None:
        write_grid_csv(out_csv, ["re_b", "im_b", "re_c", "im_c", "value"],
                       re_axis, im_axis, spec.c_values, samples[:, 4])
    return result


def psd_scan_form1(a_grid: Optional[Sequence[complex]] = None,
                   x: float = UNDISTILLABLE_X) -> tuple[list, bool]:
    """Smallest eigenvalue of the form-1 compression per sampled a; a point
    is PSD when the eigenvalue is at least _psd_floor(a), and the overall
    verdict is PSD everywhere."""
    if a_grid is None:
        a_grid = default_a_grid()
    _check_x(x)
    values = _values("alpha1_psd", np.array(a_grid, dtype=complex), None, x)
    entries = [{"a": complex(a), "min_eigenvalue": v, "is_psd": v >= _psd_floor(complex(a))}
               for a, v in zip(a_grid, values.tolist())]
    return entries, all(e["is_psd"] for e in entries)
