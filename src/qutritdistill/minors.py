"""Positivity scans of projection-compressed partial transposes at x = 1/7:
the compressions (P x I) rho^Gamma (P x I)^dag by rank-two P whose
positivity is the Schmidt-rank-two criterion of DiVincenzo et al. (PRA 61,
062312, 2000) for resisting 1-distillation.

The state under test is the fifth family member at x = 1/7, moved to the
frame K (x) conj(K) before the partial transpose, with
K = [[1, i], [1, -i]]/sqrt2 on levels 0 and 1 and level 2 untouched: K acts
on the first qutrit and its complex conjugate on the second. The choice
matters: under K (x) K the 4th leading minor of form 2 at the origin is
72/5531904 instead of 640/5531904. Two row families (FAMILIES, keyed by
form id; family_rows sets one member), one per chart of the row spaces
they cover, compress it to a 6x6 matrix:

    form 1:  P1a, rows (1, a, 0) and (0, 0, 1): shear level 1 into 0, keep level 2
    form 2:  P2bc, rows (1, 0, b) and (0, 1, c): keep levels 0,1 with level-2 shears

build_projected returns one compression, the per-point reference.
scan, psd_scan_form1 and cross_check take the chunked path:
compression_bases splits a family's compression into blocks B_ij, and
compression_chunks sums, per entry of the leading k x k block, only the
terms whose base entry is nonzero, in chunks of (m, k, k) reduced by det
or eigvalsh into one preallocated value column. At x = 1/7 form 2 keeps
26 of 144 terms at k = 4, 36 of 225 at k = 5 and 52 of 324 at k = 6, and
form 1 31 of 144. Every bit is that of the dense sum; a parameter product
c_i conj(c_j) that overflows raises linalg.NonFiniteValue instead.

TARGETS gives each scan target its family, leading block size k and
scale. For form 2 the objects of interest are the 4th, 5th and 6th
leading principal minors; their positivity over all complex (b, c) is the
evidence that no such compression turns negative. F and G are the 5th
minor and determinant times the fixed integers SCALE_F and SCALE_G, so
that their grid minima at c = 0 land in the window [1, 10]; the scale
follows from the target alone and cannot be set. GridScan.passed asks a
positive minimum of every minor, on any c panel. For form 1 (alpha1_psd)
the value is the smallest eigenvalue of the whole compression, and a
point passes when it stays above the roundoff floor _psd_floor(a).

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
from math import comb
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import distill, linalg, states
# write_csv is unused here, but perfbench/tests checks the tracer rebinds it
from ._fmt import complex_pair, write_csv, write_grid_csv  # noqa: F401

UNDISTILLABLE_X = 1.0 / 7.0

CROSS_TOL = 1e-9  # largest relative deviation a cross_check passes
CROSS_LOGGED = 20  # worst points a cross_check report lists
MAX_GRID_POINTS = 4_000_000  # points of a MinorScanSpec, over every c panel
AXIS_TOL = 1e-9  # relative slack of (hi - lo) / step before an axis ends
CHUNK = 8192  # points per block of compression_chunks

DEN_MINOR4 = 5531904
DEN_MINOR5 = 464679936
DEN_DET = 39033114624

SCALE_F = 1075648  # applied to the 5th leading principal minor
SCALE_G = 7529536  # applied to the determinant


class RowFamily(NamedTuple):
    base: np.ndarray   # 2x3 rows R0 at all parameters zero
    slots: tuple       # (row, col) entry of R0 that each parameter sets


# Keyed by form id. Every member has rank two: the columns no slot touches
# hold a 2x2 identity.
FAMILIES = {
    1: RowFamily(np.array([[1, 0, 0], [0, 0, 1]], dtype=complex), ((0, 1),)),  # P1a
    2: RowFamily(np.array([[1, 0, 0], [0, 1, 0]], dtype=complex), ((0, 2), (1, 2))),  # P2bc
}


class ScanTarget(NamedTuple):
    form: int      # FAMILIES key
    k: int         # leading block size the value needs
    scale: float   # factor on the determinant; alpha1_psd takes no scale


TARGETS = {
    "alpha1_psd": ScanTarget(1, 6, 1.0),
    "alpha2_minor4": ScanTarget(2, 4, 1.0),
    "alpha2_minor5": ScanTarget(2, 5, 1.0),
    "alpha2_det": ScanTarget(2, 6, 1.0),
    "F": ScanTarget(2, 5, float(SCALE_F)),
    "G": ScanTarget(2, 6, float(SCALE_G)),
}
WHICH_TOKENS = tuple(TARGETS)


# --- frame and compression ---------------------------------------------------


def mixed_frame_state(x: float = UNDISTILLABLE_X) -> states.QutritState:
    state = states.build_family("v", x)
    k = states.phase_mix_on_01()
    op = states.LocalOperator(k, k.conj())
    return states.from_density(states.apply_local(state, op), case_id="v", x=x)


def _check_x(x: float) -> None:
    if not (0.0 < x < 1.0):
        raise states.OutOfRange(f"x must lie in (0, 1), got {x}")


def family_rows(form_id: int, values) -> np.ndarray:
    """The 2x3 rows of family FAMILIES[form_id] (KeyError for an unknown
    id) with its parameter values set, one per slot in order."""
    family = FAMILIES[form_id]
    if len(values) != len(family.slots):
        raise ValueError(f"form {form_id} takes {len(family.slots)} parameters, got {len(values)}")
    rows = family.base.copy()
    for slot, value in zip(family.slots, values):
        rows[slot] = complex(value)
    return rows


def compression_bases(g: np.ndarray, form_id: int) -> list:
    """Blocks B_ij = (P_i x I) g (P_j x I)^dag, with P_0 = R0 of family
    FAMILIES[form_id] and P_k the unit row matrix of its k-th parameter
    slot, so that the compression at parameters theta is
    sum_ij c_i conj(c_j) B_ij with c = (1, theta_1, ..., theta_k)."""
    family = FAMILIES[form_id]
    parts = [family.base]
    for slot in family.slots:
        unit = np.zeros((2, 3), dtype=complex)
        unit[slot] = 1
        parts.append(unit)
    rs = [linalg.kron_eye3(p) for p in parts]
    return [[ri @ g @ rj.conj().T for rj in rs] for ri in rs]


def compression_chunks(bases: list, params, k: int):
    """Compressions at n parameter points, yielded in order as chunks of
    shape (m, k, k) with m <= CHUNK: the leading k x k block of
    sum_ij c_i conj(c_j) B_ij at each point. params holds one length-n array
    per parameter of the family, in slot order; bases comes from
    compression_bases.

    Most entries of the leading blocks B_ij are exact zeros, so each entry
    (r, s) sums only its terms c_i conj(c_j) B_ij[r, s] with a nonzero
    B_ij[r, s], in (i, j) order, starting from +0. That is bitwise the dense
    sum over every (i, j): in round-to-nearest a sum that starts at +0 never
    becomes -0, and adding +0 or -0 to it changes nothing. Each term keeps
    the dense operand order, product times base entry. Each chunk is one
    contiguous (k, k, m) array, filled one entry (r, s) at a time over its m
    points, and yielded as its (m, k, k) transposed view.

    The skipped terms are only harmless while every product is finite: a
    dense sum turns an overflowed product into NaN through inf * 0, so a
    non-finite product raises linalg.NonFiniteValue, without a
    RuntimeWarning, before anything is summed.

    The products c_i conj(c_j) are formed once over all n points. From
    16384 points (256 KiB) on, numpy reuses the temporary conj(c_j) as the
    output of the product and swaps the operands, and its complex multiply
    is not bitwise commutative: products formed per chunk would change the
    last bits of large scans."""
    n = len(params[0])
    coefs = [np.ones(n)] + list(params)
    with np.errstate(over="ignore", invalid="ignore"):
        products = [[ci * cj.conj() for cj in coefs] for ci in coefs]
    if not all(np.isfinite(pij).all() for prow in products for pij in prow):
        raise linalg.NonFiniteValue("a parameter product c_i conj(c_j) is not finite")
    pairs = [(pij, bij) for prow, brow in zip(products, bases) for pij, bij in zip(prow, brow)]
    terms = [[(pij, bij[r, s]) for pij, bij in pairs if bij[r, s] != 0]
             for r in range(k) for s in range(k)]
    for start in range(0, n, CHUNK):
        stop = min(start + CHUNK, n)
        cols = np.zeros((k, k, stop - start), dtype=complex)
        for col, entry in zip(cols.reshape(k * k, -1), terms):
            for pij, brs in entry:
                col += pij[start:stop] * brs
        yield cols.transpose(2, 0, 1)


def build_projected(form_id: int, params, x: float = UNDISTILLABLE_X) -> np.ndarray:
    """6x6 Hermitian compression of the partial transpose in the mixed frame
    by the chosen row family; params is a or (a,) for form 1, (b, c) for 2.
    A non-finite result raises linalg.NonFiniteValue, without a
    RuntimeWarning."""
    _check_x(x)
    if form_id not in FAMILIES:
        raise ValueError(f"unknown form_id {form_id}; expected 1 or 2")
    values = (params,) if np.isscalar(params) else tuple(params)
    g = linalg.partial_transpose(mixed_frame_state(float(x)).rho)
    with np.errstate(over="ignore", invalid="ignore"):
        out = distill.projected_matrix(g, family_rows(form_id, values))
        sym = 0.5 * (out + out.conj().T)
    if not np.isfinite(sym).all():
        raise linalg.NonFiniteValue(f"the form {form_id} compression at {values} is not finite")
    linalg.check_hermitian(out)
    return sym


def _values(which: str, b: np.ndarray, c: np.ndarray, x: float) -> np.ndarray:
    """scan()'s value column at the points of the complex arrays b and c,
    for the target TARGETS[which]: the smallest eigenvalue of form 1 for
    alpha1_psd (b carries a, c is unused), else the leading k x k minor of
    form 2 times the target's scale.
    The compressions arrive from compression_chunks in (m, k, k) chunks and
    are reduced into one preallocated column. A value that overflows comes
    out inf or NaN without a RuntimeWarning; scan rejects it."""
    target = TARGETS[which]
    g = linalg.partial_transpose(mixed_frame_state(float(x)).rho)
    bases = compression_bases(g, target.form)
    params = (b, c)[:len(FAMILIES[target.form].slots)]
    out = np.empty(len(b))
    start = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for alphas in compression_chunks(bases, params, target.k):
            stop = start + len(alphas)
            if which == "alpha1_psd":
                out[start:stop] = np.linalg.eigvalsh(alphas)[:, 0]
            else:
                out[start:stop] = np.linalg.det(alphas).real * target.scale
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
        return TARGETS[self.which].scale

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
            raise linalg.NonFiniteValue("non-finite value in grid scan")
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
