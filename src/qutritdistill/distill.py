"""NPT detection and the 1-distillability witness.

A state is 1-distillable exactly when some rank-two projection P on the
first subsystem makes (P x I) rho^Gamma (P^dag x I) non-PSD; equivalently a
Schmidt-rank-two vector has negative expectation on the partial transpose
(DiVincenzo et al., PRA 61, 062312, 2000). witness_search builds that
projection without a search: from one eigendecomposition of the partial
transpose it takes a vector of least Schmidt rank in the negative
eigenspace (_negative_schmidt_vector), whose two leading left Schmidt
vectors are the orthonormal rows of the projection, and one eigensolve of
the compression decides. The witness is those 2x3 rows, a plain array,
certified when their compression has an eigenvalue below -NEG_TOL;
otherwise the report keeps the value reached, which proves nothing about
other projections. A report holds the ascending spectrum of the partial
transpose and derives the rest of its NPT verdict from it: the report is
NPT exactly when the spectrum's inertia counts a negative eigenvalue.

witness_stack runs that construction on a stack of states, the whole
x-grid of a scan, with one batched call per step: partial transpose,
Hermitian check and eigh, the pencil roots of the members with two or more
negative eigenvalues (a member whose pencil vanishes identically keeps its
bottom eigenvector), the 3x3 SVD, the compression and eigvalsh. numpy's
batched LAPACK calls and elementwise products treat each matrix of a stack
as the single call does, so row k is bit for bit what witness_search
reports for the k-th state; witness_search is the stack of one.

The compressions that minors scans use run over two parametrized families
of 2x3 row matrices, defined once in FAMILIES and set at a point by
family_rows, one for each chart of the row spaces they cover:

    P1a  rows (1, a, 0) and (0, 0, 1): shear level 1 into 0, keep level 2;
    P2bc rows (1, 0, b) and (0, 1, c): keep levels 0,1 with level-2 shears.

projected_matrix is the 6x6 compression of explicit rows. It builds R x I
as one broadcast multiply (_kron_eye3), which forms the same products in
the same operand order as np.kron, so every bit matches np.kron without
its per-call shape handling. compression_bases and compression_chunks
evaluate a named family at many points at once, in chunks of (m, k, k)
leading blocks. A chunk sums, entry by entry, only the terms whose base
entry is nonzero, into a contiguous (k, k, m) array yielded as its
transposed view; skipping the exact zeros leaves every bit of the dense
sum, as long as no parameter product c_i conj(c_j) overflows, which raises
NonFiniteValue instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import kernel, linalg, states
from ._fmt import complex_pair

FORM_P1A = "P1a"
FORM_P2BC = "P2bc"

NEG_TOL = 1e-10
CHUNK = 8192  # points per block of compression_chunks
EYE3 = np.eye(3, dtype=complex)
EYE3.flags.writeable = False


class RowFamily(NamedTuple):
    keys: tuple        # parameter names, in slot order
    base: np.ndarray   # 2x3 rows R0 at all parameters zero
    slots: tuple       # (row, col) entry of R0 that each parameter sets


# Every member has rank two: the columns no slot touches hold a 2x2 identity.
FAMILIES = {
    FORM_P1A: RowFamily(("a",), np.array([[1, 0, 0], [0, 0, 1]], dtype=complex), ((0, 1),)),
    FORM_P2BC: RowFamily(("b", "c"), np.array([[1, 0, 0], [0, 1, 0]], dtype=complex),
                         ((0, 2), (1, 2))),
}


class NoSignChange(ValueError):
    pass


NonFiniteValue = linalg.NonFiniteValue


def family_rows(form: str, values) -> np.ndarray:
    """The 2x3 rows of the named family (FAMILIES[form]; KeyError for an
    unknown form) with its parameter values set, one per slot in order."""
    family = FAMILIES[form]
    if len(values) != len(family.slots):
        raise ValueError(f"{form} takes {len(family.slots)} parameters, got {len(values)}")
    rows = family.base.copy()
    for slot, value in zip(family.slots, values):
        rows[slot] = complex(value)
    return rows


@dataclass
class DistillReport:
    spectrum: np.ndarray  # eigenvalues of the partial transpose, ascending
    witness: Optional[np.ndarray] = None  # the 2x3 orthonormal rows, when certified
    evidence_level: str = "not_found_at_budget"
    best_value: Optional[float] = None

    @property
    def inertia(self) -> linalg.Inertia:
        return linalg.inertia_of_spectrum(self.spectrum)

    @property
    def is_npt(self) -> bool:
        return self.inertia.negative > 0

    @property
    def min_eig_gamma(self) -> float:
        return float(self.spectrum[0])

    def to_json(self) -> dict:
        wit = None
        if self.witness is not None:
            wit = {
                "form": "general",
                "params": {"rows": [[complex_pair(z) for z in row] for row in self.witness]},
                "value": float(self.best_value),
            }
        inert = self.inertia
        return {
            "is_npt": inert.negative > 0,
            "inertia": list(inert),
            "min_eig_gamma": self.min_eig_gamma,
            "negative_count": inert.negative,
            "witness": wit,
            "evidence_level": self.evidence_level,
            "best_value": self.best_value,
            "evaluations": 1,
        }


@dataclass(frozen=True)
class ThresholdResult:
    x_star: float
    bracket: tuple
    iterations: int = 0


def npt_check(state: states.QutritState) -> DistillReport:
    """NPT verdict with the partial-transpose inertia; no witness search."""
    return DistillReport(spectrum=linalg.eig_hermitian(linalg.partial_transpose(state.rho)).values)


def _kron_eye3(rows: np.ndarray) -> np.ndarray:
    """kron(rows, I_3) for a p x q complex matrix, or each matrix of a stack
    (..., p, q), as the one broadcast multiply rows[i, j] * I_3[k, l] that
    np.kron itself performs."""
    *lead, p, q = rows.shape
    return (rows[..., :, None, :, None] * EYE3[:, None, :]).reshape(*lead, 3 * p, 3 * q)


def projected_matrix(g: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The 6x6 compression (R x I) g (R x I)^dag of a 9x9 matrix by 2x3 rows R,
    or of each matrix of a stack by its rows. R x I is _kron_eye3(R): the
    products np.kron forms, bit for bit."""
    r = _kron_eye3(rows)
    rg = r @ g
    return rg @ np.conjugate(r, out=r).swapaxes(-2, -1)


def projected_min_eig(g: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The least eigenvalue of projected_matrix(g, rows), one per matrix of
    a stack."""
    return np.linalg.eigvalsh(projected_matrix(g, rows))[..., 0]


def _lift(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(R^dag x I) u: a 6-vector of the compressed space back in C^3 x C^3."""
    return _kron_eye3(rows.conj().T) @ u


def compression_bases(g: np.ndarray, form: str) -> list:
    """Blocks B_ij = (P_i x I) g (P_j x I)^dag, with P_0 = R0 of the named
    family and P_k the unit row matrix of its k-th parameter slot, so that
    the compression at parameters theta is sum_ij c_i conj(c_j) B_ij with
    c = (1, theta_1, ..., theta_k)."""
    family = FAMILIES[form]
    parts = [family.base]
    for slot in family.slots:
        unit = np.zeros((2, 3), dtype=complex)
        unit[slot] = 1
        parts.append(unit)
    rs = [_kron_eye3(p) for p in parts]
    return [[ri @ g @ rj.conj().T for rj in rs] for ri in rs]


def compression_chunks(bases: list, params, k: int = 6):
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
    non-finite product raises NonFiniteValue before anything is summed.

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
        raise NonFiniteValue("a parameter product c_i conj(c_j) is not finite")
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


def witness_to_pt_vector(g: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, float]:
    """Schmidt-rank-<=2 vector with negative partial-transpose expectation,
    reconstructed from the 2x3 witness rows R: psi = (R^dag x I) u with u the
    bottom eigenvector of the projected matrix. Returns (psi, expectation)."""
    w, v = np.linalg.eigh(projected_matrix(g, rows))
    psi = _lift(rows, v[:, 0])
    val = float(np.real(psi.conj() @ g @ psi))
    return psi, val


@dataclass(frozen=True)
class WitnessStack:
    """witness_search at each of n states: row k is what witness_search
    reports for the k-th density matrix of the stack."""

    spectra: np.ndarray  # (n, 9) partial-transpose eigenvalues, ascending
    rows: np.ndarray     # (n, 2, 3) orthonormal projection rows
    values: np.ndarray   # (n,) least eigenvalue of each compression

    @property
    def negative(self) -> np.ndarray:
        return linalg.inertia_of_spectrum(self.spectra).negative

    @property
    def found(self) -> np.ndarray:
        return self.values < -NEG_TOL

    def report(self, k: int) -> DistillReport:
        rep = DistillReport(spectrum=self.spectra[k], best_value=float(self.values[k]))
        if self.found[k]:
            rep.witness = self.rows[k]
            rep.evidence_level = "certified"
        return rep


def witness_stack(rho: np.ndarray) -> WitnessStack:
    """witness_search at every density matrix of an (n, 9, 9) stack, with one
    batched call per step: partial transpose, Hermitian check and eigh,
    _negative_schmidt_vector, the 3x3 SVD, the compression and eigvalsh."""
    g = linalg.partial_transpose(rho)
    del rho  # a scan hands over its only reference: free the states early
    dec = linalg.eig_hermitian(g)
    u = np.linalg.svd(_negative_schmidt_vector(dec).reshape(-1, 3, 3))[0]
    spectra, rows = dec.values, u[..., :2].conj().swapaxes(-2, -1)
    del dec  # free the eigenvectors before the compression's temporaries
    return WitnessStack(spectra=spectra, rows=rows, values=projected_min_eig(g, rows))


def witness_search(state: states.QutritState) -> DistillReport:
    """The rank-two projection whose orthonormal rows R = U[:, :2]^dag are
    the two leading left Schmidt vectors of psi = _negative_schmidt_vector,
    and its verdict from one eigensolve of the compression: witness_stack
    on a stack of one.

    With k >= 2 negative eigenvalues w of the partial transpose g, psi has
    Schmidt rank <= 2, the compressed space holds it, and the compression's
    smallest eigenvalue is at most <psi|g|psi> <= w[1] <= w[k-1] < 0: the
    report carries a certified witness. Otherwise psi is the bottom
    eigenvector; if its Schmidt rank is 3 the rows keep its rank-2
    truncation, whose compression may or may not be negative. The witness
    is certified when the compression by these rows has an eigenvalue below
    -NEG_TOL; best_value is that eigenvalue either way.
    """
    return witness_stack(state.rho[None]).report(0)


# --- preconditions -----------------------------------------------------------


def _negative_schmidt_vector(dec: linalg.EigenDecomposition) -> np.ndarray:
    """A unit vector of least Schmidt rank in the span of the two most
    negative eigenvectors a, b of a 9x9 Hermitian matrix, from its
    eigendecomposition dec; a itself when fewer than two eigenvalues are
    negative (by linalg.inertia_of_spectrum). For the decomposition of a
    stack (values (..., 9)) it returns one vector per matrix, (..., 9).

    With k >= 2 negative eigenvalues such a vector has Schmidt rank <= 2,
    which makes the state 1-distillable: for A and B the 3x3 coefficient
    matrices of a and b, det(mA + nB) is a homogeneous cubic, so it has a
    root (m : n) and mA + nB has rank <= 2. The vector is m a + n b at the
    root from linalg.pencil_roots of lowest Schmidt rank (singular values
    above states.SCHMIDT_TOL; unit roots of orthonormal a, b give unit
    vectors), ties broken by the smallest third singular value, then by
    root order, from one batched SVD of the 3x3 reshapes
    (_least_schmidt_rank). When the cubic vanishes identically, every
    vector of the span qualifies and a stands for them. The least rank is
    exact for k = 2 (a rank-one mA + nB sits at a root); for k >= 3 it is
    an upper bound from the span of two eigenvectors.
    """
    values, vectors = dec.values.reshape(-1, 9), dec.vectors.reshape(-1, 9, 9)
    psi = vectors[:, :, 0].copy()
    two = np.flatnonzero(linalg.inertia_of_spectrum(values).negative >= 2)
    if two.size:
        a, b = vectors[two, :, 0], vectors[two, :, 1]
        roots = linalg.pencil_roots(a.reshape(-1, 3, 3), b.reshape(-1, 3, 3))
        solved = ~np.isnan(roots[:, 0, 0])  # a vanishing pencil keeps a
        if solved.any():
            psi[two[solved]] = _least_schmidt_rank(roots[solved], a[solved], b[solved])
    return psi.reshape(dec.values.shape)


def _least_schmidt_rank(roots: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For each pair of 9-vectors a, b (rows of (t, 9) arrays) and the roots
    (m : n) of their pencil, (t, 3, 2), the vector m a + n b of lowest
    Schmidt rank, ties broken by the smallest third singular value, then
    by root order."""
    vs = roots[..., :1] * a[:, None] + roots[..., 1:] * b[:, None]  # (t, 3 roots, 9)
    s = np.linalg.svd(vs.reshape(-1, 3, 3, 3), compute_uv=False)
    rank = np.count_nonzero(s > states.SCHMIDT_TOL, axis=-1)
    third = np.where(rank == rank.min(axis=-1, keepdims=True), s[..., 2], np.inf)
    return vs[np.arange(len(vs)), np.argmin(third, axis=-1)]


def precondition_report(state: states.QutritState) -> dict:
    """Necessary conditions for an NPT state to resist 1-distillation.

    Every failed item certifies 1-distillability; all items passing is
    consistent with (not proof of) resistance. The tolerances are fixed: the
    ranks of rho and its marginals count singular values above 1e-10, the
    inertia counts eigenvalues beyond 1e-10 times the spectral norm of the
    partial transpose (linalg.inertia_of_spectrum), and the Schmidt rank
    counts singular values of the unit vector above 1e-9.

    The negative-subspace item takes the Schmidt rank of
    _negative_schmidt_vector, from the same eigendecomposition as the
    inertia: it passes vacuously with no negative eigenvalue, passes with one
    whose eigenvector has Schmidt rank 3, and fails whenever the partial
    transpose has two or more. Its evidence is "certified", since the rank
    is a floating-point one. The kernel product-vector item carries
    kernel_product_vector's evidence and margin: "proved" where the
    antisymmetric-subspace lemma covers a family state with 0 < x < 1,
    otherwise the exact decision's "certified", or "not_found_at_budget"
    when no zero of the minors passed its residual check.
    """
    rho = state.rho
    rank = linalg.matrix_rank(rho)
    rank_a = linalg.matrix_rank(linalg.partial_trace(rho, "A"))
    rank_b = linalg.matrix_rank(linalg.partial_trace(rho, "B"))
    dec = linalg.eig_hermitian(linalg.partial_transpose(rho))
    inert = linalg.inertia_of_spectrum(dec.values)
    srank = states.schmidt_rank(_negative_schmidt_vector(dec)) if inert.negative else None

    try:
        pv = kernel.kernel_product_vector(state)
        kernel_item = {
            "pass": not pv.found,
            "evidence_level": pv.evidence_level,
            "margin": pv.margin,
        }
    except kernel.EmptyKernel:
        kernel_item = {"pass": True, "evidence_level": "proved", "margin": None}

    return {
        "local_dims_exceed_two": True,  # 3x3 throughout this package
        "rank_exceeds_four": rank > 4,
        "rank_exceeds_marginals": rank > max(rank_a, rank_b),
        "negative_subspace_min_schmidt_rank": {
            "pass": inert.negative == 0 or (inert.negative == 1 and srank == 3),
            "evidence_level": "certified",
            "min_schmidt_rank": srank,
        },
        "kernel_no_product_vector": kernel_item,
        "pt_inertia_one_negative": tuple(inert) == (1, 0, 8),
    }


# --- threshold ---------------------------------------------------------------

_TARGETS = {
    "min_eig": 0,
    "second_eig": 1,
}


def find_threshold(case_id: str, target: str, bracket: tuple) -> ThresholdResult:
    """The x in the bracket where the chosen partial-transpose eigenvalue
    crosses zero. The family is linear in x, so its partial transpose G(x)
    is too, and an eigenvalue of G vanishes exactly at the real roots of
    the pencil det(G(0) + x (G(1) - G(0))) (linalg.pencil_roots). x_star is
    the smallest such root in (lo, hi) at which the target eigenvalue itself
    vanishes, to 1e-10 of the spectral norm.

    target: "min_eig" (smallest) or "second_eig" (second smallest). The
    bracket needs lo < hi (ValueError otherwise) and a strict sign change
    across it; flat or same-sign brackets raise NoSignChange instead of
    returning an arbitrary point. Stacks at (lo, hi, 0, 1) and at the real
    roots in (lo, hi) give every spectrum; the result keeps the bracket as
    given, and iterations is 2 plus the 1-based index of the root returned.
    """
    if target not in _TARGETS:
        raise ValueError(f"unknown target {target!r}; expected one of {sorted(_TARGETS)}")
    idx = _TARGETS[target]
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError(f"bracket needs lo < hi, got [{lo}, {hi}]")
    g = linalg.partial_transpose(states.family_stack(case_id, [lo, hi, 0.0, 1.0]))
    flo, fhi = np.linalg.eigvalsh(g[:2])[:, idx].tolist()
    if flo == 0.0 or fhi == 0.0 or (flo < 0) == (fhi < 0):
        raise NoSignChange(
            f"{target} does not strictly change sign on [{lo}, {hi}]: f(lo)={flo:.3e}, f(hi)={fhi:.3e}"
        )
    roots = [n / m for m, n in linalg.pencil_roots(g[2], g[3] - g[2]) if abs(m) > 0]
    real = sorted(t.real for t in roots if abs(t.imag) <= 1e-8 and lo < t.real < hi)
    g = linalg.partial_transpose(states.family_stack(case_id, real))
    for solves, (t, w) in enumerate(zip(real, np.linalg.eigvalsh(g)), start=3):
        if abs(w[idx]) <= 1e-10 * np.abs(w).max():
            return ThresholdResult(x_star=float(t), bracket=(lo, hi), iterations=solves)
    raise linalg.NoConvergence(f"no pencil root in ({lo}, {hi}) zeroes {target}")
