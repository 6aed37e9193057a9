"""Product vectors in kernels: the cubic-pencil solver on C2xC3 complements,
the exact decision on the minors of M(u), exclusion checks, and Takagi
canonicalization."""

import itertools

import numpy as np
import pytest
import sympy

from qutritdistill import cli, kernel, linalg, states
from qutritdistill.kernel import (
    EmptyKernel,
    NotInKernel,
    NotSymmetric,
    SchmidtRankTooHigh,
    antisymmetric_lemma_applies,
    candidate_product_vector,
    decide_kernel,
    eq5_family_basis,
    kernel_product_vector,
    product_vector_in_2x3_complement,
    rank1_exclusion_margin,
    takagi_canonicalize_kernel_state,
)


def ket(i, j):
    return states.basis_ket(i, j)


def sym(i, j):
    return (ket(i, j) + ket(j, i)) / np.sqrt(2)


def antisym(i, j):
    return (ket(i, j) - ket(j, i)) / np.sqrt(2)


def explicit_range_state(which):
    if which == "i":
        span = [ket(0, 0), ket(1, 1), sym(0, 1), sym(0, 2), sym(1, 2)]
    else:
        span = [ket(0, 0), ket(1, 1), ket(2, 2), sym(0, 2), sym(1, 2)]
    return states.uniform_state_on_span(span)


def eq5_vector(s, signs=(1, 1, 1)):
    s0, s1, s2 = s
    al = signs[0] * 1j * (s0 * s1) ** 0.25
    be = signs[1] * 1j * (s1 * s2) ** 0.25
    ga = signs[2] * 1j * (s0 * s2) ** 0.25
    return (
        al * (ket(0, 1) - ket(1, 0))
        + be * (ket(1, 2) - ket(2, 1))
        + ga * (ket(0, 2) - ket(2, 0))
        + np.sqrt(s0) * ket(0, 0)
        + np.sqrt(s1) * ket(1, 1)
        + np.sqrt(s2) * ket(2, 2)
    )


# ------------------------------------------------------------ pencil solver


def test_pencil_trivial_complement():
    # complement of span{|0>|j>} is |1> x C^3: the zero-row direction
    vs = [np.eye(6)[0], np.eye(6)[1], np.eye(6)[2]]
    res = product_vector_in_2x3_complement(vs)
    assert res.found
    assert res.residual <= 1e-12
    # A factor concentrated on the second slot
    np.testing.assert_allclose(np.abs(res.u), [0.0, 1.0], atol=1e-12)


def test_pencil_generic_subspaces():
    rng = np.random.default_rng(43)
    for _ in range(50):
        m = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        q, _ = np.linalg.qr(m)
        res = product_vector_in_2x3_complement(list(q.T))
        assert res.found
        assert res.residual <= 1e-9


def test_pencil_against_projective_grid_oracle():
    # brute force the projective line at 10^4 points: smallest singular value
    # of the pencil matrix along the circle of directions; the root-finding
    # route must do at least as well as the grid's best direction
    rng = np.random.default_rng(47)
    m = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    q, _ = np.linalg.qr(m)
    vs = list(q.T)
    res = product_vector_in_2x3_complement(vs)
    assert res.found

    def sigma_min(mm, nn):
        pm = np.array(
            [mm * np.conj(v.reshape(2, 3)[0]) + nn * np.conj(v.reshape(2, 3)[1]) for v in vs]
        )
        return np.linalg.svd(pm, compute_uv=False)[-1]

    grid_best = min(
        sigma_min(np.cos(t), np.sin(t) * np.exp(1j * p))
        for t in np.linspace(0, np.pi / 2, 100)
        for p in np.linspace(0, 2 * np.pi, 100, endpoint=False)
    )
    found_sigma = sigma_min(res.u[0], res.u[1])
    # the exact root beats any grid point, up to roundoff
    assert found_sigma <= grid_best + 1e-8
    assert found_sigma <= 1e-9


def test_pencil_degenerate_carries_result():
    # one spanner: every triple of rows is missing, so the line root is e0
    res = product_vector_in_2x3_complement([np.eye(6)[0]])
    assert res.found
    assert res.residual <= 1e-9


def test_line_points_skips_a_vanishing_triple():
    # rows 0-2 have no level-2 entry, so the pencil of triple (0, 1, 2)
    # vanishes identically; the line roots are those of the next triple,
    # (0, 1, 3), bit for bit
    rng = np.random.default_rng(29)
    rbar = rng.normal(size=(4, 2, 3)) + 1j * rng.normal(size=(4, 2, 3))
    rbar[:3, :, 2] = 0.0
    skipped = linalg.pencil_roots(rbar[:3, 0], rbar[:3, 1])
    assert np.isnan(skipped).all()
    later = linalg.pencil_roots(rbar[[0, 1, 3], 0], rbar[[0, 1, 3], 1])
    assert np.isfinite(later).all()
    assert np.array_equal(kernel._line_points(rbar), later)
    # fewer than three rows: no triple, and the line point is (1 : 0)
    for rows in (rbar[:2], rbar[:0]):
        assert np.array_equal(kernel._line_points(rows), [[1.0, 0.0]])


@pytest.mark.parametrize("vs", [[], [np.zeros(6)]], ids=["empty", "zero"])
def test_pencil_rank_zero_input(vs):
    res = product_vector_in_2x3_complement(vs)
    assert res.found
    assert res.residual <= 1e-9
    assert abs(np.linalg.norm(res.vector) - 1.0) <= 1e-12


def test_pencil_four_or_five_vectors_orthogonal_to_planted_product():
    rng = np.random.default_rng(67)
    for k in (4, 5):
        for _ in range(20):
            planted = np.kron(rng.normal(size=2) + 1j * rng.normal(size=2),
                              rng.normal(size=3) + 1j * rng.normal(size=3))
            planted /= np.linalg.norm(planted)
            vs = rng.normal(size=(k, 6)) + 1j * rng.normal(size=(k, 6))
            vs -= np.outer(vs @ planted.conj(), planted)  # orthogonal to planted
            res = product_vector_in_2x3_complement(list(vs))
            assert res.found
            assert res.residual <= 1e-9
            assert abs(abs(np.vdot(planted, res.vector)) - 1.0) <= 1e-9


def test_pencil_four_generic_vectors_report_none():
    # a generic 2-dim complement misses the 3-fold of product vectors in P5
    rng = np.random.default_rng(71)
    for _ in range(20):
        vs = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
        res = product_vector_in_2x3_complement(list(vs))
        assert not res.found
        assert res.evidence_level == "not_found_at_budget"


# --------------------------------------------------- kernel_product_vector


def test_exact_case_22():
    res = candidate_product_vector(explicit_range_state("i"))
    assert res.found
    assert res.evidence_level == "certified"
    assert abs(abs(np.vdot(res.vector, ket(2, 2))) - 1.0) <= 1e-12


def test_exact_case_01():
    res = candidate_product_vector(explicit_range_state("ii"))
    assert res.found
    assert abs(abs(np.vdot(res.vector, ket(0, 1))) - 1.0) <= 1e-12


def test_search_mode_finds_in_generic_kernel():
    res = kernel_product_vector(explicit_range_state("i"))
    assert res.found
    assert states.schmidt_rank(res.vector) == 1


def test_no_product_vector_in_obstructed_kernel():
    # kernel = antisymmetric subspace + the balanced Schmidt-rank-3 symmetric
    # vector; the exact decision, without the lemma, rules out every u
    s = (1 / 3, 1 / 3, 1 / 3)
    diag = sum(np.sqrt(s[j]) * ket(j, j) for j in range(3))
    kernel_span = [antisym(0, 1), antisym(0, 2), antisym(1, 2), diag]
    full = np.linalg.qr(np.array(kernel_span).T, mode="complete")[0]
    range_cols = []
    for col in full.T:
        proj = sum(np.vdot(k, col) * np.asarray(k) for k in kernel_span)
        if np.linalg.norm(col - proj) > 1e-8:
            range_cols.append(col)
    st = states.uniform_state_on_span(range_cols[:5])
    res = kernel_product_vector(st)
    assert res.found is False
    assert res.evidence_level == "certified"
    decided = decide_kernel(*states.range_kernel(st))
    assert decided.found is False
    assert decided.evidence_level == "certified"
    assert decided.margin >= 1e-3


def state_with_kernel(basis):
    # uniform state on the orthogonal complement of the orthonormal columns
    complement = np.linalg.qr(basis, mode="complete")[0][:, basis.shape[1]:]
    return states.uniform_state_on_span(list(complement.T))


@pytest.mark.parametrize("x", [0.001, 1 / 7, 0.3, 0.9, 0.999])
def test_lemma_covers_every_family_kernel(x):
    for case in states.CASES:
        st = states.build_family(case, x)
        _, ker = states.range_kernel(st)
        assert antisymmetric_lemma_applies(ker), case
        res = kernel_product_vector(st)
        assert res.found is False
        assert res.evidence_level == "proved"
        assert res.margin is None


def test_family_kernel_holds_lemma_span_symbolically():
    # for symbolic x, every rho_case(x) annihilates the antisymmetric
    # subspace and |00> + |11> + |22>, because each of the five eigenvectors
    # is orthogonal to them; for 0 < x < 1 rho has rank five, so these four
    # vectors span the kernel and the lemma's verdict is a proof
    x = sympy.symbols("x")
    r2, r6 = sympy.sqrt(2), sympy.sqrt(6)

    def kv(*terms):
        v = sympy.zeros(9, 1)
        for coef, i, j in terms:
            v[3 * i + j] += coef
        return v

    eigvecs = [kv((1 / r2, 0, 1), (1 / r2, 1, 0)), kv((1 / r2, 1, 2), (1 / r2, 2, 1)),
               kv((1 / r2, 0, 2), (1 / r2, 2, 0)), kv((1 / r2, 0, 0), (-1 / r2, 1, 1)),
               kv((1 / r6, 0, 0), (1 / r6, 1, 1), (-2 / r6, 2, 2))]
    np.testing.assert_allclose(np.array(sympy.Matrix.hstack(*eigvecs).T, dtype=complex),
                               states.SYMMETRIC_BASIS, atol=1e-15)
    lemma_span = [kv((1, i, j), (-1, j, i)) for i, j in ((0, 1), (0, 2), (1, 2))]
    lemma_span.append(kv((1, 0, 0), (1, 1, 1), (1, 2, 2)))
    for case, idx in states.CASE_INDEX.items():
        weights = [(1 - x) / 4] * 5
        weights[idx] = x
        rho = sum((w * v * v.T for w, v in zip(weights, eigvecs)), sympy.zeros(9, 9))
        assert sympy.simplify(sympy.trace(rho)) == 1
        for v in lemma_span:
            assert sympy.simplify(rho * v) == sympy.zeros(9, 1), case


def test_lemma_leaves_endpoint_kernels_to_the_search():
    # at x = 0 and x = 1 the rank drops and the kernel gains product vectors
    for case in states.CASES:
        for x in (0.0, 1.0):
            st = states.build_family(case, x)
            _, ker = states.range_kernel(st)
            assert ker.shape[1] > 4
            assert not antisymmetric_lemma_applies(ker)
            res = kernel_product_vector(st)
            assert res.found and res.residual <= 1e-9, (case, x)
            assert np.linalg.norm(st.rho @ res.vector) <= 1e-9


def test_lemma_does_not_fire_on_random_spans():
    # the benchmark's basis-file input: five random real vectors
    for seed in range(5):
        vectors = np.random.default_rng(seed).normal(size=(5, 9, 2))
        st = states.uniform_state_on_span([v[:, 0] + 1j * v[:, 1] for v in vectors])
        _, ker = states.range_kernel(st)
        assert ker.shape == (9, 4)
        assert not antisymmetric_lemma_applies(ker)


def test_lemma_needs_the_antisymmetric_subspace():
    # four swap-symmetric vectors span a swap-invariant space, but its swap
    # spectrum is (1, 1, 1, 1), not (-1, -1, -1, 1)
    ker = states.SYMMETRIC_BASIS[:4].T
    assert np.linalg.norm(states.SWAP @ ker - ker) <= 1e-15
    assert not antisymmetric_lemma_applies(ker)


def test_lemma_needs_schmidt_rank_three():
    # with s2 = 0 the symmetric vector has Schmidt rank 2, and eq5_vector is
    # a product vector inside the kernel: the decision has to find one
    s = (0.5, 0.5, 0.0)
    basis = eq5_family_basis(s)
    assert not antisymmetric_lemma_applies(basis)
    st = state_with_kernel(basis)
    planted = eq5_vector(s)
    assert states.schmidt_rank(planted) == 1
    assert np.linalg.norm(st.rho @ planted) <= 1e-12
    res = kernel_product_vector(st)
    assert res.found
    assert res.evidence_level == "certified"
    assert res.residual <= 1e-9
    assert states.schmidt_rank(res.vector) == 1
    assert np.linalg.norm(st.rho @ res.vector) <= 1e-10


def test_empty_kernel_raises():
    full = states.from_density(np.eye(9) / 9.0)
    with pytest.raises(EmptyKernel):
        kernel_product_vector(full)


# --------------------------------------------------------- rank-1 minors


def minors_2x2(v):
    # the nine 2x2 minors of the 3x3 coefficient matrix of v
    c = v.reshape(3, 3)
    pairs = ((0, 1), (0, 2), (1, 2))
    return np.array([[c[r0, c0] * c[r1, c1] - c[r0, c1] * c[r1, c0] for c0, c1 in pairs]
                     for r0, r1 in pairs])


def test_obstructing_minor_all_sign_branches():
    # purely imaginary off-diagonal couplings sized to kill most minors leave
    # one obstruction whose magnitude is fixed by the diagonal weights alone,
    # for every one of the 8 sign choices
    s = (1 / 3, 1 / 3, 1 / 3)
    target = rank1_exclusion_margin(*s) ** 2
    assert abs(target - 2 / 9) <= 1e-15
    for signs in itertools.product((1, -1), repeat=3):
        minors = minors_2x2(eq5_vector(s, signs))
        assert abs(abs(minors[0, 1]) ** 2 - target) <= 1e-12
        assert np.sum(np.abs(minors) ** 2) > 1e-3


def test_obstructing_minor_symbolic_identity():
    # exact arithmetic: |sqrt(s0)*b + a*g|^2 = 2 s0 sqrt(s1 s2) whenever
    # a^2 = -sqrt(s0 s1), b^2 = -sqrt(s1 s2), g^2 = -sqrt(s0 s2), all branches
    s0, s1, s2 = sympy.symbols("s0 s1 s2", positive=True)
    for ea, eb, eg in itertools.product((1, -1), repeat=3):
        a = ea * sympy.I * (s0 * s1) ** sympy.Rational(1, 4)
        b = eb * sympy.I * (s1 * s2) ** sympy.Rational(1, 4)
        g = eg * sympy.I * (s0 * s2) ** sympy.Rational(1, 4)
        minor = sympy.sqrt(s0) * b + a * g
        mag2 = sympy.simplify(sympy.expand(minor * sympy.conjugate(minor)))
        assert sympy.simplify(mag2 - 2 * s0 * sympy.sqrt(s1 * s2)) == 0


# ------------------------------------------------------- span exclusion
# Ranges that hold |00> and |01>: the exact decision answers their kernel
# question as it does any other's.


def range_residual(st, v):
    # distance of v from the range of st, by the range basis of range_kernel
    rng, _ = states.range_kernel(st)
    return float(np.linalg.norm(v - rng @ (rng.conj().T @ v)))


def assert_range_holds_00_01(st):
    assert range_residual(st, ket(0, 0)) <= 1e-10
    assert range_residual(st, ket(0, 1)) <= 1e-10


def test_span_exclusion_contained_produces_vector():
    e = states.SYMMETRIC_BASIS
    st = states.uniform_state_on_span([ket(0, 0), ket(0, 1), e[1], e[2], e[4]])
    assert_range_holds_00_01(st)
    res = kernel_product_vector(st)
    assert res.found and res.evidence_level == "certified"
    assert np.linalg.norm(st.rho @ res.vector) <= 1e-10


def random_vectors(rng, k):
    return list(rng.normal(size=(k, 9)) + 1j * rng.normal(size=(k, 9)))


def test_span_exclusion_finds_every_seeded_rank5_range():
    # the A-level-{1,2} slices of a rank-5 range holding |00>, |01> span
    # three dimensions of C2 x C3, whose complement always holds a product
    # vector: the kernel of every such range holds one
    rng = np.random.default_rng(3)
    for _ in range(200):
        st = states.uniform_state_on_span([ket(0, 0), ket(0, 1)] + random_vectors(rng, 3))
        assert_range_holds_00_01(st)
        res = kernel_product_vector(st)
        assert res.found
        assert np.linalg.norm(st.rho @ res.vector) <= 1e-10


def test_span_exclusion_rank6_planted_and_generic():
    rng = np.random.default_rng(5)
    u = np.array([0.0, 0.6 + 0.2j, -0.3 + 0.7j])
    w = np.array([0.5j, 1.0, -0.4 + 0.1j])
    planted = np.kron(u, w) / np.linalg.norm(np.kron(u, w))
    others = rng.normal(size=(4, 9)) + 1j * rng.normal(size=(4, 9))
    others -= np.outer(others @ planted.conj(), planted)
    st = states.uniform_state_on_span([ket(0, 0), ket(0, 1)] + list(others))
    assert np.linalg.matrix_rank(st.rho) == 6
    assert_range_holds_00_01(st)
    res = kernel_product_vector(st)
    assert res.found
    assert np.linalg.norm(st.rho @ res.vector) <= 1e-10
    assert abs(abs(np.vdot(planted, res.vector)) - 1.0) <= 1e-9

    # four generic vectors besides |00>, |01>: a certified none
    st = states.uniform_state_on_span([ket(0, 0), ket(0, 1)] + random_vectors(rng, 4))
    assert_range_holds_00_01(st)
    res = kernel_product_vector(st)
    assert res.found is False and res.evidence_level == "certified"
    assert res.margin >= 1e-3


def test_span_exclusion_family_not_contained():
    st = states.build_family("v", 0.3)
    assert abs(range_residual(st, ket(0, 1)) - np.sqrt(0.5)) <= 1e-12


def test_span_exclusion_symmetric_range_not_contained():
    # |01> has an antisymmetric component of norm 1/sqrt2, so a
    # symmetric-subspace range leaves it at that distance
    st = states.uniform_state_on_span(list(states.SYMMETRIC_BASIS))
    assert abs(range_residual(st, ket(0, 1)) - np.sqrt(0.5)) <= 1e-12


def test_span_exclusion_never_contains_for_families():
    for case in states.CASES:
        for x in (0.1, 1 / 7, 0.3, 0.7):
            st = states.build_family(case, x)
            assert abs(range_residual(st, ket(0, 1)) - np.sqrt(0.5)) <= 1e-12, (case, x)


# -------------------------------------------------- Takagi canonicalization


def host_state_excluding(direction):
    # rank-5 state whose kernel contains the given symmetric vector
    e = states.SYMMETRIC_BASIS
    cand = list(e) + [antisym(0, 1), antisym(0, 2), antisym(1, 2)]
    span = []
    for c in cand:
        c2 = c - np.vdot(direction, c) * direction
        for prev in span:
            c2 = c2 - np.vdot(prev, c2) * prev
        n = np.linalg.norm(c2)
        if n > 1e-8:
            span.append(c2 / n)
        if len(span) == 5:
            break
    return states.uniform_state_on_span(span)


def test_takagi_canonicalize_diag_difference():
    e = states.SYMMETRIC_BASIS
    a = e[3]  # (|00> - |11>)/sqrt2
    st = host_state_excluding(a)
    rot, canon, s = takagi_canonicalize_kernel_state(a, st)
    np.testing.assert_allclose(s, [1 / np.sqrt(2), 1 / np.sqrt(2), 0.0], atol=1e-10)
    c = states.coefficient_matrix(canon)
    np.testing.assert_allclose(c, np.diag(s), atol=1e-10)
    # canonical vector sits in the rotated state's kernel
    assert np.linalg.norm(rot.rho @ canon) <= 1e-10


def test_takagi_canonicalize_already_diagonal():
    a = ket(0, 0)
    st = host_state_excluding(a)
    rot, canon, s = takagi_canonicalize_kernel_state(a, st)
    np.testing.assert_allclose(s, [1.0, 0.0, 0.0], atol=1e-12)
    assert abs(abs(np.vdot(canon, a)) - 1.0) <= 1e-12


def test_takagi_canonicalize_symmetric_pair():
    a = sym(0, 1)
    st = host_state_excluding(a)
    _, canon, s = takagi_canonicalize_kernel_state(a, st)
    np.testing.assert_allclose(s, [1 / np.sqrt(2), 1 / np.sqrt(2), 0.0], atol=1e-10)
    np.testing.assert_allclose(states.coefficient_matrix(canon), np.diag(s), atol=1e-10)


def test_takagi_canonicalize_rejects_nonsymmetric():
    st = explicit_range_state("i")
    with pytest.raises(NotSymmetric):
        takagi_canonicalize_kernel_state(ket(0, 1), st)


def test_takagi_canonicalize_rejects_rank_three():
    s = (0.5, 0.3, 0.2)
    a = sum(np.sqrt(s[j]) * ket(j, j) for j in range(3))
    st = host_state_excluding(a)
    with pytest.raises(SchmidtRankTooHigh):
        takagi_canonicalize_kernel_state(a, st)


def test_takagi_canonicalize_rejects_vector_outside_kernel():
    e = states.SYMMETRIC_BASIS
    st = host_state_excluding(e[3])
    with pytest.raises(NotInKernel):
        takagi_canonicalize_kernel_state(ket(0, 0), st)


# ----------------------------------------------------------- bulk properties


def test_pencil_completeness_thousand_instances():
    rng = np.random.default_rng(53)
    for _ in range(1000):
        m = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        q, _ = np.linalg.qr(m)
        res = product_vector_in_2x3_complement(list(q.T))
        assert res.found
        assert res.residual <= 1e-9


def test_found_vectors_are_sound():
    rng = np.random.default_rng(59)
    for _ in range(50):
        m = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        q, _ = np.linalg.qr(m)
        vs = list(q.T)
        res = product_vector_in_2x3_complement(vs)
        assert res.found
        assert linalg.matrix_rank(res.vector.reshape(2, 3)) == 1
        for v in vs:
            assert abs(np.vdot(v, res.vector)) <= 1e-9


def test_converse_family_objective_bounded_away():
    # the exact decision, without the lemma, rules out every u on Eq. 5
    # kernels with weights bounded away from zero, with a margin to spare
    rng = np.random.default_rng(61)
    for k in range(100):
        s = rng.uniform(0.05, 1.0, size=3)
        s = s / s.sum()
        if np.min(s) < 0.05:
            s = s + 0.05
            s = s / s.sum()
        basis = eq5_family_basis(tuple(s))
        assert antisymmetric_lemma_applies(basis)
        res = decide_kernel(*states.range_kernel(state_with_kernel(basis)))
        assert res.found is False and res.evidence_level == "certified", s
        assert res.margin >= 1e-3, (s, res.margin)


def test_result_json_shape():
    res = candidate_product_vector(explicit_range_state("i"))
    doc = cli._product_vector_json(res)
    assert set(doc.keys()) == {
        "found",
        "factors",
        "residual",
        "margin",
        "evidence_level",
    }
    assert set(doc["factors"].keys()) == {"u", "w"}
    # the vector is u x w, derived from the factors: candidate, decision
    # and lemma results, with and without factors
    family = states.build_family("v", 0.3)
    vectors = np.random.default_rng(5).normal(size=(2, 6, 9))
    e = states.SYMMETRIC_BASIS
    spanned = states.uniform_state_on_span([ket(0, 0), ket(0, 1), e[1], e[2], e[4]])
    results = [
        res,
        candidate_product_vector(family),
        decide_kernel(*states.range_kernel(explicit_range_state("ii"))),
        decide_kernel(*states.range_kernel(states.uniform_state_on_span(
            list(vectors[0] + 1j * vectors[1])))),
        kernel_product_vector(family),
        kernel_product_vector(spanned),
    ]
    assert [r.u is None for r in results] == [False, True, False, True, True, False]
    for r in results:
        if r.u is None:
            assert r.vector is None
        else:
            np.testing.assert_array_equal(r.vector, np.kron(r.u, r.w))


# ------------------------------------------------------------ exact decision


@pytest.mark.parametrize("d", range(1, 9))
def test_decision_on_random_spans(d):
    # a range of dimension d <= 4 leaves a kernel of dimension >= 5, which
    # always holds a product vector (the rank-<=2 locus of a d x 3 matrix of
    # linear forms in P^2 is nonempty); a generic larger range leaves none
    rng = np.random.default_rng(900 + d)
    for _ in range(20):
        vectors = rng.normal(size=(d, 9)) + 1j * rng.normal(size=(d, 9))
        st = states.uniform_state_on_span(list(vectors))
        res = kernel_product_vector(st)
        assert res.evidence_level == "certified"
        if d <= 4:
            assert res.found
            assert res.residual <= 1e-9
            assert states.schmidt_rank(res.vector) == 1
            assert np.linalg.norm(st.rho @ res.vector) <= 1e-9
            assert res.margin is None
        else:
            assert res.found is False
            assert res.margin >= 1e-3


def test_decision_finds_planted_product_vector():
    # a random 4-dim kernel holds no product vector unless one is planted
    rng = np.random.default_rng(907)
    for _ in range(20):
        u, w = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        planted = np.kron(u, w)
        others = rng.normal(size=(9, 3)) + 1j * rng.normal(size=(9, 3))
        st = state_with_kernel(np.linalg.qr(np.column_stack([planted, others]))[0])
        res = kernel_product_vector(st)
        assert res.found and res.evidence_level == "certified"
        assert res.residual <= 1e-9
        overlap = abs(np.vdot(res.vector, planted)) / np.linalg.norm(planted)
        assert abs(overlap - 1.0) <= 1e-9


def test_decision_finds_structured_product_vectors():
    # kernels whose minors vanish identically (u x C3 or C3 x w inside) or
    # to higher order at a point (u x w for a plane of w), or whose zeros
    # form a curve (C2 x C2, u x u on a conic), each under a random local
    # unitary: a decision on roundoff-sized minors or an unpolished multiple
    # zero would miss them
    rng = np.random.default_rng(919)

    def cv(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    for _ in range(10):
        u, w = cv(3), cv(3)
        kernels = [
            [np.kron(u, e) for e in np.eye(3)],
            [np.kron(u, e) for e in np.eye(3)] + [cv(9)],
            [np.kron(e, w) for e in np.eye(3)] + [cv(9)],
            [np.kron(u, cv(3)), np.kron(u, cv(3))],
            [np.kron(u, cv(3)), np.kron(u, cv(3)), cv(9), cv(9)],
            [ket(i, j) for i in (0, 1) for j in (0, 1)],
            [np.kron(v, v) for v in (np.array([1, t, t * t]) for t in cv(5))],
        ]
        local = np.kron(*(np.linalg.qr(cv(3, 3))[0] for _ in range(2)))
        for vs in kernels:
            st = state_with_kernel(np.linalg.qr(local @ np.array(vs).T)[0])
            res = kernel_product_vector(st)
            assert res.found and res.evidence_level == "certified", len(vs)
            assert res.residual <= 1e-9
            assert np.linalg.norm(st.rho @ res.vector) <= 1e-9


def test_decision_agrees_with_lemma_on_family_kernels():
    for case in states.CASES:
        for x in np.linspace(0.0, 1.0, 202)[1:-1]:
            rng, ker = states.range_kernel(states.build_family(case, float(x)))
            assert antisymmetric_lemma_applies(ker)
            res = decide_kernel(rng, ker)
            assert res.found is False and res.evidence_level == "certified", (case, x)
            assert res.margin >= 0.1, (case, x, res.margin)


def test_decision_agrees_with_lemma_on_eq5_kernels():
    # the lemma applies exactly when all three weights are positive
    rng = np.random.default_rng(911)
    for k in range(100):
        s = rng.dirichlet(np.ones(3))
        if k % 4 == 0:
            s[k % 3] = 0.0
            s = s / s.sum()
        basis = eq5_family_basis(tuple(s))
        lemma = antisymmetric_lemma_applies(basis)
        assert lemma == bool(np.all(s > 0)), s
        res = decide_kernel(*states.range_kernel(state_with_kernel(basis)))
        assert res.evidence_level == "certified"
        assert res.found is not lemma, s
        if res.found:
            assert res.residual <= 1e-9
        else:
            assert res.margin >= 1e-6, (s, res.margin)


def test_lemma_verdict_is_proved_only_for_family_states():
    st = states.build_family("v", 0.3)
    # labelled as the family state it was rotated from, but not equal to it
    rotated = states.QutritState(states.apply_local(
        st, states.LocalOperator(states.hadamard_on_01(), states.hadamard_on_01())),
        case_id="v", x=0.3)
    assert kernel_product_vector(st).evidence_level == "proved"
    assert kernel_product_vector(rotated).evidence_level == "certified"


@pytest.mark.parametrize("call, error, message", [
    (lambda: product_vector_in_2x3_complement([np.ones(6), np.ones(9)]),
     linalg.DimensionMismatch, "expected 6-component vectors"),
    (lambda: eq5_family_basis((0.5, -0.1, 0.6)), ValueError, "three nonnegative weights"),
    (lambda: eq5_family_basis((0.5, 0.5)), ValueError, "three nonnegative weights"),
    (lambda: takagi_canonicalize_kernel_state(np.ones(6), explicit_range_state("i")),
     linalg.DimensionMismatch, "expected a 9-component vector"),
    (lambda: takagi_canonicalize_kernel_state(np.zeros(9), explicit_range_state("i")),
     states.ZeroVector, "zero vector"),
], ids=["complement_vector_length", "eq5_negative_weight", "eq5_two_weights",
        "takagi_vector_length", "takagi_zero_vector"])
def test_kernel_rejects_malformed_input(call, error, message):
    with pytest.raises(error, match=message):
        call()
