"""Product vectors in kernels: the cubic-pencil solver on C2xC3 complements,
rank-1 minor systems, exclusion checks, and Takagi canonicalization."""

import itertools

import numpy as np
import pytest
import sympy

from qutritdistill import kernel, states
from qutritdistill.kernel import (
    DegeneratePencil,
    EmptyKernel,
    NotInKernel,
    NotSymmetric,
    SchmidtRankTooHigh,
    antisymmetric_lemma_applies,
    eq5_family_basis,
    eq5_family_min_objective,
    kernel_product_vector,
    minimize_minor_objective,
    minor_objective,
    product_vector_in_2x3_complement,
    rank1_exclusion_margin,
    rank1_minor_system,
    span_0001_exclusion_check,
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
    with pytest.raises(DegeneratePencil) as info:
        product_vector_in_2x3_complement([np.eye(6)[0]])
    res = info.value.result
    assert res.found
    assert res.residual <= 1e-9


# --------------------------------------------------- kernel_product_vector


def test_exact_case_22():
    res = kernel_product_vector(explicit_range_state("i"), mode="exact_cases")
    assert res.found
    assert res.evidence_level == "certified"
    assert abs(abs(np.vdot(res.vector, ket(2, 2))) - 1.0) <= 1e-12


def test_exact_case_01():
    res = kernel_product_vector(explicit_range_state("ii"), mode="exact_cases")
    assert res.found
    assert abs(abs(np.vdot(res.vector, ket(0, 1))) - 1.0) <= 1e-12


def test_search_mode_finds_in_generic_kernel():
    res = kernel_product_vector(explicit_range_state("i"), mode="search")
    assert res.found
    assert states.schmidt_rank(res.vector) == 1


def test_no_product_vector_in_obstructed_kernel():
    # kernel = antisymmetric subspace + the balanced Schmidt-rank-3 symmetric
    # vector; the minor objective stays bounded away from zero
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
    res = kernel_product_vector(st, mode="search")
    assert res.found is False
    assert res.evidence_level == "certified"
    _, ker = states.range_kernel(st)
    assert minimize_minor_objective(ker)[0] > 1e-6


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
        res = kernel_product_vector(st, mode="search")
        assert res.found is False
        assert res.evidence_level == "certified"
        assert res.min_objective is None


def test_lemma_leaves_endpoint_kernels_to_the_search():
    for x in (0.0, 1.0):
        _, ker = states.range_kernel(states.build_family("v", x))
        assert ker.shape[1] > 4
        assert not antisymmetric_lemma_applies(ker)


def test_lemma_does_not_fire_on_random_spans():
    # the benchmark's basis-file input: five random real vectors
    for seed in range(5):
        vectors = np.random.default_rng(seed).normal(size=(5, 9, 2))
        st = states.uniform_state_on_span([v[:, 0] + 1j * v[:, 1] for v in vectors])
        _, ker = states.range_kernel(st)
        assert ker.shape == (9, 4)
        assert not antisymmetric_lemma_applies(ker)


def test_lemma_needs_schmidt_rank_three():
    # with s2 = 0 the symmetric vector has Schmidt rank 2, and eq5_vector is
    # a product vector inside the kernel: the search has to find one
    s = (0.5, 0.5, 0.0)
    basis = eq5_family_basis(s)
    assert not antisymmetric_lemma_applies(basis)
    st = state_with_kernel(basis)
    planted = eq5_vector(s)
    assert states.schmidt_rank(planted) == 1
    assert np.linalg.norm(st.rho @ planted) <= 1e-12
    res = kernel_product_vector(st, mode="search")
    assert res.found
    assert res.evidence_level == "searched"
    assert states.schmidt_rank(res.vector) == 1
    assert np.linalg.norm(st.rho @ res.vector) <= 1e-10


def test_minor_objective_matches_rank1_minor_system():
    rng = np.random.default_rng(71)
    basis = np.linalg.qr(rng.normal(size=(9, 4)) + 1j * rng.normal(size=(9, 4)))[0]
    for _ in range(20):
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        value, _ = minor_objective(c.view(np.float64), basis)
        v = basis @ c
        expected = rank1_minor_system(v)[1] / np.linalg.norm(v) ** 4
        assert abs(value - expected) <= 1e-14 * max(expected, 1.0)


def test_minor_objective_gradient_matches_central_differences():
    rng = np.random.default_rng(73)
    h = 1e-6
    for k in (4, 5):
        basis = np.linalg.qr(rng.normal(size=(9, k)) + 1j * rng.normal(size=(9, k)))[0]
        for _ in range(10):
            z = rng.normal(size=2 * k)
            _, grad = minor_objective(z, basis)
            numeric = np.array([
                (minor_objective(z + h * e, basis)[0] - minor_objective(z - h * e, basis)[0]) / (2 * h)
                for e in np.eye(2 * k)
            ])
            assert np.abs(grad - numeric).max() < 1e-8 * np.abs(grad).max()


def test_minor_objective_nonnegative_at_kernel_product_vector():
    # |22> lies in this kernel; the value must not cancel below zero there
    _, ker = states.range_kernel(explicit_range_state("i"))
    c = ker.conj().T @ ket(2, 2)
    assert np.linalg.norm(ker @ c - ket(2, 2)) <= 1e-12
    value, grad = minor_objective(c.view(np.float64), ker)
    assert 0.0 <= value <= 1e-28
    assert np.abs(grad).max() <= 1e-12


def test_empty_kernel_raises():
    full = states.from_density(np.eye(9) / 9.0)
    with pytest.raises(EmptyKernel):
        kernel_product_vector(full, mode="search")


# --------------------------------------------------------- rank-1 minors


def test_minors_product_vector_all_zero():
    minors, total = rank1_minor_system(ket(0, 0))
    np.testing.assert_allclose(minors, np.zeros((3, 3)), atol=1e-15)
    assert total == 0.0


def test_minors_bell_like_entry():
    minors, total = rank1_minor_system(ket(0, 0) + ket(1, 1))
    assert abs(minors[0, 0] - 1.0) <= 1e-15
    assert abs(total - 1.0) <= 1e-15


def test_minors_zero_vector_raises():
    with pytest.raises(states.ZeroVector):
        rank1_minor_system(np.zeros(9))


def test_obstructing_minor_all_sign_branches():
    # purely imaginary off-diagonal couplings sized to kill most minors leave
    # one obstruction whose magnitude is fixed by the diagonal weights alone,
    # for every one of the 8 sign choices
    s = (1 / 3, 1 / 3, 1 / 3)
    target = rank1_exclusion_margin(*s) ** 2
    assert abs(target - 2 / 9) <= 1e-15
    for signs in itertools.product((1, -1), repeat=3):
        minors, total = rank1_minor_system(eq5_vector(s, signs))
        assert abs(abs(minors[0, 1]) ** 2 - target) <= 1e-12
        assert total > 1e-3


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


def test_span_exclusion_contained_produces_vector():
    e = states.symmetric_basis()
    st = states.uniform_state_on_span([ket(0, 0), ket(0, 1), e[1], e[2], e[4]])
    verdict = span_0001_exclusion_check(st)
    assert verdict.contained
    assert verdict.residual_00 <= 1e-10
    assert verdict.residual_01 <= 1e-10
    pv = verdict.product_vector
    assert pv is not None and pv.found
    assert np.linalg.norm(st.rho @ pv.vector) <= 1e-10


def test_span_exclusion_family_not_contained():
    verdict = span_0001_exclusion_check(states.build_family("v", 0.3))
    assert not verdict.contained


def test_span_exclusion_symmetric_range_not_contained():
    # |01> has an antisymmetric component, so a symmetric-subspace range
    # cannot contain it
    e = states.symmetric_basis()
    st = states.uniform_state_on_span(list(e))
    verdict = span_0001_exclusion_check(st)
    assert not verdict.contained
    assert verdict.residual_01 > 0.1


def test_span_exclusion_never_contains_for_families():
    for case in states.CASES:
        for x in (0.1, 1 / 7, 0.3, 0.7):
            assert not span_0001_exclusion_check(states.build_family(case, x)).contained


# -------------------------------------------------- Takagi canonicalization


def host_state_excluding(direction):
    # rank-5 state whose kernel contains the given symmetric vector
    e = states.symmetric_basis()
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
    e = states.symmetric_basis()
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
    e = states.symmetric_basis()
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
        assert states.schmidt_rank(res.vector, dim_a=2, dim_b=3) == 1
        for v in vs:
            assert abs(np.vdot(v, res.vector)) <= 1e-9


def test_converse_family_objective_bounded_away():
    rng = np.random.default_rng(61)
    for k in range(100):
        s = rng.uniform(0.05, 1.0, size=3)
        s = s / s.sum()
        if np.min(s) < 0.05:
            s = s + 0.05
            s = s / s.sum()
        val = eq5_family_min_objective(tuple(s), seed=k)
        assert val > 1e-6, (s, val)


def test_result_json_shape():
    res = kernel_product_vector(explicit_range_state("i"), mode="exact_cases")
    doc = res.to_json()
    assert set(doc.keys()) == {
        "found",
        "factors",
        "residual",
        "min_objective",
        "evidence_level",
    }
    assert set(doc["factors"].keys()) == {"u", "w"}
