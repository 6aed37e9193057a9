"""Dense linear-algebra helpers: eigendecompositions, partial transpose,
Takagi factorization, inertia, principal minors, ranks, pencil roots."""

import warnings

import numpy as np
import pytest

from conftest import bits, kron_rows, random_hermitian, random_symmetric

from qutritdistill import states, minors
from qutritdistill.linalg import (
    NonFiniteValue,
    NotHermitian,
    NotSymmetric,
    DimensionMismatch,
    check_hermitian,
    eig_hermitian,
    partial_transpose,
    partial_trace,
    matrix_rank,
    takagi,
    inertia_of_spectrum,
    kron_eye3,
    leading_principal_minors,
    pencil_roots,
)


def state_v(x):
    return states.build_family("v", x)


# ---------------------------------------------------------------- eig_hermitian


def test_eig_diagonal_sorted_ascending():
    dec = eig_hermitian(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(dec.values, [1.0, 2.0, 3.0], atol=1e-14)
    # columns are eigenvectors in the same order
    for k, lam in enumerate(dec.values):
        v = dec.vectors[:, k]
        np.testing.assert_allclose(np.diag([3.0, 1.0, 2.0]) @ v, lam * v, atol=1e-13)


def test_eig_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_non_finite_matrices_are_not_hermitian():
    # a NaN defect compares False against any bound, so a non-finite entry
    # is rejected before the defect test, and without a RuntimeWarning
    nan_pair = np.eye(9)
    nan_pair[0, 1] = nan_pair[1, 0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotHermitian, match=r"non-finite entries at \[\[0, 1\], \[1, 0\]\]"):
            eig_hermitian(np.array([[1.0, np.nan], [np.nan, 1.0]]))
        with pytest.raises(NotHermitian, match=r"non-finite entries at \[\[0, 0\]\]"):
            check_hermitian(np.diag([np.inf, 1.0]))
        with pytest.raises(NotHermitian, match="non-finite"):
            states.from_density(nan_pair)


def test_check_hermitian_bounds_each_matrix_of_a_stack_by_its_own_scale():
    # a defect that a matrix with entries near 1e6 tolerates fails one near 1
    big = np.diag([1e6, 1.0]).astype(complex)
    small = np.eye(2, dtype=complex)
    big[0, 1] = small[0, 1] = 1e-7
    check_hermitian(big)
    assert check_hermitian(np.stack([big, np.eye(2)])).shape == (2, 2, 2)
    with pytest.raises(NotHermitian, match="defect 1.000e-07 exceeds 1.000e-12"):
        check_hermitian(np.stack([big, small]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotHermitian, match=r"non-finite entries at \[\[1, 0, 0\]\]"):
            check_hermitian(np.stack([np.eye(2), np.diag([np.nan, 1.0])]))


def test_eig_hermitian_of_a_stack_is_each_decomposition_bit_for_bit():
    rng = np.random.default_rng(8)
    hs = np.stack([random_hermitian(rng, 9) for _ in range(30)])
    dec = eig_hermitian(hs)
    assert dec.values.shape == (30, 9) and dec.vectors.shape == (30, 9, 9)
    for h, w, v in zip(hs, dec.values, dec.vectors):
        one = eig_hermitian(h)
        assert np.array_equal(one.values, w) and np.array_equal(one.vectors, v)


def test_eig_reconstructs_random_hermitian():
    rng = np.random.default_rng(7)
    for n in (2, 5, 9, 16):
        for _ in range(25):
            h = random_hermitian(rng, n)
            dec = eig_hermitian(h)
            rebuilt = (dec.vectors * dec.values) @ dec.vectors.conj().T
            assert np.linalg.norm(rebuilt - h) <= 1e-10 * max(1.0, np.linalg.norm(h))


# ------------------------------------------------------------ partial transpose


def test_pt_two_qubit_bell():
    # (|00> + |11>)/sqrt2 on levels 0 and 1 of each qutrit
    bell = np.zeros(9)
    bell[0] = bell[4] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell)
    g = partial_transpose(rho)
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(g)), [-0.5] + [0.0] * 5 + [0.5] * 3, atol=1e-12
    )


def test_pt_product_projector_fixed():
    # |01><01| is a product state: transposing one factor changes nothing
    rho = np.outer(states.basis_ket(0, 1), states.basis_ket(0, 1))
    np.testing.assert_allclose(partial_transpose(rho), rho, atol=1e-15)


def test_pt_involution():
    rng = np.random.default_rng(3)
    for _ in range(100):
        h = random_hermitian(rng, 9)
        g = partial_transpose(partial_transpose(h))
        assert np.linalg.norm(g - h) <= 1e-14 * max(1.0, np.linalg.norm(h))


def test_pt_trace_preserved():
    rng = np.random.default_rng(4)
    for _ in range(50):
        h = random_hermitian(rng, 9)
        g = partial_transpose(h)
        assert abs(np.trace(g) - np.trace(h)) <= 1e-12


def test_pt_qutrit_max_entangled_gives_swap():
    phi = np.zeros(9)
    phi[[0, 4, 8]] = 1 / np.sqrt(3)
    rho = np.outer(phi, phi)
    np.testing.assert_allclose(partial_transpose(rho), states.SWAP / 3.0, atol=1e-12)


def test_pt_other_factor_via_full_transpose():
    # transposing the second factor = transposing the first, then everything
    rng = np.random.default_rng(11)
    h = random_hermitian(rng, 9)
    np.testing.assert_allclose(
        partial_transpose(h).T, partial_transpose(h.T), atol=1e-14
    )


def test_pt_example_family_inertia():
    # rank-five family member known to have exactly one negative eigenvalue
    # after transposing one side, all others strictly positive
    g = partial_transpose(state_v(1 / 7).rho)
    ine = inertia_of_spectrum(eig_hermitian(g).values)
    assert (ine.negative, ine.zero, ine.positive) == (1, 0, 8)


def test_pt_inertia_against_charpoly_roots():
    # independent route: characteristic polynomial roots via np.roots
    g = partial_transpose(state_v(1 / 7).rho)
    roots = np.roots(np.poly(g))
    # double roots split into conjugate pairs at roughly sqrt(eps) accuracy
    assert np.max(np.abs(roots.imag)) < 1e-6
    re = np.sort(roots.real)
    assert int(np.sum(re < -1e-8)) == 1
    assert int(np.sum(np.abs(re) <= 1e-8)) == 0
    lam = np.sort(np.linalg.eigvalsh(g))
    np.testing.assert_allclose(re, lam, atol=1e-6)


def test_pt_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        partial_transpose(np.eye(6))


def test_pt_of_a_stack_transposes_each_matrix():
    rng = np.random.default_rng(4)
    rhos = rng.normal(size=(2, 5, 9, 9)) + 1j * rng.normal(size=(2, 5, 9, 9))
    before = rhos.copy()
    g = partial_transpose(rhos)
    assert g.shape == rhos.shape
    assert np.array_equal(rhos, before) and not np.shares_memory(g, rhos)
    for idx in np.ndindex(2, 5):
        assert np.array_equal(g[idx], partial_transpose(rhos[idx]))
    with pytest.raises(DimensionMismatch):
        partial_transpose(rhos[..., :8])


# --------------------------------------------------------------- partial trace


def test_partial_trace_product():
    a = np.diag([0.25, 0.7, 0.05])
    b = np.diag([0.5, 0.3, 0.2])
    rho = np.kron(a, b)
    np.testing.assert_allclose(partial_trace(rho, keep="A"), a, atol=1e-14)
    np.testing.assert_allclose(partial_trace(rho, keep="B"), b, atol=1e-14)


def test_partial_trace_marginals_of_family():
    rho = state_v(0.3).rho
    ra = partial_trace(rho, keep="A")
    rb = partial_trace(rho, keep="B")
    assert abs(np.trace(ra) - 1.0) <= 1e-12
    assert abs(np.trace(rb) - 1.0) <= 1e-12
    # symmetric-subspace construction: both marginals coincide
    np.testing.assert_allclose(ra, rb, atol=1e-12)


# --------------------------------------------------------------------- takagi


def test_takagi_identity():
    fac = takagi(np.eye(3))
    np.testing.assert_allclose(fac.singular_values, [1.0, 1.0, 1.0], atol=1e-12)


def test_takagi_offdiagonal_pair():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    fac = takagi(m)
    np.testing.assert_allclose(fac.singular_values, [1.0, 1.0], atol=1e-12)
    rebuilt = fac.unitary @ np.diag(fac.singular_values) @ fac.unitary.T
    assert np.linalg.norm(rebuilt - m) <= 1e-12


def test_takagi_symmetric_basis_vector():
    # coefficient matrix of the (|01>+|10>)/sqrt2 basis element
    e = states.symmetric_basis()[3]
    c = states.coefficient_matrix(e)
    fac = takagi(c)
    np.testing.assert_allclose(
        fac.singular_values, [1 / np.sqrt(2), 1 / np.sqrt(2), 0.0], atol=1e-12
    )


def test_takagi_rejects_nonsymmetric():
    with pytest.raises(NotSymmetric):
        takagi(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_takagi_rejects_non_finite_entries():
    # a NaN defect compares False against the symmetry bound: without the
    # finiteness test takagi returned singular values [1, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotSymmetric, match=r"non-finite entries at \[\[0, 0\]\]"):
            takagi(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(NotSymmetric, match="non-finite"):
            takagi(np.array([[1.0, np.inf], [np.inf, 1.0]]))


def test_takagi_reconstruction_random():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 10))
        m = random_symmetric(rng, n)
        fac = takagi(m)
        assert np.all(np.diff(fac.singular_values) <= 1e-12)  # sorted descending
        assert np.all(fac.singular_values >= -1e-14)
        rebuilt = fac.unitary @ np.diag(fac.singular_values) @ fac.unitary.T
        assert np.linalg.norm(rebuilt - m) <= 1e-9 * max(1.0, np.linalg.norm(m))
        # singular values must agree with the plain SVD of the same matrix
        sv = np.linalg.svd(m, compute_uv=False)
        np.testing.assert_allclose(fac.singular_values, sv, atol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_takagi_completion_is_unitary(n):
    # the columns for zero singular values multiply zeros, so only U^dag U
    # sees them; rank 0 is the zero matrix
    rng = np.random.default_rng(40 + n)
    for rank in range(n):
        for _ in range(300):
            v = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
            a = v @ v.T
            fac = takagi(a)
            u = fac.unitary
            assert np.abs(u.conj().T @ u - np.eye(n)).max() <= 1e-12, (n, rank)
            rebuilt = u @ np.diag(fac.singular_values) @ u.T
            assert np.abs(rebuilt - a).max() <= 1e-12 * max(1.0, np.abs(a).max()), (n, rank)


# -------------------------------------------------------------------- inertia


def test_inertia_zero_matrix():
    ine = inertia_of_spectrum(eig_hermitian(np.zeros((9, 9))).values)
    assert (ine.negative, ine.zero, ine.positive) == (0, 9, 0)


def test_inertia_rank_five_state():
    ine = inertia_of_spectrum(eig_hermitian(state_v(1 / 7).rho).values)
    assert (ine.negative, ine.zero, ine.positive) == (0, 4, 5)


def test_inertia_distillable_point_two_negative():
    g = partial_transpose(state_v(0.5).rho)
    assert inertia_of_spectrum(eig_hermitian(g).values).negative >= 2


def test_inertia_of_stacked_spectra_counts_each_row():
    rng = np.random.default_rng(6)
    ws = np.sort(rng.normal(size=(3, 4, 9)), axis=-1)
    ws[0, 0, :4] = 0.0
    ine = inertia_of_spectrum(ws)
    assert all(c.shape == (3, 4) for c in ine)
    for idx in np.ndindex(3, 4):
        one = inertia_of_spectrum(ws[idx])
        assert all(type(c) is int for c in one)
        assert tuple(one) == tuple(int(c[idx]) for c in ine)


def test_inertia_counts_sum_to_dimension():
    rng = np.random.default_rng(13)
    for _ in range(50):
        h = random_hermitian(rng, 7)
        ine = inertia_of_spectrum(eig_hermitian(h).values)
        assert ine.negative + ine.zero + ine.positive == 7


# ---------------------------------------------------- leading principal minors


def test_minors_identity():
    np.testing.assert_allclose(leading_principal_minors(np.eye(4)), [1, 1, 1, 1])


def test_minors_diagonal():
    np.testing.assert_allclose(
        leading_principal_minors(np.diag([2.0, 3.0, -1.0])), [2.0, 6.0, -6.0],
        atol=1e-12,
    )


def test_minors_last_equals_det():
    rng = np.random.default_rng(17)
    for _ in range(50):
        h = random_hermitian(rng, 6)
        mins = leading_principal_minors(h)
        det = np.linalg.det(h).real
        assert abs(mins[-1] - det) <= 1e-10 * max(1.0, abs(det))


def test_minor4_of_reference_compression():
    # exact value of the fourth leading principal minor of the (b, c) = (0, 0)
    # compression; test_minors.py::test_closed_forms_equal_exact_minors
    # derives it in Gaussian-rational arithmetic
    m = minors.build_projected(2, (0.0, 0.0))
    mins = leading_principal_minors(m)
    assert abs(mins[3] - 640 / 5531904) <= 1e-12


def test_sylvester_exhaustive_principal_minors():
    # positive definiteness of H equals positivity of all leading principal
    # minors; cross-check against the full eigenvalue route, skipping
    # near-singular draws where both sides are numerically ambiguous
    rng = np.random.default_rng(19)
    checked = 0
    while checked < 100:
        h = random_hermitian(rng, 5)
        lam = np.linalg.eigvalsh(h)
        if np.min(np.abs(lam)) < 1e-6:
            continue
        mins = leading_principal_minors(h)
        if np.min(np.abs(mins)) < 1e-9:
            continue
        assert (np.min(lam) > 0) == bool(np.all(mins > 0))
        checked += 1


# ------------------------------------------------------------------ positivity


def test_is_psd_family_states():
    for case in ("i", "ii", "iii", "iv", "v"):
        assert np.linalg.eigvalsh(states.build_family(case, 0.3).rho)[0] >= -1e-10


def test_is_psd_compressions_along_axis():
    for a in (0.0, 1.0, -1.0, 1j, -1j, 1 + 1j):
        m = minors.build_projected(1, (a,))
        assert np.linalg.eigvalsh(m)[0] >= -1e-10


# ----------------------------------------------------------------------- kron


def test_kron_eye3_bitwise_equals_np_kron():
    # the broadcast multiply forms np.kron's own products, so every bit
    # agrees, signed zeros included: for the 2x3 rows R of projected_matrix
    # and compression_bases and for the 3x2 R^dag that distill._lift takes
    eye = np.eye(3, dtype=complex)
    negative_zeros = 0
    for rows in kron_rows():
        for mat in (rows, rows.conj().T):
            got, want = kron_eye3(mat), np.kron(mat, eye)
            assert got.shape == want.shape
            assert np.array_equal(bits(got), bits(want))
            for part in ("real", "imag"):
                assert np.array_equal(np.signbit(getattr(got, part)),
                                      np.signbit(getattr(want, part)))
            negative_zeros += np.count_nonzero((want.view(np.float64) == 0)
                                               & np.signbit(want.view(np.float64)))
    assert negative_zeros > 0


def test_kron_flip_action():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    v = np.zeros(4)
    v[0] = 1.0
    out = np.kron(x, np.eye(2)) @ v
    expect = np.zeros(4)
    expect[2] = 1.0
    np.testing.assert_allclose(out, expect)


def test_kron_local_rotation_on_basis():
    k = states.hadamard_on_01()
    e = states.symmetric_basis()
    out = np.kron(k, k) @ e[0]
    np.testing.assert_allclose(out, e[3], atol=1e-12)


# -------------------------------------------------------------- Schmidt values


def test_svd_of_coefficient_matrix():
    e = states.symmetric_basis()[4]
    s = np.linalg.svd(states.coefficient_matrix(e), compute_uv=False)
    np.testing.assert_allclose(
        s, [2 / np.sqrt(6), 1 / np.sqrt(6), 1 / np.sqrt(6)], atol=1e-12
    )


# ---------------------------------------------------------------- matrix_rank


def test_matrix_rank_examples():
    assert matrix_rank(np.zeros((3, 3))) == 0
    assert matrix_rank(states.coefficient_matrix(np.kron([1, 0, 0], [1, 0, 0]))) == 1
    assert matrix_rank(np.diag([1.0, 2.0, 3.0])) == 3
    two = np.zeros((3, 3))
    two[0, 0] = two[1, 1] = 1.0
    assert matrix_rank(two) == 2


def test_matrix_rank_rejects_non_finite_entries():
    # the SVD used to fail with numpy's untyped LinAlgError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue, match=r"non-finite entries at \[\[0, 0\]\]"):
            matrix_rank(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(NonFiniteValue):
            matrix_rank(np.full((3, 3), np.inf))


# ---------------------------------------------------------------- pencil_roots


def test_pencil_roots_diagonal_with_root_at_infinity():
    # det(m a + n b) = (m + n)(2m)(3n): roots (1 : -1), (0 : 1) where b is
    # singular, and (1 : 0) where a is
    a = np.diag([1.0, 2.0, 0.0])
    b = np.diag([1.0, 0.0, 3.0])
    roots = pencil_roots(a, b)
    assert roots.shape == (3, 2)
    np.testing.assert_allclose(np.linalg.norm(roots, axis=1), 1.0, atol=1e-15)
    for m, n in roots:
        assert abs(np.linalg.det(m * a + n * b)) <= 1e-15
    ratios = sorted(abs(m) / abs(n) if abs(n) > 0 else np.inf for m, n in roots)
    np.testing.assert_allclose(ratios, [0.0, 1.0, np.inf], atol=1e-15)


def test_pencil_roots_with_a_zero_matrix():
    # det(m 0 + n I) = n^3 and det(m I + n 0) = m^3: a triple root at
    # (1 : 0), resp. (0 : 1); the direction where the pencil is zero has
    # scale zero and must not be the one solved
    eye = np.eye(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b, root in ((np.zeros((3, 3)), eye, (1, 0)), (eye, np.zeros((3, 3)), (0, 1))):
            roots = pencil_roots(a, b)
            assert roots.shape == (3, 2)
            np.testing.assert_allclose(np.abs(roots), np.tile(root, (3, 1)), atol=1e-15)


def test_pencil_roots_singular_pencil():
    # a and b share the null vector e_2: det(m a + n b) = 0 for every (m, n),
    # and every root is NaN
    a = np.diag([1.0, 2.0, 0.0])
    b = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    for pair in ((a, b), (np.zeros((3, 3)), np.zeros((3, 3)))):
        roots = pencil_roots(*pair)
        assert roots.shape == (3, 2) and np.isnan(roots).all()


def test_pencil_roots_of_a_stack_are_each_pair_alone_bit_for_bit():
    # a stack solves every pair as pencil_roots solves it alone; a pair whose
    # pencil vanishes identically gets NaN roots and leaves the others alone
    rng = np.random.default_rng(12)
    a = rng.normal(size=(6, 3, 3)) + 1j * rng.normal(size=(6, 3, 3))
    b = rng.normal(size=(6, 3, 3)) + 1j * rng.normal(size=(6, 3, 3))
    a[2], b[2] = np.diag([1.0, 2.0, 0.0]), np.diag([1.0, 0.0, 3.0])
    a[4], b[4] = np.diag([1.0, 2.0, 0.0]), np.diag([3.0, 1.0, 0.0])  # shared null vector
    roots = pencil_roots(a.reshape(2, 3, 3, 3), b.reshape(2, 3, 3, 3)).reshape(6, 3, 2)
    for k in range(6):
        assert np.array_equal(roots[k], pencil_roots(a[k], b[k]), equal_nan=True)
        assert np.isnan(roots[k]).all() == (k == 4)
