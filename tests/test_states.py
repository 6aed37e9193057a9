"""Rank-five symmetric two-qutrit family: construction, local frames,
range/kernel extraction, Schmidt ranks, wrapping a density matrix."""

import warnings

import numpy as np
import pytest

from qutritdistill import linalg, states
from qutritdistill.linalg import partial_transpose
from qutritdistill.states import (
    CASES,
    CASE_INDEX,
    LocalOperator,
    OutOfRange,
    build_family,
    basis_ket,
    SYMMETRIC_BASIS,
    apply_local,
    range_kernel,
    schmidt_rank,
    coefficient_matrix,
    uniform_state_on_span,
)


# ---------------------------------------------------------------------- basis


def test_symmetric_basis_orthonormal():
    e = SYMMETRIC_BASIS
    assert e.shape == (5, 9)
    np.testing.assert_allclose(e.conj() @ e.T, np.eye(5), atol=1e-14)


def test_symmetric_basis_swap_invariant():
    e = SYMMETRIC_BASIS
    for k in range(5):
        np.testing.assert_allclose(states.SWAP @ e[k], e[k], atol=1e-14)


def test_case_index_is_a_permutation():
    assert sorted(CASE_INDEX[c] for c in CASES) == [0, 1, 2, 3, 4]


# --------------------------------------------------------------- build_family


def test_family_pure_at_one():
    st = build_family("v", 1.0)
    assert linalg.matrix_rank(st.rho) == 1
    lam = np.sort(np.linalg.eigvalsh(st.rho))
    np.testing.assert_allclose(lam[-1], 1.0, atol=1e-12)
    assert np.sum(lam > 1e-12) == 1


def test_family_uniform_point_is_projector_fifth():
    # x = 1/5: all five weights equal, so rho is the symmetric projector / 5
    st = build_family("v", 0.2)
    e = SYMMETRIC_BASIS
    proj = e.T @ e.conj()
    np.testing.assert_allclose(st.rho, proj / 5.0, atol=1e-12)
    # and the point is inside the PPT window of this branch
    g = partial_transpose(st.rho)
    assert np.min(np.linalg.eigvalsh(g)) >= -1e-12


def test_family_npt_point():
    g = partial_transpose(build_family("i", 0.5).rho)
    assert np.min(np.linalg.eigvalsh(g)) < -1e-6


def test_family_rejects_out_of_range():
    for bad in (-0.1, 1.0001, 2.0):
        with pytest.raises(OutOfRange):
            build_family("v", bad)
    with pytest.raises(Exception):
        build_family("nope", 0.3)


def test_family_degenerate_flag_at_zero():
    # x = 0 drops the case's eigenvector from the range: rank four, not five
    assert linalg.matrix_rank(build_family("i", 0.0).rho) == 4
    assert linalg.matrix_rank(build_family("i", 0.3).rho) == 5


def test_family_invariants_over_grid():
    for case in CASES:
        for x in np.linspace(0.01, 0.99, 15):
            st = build_family(case, float(x))
            assert abs(np.trace(st.rho) - 1.0) <= 1e-12
            lam = np.linalg.eigvalsh(st.rho)
            assert lam[0] >= -1e-12
            assert np.sum(lam > 1e-10) == 5
            # support inside the symmetric subspace
            np.testing.assert_allclose(
                states.SWAP @ st.rho @ states.SWAP, st.rho, atol=1e-12
            )


def test_family_bitwise_equals_fresh_basis_sum():
    # build_family and family_stack read the basis built once at import; a
    # basis rebuilt from its kets gives the same rho, bit for bit, for every
    # case and x, one state at a time and as one stack over the whole grid
    fresh = states._symmetric_eigenvectors()
    assert SYMMETRIC_BASIS.tobytes() == fresh.tobytes()
    xs = np.linspace(0.0, 1.0, 101)
    for case in CASES:
        dense = []
        for x in xs:
            lam = np.full(5, (1.0 - x) / 4.0)
            lam[CASE_INDEX[case]] = x
            rho = np.zeros((9, 9), dtype=complex)
            for w, vec in zip(lam, fresh):
                rho += w * np.outer(vec, vec.conj())
            assert build_family(case, float(x)).rho.tobytes() == rho.tobytes(), (case, x)
            dense.append(rho)
        assert states.family_stack(case, xs).tobytes() == np.array(dense).tobytes(), case


def test_symmetric_basis_is_read_only():
    # build_family reads SYMMETRIC_BASIS: a write into it raises, so no
    # caller can change a later state
    before = build_family("v", 0.3).rho
    with pytest.raises(ValueError):
        SYMMETRIC_BASIS[:] = 0
    assert build_family("v", 0.3).rho.tobytes() == before.tobytes()
    assert SYMMETRIC_BASIS.tobytes() == states._symmetric_eigenvectors().tobytes()


def test_family_weight_placement():
    # the case label selects which basis vector carries weight x
    for case in CASES:
        st = build_family(case, 0.9)
        e = SYMMETRIC_BASIS
        k = CASE_INDEX[case]
        val = float(np.real(e[k].conj() @ st.rho @ e[k]))
        assert abs(val - 0.9) <= 1e-12


def test_family_stack_is_each_build_family_bit_for_bit():
    xs = np.r_[0.0, np.linspace(0.0, 1.0, 37), 1 / 7, 1.0]
    for case in CASES:
        rhos = states.family_stack(case, xs)
        assert rhos.shape == (len(xs), 9, 9)
        for rho, x in zip(rhos, xs):
            assert np.array_equal(rho, build_family(case, float(x)).rho)


def test_family_stack_rejects_any_x_outside_the_unit_interval():
    with pytest.raises(states.OutOfRange, match="x=1.5 outside"):
        states.family_stack("v", [0.0, 0.5, 1.5])
    with pytest.raises(states.OutOfRange):
        states.family_stack("v", [np.nan])
    with pytest.raises(ValueError, match="unknown case"):
        states.family_stack("vi", [0.5])


# ---------------------------------------------------------------- apply_local


def test_apply_local_identity():
    st = build_family("iii", 0.4)
    out = apply_local(st, LocalOperator(np.eye(3), np.eye(3)))
    np.testing.assert_allclose(out, st.rho, atol=1e-14)


def test_apply_local_hadamard_maps_case_i_to_ii():
    k = states.hadamard_on_01()
    op = LocalOperator(k, k)
    for x in (0.1, 0.3, 0.7):
        out = apply_local(build_family("i", x), op)
        np.testing.assert_allclose(out, build_family("ii", x).rho, atol=1e-12)


def test_apply_local_phase_mix_keeps_spectrum():
    k = states.phase_mix_on_01()
    op = LocalOperator(k, k.conj())
    st = build_family("v", 1 / 7)
    out = apply_local(st, op)
    assert np.linalg.norm(out - out.conj().T) <= 1e-12
    np.testing.assert_allclose(
        np.linalg.eigvalsh(out), np.linalg.eigvalsh(st.rho), atol=1e-12
    )


def test_local_unitary_spectrum_invariance():
    rng = np.random.default_rng(29)
    st = build_family("v", 0.35)
    for _ in range(20):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        out = apply_local(st, LocalOperator(q, q))
        np.testing.assert_allclose(
            np.linalg.eigvalsh(out), np.linalg.eigvalsh(st.rho), atol=1e-11
        )


# --------------------------------------------------------------- range_kernel


def test_range_kernel_dimensions_and_annihilation():
    st = build_family("v", 0.2)
    rng_cols, ker_cols = range_kernel(st)
    assert rng_cols.shape == (9, 5)
    assert ker_cols.shape == (9, 4)
    np.testing.assert_allclose(rng_cols.conj().T @ rng_cols, np.eye(5), atol=1e-12)
    np.testing.assert_allclose(ker_cols.conj().T @ ker_cols, np.eye(4), atol=1e-12)
    assert np.linalg.norm(st.rho @ ker_cols) <= 1e-12
    # range columns reproduce the support projector
    p = rng_cols @ rng_cols.conj().T
    np.testing.assert_allclose(p @ st.rho, st.rho, atol=1e-12)


def test_range_kernel_splits_by_the_zero_rule():
    # eigenvalues within 1e-10 of the largest are kernel, as for the inertia
    rho = np.diag([1.0, 1e-9, 1e-10, 1e-11, 0, 0, 0, 0, 0]).astype(complex)
    rng_cols, ker_cols = range_kernel(rho)
    assert rng_cols.shape == (9, 2) and ker_cols.shape == (9, 7)
    assert (linalg.spectrum_signs(np.linalg.eigvalsh(rho)) > 0).sum() == 2


def test_range_kernel_spans_are_orthogonal():
    st = build_family("ii", 0.6)
    rng_cols, ker_cols = range_kernel(st)
    assert np.linalg.norm(rng_cols.conj().T @ ker_cols) <= 1e-12


# --------------------------------------------------------------- schmidt_rank


def test_schmidt_rank_values():
    assert schmidt_rank(basis_ket(1, 2)) == 1
    e = SYMMETRIC_BASIS
    assert schmidt_rank(e[3]) == 2
    assert schmidt_rank(e[4]) == 3


def test_schmidt_rank_zero_vector_raises():
    with pytest.raises(states.ZeroVector):
        schmidt_rank(np.zeros(9))


def test_schmidt_rank_rejects_non_finite_vectors():
    # the SVD used to fail with numpy's untyped LinAlgError, after a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(linalg.NonFiniteValue):
            schmidt_rank(np.full(9, np.nan))
        with pytest.raises(linalg.NonFiniteValue):
            schmidt_rank(np.r_[np.inf, np.zeros(8)])


def test_coefficient_matrix_row_col_convention():
    # |ab> must land at entry (a, b)
    c = coefficient_matrix(basis_ket(1, 2))
    expect = np.zeros((3, 3))
    expect[1, 2] = 1.0
    np.testing.assert_allclose(c, expect, atol=1e-15)


# ------------------------------------------------------- partial-transpose ties


def test_pt_spectra_pair_i_ii():
    for x in np.linspace(0.01, 0.99, 33):
        a = np.linalg.eigvalsh(partial_transpose(build_family("i", float(x)).rho))
        b = np.linalg.eigvalsh(partial_transpose(build_family("ii", float(x)).rho))
        np.testing.assert_allclose(a, b, atol=1e-10)


def test_pt_spectra_pair_iii_iv():
    for x in np.linspace(0.01, 0.99, 33):
        a = np.linalg.eigvalsh(partial_transpose(build_family("iii", float(x)).rho))
        b = np.linalg.eigvalsh(partial_transpose(build_family("iv", float(x)).rho))
        np.testing.assert_allclose(a, b, atol=1e-10)


# ---------------------------------------------------------------- construction


def test_uniform_state_on_span():
    span = [basis_ket(0, 0), basis_ket(1, 1), basis_ket(2, 2)]
    st = uniform_state_on_span(span)
    lam = np.sort(np.linalg.eigvalsh(st.rho))[::-1]
    np.testing.assert_allclose(lam[:3], [1 / 3] * 3, atol=1e-12)
    assert np.all(np.abs(lam[3:]) <= 1e-12)


def test_uniform_state_on_span_redundant_vectors():
    # linearly dependent input collapses to the actual span dimension
    span = [basis_ket(0, 0), basis_ket(0, 0), basis_ket(1, 1)]
    st = uniform_state_on_span(span)
    lam = np.sort(np.linalg.eigvalsh(st.rho))[::-1]
    np.testing.assert_allclose(lam[:2], [0.5, 0.5], atol=1e-12)


def test_uniform_state_on_span_skips_vectors_that_add_no_direction():
    # a dependent vector placed before an independent one must not take
    # the latter's direction from the span
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.normal(size=(3, 9)) + 1j * rng.normal(size=(3, 9))
        st = uniform_state_on_span([a[0], a[1], a[0] + a[1], a[2]])
        q = np.linalg.qr(a.T)[0]
        np.testing.assert_allclose(st.rho, q @ q.conj().T / 3, atol=1e-12)
    e = SYMMETRIC_BASIS
    st = uniform_state_on_span([e[0]] + list(e))
    np.testing.assert_allclose(st.rho, e.T @ e.conj() / 5, atol=1e-12)


# ------------------------------------------------------------- from_density


def test_from_density_normalizes():
    st = build_family("v", 0.3)
    again = states.from_density(2.0 * st.rho)
    np.testing.assert_allclose(again.rho, st.rho, atol=1e-12)
    assert again.case_id is None and again.x is None


# ------------------------------------------------------------ input checks


@pytest.mark.parametrize("call, error, message", [
    (lambda: LocalOperator(np.ones((2, 3)), np.eye(3)), linalg.DimensionMismatch,
     "must be square"),
    (lambda: LocalOperator(np.eye(3), 2 * np.eye(3)), ValueError, "not unitary"),
    (lambda: apply_local(np.eye(4), LocalOperator(np.eye(3), np.eye(3))),
     linalg.DimensionMismatch, "operator acts on dimension 9, state has 4"),
    (lambda: states.from_density(np.diag([1.0, -1.0] + [0.0] * 7)), states.ZeroVector,
     "trace is zero"),
    (lambda: coefficient_matrix(np.ones(8)), linalg.DimensionMismatch, "vector length 8 != 9"),
], ids=["non_square_operator", "non_unitary_operator", "apply_local_dimension",
        "zero_trace_density", "coefficient_matrix_length"])
def test_states_reject_malformed_input(call, error, message):
    with pytest.raises(error, match=message):
        call()
