"""NPT checks, the projection witness, PPT thresholds, and the
precondition battery for undistillability evidence."""

import numpy as np
import pytest

from conftest import bits, kron_rows

from qutritdistill import distill, linalg, states
from qutritdistill.distill import (
    NoSignChange,
    find_threshold,
    npt_check,
    precondition_report,
    projected_min_eig,
    witness_search,
    witness_to_pt_vector,
)
from qutritdistill.linalg import partial_transpose


C1 = (33 - 12 * np.sqrt(6)) / 25
C2 = (24 * np.sqrt(2) - 33) / 7


def pt_mat(state):
    return partial_transpose(state.rho)


# ------------------------------------------------------------------ npt_check


def test_npt_check_one_negative_point():
    rep = npt_check(states.build_family("v", 1 / 7))
    assert rep.is_npt
    assert tuple(rep.inertia) == (1, 0, 8)
    assert rep.inertia.negative == 1
    assert rep.min_eig_gamma < -1e-4


def test_npt_check_ppt_window():
    rep = npt_check(states.build_family("v", 0.2))
    assert not rep.is_npt
    assert rep.inertia.negative == 0
    assert rep.min_eig_gamma >= -1e-12


def test_npt_check_two_negative_point():
    rep = npt_check(states.build_family("v", 0.5))
    assert rep.is_npt
    assert rep.inertia.negative >= 2


def test_is_npt_follows_the_inertia():
    # one rule: NPT exactly when the inertia counts a negative eigenvalue,
    # also inside 1e-10 of the PPT boundary c1 of case v
    for case in states.CASES:
        for x in np.linspace(0.0, 1.0, 500):
            rep = npt_check(states.build_family(case, float(x)))
            assert rep.is_npt == (rep.inertia.negative > 0), (case, x)
    below = npt_check(states.build_family("v", C1 - 1e-10))
    above = npt_check(states.build_family("v", C1 + 1e-10))
    assert below.is_npt and tuple(below.inertia) == (1, 0, 8)
    assert not above.is_npt and tuple(above.inertia) == (0, 0, 9)


def test_npt_check_matches_direct_eigenvalues():
    for case in ("i", "iii", "v"):
        for x in (0.05, 0.2, 0.8):
            st = states.build_family(case, x)
            rep = npt_check(st)
            lam = np.linalg.eigvalsh(partial_transpose(st.rho))
            assert abs(rep.min_eig_gamma - lam[0]) <= 1e-12
            assert rep.inertia.negative == int(np.sum(lam < -1e-10))


# --------------------------------------------------------------- projections


def test_projected_min_eig_matches_dense_eig():
    rng = np.random.default_rng(31)
    st = states.build_family("v", 0.5)
    g = pt_mat(st)
    for _ in range(10):
        m = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        q, _ = np.linalg.qr(m.conj().T)
        rows = q.conj().T
        lifted = np.kron(rows, np.eye(3))
        dense = np.linalg.eigvalsh(lifted @ g @ lifted.conj().T)[0]
        assert abs(projected_min_eig(g, rows) - dense) <= 1e-12


def test_projected_matrix_bitwise_equals_kron_formula():
    g = pt_mat(states.build_family("v", 1 / 7))
    eye = np.eye(3, dtype=complex)
    u = np.random.default_rng(44).normal(size=6) + 0j
    for rows in kron_rows():
        r = np.kron(rows, eye)
        assert np.array_equal(bits(distill.projected_matrix(g, rows)),
                              bits(r @ g @ r.conj().T))
        assert np.array_equal(bits(distill._lift(rows, u)),
                              bits(np.kron(rows.conj().T, eye) @ u))


# ------------------------------------------------------------- witness search


def test_witness_found_case_i_low_x():
    rep = witness_search(states.build_family("i", 0.05))
    assert rep.witness is not None
    assert rep.best_value < -1e-10
    assert rep.evidence_level == "certified"


def test_witness_found_case_v_high_x():
    rep = witness_search(states.build_family("v", 0.9))
    assert rep.witness is not None
    assert rep.best_value < -1e-10


def test_no_witness_at_reference_point():
    st = states.build_family("v", 1 / 7)
    rep = witness_search(st)
    assert rep.witness is None
    assert rep.best_value is not None and rep.best_value > -1e-12


def test_witness_soundness_reverify():
    # a certified witness must reproduce its negative value from scratch
    for case, x in (("i", 0.05), ("i", 0.3), ("v", 0.5), ("v", 0.9)):
        st = states.build_family(case, x)
        rep = witness_search(st)
        assert rep.witness is not None
        g = pt_mat(st)
        val = projected_min_eig(g, rep.witness)
        assert val < -1e-12
        assert abs(val - rep.best_value) <= 1e-9


def test_witness_lifts_to_schmidt_rank_two_vector():
    st = states.build_family("v", 0.5)
    rep = witness_search(st)
    g = pt_mat(st)
    vec, val = witness_to_pt_vector(g, rep.witness)
    assert states.schmidt_rank(vec) <= 2
    direct = float(np.real(vec.conj() @ g @ vec))
    assert abs(val - direct) <= 1e-12
    assert val < -1e-12


def test_witness_search_deterministic():
    for x in (1 / 7, 0.5):
        st = states.build_family("v", x)
        a, b = witness_search(st), witness_search(st)
        assert a.best_value == b.best_value
        assert a.to_json() == b.to_json()
        assert a.to_json()["evaluations"] == 1


def _same_report(a, b) -> bool:
    """Two reports agree bit for bit: spectrum, value, witness rows, level."""
    return (np.array_equal(a.spectrum, b.spectrum)
            and np.float64(a.best_value).tobytes() == np.float64(b.best_value).tobytes()
            and (a.witness is None) == (b.witness is None)
            and (a.witness is None or np.array_equal(a.witness, b.witness))
            and a.evidence_level == b.evidence_level)


@pytest.mark.parametrize("case", states.CASES)
def test_witness_stack_rows_are_witness_search_bit_for_bit(case):
    # the scan's x-grids: the end points alone, two steps over [0, 1], a
    # two-point sub-interval and a finer one across the PPT boundaries
    grids = ([0.0], [1.0], np.linspace(0.0, 1.0, 2), np.linspace(0.1, 0.2, 2),
             np.linspace(C1, 3 / 11, 37), np.linspace(0.0, 1.0, 200))
    for xs in grids:
        res = distill.witness_stack(states.family_stack(case, xs))
        for k, x in enumerate(xs):
            one = witness_search(states.build_family(case, float(x)))
            assert _same_report(res.report(k), one), (case, x)
            assert res.negative[k] == one.inertia.negative
            assert bool(res.found[k]) == (one.witness is not None)


def test_witness_stack_falls_back_per_row_on_a_vanishing_pencil():
    # a stack whose middle member has negative eigenvectors |00> and |01>
    # (det(mA + nB) vanishes identically) between two random states with
    # two or more negative eigenvalues: every row is its own witness_search
    rhos = [st.rho for st, _ in random_states_with_two_or_more_negative_eigenvalues(1)][:2]
    rhos.insert(1, np.diag([-2.0, -1.0] + [1.0] * 7).astype(complex))  # its own partial transpose
    res = distill.witness_stack(np.stack(rhos))
    for k, rho in enumerate(rhos):
        assert _same_report(res.report(k), witness_search(states.QutritState(rho=rho)))
    dec = linalg.eig_hermitian(partial_transpose(np.stack(rhos)))
    assert np.array_equal(distill._negative_schmidt_vector(dec)[1], dec.vectors[1, :, 0])


def random_states_with_two_or_more_negative_eigenvalues(n_each=4):
    """Random states of rank 1-8 whose partial transpose has k >= 2
    negative eigenvalues, with that spectrum."""
    rng = np.random.default_rng(1)
    for rank in range(1, 9):
        for _ in range(n_each):
            z = rng.normal(size=(9, rank)) + 1j * rng.normal(size=(9, rank))
            rho = z @ z.conj().T
            rho /= np.trace(rho).real
            w = np.linalg.eigvalsh(partial_transpose(rho))
            if linalg.inertia_of_spectrum(w).negative >= 2:
                yield states.QutritState(rho=rho), w


def test_strategy_c_certifies_two_negative_eigenvalues_in_one_evaluation():
    # the rows hold a Schmidt-rank-2 vector of the negative eigenspace, so
    # the compression is at most the second eigenvalue of the partial transpose
    seen = 0
    for st, w in random_states_with_two_or_more_negative_eigenvalues():
        rep = witness_search(st)
        doc = rep.to_json()
        assert doc["evaluations"] == 1
        assert rep.evidence_level == "certified"
        assert doc["witness"]["form"] == "general"
        assert rep.best_value <= w[1] + 1e-12
        seen += 1
    assert seen >= 20


def test_strategy_c_on_the_family_outside_the_window():
    # the construction certifies every NPT family point in one evaluation,
    # except case v on [c2, c1]: one negative eigenvalue whose eigenvector
    # has Schmidt rank 3
    for case in states.CASES:
        for x in np.linspace(0.001, 0.999, 500):
            rep = witness_search(states.build_family(case, float(x)))
            assert rep.to_json()["evaluations"] == 1
            window = case == "v" and C2 <= x <= C1
            if rep.is_npt and not window:
                assert rep.evidence_level == "certified", (case, x)
            else:
                assert rep.evidence_level == "not_found_at_budget", (case, x)
                assert rep.witness is None


def test_witness_value_is_bounded_by_the_partial_transpose():
    # orthonormal rows make the compression a Cauchy-interlaced one, so a
    # certified value lies between the smallest eigenvalue of the partial
    # transpose and -NEG_TOL, whatever the scale of the rows
    certified = 0
    for case in states.CASES:
        for x in np.linspace(0.001, 0.999, 100):
            st = states.build_family(case, float(x))
            rep = witness_search(st)
            if rep.witness is None:
                continue
            rows = rep.witness
            assert np.abs(rows @ rows.conj().T - np.eye(2)).max() <= 1e-12, (case, x)
            lam = np.linalg.eigvalsh(pt_mat(st))[0]
            assert lam - 1e-12 <= rep.best_value < -1e-10, (case, x)
            certified += 1
    assert certified >= 400


def test_report_json_fields():
    rep = witness_search(states.build_family("i", 0.05))
    doc = rep.to_json()
    assert set(doc.keys()) == {
        "is_npt",
        "inertia",
        "min_eig_gamma",
        "negative_count",
        "witness",
        "evidence_level",
        "best_value",
        "evaluations",
    }
    assert doc["negative_count"] == rep.inertia.negative
    assert doc["evaluations"] == 1
    assert set(doc["witness"].keys()) == {"form", "params", "value"}
    assert doc["witness"]["value"] == rep.best_value


# ------------------------------------------------------------ threshold search


def test_threshold_first_sign_change():
    res = find_threshold("v", "min_eig", (0.1, 0.2))
    assert abs(res.x_star - C1) <= 1e-13
    assert res.bracket == (0.1, 0.2)


def test_threshold_second_eig():
    res = find_threshold("v", "second_eig", (0.2, 0.4))
    assert abs(res.x_star - 3 / 11) <= 1e-13


@pytest.mark.parametrize("case", ["i", "ii", "iii", "iv"])
def test_threshold_case_i_quarter(case):
    res = find_threshold(case, "min_eig", (0.2, 0.3))
    assert abs(res.x_star - 0.25) <= 1e-13


@pytest.mark.parametrize("case", ["i", "ii", "iii", "iv"])
def test_threshold_case_i_seventh(case):
    res = find_threshold(case, "min_eig", (0.1, 0.2))
    assert abs(res.x_star - 1 / 7) <= 1e-13


@pytest.mark.parametrize("case", ["i", "ii", "iii", "iv"])
def test_threshold_skips_roots_of_other_eigenvalues(case):
    # at 1/25 the second eigenvalue of cases i-iv vanishes, not the smallest
    res = find_threshold(case, "min_eig", (0.02, 0.2))
    assert abs(res.x_star - 1 / 7) <= 1e-13
    assert res.iterations == 4  # two ends, then the roots 1/25 and 1/7


@pytest.mark.parametrize("case, crossings", [
    ("i", [1 / 25, 1 / 7, 1 / 4, 1]),
    ("ii", [1 / 25, 1 / 7, 1 / 4, 1]),
    ("iii", [1 / 25, 1 / 7, 1 / 4, 1]),
    ("iv", [1 / 25, 1 / 7, 1 / 4, 1]),
    ("v", [0, C1, 3 / 11, 3 / 5]),
])
def test_partial_transpose_crossings_are_pencil_roots(case, crossings):
    # G(x) is linear in x, so every x in [0, 1] where an eigenvalue of the
    # partial transpose vanishes is a real root of det(G(0) + x (G(1) - G(0)))
    g0 = pt_mat(states.build_family(case, 0.0))
    g1 = pt_mat(states.build_family(case, 1.0))
    roots = [n / m for m, n in linalg.pencil_roots(g0, g1 - g0) if abs(m) > 0]
    real = sorted(t.real for t in roots if abs(t.imag) <= 1e-13 and -1e-13 <= t.real <= 1 + 1e-13)
    distinct = [t for k, t in enumerate(real) if k == 0 or t - real[k - 1] > 1e-9]
    assert len(distinct) == len(crossings)
    assert np.abs(np.array(distinct) - crossings).max() <= 1e-13


def test_threshold_requires_sign_change():
    with pytest.raises(NoSignChange):
        find_threshold("v", "second_eig", (0.05, 0.14))


@pytest.mark.parametrize("case, bracket", [("i", (1 / 7, 1 / 4)), ("v", (C1, 3 / 11))])
def test_threshold_rejects_ends_that_are_roots(case, bracket):
    # the least eigenvalue is >= 0 on the whole PPT interval, so no crossing:
    # the end values, +1.7e-17 and -5.7e-17 (case i) and +1.2e-16 and
    # -4.2e-17 (case v) with OpenBLAS, are roundoff of zero whatever their
    # signs, within 1e-10 of their spectrum's norm
    ends = np.linalg.eigvalsh(partial_transpose(states.family_stack(case, list(bracket))))
    assert (np.abs(ends[:, 0]) <= 1e-10 * np.abs(ends).max(axis=1)).all()
    with pytest.raises(NoSignChange, match="does not strictly change sign"):
        find_threshold(case, "min_eig", bracket)


@pytest.mark.parametrize("bracket", [(0.2, 0.1), (0.15, 0.15), (float("nan"), 0.2)])
def test_threshold_requires_ordered_bracket(bracket):
    with pytest.raises(ValueError, match="lo < hi"):
        find_threshold("v", "min_eig", bracket)


# ------------------------------------------------------------- preconditions


def test_preconditions_all_pass_at_reference_point():
    pre = precondition_report(states.build_family("v", 1 / 7))
    assert pre["local_dims_exceed_two"]
    assert pre["rank_exceeds_four"]
    assert pre["rank_exceeds_marginals"]
    assert pre["pt_inertia_one_negative"]
    sub = pre["negative_subspace_min_schmidt_rank"]
    assert sub == {"pass": True, "evidence_level": "certified", "min_schmidt_rank": 3}
    assert pre["kernel_no_product_vector"] == {"pass": True, "evidence_level": "proved",
                                               "margin": None}
    from qutritdistill import kernel

    decided = kernel.decide_kernel(*states.range_kernel(states.build_family("v", 1 / 7)))
    assert decided.found is False and decided.evidence_level == "certified"
    assert decided.margin >= 1e-3


def test_preconditions_fail_two_negative():
    pre = precondition_report(states.build_family("v", 0.5))
    assert not pre["pt_inertia_one_negative"]
    assert pre["negative_subspace_min_schmidt_rank"] == {
        "pass": False, "evidence_level": "certified", "min_schmidt_rank": 2}


def test_two_negative_eigenvalues_always_hold_a_schmidt_rank_two_vector():
    # det(A + tB) is a cubic in t, so the span of two negative eigenvectors
    # always holds a vector of Schmidt rank <= 2, whatever the matrix
    rng = np.random.default_rng(1)
    for _ in range(20):
        z = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        h = z + z.conj().T
        w = np.linalg.eigvalsh(h)
        h -= 0.5 * (w[1] + w[2]) * np.eye(9)
        assert np.count_nonzero(np.linalg.eigvalsh(h) < 0) == 2
        psi = distill._negative_schmidt_vector(linalg.eig_hermitian(h))
        assert abs(np.linalg.norm(psi) - 1) <= 1e-12
        assert states.schmidt_rank(psi) <= 2


def test_negative_subspace_singular_pencil():
    # negative eigenvectors |00> and |01>: det(mA + nB) vanishes identically
    # and every vector of their span is a product vector
    g = np.diag([-2.0, -1.0] + [1.0] * 7).astype(complex)
    psi = distill._negative_schmidt_vector(linalg.eig_hermitian(g))
    assert states.schmidt_rank(psi) == 1


def test_preconditions_vacuous_when_ppt():
    pre = precondition_report(states.build_family("v", 0.2))
    assert not pre["pt_inertia_one_negative"]
    assert pre["negative_subspace_min_schmidt_rank"] == {
        "pass": True, "evidence_level": "certified", "min_schmidt_rank": None}


# ----------------------------------------------------- structural cross-checks


def test_vacuous_premise_alternating_minimization():
    # with only one negative direction of Schmidt rank 3, rank-2-projected
    # compressions cannot go below zero by much: alternating bilinear descent
    # over product-ish probes stays above -1e-10
    st = states.build_family("v", 1 / 7)
    g = pt_mat(st)
    rng = np.random.default_rng(41)
    worst = np.inf
    for _ in range(20):
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        u /= np.linalg.norm(u)
        for _ in range(40):
            # best B-side vector for fixed 2-dim A-side frame rows [u; u_perp]
            perp = np.array([-np.conj(u[1]), np.conj(u[0])])
            rows2 = np.vstack([u, perp])
            rows3 = np.zeros((2, 3), dtype=complex)
            rows3[:, :2] = rows2
            val = projected_min_eig(g, rows3)
            worst = min(worst, val)
            # random restart direction mixing
            u = u + 0.1 * (rng.normal(size=2) + 1j * rng.normal(size=2))
            u /= np.linalg.norm(u)
    assert worst >= -1e-10


def test_monotone_consistency_across_regimes():
    # distillable regions produce witnesses; the PPT window never does
    for x in (0.35, 0.6, 0.85):
        rep = witness_search(states.build_family("v", x))
        assert rep.witness is not None
    for x in (0.16, 0.22, 0.26):
        rep = witness_search(states.build_family("v", x))
        assert rep.witness is None
