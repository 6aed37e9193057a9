"""Mixed-frame compressions at the reference point: direct principal minors,
the exact closed forms and the source's printed polynomials, cross-checks, and
positivity scans."""

import csv
import io
import warnings

import numpy as np
import pytest

from conftest import bits

from qutritdistill import distill, linalg, minors, states
from qutritdistill.linalg import NonRealMinor
from qutritdistill.minors import (
    CHUNK,
    FAMILIES,
    DEN_DET,
    DEN_MINOR4,
    DEN_MINOR5,
    CLOSED_FORMS,
    SCALE_F,
    SCALE_G,
    MinorScanSpec,
    build_projected,
    certify_positive,
    compression_bases,
    compression_chunks,
    cross_check,
    default_real_bc_grid,
    eval_closed_form,
    eval_printed_form,
    family_rows,
    mixed_frame_state,
    psd_scan_form1,
    scan,
)


def direct_minors(m):
    """[4th, 5th, 6th] leading principal minors, the reference for the closed
    forms and the scans."""
    return linalg.leading_principal_minors(m)[3:]


# --------------------------------------------------------------- row families


def test_rank_two_projection_materialize():
    rows = family_rows(2, (0, 0.5))
    assert rows.shape == (2, 3)
    # raw two-parameter rows, full row rank; only the sign of the compressed
    # bottom eigenvalue matters, so no orthonormalization happens here
    np.testing.assert_allclose(rows[0], [1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(rows[1], [0, 1, 0.5], atol=1e-15)
    assert np.linalg.matrix_rank(rows) == 2


def test_family_rows_set_their_slots():
    y, a, b, c = 0.5 - 2j, -1.25j, 3.0 + 0.5j, -0.75
    cases = (
        (2, (0j, y), [[1, 0, 0], [0, 1, y]]),
        (1, (a,), [[1, a, 0], [0, 0, 1]]),
        (2, (b, c), [[1, 0, b], [0, 1, c]]),
    )
    for form, values, expected in cases:
        rows = family_rows(form, values)
        # raw parameter rows of full row rank, not orthonormalized: only the
        # sign of the compressed bottom eigenvalue matters
        assert np.array_equal(rows, np.array(expected, dtype=complex))
        assert np.linalg.matrix_rank(rows) == 2
    # one family per chart, keyed by the form ids build_projected takes:
    # P1a is 1, P2bc is 2, and P2bc at b = 0 holds the rows (1, 0, 0), (0, 1, y)
    assert set(FAMILIES) == {1, 2}
    with pytest.raises(KeyError):
        family_rows(3, (y,))
    for form, values in ((2, (b,)), (1, (a, b))):
        with pytest.raises(ValueError, match="parameters"):
            family_rows(form, values)


def test_compression_bases_bitwise_equal_kron_formula():
    g = linalg.partial_transpose(states.build_family("v", 1 / 7).rho)
    eye = np.eye(3, dtype=complex)
    for form, family in FAMILIES.items():
        units = [np.zeros((2, 3), dtype=complex) for _ in family.slots]
        for unit, slot in zip(units, family.slots):
            unit[slot] = 1
        rs = [np.kron(p, eye) for p in [family.base] + units]
        want = [[ri @ g @ rj.conj().T for rj in rs] for ri in rs]
        assert np.array_equal(bits(np.array(compression_bases(g, form))), bits(np.array(want)))


def test_compression_chunks_match_projected_matrix():
    rng = np.random.default_rng(37)
    g = linalg.partial_transpose(states.build_family("v", 0.4).rho)
    for form, family in FAMILIES.items():
        bases = compression_bases(g, form)
        thetas = [rng.normal(size=6) + 1j * rng.normal(size=6) for _ in family.slots]
        batch = np.concatenate(list(compression_chunks(bases, thetas, 6)))
        assert batch.shape == (6, 6, 6)
        for n in range(6):
            one = distill.projected_matrix(g, family_rows(form, [theta[n] for theta in thetas]))
            assert np.abs(batch[n] - one).max() <= 1e-13 * max(1.0, np.abs(one).max())


def _dense_compressions(bases, params, k):
    """The leading k x k blocks assembled as one (n, 6, 6) batch from every
    term c_i conj(c_j) B_ij, exact zeros of B_ij included."""
    coefs = [np.ones(len(params[0]))] + list(params)
    alphas = np.zeros((len(coefs[0]), 6, 6), dtype=complex)
    for i, ci in enumerate(coefs):
        for j, cj in enumerate(coefs):
            alphas += (ci * cj.conj())[:, None, None] * bases[i][j]
    return np.ascontiguousarray(alphas[:, :k, :k])


@pytest.mark.parametrize("form", [1, 2], ids=["P1a", "P2bc"])
def test_compression_chunks_bitwise_equal_dense_assembly(form):
    # 2 * CHUNK + 1001 = 17385 points: two full chunks, a ragged tail, and
    # past the 16384 points from which numpy forms the products in place;
    # zero and signed-zero parameters, magnitudes 1e-3 to 1e3
    rng = np.random.default_rng(41)
    n = 2 * CHUNK + 1001
    assert n > 16384
    params = []
    for _ in FAMILIES[form].slots:
        z = 10.0 ** rng.uniform(-3, 3, n) * np.exp(2j * np.pi * rng.random(n))
        z[::7] = 0
        z[3::11] = complex(-0.0, 0.5)
        params.append(z)
    bases = compression_bases(linalg.partial_transpose(states.build_family("v", 0.4).rho), form)
    for k in (4, 5, 6):
        chunks = list(compression_chunks(bases, params, k))
        assert [len(a) for a in chunks] == [CHUNK, CHUNK, 1001]
        got = np.concatenate(chunks)
        assert got.tobytes() == _dense_compressions(bases, params, k).tobytes(), k


@pytest.mark.parametrize("bad", [1e200, np.inf, np.nan])
def test_compression_chunks_reject_non_finite_products(bad):
    # 1e200 squared overflows; a dense sum would turn it into NaN through
    # inf * 0, so the products are checked, without a warning, before any sum
    bases = compression_bases(linalg.partial_transpose(states.build_family("v", 0.4).rho), 2)
    params = (np.array([0.5, bad, 1j]), np.zeros(3, dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(linalg.NonFiniteValue):
            next(compression_chunks(bases, params, 4))


@pytest.mark.parametrize("form, k, kept", [(2, 4, 26), (2, 5, 36), (2, 6, 52), (1, 6, 31)])
def test_compression_terms_kept_at_the_reference_point(form, k, kept):
    # the sparse-term counts the docs quote for the x = 1/7 frame: of the
    # (slots + 1)^2 k^2 terms c_i conj(c_j) B_ij[r, s], those with a
    # nonzero base entry
    g = linalg.partial_transpose(mixed_frame_state(1 / 7).rho)
    blocks = np.array(compression_bases(g, form))[:, :, :k, :k]
    assert blocks.size == (len(FAMILIES[form].slots) + 1) ** 2 * k * k
    assert np.count_nonzero(blocks) == kept


# ------------------------------------------------------------- construction


def test_mixed_frame_state_preserves_spectrum():
    st = mixed_frame_state(1 / 7)
    ref = states.build_family("v", 1 / 7)
    assert np.linalg.norm(st.rho - st.rho.conj().T) <= 1e-12
    np.testing.assert_allclose(
        np.linalg.eigvalsh(st.rho), np.linalg.eigvalsh(ref.rho), atol=1e-12
    )


def test_build_projected_hermitian():
    for form_id, params in ((1, (0.3 + 0.2j,)), (2, (0.5, -0.7j))):
        m = build_projected(form_id, params)
        assert np.linalg.norm(m - m.conj().T) <= 1e-12


def test_build_projected_sizes():
    assert build_projected(1, (0.0,)).shape == (6, 6)
    assert build_projected(2, (0.0, 0.0)).shape == (6, 6)


def test_build_projected_rejects_bad_x():
    with pytest.raises(states.OutOfRange):
        build_projected(2, (0.0, 0.0), x=1.5)


@pytest.mark.parametrize("form_id, params", [
    (2, (1e200, 1e200)),  # finite parameters whose compression overflows
    (2, (3e154, 3e154)),  # a finite compression whose symmetrized sum overflows
    (1, np.nan),
    (2, (np.inf, 0.0)),
])
def test_build_projected_rejects_non_finite_values(form_id, params):
    # the same error the grid path raises for an overflow, and no warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(linalg.NonFiniteValue):
            build_projected(form_id, params)


def test_form1_psd_on_default_grid():
    entries, all_psd = psd_scan_form1()
    assert len(entries) == 481
    assert all_psd
    assert min(e["min_eigenvalue"] for e in entries) >= -1e-10


def test_form1_psd_scan_reports_true_margin():
    # every entry is the smallest eigenvalue of the 6x6 compression itself,
    # not of a zero-padded embedding whose padding pins the minimum at 0;
    # the compression's entries grow like 1 + |a|^2, and so does rounding
    g = linalg.partial_transpose(mixed_frame_state(1 / 7).rho)
    entries, all_psd = psd_scan_form1()
    assert all_psd
    for e in entries:
        tol = 1e-14 * (1.0 + abs(e["a"]) ** 2)
        rows = family_rows(1, (e["a"],))
        direct = np.linalg.eigvalsh(build_projected(1, e["a"]))[0]
        assert abs(e["min_eigenvalue"] - direct) <= tol
        assert abs(e["min_eigenvalue"] - distill.projected_min_eig(g, rows)) <= tol
    margin = min(e["min_eigenvalue"] for e in entries)
    assert margin > 0
    assert abs(margin - 5.79e-3) <= 1e-5


@pytest.mark.parametrize("x, box, step, passed", [
    # positive definite at 1/7: a negative minimum near |a| = 1e8 (-0.27 at
    # a = 7e7 - 8e7i here) is roundoff of entries of size 1 + |a|^2 ~ 1e16
    (1 / 7, 1e8, 1e7, True),
    # below c2 the form-1 compression is negative, -0.0241, far past the floor
    (0.1, 6.0, 0.1, False),
])
def test_alpha1_psd_floor_scales_with_the_rows(x, box, step, passed):
    spec = MinorScanSpec(which="alpha1_psd", re_range=(-box, box), im_range=(-box, box),
                         step=step, x=x)
    gs = scan(spec)
    assert gs.passed() is passed
    a = gs.samples[:, 0] + 1j * gs.samples[:, 1]
    entries, all_psd = psd_scan_form1(a.tolist(), x=x)
    assert all_psd is passed
    assert [e["min_eigenvalue"] for e in entries] == gs.samples[:, 4].tolist()


def test_form1_scan_away_from_reference_point():
    # exploratory frame at a two-negative point; structure only, the verdict
    # is whatever it is
    entries, all_psd = psd_scan_form1(x=0.5)
    assert len(entries) == 481
    assert isinstance(all_psd, bool)
    assert all(set(e) == {"a", "min_eigenvalue", "is_psd"} for e in entries)


# ------------------------------------------------------ closed-form evaluation


def test_closed_forms_at_origin():
    assert abs(eval_printed_form("minor4", 0, 0) - 737 / DEN_MINOR4) <= 1e-18
    assert abs(eval_printed_form("minor5", 0, 0) - 2680 / DEN_MINOR5) <= 1e-18
    assert abs(eval_printed_form("det", 0, 0) - 24120 / DEN_DET) <= 1e-18


def test_direct_minors_match_stored_forms_at_origin():
    d = direct_minors(build_projected(2, (0.0, 0.0)))
    assert abs(d[0] - eval_closed_form("minor4", 0, 0)) <= 1e-12


def test_direct_minors_match_stored_forms_at_real_point():
    d = direct_minors(build_projected(2, (1.0, 1.0)))
    assert abs(d[0] - eval_closed_form("minor4", 1.0, 1.0)) <= 1e-12
    assert abs(d[1] - eval_closed_form("minor5", 1.0, 1.0)) <= 1e-12
    assert abs(d[2] - eval_closed_form("det", 1.0, 1.0)) <= 1e-12


def test_closed_minor4_real_on_complex_inputs():
    rng = np.random.default_rng(67)
    for _ in range(50):
        b = complex(rng.normal(), rng.normal())
        c = complex(rng.normal(), rng.normal())
        val = eval_closed_form("minor4", b, c)  # must not raise
        assert np.isfinite(val)


def test_closed_minor5_and_det_nonreal_off_real_slice():
    with pytest.raises(NonRealMinor):
        eval_printed_form("minor5", 0.5 + 0.5j, 0.25 - 0.1j)
    with pytest.raises(NonRealMinor):
        eval_printed_form("det", 0.5 + 0.5j, 0.25 - 0.1j)


def test_closed_forms_equal_exact_minors():
    # Rebuild the x = 1/7 form-2 compression in exact arithmetic: every entry
    # is a Gaussian rational, so its leading minors are exact and must equal
    # the stored integer tables, while the printed constants do not.
    sp = pytest.importorskip("sympy")
    s2, s6 = sp.sqrt(2), sp.sqrt(6)

    def ket(a, b):
        v = sp.zeros(9, 1)
        v[3 * a + b] = 1
        return v

    basis = [
        (ket(0, 1) + ket(1, 0)) / s2,
        (ket(1, 2) + ket(2, 1)) / s2,
        (ket(0, 2) + ket(2, 0)) / s2,
        (ket(0, 0) - ket(1, 1)) / s2,
        (ket(0, 0) + ket(1, 1) - 2 * ket(2, 2)) / s6,
    ]
    x = sp.Rational(1, 7)
    weights = [(1 - x) / 4] * 4 + [x]
    rho = sp.zeros(9, 9)
    for w, v in zip(weights, basis):
        rho += w * v * v.H
    k = sp.Matrix([[1, sp.I, 0], [1, -sp.I, 0], [0, 0, s2]]) / s2
    u = sp.kronecker_product(k, k.conjugate())
    rho = (u * rho * u.H).applyfunc(sp.expand)
    # partial transpose of the first qutrit: ((i, b), (j, d)) <- ((j, b), (i, d))
    pt = sp.Matrix(9, 9, lambda m, n: rho[3 * (n // 3) + m % 3, 3 * (m // 3) + n % 3])
    assert all(sp.re(e).is_Rational and sp.im(e).is_Rational for e in pt)

    def table(which, b, c):
        den, terms = CLOSED_FORMS[which]
        p = sp.expand(b * sp.conjugate(b))
        q = sp.expand(c * sp.conjugate(c))
        r = sp.re(sp.expand(b * c))
        return sum(coef * p**i * q**j * r**k for (i, j, k), coef in terms.items()) / den

    R = sp.Rational
    points = [
        (0, 0),
        (1, 1),
        (R(13, 10) - R(2, 5) * sp.I, R(7, 10) + R(9, 10) * sp.I),
        (-2 + sp.I / 3, R(1, 2) - 3 * sp.I),
        (R(3, 4) * sp.I, R(-5, 7) + R(1, 8) * sp.I),
    ]
    order = (("minor4", 4), ("minor5", 5), ("det", 6))
    exact_at_origin = {}
    for b, c in points:
        rows = sp.kronecker_product(sp.Matrix([[1, 0, b], [0, 1, c]]), sp.eye(3))
        alpha = (rows * pt * rows.H).applyfunc(sp.expand)
        for which, size in order:
            minor = sp.expand(alpha[:size, :size].det(method="bareiss"))
            assert sp.expand(minor - table(which, b, c)) == 0, (which, b, c)
            value = eval_closed_form(which, complex(b), complex(c))
            assert abs(value - float(sp.re(minor))) <= 1e-12 * abs(value)
            if b == 0 and c == 0:
                exact_at_origin[which] = minor

    direct = {"minor4": 640, "minor5": 1280, "det": 11520}
    printed = {"minor4": 737, "minor5": 2680, "det": 24120}
    for which, _ in order:
        den = CLOSED_FORMS[which][0]
        assert exact_at_origin[which] == R(direct[which], den)
        assert round(eval_printed_form(which, 0, 0) * den) == printed[which]
        assert exact_at_origin[which] != R(printed[which], den)


def test_closed_positive_on_real_grid():
    for b, c in default_real_bc_grid(0.5):
        assert eval_closed_form("minor4", b, c) > 0
        assert eval_closed_form("det", b, c) > 0
        assert direct_minors(build_projected(2, (b, c)))[2] > 0


def _doctored(which, key, coef):
    terms = dict(CLOSED_FORMS[which][1])
    terms[key] = coef
    return terms


@pytest.mark.parametrize("terms, proved", [
    (CLOSED_FORMS["minor4"][1], True),
    (CLOSED_FORMS["minor5"][1], True),
    (CLOSED_FORMS["det"][1], True),
    # q coefficient 260 - 600/2 < 0
    (_doctored("minor4", (0, 0, 1), 600), False),
    # a negative Re(bc) coefficient is bounded by its modulus as well
    (_doctored("minor4", (0, 0, 1), -600), False),
    # zero constant term: the minor vanishes at the origin
    (_doctored("minor5", (0, 0, 0), 0), False),
    # p^2 coefficient of the determinant bound is 18144 - 18720/2 = 8784;
    # one unit past the edge fails
    (_doctored("det", (2, 0, 0), 9359), False),
    (_doctored("det", (2, 0, 0), 9360), True),
])
def test_certify_positive(terms, proved):
    assert certify_positive(terms) is proved


# ----------------------------------------------------------------- cross_check


def test_cross_check_minor4_complex_grid():
    vals = np.linspace(-2.0, 2.0, 21)
    rep = cross_check("minor4", [(complex(re, im), 0j) for re in vals for im in vals])
    assert rep.passed, f"max rel dev {rep.max_rel_dev}"


def test_cross_check_det_real_grid():
    rep = cross_check("det", default_real_bc_grid())
    assert rep.passed, f"max rel dev {rep.max_rel_dev}"


def test_cross_check_deviation_is_relative(monkeypatch):
    # one unit off in the constant term of the determinant is 2.6e-11 in
    # absolute terms at the origin but 8.7e-5 relative to the direct value
    den, terms = CLOSED_FORMS["det"]
    wrong = dict(terms)
    wrong[(0, 0, 0)] = 11521
    monkeypatch.setitem(CLOSED_FORMS, "det", (den, wrong))
    rep = cross_check("det", default_real_bc_grid())
    assert not rep.passed
    assert abs(rep.max_rel_dev - 1 / 11520) <= 1e-9


def test_cross_check_matches_per_point_minors(monkeypatch):
    # a tolerance of -1 logs every point: worst is ordered by deviation,
    # largest first, with ties left in grid order
    grid = default_real_bc_grid(2 / 3) + [(0.3 - 1.1j, -0.4 + 0.2j), (2.5j, -1.5)]
    index = {(complex(b), complex(c)): t for t, (b, c) in enumerate(grid)}
    monkeypatch.setattr(minors, "CROSS_TOL", -1.0)
    monkeypatch.setattr(minors, "CROSS_LOGGED", len(grid))
    for which, idx in (("minor4", 0), ("minor5", 1), ("det", 2)):
        rep = cross_check(which, grid)
        assert rep.n_points == len(rep.worst) == len(grid)
        assert rep.max_rel_dev <= 1e-13
        keys = []
        for w in rep.worst:
            b, c = complex(*w["b"]), complex(*w["c"])
            direct = direct_minors(build_projected(2, (b, c)))[idx]
            assert abs(w["direct"] - direct) <= 1e-13 * abs(direct)
            assert w["closed"] == eval_closed_form(which, b, c)
            keys.append((-w["deviation"], index[b, c]))
        assert keys == sorted(keys)
        assert len({dev for dev, _ in keys}) < len(keys), which  # ties to order


def test_cross_check_minor5_fully_complex_grid_reports_nonreal():
    # off the real slice in both variables, the printed fifth-minor polynomial
    # takes non-real values; the report collects those points instead of a
    # deviation there
    rng = np.random.default_rng(79)
    grid = [
        (complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
        for _ in range(25)
    ]
    rep = cross_check("minor5", grid, printed=True)
    assert rep.n_points == 25
    assert len(rep.non_real) > 0
    assert not rep.passed
    doc = rep.to_json()
    assert set(doc.keys()) >= {"which", "n_points", "max_rel_dev", "passed"}


def test_cross_check_logs_worst_points():
    rep = cross_check("minor4", default_real_bc_grid(0.4), printed=True)
    assert 0 < len(rep.worst) <= 20
    # worst list is sorted by deviation, largest first
    devs = [w["deviation"] for w in rep.worst]
    assert devs == sorted(devs, reverse=True)
    assert abs(devs[0] - rep.max_rel_dev) <= 1e-18


def test_closed_form_array_pass_bitwise_equal_per_point():
    # cross_check evaluates the exact closed forms over its whole grid in one
    # array pass; each value must carry the bits eval_closed_form gives its
    # point, on verify-example's 81 x 81 grid and on random complex points
    rng = np.random.default_rng(83)
    rand = 10.0 ** rng.uniform(-2, 2, (5000, 2)) * np.exp(2j * np.pi * rng.random((5000, 2)))
    points = np.concatenate([np.array(default_real_bc_grid(0.05), dtype=complex), rand])
    for which in CLOSED_FORMS:
        values = minors._closed_form(which, points[:, 0], points[:, 1])
        ref = np.array([eval_closed_form(which, b, c) for b, c in points.tolist()])
        assert values.tobytes() == ref.tobytes(), which


# ----------------------------------------------------------------- grid scans


def test_scan_minor4_positive():
    spec = MinorScanSpec(which="alpha2_minor4", step=0.1)
    res = scan(spec)
    assert res.min_value > 0
    assert res.passed()


def _one_shot_values(which, b, c, x, scale):
    """The value column assembled in one (n, 6, 6) batch, the reference the
    chunked path must reproduce bit for bit."""
    g = linalg.partial_transpose(mixed_frame_state(x).rho)
    if which == "alpha1_psd":
        form, params = 1, (b,)
    else:
        form, params = 2, (b, c)
    bases = compression_bases(g, form)
    n = len(b)
    coefs = [np.ones(n)] + list(params)
    alphas = np.zeros((n, 6, 6), dtype=complex)
    for i, ci in enumerate(coefs):
        for j, cj in enumerate(coefs):
            alphas += (ci * cj.conj())[:, None, None] * bases[i][j]
    if which == "alpha1_psd":
        return np.linalg.eigvalsh(alphas)[:, 0]
    k = {"alpha2_minor4": 4, "alpha2_minor5": 5, "alpha2_det": 6, "F": 5, "G": 6}[which]
    return np.linalg.det(alphas[:, :k, :k]).real * scale


def test_scan_values_bitwise_equal_one_shot_assembly():
    # 131 x 131 = 17161 points per panel: two full chunks plus a ragged tail,
    # and past the 16384-point size where numpy starts to form the one-shot
    # products c_i conj(c_j) in place with swapped operands, which rounds
    # differently. The panels are a generic c, the c = 0 of the default grid
    # and a c whose real part is -0.0.
    n = 131 * 131
    assert n > 2 * CHUNK and n % CHUNK
    panels = (0.7 - 1.3j, 0j, complex(-0.0, 0.5))
    for which in minors.WHICH_TOKENS:
        spec = MinorScanSpec(which=which, re_range=(-3.0, 3.5), im_range=(-3.0, 3.5),
                             step=0.05, c_values=panels)
        res = scan(spec)
        assert res.samples.shape[0] == len(panels) * n
        b = res.samples[:n, 0] + 1j * res.samples[:n, 1]
        for p, c_val in enumerate(panels):
            ref = _one_shot_values(which, b, np.full(n, c_val), spec.x, spec.scale)
            assert np.array_equal(res.samples[p * n:(p + 1) * n, 4], ref), (which, c_val)


def test_scan_f_window():
    spec = MinorScanSpec(which="F", step=0.1)
    res = scan(spec)
    assert 1.0 <= res.min_value <= 10.0
    assert res.passed()
    # known minimum at the origin
    assert abs(res.min_value - 800 / 270) <= 1e-9


def test_scan_g_offset_panel():
    spec = MinorScanSpec(which="G", step=0.1, c_values=(1 + 1j,))
    res = scan(spec)
    # off c = 0 the minimum leaves the window [1, 10]; the verdict is positivity
    assert res.min_value > 10.0
    assert res.passed()


def test_scan_scale_identities():
    # F and G samples are the 5th minor and determinant of build_projected,
    # times SCALE_F and SCALE_G, on c panels off the origin too
    rng = np.random.default_rng(71)
    panels = tuple(complex(*rng.uniform(-2, 2, size=2)) for _ in range(2))
    for which, k, scale in (("F", 1, SCALE_F), ("G", 2, SCALE_G)):
        res = scan(MinorScanSpec(which=which, re_range=(-2, 2), im_range=(-2, 2),
                                 step=0.5, c_values=panels))
        for idx in rng.choice(len(res.samples), size=10, replace=False):
            re_b, im_b, re_c, im_c, val = res.samples[idx]
            d = direct_minors(build_projected(2, (complex(re_b, im_b), complex(re_c, im_c))))
            assert abs(val - scale * d[k]) <= 1e-9 * max(1, abs(d[k]) * scale)


def test_minors_predict_definiteness():
    rng = np.random.default_rng(73)
    checked = 0
    for _ in range(20):
        b = rng.uniform(-2, 2)
        c = rng.uniform(-2, 2)
        m = build_projected(2, (b, c))
        from qutritdistill.linalg import leading_principal_minors

        mins = leading_principal_minors(m)
        if np.all(mins > 1e-12):
            assert np.linalg.eigvalsh(m)[0] > 0
            checked += 1
    assert checked == 20


def test_scan_csv_exact_header_and_determinism(tmp_path):
    spec = MinorScanSpec(which="F", step=0.5)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    scan(spec, out_csv=str(p1))
    scan(spec, out_csv=str(p2))
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    first = b1.decode().splitlines()[0]
    assert first == "re_b,im_b,re_c,im_c,value"


def test_scan_json_keys():
    spec = MinorScanSpec(which="G", step=0.5)
    doc = scan(spec).to_json()
    assert set(doc.keys()) == {"which", "scale", "min_value", "argmin", "grid", "pass"}


def test_scan_axis_ends_at_its_last_point_within_range():
    # 1 / 0.6 rounds to 2, but the axis stops at 0.6: no b = 1.2 beyond
    # re_range; 6 / 0.05 = 119.99999999999999 still reaches the 121st point
    spec = MinorScanSpec(which="alpha2_minor4", re_range=(0, 1), im_range=(0, 0), step=0.6)
    assert spec.axis("re").tolist() == [0.0, 0.6]
    assert spec.axis("im").tolist() == [0.0]
    assert scan(spec).samples[:, 0].tolist() == [0.0, 0.6]
    assert len(MinorScanSpec(which="F").axis("re")) == 121


def test_scan_spec_validation():
    with pytest.raises(Exception):
        MinorScanSpec(which="nope")
    with pytest.raises(Exception):
        MinorScanSpec(which="F", step=0.0)
    with pytest.raises(Exception):
        MinorScanSpec(which="F", re_range=(3, -3))
    # more than MAX_GRID_POINTS: a tiny step, a range whose hi - lo
    # overflows to inf, and 12 c panels of 361,201 points
    for kwargs in ({"step": 1e-300}, {"re_range": (-1e308, 1e308), "step": 1.0},
                   {"step": 0.01, "c_values": tuple(complex(k) for k in range(12))}):
        with pytest.raises(ValueError, match="grid exceeds"):
            MinorScanSpec(which="G", **kwargs)
