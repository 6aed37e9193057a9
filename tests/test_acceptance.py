"""End-to-end acceptance gates. Each test prints one PASS/FAIL line; the
conftest summary hook repeats the collected lines after the run."""

import time

import numpy as np

import conftest
from qutritdistill import distill, kernel, minors, states
from qutritdistill.linalg import partial_transpose, takagi, leading_principal_minors
from conftest import random_hermitian, random_symmetric


C1 = (33 - 12 * np.sqrt(6)) / 25


def record(n, ok, detail):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_1_first_boundary():
    t0 = time.perf_counter()
    res = distill.find_threshold("v", "min_eig", (0.1, 0.2))
    dt = time.perf_counter() - t0
    err = abs(res.x_star - C1)
    ok = err <= 1e-7 and dt < 1.0
    record(1, ok, f"min-eig boundary x*={res.x_star:.10f}, err={err:.2e}, {dt:.2f}s")


def test_criterion_2_second_boundary():
    t0 = time.perf_counter()
    res = distill.find_threshold("v", "second_eig", (0.2, 0.4))
    dt = time.perf_counter() - t0
    err = abs(res.x_star - 3 / 11)
    ok = err <= 1e-7 and dt < 1.0
    record(2, ok, f"second-eig boundary x*={res.x_star:.10f}, err={err:.2e}, {dt:.2f}s")


def test_criterion_3_case_i_boundaries_and_pairing():
    r1 = distill.find_threshold("i", "min_eig", (0.1, 0.2))
    r2 = distill.find_threshold("i", "min_eig", (0.2, 0.3))
    e1 = abs(r1.x_star - 1 / 7)
    e2 = abs(r2.x_star - 0.25)
    worst = 0.0
    for x in np.linspace(0.01, 0.99, 99):
        a = np.linalg.eigvalsh(
            partial_transpose(states.build_family("i", float(x)).rho)
        )
        b = np.linalg.eigvalsh(
            partial_transpose(states.build_family("ii", float(x)).rho)
        )
        worst = max(worst, float(np.max(np.abs(a - b))))
    ok = e1 <= 1e-7 and e2 <= 1e-7 and worst <= 1e-10
    record(
        3,
        ok,
        f"sign changes at {r1.x_star:.8f} (err {e1:.1e}) and {r2.x_star:.8f} "
        f"(err {e2:.1e}); spectra pair dev {worst:.2e} over 99 x",
    )


def test_criterion_4_witnesses_in_distillable_regions():
    t0 = time.perf_counter()
    xs_v = np.linspace(3 / 11 + 0.005, 0.995, 20)
    xs_i = np.concatenate(
        [np.linspace(0.004, 1 / 7 - 0.004, 10), np.linspace(0.254, 0.995, 10)]
    )
    failures = []
    for case, xs in (("v", xs_v), ("i", xs_i)):
        for x in xs:
            rep = distill.witness_search(states.build_family(case, float(x)))
            if rep.witness is None or rep.best_value >= -1e-10:
                failures.append((case, float(x)))
    dt = time.perf_counter() - t0
    ok = not failures and dt < 60.0
    record(
        4,
        ok,
        f"40/40 certified witnesses, worst-case regions covered, {dt:.1f}s"
        if ok
        else f"missing witnesses at {failures}, {dt:.1f}s",
    )


def test_criterion_5_reference_point_bundle():
    t0 = time.perf_counter()
    sub = {}

    rep = distill.npt_check(states.build_family("v", 1 / 7))
    sub["inertia"] = tuple(rep.inertia) == (1, 0, 8)

    entries, all_psd = minors.psd_scan_form1()
    sub["alpha1_psd"] = all_psd and len(entries) == 481

    grid = minors.default_real_bc_grid()  # 21 x 21 real (b, c) points
    mismatch_count = 0
    cross_ok = True
    for which in ("minor4", "minor5", "det"):
        crep = minors.cross_check(which, grid)
        mismatch_count += len(crep.worst) if not crep.passed else 0
        cross_ok = cross_ok and crep.passed
    sub["closed_vs_direct"] = cross_ok

    panels = (0j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j)
    scan4 = minors.scan(minors.MinorScanSpec(which="alpha2_minor4", c_values=panels))
    sub["minor4_positive"] = scan4.min_value > 0

    f_scan = minors.scan(minors.MinorScanSpec(which="F"))
    g_scan = minors.scan(minors.MinorScanSpec(which="G"))
    sub["fg_window"] = 1.0 <= f_scan.min_value <= 10.0 and 1.0 <= g_scan.min_value <= 10.0

    dt = time.perf_counter() - t0
    ok = all(sub.values()) and dt < 300.0
    failing = [k for k, v in sub.items() if not v]
    record(
        5,
        ok,
        f"all sub-checks pass, F min {f_scan.min_value:.4f}, G min "
        f"{g_scan.min_value:.4f}, {dt:.0f}s"
        if ok
        else f"failing sub-checks {failing} ({mismatch_count} grid mismatches "
        f"reported), {dt:.0f}s",
    )


def test_criterion_6_kernel_checks():
    def ket(i, j):
        return states.basis_ket(i, j)

    def sym(i, j):
        return (ket(i, j) + ket(j, i)) / np.sqrt(2)

    st_i = states.uniform_state_on_span(
        [ket(0, 0), ket(1, 1), sym(0, 1), sym(0, 2), sym(1, 2)]
    )
    st_ii = states.uniform_state_on_span(
        [ket(0, 0), ket(1, 1), ket(2, 2), sym(0, 2), sym(1, 2)]
    )
    res_i = kernel.candidate_product_vector(st_i)
    res_ii = kernel.candidate_product_vector(st_ii)
    exact_ok = (
        res_i.found
        and res_i.residual <= 1e-12
        and abs(abs(np.vdot(res_i.vector, ket(2, 2))) - 1) <= 1e-10
        and res_ii.found
        and res_ii.residual <= 1e-12
        and abs(abs(np.vdot(res_ii.vector, ket(0, 1))) - 1) <= 1e-10
    )

    rng = np.random.default_rng(101)
    pencil_ok = True
    worst_res = 0.0
    for _ in range(1000):
        m = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        q, _ = np.linalg.qr(m)
        res = kernel.product_vector_in_2x3_complement(list(q.T))
        worst_res = max(worst_res, res.residual)
        pencil_ok = pencil_ok and res.found and res.residual <= 1e-9

    converse_ok = True
    min_seen = np.inf
    for k in range(100):
        s = rng.uniform(0.05, 1.0, size=3)
        s = s / s.sum()
        s = np.maximum(s, 0.05)
        s = s / s.sum()
        basis = kernel.eq5_family_basis(tuple(s))
        complement = np.linalg.qr(basis, mode="complete")[0][:, 4:]
        st = states.uniform_state_on_span(list(complement.T))
        res = kernel.decide_kernel(*states.range_kernel(st))
        min_seen = min(min_seen, res.margin if res.margin is not None else 0.0)
        converse_ok = (converse_ok and not res.found and res.evidence_level == "certified"
                       and res.margin >= 1e-3)

    ok = exact_ok and pencil_ok and converse_ok
    record(
        6,
        ok,
        f"explicit vectors exact, 1000 pencil instances worst residual "
        f"{worst_res:.1e}, converse certified none, min margin {min_seen:.2e}",
    )


def test_criterion_7_linalg_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    ok = True

    for _ in range(100):
        h = random_hermitian(rng, 9)
        g = partial_transpose(partial_transpose(h))
        ok = ok and np.linalg.norm(g - h) <= 1e-14 * max(1, np.linalg.norm(h))

    for _ in range(100):
        h = random_hermitian(rng, 6)
        w, v = np.linalg.eigh(h)
        back = (v * w) @ v.conj().T
        ok = ok and np.linalg.norm(back - h) <= 1e-10 * max(1, np.linalg.norm(h))

    for _ in range(100):
        m = random_symmetric(rng, 5)
        fac = takagi(m)
        back = fac.unitary @ np.diag(fac.singular_values) @ fac.unitary.T
        ok = ok and np.linalg.norm(back - m) <= 1e-9 * max(1, np.linalg.norm(m))

    checked = 0
    while checked < 100:
        h = random_hermitian(rng, 5)
        lam = np.linalg.eigvalsh(h)
        if np.min(np.abs(lam)) < 1e-6:
            continue
        mins = leading_principal_minors(h)
        if np.min(np.abs(mins)) < 1e-9:
            continue
        ok = ok and ((np.min(lam) > 0) == bool(np.all(mins > 0)))
        checked += 1

    dt = time.perf_counter() - t0
    ok = ok and dt < 30.0
    record(7, ok, f"involution, spectral, Takagi, Sylvester x100 each, {dt:.1f}s")


def test_criterion_8_ppt_gap():
    xs = np.linspace(0.1455, 0.2714, 20)
    bad = []
    for x in xs:
        st = states.build_family("v", float(x))
        g = partial_transpose(st.rho)
        if np.linalg.eigvalsh(g)[0] < -1e-12:
            bad.append(("npt", float(x)))
            continue
        rep = distill.witness_search(st)
        if rep.witness is not None:
            bad.append(("witness", float(x)))
    ok = not bad
    record(
        8,
        ok,
        "20/20 sampled x PPT with no witness constructed"
        if ok
        else f"violations {bad}",
    )
