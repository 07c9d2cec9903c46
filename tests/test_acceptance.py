"""The ten acceptance checks, each at its stated tolerance.

Heavy artifacts (the 128-cell benchmark solves) are shared through
session fixtures; every test records a one-line verdict that the
terminal summary hook prints after the run.
"""

import os
from time import perf_counter

import numpy as np
import pytest
import scipy.linalg

from conftest import record_criterion

from msdarcy import (PermField, bilinear_pou, build_aux_space,
                     build_basis_set, build_grids, build_snapshot,
                     compute_weight, corner_source, generate_medium,
                     manufactured_cospi, relative_errors, solve_all_spectra, solve_case,
                     solve_fine_reference, three_channel_spec,
                     assemble_coarse_system, solve_multiscale, velocity_norms)
from msdarcy.mesh import FineGrid, element_region
from msdarcy.metrics import decay_study
from oracles import assemble_a, assemble_b, div_compat_residuals, mass_matrix, node_sum

WORKERS = min(4, os.cpu_count() or 1)


@pytest.fixture(scope="session")
def preset128():
    fine = FineGrid(128, 128)
    perm4 = generate_medium(three_channel_spec(contrast=1e4), fine)
    perm6 = generate_medium(three_channel_spec(contrast=1e6), fine)
    return fine, perm4, perm6, corner_source(fine)


@pytest.fixture(scope="session")
def inst32():
    """The shared 32x32-fine / 4x4-coarse random instance."""
    fine, coarse = build_grids(32, 4)
    rng = np.random.default_rng(2024)
    perm = PermField.from_raw(fine, np.exp(rng.uniform(0, np.log(1e4),
                                                       fine.n_cells)))
    weight = compute_weight(perm, bilinear_pou(coarse))
    spectra = solve_all_spectra(coarse, perm, weight, workers=WORKERS)
    aux = build_aux_space(coarse, weight, spectra, nbasis=3)
    return fine, coarse, perm, weight, aux


@pytest.fixture(scope="session")
def trend_solves(preset128):
    """Benchmark solves shared by criteria 6-9: errors, conservation
    residuals, and the worst per-basis-function compatibility residual."""
    _, perm4, perm6, f = preset128
    cases = {}

    def run(key, perm, ref, Nx, layers, nbasis):
        ms, aux, bset, report, _ = solve_case(perm, f, Nx, nbasis=nbasis,
                                              layers=layers, workers=WORKERS)
        err = relative_errors(ref, ms, perm, aux.weight)
        compat = float(div_compat_residuals(bset).max())
        cases[key] = {"err": err, "mass": report, "fn_compat": compat}

    t0 = perf_counter()
    ref4 = solve_fine_reference(perm4, f)
    run("J3_H8", perm4, ref4, 8, 3, 3)
    run("J3_H16", perm4, ref4, 16, 4, 3)
    run("J3_H32", perm4, ref4, 32, 5, 3)
    seconds_c6 = perf_counter() - t0
    run("J1_H8", perm4, ref4, 8, 3, 1)
    ref6 = solve_fine_reference(perm6, f)
    run("J3_H16_hi", perm6, ref6, 16, 4, 3)
    return cases, seconds_c6


def _anorm_error_vs_exact(grid, v):
    """Quadrature a-norm distance between the reconstructed flux field and
    the exact manufactured flux (kappa = 1)."""
    pts, wts = np.polynomial.legendre.leggauss(4)
    xi = 0.5 * (pts + 1.0)
    w = 0.5 * wts
    h = grid.h
    cells = np.arange(grid.n_cells)
    L, R, B, T = grid.cell_edge_ids(cells)
    vL, vR, vB, vT = (v[E].reshape(grid.ny, grid.nx) for E in (L, R, B, T))
    ix, iy = grid.cell_ix_iy(cells)
    X0 = (ix * h).reshape(grid.ny, grid.nx)
    Y0 = (iy * h).reshape(grid.ny, grid.nx)
    err2 = 0.0
    for a, wa in zip(xi, w):
        for b, wb in zip(xi, w):
            x = X0 + a * h
            y = Y0 + b * h
            ex = np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
            ey = np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
            dx = vL * (1 - a) + vR * a - ex
            dy = vB * (1 - b) + vT * b - ey
            err2 += wa * wb * np.sum(dx * dx + dy * dy) * h * h
    return float(np.sqrt(err2))


def test_criterion_1_fine_solver_convergence():
    t0 = perf_counter()
    errs = {}
    for nx in (16, 64):
        grid = FineGrid(nx, nx)
        perm = PermField.from_raw(grid, np.ones(grid.n_cells))
        f = manufactured_cospi(grid)[0]
        sol = solve_fine_reference(perm, f)
        errs[nx] = _anorm_error_vs_exact(grid, sol.v)
    seconds = perf_counter() - t0
    rate = np.log2(errs[16] / errs[64]) / 2.0  # per halving of h
    ok = rate >= 0.9 and seconds < 30.0
    record_criterion(1, ok, f"manufactured a-norm rate {rate:.3f} "
                            f"(need >= 0.9), {seconds:.1f}s")
    assert ok


def test_criterion_2_spectral_oracle():
    fine, coarse = build_grids(8, 2)
    rng = np.random.default_rng(7)
    perm = PermField.from_raw(fine, np.exp(rng.uniform(0, np.log(1e4),
                                                       fine.n_cells)))
    weight = compute_weight(perm, bilinear_pou(coarse))
    spectra = solve_all_spectra(coarse, perm, weight)
    worst_lam = 0.0
    worst_angle = 0.0
    worst_zero = 0.0
    for e, (lam, P) in enumerate(zip(spectra.lambdas, spectra.pressures)):
        region = element_region(coarse, e)
        A = assemble_a(region, perm).toarray()
        B = assemble_b(region).toarray()
        s = weight.values[region.cells()] * fine.h ** 2
        n, m = A.shape[0], B.shape[0]
        # full saddle pencil: finite eigenvalues match the reduced problem
        K1 = np.block([[A, -B.T], [B, np.zeros((m, m))]])
        K2 = np.zeros((n + m, n + m))
        K2[n:, n:] = np.diag(s)
        ev, vec = scipy.linalg.eig(K1, K2)
        lmax = lam[-1]
        keep = np.isfinite(ev) & (np.abs(ev) < 1e6 * lmax)
        assert np.count_nonzero(keep) == m
        assert np.abs(ev[keep].imag).max() <= 1e-8 * lmax
        order = np.argsort(ev[keep].real)
        lam_orc = ev[keep].real[order]
        P_orc = vec[n:, keep][:, order].real
        worst_lam = max(worst_lam,
                        np.abs(lam - lam_orc).max() / lmax)
        worst_zero = max(worst_zero, lam[0] / lmax)
        # compare eigenspaces cluster by cluster in the weighted metric;
        # merging near-ties keeps the comparison insensitive to how either
        # solver mixes close eigenvectors
        splits = np.flatnonzero(np.diff(lam_orc) > 1e-4 * lmax) + 1
        root_s = np.sqrt(s)[:, None]
        for block in np.split(np.arange(m), splits):
            ang = scipy.linalg.subspace_angles(
                root_s * P[:, block], root_s * P_orc[:, block])
            worst_angle = max(worst_angle, float(ang.max()))
    ok = worst_lam <= 1e-10 and worst_angle < 1e-8 and worst_zero <= 1e-10
    record_criterion(2, ok, f"eigenvalue dev {worst_lam:.2e}, principal angle "
                            f"{worst_angle:.2e}, lambda_1/lambda_max {worst_zero:.2e}")
    assert ok


def test_criterion_3_localization_consistency(inst32):
    fine, coarse, perm, weight, aux = inst32
    t0 = perf_counter()
    glo_set = build_basis_set(aux, perm, flavor="global", workers=WORKERS)
    # three layers clip to the whole domain for every element of a 4x4 grid
    loc_set = build_basis_set(aux, perm, layers=3, workers=WORKERS)
    worst = 0.0
    for g_fn, l_fn in zip(glo_set, loc_set):
        gv = g_fn.v_global(fine.n_edges)
        dv = gv - l_fn.v_global(fine.n_edges)
        ref = velocity_norms(fine, perm, weight, gv).V
        worst = max(worst, velocity_norms(fine, perm, weight, dv).V / ref)
    seconds = perf_counter() - t0
    ok = worst <= 1e-9 and seconds < 120.0
    record_criterion(3, ok, f"saturated-vs-global V-norm dev {worst:.2e} over "
                            f"{len(glo_set)} functions, {seconds:.1f}s")
    assert ok


def test_criterion_4_global_identities(inst32):
    fine, coarse, perm, weight, aux = inst32
    f = corner_source(fine, g=4)
    glo_set = build_basis_set(aux, perm, flavor="global", workers=WORKERS)
    ms = solve_multiscale(assemble_coarse_system(glo_set, perm, f))
    snap = build_snapshot(aux, perm, f)
    M = mass_matrix(fine, perm)
    d = ms.v - snap.v
    dev = float(np.sqrt(d @ M @ d) / np.sqrt(snap.v @ M @ snap.v))
    G = (glo_set.matrix.T @ M @ glo_set.matrix).toarray()
    sv = np.linalg.svd(G, compute_uv=False)
    n_cols = aux.n_columns
    rank = n_cols - 1
    gap = sv[rank - 1] / sv[rank]
    ok = dev <= 1e-9 and gap >= 1e6
    record_criterion(4, ok, f"u_ms(global) vs u_snap {dev:.2e}; rank "
                            f"{rank}/{n_cols} with gap {gap:.1e}")
    assert ok


def test_criterion_5_exponential_decay(preset128):
    fine, perm4, perm6, f = preset128
    fine2, coarse = build_grids(128, 8)
    weight = compute_weight(perm4, bilinear_pou(coarse))
    spectra = solve_all_spectra(coarse, perm4, weight, workers=WORKERS)
    aux3 = build_aux_space(coarse, weight, spectra, nbasis=3)
    aux1 = build_aux_space(coarse, weight, spectra, nbasis=1)
    e = int(coarse.element_id(0, 0))  # crossed by two channels
    layers = [1, 2, 3, 4]
    rho3 = [decay_study(aux3, perm4, e, j, layers).rho for j in range(3)]
    rho1 = decay_study(aux1, perm4, e, 0, layers).rho
    ok = max(rho3) <= 0.7 and rho3[0] < rho1
    record_criterion(5, ok, f"rho(J=3) = {', '.join(f'{r:.3f}' for r in rho3)} "
                            f"(need <= 0.7); rho(J=1) = {rho1:.3f}")
    assert ok


def test_criterion_6_convergence_trend(trend_solves):
    cases, seconds = trend_solves
    errs = [cases[k]["err"] for k in ("J3_H8", "J3_H16", "J3_H32")]
    fp = [errs[k].e_p / errs[k + 1].e_p for k in range(2)]
    fv = [errs[k].e_v / errs[k + 1].e_v for k in range(2)]
    ok = min(fp) >= 1.7 and min(fv) >= 1.7 and seconds < 900.0
    record_criterion(6, ok,
                     f"e_p halving factors {fp[0]:.2f}, {fp[1]:.2f}; e_v "
                     f"{fv[0]:.2f}, {fv[1]:.2f} (need >= 1.7); {seconds:.0f}s")
    assert ok


def test_criterion_7_contrast_robustness(trend_solves):
    cases, _ = trend_solves
    lo = cases["J3_H16"]["err"].e_v
    hi = cases["J3_H16_hi"]["err"].e_v
    ratio = hi / lo
    ok = 0.5 < ratio < 2.0
    record_criterion(7, ok, f"e_v {100 * lo:.3f}% at contrast 1e4 vs "
                            f"{100 * hi:.3f}% at 1e6 (ratio {ratio:.3f})")
    assert ok


def test_criterion_8_deficient_basis(trend_solves):
    cases, _ = trend_solves
    full = cases["J3_H8"]["err"].e_v
    poor = cases["J1_H8"]["err"].e_v
    ratio = poor / full
    ok = ratio >= 5.0
    record_criterion(8, ok, f"e_v {100 * poor:.2f}% with J=1 vs "
                            f"{100 * full:.2f}% with J=3 (ratio {ratio:.1f}, "
                            f"need >= 5)")
    assert ok


def test_criterion_9_conservation(trend_solves):
    cases, _ = trend_solves
    worst_mass = max(c["mass"].max_residual for c in cases.values())
    worst_compat = max(c["fn_compat"] for c in cases.values())
    ok = worst_mass <= 1e-10 and worst_compat <= 1e-10
    record_criterion(9, ok, f"element mass residual {worst_mass:.2e}; basis "
                            f"div-compat {worst_compat:.2e} over "
                            f"{len(cases)} solves")
    assert ok


def test_criterion_10_projection_properties(inst32):
    fine, coarse, perm, weight, aux = inst32
    pou = bilinear_pou(coarse)
    assert np.abs(node_sum(pou.coarse) - 1.0).max() <= 1e-10
    rng = np.random.default_rng(1234)
    s = aux.s_diag
    ones = np.ones(fine.n_cells)
    norm_one = np.sqrt(np.sum(s))
    worst_idem = worst_adj = worst_pou = 0.0
    for _ in range(1000):
        q = rng.standard_normal(fine.n_cells)
        r = rng.standard_normal(fine.n_cells)
        pq = aux.project(q)
        pr = aux.project(r)
        nq = np.sqrt(np.sum(s * q * q))
        nr = np.sqrt(np.sum(s * r * r))
        idem = np.sqrt(np.sum(s * (aux.project(pq) - pq) ** 2))
        worst_idem = max(worst_idem, idem / max(np.sqrt(np.sum(s * pq * pq)), 1e-300))
        adj = abs(np.sum(s * pq * r) - np.sum(s * q * pr))
        worst_adj = max(worst_adj, adj / (nq * nr))
        c = rng.uniform(0.5, 2.0)
        pou_res = np.sqrt(np.sum(s * (aux.project(c * ones) - c * ones) ** 2))
        worst_pou = max(worst_pou, pou_res / (c * norm_one))
    ok = max(worst_idem, worst_adj, worst_pou) <= 1e-10
    record_criterion(10, ok, f"idempotence {worst_idem:.2e}, self-adjointness "
                             f"{worst_adj:.2e}, unit-sum {worst_pou:.2e} "
                             f"over 1000 trials")
    assert ok
