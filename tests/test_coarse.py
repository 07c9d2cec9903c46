"""Projected coarse solves: exactness, conservation, degeneracy handling."""

import os

import numpy as np
import pytest
import scipy.linalg

from msdarcy import (ConfigError, PermField, SolveError, bilinear_pou,
                     build_aux_space, build_basis_set, build_grids,
                     build_snapshot, compute_weight, generate_medium,
                     relative_errors, sample_spec, solve_all_spectra,
                     solve_case, solve_fine_reference, assemble_coarse_system,
                     div_compat_residual, mass_residuals, solve_multiscale)
from msdarcy.basis import BasisSet
from msdarcy.fem import mass_matrix


def _setup(nx, Nx, nbasis, seed=31, span=np.log(1e3)):
    fine, coarse = build_grids(nx, Nx)
    rng = np.random.default_rng(seed)
    perm = PermField.from_raw(fine, np.exp(rng.uniform(0, span, fine.n_cells)))
    weight = compute_weight(perm, bilinear_pou(coarse))
    spectra = solve_all_spectra(coarse, perm, weight)
    aux = build_aux_space(coarse, weight, spectra, nbasis=nbasis)
    f = rng.standard_normal(fine.n_cells)
    f -= f.mean()
    return fine, coarse, perm, weight, aux, f


def test_full_space_reproduces_fine_solution():
    # keeping every eigenvector makes the coarse solve a change of basis
    fine, coarse, perm, weight, aux, f = _setup(8, 2, nbasis=16)
    bset = build_basis_set(aux, perm, flavor="global")
    system = assemble_coarse_system(bset, perm, f)
    ms = solve_multiscale(system)
    ref = solve_fine_reference(perm, f)
    assert np.abs(ms.v - ref.v).max() < 1e-9 * np.abs(ref.v).max()
    assert np.abs(ms.p - ref.p).max() < 1e-9 * np.abs(ref.p).max()


def test_solution_satisfies_projected_equations():
    fine, coarse, perm, weight, aux, f = _setup(16, 4, nbasis=2)
    bset = build_basis_set(aux, perm, layers=2)
    system = assemble_coarse_system(bset, perm, f)
    ms = solve_multiscale(system)
    scale = np.abs(system.rhs_q).max()
    assert np.allclose(system.A_c @ ms.coeff_v - system.B_c.T @ ms.coeff_p,
                       0.0, atol=1e-10 * scale)
    assert np.allclose(system.B_c @ ms.coeff_v + ms.gamma * system.mean_w,
                       system.rhs_q, atol=1e-10 * scale)
    assert abs(system.mean_w @ ms.coeff_p) < 1e-10 * scale
    assert ms.flavor == "type2" and ms.layers == 2
    assert ms.schur_sigma > 0
    # expanded fields match the coefficient combinations
    assert np.allclose(ms.v, bset.matrix @ ms.coeff_v, atol=1e-14)
    assert np.allclose(ms.p, aux.matrix @ ms.coeff_p, atol=1e-14)
    assert abs(np.sum(ms.p) * fine.h ** 2) < 1e-10


def test_elementwise_conservation_and_divergence_compatibility():
    fine, coarse, perm, weight, aux, f = _setup(16, 4, nbasis=3, seed=32)
    bset = build_basis_set(aux, perm, layers=1)
    ms = solve_multiscale(assemble_coarse_system(bset, perm, f))
    report = mass_residuals(ms, f, aux)
    assert report.element_residuals.size == coarse.n_elements
    assert report.max_residual < 1e-12 * np.abs(f).max() * fine.h ** 2 * fine.n_cells
    assert report.div_compat < 1e-10
    no_aux = mass_residuals(ms, f)
    assert np.isnan(no_aux.div_compat)
    assert np.array_equal(no_aux.element_residuals, report.element_residuals)


def test_div_compat_flags_incompatible_fields():
    fine, coarse, perm, weight, aux, f = _setup(16, 4, nbasis=1, seed=33)
    rng = np.random.default_rng(34)
    v = rng.standard_normal(fine.n_edges)
    v[fine.boundary_edge_mask()] = 0.0
    assert div_compat_residual(v, aux) > 0.1


def test_global_galerkin_matches_snapshot():
    fine, coarse, perm, weight, aux, f = _setup(16, 4, nbasis=2, seed=35)
    bset = build_basis_set(aux, perm, flavor="global")
    assert bset.saturated
    ms = solve_multiscale(assemble_coarse_system(bset, perm, f))
    snap = build_snapshot(aux, perm, f)
    d = ms.v - snap.v
    M = mass_matrix(fine, perm)
    rel = np.sqrt(d @ M @ d) / np.sqrt(snap.v @ M @ snap.v)
    assert rel < 1e-9


def _dense_reference(system):
    """Oracle: the restricted Schur eigenvalue from an explicit
    Householder frame, and the coefficients from the dense bordered KKT
    system, deflated by a multiplier row when the set is saturated."""
    A_c, B_c, w = system.A_c, system.B_c, system.mean_w
    n = A_c.shape[0]
    deflate = system.basis.saturated
    A_sym = 0.5 * (A_c + A_c.T)
    if deflate:
        u0 = system.aux.coefficients(np.ones(system.aux.coarse.fine.n_cells))
        A_sym = A_sym + np.trace(A_sym) / n * np.outer(u0, u0) / (u0 @ u0)
    schur = B_c @ scipy.linalg.cho_solve(scipy.linalg.cho_factor(A_sym), B_c.T)
    if n == 1:
        sigma = np.inf
    else:
        v = w / np.linalg.norm(w)
        e = np.zeros(n)
        e[0] = 1.0
        u = v - e if v[0] > 0 else v + e
        Z = (np.eye(n) - 2.0 * np.outer(u, u) / (u @ u))[:, 1:]
        sigma = np.linalg.eigvalsh(Z.T @ (0.5 * (schur + schur.T)) @ Z)[0]
    size = 2 * n + 1 + (1 if deflate else 0)
    K = np.zeros((size, size))
    K[:n, :n] = A_c
    K[:n, n:2 * n] = -B_c.T
    K[n:2 * n, :n] = -B_c
    K[n:2 * n, 2 * n] = -w
    K[2 * n, n:2 * n] = -w
    if deflate:
        K[:n, -1] = u0
        K[-1, :n] = u0
    rhs = np.zeros(size)
    rhs[n:2 * n] = -system.rhs_q
    x = scipy.linalg.solve(K, rhs, assume_a="sym")
    return x[:n], x[n:2 * n], float(x[2 * n]), float(sigma)


def _single_column_system():
    fine, coarse = build_grids(8, 1)
    rng = np.random.default_rng(37)
    perm = PermField.from_raw(fine, np.exp(rng.uniform(0, 2, fine.n_cells)))
    weight = compute_weight(perm, bilinear_pou(coarse))
    aux = build_aux_space(coarse, weight, solve_all_spectra(coarse, perm, weight),
                          nbasis=1)
    bset = build_basis_set(aux, perm, flavor="global")
    f = rng.standard_normal(fine.n_cells)
    f -= f.mean()
    return assemble_coarse_system(bset, perm, f)


def _oracle_system(case):
    if case == "single":
        return _single_column_system()
    fine, coarse, perm, weight, aux, f = _setup(16, 4, nbasis=2, seed=38)
    if case == "global":
        bset = build_basis_set(aux, perm, flavor="global")
        assert bset.saturated
    else:
        bset = build_basis_set(aux, perm, layers=1, flavor=case)
    return assemble_coarse_system(bset, perm, f)


@pytest.mark.parametrize("case", ["type2", "type1", "global", "single"])
def test_schur_solve_matches_dense_kkt(case):
    system = _oracle_system(case)
    ms = solve_multiscale(system)
    U, P, gamma, sigma = _dense_reference(system)

    def close(a, b, rtol=1e-10):
        return np.linalg.norm(a - b) <= rtol * np.linalg.norm(b)

    if case == "single":
        assert ms.schur_sigma == sigma == np.inf
    else:
        assert close(ms.schur_sigma, sigma, rtol=1e-8)
    assert close(ms.coeff_p, P)
    assert close(ms.p, system.aux.matrix @ P)
    d = ms.coeff_v - U
    A_sym = 0.5 * (system.A_c + system.A_c.T)
    assert np.sqrt(d @ A_sym @ d) <= 1e-10 * np.sqrt(U @ A_sym @ U)
    assert close(ms.v, system.basis.matrix @ U)
    # gamma is zero up to roundoff for a zero-mean source
    scale = np.linalg.norm(system.rhs_q) / np.linalg.norm(system.mean_w)
    assert abs(ms.gamma - gamma) <= 1e-10 * scale


def test_schur_health_positive_and_degenerate_cases():
    fine, coarse, perm, weight, aux, f = _setup(16, 4, nbasis=2, seed=36)
    bset = build_basis_set(aux, perm, layers=2)
    system = assemble_coarse_system(bset, perm, f)
    assert solve_multiscale(system).schur_sigma > 1e-6
    # a duplicated column makes the velocity block indefinite
    twice = BasisSet(coarse, aux, "type2", 2,
                     [bset.functions[0], bset.functions[0]])
    broken = assemble_coarse_system(twice, perm, f)
    with pytest.raises(SolveError):
        solve_multiscale(broken)


def test_single_pressure_column_reports_inf():
    assert solve_multiscale(_single_column_system()).schur_sigma == np.inf


def test_residual_check_raises_with_residual():
    system = _oracle_system("type2")
    with pytest.raises(SolveError) as info:
        solve_multiscale(system, rtol=1e-30)
    assert 0 < info.value.residual < 1e-10 * np.linalg.norm(system.rhs_q)


def test_memory_guard_refuses_oversized_coarse_system(monkeypatch):
    fine, coarse, perm, weight, aux, f = _setup(8, 2, nbasis=1, seed=39)
    bset = build_basis_set(aux, perm, layers=1)
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 1}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    with pytest.raises(ConfigError, match=f"{len(bset)} basis functions needs about"):
        assemble_coarse_system(bset, perm, f)
    pages["SC_PHYS_PAGES"] = 2 ** 40
    assert assemble_coarse_system(bset, perm, f).A_c.shape == (len(bset),) * 2


def test_contrast_sweep_conserves_mass_with_stable_errors():
    """Contrasts 1e2..1e12 on one channel layout: the coarse solve accepts
    every one (sigma falls like 1/contrast), conserves mass per element,
    and the velocity error settles once the channels dominate."""
    fine, coarse = build_grids(32, 4)
    f = np.zeros((32, 32))
    f[28:, :4] = 1.0
    f[:4, 28:] = -1.0
    f = f.ravel()
    e_v, sigmas = {}, []
    for k in range(2, 13):
        spec = sample_spec(32, n_horizontal=1, n_vertical=1, n_inclusions=4,
                           contrast_lo=10.0 ** k, contrast_hi=10.0 ** k, seed=0,
                           coarse_n=4, max_channels_per_element=2)
        perm = generate_medium(spec, fine)
        ms, aux, bset, report = solve_case(perm, f, 4, nbasis=3, layers=2)
        assert report.max_residual <= 1e-10
        assert report.div_compat <= 1e-10
        sigmas.append(ms.schur_sigma)
        e_v[k] = relative_errors(solve_fine_reference(perm, f), ms, perm,
                                 aux.weight).e_v
    assert sigmas[-1] < 1e-9 * sigmas[0]
    settled = [e_v[k] for k in range(4, 13)]
    assert max(settled) <= 1.01 * min(settled)
    assert e_v[12] == pytest.approx(e_v[6], rel=1e-4)
