"""Mixed discretization blocks, the saddle template, the fine reference solve."""

import os

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from msdarcy import (ConfigError, PermField, SolveError, bilinear_pou,
                     build_aux_space, build_grids, build_snapshot, compute_weight,
                     corner_source, generate_medium, manufactured_cospi, sample_spec,
                     solve_all_spectra, solve_fine_reference, three_channel_spec)
from msdarcy.fem import band_solve, check_source, divergence_matrix, mass_triplets
from msdarcy.mesh import FineGrid, element_layout, element_region, full_domain
from oracles import (_cell_hybrid_reference, assemble_a, assemble_b, bordered_reference,
                     infsup_smallest_sigma, local_index, mass_matrix, pinned_reference,
                     refined_lu, saddle_matrix)


def _random_perm(grid, seed=0, span=3.0):
    rng = np.random.default_rng(seed)
    return PermField.from_raw(grid, np.exp(rng.uniform(0, span, grid.n_cells)))


def _energy_by_quadrature(grid, kappa, u, cells):
    """kappa^-1-weighted L2 norm of the reconstructed flux field, integrated
    cell by cell with Gauss-Legendre points (independent of the assembly)."""
    pts, wts = np.polynomial.legendre.leggauss(3)
    xi = 0.5 * (pts + 1.0)
    w = 0.5 * wts
    total = 0.0
    for c in cells:
        L, R, B, T = (int(e[0]) for e in grid.cell_edge_ids(np.array([c])))
        vx = u[L] * (1 - xi) + u[R] * xi
        vy = u[B] * (1 - xi) + u[T] * xi
        total += (w @ vx**2 + w @ vy**2) * grid.h**2 / kappa[c]
    return total


def test_mass_matrix_matches_quadrature():
    grid = FineGrid(3, 3)
    perm = _random_perm(grid, seed=1)
    M = mass_matrix(grid, perm)
    rng = np.random.default_rng(2)
    for _ in range(4):
        u = rng.standard_normal(grid.n_edges)
        ref = _energy_by_quadrature(grid, perm.values, u, range(grid.n_cells))
        assert u @ M @ u == pytest.approx(ref, rel=1e-13)


def test_mass_matrix_cell_restriction_is_additive():
    grid = FineGrid(4, 4)
    perm = _random_perm(grid, seed=3)
    half_a = np.arange(8)
    half_b = np.arange(8, 16)
    M = mass_matrix(grid, perm)

    def restricted(cells):
        rows, cols, vals = mass_triplets(grid, cells, perm.values[cells])
        return sp.coo_matrix((vals, (rows, cols)), shape=M.shape).tocsr()

    assert abs(M - restricted(half_a) - restricted(half_b)).max() < 1e-15


def test_divergence_rows_sum_signed_edge_fluxes():
    grid = FineGrid(4, 4)
    B = divergence_matrix(grid)
    rng = np.random.default_rng(4)
    u = rng.standard_normal(grid.n_edges)
    L, R, Bo, T = grid.cell_edge_ids(np.arange(grid.n_cells))
    expected = grid.h * (u[R] - u[L] + u[T] - u[Bo])
    assert np.allclose(B @ u, expected, atol=1e-15)


def test_region_assembly_matches_global_blocks():
    fine, coarse = build_grids(12, 3)
    perm = _random_perm(fine, seed=5)
    reg = element_region(coarse, 4)
    edges = reg.interior_edges()
    A = assemble_a(reg, perm)
    rng = np.random.default_rng(6)
    u_loc = rng.standard_normal(edges.size)
    u_full = np.zeros(fine.n_edges)
    u_full[edges] = u_loc
    ref = _energy_by_quadrature(fine, perm.values, u_full, reg.cells())
    assert u_loc @ A @ u_loc == pytest.approx(ref, rel=1e-13)
    # divergence block agrees with the global operator on scattered fluxes
    Bg = divergence_matrix(fine)
    Br = assemble_b(reg)
    assert np.allclose(Br @ u_loc, (Bg @ u_full)[reg.cells()], atol=1e-14)


def test_sliced_blocks_and_solves_match_region_assembly():
    """Every element block and the full-domain blocks, sliced from the
    whole-domain operators, equal the region-local assembly; the spectra
    and the fine reference agree with solves on the reference blocks."""
    fine, coarse = build_grids(12, 3)
    perm = _random_perm(fine, seed=14, span=6.0)
    M, D = mass_matrix(fine, perm), divergence_matrix(fine)
    interior, cells, _ = element_layout(coarse)
    A_el = [M[i][:, i] for i in interior]
    B_el = [D[c][:, i] for c, i in zip(cells, interior)]
    weight = compute_weight(perm, bilinear_pou(coarse))
    spectra = solve_all_spectra(coarse, perm, weight)
    for e in range(coarse.n_elements):
        region = element_region(coarse, e)
        A, B = assemble_a(region, perm), assemble_b(region)
        assert np.array_equal(A_el[e].toarray(), A.toarray())
        assert np.array_equal(B_el[e].toarray(), B.toarray())
        S = weight.values[region.cells()] * fine.h ** 2
        X = splu(A.tocsc()).solve(B.T.toarray())
        lam, P = scipy.linalg.eigh(B @ X, np.diag(S))
        assert np.array_equal(spectra.cells[e], region.cells())
        assert np.abs(spectra.lambdas[e] - lam).max() <= 1e-10 * lam[-1]
        P *= np.sign(np.sum(spectra.pressures[e] * S[:, None] * P, axis=0))[None, :]
        assert np.abs(spectra.pressures[e] - P).max() <= 1e-10 * np.abs(P).max()

    edges = full_domain(fine).interior_edges()
    A, B = assemble_a(full_domain(fine), perm), assemble_b(full_domain(fine))
    assert np.array_equal(M[edges][:, edges].toarray(), A.toarray())
    assert np.array_equal(D[:, edges].toarray(), B.toarray())
    rng = np.random.default_rng(15)
    f = rng.standard_normal(fine.n_cells)
    f -= f.mean()
    v_ref, p_ref = bordered_reference(perm, f)
    sol = solve_fine_reference(perm, f)
    assert np.linalg.norm(sol.v - v_ref) <= 1e-10 * np.linalg.norm(v_ref)
    assert np.linalg.norm(sol.p - p_ref) <= 1e-10 * np.linalg.norm(p_ref)


def _oracle_case(case):
    """The medium, source and coarse grid of an oracle case: the 64x64
    three-channel medium at contrast `case` with the corner source, or a
    log-uniform medium over 12 decades with a random zero-mean source
    (the media of the type1 region-residual findings)."""
    if case == "random16":
        fine, coarse = build_grids(16, 2)
        perm = _random_perm(fine, seed=21, span=12 * np.log(10))
    elif case == "random32":
        fine, coarse = build_grids(32, 8)
        perm = _random_perm(fine, seed=3, span=12 * np.log(10))
    else:
        fine, coarse = build_grids(64, 8)
        perm = generate_medium(three_channel_spec(contrast=case), fine)
        return perm, coarse, corner_source(fine)
    f = np.random.default_rng(fine.nx).standard_normal(fine.n_cells)
    return perm, coarse, f - f.mean()


@pytest.mark.parametrize("case", [1.0, 1e4, 1e8, 1e12, "random16", "random32"])
def test_pinned_reference_matches_bordered_oracle(case):
    """The hybridized fine reference against the bordered solve: the flux
    in the energy norm (at high contrast its plain L2 difference is
    roundoff that both solves share, as far off a solve refined with
    long-double residuals as they are off each other) and the pressure
    in L2, plus every cell's mass balance. The snapshot, the other
    whole-domain solve, against the LU of the saddle matrix pinned in
    cell 0, in the same norms."""
    perm, coarse, f = _oracle_case(case)
    grid = perm.grid
    sol = solve_fine_reference(perm, f)
    v_ref, p_ref = bordered_reference(perm, f)
    M = mass_matrix(grid, perm)
    dv = sol.v - v_ref
    assert np.sqrt(dv @ M @ dv) <= 1e-10 * np.sqrt(v_ref @ M @ v_ref)
    assert np.linalg.norm(sol.p - p_ref) <= 1e-10 * np.linalg.norm(p_ref)
    h2 = grid.h ** 2
    defect = np.abs(divergence_matrix(grid) @ sol.v - h2 * f)
    assert defect.max() <= 1e-10 * h2 * np.abs(f).sum()

    weight = compute_weight(perm, bilinear_pou(coarse))
    aux = build_aux_space(coarse, weight, solve_all_spectra(coarse, perm, weight), nbasis=3)
    snap = build_snapshot(aux, perm, f)
    v_ref, p_ref = pinned_reference(perm, aux.s_diag * aux.project(f / weight.values))
    dv = snap.v - v_ref
    assert np.sqrt(dv @ M @ dv) <= 1e-10 * np.sqrt(v_ref @ M @ v_ref)
    # the snapshot is posed with +b(v, p), the template with -b(v, p)
    assert np.linalg.norm(snap.p + p_ref) <= 1e-10 * np.linalg.norm(p_ref)


@pytest.mark.parametrize("case", [1.0, 1e4, 1e8, 1e12, "random16", "random32", "channels128"])
def test_macro_condensation_matches_cell_hybrid_reference(case):
    """The whole-domain solve, which eliminates each 2x2 macro-cell's inner
    multipliers before the band, against the hybridization onto all the
    multipliers that it replaced: the flux in the energy norm and the
    pressure in L2, on the oracle cases and the three-channel medium at
    128x128."""
    if case == "channels128":
        fine, _ = build_grids(128, 8)
        perm = generate_medium(three_channel_spec(contrast=1e4), fine)
        f = corner_source(fine)
    else:
        perm, _, f = _oracle_case(case)
    grid = perm.grid
    sol = solve_fine_reference(perm, f)
    v_ref, p_ref = _cell_hybrid_reference(perm, grid.h ** 2 * f)
    M = mass_matrix(grid, perm)
    dv = sol.v - v_ref
    assert np.sqrt(dv @ M @ dv) <= 1e-10 * np.sqrt(v_ref @ M @ v_ref)
    assert np.linalg.norm(sol.p - p_ref) <= 1e-10 * np.linalg.norm(p_ref)


@pytest.mark.xfail(strict=True, raises=SolveError, reason="ROADMAP item 1")
@pytest.mark.parametrize("nx,seed,n_horizontal,n_vertical,n_inclusions", [
    (32, 0, 1, 1, 4), (32, 5, 1, 1, 4), (32, 7, 2, 2, 6), (32, 19, 3, 1, 8),
    (64, 0, 1, 1, 4), (64, 9, 1, 1, 4)])
def test_random_layouts_at_contrast_1e12_match_bordered_oracle(nx, seed, n_horizontal,
                                                               n_vertical, n_inclusions):
    """Random channel layouts at contrast 1e12, with a unit source in the
    first b x b cells and a unit sink in the last, b = nx / 8, against the
    bordered solve with the bounds of the oracle cases. The refinement
    sweeps stop above the tolerance on all six, at residuals of 5.6 to 464
    times it at 32x32 and 4.0e4 to 1.6e8 times it at 64x64 (ROADMAP item
    1): each raises SolveError until a solve that converges replaces them."""
    grid = FineGrid(nx, nx)
    perm = generate_medium(sample_spec(nx, n_horizontal, n_vertical, n_inclusions,
                                       contrast_lo=1e12, contrast_hi=1e12, seed=seed,
                                       coarse_n=4, max_channels_per_element=2), grid)
    b = nx // 8
    f = np.zeros((nx, nx))
    f[:b, :b], f[-b:, -b:] = 1.0, -1.0
    f = f.ravel()
    sol = solve_fine_reference(perm, f)
    v_ref, p_ref = bordered_reference(perm, f)
    M = mass_matrix(grid, perm)
    dv = sol.v - v_ref
    assert np.sqrt(dv @ M @ dv) <= 1e-10 * np.sqrt(v_ref @ M @ v_ref)
    assert np.linalg.norm(sol.p - p_ref) <= 1e-10 * np.linalg.norm(p_ref)
    h2 = grid.h ** 2
    defect = np.abs(divergence_matrix(grid) @ sol.v - h2 * f)
    assert defect.max() <= 1e-10 * h2 * np.abs(f).sum()


@pytest.mark.parametrize("nx", [2, 3, 5, 7, 9])
def test_odd_and_tiny_grids_match_bordered_oracle(nx):
    """Grids whose last macro-cell row and column are partial, and the
    2x2 grid, whose only macro holds every interior edge, on media over 12
    decades, against the bordered solve with the bounds of the oracle
    cases."""
    grid = FineGrid(nx, nx)
    perm = _random_perm(grid, seed=nx, span=12 * np.log(10))
    f = np.random.default_rng(nx + 100).standard_normal(grid.n_cells)
    f -= f.mean()
    sol = solve_fine_reference(perm, f)
    v_ref, p_ref = bordered_reference(perm, f)
    M = mass_matrix(grid, perm)
    dv = sol.v - v_ref
    assert np.sqrt(dv @ M @ dv) <= 1e-10 * np.sqrt(v_ref @ M @ v_ref)
    assert np.linalg.norm(sol.p - p_ref) <= 1e-10 * np.linalg.norm(p_ref)
    h2 = grid.h ** 2
    defect = np.abs(divergence_matrix(grid) @ sol.v - h2 * f)
    assert defect.max() <= 1e-10 * h2 * np.abs(f).sum()
    assert (sol.v[grid.boundary_edge_mask()] == 0).all()


def test_one_cell_grid_is_refused():
    """A 1x1 grid has no interior edge, so no multiplier to solve for."""
    grid = FineGrid(1, 1)
    with pytest.raises(ConfigError, match="1x1 fine grid has no interior edge"):
        solve_fine_reference(PermField.from_raw(grid, np.ones(1)), np.zeros(1))


def test_memory_guard_refuses_oversized_fine_band(monkeypatch):
    """The guard counts the band factor exactly: on an 8x8 grid the macro
    boundaries carry 2 * 8 * 3 = 48 multipliers at half-width 2 * 8 - 1."""
    grid = FineGrid(8, 8)
    perm = _random_perm(grid, seed=40)
    f = np.random.default_rng(41).standard_normal(grid.n_cells)
    f -= f.mean()
    need = 8 * 48 * 16
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": need - 1}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    with pytest.raises(ConfigError, match="8x8 fine grid's band of 48 multipliers at "
                                          "half-width 15 needs about"):
        solve_fine_reference(perm, f)
    pages["SC_PHYS_PAGES"] = need
    assert solve_fine_reference(perm, f).v.shape == (grid.n_edges,)


def test_zero_source_stops_at_the_first_solve(monkeypatch):
    """A zero source gives v = p = 0 from the first band solve, whose
    residual is exactly zero: no refinement sweep follows."""
    grid = FineGrid(16, 16)
    perm = _random_perm(grid, seed=16, span=6.0)
    calls = []

    def counted(factor, b):
        calls.append(b.shape)
        return band_solve(factor, b)
    monkeypatch.setattr("msdarcy.fem.band_solve", counted)
    sol = solve_fine_reference(perm, np.zeros(grid.n_cells))
    assert len(calls) == 1
    assert not sol.v.any() and not sol.p.any()


def test_small_source_mean_is_removed():
    """A source whose mean check_source lets through gives the solution
    of its mean-free part, and that part's mass balance in every cell."""
    grid = FineGrid(16, 16)
    perm = _random_perm(grid, seed=16, span=6.0)
    rng = np.random.default_rng(17)
    f0 = rng.standard_normal(grid.n_cells)
    f0 -= f0.mean()
    h2 = grid.h ** 2
    # an integral of 0.9e-12 of the check's scale, spread evenly
    f = f0 + 0.9e-12 * max(np.abs(f0).sum() * h2, 1.0) / (grid.n_cells * h2)
    assert np.sum(f) * h2 != 0.0
    check_source(f, grid)
    sol = solve_fine_reference(perm, f)
    ref = solve_fine_reference(perm, f0)
    assert np.linalg.norm(sol.v - ref.v) <= 1e-10 * np.linalg.norm(ref.v)
    assert np.linalg.norm(sol.p - ref.p) <= 1e-10 * np.linalg.norm(ref.p)
    defect = np.abs(divergence_matrix(grid) @ sol.v - h2 * f0)
    assert defect.max() <= 1e-10 * h2 * np.abs(f).sum()


def test_dofmap_indexing():
    fine = FineGrid(4, 4)
    reg = full_domain(fine)
    edges = reg.interior_edges()
    assert edges.size == fine.n_edges - fine.boundary_edge_mask().sum()
    loc = local_index(edges, edges)
    assert np.array_equal(loc, np.arange(edges.size))
    boundary = np.flatnonzero(fine.boundary_edge_mask())
    assert (local_index(edges, boundary) == -1).all()
    full = np.zeros(fine.n_edges)
    full[edges] = 1.0
    assert full.sum() == edges.size
    assert (full[boundary] == 0).all()


def test_saddle_template_solves_block_equations():
    rng = np.random.default_rng(8)
    n, m, k = 7, 5, 3
    A = rng.standard_normal((n, n))
    A = sp.csr_matrix(A @ A.T + n * np.eye(n))
    B = sp.csr_matrix(rng.standard_normal((m, n)))
    C = sp.csr_matrix(rng.standard_normal((m, k)))
    rhs_v = rng.standard_normal(n)
    rhs_p = rng.standard_normal(m)
    rhs_c = rng.standard_normal(k)
    K = saddle_matrix(A, B, C, np.ones(k))
    assert abs(K - K.T).max() < 1e-14
    # packed with the template's sign flips: rhs_v, -rhs_p, -rhs_c
    x = refined_lu(K, rtol=1e-12)(np.concatenate([rhs_v, -rhs_p, -rhs_c]))
    u, p, y = x[:n], x[n:n + m], x[n + m:]
    assert np.allclose(A @ u - B.T @ p, rhs_v, atol=1e-9)
    assert np.allclose(B @ u + C @ y, rhs_p, atol=1e-9)
    assert np.allclose(C.T @ p - y, rhs_c, atol=1e-9)


def test_saddle_identity_block_toggle():
    """The y block's diagonal Y toggles between identity and zero; a zero
    diagonal is stored entry by entry, so the pattern does not depend on Y."""
    rng = np.random.default_rng(9)
    n, m, k = 6, 4, 2
    A = rng.standard_normal((n, n))
    A = sp.csr_matrix(A @ A.T + n * np.eye(n))
    B = sp.csr_matrix(rng.standard_normal((m, n)))
    C = sp.csr_matrix(rng.standard_normal((m, k)))
    rhs_v = rng.standard_normal(n)
    rhs_p = rng.standard_normal(m)
    rhs_c = rng.standard_normal(k)
    K = saddle_matrix(A, B, C, np.zeros(k))
    assert K.nnz == saddle_matrix(A, B, C, np.ones(k)).nnz
    x = refined_lu(K, rtol=1e-12)(np.concatenate([rhs_v, -rhs_p, -rhs_c]))
    p, y = x[n:n + m], x[n + m:]
    # with a zero diagonal the third row reads C^T p = rhs_c
    assert np.allclose(C.T @ p, rhs_c, atol=1e-9)
    assert np.allclose(B @ x[:n] + C @ y, rhs_p, atol=1e-9)


def test_fine_reference_residual_error(monkeypatch):
    """A tolerance no solve meets raises a SolveError that names the
    system and carries the final residual; so does a failed factor."""
    grid = FineGrid(8, 8)
    perm = _random_perm(grid, seed=18)
    f = np.random.default_rng(19).standard_normal(grid.n_cells)
    f -= f.mean()
    with pytest.raises(SolveError, match="fine reference") as info:
        solve_fine_reference(perm, f, rtol=1e-30)
    assert info.value.residual > 0

    def fail(band):
        raise np.linalg.LinAlgError("pivot 1 of 112 is not positive")
    monkeypatch.setattr("msdarcy.fem.band_cholesky", fail)
    with pytest.raises(SolveError, match="factorization failed for fine reference: pivot"):
        solve_fine_reference(perm, f)


def test_check_zero_mean():
    grid = FineGrid(2, 2)
    check_source(np.array([1.0, -1.0, 0.0, 0.0]), grid)
    with pytest.raises(ConfigError, match="zero mean"):
        check_source(np.array([1.0, -0.5, 0.0, 0.0]), grid)


def test_fine_reference_conserves_mass_and_respects_walls():
    grid = FineGrid(12, 12)
    perm = _random_perm(grid, seed=10, span=6.0)
    rng = np.random.default_rng(11)
    f = rng.standard_normal(grid.n_cells)
    f -= f.mean()
    sol = solve_fine_reference(perm, f)
    h2 = grid.h**2
    B = divergence_matrix(grid)
    assert np.allclose(B @ sol.v, h2 * f, atol=1e-12 * np.abs(f).max())
    assert (sol.v[grid.boundary_edge_mask()] == 0).all()
    assert abs(np.sum(sol.p) * h2) < 1e-12
    with pytest.raises(ConfigError):
        solve_fine_reference(perm, np.ones(grid.n_cells))
    with pytest.raises(ConfigError):
        solve_fine_reference(perm, np.zeros(5))


def test_fine_reference_matches_dense_kkt():
    grid = FineGrid(4, 4)
    perm = _random_perm(grid, seed=12)
    rng = np.random.default_rng(13)
    f = rng.standard_normal(grid.n_cells)
    f -= f.mean()
    sol = solve_fine_reference(perm, f)
    # independent dense solve of the same constrained problem
    reg = full_domain(grid)
    edges = reg.interior_edges()
    A = assemble_a(reg, perm).toarray()
    B = assemble_b(reg).toarray()
    n, m = A.shape[0], B.shape[0]
    h2 = grid.h**2
    K = np.zeros((n + m + 1, n + m + 1))
    K[:n, :n] = A
    K[:n, n:n + m] = -B.T
    K[n:n + m, :n] = -B
    K[n:n + m, -1] = -h2
    K[-1, n:n + m] = -h2
    rhs = np.concatenate([np.zeros(n), -h2 * f, [0.0]])
    x = np.linalg.solve(K, rhs)
    v = np.zeros(grid.n_edges)
    v[edges] = x[:n]
    assert np.allclose(v, sol.v, atol=1e-10)
    assert np.allclose(x[n:n + m], sol.p, atol=1e-10)


def test_manufactured_fields_match_quadrature():
    grid = FineGrid(8, 8)
    f, v, p = manufactured_cospi(grid)
    pts, wts = np.polynomial.legendre.leggauss(12)
    xi = 0.5 * (pts + 1.0)
    w = 0.5 * wts
    h = grid.h
    # cell averages of the source and pressure
    for c in (0, 11, 36, 63):
        ix, iy = grid.cell_ix_iy(c)
        X = (ix + xi[None, :]) * h
        Y = (iy + xi[:, None]) * h
        f_avg = float(w @ (2 * np.pi**2 * np.cos(np.pi * X) * np.cos(np.pi * Y)) @ w)
        p_avg = float(w @ (np.cos(np.pi * X) * np.cos(np.pi * Y)) @ w)
        assert f[c] == pytest.approx(f_avg, rel=1e-12)
        assert p[c] == pytest.approx(p_avg, rel=1e-12)
    # edge averages of the normal flux of -grad p
    ys = (3 + xi) * h
    x_avg = float(w @ (np.pi * np.sin(np.pi * 2 * h) * np.cos(np.pi * ys)))
    assert v[grid.vedge_id(2, 3)] == pytest.approx(x_avg, rel=1e-12)
    xs = (5 + xi) * h
    y_avg = float(w @ (np.pi * np.cos(np.pi * xs) * np.sin(np.pi * 2 * h)))
    assert v[grid.hedge_id(5, 2)] == pytest.approx(y_avg, rel=1e-12)
    # compatibility: the discrete divergence of the exact flux is h^2 f
    B = divergence_matrix(grid)
    assert np.allclose(B @ v, h**2 * f, atol=1e-13)


def test_manufactured_solution_converges():
    errs = []
    for nx in (8, 16):
        grid = FineGrid(nx, nx)
        perm = PermField.from_raw(grid, np.ones(grid.n_cells))
        f, v_exact, p_exact = manufactured_cospi(grid)
        sol = solve_fine_reference(perm, f)
        # separable trig data: the discrete flux IS the edge-average
        # interpolant, so only the pressure carries a discretization error
        assert np.linalg.norm(sol.v - v_exact) < 1e-12 * np.linalg.norm(v_exact)
        errs.append(np.linalg.norm(sol.p - p_exact) / np.linalg.norm(p_exact))
    assert errs[1] < 0.3 * errs[0]


def test_infsup_positive_and_scales_with_kappa():
    grid = FineGrid(8, 8)
    one = PermField(grid, np.ones(grid.n_cells))
    two = PermField(grid, 2.0 * np.ones(grid.n_cells))
    s1 = infsup_smallest_sigma(grid, one)
    s2 = infsup_smallest_sigma(grid, two)
    assert s1 > 0
    assert s2 == pytest.approx(2.0 * s1, rel=1e-10)
    big = FineGrid(128, 128)
    with pytest.raises(ConfigError):
        infsup_smallest_sigma(big, PermField(big, np.ones(big.n_cells)))
