"""Mixed discretization blocks, the saddle template, the fine reference solve."""

import numpy as np
import pytest
import scipy.sparse as sp

from msdarcy import (ConfigError, PermField, SolveError, build_grids,
                     manufactured_cospi, solve_fine_reference)
from msdarcy.fem import (SaddleSystem, assemble_a, assemble_b, assemble_s,
                         check_zero_mean, divergence_matrix, mass_matrix,
                         solve_saddle, velocity_dofmap)
from msdarcy.mesh import FineGrid, element_region, full_domain


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
    Ma = mass_matrix(grid, perm, cells=half_a)
    Mb = mass_matrix(grid, perm, cells=half_b)
    assert abs(M - Ma - Mb).max() < 1e-15


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
    dofmap = velocity_dofmap(reg)
    A = assemble_a(reg, perm)
    rng = np.random.default_rng(6)
    u_loc = rng.standard_normal(dofmap.n_dofs)
    u_full = dofmap.scatter(u_loc, fine.n_edges)
    ref = _energy_by_quadrature(fine, perm.values, u_full, reg.cells())
    assert u_loc @ A @ u_loc == pytest.approx(ref, rel=1e-13)
    # divergence block agrees with the global operator on scattered fluxes
    Bg = divergence_matrix(fine)
    Br = assemble_b(reg, dofmap)
    assert np.allclose(Br @ u_loc, (Bg @ u_full)[reg.cells()], atol=1e-14)


def test_assemble_s_diagonal():
    fine, coarse = build_grids(8, 4)
    perm = _random_perm(fine, seed=7)
    from msdarcy import bilinear_pou, compute_weight
    weight = compute_weight(perm, bilinear_pou(coarse))
    reg = element_region(coarse, 5)
    S = assemble_s(reg, weight)
    assert np.allclose(S.diagonal(), weight.values[reg.cells()] * fine.h**2)
    assert S.nnz == reg.n_cells


def test_dofmap_indexing():
    fine = FineGrid(4, 4)
    reg = full_domain(fine)
    dofmap = velocity_dofmap(reg)
    assert dofmap.n_dofs == fine.n_edges - fine.boundary_edge_mask().sum()
    loc = dofmap.local_index(dofmap.edges)
    assert np.array_equal(loc, np.arange(dofmap.n_dofs))
    boundary = np.flatnonzero(fine.boundary_edge_mask())
    assert (dofmap.local_index(boundary) == -1).all()
    full = dofmap.scatter(np.ones(dofmap.n_dofs), fine.n_edges)
    assert full.sum() == dofmap.n_dofs
    assert (full[boundary] == 0).all()


def test_saddle_template_solves_block_equations():
    rng = np.random.default_rng(8)
    n, m, k = 7, 5, 3
    A = rng.standard_normal((n, n))
    A = sp.csr_matrix(A @ A.T + n * np.eye(n))
    B = sp.csr_matrix(rng.standard_normal((m, n)))
    C = sp.csr_matrix(rng.standard_normal((m, k)))
    w = rng.uniform(1, 2, m)
    rhs_v = rng.standard_normal(n)
    rhs_p = rng.standard_normal(m)
    rhs_c = rng.standard_normal(k)
    system = SaddleSystem(A, B, rhs_v=rhs_v, rhs_p=rhs_p, C=C,
                          identity_block=True, rhs_c=rhs_c,
                          mean_weights=w, mean_value=0.25, label="toy")
    K = system.matrix()
    assert abs(K - K.T).max() < 1e-14
    sol = solve_saddle(system, rtol=1e-12)
    u, p, y, gamma = sol.u, sol.p, sol.y, sol.gamma
    assert np.allclose(A @ u - B.T @ p, rhs_v, atol=1e-9)
    assert np.allclose(B @ u + C @ y + gamma * w, rhs_p, atol=1e-9)
    assert np.allclose(C.T @ p - y, rhs_c, atol=1e-9)
    assert w @ p == pytest.approx(0.25, abs=1e-9)


def test_saddle_identity_block_toggle():
    rng = np.random.default_rng(9)
    n, m, k = 6, 4, 2
    A = rng.standard_normal((n, n))
    A = sp.csr_matrix(A @ A.T + n * np.eye(n))
    B = sp.csr_matrix(rng.standard_normal((m, n)))
    C = sp.csr_matrix(rng.standard_normal((m, k)))
    system = SaddleSystem(A, B, rhs_v=rng.standard_normal(n),
                          rhs_p=rng.standard_normal(m), C=C,
                          identity_block=False,
                          rhs_c=rng.standard_normal(k))
    sol = solve_saddle(system, rtol=1e-12)
    # without the identity block the third row reads C^T p = rhs_c
    assert np.allclose(C.T @ sol.p, system.rhs_c, atol=1e-9)
    assert np.allclose(B @ sol.u + C @ sol.y, system.rhs_p, atol=1e-9)


def test_saddle_errors():
    A = sp.csr_matrix(np.zeros((2, 2)))
    B = sp.csr_matrix(np.ones((1, 2)))
    singular = SaddleSystem(A, B, rhs_v=np.ones(2), rhs_p=np.ones(1),
                            label="degenerate")
    with pytest.raises(SolveError):
        solve_saddle(singular)
    empty = SaddleSystem(sp.csr_matrix((0, 0)), sp.csr_matrix((0, 0)),
                         rhs_v=np.zeros(0), rhs_p=np.zeros(0))
    with pytest.raises(ConfigError):
        solve_saddle(empty)


def test_check_zero_mean():
    check_zero_mean(np.array([1.0, -1.0]), 0.25)
    with pytest.raises(ConfigError, match="zero mean"):
        check_zero_mean(np.array([1.0, -0.5]), 0.25)


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
    dofmap = velocity_dofmap(reg)
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
    assert np.allclose(dofmap.scatter(x[:n], grid.n_edges), sol.v, atol=1e-10)
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


def infsup_smallest_sigma(grid, perm):
    """Oracle: smallest eigenvalue of the pressure Schur complement on
    zero-mean pressures. Dense; intended for small grids."""
    if grid.n_cells > 4096:
        raise ConfigError("inf-sup diagnostic is dense, use a grid of <= 64x64 cells")
    region = full_domain(grid)
    dofmap = velocity_dofmap(region)
    A = assemble_a(region, perm, dofmap).toarray()
    B = assemble_b(region, dofmap).toarray()
    schur = B @ np.linalg.solve(A, B.T)
    evals = np.linalg.eigvalsh(schur)
    return float(evals[1])


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
