"""Grid indexing, regions, partition of unity, cutoff fields."""

import numpy as np
import pytest

from msdarcy import ConfigError, build_grids
from msdarcy.mesh import (FineGrid, bilinear_pou, element_layout, element_region,
                          full_domain, oversample_region)
from oracles import cutoff_field, gradsq_at, hat_values, interp_coarse_nodal, node_sum


def test_grid_counts():
    g = FineGrid(5, 5)
    assert g.n_cells == 25
    assert g.n_vedges == 6 * 5
    assert g.n_hedges == 5 * 6
    assert g.n_edges == 60
    assert g.h == pytest.approx(0.2)


def test_cell_indexing_roundtrip():
    g = FineGrid(7, 7)
    cells = np.arange(g.n_cells)
    ix, iy = g.cell_ix_iy(cells)
    assert np.array_equal(iy * g.nx + ix, cells)


def test_edge_ids_disjoint_and_complete():
    g = FineGrid(4, 4)
    v = g.vedge_id(np.arange(5)[None, :], np.arange(4)[:, None]).ravel()
    h = g.hedge_id(np.arange(4)[None, :], np.arange(5)[:, None]).ravel()
    both = np.concatenate([v, h])
    assert both.size == g.n_edges
    assert np.array_equal(np.sort(both), np.arange(g.n_edges))


def test_decode_edge_inverts_ids():
    g = FineGrid(6, 6)
    edges = np.arange(g.n_edges)
    kind, i, j = g.decode_edge(edges)
    back = np.where(kind == 0, g.vedge_id(i, j), g.hedge_id(i, j))
    assert np.array_equal(back, edges)


def test_cell_edges_shared_between_neighbors():
    g = FineGrid(4, 4)
    L, R, B, T = g.cell_edge_ids(np.arange(g.n_cells))
    c = 2 * g.nx + 1
    right_nb = c + 1
    top_nb = c + g.nx
    assert R[c] == L[right_nb]
    assert T[c] == B[top_nb]


def test_boundary_edge_mask():
    g = FineGrid(5, 5)
    mask = g.boundary_edge_mask()
    assert mask.sum() == 4 * 5
    kind, i, j = g.decode_edge(np.flatnonzero(mask))
    on_wall = np.where(kind == 0, (i == 0) | (i == 5), (j == 0) | (j == 5))
    assert on_wall.all()


def test_build_grids_validation():
    fine, coarse = build_grids(16, 4)
    assert coarse.r == 4 and coarse.H == pytest.approx(0.25)
    with pytest.raises(ConfigError):
        build_grids(16, 5)
    with pytest.raises(ConfigError):
        build_grids(1, 1)
    with pytest.raises(ConfigError):
        build_grids(8, 16)


def test_element_cells_partition():
    fine, coarse = build_grids(12, 3)
    interior, cells, boundary = element_layout(coarse)
    assert np.array_equal(np.sort(cells.ravel()), np.arange(fine.n_cells))
    # element_of_cell inverts the layout's cells
    for e in (0, 4, 8):
        assert (coarse.element_of_cell(cells[e]) == e).all()
    # each row is the element's region: its interior edges, its cells, and
    # the 4r edges on its boundary
    for e in range(coarse.n_elements):
        region = element_region(coarse, e)
        assert np.array_equal(interior[e], region.interior_edges())
        assert np.array_equal(cells[e], region.cells())
        assert boundary[e].size == 4 * coarse.r
        every = np.unique(np.concatenate(fine.cell_edge_ids(region.cells())))
        assert np.array_equal(np.union1d(interior[e], boundary[e]), every)


def test_element_ij_roundtrip():
    _, coarse = build_grids(16, 4)
    e = np.arange(coarse.n_elements)
    I, J = coarse.element_IJ(e)
    assert np.array_equal(coarse.element_id(I, J), e)


def test_oversample_region_growth_and_clipping():
    _, coarse = build_grids(32, 8)
    e = int(coarse.element_id(0, 0))  # corner: growth clips on two sides
    r0 = element_region(coarse, e)
    assert r0.shape == (4, 4) and r0.n_cells == 16
    r1 = oversample_region(coarse, e, 1)
    assert (r1.i0, r1.i1, r1.j0, r1.j1) == (0, 8, 0, 8)
    assert r1.center == e and r1.layers == 1
    mid = int(coarse.element_id(4, 4))
    r2 = oversample_region(coarse, mid, 2)
    assert (r2.i0, r2.i1, r2.j0, r2.j1) == (8, 28, 8, 28)
    assert not r2.is_full_domain
    assert oversample_region(coarse, mid, 7).is_full_domain
    with pytest.raises(ConfigError):
        oversample_region(coarse, mid, -1)


def test_region_cells_sorted_and_interior_edges():
    fine, coarse = build_grids(8, 4)
    reg = oversample_region(coarse, int(coarse.element_id(1, 1)), 0)
    cells = reg.cells()
    assert np.array_equal(cells, np.sort(cells))
    # 2x2-cell region: 2 interior vertical + 2 interior horizontal edges
    inner = reg.interior_edges()
    assert inner.size == 4
    every = np.unique(np.concatenate(fine.cell_edge_ids(cells)))
    assert every.size == 12
    assert np.isin(inner, every).all()
    # interior edges never touch the region border
    kind, i, j = fine.decode_edge(inner)
    assert ((kind == 0) & (i > reg.i0) & (i < reg.i1)
            | (kind == 1) & (j > reg.j0) & (j < reg.j1)).all()


def test_full_domain_interior_edges_match_boundary_mask():
    fine = FineGrid(6, 6)
    reg = full_domain(fine)
    inner = reg.interior_edges()
    mask = fine.boundary_edge_mask()
    assert np.array_equal(inner, np.flatnonzero(~mask))
    assert reg.is_full_domain


def test_interp_coarse_nodal_reproduces_bilinear():
    fine, coarse = build_grids(20, 5)
    X, Y = np.meshgrid(np.linspace(0, 1, coarse.Nx + 1),
                       np.linspace(0, 1, coarse.Ny + 1))
    vals = 2.0 * X * Y - 0.5 * X + 0.25  # globally bilinear
    out = interp_coarse_nodal(coarse, vals)
    xf, yf = np.meshgrid(np.linspace(0, 1, fine.nx + 1),
                         np.linspace(0, 1, fine.ny + 1))
    assert np.allclose(out, 2.0 * xf * yf - 0.5 * xf + 0.25, atol=1e-14)


def _hat(coarse, node, x, y):
    # independent tensor-product hat evaluator
    H = coarse.H
    I = node % (coarse.Nx + 1)
    J = node // (coarse.Nx + 1)
    return (max(0.0, 1.0 - abs(x / H - I)) * max(0.0, 1.0 - abs(y / H - J)))


def test_pou_hats_sum_to_one():
    _, coarse = build_grids(12, 3)
    assert np.allclose(node_sum(coarse), 1.0, atol=1e-14)
    total = np.zeros((coarse.fine.ny + 1) * (coarse.fine.nx + 1))
    for node in range((coarse.Nx + 1) * (coarse.Ny + 1)):
        total += hat_values(coarse, node)
    assert np.allclose(total, 1.0, atol=1e-13)


def test_pou_hat_values_match_tensor_form():
    fine, coarse = build_grids(8, 2)
    xs = np.linspace(0, 1, fine.nx + 1)
    for node in (0, 4, 8):
        vals = hat_values(coarse, node).reshape(fine.ny + 1, fine.nx + 1)
        ref = np.array([[_hat(coarse, node, x, y) for x in xs] for y in xs])
        assert np.allclose(vals, ref, atol=1e-14)


def test_pou_gradsq_pointwise_against_finite_differences():
    _, coarse = build_grids(16, 4)
    rng = np.random.default_rng(3)
    eps = 1e-7
    for _ in range(20):
        x, y = rng.uniform(0.05, 0.95, 2)
        total = 0.0
        for node in range((coarse.Nx + 1) * (coarse.Ny + 1)):
            gx = (_hat(coarse, node, x + eps, y) - _hat(coarse, node, x - eps, y)) / (2 * eps)
            gy = (_hat(coarse, node, x, y + eps) - _hat(coarse, node, x, y - eps)) / (2 * eps)
            total += gx * gx + gy * gy
        assert gradsq_at(coarse, x, y) == pytest.approx(total, rel=1e-5)


def test_pou_gradsq_cell_average_against_quadrature():
    fine, coarse = build_grids(8, 2)
    pou = bilinear_pou(coarse)
    nodes, wts = np.polynomial.legendre.leggauss(8)
    h = fine.h
    for cell in (0, 9, 27, 63):
        ix, iy = fine.cell_ix_iy(cell)
        xs = (ix + 0.5 + 0.5 * nodes) * h
        ys = (iy + 0.5 + 0.5 * nodes) * h
        vals = np.array([[gradsq_at(coarse, x, y) for x in xs] for y in ys])
        avg = float(wts @ vals @ wts) / 4.0
        assert pou.gradsq_cell_avg[cell] == pytest.approx(avg, rel=1e-13)


def test_cutoff_field_plateau_and_support():
    _, coarse = build_grids(32, 8)
    e = int(coarse.element_id(3, 4))
    cut = cutoff_field(coarse, e, outer=3, inner=1)
    V = cut.coarse_values
    I, J = coarse.element_IJ(e)
    # ring distance of every coarse node from the element
    a = np.arange(coarse.Nx + 1)
    b = np.arange(coarse.Ny + 1)
    dx = np.maximum.reduce([int(I) - a, a - (int(I) + 1), np.zeros_like(a)])
    dy = np.maximum.reduce([int(J) - b, b - (int(J) + 1), np.zeros_like(b)])
    t = np.maximum(dx[None, :], dy[:, None])
    assert (V[t <= 1] == 1.0).all()
    assert (V[t >= 3] == 0.0).all()
    assert ((V > 0) & (V < 1))[t == 2].all()


def test_cutoff_max_gradient_scale():
    _, coarse = build_grids(64, 8)
    e = int(coarse.element_id(4, 4))
    cut = cutoff_field(coarse, e, outer=4, inner=2)
    # drops 1 -> 0 over (outer - inner) rings of width H
    expected = 1.0 / ((4 - 2) * coarse.H)
    assert expected <= cut.max_gradient() <= np.sqrt(2.0) * expected + 1e-12
    with pytest.raises(ConfigError):
        cutoff_field(coarse, e, outer=2, inner=2)
