"""Energy-minimizing basis functions: constraints, localization, snapshots."""

import sys

import numpy as np
import pytest
import scipy.sparse as sp

from msdarcy import (ConfigError, PermField, SolveError, bilinear_pou,
                     build_aux_space, build_basis_function, build_basis_set,
                     build_grids, build_snapshot, compute_weight,
                     solve_all_spectra, solve_fine_reference)
from msdarcy.basis import CondensedElements
from msdarcy.fem import SaddleFactorization, SaddleSystem, mass_matrix, velocity_dofmap
from msdarcy.mesh import full_domain, oversample_region
from test_fem import assemble_a, assemble_b


def _region_lu_reference(aux, perm, region, flavor, rtol=1e-10):
    """Oracle: the region's constrained saddle system assembled whole and
    factored by sparse LU, the path static condensation replaced. Returns
    solve(e, j) -> (v, q, mu) for the basis function of eigenvector j of
    element e (mu is None for type2)."""
    dofmap = velocity_dofmap(region)
    cols, R_loc = aux.restriction(region)
    cells = region.cells()
    s_region = aux.s_diag[cells]
    system = SaddleSystem(
        assemble_a(region, perm, dofmap), assemble_b(region, dofmap),
        rhs_v=np.zeros(dofmap.n_dofs), rhs_p=np.zeros(cells.size),
        C=(sp.diags(s_region) @ R_loc).tocsr(), identity_block=(flavor != "type1"))
    fact = SaddleFactorization(system, rtol=rtol)

    def solve(e, j):
        p_loc = R_loc[:, int(np.searchsorted(cols, aux.column(e, j)))].toarray().ravel()
        # packed as pack_rhs packs (rhs_v, -rhs_p, -rhs_c)
        rhs_p, rhs_c = np.zeros(cells.size), np.zeros(cols.size)
        if flavor == "type1":
            rhs_c = R_loc.T @ (s_region * p_loc)
        else:
            rhs_p = s_region * p_loc
        sol = fact.solve_packed(np.concatenate([system.rhs_v, -rhs_p, -rhs_c]))
        return sol.u, sol.p, (-sol.y if flavor == "type1" else None)
    return solve


def _worst_deviation(functions, solve):
    """Largest relative difference of v, q and mu from the oracle."""
    worst = 0.0
    for fn in functions:
        v, q, mu = solve(fn.element, fn.j)
        pairs = [(fn.v, v), (fn.q, q)] + ([(fn.mu, mu)] if mu is not None else [])
        for got, want in pairs:
            worst = max(worst, np.linalg.norm(got - want) / np.linalg.norm(want))
    return worst


@pytest.fixture(scope="module")
def small_case():
    fine, coarse = build_grids(16, 4)
    rng = np.random.default_rng(21)
    vals = np.exp(rng.uniform(0, np.log(1e3), fine.n_cells))
    perm = PermField.from_raw(fine, vals)
    weight = compute_weight(perm, bilinear_pou(coarse))
    spectra = solve_all_spectra(coarse, perm, weight)
    aux = build_aux_space(coarse, weight, spectra, nbasis=2)
    return fine, coarse, perm, weight, aux


def test_batch_shapes_and_support(small_case):
    fine, coarse, perm, weight, aux = small_case
    e = int(coarse.element_id(1, 1))
    batch = CondensedElements(aux, perm, "type2").batch(e, 1)
    assert len(batch) == aux.counts[e]
    region = oversample_region(coarse, e, 1)
    dof_edges = velocity_dofmap(region).edges
    for j, fn in enumerate(batch):
        assert (fn.element, fn.j, fn.layers, fn.flavor) == (e, j, 1, "type2")
        assert np.array_equal(fn.edges, dof_edges)
        assert np.array_equal(fn.cells, region.cells())
        full = fn.v_global(fine.n_edges)
        outside = np.setdiff1d(np.arange(fine.n_edges), dof_edges)
        assert np.abs(full[outside]).max() == 0.0
        assert np.abs(full).max() > 0


def test_divergence_stays_in_auxiliary_space(small_case):
    fine, coarse, perm, weight, aux = small_case
    e = int(coarse.element_id(2, 1))
    for flavor in ("type1", "type2"):
        for fn in CondensedElements(aux, perm, flavor).batch(e, 2):
            region = oversample_region(coarse, e, 2)
            B = assemble_b(region)
            g = np.zeros(fine.n_cells)
            g[fn.cells] = (B @ fn.v) / aux.s_diag[fn.cells]
            resid = g - aux.project(g)
            assert np.abs(resid).max() < 1e-9 * max(np.abs(g).max(), 1e-300)


def test_type1_pins_pressure_moments(small_case):
    fine, coarse, perm, weight, aux = small_case
    e = int(coarse.element_id(0, 2))
    region = oversample_region(coarse, e, 2)
    cols, R_loc = aux.restriction(region)
    s_region = aux.s_diag[region.cells()]
    batch = CondensedElements(aux, perm, "type1").batch(e, 2)
    for j, fn in enumerate(batch):
        assert fn.mu is not None and fn.mu.size == cols.size
        assert np.array_equal(fn.mu_columns, cols)
        moments = R_loc.T @ (s_region * fn.q)
        want = np.zeros(cols.size)
        want[np.searchsorted(cols, aux.column(e, j))] = 1.0
        assert np.allclose(moments, want, atol=1e-9)


def test_type2_has_no_multipliers(small_case):
    fine, coarse, perm, weight, aux = small_case
    fn = build_basis_function(aux, perm, 5, 0, layers=1)
    assert fn.mu is None and fn.mu_columns is None


def test_saturating_layers_reproduce_global_flavor(small_case):
    fine, coarse, perm, weight, aux = small_case
    e, j = int(coarse.element_id(1, 2)), 1
    glo = build_basis_function(aux, perm, e, j, flavor="global")
    sat = build_basis_function(aux, perm, e, j, layers=10, flavor="type2")
    assert glo.flavor == "global" and glo.layers == -1
    assert glo.cells.size == fine.n_cells
    assert sat.cells.size == fine.n_cells
    assert np.allclose(glo.v_global(fine.n_edges), sat.v_global(fine.n_edges),
                       atol=1e-11 * np.abs(glo.v).max())


def test_localization_error_decreases_with_layers():
    fine, coarse = build_grids(32, 8)
    rng = np.random.default_rng(24)
    perm = PermField.from_raw(fine, np.exp(rng.uniform(0, np.log(100), fine.n_cells)))
    weight = compute_weight(perm, bilinear_pou(coarse))
    aux = build_aux_space(coarse, weight, solve_all_spectra(coarse, perm, weight),
                          nbasis=1)
    e, j = int(coarse.element_id(3, 3)), 0
    glo = build_basis_function(aux, perm, e, j, flavor="global")
    M = mass_matrix(fine, perm)
    diffs = []
    for layers in (1, 2, 3):
        loc = build_basis_function(aux, perm, e, j, layers=layers)
        d = glo.v_global(fine.n_edges) - loc.v_global(fine.n_edges)
        diffs.append(float(np.sqrt(d @ M @ d)))
    assert diffs[1] < diffs[0] and diffs[2] < diffs[1]


def test_basis_set_ordering_matches_aux_columns(small_case):
    fine, coarse, perm, weight, aux = small_case
    bset = build_basis_set(aux, perm, layers=1, workers=2)
    assert len(bset) == aux.n_columns
    elements, js = aux.column_labels()
    for k, fn in enumerate(bset):
        assert fn.element == elements[k] and fn.j == js[k]
    assert bset.matrix.shape == (fine.n_edges, aux.n_columns)
    assert not bset.saturated
    serial = build_basis_set(aux, perm, layers=1, workers=1)
    assert abs(bset.matrix - serial.matrix).max() == 0.0


def test_saturated_set_has_one_null_direction(small_case):
    fine, coarse, perm, weight, aux = small_case
    bset = build_basis_set(aux, perm, flavor="global")
    assert bset.saturated
    M = mass_matrix(fine, perm)
    Psi = bset.matrix
    G = (Psi.T @ M @ Psi).toarray()
    sv = np.linalg.svd(G, compute_uv=False)
    assert sv[-1] < 1e-10 * sv[0]
    assert sv[-2] > 1e-4 * sv[0]
    # the null combination is the auxiliary expansion of the constant
    combo = aux.coefficients(np.ones(fine.n_cells))
    resid = Psi @ combo
    assert np.sqrt(resid @ M @ resid) < 1e-8 * np.sqrt(combo @ G @ combo + 1)


def test_basis_validation_errors(small_case):
    fine, coarse, perm, weight, aux = small_case
    with pytest.raises(ConfigError):
        CondensedElements(aux, perm, "type2").batch(0, 0)
    with pytest.raises(ConfigError):
        CondensedElements(aux, perm, "type3").batch(0, 1)


def test_snapshot_divergence_and_walls(small_case):
    fine, coarse, perm, weight, aux = small_case
    rng = np.random.default_rng(22)
    f = rng.standard_normal(fine.n_cells)
    f -= f.mean()
    snap = build_snapshot(aux, perm, f)
    from msdarcy.fem import divergence_matrix
    B = divergence_matrix(fine)
    target = aux.s_diag * aux.project(f / weight.values)
    assert np.allclose(B @ snap.v, target, atol=1e-10 * np.abs(target).max())
    assert (snap.v[fine.boundary_edge_mask()] == 0).all()
    with pytest.raises(ConfigError):
        build_snapshot(aux, perm, np.ones(fine.n_cells))


def test_snapshot_with_full_space_matches_fine_reference():
    fine, coarse = build_grids(8, 2)
    rng = np.random.default_rng(23)
    perm = PermField.from_raw(fine, np.exp(rng.uniform(0, 3, fine.n_cells)))
    weight = compute_weight(perm, bilinear_pou(coarse))
    spectra = solve_all_spectra(coarse, perm, weight)
    aux = build_aux_space(coarse, weight, spectra, nbasis=16)  # every eigenvector
    f = rng.standard_normal(fine.n_cells)
    f -= f.mean()
    snap = build_snapshot(aux, perm, f)
    ref = solve_fine_reference(perm, f)
    assert np.allclose(snap.v, ref.v, atol=1e-9 * np.abs(ref.v).max())
    # snapshot pressure follows the +b sign convention, the reference -b
    assert np.allclose(snap.p, -ref.p, atol=1e-9 * np.abs(ref.p).max())


@pytest.mark.parametrize("flavor", ["type1", "type2", "global"])
def test_condensed_basis_matches_region_lu_reference(small_case, flavor):
    fine, coarse, perm, weight, aux = small_case
    if flavor == "global":
        bset = build_basis_set(aux, perm, flavor="global")
        solve = _region_lu_reference(aux, perm, full_domain(fine), "type2")
        assert _worst_deviation(bset, solve) <= 1e-10
        return
    worst = 0.0
    for e in range(coarse.n_elements):
        solve = _region_lu_reference(aux, perm, oversample_region(coarse, e, 1), flavor)
        worst = max(worst, _worst_deviation(
            CondensedElements(aux, perm, flavor).batch(e, 1), solve))
    assert worst <= 1e-10


@pytest.mark.parametrize("flavor", ["type1", "type2"])
def test_condensed_threshold_space_at_corner_edge_and_interior(small_case, flavor):
    """Elements keep unequal numbers of eigenvectors (one, for some);
    centres at a domain corner, on a domain edge and inside."""
    fine, coarse, perm, weight, _ = small_case
    spectra = solve_all_spectra(coarse, perm, weight)
    aux = build_aux_space(coarse, weight, spectra, threshold=1.0)
    assert aux.counts.min() == 1 and aux.counts.max() >= 3
    cond = CondensedElements(aux, perm, flavor)
    centres = [int(coarse.element_id(0, 0)), int(coarse.element_id(2, 3)),
               int(coarse.element_id(1, 2))]
    assert aux.counts[centres[1]] == 1
    for e in centres:
        for layers in (1, 2):
            batch = cond.batch(e, layers)
            assert len(batch) == aux.counts[e]
            solve = _region_lu_reference(aux, perm, oversample_region(coarse, e, layers),
                                         flavor)
            assert _worst_deviation(batch, solve) <= 1e-10
    serial = build_basis_set(aux, perm, layers=2, flavor=flavor, workers=1)
    # more workers than cores, switching threads often: the workers fill
    # shared arrays, and the result must not depend on their interleaving
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threaded = build_basis_set(aux, perm, layers=2, flavor=flavor, workers=3)
    finally:
        sys.setswitchinterval(interval)
    assert abs(serial.matrix - threaded.matrix).max() == 0.0


def test_condensed_elements_serve_global_and_local_and_check_residuals(small_case):
    fine, coarse, perm, weight, aux = small_case
    cond = CondensedElements(aux, perm, "type2")
    glo = cond.batch(5, None)[1]
    assert (glo.flavor, glo.layers) == ("global", -1)
    assert np.array_equal(glo.v, build_basis_function(aux, perm, 5, 1, flavor="global").v)
    assert cond.batch(5, 1)[1].layers == 1
    with pytest.raises(ConfigError):
        CondensedElements(aux, perm, "type1").batch(5, None)
    with pytest.raises(ConfigError):
        CondensedElements(aux, perm, "global")
    with pytest.raises(ConfigError):
        cond.batch(5, 0)
    # every function's full region residual is checked at rtol
    with pytest.raises(SolveError) as info:
        cond.batch(5, 1, rtol=1e-30)
    assert info.value.residual > 0
