"""Energy-minimizing basis functions: constraints, localization, snapshots."""

import sys

import numpy as np
import pytest

from msdarcy import (ConfigError, PermField, SolveError, bilinear_pou,
                     build_aux_space, build_basis_set, build_grids, build_snapshot, compute_weight, generate_medium,
                     sample_spec, solve_all_spectra, solve_fine_reference,
                     three_channel_spec)
from msdarcy.basis import CondensedElements, _Regions, _template
from msdarcy.fem import band_cholesky, divergence_matrix
from msdarcy.mesh import full_domain, oversample_region, region_elements
from oracles import (_condensation_oracle, _element_keys, _from_records, _operator,
                     _region_lu_reference, _skeleton_superlu_oracle, assemble_b, mass_matrix,
                     restriction)


def _worst_deviation(functions, solve):
    """Largest relative difference of v, div and the trace from the
    oracle; the trace carries the oracle's pressure q, which the set does
    not keep."""
    worst = 0.0
    for fn in functions:
        v, _, div, trace = solve(fn.element, fn.j)
        for got, want in ((fn.v, v), (fn.div, div), (fn.trace, trace)):
            if want.size:
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
    batch = CondensedElements(aux, perm, "type2").functions([e], 1)
    assert len(batch) == aux.counts[e]
    region = oversample_region(coarse, e, 1)
    dof_edges = region.interior_edges()
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
        for fn in CondensedElements(aux, perm, flavor).functions([e], 2):
            region = oversample_region(coarse, e, 2)
            B = assemble_b(region)
            g = np.zeros(fine.n_cells)
            g[fn.cells] = (B @ fn.v) / aux.s_diag[fn.cells]
            resid = g - aux.project(g)
            assert np.abs(resid).max() < 1e-9 * max(np.abs(g).max(), 1e-300)


def test_type1_pins_pressure_moments(small_case):
    """The functions agree with the region LU oracle, whose pressure meets
    the type1 constraint: its moments are the own column."""
    fine, coarse, perm, weight, aux = small_case
    e = int(coarse.element_id(0, 2))
    region = oversample_region(coarse, e, 2)
    cols, R_loc = restriction(aux, region)
    s_region = aux.s_diag[region.cells()]
    batch = CondensedElements(aux, perm, "type1").functions([e], 2)
    solve = _region_lu_reference(aux, perm, region, "type1")
    assert _worst_deviation(batch, solve) <= 1e-10
    for j, fn in enumerate(batch):
        assert fn.div.size == cols.size
        assert np.array_equal(fn.div_columns, cols)
        moments = R_loc.T @ (s_region * solve(e, j)[1])
        want = np.zeros(cols.size)
        want[np.searchsorted(cols, aux.column(e, j))] = 1.0
        assert np.allclose(moments, want, atol=1e-9)


def test_type2_divergence_coefficients_complement_pressure_moments(small_case):
    """For type2 the multipliers are the moments R^T S q, and the
    divergence coefficients are the own column minus them; q is the
    region LU oracle's."""
    fine, coarse, perm, weight, aux = small_case
    e, j = 5, 1
    region = oversample_region(coarse, e, 1)
    cols, R_loc = restriction(aux, region)
    fn = CondensedElements(aux, perm, "type2").functions([e], 1)[j]
    assert np.array_equal(fn.div_columns, cols)
    own = np.zeros(cols.size)
    own[np.searchsorted(cols, aux.column(e, j))] = 1.0
    q = _region_lu_reference(aux, perm, region, "type2")(e, j)[1]
    moments = R_loc.T @ (aux.s_diag[region.cells()] * q)
    assert np.abs(fn.div + moments - own).max() <= 1e-12


@pytest.mark.parametrize("flavor", ["type1", "type2", "global"])
def test_traces_are_flux_residuals_on_region_boundary(small_case, flavor):
    """M psi - B^T q vanishes on every domain-interior edge but the
    region-boundary ones, where it is the stored trace; the global flavor
    stores none. q is the region LU oracle's. Regions at a domain corner,
    on a domain edge and inside."""
    fine, coarse, perm, weight, aux = small_case
    M = mass_matrix(fine, perm)
    B = divergence_matrix(fine)
    inner = ~fine.boundary_edge_mask()
    if flavor == "global":
        functions = build_basis_set(aux, perm, flavor="global")
    else:
        functions = CondensedElements(aux, perm, flavor).functions([0, 2, 5], 1)
    oracles = {}
    for fn in functions:
        key = None if flavor == "global" else fn.element
        if key not in oracles:
            region = full_domain(fine) if key is None else oversample_region(coarse, key, 1)
            oracles[key] = _region_lu_reference(aux, perm, region,
                                                "type2" if key is None else flavor)
        q = np.zeros(fine.n_cells)
        q[fn.cells] = oracles[key](fn.element, fn.j)[1]
        flux = M @ fn.v_global(fine.n_edges) - B.T @ q
        stored = np.zeros(fine.n_edges)
        stored[fn.trace_edges] = fn.trace
        if flavor == "global":
            assert fn.trace.size == 0
        else:
            region = oversample_region(coarse, fn.element, 1)
            want = region.boundary_edges()
            assert np.array_equal(fn.trace_edges, want[inner[want]])
            assert np.abs(fn.trace).max() > 0
        assert np.abs((flux - stored)[inner]).max() <= 1e-12 * np.abs(flux).max()


def test_saturating_layers_reproduce_global_flavor(small_case):
    fine, coarse, perm, weight, aux = small_case
    e, j = int(coarse.element_id(1, 2)), 1
    cond = CondensedElements(aux, perm, "type2")
    glo = cond.functions([e], None)[j]
    sat = cond.functions([e], 10)[j]
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
    cond = CondensedElements(aux, perm, "type2")
    glo = cond.functions([e], None)[j]
    M = mass_matrix(fine, perm)
    diffs = []
    for layers in (1, 2, 3):
        loc = cond.functions([e], layers)[j]
        d = glo.v_global(fine.n_edges) - loc.v_global(fine.n_edges)
        diffs.append(float(np.sqrt(d @ M @ d)))
    assert diffs[1] < diffs[0] and diffs[2] < diffs[1]


def test_basis_set_ordering_matches_aux_columns(small_case):
    fine, coarse, perm, weight, aux = small_case
    bset = build_basis_set(aux, perm, layers=1, workers=2)
    assert len(bset) == aux.n_columns
    elements = np.repeat(np.arange(coarse.n_elements), aux.counts)
    js = np.arange(aux.n_columns) - aux.offsets[elements]
    for k, fn in enumerate(bset):
        assert fn.element == elements[k] and fn.j == js[k]
    assert bset.matrix.shape == (fine.n_edges, aux.n_columns)
    assert not bset.saturated
    serial = build_basis_set(aux, perm, layers=1, workers=1)
    assert abs(bset.matrix - serial.matrix).max() == 0.0


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("select", [{"nbasis": 2}, {"threshold": 1.0}])
@pytest.mark.parametrize("flavor", ["type1", "type2", "global"])
def test_stacks_match_sets_rebuilt_from_records(small_case, flavor, select, workers):
    """The parts write their functions' columns into the shared stacks in
    place, on up to three threads handing the interpreter lock over often.
    Rebuilt column by column from the records of elements solved one at a
    time, the stacks are the same: bit for bit at one layer, where every
    region has one centre either way; for the global flavor, whose one
    region is solved for all its centres at once, the ids are the same and
    the values agree to roundoff."""
    fine, coarse, perm, weight, _ = small_case
    aux = build_aux_space(coarse, weight, solve_all_spectra(coarse, perm, weight), **select)
    layers = None if flavor == "global" else 1
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        bset = build_basis_set(aux, perm, layers=layers, flavor=flavor, workers=workers)
    finally:
        sys.setswitchinterval(interval)
    cond = CondensedElements(aux, perm, "type2" if flavor == "global" else flavor)
    want = _from_records(aux, [fn for e in range(coarse.n_elements)
                               for fn in cond.functions([e], layers)])
    assert (bset.flavor, bset.layers) == (want.flavor, want.layers)
    for name in ("columns", "elements"):
        assert np.array_equal(getattr(bset, name), getattr(want, name))
    pairs = [(bset.energies, want.energies)]
    for name in ("matrix", "divergence", "traces"):
        got, ref = getattr(bset, name), getattr(want, name)
        assert got.shape == ref.shape
        assert np.array_equal(got.indptr, ref.indptr) and np.array_equal(got.indices, ref.indices)
        pairs.append((got.data, ref.data))
    for got, ref in pairs:
        if flavor == "global":
            assert np.abs(got - ref).max(initial=0) <= 1e-12 * np.abs(ref).max(initial=0)
        else:
            assert np.array_equal(got, ref)
    # records are views of the stacks' columns
    k = len(bset) // 2
    fn = bset[k]
    for part, stack in ((fn.v, bset.matrix), (fn.div, bset.divergence)):
        assert np.shares_memory(part, stack.data)
    assert np.array_equal(fn.v_global(fine.n_edges), bset.matrix[:, k].toarray().ravel())


@pytest.mark.parametrize("flavor", ["type1", "type2"])
def test_regions_solved_together_match_each_alone(small_case, flavor):
    """`build_basis_set` solves the regions of one shape together; each
    function equals its region solved on its own."""
    fine, coarse, perm, weight, _ = small_case
    aux = build_aux_space(coarse, weight, solve_all_spectra(coarse, perm, weight),
                          threshold=1.0)
    cond = CondensedElements(aux, perm, flavor)
    alone = [fn for e in range(coarse.n_elements) for fn in cond.functions([e], 2)]
    together = build_basis_set(aux, perm, layers=2, flavor=flavor)
    assert len(together) == len(alone)
    for a, b in zip(together, alone):
        assert (a.element, a.j) == (b.element, b.j)
        assert np.array_equal(a.edges, b.edges) and np.array_equal(a.cells, b.cells)
        for got, want in ((a.v, b.v), (a.div, b.div), (a.trace, b.trace)):
            assert np.abs(got - want).max(initial=0) <= 1e-13 * np.abs(want).max(initial=0)


def test_saturated_set_has_one_null_direction(small_case):
    fine, coarse, perm, weight, aux = small_case
    bset = build_basis_set(aux, perm, flavor="global")
    assert bset.saturated
    # a set is saturated when each of its functions' regions is the whole
    # domain, subsets and single elements included
    cond = CondensedElements(aux, perm, "type2")
    assert cond.functions(range(coarse.n_elements), 3).saturated
    assert not cond.functions(range(coarse.n_elements), 2).saturated
    fine3, coarse3 = build_grids(12, 3)
    perm3 = PermField.from_raw(fine3, np.random.default_rng(22).uniform(1, 10, fine3.n_cells))
    weight3 = compute_weight(perm3, bilinear_pou(coarse3))
    aux3 = build_aux_space(coarse3, weight3, solve_all_spectra(coarse3, perm3, weight3),
                           nbasis=2)
    cond3 = CondensedElements(aux3, perm3, "type2")
    assert cond3.functions([int(coarse3.element_id(1, 1))], 1).saturated
    assert not cond3.functions([int(coarse3.element_id(0, 0))], 1).saturated
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
        CondensedElements(aux, perm, "type2").functions([0], 0)
    with pytest.raises(ConfigError):
        CondensedElements(aux, perm, "type3")


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
    cond = CondensedElements(aux, perm, flavor)
    worst = 0.0
    for e in range(coarse.n_elements):
        solve = _region_lu_reference(aux, perm, oversample_region(coarse, e, 1), flavor)
        worst = max(worst, _worst_deviation(cond.functions([e], 1), solve))
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
            batch = cond.functions([e], layers)
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
    glo = cond.functions([5], None)[1]
    assert (glo.flavor, glo.layers) == ("global", -1)
    want = build_basis_set(aux, perm, flavor="global")[aux.column(5, 1)].v
    assert np.abs(glo.v - want).max() <= 1e-12 * np.abs(want).max()
    assert cond.functions([5], 1)[1].layers == 1
    with pytest.raises(ConfigError):
        CondensedElements(aux, perm, "type1").functions([5], None)
    with pytest.raises(ConfigError):
        CondensedElements(aux, perm, "global")
    with pytest.raises(ConfigError):
        cond.functions([5], 0)
    # every function's full region residual is checked at rtol
    with pytest.raises(SolveError) as info:
        cond.functions([5], 1, rtol=1e-30)
    assert info.value.residual > 0


def test_refinement_sweep_matches_region_lu_reference(monkeypatch):
    """At contrast 1e10 some type1 region solves miss the residual bound
    until the region refinement sweep, which factors its elements'
    interiors anew, runs; the refined functions agree with the sparse LU
    oracle."""
    fine, coarse = build_grids(32, 4)
    perm = generate_medium(sample_spec(32, n_horizontal=2, n_vertical=2, n_inclusions=3,
                                       seed=2, contrast_lo=1e10, contrast_hi=1e10), fine)
    weight = compute_weight(perm, bilinear_pou(coarse))
    aux = build_aux_space(coarse, weight, solve_all_spectra(coarse, perm, weight), nbasis=3)
    sweeps = []
    refine = _Regions._refine

    def counted(self, sel, res):
        sweeps.append(len(sel))
        return refine(self, sel, res)
    monkeypatch.setattr(_Regions, "_refine", counted)
    bset = build_basis_set(aux, perm, layers=1, flavor="type1")
    assert sweeps
    worst = max(_worst_deviation(
        [fn for fn in bset if fn.element == e],
        _region_lu_reference(aux, perm, oversample_region(coarse, e, 1), "type1"))
        for e in range(coarse.n_elements))
    assert worst <= 1e-10


def test_solve_errors_name_flavor_and_element(small_case, monkeypatch):
    """Residual errors name the flavor and the element whose function
    failed; factorization errors name the flavor and the region."""
    fine, coarse, perm, weight, aux = small_case
    cond = CondensedElements(aux, perm, "type2")
    with pytest.raises(SolveError, match="for the global function 0 of element 5$"):
        cond.functions([5], None, rtol=1e-30)
    with pytest.raises(SolveError, match="for the type2 function 0 of element 6$"):
        cond.functions([6], 1, rtol=1e-30)

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("pivot 1 of 8 is not positive")
    monkeypatch.setattr("msdarcy.basis.band_cholesky", fail)
    with pytest.raises(SolveError, match="failed for the global flavor's whole domain: "):
        cond.functions([5], None)
    with pytest.raises(SolveError, match="failed for the type1 region of 2 layers "
                                         "around element 5: "):
        CondensedElements(aux, perm, "type1").functions([5], 2)


def _region_system(cond, region, layers):
    """The `_Regions` of one region, on the memoized template of its shape."""
    coarse = cond.aux.coarse
    elements = region_elements(coarse, region)
    shape = (region.shape[0] // coarse.r, region.shape[1] // coarse.r)
    template = _template(coarse, shape, cond.Z.shape[2])
    return _Regions(cond, template, np.array([[region.i0, region.j0]]),
                    np.array([region.center]), elements[None], layers)


@pytest.mark.parametrize("flavor", ["type1", "type2", "global"])
@pytest.mark.parametrize("contrast", [1e3, 1e8])
def test_banded_skeleton_solve_matches_superlu(flavor, contrast):
    """Every region of one and two layers, or the whole domain: the banded
    skeleton solve against the SuperLU solve of the same matrix."""
    fine, coarse = build_grids(16, 4)
    rng = np.random.default_rng(21)
    perm = PermField.from_raw(fine, np.exp(rng.uniform(0, np.log(contrast), fine.n_cells)))
    weight = compute_weight(perm, bilinear_pou(coarse))
    aux = build_aux_space(coarse, weight, solve_all_spectra(coarse, perm, weight), nbasis=2)
    cond = CondensedElements(aux, perm, "type2" if flavor == "global" else flavor)
    if flavor == "global":
        cases = [(full_domain(fine), None)]
    else:
        cases = [(oversample_region(coarse, e, layers), layers)
                 for e in range(coarse.n_elements) for layers in (1, 2)]
    for region, layers in cases:
        system = _region_system(cond, region, layers)
        skeleton, lu = _skeleton_superlu_oracle(cond, region)
        # the banded path orders the skeleton row by row
        order = np.searchsorted(skeleton, system.edges[0][system.template.skeleton])
        g = rng.standard_normal((skeleton.size, 3))
        want = lu.solve(g)[order]
        got = system._skeleton([0], np.concatenate([g[order], np.zeros((1, 3))])[None])
        assert np.linalg.norm(got[0, :-1] - want) <= 1e-10 * np.linalg.norm(want)


def _channels(nx, Nx, contrast):
    fine, coarse = build_grids(nx, Nx)
    perm = generate_medium(three_channel_spec(contrast=contrast), fine)
    weight = compute_weight(perm, bilinear_pou(coarse))
    return coarse, perm, weight


@pytest.mark.parametrize("flavor", ["type1", "type2"])
@pytest.mark.parametrize("contrast", [None, 1e4])
def test_stacked_condensation_matches_per_element_oracle(small_case, flavor, contrast):
    if contrast is None:
        _, coarse, perm, weight, _ = small_case
    else:
        coarse, perm, weight = _channels(32, 4, contrast)
    spectra = solve_all_spectra(coarse, perm, weight)
    # unequal column counts exercise the padding
    aux = build_aux_space(coarse, weight, spectra, threshold=1.0)
    cond = CondensedElements(aux, perm, flavor)
    operator = _operator(cond)
    for e in range(coarse.n_elements):
        W, S, Z = _condensation_oracle(cond, operator, e)
        n, k = W.shape[0], Z.shape[1]
        for got, want in ((cond.W[e, :n], W), (cond.S[e], S), (cond.Z[e, :n, :k], Z)):
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
        assert not cond.W[e, n:].any() and not cond.Z[e, n:].any()


def test_condensation_workers_agree():
    """Four elements of 16 x 16 cells: the stacks split into slices, and
    no element's result may depend on the slicing or the interleaving."""
    coarse, perm, weight = _channels(32, 2, 1e4)
    aux = build_aux_space(coarse, weight, solve_all_spectra(coarse, perm, weight),
                          threshold=1.0)
    serial = CondensedElements(aux, perm, "type2", workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threaded = CondensedElements(aux, perm, "type2", workers=3)
    finally:
        sys.setswitchinterval(interval)
    for name in ("W", "S", "Z"):
        assert np.array_equal(getattr(serial, name), getattr(threaded, name))


@pytest.mark.parametrize("flavor", ["type1", "type2", "global"])
def test_region_templates_reproduce_operator_slices(small_case, flavor):
    """Regions that share a template get their own ids and the values of
    their own rows of the whole-domain operator, entry for entry: in their
    unknowns' columns, then in their region-boundary edges' columns. Every
    element has k_max column slots, padding included; only the kept ones
    map to auxiliary columns. Two media: a log-uniform one over 12 decades,
    where the flux mass diagonals c1(a) + c1(b) span the whole range, and
    the fixture's."""
    fine, coarse, perm, _, _ = small_case
    wide = PermField.from_raw(fine, np.exp(np.random.default_rng(24).uniform(
        0, np.log(1e12), fine.n_cells)))
    grid = coarse.fine
    if flavor == "global":
        cases = [(full_domain(fine), None)]
    else:
        cases = [(oversample_region(coarse, e, layers), layers)
                 for layers in (1, 2) for e in range(coarse.n_elements)]
    for kappa in (wide, perm):
        weight = compute_weight(kappa, bilinear_pou(coarse))
        aux = build_aux_space(coarse, weight, solve_all_spectra(coarse, kappa, weight),
                              threshold=1.0)
        assert np.unique(aux.counts).size > 1
        cond = CondensedElements(aux, kappa, "type2" if flavor == "global" else flavor)
        operator = _operator(cond)
        k_max = cond.Z.shape[2]
        _template.cache_clear()
        for region, layers in cases:
            system = _region_system(cond, region, layers)
            assert np.array_equal(system.edges[0], region.interior_edges())
            assert np.array_equal(system.cells[0], region.cells())
            assert np.array_equal(system.boundary[0], region.boundary_edges())
            elements = region_elements(coarse, region)
            kept = np.arange(k_max) < aux.counts[elements][:, None]
            assert np.array_equal(system.columns[0] >= 0, kept.ravel())
            cols, _ = restriction(aux, region)
            assert np.array_equal(system.columns[0][kept.ravel()], cols)
            slots = (elements[:, None] * k_max + np.arange(k_max)).ravel()
            unknowns = np.concatenate([system.edges[0], grid.n_edges + system.cells[0],
                                       grid.n_edges + grid.n_cells + slots])
            rows = operator[unknowns]
            n = unknowns.size
            for got, want in ((system.K[:, :n], rows[:, unknowns]),
                              (system.K[:, n:], rows[:, region.boundary_edges()])):
                assert got.shape == want.shape and got.nnz == want.nnz
                assert (got != want).nnz == 0
    if flavor == "global":
        return
    # one template per region shape, whatever the column counts
    templates = _template.cache_info().currsize
    assert templates == len({region.shape for region, _ in cases})
    # `functions` shares templates the same way, and builds no other
    for layers in (1, 2):
        cond.functions(range(coarse.n_elements), layers)
    assert _template.cache_info().currsize == templates


def test_region_templates_are_shared_by_flavors_and_column_counts(small_case):
    """Both flavors, one and two layers, two threshold selections with
    different column counts and an `nbasis` selection: the memo holds one
    template per region shape and k_max, and type1 builds none that type2
    did not."""
    fine, coarse, perm, weight, _ = small_case
    spectra = solve_all_spectra(coarse, perm, weight)
    auxes = [build_aux_space(coarse, weight, spectra, threshold=t) for t in (1.0, 4.0)]
    auxes.append(build_aux_space(coarse, weight, spectra, nbasis=2))
    assert not np.array_equal(auxes[0].counts, auxes[1].counts)
    assert np.unique(auxes[0].counts).size > 1
    shapes = {(oversample_region(coarse, e, layers).shape, int(aux.counts.max()))
              for layers in (1, 2) for e in range(coarse.n_elements) for aux in auxes}
    _template.cache_clear()
    for flavor in ("type2", "type1"):
        for aux in auxes:
            cond = CondensedElements(aux, perm, flavor)
            for layers in (1, 2):
                cond.functions(range(coarse.n_elements), layers)
        if flavor == "type2":
            built = _template.cache_info().currsize
    assert _template.cache_info().currsize == built == len(shapes)


def test_saturated_regions_are_factored_once(small_case, monkeypatch):
    """At three layers every region of 4 x 4 elements is the whole domain:
    one skeleton factor serves all sixteen centres. The functions are the
    global flavor's, and agree with every centre solved on a factor of
    its own."""
    fine, coarse, perm, weight, aux = small_case
    factored = []

    def counted(band):
        factored.append(band.shape)
        return band_cholesky(band)
    monkeypatch.setattr("msdarcy.basis.band_cholesky", counted)
    local = build_basis_set(aux, perm, layers=3)
    assert len(factored) == 1 and local.saturated
    glob = build_basis_set(aux, perm, flavor="global")
    assert len(factored) == 2
    cond = CondensedElements(aux, perm, "type2")
    single = _from_records(aux, [
        fn for e in range(coarse.n_elements) for fn in cond.functions([e], 3)])
    assert len(factored) == 2 + coarse.n_elements
    for want, rtol in ((glob, 1e-12), (single, 1e-10)):
        for name in ("matrix", "divergence", "traces"):
            got, ref = getattr(local, name).toarray(), getattr(want, name).toarray()
            assert np.abs(got - ref).max() <= rtol * np.abs(ref).max()
        assert np.abs(local.energies - want.energies).max() <= rtol * want.energies.max()


@pytest.mark.parametrize("flavor", ["type1", "type2"])
def test_stacked_condensation_is_exact_at_high_contrast(flavor):
    """Against 40-digit solves of every element's interior block. At
    contrast 1e8 the per-element sparse LU oracle above loses digits (on
    32x32/4 it is 2.2e-7 off a 40-digit solve for type1, against 2e-16 for
    the stacked kernels), so it cannot judge this range."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    coarse, perm, weight = _channels(16, 4, 1e8)
    aux = build_aux_space(coarse, weight, solve_all_spectra(coarse, perm, weight),
                          threshold=1.0)
    cond = CondensedElements(aux, perm, flavor)
    operator = _operator(cond)
    for e in range(coarse.n_elements):
        keys = _element_keys(cond, e)
        rows = operator[keys]
        n, k = keys.size, int(aux.counts[e])
        K_inv = mpmath.inverse(mpmath.matrix(rows[:, keys].toarray().tolist()))
        for got, rhs in ((cond.W[e, :n], rows[:, cond.boundary[e]].toarray()),
                         (cond.Z[e, :n, :k], cond.rhs[e, :n, :k])):
            want = np.array((K_inv * mpmath.matrix(rhs.tolist())).tolist(), dtype=float)
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
