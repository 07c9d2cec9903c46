"""Local spectral problems and the auxiliary projection."""

import sys
import threading
import time

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from msdarcy import (ConfigError, PermField, Spectra, bilinear_pou,
                     build_aux_space, build_grids, compute_weight,
                     generate_medium, solve_all_spectra, solve_case,
                     three_channel_spec)
from msdarcy.auxspace import _run, element_lines, gap_split, write_eigen_report
from msdarcy.fem import divergence_matrix, flux_mass
from msdarcy.mesh import element_layout, element_region, oversample_region
from oracles import _spectra_oracle, assemble_a, assemble_b, mass_triplets, restriction


def _case(nx=16, Nx=4, seed=42, span=np.log(1e3)):
    fine, coarse = build_grids(nx, Nx)
    rng = np.random.default_rng(seed)
    perm = PermField.from_raw(fine, np.exp(rng.uniform(0, span, fine.n_cells)))
    weight = compute_weight(perm, bilinear_pou(coarse))
    return fine, coarse, perm, weight


def _line_edges(coarse, e):
    """Element e's global edge ids per grid line, in `ElementLines` order:
    its rows of vertical edges, then its columns of horizontal edges."""
    fine, r = coarse.fine, coarse.r
    I, J = coarse.element_IJ(e)
    k = np.arange(r + 1)
    a = np.arange(r)[:, None]
    return np.concatenate([fine.vedge_id(I * r + k, J * r + a),
                           fine.hedge_id(I * r + a, J * r + k)])


def _dense_pencil(coarse, e, perm, weight):
    region = element_region(coarse, e)
    A = assemble_a(region, perm).toarray()
    B = assemble_b(region).toarray()
    M = B @ np.linalg.solve(A, B.T)
    S = np.diag(weight.values[region.cells()] * coarse.fine.h ** 2)
    return M, S


def _check_against_oracle(coarse, perm, weight):
    spectra = solve_all_spectra(coarse, perm, weight)
    lams = _spectra_oracle(coarse, perm, weight)
    _, cells, _ = element_layout(coarse)
    assert np.array_equal(spectra.cells, cells)
    for e, (lam, P) in enumerate(zip(spectra.lambdas, spectra.pressures)):
        scale = max(lams[e][-1], np.finfo(float).tiny)
        assert np.abs(lam - lams[e]).max() <= 1e-10 * scale
        # each returned pair satisfies its pencil
        M, S = _dense_pencil(coarse, e, perm, weight)
        res = M @ P - S @ P * lam[None, :]
        assert np.abs(res).max() <= 1e-9 * scale * np.abs(S).max() ** 0.5
    return spectra


@pytest.mark.parametrize("contrast", [1.0, 1e4, 1e8])
def test_stacked_spectra_match_per_element_oracle(contrast):
    fine, coarse = build_grids(32, 4)
    perm = generate_medium(three_channel_spec(contrast=contrast), fine)
    weight = compute_weight(perm, bilinear_pou(coarse))
    _check_against_oracle(coarse, perm, weight)


def test_line_blocks_hold_every_element_flux_coupling():
    """The flux mass of an element's cells, summed over its line blocks, is
    the element's whole flux mass: no coupling crosses two lines."""
    fine, coarse, perm, weight = _case(nx=12, Nx=2)
    lines = element_lines(coarse)
    _, cells, _ = element_layout(coarse)
    mass = lines.mass(perm, np.arange(coarse.n_elements))
    for e in range(coarse.n_elements):
        edges = _line_edges(coarse, e)
        want = np.zeros((fine.n_edges, fine.n_edges))
        rows, cols, vals = mass_triplets(fine, cells[e], perm.values[cells[e]])
        np.add.at(want, (rows, cols), vals)
        got = np.zeros_like(want)
        for line, block in zip(edges, mass[e]):
            got[np.ix_(line, line)] += block
        assert np.allclose(got, want, rtol=1e-15, atol=0)


@pytest.mark.parametrize("nx, Nx", [(8, 8), (12, 12), (8, 4), (12, 6),
                                    (16, 4), (12, 3), (16, 2), (24, 3)])
def test_line_blocks_and_divergence_equal_the_triplet_oracle_bit_for_bit(nx, Nx):
    """The line blocks written from `fem.flux_mass`, the constant line
    divergence and `flux_mass` itself equal, bit for bit, what the
    whole-grid triplets and divergence matrix hold, on elements of 1, 2, 4
    and 8 cells a side over permeabilities spanning twelve decades: the
    pair entry 0.5 c1 is exactly c2, and no entry sums more than two
    terms, so the order of addition cannot matter."""
    fine, coarse = build_grids(nx, Nx)
    rng = np.random.default_rng(nx * Nx)
    perm = PermField.from_raw(fine, 10.0 ** rng.uniform(0, 12, fine.n_cells))
    c1, _, c2 = mass_triplets(fine, np.arange(fine.n_cells), perm.values)[2].reshape(8, -1)[:3]
    assert np.array_equal(flux_mass(perm), c1)
    assert np.array_equal(0.5 * flux_mass(perm), c2)
    lines = element_lines(coarse)
    _, cells, _ = element_layout(coarse)
    mass = lines.mass(perm, np.arange(coarse.n_elements))
    B = divergence_matrix(fine)
    shape = (fine.n_edges, fine.n_edges)
    for e in range(coarse.n_elements):
        rows, cols, vals = mass_triplets(fine, cells[e], perm.values[cells[e]])
        want = sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
        for line, line_cells, block, div in zip(_line_edges(coarse, e), lines.cells,
                                                mass[e], lines.div):
            assert np.array_equal(block, want[np.ix_(line, line)].toarray())
            assert np.array_equal(div, B[np.ix_(cells[e][line_cells], line)].toarray())


def test_spectrum_against_qz_pencil():
    fine, coarse, perm, weight = _case()
    spectra = solve_all_spectra(coarse, perm, weight)
    for e in (0, 5, 15):
        lam, P = spectra.lambdas[e], spectra.pressures[e]
        M, S = _dense_pencil(coarse, e, perm, weight)
        # independent generalized solve without the symmetric reduction
        w = scipy.linalg.eig(M, S, right=False)
        w = np.sort(w.real)
        scale = w[-1]
        assert np.allclose(lam, w, atol=1e-8 * scale)
        # each returned pair satisfies the pencil
        res = M @ P - S @ P * lam[None, :]
        assert np.abs(res).max() < 1e-9 * scale * np.abs(S).max() ** 0.5


def test_spectrum_first_pair_and_orthonormality():
    fine, coarse, perm, weight = _case()
    spectra = solve_all_spectra(coarse, perm, weight)
    lam, P = spectra.lambdas[3], spectra.pressures[3]
    assert lam[0] == pytest.approx(0.0, abs=1e-12 * lam[-1])
    first = P[:, 0]
    assert np.ptp(first) < 1e-10 * np.abs(first).max()
    assert first.max() > 0  # deterministic sign
    S = np.diag(weight.values[spectra.cells[3]] * fine.h ** 2)
    G = P.T @ S @ P
    assert np.allclose(G, np.eye(G.shape[0]), atol=1e-10)
    assert (np.diff(lam) >= -1e-12 * lam[-1]).all()


def test_spectrum_invariant_under_global_scaling():
    fine, coarse = build_grids(16, 4)
    rng = np.random.default_rng(1)
    vals = np.exp(rng.uniform(0, 4, fine.n_cells))
    pou = bilinear_pou(coarse)
    lam = []
    for c in (1.0, 7.5):
        perm = PermField(fine, c * vals)
        weight = compute_weight(perm, pou)
        lam.append(solve_all_spectra(coarse, perm, weight).lambdas[6])
    assert np.allclose(lam[0], lam[1], rtol=1e-9)


def test_two_channel_eigenvalue_scales_inversely_with_contrast():
    # an element crossed by two disjoint channels carries exactly one
    # contrast-small eigenvalue beyond the zero mode
    fine, coarse = build_grids(16, 2)
    pou = bilinear_pou(coarse)
    lam = {}
    for contrast in (1e3, 1e5):
        vals = np.ones(fine.n_cells).reshape(16, 16)
        vals[1:3, :] = contrast
        vals[5:7, :] = contrast
        perm = PermField(fine, vals.ravel())
        weight = compute_weight(perm, pou)
        lam[contrast] = solve_all_spectra(coarse, perm, weight).lambdas[0]
    for c in (1e3, 1e5):
        assert lam[c][0] < 1e-10 * lam[c][-1]
        assert lam[c][1] < 50.0 / c      # contrast-small
        assert lam[c][2] > 0.05          # next one stays order one
    ratio = lam[1e5][1] / lam[1e3][1]
    assert ratio == pytest.approx(1e-2, rel=0.5)


def test_solve_all_spectra_workers_agree():
    # 16 elements of 256 cells: the stacks split into slices
    fine, coarse, perm, weight = _case(nx=64, Nx=4)
    serial = solve_all_spectra(coarse, perm, weight, workers=1)
    # more workers than cores, switching threads often: each thread fills
    # its own slice of the stacks, and no element's result may depend on
    # the slicing or the interleaving
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        parallel = solve_all_spectra(coarse, perm, weight, workers=3)
    finally:
        sys.setswitchinterval(interval)
    assert serial.lambdas.shape == (coarse.n_elements, 256)
    for name in ("cells", "lambdas", "pressures"):
        assert np.array_equal(getattr(serial, name), getattr(parallel, name))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_run_keeps_item_order_and_works_on_the_calling_thread(workers):
    """Items that finish out of order come back in item order, the calling
    thread runs at least one of them, and no more than `workers` threads
    run them."""
    threads = {}

    def fn(item):
        time.sleep(0.002 * (item % 3))
        threads[item] = threading.get_ident()
        return item * item

    items = list(range(12))
    assert _run(workers, fn, items) == [item * item for item in items]
    assert threading.get_ident() in threads.values()
    assert len(set(threads.values())) <= workers


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_run_raises_the_earliest_failing_items_error(workers):
    """With items 2 and 5 failing, item 2's exception is raised, also when
    item 5, the faster one, fails first."""
    def fn(item):
        if item == 2:
            time.sleep(0.05)
        if item in (2, 5):
            raise ValueError(f"item {item}")
        return item

    with pytest.raises(ValueError, match="item 2"):
        _run(workers, fn, list(range(8)))


def _fake_spectra():
    lams = np.array([[0.0, 1e-8, 0.5, 2.0], [0.0, 0.3, 0.9, 4.0]])
    return Spectra(np.arange(8).reshape(2, 4), lams, np.stack([np.eye(4)] * 2))


def test_build_aux_space_selection_rules():
    fine, coarse = build_grids(8, 2)

    class W:  # minimal stand-in, only .values is used lazily
        values = np.ones(fine.n_cells)

    spectra = _fake_spectra()
    with pytest.raises(ConfigError):
        build_aux_space(coarse, W(), spectra)
    with pytest.raises(ConfigError):
        build_aux_space(coarse, W(), spectra, nbasis=2, threshold=0.1)
    with pytest.raises(ConfigError):
        build_aux_space(coarse, W(), spectra, nbasis=9)
    aux = build_aux_space(coarse, W(), spectra, nbasis=2)
    assert np.array_equal(aux.counts, [2, 2])
    assert np.array_equal(aux.offsets, [0, 2, 4])
    assert aux.n_columns == 4
    assert np.allclose(aux.lambda_next, [0.5, 0.9])
    assert aux.spectral_gap == pytest.approx(0.5)
    thr = build_aux_space(coarse, W(), spectra, threshold=0.4)
    assert np.array_equal(thr.counts, [2, 2])  # at least one kept, all below 0.4
    tiny = build_aux_space(coarse, W(), spectra, threshold=1e-12)
    assert np.array_equal(tiny.counts, [1, 1])
    assert tiny.spectral_gap == pytest.approx(1e-8)


def test_column_indexing_and_labels():
    spectra = _fake_spectra()
    fine, coarse = build_grids(8, 2)

    class W:
        values = np.ones(fine.n_cells)

    # uneven counts via threshold selection
    aux = build_aux_space(coarse, W(), spectra, threshold=0.4)
    elements = np.repeat(np.arange(2), aux.counts)
    assert np.array_equal(elements, [0, 0, 1, 1])
    assert np.array_equal(np.arange(aux.n_columns) - aux.offsets[elements], [0, 1, 0, 1])
    assert aux.column(1, 1) == 3
    with pytest.raises(ConfigError):
        aux.column(0, 2)


def test_threshold_selection_stacks_match_per_element_build():
    """At threshold selection the elements keep unequal counts: the padded
    stacks of kept eigenvectors and column ids, the eigenvector matrix and
    the next eigenvalues against a build element by element."""
    fine, coarse, perm, weight = _case(nx=16, Nx=4, seed=13)
    spectra = solve_all_spectra(coarse, perm, weight)
    aux = build_aux_space(coarse, weight, spectra, threshold=1.0)
    assert np.unique(aux.counts).size > 1
    assert aux.pressures.shape == (coarse.n_elements, 16, aux.counts.max())
    rows, cols, vals, lam_next = [], [], [], []
    for e in range(coarse.n_elements):
        lam, P, k = spectra.lambdas[e], spectra.pressures[e], aux.counts[e]
        assert k == max(1, np.sum(lam < 1.0))
        assert np.array_equal(aux.cells[e], spectra.cells[e])
        assert np.array_equal(aux.pressures[e, :, :k], P[:, :k])
        assert (aux.pressures[e, :, k:] == 0.0).all()
        assert np.array_equal(aux.columns[e, :k], aux.offsets[e] + np.arange(k))
        assert (aux.columns[e, k:] == -1).all()
        for j in range(k):
            rows.append(spectra.cells[e])
            cols.append(np.full(spectra.cells[e].size, aux.offsets[e] + j))
            vals.append(P[:, j])
        lam_next.append(lam[k] if k < lam.size else np.inf)
    want = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(fine.n_cells, aux.n_columns)).tocsr()
    assert aux.matrix.shape == want.shape and (aux.matrix != want).nnz == 0
    assert np.array_equal(aux.lambda_next, lam_next)
    assert aux.spectral_gap == min(lam_next)


def test_projection_idempotent_selfadjoint_preserves_constants():
    fine, coarse, perm, weight = _case(nx=16, Nx=4, seed=9)
    spectra = solve_all_spectra(coarse, perm, weight)
    aux = build_aux_space(coarse, weight, spectra, nbasis=3)
    rng = np.random.default_rng(10)
    s = aux.s_diag
    for _ in range(5):
        q = rng.standard_normal(fine.n_cells)
        r = rng.standard_normal(fine.n_cells)
        pq = aux.project(q)
        scale = np.linalg.norm(pq)
        assert np.linalg.norm(aux.project(pq) - pq) < 1e-12 * max(scale, 1)
        lhs = np.sum(s * pq * r)
        rhs = np.sum(s * q * aux.project(r))
        assert lhs == pytest.approx(rhs, rel=1e-10)
    ones = np.ones(fine.n_cells)
    assert np.allclose(aux.project(ones), ones, atol=1e-10)


def test_projection_reproduces_kept_eigenvectors_only():
    fine, coarse, perm, weight = _case(nx=8, Nx=2, seed=11)
    spectra = solve_all_spectra(coarse, perm, weight)
    aux = build_aux_space(coarse, weight, spectra, nbasis=2)
    cells, P = spectra.cells[2], spectra.pressures[2]
    kept = np.zeros(fine.n_cells)
    kept[cells] = P[:, 1]
    assert np.allclose(aux.project(kept), kept, atol=1e-10)
    dropped = np.zeros(fine.n_cells)
    dropped[cells] = P[:, 5]
    assert np.abs(aux.project(dropped)).max() < 1e-10 * np.abs(dropped).max()


def test_restriction_matches_global_matrix():
    fine, coarse, perm, weight = _case(nx=16, Nx=4, seed=12)
    spectra = solve_all_spectra(coarse, perm, weight)
    aux = build_aux_space(coarse, weight, spectra, nbasis=2)
    reg = oversample_region(coarse, int(coarse.element_id(1, 1)), 1)
    col_ids, R_loc = restriction(aux, reg)
    # 3x3 block of elements around (1,1), two columns each
    assert col_ids.size == 9 * 2
    dense = aux.matrix.toarray()
    assert np.allclose(R_loc.toarray(), dense[np.ix_(reg.cells(), col_ids)])
    # columns outside the region have no support on its cells
    outside = np.setdiff1d(np.arange(aux.n_columns), col_ids)
    assert np.abs(dense[np.ix_(reg.cells(), outside)]).max() == 0.0


def test_gap_split_cases():
    n, ratio = gap_split([0.0, 1e-9, 1.0, 10.0])
    assert n == 2 and ratio == pytest.approx(1e9)
    n, ratio = gap_split([0.0, 1.0, 2.0, 4.0])
    assert n == 2 and ratio == pytest.approx(2.0)
    n, ratio = gap_split([0.0, 0.0, 0.0])
    assert n == 3 and ratio == np.inf
    n, ratio = gap_split([])
    assert n == 0 and ratio == np.inf
    n, ratio = gap_split([0.0, 1.0])
    assert n == 1 and ratio == np.inf


def test_eigen_report_format(tmp_path):
    fine, coarse, perm, weight = _case(nx=8, Nx=2)
    spectra = solve_all_spectra(coarse, perm, weight)
    path = tmp_path / "eigs.csv"
    write_eigen_report(path, spectra, 3)
    lines = path.read_text().splitlines()
    assert lines[0] == "element_i,j,lambda"
    assert len(lines) == 1 + 4 * 3
    e, j, lam = lines[1].split(",")
    assert (e, j) == ("0", "0")
    assert float(lam) == pytest.approx(spectra.lambdas[0, 0], abs=1e-15)
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[0] for r in rows] == [str(e) for e in range(4) for _ in range(3)]


def test_one_cell_elements():
    """Every element is one cell: no interior edges, empty line chains and
    a 1 x 1 spectrum; the multiscale solve still conserves mass."""
    fine, coarse = build_grids(8, 8)
    perm = generate_medium(three_channel_spec(contrast=1e4), fine)
    weight = compute_weight(perm, bilinear_pou(coarse))
    lines = element_lines(coarse)
    assert lines.interior.shape == (2, 0) and lines.boundary.shape == (2, 2)
    spectra = _check_against_oracle(coarse, perm, weight)
    assert spectra.lambdas.shape == (coarse.n_elements, 1)
    assert (spectra.lambdas == 0.0).all()
    f = np.zeros(fine.n_cells)
    f[0], f[-1] = 1.0, -1.0
    _, _, _, report, _ = solve_case(perm, f, 8, nbasis=1, layers=1)
    assert report.max_residual <= 1e-10
