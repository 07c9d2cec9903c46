"""Projected coarse solves: exactness, conservation, degeneracy handling."""

import dataclasses
import os
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from msdarcy import (ConfigError, PermField, SolveError, bilinear_pou,
                     build_aux_space, build_basis_set, build_grids,
                     build_snapshot, compute_weight, generate_medium,
                     relative_errors, sample_spec, solve_all_spectra,
                     solve_case, solve_fine_reference, assemble_coarse_system,
                     div_compat_residual, mass_residuals, solve_multiscale)
from msdarcy import coarse
from msdarcy.fem import _band_positions, band_half_width, divergence_matrix
from oracles import (_bordered_superlu_solve, _dense_reference, _superlu_velocity_verdict,
                     _symmetrized_coo_solve, mass_matrix)


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


def _select(bset, keep):
    """The set of bset's functions `keep`, in that order: its stacks'
    columns `keep`."""
    return dataclasses.replace(
        bset, **{name: getattr(bset, name)[:, keep]
                 for name in ("matrix", "divergence", "traces")},
        **{name: getattr(bset, name)[keep] for name in ("energies", "columns", "elements")})


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


def test_mass_residuals_refuse_a_source_the_solve_would_refuse():
    """A scalar, a source with nonzero mean and a source one cell short
    raise the ConfigError of `assemble_coarse_system`, not a residual
    against the wrong source or numpy's broadcast error."""
    fine, coarse, perm, weight, aux, f = _setup(16, 4, nbasis=3, seed=32)
    bset = build_basis_set(aux, perm, layers=1)
    ms = solve_multiscale(assemble_coarse_system(bset, perm, f))
    for bad, match in ((0.0, "source has shape"), (f + 1.0, "zero mean"),
                       (f[:-1], "source has shape")):
        with pytest.raises(ConfigError, match=match):
            assemble_coarse_system(bset, perm, bad)
        with pytest.raises(ConfigError, match=match):
            mass_residuals(ms, bad, aux)


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


def _single_element_system(nbasis=1):
    """One coarse element with `nbasis` pressure columns."""
    fine, coarse = build_grids(8, 1)
    rng = np.random.default_rng(37)
    perm = PermField.from_raw(fine, np.exp(rng.uniform(0, 2, fine.n_cells)))
    weight = compute_weight(perm, bilinear_pou(coarse))
    aux = build_aux_space(coarse, weight, solve_all_spectra(coarse, perm, weight),
                          nbasis=nbasis)
    bset = build_basis_set(aux, perm, flavor="global")
    f = rng.standard_normal(fine.n_cells)
    f -= f.mean()
    return assemble_coarse_system(bset, perm, f)


def _oracle_system(case):
    if case == "single":
        return _single_element_system()
    if case == "pair":
        # two columns: the smallest restricted Schur complement (1 x 1)
        return _single_element_system(nbasis=2)
    flavor, _, contrast = case.partition("-")
    fine, coarse, perm, weight, aux, f = _setup(16, 4, nbasis=2, seed=38,
                                                span=np.log(float(contrast or 1e3)))
    if flavor == "global":
        bset = build_basis_set(aux, perm, flavor="global")
        assert bset.saturated
    else:
        bset = build_basis_set(aux, perm, layers=1, flavor=flavor)
    return assemble_coarse_system(bset, perm, f)


@pytest.mark.parametrize("case", ["type2", "type1", "global", "single", "pair",
                                  "type2-1e8", "global-1e8"])
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
    assert close(ms.p, system.basis.aux.matrix @ P)
    d = ms.coeff_v - U
    A_sym = 0.5 * (system.A_c + system.A_c.T).toarray()
    assert np.sqrt(d @ A_sym @ d) <= 1e-10 * np.sqrt(U @ A_sym @ U)
    assert close(ms.v, system.basis.matrix @ U)
    # gamma is zero up to roundoff for a zero-mean source
    scale = np.linalg.norm(system.rhs_q) / np.linalg.norm(system.mean_w)
    assert abs(ms.gamma - gamma) <= 1e-10 * scale


@pytest.mark.parametrize("case", ["type2", "type1", "global", "single", "pair",
                                  "type2-1e8", "global-1e8", "type2-32-8-L2"])
def test_pinned_band_solve_matches_bordered_superlu(case):
    if case == "type2-32-8-L2":
        fine, grid, perm, weight, aux, f = _setup(32, 8, nbasis=2, seed=40)
        system = assemble_coarse_system(build_basis_set(aux, perm, layers=2), perm, f)
    else:
        system = _oracle_system(case)
    ms = solve_multiscale(system)
    U, P, sigma = _bordered_superlu_solve(system)
    A = 0.5 * (system.A_c + system.A_c.T)
    d = ms.coeff_v - U
    assert np.sqrt(d @ A @ d) <= 1e-10 * np.sqrt(U @ A @ U)
    assert np.linalg.norm(ms.coeff_p - P) <= 1e-10 * np.linalg.norm(P)
    if sigma == np.inf:
        assert ms.schur_sigma == np.inf
    else:
        assert abs(ms.schur_sigma - sigma) <= 1e-8 * sigma


@pytest.mark.parametrize("case", ["type2", "type1", "global", "type2-antisymmetric"])
def test_bands_from_compressed_arrays_match_symmetrized_coo_route(case, monkeypatch):
    """The Cholesky band built from A_c's rows equals the one that went
    through the symmetrized sparse copy, `tril` and COO, entry for entry:
    each band entry is the sum of at most two stored values, halved. So
    does the pinned LU band built from B_c's columns, against the one
    written from B_c's COO entries off row k. The solves agree, with A_c
    in the products against its symmetric part.
    An antisymmetric perturbation of 1e-12 relative to A_c reaches the
    products but not the band, which reads the symmetric part only."""
    system = _oracle_system(case.partition("-")[0])
    if case.endswith("antisymmetric"):
        noise = system.A_c.copy()
        noise.data = np.random.default_rng(41).standard_normal(noise.nnz)
        noise = noise - noise.T
        scale = 1e-12 * abs(system.A_c).max() / abs(noise).max()
        system = dataclasses.replace(system, A_c=system.A_c + scale * noise)
    bands = []

    def record(factor):
        def copy_then_factor(band):
            bands.append(band.copy())
            return factor(band)
        return copy_then_factor
    monkeypatch.setattr(coarse, "band_cholesky", record(coarse.band_cholesky))
    monkeypatch.setattr(coarse, "band_lu", record(coarse.band_lu))
    ms = solve_multiscale(system)
    U, P, sigma, band, pinned = _symmetrized_coo_solve(system)
    assert np.array_equal(bands[0], band)
    assert np.array_equal(bands[1], pinned)
    assert np.linalg.norm(ms.coeff_v - U) <= 1e-10 * np.linalg.norm(U)
    assert np.linalg.norm(ms.coeff_p - P) <= 1e-10 * np.linalg.norm(P)
    assert abs(ms.schur_sigma - sigma) <= 1e-8 * sigma


def test_band_positions_widen_past_the_index_type():
    """A band of more than 2^31 - 1 entries is addressed in int64, since
    the blocks' int32 ids would wrap there."""
    minor, major = np.array([1, 2], dtype=np.int32), np.array([3, 0], dtype=np.int32)
    small = _band_positions(minor.copy(), major.copy(), 10, 4)
    assert small.dtype == np.int32 and small.tolist() == [31, 2]
    wide = _band_positions(minor, major, 2 ** 30, 4)
    assert wide.dtype == np.int64 and wide.tolist() == [3 * 2 ** 30 + 1, 2]


def test_solve_allocates_one_band_and_little_more():
    """tracemalloc's peak over the coarse solve of 768 functions stays
    under the larger of the two band factors, 8 n max(kd + 1, 3 kb + 1)
    bytes, plus 12 bytes per stored entry of A_c, one more copy of its
    values and column ids: the Cholesky band is freed before the LU band
    is made. Holding both bands, or a symmetrized sparse copy of A_c
    beside one, takes more."""
    fine, grid, perm, weight, aux, f = _setup(32, 16, nbasis=3, seed=40)
    system = assemble_coarse_system(build_basis_set(aux, perm, layers=1), perm, f)
    n = system.A_c.shape[0]
    kd, kb = band_half_width(system.A_c), band_half_width(system.B_c)
    bound = 8 * n * max(kd + 1, 3 * kb + 1) + 12 * system.A_c.nnz
    solve_multiscale(system)
    tracemalloc.start()
    try:
        solve_multiscale(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


@pytest.mark.parametrize("flavor", ["type1", "type2", "global"])
@pytest.mark.parametrize("contrast", [1e3, 1e8])
def test_blocks_match_fine_grid_products(flavor, contrast):
    """Oracle: A_c = Psi^T M Psi and B_c = R^T B Psi as fine-grid
    products, the assembly that the region solves' divergence
    coefficients, traces and energies replaced. The blocks agree at both
    contrasts; the coarse velocities are compared at 1e3 only, because at
    1e8 the coarse solve can amplify roundoff-level differences of the
    blocks by orders of magnitude."""
    fine, coarse, perm, weight, aux, f = _setup(16, 4, nbasis=2, seed=38,
                                                span=np.log(contrast))
    if flavor == "global":
        bset = build_basis_set(aux, perm, flavor="global")
    else:
        bset = build_basis_set(aux, perm, layers=1, flavor=flavor)
    system = assemble_coarse_system(bset, perm, f)
    Psi = bset.matrix
    A_c = Psi.T @ (mass_matrix(fine, perm) @ Psi)
    B_c = aux.matrix.T @ (divergence_matrix(fine) @ Psi)
    for got, want in ((system.A_c, A_c), (system.B_c, B_c)):
        assert abs(got - want).max() <= 1e-10 * abs(want).max()
    if contrast > 1e3:
        return
    U = solve_multiscale(system).coeff_v
    want = solve_multiscale(dataclasses.replace(system, A_c=A_c, B_c=B_c)).coeff_v
    A = 0.5 * (A_c + A_c.T)
    d = U - want
    assert np.sqrt(d @ A @ d) <= 1e-10 * np.sqrt(want @ A @ want)


def test_schur_health_positive_and_degenerate_cases():
    fine, coarse, perm, weight, aux, f = _setup(16, 4, nbasis=2, seed=36)
    bset = build_basis_set(aux, perm, layers=2)
    system = assemble_coarse_system(bset, perm, f)
    assert solve_multiscale(system).schur_sigma > 1e-6
    # a duplicated function makes the velocity block singular
    keep = np.arange(len(bset))
    keep[1] = 0
    twice = _select(bset, keep)
    broken = assemble_coarse_system(twice, perm, f)
    with pytest.raises(SolveError, match="not positive definite"):
        solve_multiscale(broken)
    # a negative definite block factors, but with negative pivots
    negated = dataclasses.replace(system, A_c=-system.A_c)
    with pytest.raises(SolveError, match="not positive definite"):
        solve_multiscale(negated)


def _banded_velocity_verdict(system, monkeypatch):
    """The same from `solve_multiscale`, whose lambda_max is its only
    Lanczos run to three digits, plus the SolveError it raised or None. An
    error other than "not positive definite" comes after the velocity
    check, which then counts as passed, with the lambda_max of the Lanczos
    run before the error."""
    top, seen = coarse._top_eigenvalue, {}

    def record(apply, n, tol=0.0):
        seen[tol] = top(apply, n, tol)
        return seen[tol]
    monkeypatch.setattr(coarse, "_top_eigenvalue", record)
    try:
        solve_multiscale(system)
    except SolveError as exc:
        if "not positive definite" in str(exc):
            return False, None, exc
        return True, seen.get(1e-3), exc
    return True, seen.get(1e-3), None


# duplicated-function layouts (seed, a, b): function b replaced by function
# a of the 16x16/4 set at two layers
_DUPLICATED = [(seed, a, b) for seed in range(6) for a, b in ((0, 1), (3, 5), (0, 7))]


@pytest.mark.parametrize("case", ["type2", "type1", "global", "single", "pair",
                                  "type2-1e8", "global-1e8", "negated"]
                         + [f"duplicated-{s}-{a}-{b}" for s, a, b in _DUPLICATED])
def test_banded_velocity_check_matches_superlu_pivots(case, monkeypatch):
    if case == "negated":
        system = _oracle_system("type2")
        system = dataclasses.replace(system, A_c=-system.A_c)
    elif case.startswith("duplicated"):
        seed, a, b = map(int, case.split("-")[1:])
        fine, grid, perm, weight, aux, f = _setup(16, 4, nbasis=2, seed=seed)
        bset = build_basis_set(aux, perm, layers=2)
        keep = np.arange(len(bset))
        keep[b] = a
        system = assemble_coarse_system(_select(bset, keep), perm, f)
    else:
        system = _oracle_system(case)
    ok, lam, error = _banded_velocity_verdict(system, monkeypatch)
    want_ok, want_lam = _superlu_velocity_verdict(system)
    if case.startswith("duplicated"):
        # two equal columns leave B_c of corank 2, so the solve is refused
        # whether or not roundoff left the velocity block's zero pivot positive
        assert error is not None
    assert ok == want_ok
    assert (lam is None) == (want_lam is None)
    if want_lam is not None:
        assert abs(lam - want_lam) <= 1e-3 * want_lam


def test_non_square_divergence_block_is_refused():
    fine, coarse, perm, weight, aux, f = _setup(16, 4, nbasis=2, seed=36)
    bset = build_basis_set(aux, perm, layers=1)
    two = _select(bset, np.arange(2))
    system = assemble_coarse_system(two, perm, f)
    with pytest.raises(SolveError, match="velocity block 2x2, divergence block 32x2"):
        solve_multiscale(system)


def test_source_of_wrong_size_is_refused_before_the_spectra(monkeypatch):
    """A source one row of cells short is refused with both sizes, by
    `solve_case` before any stage runs, and by every solve that takes one."""
    fine, coarse, perm, weight, aux, f = _setup(16, 4, nbasis=2, seed=37)
    short = f[:-fine.nx]
    message = rf"source has shape \({short.size},\), the 16x16 grid has {fine.n_cells} cells"

    def no_spectra(*args, **kwargs):
        raise AssertionError("the spectra ran before the source was checked")
    monkeypatch.setattr("msdarcy.metrics.spectra_stage", no_spectra)
    with pytest.raises(ConfigError, match=message):
        solve_case(perm, short, 4, nbasis=2, layers=1)
    bset = build_basis_set(aux, perm, layers=1)
    for solve in (lambda: solve_fine_reference(perm, short),
                  lambda: build_snapshot(aux, perm, short),
                  lambda: assemble_coarse_system(bset, perm, short)):
        with pytest.raises(ConfigError, match=message):
            solve()
    with pytest.raises(ConfigError, match="zero mean"):
        solve_case(perm, f + 1.0, 4, nbasis=2, layers=1)


def test_singular_bordered_divergence_block_raises_solve_error():
    system = _oracle_system("type2")
    zero = dataclasses.replace(system, B_c=sp.csr_matrix(system.B_c.shape))
    with pytest.raises(SolveError, match="coarse system is singular: "):
        solve_multiscale(zero)


@pytest.mark.parametrize("case", ["type2", "type1", "global"])
def test_left_null_vector_of_divergence_block(case):
    """s = R^T S 1 annihilates B_c from the left: each basis function has
    zero net flux and its divergence lies in the weighted image S R of the
    auxiliary space, with R^T S R = I. The mean weights w do not."""
    system = _oracle_system(case)
    B = system.B_c.toarray()
    s = system.basis.aux.coefficients(np.ones(system.basis.aux.coarse.fine.n_cells))
    w = system.mean_w
    assert np.abs(s @ B).max() <= 1e-14 * np.abs(B).max() * np.abs(s).max()
    assert np.abs(w @ B).max() > 0.1 * np.abs(B).max() * np.abs(w).max()


def test_single_pressure_column_reports_inf():
    assert solve_multiscale(_single_element_system()).schur_sigma == np.inf


def test_residual_check_raises_with_residual():
    system = _oracle_system("type2")
    with pytest.raises(SolveError) as info:
        solve_multiscale(system, rtol=1e-30)
    assert 0 < info.value.residual < 1e-10 * np.linalg.norm(system.rhs_q)


def test_lanczos_failure_raises_solve_error(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))
    monkeypatch.setattr(coarse, "eigsh", no_convergence)
    with pytest.raises(SolveError, match="did not converge"):
        solve_multiscale(_oracle_system("type2"))


def test_held_back_lanczos_failure_raises_after_the_lu_and_sigma(monkeypatch):
    """The rank test's largest eigenvalue runs before the LU, to a few
    digits (tol=1e-3); when only that run fails, its SolveError is held
    back and still raised, after the LU and the sigma iteration ran."""
    calls = []

    def fail_the_rank_run(*args, **kwargs):
        calls.append(kwargs["tol"])
        if kwargs["tol"] == 1e-3:
            raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))
        return eigsh(*args, **kwargs)
    monkeypatch.setattr(coarse, "eigsh", fail_the_rank_run)
    with pytest.raises(SolveError, match="did not converge"):
        solve_multiscale(_oracle_system("type2"))
    assert calls == [1e-3, 0.0]


def test_memory_guard_refuses_oversized_coarse_system(monkeypatch):
    """The guard counts both band factors exactly: the velocity block's
    Cholesky band and the pinned divergence block's LU band, whose row
    pivots add kb superdiagonals."""
    fine, coarse, perm, weight, aux, f = _setup(8, 2, nbasis=1, seed=39)
    bset = build_basis_set(aux, perm, layers=1)
    system = assemble_coarse_system(bset, perm, f)
    n = len(bset)
    kd, kb = (int(np.abs(m.row - m.col).max()) for m in (system.A_c.tocoo(), system.B_c.tocoo()))
    need = 8 * n * (kd + 1) + 8 * n * (3 * kb + 1)
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 1}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    with pytest.raises(ConfigError, match=f"{n} basis functions needs about"):
        assemble_coarse_system(bset, perm, f)
    pages["SC_PHYS_PAGES"] = need - 1
    with pytest.raises(ConfigError, match=f"{n} basis functions needs about"):
        assemble_coarse_system(bset, perm, f)
    pages["SC_PHYS_PAGES"] = need
    assert assemble_coarse_system(bset, perm, f).A_c.shape == (n, n)


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
        ms, aux, bset, report, _ = solve_case(perm, f, 4, nbasis=3, layers=2)
        assert report.max_residual <= 1e-10
        assert report.div_compat <= 1e-10
        sigmas.append(ms.schur_sigma)
        e_v[k] = relative_errors(solve_fine_reference(perm, f), ms, perm,
                                 aux.weight).e_v
    assert sigmas[-1] < 1e-9 * sigmas[0]
    settled = [e_v[k] for k in range(4, 13)]
    assert max(settled) <= 1.01 * min(settled)
    assert e_v[12] == pytest.approx(e_v[6], rel=1e-4)
