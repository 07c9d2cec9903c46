"""Norms, relative errors, localization decay, and convergence sweeps.

The velocity norm pairs the permeability-weighted flux energy with a
weighted divergence term; pressures use plain and weighted L2 norms.
All norms accept an optional region restriction, accumulated per cell
(edges on the region boundary count toward the cells that own them).
"""

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .auxspace import build_aux_space, solve_all_spectra
from .basis import CondensedElements, build_basis_set
from .coarse import assemble_coarse_system, mass_residuals, solve_multiscale
from .errors import ConfigError
from .medium import compute_weight
from .mesh import CoarseGrid, bilinear_pou, full_domain, oversample_region


@dataclass(frozen=True)
class NormReport:
    a: float = None
    div: float = None
    V: float = None
    s: float = None
    l2: float = None


def velocity_norms(grid, perm, weight, v, region=None):
    """Energy, weighted-divergence, and combined norms of an edge field."""
    if region is None:
        region = full_domain(grid)
    cells = region.cells()
    L, R, B, T = grid.cell_edge_ids(cells)
    vL, vR, vB, vT = v[L], v[R], v[B], v[T]
    h2 = grid.h ** 2
    kappa = perm.values[cells]
    a2 = np.sum((vL * vL + vL * vR + vR * vR
                 + vB * vB + vB * vT + vT * vT) * h2 / (3.0 * kappa))
    dv = vR - vL + vT - vB
    div2 = np.sum(dv * dv / weight.values[cells])
    return NormReport(a=float(np.sqrt(a2)), div=float(np.sqrt(div2)),
                      V=float(np.sqrt(a2 + div2)))


def pressure_norms(weight, q, region=None):
    """Weighted and plain L2 norms of a cell field."""
    grid = weight.grid
    if region is None:
        region = full_domain(grid)
    cells = region.cells()
    h2 = grid.h ** 2
    qc = q[cells]
    s2 = np.sum(weight.values[cells] * qc * qc * h2)
    l22 = np.sum(qc * qc * h2)
    return NormReport(s=float(np.sqrt(s2)), l2=float(np.sqrt(l22)))


@dataclass(frozen=True)
class ErrorReport:
    e_p: float
    e_v: float


def relative_errors(fine, ms, perm, weight):
    """Relative energy-norm velocity and L2 pressure errors."""
    grid = fine.grid
    ref_v = velocity_norms(grid, perm, weight, fine.v).a
    ref_p = pressure_norms(weight, fine.p).l2
    if ref_v == 0.0 or ref_p == 0.0:
        raise ConfigError("reference solution has zero norm")
    dv = velocity_norms(grid, perm, weight, fine.v - ms.v).a
    dp = pressure_norms(weight, fine.p - ms.p).l2
    return ErrorReport(e_p=dp / ref_p, e_v=dv / ref_v)


def speed_field(grid, perm, v):
    """Cell-average weighted speed sqrt(kappa) |v| of an edge field."""
    cells = np.arange(grid.n_cells)
    L, R, B, T = grid.cell_edge_ids(cells)
    mx = 0.5 * (v[L] + v[R])
    my = 0.5 * (v[B] + v[T])
    return np.sqrt(perm.values * (mx * mx + my * my))


def rate(e_prev, h_prev, e_cur, h_cur):
    """Observed order between two (error, mesh size) samples."""
    return float(np.log(e_prev / e_cur) / np.log(h_prev / h_cur))


def auto_layers(H, l0=3, H0=0.125):
    """Layer count growing logarithmically in 1/H, calibrated at (l0, H0)."""
    if not (0 < H < 1 and 0 < H0 < 1) or l0 < 1:
        raise ConfigError(f"bad layer calibration l0={l0}, H0={H0}, H={H}")
    return max(1, int(np.ceil(l0 * np.log(1.0 / H) / np.log(1.0 / H0) - 1e-12)))


@dataclass(frozen=True)
class DecayProfile:
    """V-norm distances between one global basis function and its
    localized versions, per layer count."""

    element: int
    j: int
    layers: np.ndarray
    diff_V: np.ndarray
    diff_a: np.ndarray
    rel_V: np.ndarray
    saturated: np.ndarray
    step_ratios: np.ndarray
    rho: float
    norm_glo_V: float
    fields: list
    global_function: object = None
    functions: list = None


def decay_study(aux, perm, e, j, layers_list, rtol=1e-10, keep_fields=False,
                keep_functions=False):
    """Measure how fast localized basis functions approach the global one.

    The fitted per-layer ratio `rho` uses only non-saturated layer counts
    (regions still smaller than the domain); saturated entries are kept in
    the profile but flagged. The elements are condensed once, for the
    global function and every layer count.
    """
    coarse = aux.coarse
    grid = coarse.fine
    weight = aux.weight
    aux.column(e, j)
    cond = CondensedElements(aux, perm, "type2")
    glo = cond.batch(e, None, rtol)[j]
    glo_v = glo.v_global(grid.n_edges)
    norm_glo = velocity_norms(grid, perm, weight, glo_v).V

    layers_arr = np.asarray(list(layers_list), dtype=int)
    diff_V = np.zeros(layers_arr.size)
    diff_a = np.zeros(layers_arr.size)
    saturated = np.zeros(layers_arr.size, dtype=bool)
    fields = []
    functions = [] if keep_functions else None
    for k, l in enumerate(layers_arr):
        fn = cond.batch(e, int(l), rtol)[j]
        dv = glo_v - fn.v_global(grid.n_edges)
        rep = velocity_norms(grid, perm, weight, dv)
        diff_V[k] = rep.V
        diff_a[k] = rep.a
        saturated[k] = oversample_region(coarse, e, int(l)).is_full_domain
        if keep_fields:
            fields.append(speed_field(grid, perm, dv))
        if keep_functions:
            functions.append(fn)

    keep = ~saturated & (diff_V > 0)
    if np.count_nonzero(keep) >= 2:
        slope = np.polyfit(layers_arr[keep], np.log(diff_V[keep]), 1)[0]
        rho = float(np.exp(slope))
    else:
        rho = float("nan")
    steps = np.full(max(layers_arr.size - 1, 0), np.nan)
    for k in range(layers_arr.size - 1):
        dl = layers_arr[k + 1] - layers_arr[k]
        if diff_V[k] > 0 and dl > 0:
            steps[k] = (diff_V[k + 1] / diff_V[k]) ** (1.0 / dl)
    return DecayProfile(int(e), int(j), layers_arr, diff_V, diff_a,
                        diff_V / norm_glo if norm_glo > 0 else diff_V,
                        saturated, steps, rho, norm_glo, fields,
                        glo if keep_functions else None, functions)


@dataclass(frozen=True)
class ConvergenceRow:
    nbasis: int
    H: float
    layers: int
    e_p: float
    e_v: float
    rate_p: float
    rate_v: float
    seconds: float


def convergence_study(perm, f, cases, flavor="type2", rtol=1e-10, workers=1,
                      fine=None):
    """Errors of the multiscale solve against the fine reference.

    `cases` holds (nbasis, Nx, layers) triples, solved in order on the
    shared fine grid/medium; rates compare consecutive rows.
    """
    from .fem import solve_fine_reference

    grid = perm.grid
    if fine is None:
        fine = solve_fine_reference(perm, f, rtol=rtol)
    cache = {}
    rows = []
    for nbasis, Nx, layers in cases:
        t0 = perf_counter()
        if Nx not in cache:
            if grid.nx % Nx != 0:
                raise ConfigError(f"coarse size {Nx} does not divide nx={grid.nx}")
            coarse = CoarseGrid(grid, Nx, Nx)
            weight = compute_weight(perm, bilinear_pou(coarse))
            spectra = solve_all_spectra(coarse, perm, weight, workers=workers)
            cache[Nx] = (coarse, weight, spectra)
        coarse, weight, spectra = cache[Nx]
        aux = build_aux_space(coarse, weight, spectra, nbasis=nbasis)
        basis_set = build_basis_set(aux, perm, layers=layers, flavor=flavor,
                                    rtol=rtol, workers=workers)
        system = assemble_coarse_system(basis_set, perm, f)
        ms = solve_multiscale(system, rtol=rtol)
        err = relative_errors(fine, ms, perm, weight)
        seconds = perf_counter() - t0
        if rows:
            prev = rows[-1]
            if prev.H != 1.0 / Nx:
                rate_p = rate(prev.e_p, prev.H, err.e_p, 1.0 / Nx)
                rate_v = rate(prev.e_v, prev.H, err.e_v, 1.0 / Nx)
            else:
                rate_p = rate_v = float("nan")
        else:
            rate_p = rate_v = float("nan")
        rows.append(ConvergenceRow(nbasis, 1.0 / Nx, layers, err.e_p, err.e_v,
                                   rate_p, rate_v, seconds))
    return rows


def solve_case(perm, f, Nx, nbasis=None, threshold=None, layers=3,
               flavor="type2", rtol=1e-10, workers=1):
    """One multiscale solve, returning (solution, aux, basis, mass report)."""
    grid = perm.grid
    if grid.nx % Nx != 0:
        raise ConfigError(f"coarse size {Nx} does not divide nx={grid.nx}")
    coarse = CoarseGrid(grid, Nx, Nx)
    weight = compute_weight(perm, bilinear_pou(coarse))
    spectra = solve_all_spectra(coarse, perm, weight, workers=workers)
    aux = build_aux_space(coarse, weight, spectra, nbasis=nbasis,
                          threshold=threshold)
    basis_set = build_basis_set(aux, perm, layers=layers, flavor=flavor,
                                rtol=rtol, workers=workers)
    system = assemble_coarse_system(basis_set, perm, f)
    ms = solve_multiscale(system, rtol=rtol)
    report = mass_residuals(ms, f, aux)
    return ms, aux, basis_set, report
