"""Pipeline driver, norms, relative errors, localization decay and convergence sweeps.

`solve_case` chains the pipeline's seven stages, each timed into a
`StageTimes`; `convergence_study` shares the first two per coarse size.

The velocity norm pairs the permeability-weighted flux energy with a
weighted divergence term; pressures use plain and weighted L2 norms,
both over the whole domain. The decay study builds its global and
localized functions through `basis.CondensedElements.functions`.
"""

import resource
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .auxspace import _check_selection, build_aux_space, solve_all_spectra
from .basis import CondensedElements, _check_method, build_basis_set
from .coarse import assemble_coarse_system, mass_residuals, solve_multiscale
from .errors import ConfigError
from .fem import check_source, solve_fine_reference
from .medium import compute_weight
from .mesh import bilinear_pou, build_grids, oversample_region


@dataclass(frozen=True)
class StageTimes:
    """Seconds per stage, and how much each stage raised the process's
    resident high-water mark (`ru_maxrss`) above every earlier stage's
    peak, in MiB. A stage timed twice holds the sum of both."""

    seconds: dict = field(default_factory=dict)
    peak_mb: dict = field(default_factory=dict)

    @contextmanager
    def stage(self, name):
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
        t0 = perf_counter()
        yield
        self.seconds[name] = self.seconds.get(name, 0.0) + (perf_counter() - t0)
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - kib
        self.peak_mb[name] = self.peak_mb.get(name, 0.0) + kib / 1024.0


@dataclass(frozen=True)
class NormReport:
    a: float = None
    div: float = None
    V: float = None
    s: float = None
    l2: float = None


def velocity_norms(grid, perm, weight, v):
    """Energy, weighted-divergence, and combined norms of an edge field."""
    L, R, B, T = grid.cell_edge_ids(np.arange(grid.n_cells))
    vL, vR, vB, vT = v[L], v[R], v[B], v[T]
    h2 = grid.h ** 2
    a2 = np.sum((vL * vL + vL * vR + vR * vR
                 + vB * vB + vB * vT + vT * vT) * h2 / (3.0 * perm.values))
    dv = vR - vL + vT - vB
    div2 = np.sum(dv * dv / weight.values)
    return NormReport(a=float(np.sqrt(a2)), div=float(np.sqrt(div2)),
                      V=float(np.sqrt(a2 + div2)))


def pressure_norms(weight, q):
    """Weighted and plain L2 norms of a cell field."""
    h2 = weight.grid.h ** 2
    s2 = np.sum(weight.values * q * q * h2)
    l22 = np.sum(q * q * h2)
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
    """Layer count growing logarithmically in 1/H, calibrated at (l0, H0);
    one layer for a single coarse element (H = 1)."""
    if not (0 < H <= 1 and 0 < H0 < 1) or l0 < 1:
        raise ConfigError(f"bad layer calibration l0={l0}, H0={H0}, H={H}")
    try:
        with np.errstate(over="raise"):
            return max(1, int(np.ceil(l0 * np.log(1.0 / H) / np.log(1.0 / H0) - 1e-12)))
    except (OverflowError, FloatingPointError):
        raise ConfigError(f"layer calibration l0={l0} is too large")


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
    rho: float
    norm_glo_V: float
    fields: list
    global_function: object
    functions: list


def decay_study(aux, perm, e, j, layers_list, rtol=1e-10):
    """Measure how fast localized basis functions approach the global one.

    The fitted per-layer ratio `rho` uses only non-saturated layer counts
    (regions still smaller than the domain); saturated entries are kept in
    the profile but flagged. The element, the eigenvector index and every
    layer count are checked, then the elements are condensed once, for the
    global function and all of them. The profile keeps the global and
    localized functions and, per layer count, the speed field of the
    difference.
    """
    coarse = aux.coarse
    grid = coarse.fine
    weight = aux.weight
    if not 0 <= e < coarse.n_elements:
        raise ConfigError(f"element {e} outside coarse grid")
    aux.column(e, j)
    layers_arr = np.asarray(list(layers_list), dtype=int)
    _check_method("type2", int(layers_arr.min(initial=1)))
    cond = CondensedElements(aux, perm, "type2")
    glo = cond.functions([e], None, rtol)[j]
    glo_v = glo.v_global(grid.n_edges)
    norm_glo = velocity_norms(grid, perm, weight, glo_v).V

    diff_V = np.zeros(layers_arr.size)
    diff_a = np.zeros(layers_arr.size)
    saturated = np.zeros(layers_arr.size, dtype=bool)
    fields = []
    functions = []
    for k, l in enumerate(layers_arr):
        fn = cond.functions([e], int(l), rtol)[j]
        dv = glo_v - fn.v_global(grid.n_edges)
        rep = velocity_norms(grid, perm, weight, dv)
        diff_V[k] = rep.V
        diff_a[k] = rep.a
        saturated[k] = oversample_region(coarse, e, int(l)).is_full_domain
        fields.append(speed_field(grid, perm, dv))
        functions.append(fn)

    keep = ~saturated & (diff_V > 0)
    if np.count_nonzero(keep) >= 2:
        slope = np.polyfit(layers_arr[keep], np.log(diff_V[keep]), 1)[0]
        rho = float(np.exp(slope))
    else:
        rho = float("nan")
    return DecayProfile(int(e), int(j), layers_arr, diff_V, diff_a,
                        diff_V / norm_glo if norm_glo > 0 else diff_V,
                        saturated, rho, norm_glo, fields, glo, functions)


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


def spectra_stage(perm, coarse, workers=1):
    """The weight and every element's spectrum on `coarse`, the first two
    stages of each multiscale solve, the decay study and the eigenvalue
    report: (weight, spectra, times), `times` their `StageTimes`."""
    times = StageTimes()
    with times.stage("weight"):
        weight = compute_weight(perm, bilinear_pou(coarse))
    with times.stage("spectra"):
        spectra = solve_all_spectra(coarse, perm, weight, workers=workers)
    return weight, spectra, times


def _aux_stage(times, coarse, weight, spectra, nbasis, threshold):
    """The auxiliary space, timed into `times` as `aux`."""
    with times.stage("aux"):
        return build_aux_space(coarse, weight, spectra, nbasis=nbasis, threshold=threshold)


def _multiscale(times, perm, f, aux, layers, flavor, rtol, workers):
    """The stages after the auxiliary space, timed into `times`: basis
    functions, coarse assembly and coarse solve. Returns (solution, basis)."""
    with times.stage("basis"):
        basis_set = build_basis_set(aux, perm, layers=layers, flavor=flavor,
                                    rtol=rtol, workers=workers)
    with times.stage("assembly"):
        system = assemble_coarse_system(basis_set, perm, f)
    with times.stage("coarse_solve"):
        ms = solve_multiscale(system, rtol=rtol)
    return ms, basis_set


def convergence_study(perm, f, cases, flavor="type2", rtol=1e-10, workers=1):
    """Errors of the multiscale solve against the fine reference.

    `cases` holds (nbasis, Nx, layers) triples, solved in order on the
    shared fine grid/medium; rates compare consecutive rows. The source
    and every case are checked in full before the first solve, and the
    spectra of each coarse size are computed once.
    """
    f = check_source(f, perm.grid)
    coarse = {Nx: build_grids(perm.grid.nx, Nx)[1] for _, Nx, _ in cases}
    for nbasis, Nx, layers in cases:
        _check_selection(nbasis, None, coarse[Nx].r ** 2)
        _check_method(flavor, layers)
    fine = solve_fine_reference(perm, f, rtol=rtol)
    stages = {}
    rows = []
    for nbasis, Nx, layers in cases:
        t0 = perf_counter()
        if Nx not in stages:
            stages[Nx] = spectra_stage(perm, coarse[Nx], workers)
        weight, spectra, times = stages[Nx]
        aux = _aux_stage(times, coarse[Nx], weight, spectra, nbasis, None)
        ms, _ = _multiscale(times, perm, f, aux, layers, flavor, rtol, workers)
        err = relative_errors(fine, ms, perm, weight)
        seconds = perf_counter() - t0
        if rows and rows[-1].H != 1.0 / Nx:
            prev = rows[-1]
            rate_p = rate(prev.e_p, prev.H, err.e_p, 1.0 / Nx)
            rate_v = rate(prev.e_v, prev.H, err.e_v, 1.0 / Nx)
        else:
            rate_p = rate_v = float("nan")
        rows.append(ConvergenceRow(nbasis, 1.0 / Nx, layers, err.e_p, err.e_v,
                                   rate_p, rate_v, seconds))
    return rows


def solve_case(perm, f, Nx, nbasis=None, threshold=None, layers=3,
               flavor="type2", rtol=1e-10, workers=1):
    """One multiscale solve: (solution, aux, basis, mass report, times),
    `times` the `StageTimes` of the seven stages, the last (`post`) the
    mass residuals. The source, eigenvector selection, flavor and layer
    count are checked before the first stage."""
    f = check_source(f, perm.grid)
    _check_method(flavor, layers)
    _, coarse = build_grids(perm.grid.nx, Nx)
    _check_selection(nbasis, threshold, coarse.r ** 2)
    weight, spectra, times = spectra_stage(perm, coarse, workers)
    aux = _aux_stage(times, coarse, weight, spectra, nbasis, threshold)
    ms, basis_set = _multiscale(times, perm, f, aux, layers, flavor, rtol, workers)
    with times.stage("post"):
        report = mass_residuals(ms, f, aux)
    return ms, aux, basis_set, report, times
