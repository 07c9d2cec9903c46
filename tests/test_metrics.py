"""Norms, error reports, layer schedules, decay and convergence studies."""

import ast
from pathlib import Path

import numpy as np
import pytest

from msdarcy import (ConfigError, PermField, bilinear_pou, build_aux_space,
                     build_grids, compute_weight, convergence_study,
                     pressure_norms, relative_errors, solve_all_spectra,
                     solve_case, solve_fine_reference, velocity_norms)
from msdarcy.fem import divergence_matrix
from msdarcy.medium import WeightField
from msdarcy.mesh import element_region, FineGrid
from msdarcy.metrics import auto_layers, decay_study, rate, speed_field
from oracles import mass_matrix


@pytest.fixture(scope="module")
def case32():
    fine, coarse = build_grids(32, 8)
    rng = np.random.default_rng(41)
    perm = PermField.from_raw(fine, np.exp(rng.uniform(0, np.log(100),
                                                       fine.n_cells)))
    weight = compute_weight(perm, bilinear_pou(coarse))
    return fine, coarse, perm, weight


def test_velocity_norms_match_quadratic_forms(case32):
    fine, coarse, perm, weight = case32
    rng = np.random.default_rng(42)
    v = rng.standard_normal(fine.n_edges)
    rep = velocity_norms(fine, perm, weight, v)
    M = mass_matrix(fine, perm)
    assert rep.a**2 == pytest.approx(v @ M @ v, rel=1e-12)
    Bv = divergence_matrix(fine) @ v
    div2 = np.sum(Bv**2 / (fine.h**2 * weight.values))
    assert rep.div**2 == pytest.approx(div2, rel=1e-12)
    assert rep.V**2 == pytest.approx(rep.a**2 + rep.div**2, rel=1e-12)


def test_norms_are_additive_over_element_partition(case32):
    """Each norm is a sum of per-cell terms. A cell with infinite
    coefficients (velocity) or a zero field value (pressure) adds nothing,
    so the per-element parts add up to the whole-domain norm."""
    fine, coarse, perm, weight = case32
    rng = np.random.default_rng(43)
    v = rng.standard_normal(fine.n_edges)
    q = rng.standard_normal(fine.n_cells)
    a2 = div2 = s2 = l22 = 0.0
    for e in range(coarse.n_elements):
        cells = element_region(coarse, e).cells()
        inside = np.zeros(fine.n_cells, dtype=bool)
        inside[cells] = True
        perm_e = PermField(fine, np.where(inside, perm.values, np.inf))
        weight_e = WeightField(fine, np.where(inside, weight.values, np.inf))
        vr = velocity_norms(fine, perm_e, weight_e, v)
        pr = pressure_norms(weight, np.where(inside, q, 0.0))
        a2 += vr.a**2
        div2 += vr.div**2
        s2 += pr.s**2
        l22 += pr.l2**2
    total_v = velocity_norms(fine, perm, weight, v)
    total_p = pressure_norms(weight, q)
    assert total_v.a**2 == pytest.approx(a2, rel=1e-12)
    assert total_v.div**2 == pytest.approx(div2, rel=1e-12)
    assert total_p.s**2 == pytest.approx(s2, rel=1e-12)
    assert total_p.l2**2 == pytest.approx(l22, rel=1e-12)


def test_pressure_norms_formulas(case32):
    fine, coarse, perm, weight = case32
    rng = np.random.default_rng(44)
    q = rng.standard_normal(fine.n_cells)
    rep = pressure_norms(weight, q)
    h2 = fine.h**2
    assert rep.s == pytest.approx(np.sqrt(np.sum(weight.values * q * q * h2)))
    assert rep.l2 == pytest.approx(np.sqrt(np.sum(q * q * h2)))


def test_relative_errors_basics(case32):
    fine, coarse, perm, weight = case32
    rng = np.random.default_rng(45)
    f = rng.standard_normal(fine.n_cells)
    f -= f.mean()
    ref = solve_fine_reference(perm, f)
    same = relative_errors(ref, ref, perm, weight)
    assert same.e_p == 0.0 and same.e_v == 0.0

    class Zero:
        grid = fine
        v = np.zeros(fine.n_edges)
        p = np.zeros(fine.n_cells)

    err = relative_errors(ref, Zero(), perm, weight)
    assert err.e_p == pytest.approx(1.0) and err.e_v == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        relative_errors(Zero(), ref, perm, weight)


def test_speed_field_on_uniform_flow():
    grid = FineGrid(4, 4)
    perm = PermField(grid, 4.0 * np.ones(grid.n_cells))
    v = np.zeros(grid.n_edges)
    i, j = np.meshgrid(np.arange(5), np.arange(4))
    v[grid.vedge_id(i, j).ravel()] = 3.0  # uniform x-flux
    speed = speed_field(grid, perm, v)
    assert np.allclose(speed, 2.0 * 3.0)


def test_rate_arithmetic():
    assert rate(4e-2, 0.25, 1e-2, 0.125) == pytest.approx(2.0)
    assert rate(1e-1, 0.5, 1e-1, 0.25) == pytest.approx(0.0)


def test_auto_layers_schedule():
    assert auto_layers(1 / 8) == 3
    assert auto_layers(1 / 16) == 4
    assert auto_layers(1 / 32) == 5
    assert auto_layers(1 / 64) == 6
    assert auto_layers(1 / 4) == 2
    assert auto_layers(1 / 16, l0=2, H0=1 / 16) == 2
    assert auto_layers(1.0) == 1  # a single coarse element
    with pytest.raises(ConfigError):
        auto_layers(2.0)
    with pytest.raises(ConfigError):
        auto_layers(1 / 8, H0=1.0)
    with pytest.raises(ConfigError):
        auto_layers(1 / 8, l0=0)
    for l0 in (10 ** 308, 10 ** 400):  # infinite layers, l0 past float range
        with pytest.raises(ConfigError, match="too large"):
            auto_layers(1 / 8, l0=l0, H0=0.5)


def test_decay_study_profile(case32):
    fine, coarse, perm, weight = case32
    aux = build_aux_space(coarse, weight, solve_all_spectra(coarse, perm, weight),
                          nbasis=1)
    e = int(coarse.element_id(3, 3))
    prof = decay_study(aux, perm, e, 0, [1, 2, 3, 10])
    assert prof.element == e and prof.j == 0
    assert np.array_equal(prof.layers, [1, 2, 3, 10])
    assert np.array_equal(prof.saturated, [False, False, False, True])
    assert (np.diff(prof.diff_V[:3]) < 0).all()
    assert prof.diff_V[3] < 1e-9 * prof.norm_glo_V  # full region: no difference
    assert np.allclose(prof.rel_V, prof.diff_V / prof.norm_glo_V)
    assert (prof.diff_a <= prof.diff_V + 1e-15).all()
    # fitted ratio uses only the non-saturated layer counts
    slope = np.polyfit(prof.layers[:3], np.log(prof.diff_V[:3]), 1)[0]
    assert prof.rho == pytest.approx(np.exp(slope))
    assert prof.rho < 1.0
    assert len(prof.fields) == 4 and prof.fields[0].size == fine.n_cells
    assert prof.global_function.flavor == "global"
    assert [fn.layers for fn in prof.functions] == [1, 2, 3, 10]


def test_convergence_study_rows(case32):
    fine, coarse, perm, weight = case32
    rng = np.random.default_rng(46)
    f = rng.standard_normal(fine.n_cells)
    f -= f.mean()
    rows = convergence_study(perm, f, [(1, 4, 2), (1, 8, 3), (2, 8, 3)])
    assert [r.H for r in rows] == [0.25, 0.125, 0.125]
    assert np.isnan(rows[0].rate_p) and np.isnan(rows[0].rate_v)
    assert np.isfinite(rows[1].rate_p) and np.isfinite(rows[1].rate_v)
    # same coarse size in consecutive rows leaves no rate to report
    assert np.isnan(rows[2].rate_p) and np.isnan(rows[2].rate_v)
    assert all(r.seconds >= 0 for r in rows)
    assert rows[2].e_v < rows[1].e_v  # more basis functions help
    ref = solve_fine_reference(perm, f)
    ms, aux, bset, report, _ = solve_case(perm, f, 8, nbasis=1, layers=3)
    direct = relative_errors(ref, ms, perm, weight)
    assert rows[1].e_p == pytest.approx(direct.e_p, rel=1e-9)
    assert rows[1].e_v == pytest.approx(direct.e_v, rel=1e-9)
    with pytest.raises(ConfigError):
        convergence_study(perm, f, [(1, 5, 2)])


def test_solve_case_outputs(case32):
    fine, coarse, perm, weight = case32
    rng = np.random.default_rng(47)
    f = rng.standard_normal(fine.n_cells)
    f -= f.mean()
    ms, aux, bset, report, _ = solve_case(perm, f, 4, nbasis=2, layers=2)
    assert ms.v.size == fine.n_edges and ms.p.size == fine.n_cells
    assert aux.n_columns == 16 * 2 and len(bset) == aux.n_columns
    assert report.div_compat < 1e-9
    assert report.max_residual < 1e-10
    thr, aux_t, _, _, _ = solve_case(perm, f, 4, threshold=aux.spectral_gap,
                                     layers=2)
    assert (aux_t.counts >= 1).all()
    with pytest.raises(ConfigError):
        solve_case(perm, f, 5, nbasis=1)


def _tool_stages():
    """The STAGES tuple of tools/stage_times.py, read without running the tool."""
    tool = Path(__file__).resolve().parent.parent / "tools" / "stage_times.py"
    (value,) = [node.value for node in ast.parse(tool.read_text()).body
                if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "STAGES"]
    return ast.literal_eval(value)


def test_solve_case_times_the_tools_seven_stages(case32):
    """`solve_case`'s record holds the seconds and the high-water raise of
    exactly the seven stages `tools/stage_times.py` reports, in order."""
    fine, coarse, perm, weight = case32
    f = np.random.default_rng(50).standard_normal(fine.n_cells)
    f -= f.mean()
    *_, times = solve_case(perm, f, 4, nbasis=2, layers=2)
    stages = _tool_stages()
    assert len(stages) == 7
    assert tuple(times.seconds) == stages == tuple(times.peak_mb)
    assert all(times.seconds[s] >= 0 and times.peak_mb[s] >= 0 for s in stages)


def test_layer_counts_are_checked_before_any_solve(case32, monkeypatch):
    """A localized flavor's layer count below one is refused before the
    spectra or the fine reference are solved; the global flavor takes none."""
    fine, coarse, perm, weight = case32
    f = np.random.default_rng(48).standard_normal(fine.n_cells)
    f -= f.mean()

    def fail(*args, **kwargs):
        raise AssertionError("solved before the layer counts were checked")
    monkeypatch.setattr("msdarcy.metrics.solve_all_spectra", fail)
    monkeypatch.setattr("msdarcy.metrics.solve_fine_reference", fail)
    for flavor in ("type1", "type2"):
        for layers in (0, None):
            with pytest.raises(ConfigError, match="at least one layer"):
                solve_case(perm, f, 8, nbasis=1, layers=layers, flavor=flavor)
        with pytest.raises(ConfigError, match="at least one layer"):
            convergence_study(perm, f, [(1, 4, 2), (1, 8, 0)], flavor=flavor)
    with pytest.raises(AssertionError, match="solved before"):
        solve_case(perm, f, 8, nbasis=1, layers=0, flavor="global")


def test_flavors_and_counts_are_checked_before_any_solve(case32, monkeypatch):
    """An unknown flavor is refused before the spectra, and so is a
    `solve_case` selection that sets neither or both of nbasis /
    threshold or an nbasis outside 1..r^2. Such a count in any
    convergence case is refused before the fine reference, and a layer
    count below one in a decay study before its elements are condensed
    for the global function."""
    fine, coarse, perm, weight = case32
    f = np.random.default_rng(49).standard_normal(fine.n_cells)
    f -= f.mean()
    aux = build_aux_space(coarse, weight, solve_all_spectra(coarse, perm, weight), nbasis=1)

    def fail(*args, **kwargs):
        raise AssertionError("solved before the arguments were checked")
    monkeypatch.setattr("msdarcy.metrics.solve_all_spectra", fail)
    monkeypatch.setattr("msdarcy.metrics.solve_fine_reference", fail)
    monkeypatch.setattr("msdarcy.metrics.CondensedElements", fail)
    with pytest.raises(ConfigError, match="unknown flavor 'type3'"):
        solve_case(perm, f, 8, nbasis=1, layers=1, flavor="type3")
    with pytest.raises(ConfigError, match="unknown flavor 'type3'"):
        convergence_study(perm, f, [(1, 8, 1)], flavor="type3")
    # 8 x 8 elements of 4 x 4 cells: 16 eigenvalues each
    for nbasis in (0, 17):
        with pytest.raises(ConfigError, match=f"nbasis={nbasis} out of range"):
            convergence_study(perm, f, [(3, 8, 3), (nbasis, 8, 3)])
    for selection in ({}, {"nbasis": 1, "threshold": 1.0}):
        with pytest.raises(ConfigError, match="exactly one of nbasis / threshold"):
            solve_case(perm, f, 8, **selection)
    for nbasis in (0, 99):
        with pytest.raises(ConfigError, match=f"nbasis={nbasis} out of range"):
            solve_case(perm, f, 8, nbasis=nbasis)
    with pytest.raises(ConfigError, match="at least one layer"):
        decay_study(aux, perm, int(coarse.element_id(3, 3)), 0, [1, 2, 0])


def test_decay_study_refuses_an_element_outside_the_grid(case32, monkeypatch):
    """An element id outside 0..n_elements-1, negative ones included, is
    refused before any element is condensed."""
    fine, coarse, perm, weight = case32
    aux = build_aux_space(coarse, weight, solve_all_spectra(coarse, perm, weight), nbasis=1)

    def fail(*args, **kwargs):
        raise AssertionError("condensed before the element was checked")
    monkeypatch.setattr("msdarcy.metrics.CondensedElements", fail)
    for e in (-1, coarse.n_elements, -coarse.n_elements - 1):
        with pytest.raises(ConfigError, match=f"element {e} outside coarse grid"):
            decay_study(aux, perm, e, 0, [1, 2])
