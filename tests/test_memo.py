"""Index tables memoized per grid: a solve gives the same bits with warm
and with empty memos, the memoized arrays are read-only, and the memory
guard of the fine band still refuses a grid whose tables are memoized."""

import os

import numpy as np
import pytest

from msdarcy import (PermField, build_grids, corner_source, generate_medium,
                     solve_case, solve_fine_reference, three_channel_spec)
from msdarcy import auxspace, basis, cli, coarse, fem, medium, mesh, metrics
from msdarcy.auxspace import element_lines
from msdarcy.basis import _template
from msdarcy.errors import ConfigError
from msdarcy.fem import _macro_layout, _macro_tables
from msdarcy.mesh import element_layout

MEMOS = (element_layout, element_lines, _macro_layout, _macro_tables, _template)


def _clear():
    for memo in MEMOS:
        memo.cache_clear()


def _outputs(perm, f, Nx, flavor):
    """The bytes of every array a fine reference and a multiscale solve
    return: the reference's v and p, the auxiliary eigenvectors, the basis
    stacks and energies, and the coarse and expanded solutions."""
    ref = solve_fine_reference(perm, f)
    ms, aux, bset, report, _ = solve_case(perm, f, Nx, nbasis=2, layers=1, flavor=flavor)
    arrays = [ref.v, ref.p, aux.pressures, bset.energies, ms.coeff_v, ms.coeff_p, ms.v, ms.p,
              report.element_residuals]
    for stack in (bset.matrix, bset.divergence, bset.traces):
        arrays += [stack.data, stack.indices, stack.indptr]
    return [a.tobytes() for a in arrays] + [ms.schur_sigma]


def test_every_memo_is_listed():
    found = {obj for module in (auxspace, basis, cli, coarse, fem, medium, mesh, metrics)
             for obj in vars(module).values() if hasattr(obj, "cache_clear")}
    assert found == set(MEMOS)


def test_solves_are_bit_identical_with_warm_and_empty_memos():
    """kappa_1, then kappa_2 on the same grids, then the other flavor: each
    solve, made with the memos its predecessors filled, gives the bits of
    the same solve made after every memo was cleared."""
    fine, _ = build_grids(32, 1)
    kappa_1 = generate_medium(three_channel_spec(contrast=1e4), fine)
    rng = np.random.default_rng(5)
    kappa_2 = PermField.from_raw(fine, np.exp(rng.uniform(0, np.log(1e6), fine.n_cells)))
    f = corner_source(fine)
    cases = [(kappa_1, f, 4, "type2"), (kappa_2, f, 4, "type2"), (kappa_2, f, 4, "type1")]
    _clear()
    warm, sizes = [], []
    for case in cases:
        warm.append(_outputs(*case))
        sizes.append([memo.cache_info().currsize for memo in MEMOS])
    # the second permeability reuses every table the first one built
    assert sizes[0] == sizes[1] and all(sizes[0])
    assert _template.cache_info().hits > 0
    for case, got in zip(cases, warm):
        _clear()
        assert _outputs(*case) == got


def _arrays(value, seen=None):
    """Every numpy array reachable from a memo's value through tuples and
    object attributes."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return []
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        items = value
    elif hasattr(value, "__dict__"):
        items = vars(value).values()
    else:
        return []
    return [a for item in items for a in _arrays(item, seen)]


def test_memoized_arrays_are_read_only():
    fine, coarse = build_grids(16, 4)
    values = {"element_layout": element_layout(coarse),
              "element_lines": element_lines(coarse),
              "_macro_layout": _macro_layout(fine), "_macro_tables": _macro_tables(fine),
              "_template": _template(coarse, (2, 2), 2)}
    for name, value in values.items():
        arrays = _arrays(value)
        assert arrays, name
        for a in arrays:
            assert not a.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
            with pytest.raises(ValueError, match="read-only"):
                a.view()[...] = 0


@pytest.mark.parametrize("memo_first", [False, True], ids=["guard-first", "memo-first"])
def test_memory_guard_refuses_a_memoized_grid(monkeypatch, memo_first):
    """The guard runs on every solve, before the tables that grow with the
    band are built: with the memos empty, it leaves them unbuilt, and once
    they are memoized it still refuses."""
    grid, _ = build_grids(8, 1)
    perm = PermField.from_raw(grid, np.exp(np.random.default_rng(40).uniform(0, 3, 64)))
    f = np.random.default_rng(41).standard_normal(grid.n_cells)
    f -= f.mean()
    need = 8 * 48 * 16 + 8 * 41 * 208
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": need}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    _clear()
    if memo_first:
        solve_fine_reference(perm, f)
        assert _macro_tables.cache_info().currsize == 1
    pages["SC_PHYS_PAGES"] = need - 1
    with pytest.raises(ConfigError, match="band of 48 multipliers at half-width 15"):
        solve_fine_reference(perm, f)
    assert _macro_tables.cache_info().currsize == int(memo_first)
    pages["SC_PHYS_PAGES"] = need
    first = solve_fine_reference(perm, f)
    pages["SC_PHYS_PAGES"] = need - 1
    with pytest.raises(ConfigError, match="band of 48 multipliers at half-width 15"):
        solve_fine_reference(perm, f)
    pages["SC_PHYS_PAGES"] = need
    assert np.array_equal(solve_fine_reference(perm, f).v, first.v)
