"""The library API `tools/stage_times.py` uses: one small case through its
`run_case`, so a change that breaks the tool fails here."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "stage_times.py"


def _load_tool(monkeypatch):
    # the tool pins the BLAS thread variables at import; keep them local
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("stage_times", TOOL)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_run_case_times_every_stage(monkeypatch):
    tool = _load_tool(monkeypatch)
    fine, _ = tool.build_grids(16, 1)
    perm = tool.generate_medium(tool.three_channel_spec(contrast=tool.CONTRAST), fine)
    f = tool.corner_source(fine)
    ref = tool.solve_fine_reference(perm, f)
    clock, result = tool.run_case(perm, f, ref, Nx=4, layers=1, workers=1)
    assert len(tool.STAGES) == 7
    assert set(clock.seconds) == set(tool.STAGES) == set(clock.peak_mb)
    assert all(clock.seconds[s] >= 0 for s in tool.STAGES)
    assert result["functions"] == 16 * tool.NBASIS
    assert 0 < result["basis_mb"] < 1
    assert result["max_mass_residual"] <= 1e-10
    assert 0 < result["e_v"] < 1 and 0 < result["e_p"] < 1
