"""The library API `tools/stage_times.py` uses: one small case through its
`run_case`, so a change that breaks the tool fails here; and one small
interleaved run of two source trees through its command line."""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "stage_times.py"


def _load_tool(monkeypatch):
    # the tool pins the BLAS thread variables at import; keep them local
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    # fresh processes unpickle the tool's functions by module name
    monkeypatch.syspath_prepend(str(TOOL.parent))
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


def test_baseline_interleaves_two_trees(monkeypatch, tmp_path):
    """With --baseline every solve runs in a fresh process from each tree,
    and the checked import path proves which tree it ran; one BENCH file
    per tree, each naming the other."""
    tool = _load_tool(monkeypatch)
    monkeypatch.setattr(tool, "CASES", ((16, 4, 1),))
    baseline = tmp_path / "base"
    shutil.copytree(ROOT / "src" / "msdarcy", baseline / "src" / "msdarcy")
    tool.main(["--label", "change", "--baseline", str(baseline), "--workers", "1",
               "--repeats", "1", "--out", str(tmp_path)])
    records = {label: json.loads((tmp_path / f"BENCH_{label}.json").read_text())
               for label in ("change", "base")}
    assert records["change"]["interleaved_with"] == "base"
    assert records["base"]["interleaved_with"] == "change"
    for record in records.values():
        (run,) = record["runs"]
        (case,) = run["cases"]
        assert (case["nx"], case["Nx"], case["layers"]) == (16, 4, 1)
        assert set(case["seconds"]) == set(tool.STAGES)
        assert run["reference"]["16"]["seconds"] > 0
    # both trees hold the same code here, so they compute the same case
    assert records["change"]["runs"][0]["cases"][0]["e_v"] == \
        records["base"]["runs"][0]["cases"][0]["e_v"]
    assert not (tmp_path / "BENCH_base.json").samefile(tmp_path / "BENCH_change.json")


def test_fresh_refuses_a_solve_from_the_wrong_tree(monkeypatch, tmp_path):
    """A fresh process told a tree without the package imports it from
    elsewhere on its path; that is an error, not a silent measurement."""
    tool = _load_tool(monkeypatch)
    with pytest.raises(RuntimeError, match="imported msdarcy from"):
        tool._fresh(tmp_path, tool.median, [1.0])
