"""The library API `tools/stage_times.py` uses: one small case through its
`_case`, so a change that breaks the tool fails here; that the tool runs
no stage of the pipeline itself; one small interleaved run of two source
trees through its command line; and the medians, quartiles and
per-repeat samples its BENCH records hold."""

import ast
import importlib.util
import json
import shutil
import statistics
import sys
from pathlib import Path

import numpy as np
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


def test_case_times_every_stage(monkeypatch):
    tool = _load_tool(monkeypatch)
    _, _, ref = tool._reference(16)
    seconds, peak_mb, result = tool._case((16, 4, 1), 1, ref)
    assert len(tool.STAGES) == 7
    assert set(seconds) == set(tool.STAGES) == set(peak_mb)
    assert all(seconds[s] >= 0 for s in tool.STAGES)
    assert result["functions"] == 16 * tool.NBASIS
    assert 0 < result["basis_mb"] < 1
    assert result["max_mass_residual"] <= 1e-10
    assert 0 < result["e_v"] < 1 and 0 < result["e_p"] < 1


def test_tool_runs_no_stage_of_its_own():
    """The tool times the chain `solve_case` runs and writes none of its
    own: it calls none of the stages' functions, and defines no
    `run_case` and no clock class."""
    tree = ast.parse(TOOL.read_text())
    called = {node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    stages = {"build_aux_space", "build_basis_set", "assemble_coarse_system",
              "solve_multiscale", "compute_weight", "solve_all_spectra", "mass_residuals"}
    assert "solve_case" in called
    assert not called & stages
    assert "run_case" not in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert not any(isinstance(node, ast.ClassDef) for node in tree.body)


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
        # one repeat: one sample per metric, which is its own median
        assert case["samples"]["total_s"] == [case["total_s"]]
        assert all(case["samples"]["seconds"][s] == [case["seconds"][s]] for s in tool.STAGES)
        assert run["reference"]["16"]["samples"]["seconds"] == [run["reference"]["16"]["seconds"]]
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


def test_summary_keeps_every_sample_beside_its_median(monkeypatch):
    """Each median and quartile pair of a BENCH record is that of the
    samples stored beside it, one per repeat, in solve order."""
    tool = _load_tool(monkeypatch)
    case = (16, 4, 1)
    repeats = [({s: 0.1 * (k + 1) + i for i, s in enumerate(tool.STAGES)},
                {s: 10.0 * k - i for i, s in enumerate(tool.STAGES)}, {"functions": 48})
               for k in (4, 0, 2, 1, 3)]
    references = {16: [({"reference": 0.5 * k}, {"reference": float(k)}) for k in (2, 0, 1)]}
    summary = tool._summary(1, {case: repeats}, references)
    (record,) = summary["cases"]
    assert record["functions"] == 48
    totals = [sum(sec.values()) for sec, _, _ in repeats]
    assert record["samples"]["total_s"] == totals
    assert record["total_s"] == statistics.median(totals)
    assert record["quartiles"]["total_s"] == list(np.percentile(totals, [25, 75]))
    for key, at in (("seconds", 0), ("peak_mb", 1)):
        for s in tool.STAGES:
            values = record["samples"][key][s]
            assert values == [sample[at][s] for sample in repeats]
            assert len(values) == len(repeats)
            assert record[key][s] == statistics.median(values)
            q1, q3 = record["quartiles"][key][s]
            assert q1 <= record[key][s] <= q3
    reference = summary["reference"]["16"]
    assert reference["samples"] == {"seconds": [1.0, 0.0, 0.5], "peak_mb": [2.0, 0.0, 1.0]}
    assert (reference["seconds"], reference["peak_mb"]) == (0.5, 1.0)
    assert reference["quartiles"] == {"seconds": [0.25, 0.75], "peak_mb": [0.5, 1.5]}
