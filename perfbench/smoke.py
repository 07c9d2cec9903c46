"""Smoke test of the benchmark on tiny versions of its workloads.

Usage (from the repository root):

    python3 perfbench/smoke.py

Runs every workload's code path untraced and traced on a 16x16 grid,
checks that each run prints exactly the metrics BENCHMARK.json declares,
feeds each correctness check an output it must reject, and checks that
the benchmark fails without a result when the package sources are
missing. Exits non-zero on the first failure.
"""

import io
import json
import math
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np

import run

ROOT = Path(__file__).resolve().parent.parent


def fail(msg):
    sys.exit(f"smoke: {msg}")


def check_runs(spec):
    declared = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for wl in run.SMOKE_WORKLOADS:
        for trace in (0, 1):
            buf = io.StringIO()
            with redirect_stdout(buf):
                run.main(["--smoke", "--workload", wl, "--seed", "3",
                          "--seconds", "0", "--trace", str(trace)])
            result = json.loads(buf.getvalue().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{wl} trace {trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{wl} trace {trace}: {result}")
            got = result["metrics"]
            if set(got) != declared[trace]:
                fail(f"{wl} trace {trace}: metrics differ from BENCHMARK.json: "
                     f"{sorted(set(got) ^ declared[trace])}")
            for name, m in got.items():
                if m["unit"] != units[name] or not math.isfinite(m["value"]):
                    fail(f"{wl} trace {trace}: bad metric {name} {m}")
            print(f"ok  {wl} trace {trace}: {result['attempted']} iterations")


def check_checks():
    wl = run.SMOKE_WORKLOADS["local-N8"]
    inp = run.build_inputs(wl, 3)
    good = run.run_iteration(wl, inp, 1, run.NullTracer())
    if run.check_sample(good, inp):
        fail(f"good sample rejected: {run.check_sample(good, inp)}")
    v_bad = good.ref.v.copy()
    v_bad[inp.fine.cell_edge_ids(np.array([0]))[1]] += 1e-3
    broken = {
        "element mass residual": replace(good, report=replace(good.report, max_residual=1e-6)),
        "div_compat": replace(good, report=replace(good.report, div_compat=1e-6)),
        "schur_sigma": replace(good, ms=replace(good.ms, schur_sigma=-1.0)),
        "e_v": replace(good, err=replace(good.err, e_v=float("nan"))),
        "e_p": replace(good, err=replace(good.err, e_p=2 * run.ERROR_CAP)),
        "reference cell mass defect": replace(good, ref=replace(good.ref, v=v_bad)),
    }
    for what, sample in broken.items():
        reasons = run.check_sample(sample, inp)
        if len(reasons) != 1 or not reasons[0].startswith(what):
            fail(f"check '{what}' gave {reasons}")
        print(f"ok  check rejects {what}")
    # a raised error counts the iteration as failed, and the loop goes on
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        (outcomes, _), attempted = run.loop(replace(wl, layers=0), inp, 1, 0,
                                            (run.NullTracer(), run.NullTracer()))
    if outcomes or attempted != 2:
        fail(f"raising iterations: {len(outcomes)} outcomes of {attempted}")
    print("ok  raised errors count as failed iterations")


def check_missing_sources():
    iso = run.OUT_DIR / "isolated"
    shutil.rmtree(iso, ignore_errors=True)
    (iso / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", iso)
    for f in ("run.py", "smoke.py"):
        shutil.copy(ROOT / "perfbench" / f, iso / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "local-N8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=iso, capture_output=True, text=True, timeout=120)
    shutil.rmtree(iso)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail(f"run without sources exited {proc.returncode}: {proc.stdout[-200:]}")
    print(f"ok  without sources the benchmark exits {proc.returncode}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if {w["name"] for w in spec["workloads"]} != set(run.WORKLOADS):
        fail("BENCHMARK.json workloads differ from run.WORKLOADS")
    check_runs(spec)
    check_checks()
    check_missing_sources()
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
