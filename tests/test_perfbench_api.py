"""The library API the benchmark uses: one smoke iteration of each workload
through `perfbench/run.py`, at one worker and at two (the benchmark runs
one per core), so a change that breaks its imports or calls fails here."""

import importlib.util
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workers", [1, 2])
def test_smoke_workloads_pass_the_benchmark_checks(workers):
    run = _load_run()
    for wl in run.SMOKE_WORKLOADS.values():
        inp = run.build_inputs(wl, seed=1)
        sample = run.run_iteration(wl, inp, workers=workers, tr=run.NullTracer())
        assert run.check_sample(sample, inp) == []
        summary = run.summarize(sample)
        assert summary["functions"] == len(sample.basis) > 0
