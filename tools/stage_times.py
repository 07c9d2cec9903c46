"""Stage times of the multiscale pipeline on the North-star cases.

Usage (from the repository root):

    python3 tools/stage_times.py --label NAME [--workers 1 2] [--repeats 3]
                                 [--baseline DIR]

Solves the five North-star cases (fine/coarse/layers 64/8/3, 64/32/2,
128/8/3, 128/16/4, 128/32/5) on the preset three-channel medium at
contrast 1e4 with the corner source and three eigenvectors per element,
once per repeat and worker count. Each case is one `msdarcy.solve_case`,
whose record times its seven stages: weight, spectra, aux space, basis,
coarse assembly, coarse solve and post-processing (mass residuals, and
here the errors against the fine reference). The fine reference is
solved once per fine grid and repeat, timed apart by the same clock.
Every solve of a case, and every reference solve, runs in a fresh
process, so what one leaves allocated does not hide another's memory.

With `--baseline DIR` (another checkout, such as the parent commit) every
fresh-process solve runs twice per repeat, once importing the package
from `DIR/src` and once from this tree, and the tree that goes first
alternates from one solve to the next. So both trees meet the machine's
slow and fast spells alike, and their files can be compared. The
baseline tree's `solve_case` must return that record as its fifth value.

Writes `BENCH_<label>.json` (into `--out`, default the repository root):
the median over repeats of every stage's seconds, of the total and of
how much each stage raised its process's resident high-water mark
(`ru_maxrss`), per case and worker count, with their first and third
quartiles (`quartiles`) and every repeat's value (`samples`), so that a
pair of files can be compared run by run; the MiB the returned basis
set's arrays hold (`basis_mb`), plus the worker counts, the core count,
the BLAS thread count and the numpy and scipy versions. A stage's raise counts
only its growth above every earlier stage's peak. BLAS is pinned to one
thread, so `workers` is the number of busy threads. With `--baseline` the
baseline's results go to `BENCH_<name of DIR>.json` beside them. Each
case's summary line gives its stage seconds and the MiB its coarse
solve raised the high-water mark by (`coarse_solve_mb`).
"""

import os

# Must precede the first numpy import: OpenBLAS reads these at load time.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import dataclasses
import json
import platform
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the source tree to import the package from: this checkout's, unless a
# fresh process of a --baseline run is told another
SRC_VARIABLE = "STAGE_TIMES_SRC"
sys.path.insert(0, os.environ.get(SRC_VARIABLE) or str(ROOT / "src"))

import numpy as np
import scipy
import scipy.sparse

from msdarcy import (StageTimes, build_grids, corner_source, generate_medium,
                     relative_errors, solve_case, solve_fine_reference,
                     three_channel_spec)

CASES = ((64, 8, 3), (64, 32, 2), (128, 8, 3), (128, 16, 4), (128, 32, 5))
CONTRAST = 1e4
NBASIS = 3
SOURCE_GRID = 8
STAGES = ("weight", "spectra", "aux", "basis", "assembly", "coarse_solve", "post")


def basis_mb(basis):
    """MiB held by a basis set's arrays: every column stack it holds (the
    sparse fields, however many a tree's `BasisSet` has), and its other
    array fields, such as the energies, columns and elements."""
    arrays = []
    for field in dataclasses.fields(basis):
        value = getattr(basis, field.name)
        if scipy.sparse.issparse(value):
            arrays += [value.data, value.indices, value.indptr]
        elif isinstance(value, np.ndarray):
            arrays.append(value)
    return sum(a.nbytes for a in arrays) / 2 ** 20


def median(values):
    return float(statistics.median(values))


def _in_tree(fn, *args):
    """fn(*args), and the source tree this process imported msdarcy from."""
    import msdarcy
    return Path(msdarcy.__file__).resolve().parents[1], fn(*args)


def _fresh(src, fn, *args):
    """fn(*args) in a new interpreter that imports msdarcy from the source
    tree `src`, and whose high-water mark starts from its imports alone."""
    before = os.environ.get(SRC_VARIABLE)
    os.environ[SRC_VARIABLE] = str(src)
    try:
        with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
            tree, result = pool.submit(_in_tree, fn, *args).result()
    finally:
        if before is None:
            del os.environ[SRC_VARIABLE]
        else:
            os.environ[SRC_VARIABLE] = before
    if tree != Path(src).resolve():
        raise RuntimeError(f"a solve meant for {src} imported msdarcy from {tree}")
    return result


def _inputs(nx):
    fine, _ = build_grids(nx, 1)
    return (generate_medium(three_channel_spec(contrast=CONTRAST), fine),
            corner_source(fine, SOURCE_GRID))


def _reference(nx):
    """The fine reference of grid nx: (seconds, peaks, solution)."""
    perm, f = _inputs(nx)
    times = StageTimes()
    with times.stage("reference"):
        ref = solve_fine_reference(perm, f)
    return times.seconds, times.peak_mb, ref


def _case(case, workers, ref):
    """One `solve_case` of case (nx, Nx, layers), its errors against the
    fine reference `ref` timed into `post`: (seconds, peaks, result)."""
    nx, Nx, layers = case
    perm, f = _inputs(nx)
    ms, aux, basis, report, times = solve_case(perm, f, Nx, nbasis=NBASIS, layers=layers,
                                               workers=workers)
    with times.stage("post"):
        err = relative_errors(ref, ms, perm, aux.weight)
    return times.seconds, times.peak_mb, {
        "functions": len(basis), "basis_mb": basis_mb(basis), "e_v": err.e_v,
        "e_p": err.e_p, "max_mass_residual": float(report.max_residual)}


def measure(workers, repeats, sources):
    """Per source tree and case: stage seconds and peaks of `repeats`
    solves, each in a fresh process, with their medians and quartiles. Every solve runs once from
    each tree in `sources`, and the tree that goes first alternates from
    one solve to the next. Returns one record per tree."""
    runs = [{case: [] for case in CASES} for _ in sources]
    references = [{} for _ in sources]
    turn = 0
    for _ in range(repeats):
        for nx in sorted({c[0] for c in CASES}):
            refs = [None] * len(sources)
            for t in _order(len(sources), turn):
                seconds, peak_mb, refs[t] = _fresh(sources[t], _reference, nx)
                references[t].setdefault(nx, []).append((seconds, peak_mb))
            turn += 1
            for case in CASES:
                if case[0] == nx:
                    for t in _order(len(sources), turn):
                        runs[t][case].append(_fresh(sources[t], _case, case, workers, refs[t]))
                    turn += 1
    return [_summary(workers, r, refs) for r, refs in zip(runs, references)]


def _order(n, turn):
    """The trees in the order of this turn: forwards on even turns."""
    return range(n) if turn % 2 == 0 else range(n - 1, -1, -1)


def quartiles(values):
    """The first and third quartiles (numpy's linear percentiles 25, 75)."""
    return [float(q) for q in np.percentile(values, [25, 75])]


def _statistics(samples):
    """Every repeat's value of each metric in `samples` (name -> list, or
    name -> stage -> list), with their medians and quartiles: the median
    record has the shape of `samples`, and `quartiles` and `samples`
    beside it hold the same names."""
    def each(fn, tree):
        return {k: each(fn, v) if isinstance(v, dict) else fn(v) for k, v in tree.items()}
    return {**each(median, samples), "quartiles": each(quartiles, samples),
            "samples": samples}


def _summary(workers, runs, references):
    """Medians, quartiles and every sample of one tree."""
    cases = []
    for (nx, Nx, layers), samples in runs.items():
        cases.append({
            "nx": nx, "Nx": Nx, "layers": layers, **samples[-1][2],
            **_statistics({
                "total_s": [sum(sec.values()) for sec, _, _ in samples],
                "seconds": {s: [sec[s] for sec, _, _ in samples] for s in STAGES},
                "peak_mb": {s: [mb[s] for _, mb, _ in samples] for s in STAGES}})})
    reference = {str(nx): _statistics({"seconds": [sec["reference"] for sec, _ in cl],
                                       "peak_mb": [mb["reference"] for _, mb in cl]})
                 for nx, cl in references.items()}
    return {"workers": workers, "cases": cases, "reference": reference}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    p.add_argument("--workers", type=int, nargs="+", default=None,
                   help="worker counts to run (default: 1 and the core count)")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--out", type=Path, default=ROOT)
    p.add_argument("--baseline", type=Path, default=None,
                   help="a checkout to time alongside this one, solve by solve")
    args = p.parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    workers = args.workers or sorted({1, nproc})
    if args.repeats < 1 or min(workers) < 1:
        p.error("--repeats and --workers must be at least 1")
    labels, sources = [args.label], [ROOT / "src"]
    if args.baseline is not None:
        if not (args.baseline / "src" / "msdarcy").is_dir():
            p.error(f"--baseline: no package sources under {args.baseline / 'src'}")
        if args.baseline.resolve().name == args.label:
            p.error("--baseline: the baseline's directory name is the label")
        labels.append(args.baseline.resolve().name)
        sources.append(args.baseline / "src")
    runs = [measure(w, args.repeats, sources) for w in workers]
    for t, (label, src) in enumerate(zip(labels, sources)):
        record = {
            "label": label, "nproc": nproc, "blas_threads": BLAS_THREADS,
            "numpy": np.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(), "repeats": args.repeats,
            "medium": f"three_channel_spec(contrast={CONTRAST:g})",
            "source": f"corners, grid {SOURCE_GRID}", "nbasis": NBASIS,
            "statistic": "median over repeats, each solve in a fresh process, with "
                         "the first and third quartiles (`quartiles`) and every "
                         "repeat's value in solve order (`samples`); peak_mb is how "
                         "much the stage raised the process's resident high-water "
                         "mark (ru_maxrss)",
            "runs": [per_tree[t] for per_tree in runs]}
        if len(sources) > 1:
            record["interleaved_with"] = labels[1 - t]
        path = args.out / f"BENCH_{label}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        for run in record["runs"]:
            for case in run["cases"]:
                stages = " ".join(f"{s}={case['seconds'][s]:.2f}" for s in STAGES)
                print(f"{label} workers={run['workers']} "
                      f"{case['nx']}/{case['Nx']}/L{case['layers']}: "
                      f"{stages} total={case['total_s']:.2f} "
                      f"coarse_solve_mb={case['peak_mb']['coarse_solve']:.1f}")
        print(path)


if __name__ == "__main__":
    main()
