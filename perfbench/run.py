"""msdarcy benchmark: time to a mass-conservative multiscale solution.

Usage (from the repository root):

    python3 perfbench/run.py --workload local-N8 --seed 1 --seconds 35 --trace 0

One process, closed loop: each iteration solves the workload's inputs
once through the library pipeline (the chain `msdarcy.solve_case` runs),
then solves the fine reference and compares the two, and only then
starts the next iteration. Iterations repeat until `--seconds` have
passed (at least one runs). Every iteration's outputs are checked; a
raised error or a failed check counts the iteration as failed and prints
the reason.

With `--trace 0` the last stdout line is a JSON object with the
end-to-end metrics (medians over iterations). With `--trace 1` traced and
untraced iterations alternate for `--seconds`; traced ones record one
span per library call, and the run reports per-layer self times,
counters, peak memory per layer and the tracing overhead. Spans and the
run's environment are written to `perfbench/out/`.

Set-up time (`setup_s`) is measured in fresh processes that only import
the package and build the inputs (`--setup-only`); the median of several
is reported.

BLAS libraries are pinned to one thread each, so that at the default
`--workers` (= available cores) the busy threads never exceed the cores;
`--workers 1` is then the single-threaded baseline.
"""

import os

# Must precede the first numpy import: OpenBLAS reads these at load time.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import threading
import traceback
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "msdarcy").is_dir():
    sys.exit(f"perfbench: no package sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np
import scipy

from msdarcy import (assemble_coarse_system, bilinear_pou, build_aux_space,
                     build_basis_set, build_grids, compute_weight,
                     generate_medium, mass_residuals, relative_errors,
                     sample_spec, solve_all_spectra, solve_fine_reference,
                     solve_multiscale)
from msdarcy.fem import divergence_matrix, velocity_dofmap
from msdarcy.mesh import full_domain

OUT_DIR = ROOT / "perfbench" / "out"
NBASIS = 3
SOURCE_GRID = 8
# The layout (channel and inclusion positions) is fixed per workload; the
# seed draws each shape's contrast. Errors against the reference depend
# strongly on where the channels run and hardly on their contrast, so the
# seed changes the inputs without moving e_v / e_p between runs.
LAYOUT_SEED = 0
CONTRAST_DECADES = 1.0
# Set-up is timed in fresh processes, half before and half after the
# measured loop, so that a slow spell of the machine skews fewer of them.
SETUP_REPEATS = 6
# The fine reference is cheap next to the multiscale solve. A single
# solve is short enough to fall wholly in a fast or a slow spell of the
# machine, and the machine's speed swings between two levels, so a median
# over single solves or small batches jumps between them. Each iteration
# therefore gives one reference sample, its time per solve over
# 2 * REFERENCE_BATCH solves: half before the multiscale solve, half after.
REFERENCE_BATCH = 4

# Checks that hold for every seed. The tolerances of the mass and
# divergence checks are those of acceptance criterion 9.
MASS_TOL = 1e-10
DIV_COMPAT_TOL = 1e-10
ERROR_CAP = 0.5
REFERENCE_MASS_RTOL = 1e-10


@dataclass(frozen=True)
class Workload:
    name: str
    nx: int
    Nx: int
    layers: int
    flavor: str
    contrast: float


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w for w in (
        Workload("local-N8", 64, 8, 3, "type2", 1e4),
        Workload("local-N32", 64, 32, 2, "type2", 1e4),
    )
}
# Tiny versions of the same code paths, for perfbench/smoke.py.
SMOKE_WORKLOADS = {
    "local-N8": replace(WORKLOADS["local-N8"], nx=16, Nx=4, layers=1),
    "local-N32": replace(WORKLOADS["local-N32"], nx=16, Nx=8, layers=1),
}


# ---------------------------------------------------------------- tracing

def _rss_bytes():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _maxrss_bytes():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class NullTracer:
    """Calls through without recording anything."""

    iteration = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    @contextmanager
    def span(self, name):
        yield

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer(NullTracer):
    """One span per call (name, start, end, parent), kept in memory.

    Spans are opened from the benchmark's thread only. While the tracer
    is entered, a thread samples resident memory every few milliseconds,
    so each span can report the peak it saw. The sampler cannot run while
    a native call holds the interpreter lock, so spans also record the
    process's peak (`ru_maxrss`), which catches any new peak they set.
    """

    def __init__(self, sample_interval=0.01):
        self.spans = []
        self.rss = []
        self._stack = []
        self._interval = sample_interval
        self._stop = None
        self._thread = None

    def __enter__(self):
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _sample(self):
        while not self._stop.wait(self._interval):
            self.rss.append((perf_counter(), _rss_bytes()))

    @contextmanager
    def span(self, name):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "iteration": self.iteration, "start": perf_counter(),
               "end": None, "rss_start": _rss_bytes(), "rss_end": None,
               "maxrss_start": _maxrss_bytes(), "maxrss_end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = perf_counter()
            rec["rss_end"] = _rss_bytes()
            rec["maxrss_end"] = _maxrss_bytes()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


def self_times(spans):
    """Span id -> duration minus the time covered by its child spans."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def peak_rss(tracer, names):
    """Peak resident bytes seen while any span named in `names` was open."""
    peak = 0
    for s in tracer.spans:
        if s["name"] in names:
            inside = [b for t, b in tracer.rss if s["start"] <= t <= s["end"]]
            if s["maxrss_end"] > s["maxrss_start"]:
                inside.append(s["maxrss_end"])
            peak = max(peak, s["rss_start"], s["rss_end"], *inside)
    return peak


# ------------------------------------------------------------------ inputs

@dataclass(frozen=True)
class Inputs:
    fine: object
    coarse: object
    perm: object
    f: np.ndarray


def corner_source(fine):
    """Unit source in the top-left block of a SOURCE_GRID partition, unit
    sink in the bottom-right one (the CLI's `corners` source)."""
    g, nx = SOURCE_GRID, fine.nx
    b = nx // g
    f = np.zeros((nx, nx))
    f[(g - 1) * b:, :b] = 1.0
    f[:b, (g - 1) * b:] = -1.0
    return f.ravel()


def build_inputs(wl, seed, tr=NullTracer()):
    with tr.span("setup"):
        fine, coarse = tr.call("mesh.build_grids", build_grids, wl.nx, wl.Nx)
        spec = tr.call(
            "medium.sample_spec", sample_spec, wl.nx, n_horizontal=1,
            n_vertical=1, n_inclusions=4, contrast_lo=wl.contrast,
            contrast_hi=wl.contrast, seed=LAYOUT_SEED, coarse_n=wl.Nx,
            max_channels_per_element=2)
        rng = np.random.default_rng(seed)
        lo = math.log(wl.contrast) - CONTRAST_DECADES * math.log(10.0)

        def draw():
            return float(np.exp(rng.uniform(lo, math.log(wl.contrast))))

        spec = replace(spec,
                       strips=tuple(replace(s, multiplier=draw()) for s in spec.strips),
                       blocks=tuple(replace(b, multiplier=draw()) for b in spec.blocks))
        perm = tr.call("medium.generate_medium", generate_medium, spec, fine)
        f = tr.call("source.corners", corner_source, fine)
    return Inputs(fine, coarse, perm, f)


def time_setup(wl_name, seed, smoke):
    """Seconds from starting a fresh interpreter to inputs ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", wl_name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line != "ready":
        raise RuntimeError(f"set-up process exited {code} after {line!r}")
    return elapsed


# ---------------------------------------------------------------- pipeline

@dataclass
class Sample:
    solve_s: float
    reference_s: float
    aux: object
    basis: object
    system: object
    ms: object
    report: object
    ref: object
    err: object


def run_iteration(wl, inp, workers, tr):
    """One closed-loop iteration: multiscale solve, reference, errors.

    The reference is timed in two batches, one before the multiscale
    solve and one after it, so its sample spans the whole iteration.
    """
    reference_total = 0.0

    def reference():
        nonlocal reference_total
        t0 = perf_counter()
        for _ in range(REFERENCE_BATCH):
            ref = tr.call("fem.solve_fine_reference", solve_fine_reference,
                          inp.perm, inp.f)
        reference_total += perf_counter() - t0
        return ref

    reference()
    t0 = perf_counter()
    with tr.span("solve"):
        pou = tr.call("mesh.bilinear_pou", bilinear_pou, inp.coarse)
        weight = tr.call("medium.compute_weight", compute_weight, inp.perm, pou)
        spectra = tr.call("auxspace.solve_all_spectra", solve_all_spectra,
                          inp.coarse, inp.perm, weight, workers=workers)
        aux = tr.call("auxspace.build_aux_space", build_aux_space,
                      inp.coarse, weight, spectra, nbasis=NBASIS)
        basis = tr.call("basis.build_basis_set", build_basis_set, aux, inp.perm,
                        layers=wl.layers, flavor=wl.flavor, workers=workers)
        system = tr.call("coarse.assemble_coarse_system", assemble_coarse_system,
                         basis, inp.perm, inp.f)
        ms = tr.call("coarse.solve_multiscale", solve_multiscale, system)
        report = tr.call("coarse.mass_residuals", mass_residuals, ms, inp.f, aux)
    solve_s = perf_counter() - t0
    ref = reference()
    err = tr.call("metrics.relative_errors", relative_errors, ref, ms, inp.perm, aux.weight)
    reference_s = reference_total / (2 * REFERENCE_BATCH)
    return Sample(solve_s, reference_s, aux, basis, system, ms, report, ref, err)


def check_sample(s, inp):
    """Reasons the outputs are wrong; empty when every check passes."""
    reasons = []
    if not s.report.max_residual <= MASS_TOL:
        reasons.append(f"element mass residual {s.report.max_residual:.3e} > {MASS_TOL:g}")
    if not s.report.div_compat <= DIV_COMPAT_TOL:
        reasons.append(f"div_compat {s.report.div_compat:.3e} > {DIV_COMPAT_TOL:g}")
    if not s.ms.schur_sigma > 0:
        reasons.append(f"schur_sigma {s.ms.schur_sigma:.3e} not positive")
    for name in ("e_v", "e_p"):
        e = getattr(s.err, name)
        if not (math.isfinite(e) and e < ERROR_CAP):
            reasons.append(f"{name} {e!r} not finite or above cap {ERROR_CAP:g}")
    h2 = inp.fine.h ** 2
    cell_defect = np.abs(divergence_matrix(inp.fine) @ s.ref.v - h2 * inp.f)
    tol = REFERENCE_MASS_RTOL * h2 * np.abs(inp.f).sum()
    if not cell_defect.max() <= tol:
        reasons.append(f"reference cell mass defect {cell_defect.max():.3e} > {tol:.3e}")
    return reasons


def summarize(s):
    """The scalars a run reports from one iteration. Only these outlive
    the iteration, so memory does not grow with the iteration count."""
    first_of_element = {}
    for fn in s.basis:
        first_of_element.setdefault(fn.element, fn)
    grid = s.aux.coarse.fine
    return {
        "solve_s": s.solve_s, "reference_s": s.reference_s,
        "e_v": s.err.e_v, "e_p": s.err.e_p,
        "reference_unknowns": velocity_dofmap(full_domain(grid)).n_dofs + grid.n_cells,
        "elements": len(s.aux.counts), "columns": s.aux.n_columns,
        "functions": len(s.basis),
        "region_unknowns": sum(fn.edges.size + fn.cells.size
                               for fn in first_of_element.values()),
        "psi_nnz": s.basis.matrix.nnz,
        "coarse_unknowns": s.system.A_c.shape[0] + s.system.B_c.shape[0],
        "dense_bytes": 8 * (s.system.A_c.size + s.system.B_c.size),
        "schur_sigma": s.ms.schur_sigma,
        "mass_residual_max": s.report.max_residual,
        "div_compat": s.report.div_compat,
    }


def loop(wl, inp, workers, seconds, tracers):
    """Iterate until `seconds` pass, in whole rounds of one iteration per
    tracer (at least one round; every other round runs them in reverse,
    so drift in machine speed hits each tracer alike). Returns, per
    tracer, the summaries of its successful iterations, and the number
    of iterations attempted."""
    outcomes = [[] for _ in tracers]
    attempted = 0
    start = perf_counter()
    while attempted == 0 or perf_counter() - start < seconds:
        order = list(enumerate(tracers))
        if attempted // len(tracers) % 2:
            order.reverse()
        for i, tr in order:
            tr.iteration = attempted
            attempted += 1
            try:
                with tr:
                    s = run_iteration(wl, inp, workers, tr)
            except Exception:
                print(f"FAIL iteration {attempted}: raised", flush=True)
                traceback.print_exc()
                continue
            reasons = check_sample(s, inp)
            for r in reasons:
                print(f"FAIL iteration {attempted}: {r}", flush=True)
            if not reasons:
                outcomes[i].append(summarize(s))
            print(f"iteration {attempted}: solve_s={s.solve_s:.4f} "
                  f"reference_s={s.reference_s:.4f} "
                  f"e_v={s.err.e_v:.6g} e_p={s.err.e_p:.6g}", flush=True)
            del s
    return outcomes, attempted


# ----------------------------------------------------------------- metrics

def metric(value, unit):
    return {"value": float(value), "unit": unit}


def median_of(outcomes, key):
    return statistics.median(o[key] for o in outcomes)


def end_to_end(outcomes, attempted, setup):
    out = {}
    if outcomes:
        for key in ("solve_s", "reference_s"):
            out[key] = metric(median_of(outcomes, key), "s")
        for key in ("e_v", "e_p"):
            out[key] = metric(median_of(outcomes, key), "1")
    out["setup_s"] = metric(statistics.median(setup), "s")
    out["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    out["pass_ratio"] = metric(len(outcomes) / attempted, "1")
    return out


# Per-layer times: metric name -> span names whose self times add up.
LAYER_TIMES = {
    "medium.generate_s": ("medium.sample_spec", "medium.generate_medium"),
    "medium.weight_s": ("mesh.bilinear_pou", "medium.compute_weight"),
    "auxspace.spectra_s": ("auxspace.solve_all_spectra",),
    "auxspace.select_s": ("auxspace.build_aux_space",),
    "basis.build_s": ("basis.build_basis_set",),
    "coarse.assemble_s": ("coarse.assemble_coarse_system",),
    "coarse.solve_multiscale_s": ("coarse.solve_multiscale",),
    "coarse.mass_s": ("coarse.mass_residuals",),
    "metrics.errors_s": ("metrics.relative_errors",),
}
# Per-layer counts: metric name -> (summary key, unit).
LAYER_COUNTS = {
    "fem.reference_unknowns": ("reference_unknowns", "count"),
    "auxspace.elements": ("elements", "count"),
    "auxspace.columns": ("columns", "count"),
    "basis.functions": ("functions", "count"),
    "basis.region_unknowns": ("region_unknowns", "count"),
    "basis.psi_nnz": ("psi_nnz", "count"),
    "coarse.unknowns": ("coarse_unknowns", "count"),
    "coarse.dense_bytes": ("dense_bytes", "B"),
    "coarse.schur_sigma": ("schur_sigma", "1"),
}
# Per-layer peak memory: metric name -> spans it is taken over.
LAYER_RSS = {
    "fem.reference_rss_mb": ("fem.solve_fine_reference",),
    "basis.rss_mb": ("basis.build_basis_set",),
    "coarse.rss_mb": ("coarse.assemble_coarse_system", "coarse.solve_multiscale",
                      "coarse.mass_residuals"),
}


def per_layer(tracer, traced, untraced):
    own = self_times(tracer.spans)

    def layer_time(names):
        # sum per iteration (set-up spans have iteration None), median over them
        per_it = {}
        for s in tracer.spans:
            if s["name"] in names:
                per_it[s["iteration"]] = per_it.get(s["iteration"], 0.0) + own[s["id"]]
        return statistics.median(per_it.values())

    out = {name: metric(layer_time(spans), "s") for name, spans in LAYER_TIMES.items()}
    last = traced[-1]
    out.update({name: metric(last[key], unit) for name, (key, unit) in LAYER_COUNTS.items()})
    out.update({name: metric(peak_rss(tracer, spans) / 1024.0 ** 2, "MiB")
                for name, spans in LAYER_RSS.items()})
    out["auxspace.elements_per_s"] = metric(
        last["elements"] / out["auxspace.spectra_s"]["value"], "1/s")
    out["basis.functions_per_s"] = metric(
        last["functions"] / out["basis.build_s"]["value"], "1/s")
    out["coarse.mass_residual_max"] = metric(
        max(o["mass_residual_max"] for o in traced), "1")
    out["coarse.div_compat"] = metric(max(o["div_compat"] for o in traced), "1")
    traced_solve = median_of(traced, "solve_s")
    untraced_solve = median_of(untraced, "solve_s")
    out["trace.solve_s"] = metric(traced_solve, "s")
    out["trace.untraced_solve_s"] = metric(untraced_solve, "s")
    out["trace.overhead_s"] = metric(traced_solve - untraced_solve, "s")
    # time inside the solve span that no library call covers
    out["trace.glue_s"] = metric(statistics.median(
        own[s["id"]] for s in tracer.spans if s["name"] == "solve"), "s")
    out["trace.spans"] = metric(len(tracer.spans), "count")
    return out


# ------------------------------------------------------------- environment

def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def environment(args, wl):
    return {
        "workload": wl.name, "config": asdict(wl), "nbasis": NBASIS,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "workers": args.workers,
        "blas_threads": BLAS_THREADS, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "git_commit": git_commit(), "smoke": args.smoke,
    }


# -------------------------------------------------------------------- main

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workers", type=int, default=None,
                   help="basis/spectra worker threads (default: available cores)")
    p.add_argument("--smoke", action="store_true",
                   help="tiny configuration of the workload (perfbench/smoke.py)")
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs, print 'ready' and exit")
    args = p.parse_args(argv)
    if args.workers is None:
        args.workers = len(os.sched_getaffinity(0))
    if args.workers < 1:
        p.error("--workers must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    wl = (SMOKE_WORKLOADS if args.smoke else WORKLOADS)[args.workload]
    if args.setup_only:
        build_inputs(wl, args.seed)
        print("ready", flush=True)
        return {}
    env = environment(args, wl)
    print(json.dumps({"environment": env}), flush=True)
    record = {"environment": env}
    if args.trace:
        tracer = Tracer()
        inp = build_inputs(wl, args.seed, tracer)
        # traced first: a span that sets a new process peak shows it in ru_maxrss
        (traced, untraced), attempted = loop(wl, inp, args.workers, args.seconds,
                                             (tracer, NullTracer()))
        failed = attempted - len(untraced) - len(traced)
        metrics = per_layer(tracer, traced, untraced) if traced and untraced else {}
        record["iterations"] = {"untraced": untraced, "traced": traced}
        record["spans"] = tracer.spans
        record["rss_samples"] = tracer.rss
    else:
        setup = [time_setup(wl.name, args.seed, args.smoke)
                 for _ in range(SETUP_REPEATS // 2)]
        inp = build_inputs(wl, args.seed)
        (outcomes,), attempted = loop(wl, inp, args.workers, args.seconds, (NullTracer(),))
        setup += [time_setup(wl.name, args.seed, args.smoke)
                  for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
        failed = attempted - len(outcomes)
        metrics = end_to_end(outcomes, attempted, setup)
        record["setup_samples"] = setup
        record["iterations"] = outcomes
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record["result"] = result
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result), flush=True)
    return result


if __name__ == "__main__":
    main()
