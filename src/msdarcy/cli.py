"""Command line driver.

Subcommands: ``solve``, ``convergence``, ``decay``, ``eigs``,
``gen-medium``. Every run reads an INI config, writes its artifacts into
an output directory, and drops a ``manifest.json`` echoing the resolved
configuration. Failures print a single-line JSON error record to stderr
and exit nonzero (2 for configuration problems, 1 otherwise).

Config grammar (INI sections; unknown keys in [medium] are rejected,
elsewhere ignored):

    [grid]    nx, coarse
    [medium]  kind = preset | generate | raster, plus kind arguments
    [source]  kind = corners | cells | manufactured, plus arguments
    [method]  flavor, nbasis | threshold, layers (int or "auto"),
              layer_calibration = "l0 H0"
    [solver]  rtol, workers, max_global_nx
    [output]  dir
    [study]   cases = "nbasis Nx layers; ..."   (convergence)
    [decay]   element | element_ij, j, layers, nbasis
    [eigs]    count

All CSV artifacts carry a header row and 17-significant-digit floats;
runs with identical configs and seeds produce byte-identical files
except for the timing column of convergence.csv.
"""

import argparse
import configparser
import json
import os
import sys

import numpy as np

from . import __version__
from .auxspace import gap_split, write_eigen_report
from .basis import _check_method
from .errors import ConfigError, SolveError
from .fem import _source_block, check_source, corner_source, manufactured_cospi
from .medium import (generate_medium, load_raster, save_raster,
                     spec_from_mapping, three_channel_spec)
from .mesh import FineGrid, build_grids
from .metrics import (_aux_stage, auto_layers, convergence_study, decay_study,
                      pressure_norms, solve_case, spectra_stage,
                      velocity_norms)


def _fmt(x):
    return f"{float(x):.17g}"


def _fmt_or_empty(x):
    return "" if not np.isfinite(x) else _fmt(x)


def _load_config(path):
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}")
    return parser


def _get(cfg, section, key, default=None, cast=str):
    if not cfg.has_section(section) or key not in cfg[section]:
        if default is None:
            raise ConfigError(f"missing [{section}] {key}")
        return default
    raw = cfg[section][key]
    try:
        return cast(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}")


def _resolve_grids(cfg):
    nx = _get(cfg, "grid", "nx", cast=int)
    Nx = _get(cfg, "grid", "coarse", cast=int)
    return build_grids(nx, Nx)


def _resolve_medium(cfg, grid, seed_override=None):
    kind = _get(cfg, "medium", "kind", default="preset")
    resolved = {"kind": kind}
    if kind == "raster":
        path = _get(cfg, "medium", "file")
        perm = load_raster(path)
        if perm.grid.nx != grid.nx:
            raise ConfigError(
                f"raster grid {perm.grid.nx} does not match [grid] nx={grid.nx}")
        perm = perm.__class__(grid, perm.values)
        resolved["file"] = path
    elif kind == "preset":
        name = _get(cfg, "medium", "preset", default="three_channel")
        if name != "three_channel":
            raise ConfigError(f"unknown medium preset {name!r}")
        contrast = _get(cfg, "medium", "contrast", default=1e4, cast=float)
        if seed_override is not None:
            raise ConfigError("the preset medium is deterministic; "
                              "--seed only applies to generated media")
        spec = three_channel_spec(contrast=contrast)
        perm = generate_medium(spec, grid)
        resolved.update({"preset": name, "contrast": contrast})
    elif kind == "generate":
        mapping = {k: v for k, v in cfg["medium"].items() if k != "kind"}
        if seed_override is not None:
            mapping["seed"] = str(seed_override)
        spec = spec_from_mapping(mapping, grid.nx)
        perm = generate_medium(spec, grid)
        resolved.update({k: str(v) for k, v in mapping.items()})
        resolved["n_strips"] = str(len(spec.strips))
        resolved["n_blocks"] = str(len(spec.blocks))
    else:
        raise ConfigError(f"unknown medium kind {kind!r}")
    return perm, resolved


def _resolve_source(cfg, grid):
    kind = _get(cfg, "source", "kind", default="corners")
    if kind in ("corners", "cells"):
        g = _get(cfg, "source", "grid", default=8, cast=int)
    if kind == "corners":
        f = corner_source(grid, g, _get(cfg, "source", "amplitude", default=1.0, cast=float))
    elif kind == "cells":
        b = _source_block(grid, g)
        f = np.zeros((grid.ny, grid.nx))
        spec = _get(cfg, "source", "cells")
        for item in spec.split(";"):
            item = item.strip()
            if not item:
                continue
            parts = item.split()
            if len(parts) != 3:
                raise ConfigError(f"source cell entry needs 'I J value', got {item!r}")
            try:
                I, J, val = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise ConfigError(f"source cell entry needs 'I J value', got {item!r}")
            if not (0 <= I < g and 0 <= J < g):
                raise ConfigError(f"source cell ({I},{J}) outside {g}x{g} grid")
            f[J * b:(J + 1) * b, I * b:(I + 1) * b] += val
        f = f.ravel()
    elif kind == "manufactured":
        f = manufactured_cospi(grid)[0]
    else:
        raise ConfigError(f"unknown source kind {kind!r}")
    if not np.isfinite(f).all():
        raise ConfigError("source values must be finite")
    return check_source(f, grid), {"kind": kind}


def _ints(raw, count=None):
    """Whitespace-separated integers, `count` of them when given."""
    values = [int(tok) for tok in raw.split()]
    if count is not None and len(values) != count:
        raise ValueError(f"want {count} integers")
    return values


def _cases(raw, l0, H0):
    """[study] cases: `nbasis Nx layers` triples separated by ';', with
    layers an integer or "auto"."""
    cases = []
    for item in raw.split(";"):
        item = item.strip()
        if not item:
            continue
        try:
            nb, Nx, layers = item.split()
            nb, Nx = int(nb), int(Nx)
            cases.append((nb, Nx, auto_layers(1.0 / Nx, l0, H0)
                          if layers == "auto" else int(layers)))
        except (ValueError, ZeroDivisionError, OverflowError):
            raise ConfigError(f"case entry wants 'nbasis Nx layers', got {item!r}")
    if not cases:
        raise ConfigError("[study] cases is empty")
    return cases


def _calibration(raw):
    l0, H0 = raw.split()
    return int(l0), float(H0)


def _resolve_flavor(cfg, grid, solver):
    """[method] flavor, checked before any solve: `global` functions span
    the whole domain, so it is refused above [solver] max_global_nx."""
    flavor = _get(cfg, "method", "flavor", default="type2")
    _check_method(flavor)
    if flavor == "global" and grid.nx > solver["max_global_nx"]:
        raise ConfigError(
            f"global flavor refused for nx={grid.nx} > "
            f"max_global_nx={solver['max_global_nx']}")
    return flavor


def _resolve_method(cfg, H):
    has_n = cfg.has_section("method") and "nbasis" in cfg["method"]
    has_t = cfg.has_section("method") and "threshold" in cfg["method"]
    if has_n and has_t:
        raise ConfigError("set either [method] nbasis or threshold, not both")
    nbasis = _get(cfg, "method", "nbasis", cast=int) if has_n else None
    threshold = _get(cfg, "method", "threshold", cast=float) if has_t else None
    if nbasis is None and threshold is None:
        nbasis = 3
    raw_layers = _get(cfg, "method", "layers", default="auto")
    l0, H0 = _get(cfg, "method", "layer_calibration", default=(3, 0.125),
                  cast=_calibration)
    if raw_layers == "auto":
        layers = auto_layers(H, l0, H0)
    else:
        try:
            layers = int(raw_layers)
        except ValueError:
            raise ConfigError(f"[method] layers: cannot parse {raw_layers!r}")
    return {"nbasis": nbasis, "threshold": threshold,
            "layers": layers, "layer_calibration": (l0, H0)}


def _resolve_solver(cfg, args):
    rtol = _get(cfg, "solver", "rtol", default=1e-10, cast=float)
    if not 0 < rtol < 1:
        raise ConfigError(f"[solver] rtol must lie in (0, 1), got {rtol}")
    workers = _get(cfg, "solver", "workers", default=0, cast=int)
    if getattr(args, "workers", None) is not None:
        workers = args.workers
    if workers <= 0:
        workers = len(os.sched_getaffinity(0))
    max_global = _get(cfg, "solver", "max_global_nx", default=64, cast=int)
    return {"rtol": rtol, "workers": workers, "max_global_nx": max_global}


def _out_dir(cfg, args):
    out = args.out or _get(cfg, "output", "dir", default="out")
    os.makedirs(out, exist_ok=True)
    return out


def _write_manifest(out, command, cfg, resolved):
    manifest = {
        "command": command,
        "version": __version__,
        "config": {s: dict(cfg[s]) for s in cfg.sections()},
        "resolved": resolved,
    }
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _write_velocity_csv(path, grid, v):
    kind, i, j = grid.decode_edge(np.arange(grid.n_edges))
    names = np.array(["v", "h"])
    with open(path, "w") as fh:
        fh.write(f"# grid: nx={grid.nx} ny={grid.ny}\n")
        fh.write("edge,kind,i,j,flux\n")
        for e in range(grid.n_edges):
            fh.write(f"{e},{names[kind[e]]},{i[e]},{j[e]},{_fmt(v[e])}\n")


def _write_pressure_csv(path, grid, p, name="p"):
    ix, iy = grid.cell_ix_iy(np.arange(grid.n_cells))
    with open(path, "w") as fh:
        fh.write(f"# grid: nx={grid.nx} ny={grid.ny}\n")
        fh.write(f"cell,ix,iy,{name}\n")
        for c in range(grid.n_cells):
            fh.write(f"{c},{ix[c]},{iy[c]},{_fmt(p[c])}\n")


def _write_basis_vector(path, grid, fn):
    with open(path, "w") as fh:
        fh.write(f"{grid.nx} {grid.ny} {fn.edges.size}\n")
        for e, val in zip(fn.edges, fn.v):
            fh.write(f"{e} {_fmt(val)}\n")


def cmd_solve(args):
    cfg = _load_config(args.config)
    fine, coarse = _resolve_grids(cfg)
    perm, med_res = _resolve_medium(cfg, fine, args.seed)
    f, src_res = _resolve_source(cfg, fine)
    method = _resolve_method(cfg, coarse.H)
    solver = _resolve_solver(cfg, args)
    method["flavor"] = _resolve_flavor(cfg, fine, solver)
    out = _out_dir(cfg, args)

    ms, aux, basis_set, report, _ = solve_case(
        perm, f, coarse.Nx, nbasis=method["nbasis"],
        threshold=method["threshold"], layers=method["layers"],
        flavor=method["flavor"], rtol=solver["rtol"],
        workers=solver["workers"])

    weight = aux.weight
    vn = velocity_norms(fine, perm, weight, ms.v)
    pn = pressure_norms(weight, ms.p)
    _write_velocity_csv(os.path.join(out, "velocity.csv"), fine, ms.v)
    _write_pressure_csv(os.path.join(out, "pressure.csv"), fine, ms.p)
    with open(os.path.join(out, "mass_residuals.csv"), "w") as fh:
        fh.write("element,I,J,residual\n")
        for e in range(aux.coarse.n_elements):
            I, J = aux.coarse.element_IJ(e)
            fh.write(f"{e},{I},{J},{_fmt(report.element_residuals[e])}\n")
    with open(os.path.join(out, "summary.csv"), "w") as fh:
        fh.write("quantity,value\n")
        rows = [
            ("v_energy_norm", vn.a), ("v_div_norm", vn.div), ("v_V_norm", vn.V),
            ("p_weighted_norm", pn.s), ("p_l2_norm", pn.l2),
            ("spectral_gap", aux.spectral_gap),
            ("schur_sigma", ms.schur_sigma),
            ("n_basis_columns", aux.n_columns),
            ("mass_residual_max", report.max_residual),
            ("div_compat", report.div_compat),
        ]
        for key, val in rows:
            fh.write(f"{key},{_fmt(val)}\n")

    _write_manifest(out, "solve", cfg, {
        "medium": med_res, "source": src_res, "nx": fine.nx,
        "coarse": coarse.Nx, **{k: str(v) for k, v in method.items()},
        "rtol": solver["rtol"], "workers": solver["workers"],
        "n_basis_columns": aux.n_columns, "spectral_gap": aux.spectral_gap,
    })
    print(f"solve: wrote {out}/velocity.csv pressure.csv summary.csv "
          f"mass_residuals.csv manifest.json")
    return 0


def cmd_convergence(args):
    cfg = _load_config(args.config)
    fine, _ = _resolve_grids(cfg)
    perm, med_res = _resolve_medium(cfg, fine, args.seed)
    f, src_res = _resolve_source(cfg, fine)
    solver = _resolve_solver(cfg, args)
    flavor = _resolve_flavor(cfg, fine, solver)
    l0, H0 = _get(cfg, "method", "layer_calibration", default=(3, 0.125),
                  cast=_calibration)

    cases = _cases(_get(cfg, "study", "cases"), l0, H0)
    rows = convergence_study(perm, f, cases, flavor=flavor,
                             rtol=solver["rtol"], workers=solver["workers"])
    out = _out_dir(cfg, args)
    with open(os.path.join(out, "convergence.csv"), "w") as fh:
        fh.write("nbasis,H,layers,e_p,e_v,rate_p,rate_v,seconds\n")
        for row in rows:
            fh.write(f"{row.nbasis},{_fmt(row.H)},{row.layers},"
                     f"{_fmt(row.e_p)},{_fmt(row.e_v)},"
                     f"{_fmt_or_empty(row.rate_p)},{_fmt_or_empty(row.rate_v)},"
                     f"{_fmt(row.seconds)}\n")
    _write_manifest(out, "convergence", cfg, {
        "medium": med_res, "source": src_res, "nx": fine.nx,
        "cases": [list(c) for c in cases], "flavor": flavor,
        "rtol": solver["rtol"], "workers": solver["workers"],
    })
    print(f"convergence: wrote {out}/convergence.csv manifest.json")
    return 0


def cmd_decay(args):
    cfg = _load_config(args.config)
    fine, coarse = _resolve_grids(cfg)
    perm, med_res = _resolve_medium(cfg, fine, args.seed)
    solver = _resolve_solver(cfg, args)
    nbasis = _get(cfg, "decay", "nbasis", default=3, cast=int)
    j = _get(cfg, "decay", "j", default=0, cast=int)
    if cfg.has_section("decay") and "element_ij" in cfg["decay"]:
        I, J = _get(cfg, "decay", "element_ij", cast=lambda raw: _ints(raw, 2))
        if not (0 <= I < coarse.Nx and 0 <= J < coarse.Ny):
            raise ConfigError(f"[decay] element_ij {I} {J} outside the "
                              f"{coarse.Nx}x{coarse.Ny} coarse grid")
        e = int(coarse.element_id(I, J))
    else:
        e = _get(cfg, "decay", "element", cast=int)
    layer_list = _get(cfg, "decay", "layers", default=[1, 2, 3, 4], cast=_ints)

    weight, spectra, times = spectra_stage(perm, coarse, solver["workers"])
    aux = _aux_stage(times, coarse, weight, spectra, nbasis, None)
    profile = decay_study(aux, perm, e, j, layer_list, rtol=solver["rtol"])

    out = _out_dir(cfg, args)
    with open(os.path.join(out, "decay.csv"), "w") as fh:
        fh.write("layers,diff_V,diff_a,rel_V,saturated\n")
        for k, l in enumerate(profile.layers):
            fh.write(f"{l},{_fmt(profile.diff_V[k])},{_fmt(profile.diff_a[k])},"
                     f"{_fmt(profile.rel_V[k])},{int(profile.saturated[k])}\n")
    for k, l in enumerate(profile.layers):
        _write_pressure_csv(os.path.join(out, f"field_l{l}.csv"), fine,
                            profile.fields[k], name="value")

    _write_basis_vector(os.path.join(out, "psi_global.txt"), fine,
                        profile.global_function)
    with open(os.path.join(out, "basis_manifest.csv"), "w") as fh:
        fh.write("file,element,j,layers,flavor\n")
        fh.write(f"psi_global.txt,{e},{j},-1,global\n")
        for k, l in enumerate(profile.layers):
            name = f"psi_l{l}.txt"
            _write_basis_vector(os.path.join(out, name), fine,
                                profile.functions[k])
            fh.write(f"{name},{e},{j},{l},type2\n")

    _write_manifest(out, "decay", cfg, {
        "medium": med_res, "nx": fine.nx, "coarse": coarse.Nx,
        "element": e, "j": j, "layers": layer_list, "nbasis": nbasis,
        "rho": profile.rho, "norm_global_V": profile.norm_glo_V,
        "rtol": solver["rtol"], "workers": solver["workers"],
    })
    print(f"decay: rho={profile.rho:.4f}; wrote {out}/decay.csv, "
          f"field_l*.csv, psi_*.txt, manifest.json")
    return 0


def cmd_eigs(args):
    cfg = _load_config(args.config)
    fine, coarse = _resolve_grids(cfg)
    perm, med_res = _resolve_medium(cfg, fine, args.seed)
    solver = _resolve_solver(cfg, args)
    count = _get(cfg, "eigs", "count", default=6, cast=int)
    if count < 1:
        raise ConfigError(f"[eigs] count must be >= 1, got {count}")
    max_count = (fine.nx // coarse.Nx) ** 2
    if count > max_count:
        print(f"warning: count={count} clamped to {max_count} "
              f"(eigenvalues per element)", file=sys.stderr)
        count = max_count

    _, spectra, _ = spectra_stage(perm, coarse, solver["workers"])
    out = _out_dir(cfg, args)
    write_eigen_report(os.path.join(out, "eigenvalues.csv"), spectra, count)
    with open(os.path.join(out, "gap_report.csv"), "w") as fh:
        fh.write("element,I,J,n_small,gap_ratio\n")
        for e, lam in enumerate(spectra.lambdas):
            I, J = coarse.element_IJ(e)
            n_small, ratio = gap_split(lam)
            fh.write(f"{e},{I},{J},{n_small},{_fmt(ratio)}\n")
    _write_manifest(out, "eigs", cfg, {
        "medium": med_res, "nx": fine.nx, "coarse": coarse.Nx,
        "count": count, "workers": solver["workers"],
    })
    print(f"eigs: wrote {out}/eigenvalues.csv gap_report.csv manifest.json")
    return 0


def cmd_gen_medium(args):
    cfg = _load_config(args.config)
    nx = _get(cfg, "grid", "nx", cast=int)
    grid = FineGrid(nx, nx)
    perm, med_res = _resolve_medium(cfg, grid, args.seed)
    out = _out_dir(cfg, args)
    path = os.path.join(out, "medium.txt")
    save_raster(perm, path)
    _write_manifest(out, "gen-medium", cfg, {
        "medium": med_res, "nx": nx, "contrast": perm.contrast,
    })
    print(f"gen-medium: wrote {path} (contrast {perm.contrast:.6g})")
    return 0


COMMANDS = {
    "solve": cmd_solve,
    "convergence": cmd_convergence,
    "decay": cmd_decay,
    "eigs": cmd_eigs,
    "gen-medium": cmd_gen_medium,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="msdarcy",
        description="Multiscale mixed solver for high-contrast Darcy flow")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--workers", type=int, default=None,
                       help="solver threads (default: [solver] workers or cores)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the medium seed")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ConfigError, SolveError, OSError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
