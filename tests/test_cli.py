"""End-to-end runs of every subcommand on small grids."""

import argparse
import configparser
import json
import os
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from msdarcy import ConfigError, FineGrid, cli, load_raster
from msdarcy.cli import (_cases, _resolve_method, _resolve_solver, _resolve_source,
                         main)


def write_cfg(path, text):
    path.write_text(textwrap.dedent(text))
    return str(path)


def run(*argv):
    return main(list(argv))


GEN_MEDIUM = """\
    [grid]
    nx = 32
    coarse = 4

    [medium]
    kind = generate
    n_horizontal = 1
    n_vertical = 1
    contrast_lo = 100
    contrast_hi = 100
    seed = 5
"""


def test_gen_medium_writes_deterministic_raster(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.ini", GEN_MEDIUM)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("gen-medium", "--config", cfg, "--out", str(out1)) == 0
    assert run("gen-medium", "--config", cfg, "--out", str(out2)) == 0
    raw1 = (out1 / "medium.txt").read_bytes()
    assert raw1 == (out2 / "medium.txt").read_bytes()
    perm = load_raster(out1 / "medium.txt")
    assert perm.grid.nx == 32
    assert perm.contrast == pytest.approx(100.0)
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["command"] == "gen-medium"
    assert manifest["resolved"]["medium"]["n_strips"] == "2"
    assert manifest["config"]["medium"]["kind"] == "generate"
    out3 = tmp_path / "c"
    assert run("gen-medium", "--config", cfg, "--out", str(out3),
               "--seed", "6") == 0
    assert raw1 != (out3 / "medium.txt").read_bytes()


@pytest.mark.parametrize("command", ["gen-medium", "solve"])
@pytest.mark.parametrize("key,value", [("n_horizontal", "two"), ("seed", "1.5"),
                                       ("contrast_lo", "high"), ("h_band", "0.25 top")])
def test_malformed_medium_values_give_json_config_error(tmp_path, capsys, command,
                                                        key, value):
    """A generated medium's values that do not parse end every command that
    reads the medium with the JSON record naming the key and the value."""
    # [medium] is the last section: the key's line moves to its end
    lines = [line for line in GEN_MEDIUM.splitlines() if not line.strip().startswith(key)]
    cfg = write_cfg(tmp_path / "c.ini", "\n".join(lines + [f"    {key} = {value}"]))
    assert run(command, "--config", cfg, "--out", str(tmp_path / "out")) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "ConfigError"
    assert key in record["message"] and repr(value) in record["message"]


def test_gen_medium_preset_rejects_seed_override(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.ini", """\
        [grid]
        nx = 128
        coarse = 8

        [medium]
        kind = preset
    """)
    out = tmp_path / "out"
    assert run("gen-medium", "--config", cfg, "--out", str(out),
               "--seed", "3") == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError"
    assert "deterministic" in record["message"]
    assert run("gen-medium", "--config", cfg, "--out", str(out)) == 0
    perm = load_raster(out / "medium.txt")
    assert perm.contrast == pytest.approx(1e4)


SOLVE = """\
    [grid]
    nx = 16
    coarse = 4

    [medium]
    kind = generate
    n_horizontal = 1
    contrast_lo = 100
    contrast_hi = 100
    seed = 2

    [source]
    kind = corners
    grid = 4

    [method]
    nbasis = 1
    layers = 1

    [solver]
    workers = 1
"""


def test_solve_artifacts_and_determinism(tmp_path):
    cfg = write_cfg(tmp_path / "c.ini", SOLVE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("solve", "--config", cfg, "--out", str(out1)) == 0
    assert run("solve", "--config", cfg, "--out", str(out2)) == 0
    for name in ("velocity.csv", "pressure.csv", "summary.csv",
                 "mass_residuals.csv", "manifest.json"):
        assert (out1 / name).exists()
    assert (out1 / "velocity.csv").read_bytes() == (out2 / "velocity.csv").read_bytes()
    assert (out1 / "pressure.csv").read_bytes() == (out2 / "pressure.csv").read_bytes()
    # carries schur_sigma, an iterative (Lanczos) eigenvalue
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
    # at two layers of 4 x 4 elements the regions of neighbouring elements
    # coincide and are solved once for all their centres: no worker count
    # may change a byte
    cfg2 = write_cfg(tmp_path / "c2.ini", SOLVE.replace("layers = 1", "layers = 2"))
    out3, out4 = tmp_path / "w1", tmp_path / "w2"
    assert run("solve", "--config", cfg2, "--out", str(out3)) == 0
    assert run("solve", "--config", cfg2, "--out", str(out4), "--workers", "2") == 0
    for name in ("velocity.csv", "pressure.csv", "summary.csv"):
        assert (out3 / name).read_bytes() == (out4 / name).read_bytes()

    vel = (out1 / "velocity.csv").read_text().splitlines()
    assert vel[0] == "# grid: nx=16 ny=16"
    assert vel[1] == "edge,kind,i,j,flux"
    assert len(vel) == 2 + 2 * 16 * 17
    pres = (out1 / "pressure.csv").read_text().splitlines()
    assert pres[1] == "cell,ix,iy,p"
    assert len(pres) == 2 + 16 * 16

    summary = dict(line.split(",") for line in
                   (out1 / "summary.csv").read_text().splitlines()[1:])
    assert float(summary["v_energy_norm"]) > 0
    assert float(summary["mass_residual_max"]) < 1e-10
    assert float(summary["div_compat"]) < 1e-9
    assert int(float(summary["n_basis_columns"])) == 16

    mass = (out1 / "mass_residuals.csv").read_text().splitlines()
    assert mass[0] == "element,I,J,residual"
    assert len(mass) == 1 + 16

    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["resolved"]["layers"] == "1"
    assert manifest["resolved"]["flavor"] == "type2"



def test_default_workers_are_the_cores_the_process_may_use(tmp_path, monkeypatch):
    """With no worker count set, the solver starts one thread per core the
    process may run on, which `taskset` or a cpuset make fewer than the
    machine's cores."""
    cfg = write_cfg(tmp_path / "c.ini", SOLVE.replace("workers = 1", "workers = 0"))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    out = tmp_path / "out"
    assert run("solve", "--config", cfg, "--out", str(out)) == 0
    assert json.loads((out / "manifest.json").read_text())["resolved"]["workers"] == 3

def test_solve_auto_layers_and_manufactured_source(tmp_path):
    cfg = write_cfg(tmp_path / "c.ini", """\
        [grid]
        nx = 16
        coarse = 4

        [medium]
        kind = generate

        [source]
        kind = manufactured

        [method]
        nbasis = 2
        layers = auto

        [solver]
        workers = 1
    """)
    out = tmp_path / "out"
    assert run("solve", "--config", cfg, "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    # default calibration (3, 1/8) at H = 1/4
    assert manifest["resolved"]["layers"] == "2"
    assert manifest["resolved"]["medium"]["kind"] == "generate"


def test_solve_single_coarse_element_with_auto_layers(tmp_path):
    """One coarse element (H = 1): `layers = auto` resolves to one layer
    and writes the artifacts that `layers = 1` writes."""
    outs = []
    for layers in ("auto", "1"):
        cfg = write_cfg(tmp_path / f"{layers}.ini", SOLVE.replace("coarse = 4", "coarse = 1")
                        .replace("layers = 1", f"layers = {layers}"))
        outs.append(tmp_path / layers)
        assert run("solve", "--config", cfg, "--out", str(outs[-1])) == 0
        manifest = json.loads((outs[-1] / "manifest.json").read_text())
        assert manifest["resolved"]["layers"] == "1"
    for name in ("velocity.csv", "pressure.csv", "summary.csv", "mass_residuals.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_solve_raster_medium_roundtrip(tmp_path):
    gen = write_cfg(tmp_path / "gen.ini", """\
        [grid]
        nx = 16
        coarse = 4

        [medium]
        kind = generate
        n_vertical = 1
        seed = 9
    """)
    med = tmp_path / "med"
    assert run("gen-medium", "--config", gen, "--out", str(med)) == 0
    cfg = write_cfg(tmp_path / "c.ini", f"""\
        [grid]
        nx = 16
        coarse = 4

        [medium]
        kind = raster
        file = {med / "medium.txt"}

        [source]
        kind = corners
        grid = 4

        [method]
        nbasis = 1
        layers = 1

        [solver]
        workers = 1
    """)
    out = tmp_path / "out"
    assert run("solve", "--config", cfg, "--out", str(out)) == 0
    bad = write_cfg(tmp_path / "bad.ini", f"""\
        [grid]
        nx = 32
        coarse = 4

        [medium]
        kind = raster
        file = {med / "medium.txt"}

        [source]
        kind = corners
    """)
    assert run("solve", "--config", bad, "--out", str(tmp_path / "nope")) == 2


def test_solve_global_flavor_size_guard(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.ini", """\
        [grid]
        nx = 16
        coarse = 4

        [medium]
        kind = generate

        [source]
        kind = corners
        grid = 4

        [method]
        flavor = global
        nbasis = 1

        [solver]
        max_global_nx = 8
        workers = 1
    """)
    assert run("solve", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "global flavor refused" in record["message"]


def test_solve_cells_source_validation(tmp_path, capsys):
    base = """\
        [grid]
        nx = 16
        coarse = 4

        [medium]
        kind = generate

        [source]
        kind = cells
        grid = 4
        cells = {cells}

        [method]
        nbasis = 1
        layers = 1

        [solver]
        workers = 1
    """
    good = write_cfg(tmp_path / "good.ini", base.format(cells="0 0 1; 3 3 -1"))
    assert run("solve", "--config", good, "--out", str(tmp_path / "a")) == 0
    unbalanced = write_cfg(tmp_path / "u.ini", base.format(cells="0 0 1"))
    assert run("solve", "--config", unbalanced, "--out", str(tmp_path / "b")) == 2
    assert "zero mean" in capsys.readouterr().err
    outside = write_cfg(tmp_path / "o.ini", base.format(cells="0 0 1; 4 4 -1"))
    assert run("solve", "--config", outside, "--out", str(tmp_path / "c")) == 2


def test_convergence_csv(tmp_path):
    cfg = write_cfg(tmp_path / "c.ini", """\
        [grid]
        nx = 16
        coarse = 4

        [medium]
        kind = generate
        n_horizontal = 1
        seed = 4

        [source]
        kind = corners
        grid = 4

        [study]
        cases = 1 2 1; 1 4 2

        [solver]
        workers = 1
    """)
    out = tmp_path / "out"
    assert run("convergence", "--config", cfg, "--out", str(out)) == 0
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == "nbasis,H,layers,e_p,e_v,rate_p,rate_v,seconds"
    assert len(lines) == 3
    first = lines[1].split(",")
    second = lines[2].split(",")
    assert (first[5], first[6]) == ("", "")  # no previous row to compare
    assert second[5] != "" and second[6] != ""
    assert float(second[3]) < float(first[3])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved"]["cases"] == [[1, 2, 1], [1, 4, 2]]

    empty = write_cfg(tmp_path / "e.ini", """\
        [grid]
        nx = 16
        coarse = 4

        [medium]
        kind = generate

        [source]
        kind = corners
        grid = 4

        [study]
        cases = ;
    """)
    assert run("convergence", "--config", empty, "--out", str(tmp_path / "x")) == 2
    malformed = write_cfg(tmp_path / "m.ini", """\
        [grid]
        nx = 16
        coarse = 4

        [medium]
        kind = generate

        [source]
        kind = corners
        grid = 4

        [study]
        cases = 1 2
    """)
    assert run("convergence", "--config", malformed, "--out", str(tmp_path / "y")) == 2


@pytest.mark.parametrize("flavor,expect", [
    ("bogus", "unknown flavor 'bogus'"),
    ("global", "global flavor refused for nx=16 > max_global_nx=8"),
])
def test_convergence_checks_flavor_before_solving(tmp_path, capsys, monkeypatch,
                                                  flavor, expect):
    def no_solve(*args, **kwargs):
        raise AssertionError("convergence study ran")
    monkeypatch.setattr(cli, "convergence_study", no_solve)
    cfg = write_cfg(tmp_path / "c.ini", f"""\
        [grid]
        nx = 16
        coarse = 4

        [medium]
        kind = generate

        [source]
        kind = corners
        grid = 4

        [method]
        flavor = {flavor}

        [study]
        cases = 1 2 1

        [solver]
        max_global_nx = 8
        workers = 1
    """)
    assert run("convergence", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "ConfigError"
    assert expect in record["message"]


def test_decay_artifacts(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.ini", """\
        [grid]
        nx = 16
        coarse = 4

        [medium]
        kind = generate
        n_horizontal = 1
        seed = 8

        [decay]
        element_ij = 1 1
        j = 0
        layers = 1 2
        nbasis = 1

        [solver]
        workers = 1
    """)
    out = tmp_path / "out"
    assert run("decay", "--config", cfg, "--out", str(out)) == 0
    lines = (out / "decay.csv").read_text().splitlines()
    assert lines[0] == "layers,diff_V,diff_a,rel_V,saturated"
    assert len(lines) == 3
    assert float(lines[2].split(",")[1]) < float(lines[1].split(",")[1])
    for name in ("field_l1.csv", "field_l2.csv", "psi_global.txt",
                 "psi_l1.txt", "psi_l2.txt", "basis_manifest.csv"):
        assert (out / name).exists()
    head = (out / "psi_global.txt").read_text().splitlines()
    nx, ny, count = (int(t) for t in head[0].split())
    assert (nx, ny) == (16, 16)
    assert len(head) == 1 + count
    bm = (out / "basis_manifest.csv").read_text().splitlines()
    assert bm[0] == "file,element,j,layers,flavor"
    assert bm[1].startswith("psi_global.txt,5,0,-1,global")
    assert len(bm) == 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved"]["element"] == 5

    bad = write_cfg(tmp_path / "bad.ini", """\
        [grid]
        nx = 16
        coarse = 4

        [medium]
        kind = generate

        [decay]
        element = 99
    """)
    assert run("decay", "--config", bad, "--out", str(tmp_path / "z")) == 2


@pytest.mark.parametrize("element_ij", ["4 0", "0 4", "-1 0"])
def test_decay_refuses_an_element_ij_outside_the_grid(tmp_path, capsys, monkeypatch,
                                                      element_ij):
    """I and J are checked against the 4 x 4 coarse grid, not only the
    element id J Nx + I they give (4 0 gives element 4, which exists),
    and before the spectra run: `spectra_stage` is patched to fail."""
    def fail(*args, **kwargs):
        raise AssertionError("spectra ran before the element_ij check")
    monkeypatch.setattr(cli, "spectra_stage", fail)
    cfg = write_cfg(tmp_path / "c.ini", f"""\
        [grid]
        nx = 16
        coarse = 4

        [medium]
        kind = generate

        [decay]
        element_ij = {element_ij}
    """)
    out = tmp_path / "out"
    assert run("decay", "--config", cfg, "--out", str(out)) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "ConfigError"
    assert f"element_ij {element_ij} outside the 4x4 coarse grid" in record["message"]
    assert not (out / "manifest.json").exists()


def test_eigs_reports_and_count_clamp(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.ini", """\
        [grid]
        nx = 16
        coarse = 4

        [medium]
        kind = generate
        n_horizontal = 1
        seed = 6

        [eigs]
        count = 3

        [solver]
        workers = 1
    """)
    out = tmp_path / "out"
    assert run("eigs", "--config", cfg, "--out", str(out)) == 0
    lines = (out / "eigenvalues.csv").read_text().splitlines()
    assert lines[0] == "element_i,j,lambda"
    assert len(lines) == 1 + 16 * 3
    gaps = (out / "gap_report.csv").read_text().splitlines()
    assert gaps[0] == "element,I,J,n_small,gap_ratio"
    assert len(gaps) == 1 + 16
    capsys.readouterr()

    big = write_cfg(tmp_path / "b.ini", """\
        [grid]
        nx = 16
        coarse = 4

        [medium]
        kind = generate

        [eigs]
        count = 99

        [solver]
        workers = 1
    """)
    out2 = tmp_path / "out2"
    assert run("eigs", "--config", big, "--out", str(out2)) == 0
    assert "clamped to 16" in capsys.readouterr().err
    lines = (out2 / "eigenvalues.csv").read_text().splitlines()
    assert len(lines) == 1 + 16 * 16


def test_config_error_paths(tmp_path, capsys):
    assert run("solve", "--config", str(tmp_path / "missing.ini")) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError"
    assert "not found" in record["message"]
    incomplete = write_cfg(tmp_path / "i.ini", """\
        [grid]
        coarse = 4
    """)
    assert run("solve", "--config", incomplete) == 2
    assert "missing [grid] nx" in capsys.readouterr().err
    unknown_kind = write_cfg(tmp_path / "k.ini", """\
        [grid]
        nx = 16
        coarse = 4

        [medium]
        kind = mystery
    """)
    assert run("solve", "--config", unknown_kind) == 2


UNPARSEABLE = """\
    [grid]
    nx = 16
    coarse = 4

    [medium]
    kind = generate

    [source]
    kind = {source}
    grid = {source_grid}
    cells = {cells}

    [method]
    layer_calibration = {calib}

    [solver]
    rtol = {rtol}

    [study]
    cases = {cases}

    [decay]
    element_ij = {element_ij}
    layers = {layers}

    [eigs]
    count = {count}
"""


def _unparseable(command, calib, cases, expect, **entries):
    """One case; the id is pytest's default id of the first four values."""
    config = {"source": "corners", "source_grid": "4", "cells": "0 0 1; 3 3 -1",
              "rtol": "1e-10", "element_ij": "1 1", "layers": "1 2", "count": "6",
              **entries}
    return pytest.param(command, calib, cases, expect, config,
                        id="-".join([command, calib, cases, expect]))


@pytest.mark.parametrize("command,calib,cases,expect,config", [
    _unparseable("solve", "three 0.125", "1 2 1", "layer_calibration"),
    _unparseable("convergence", "three 0.125", "1 2 1", "layer_calibration"),
    _unparseable("solve", "3 small", "1 2 1", "layer_calibration"),
    _unparseable("convergence", "3 0.125", "2 two auto", "case entry"),
    _unparseable("convergence", "3 0.125", "1 2 1; 1 4 x", "case entry"),
    _unparseable("convergence", "3 0.125", "1 0 auto", "case entry"),
    _unparseable("solve", "3 0.125", "1 2 1", "source cell entry",
                 source="cells", cells="0 0 one"),
    _unparseable("decay", "3 0.125", "1 2 1", "[decay] layers", layers="1 two"),
    _unparseable("decay", "3 0.125", "1 2 1", "[decay] element_ij", element_ij="1 x"),
    _unparseable("convergence", "3 0.125", "2 0 1", "coarse grid size 0 out of range"),
    _unparseable("convergence", "3 0.125", "2 -4 1", "coarse grid size -4 out of range"),
    _unparseable("solve", "3 0.125", "1 2 1", "source grid must be >= 1, got 0",
                 source_grid="0"),
    _unparseable("solve", "3 0.125", "1 2 1", "source grid must be >= 1, got -8",
                 source_grid="-8"),
    _unparseable("solve", "3 0.125", "1 2 1", "rtol must lie in (0, 1), got nan",
                 rtol="nan"),
    _unparseable("solve", "3 0.125", "1 2 1", "rtol must lie in (0, 1), got inf",
                 rtol="inf"),
    _unparseable("solve", "3 0.125", "1 2 1", "rtol must lie in (0, 1), got 0.0",
                 rtol="0"),
    _unparseable("solve", "3 0.125", "1 2 1", "rtol must lie in (0, 1), got -1.0",
                 rtol="-1"),
    _unparseable("eigs", "3 0.125", "1 2 1", "[eigs] count must be >= 1, got -1",
                 count="-1"),
])
def test_unparseable_numbers_give_json_config_error(tmp_path, capsys, command,
                                                    calib, cases, expect, config):
    cfg = write_cfg(tmp_path / "c.ini",
                    UNPARSEABLE.format(calib=calib, cases=cases, **config))
    assert run(command, "--config", cfg, "--out", str(tmp_path / "out")) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "ConfigError"
    assert expect in record["message"]


# numeric-looking strings: integers of any size, floats with their special
# values, and short runs of the characters numbers are written with
NUMBERS = st.one_of(
    st.integers().map(str),
    st.sampled_from([str(10 ** 400), str(-10 ** 400)]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(alphabet="0123456789+-.eE_infa ", max_size=12))


def _parser(section, values):
    cfg = configparser.ConfigParser()
    cfg.read_dict({section: values})
    return cfg


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["corners", "cells"]), grid=NUMBERS, amplitude=NUMBERS,
       cell=st.tuples(NUMBERS, NUMBERS, NUMBERS),
       solver=st.tuples(NUMBERS, NUMBERS, NUMBERS), calibration=st.tuples(NUMBERS, NUMBERS),
       case=st.tuples(NUMBERS, NUMBERS, NUMBERS), auto=st.booleans())
def test_numeric_config_values_return_or_raise_config_error(kind, grid, amplitude, cell,
                                                            solver, calibration, case, auto):
    source = _parser("source", {"kind": kind, "grid": grid, "amplitude": amplitude,
                                "cells": " ".join(cell) + "; 0 0 1; 1 1 -1"})
    rtol, workers, max_global = solver
    solver_cfg = _parser("solver", {"rtol": rtol, "workers": workers,
                                    "max_global_nx": max_global})
    method = _parser("method", {"layer_calibration": " ".join(calibration)})
    nb, Nx, layers = case
    calls = [
        lambda: _resolve_source(source, FineGrid(16, 16)),
        lambda: _resolve_solver(solver_cfg, argparse.Namespace(workers=None)),
        lambda: _resolve_method(method, 0.25),
        lambda: _cases(f"{nb} {Nx} {'auto' if auto else layers}", 3, 0.125),
    ]
    for call in calls:
        try:
            call()
        except ConfigError:
            pass
