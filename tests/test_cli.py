"""End-to-end runs of every subcommand on small grids."""

import json
import textwrap

import numpy as np
import pytest

from msdarcy import load_raster
from msdarcy.cli import main


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
    grid = 4
    cells = {cells}

    [method]
    layer_calibration = {calib}

    [study]
    cases = {cases}

    [decay]
    element_ij = {element_ij}
    layers = {layers}
"""


def _unparseable(command, calib, cases, expect, **entries):
    """One case; the id is pytest's default id of the first four values."""
    config = {"source": "corners", "cells": "0 0 1; 3 3 -1",
              "element_ij": "1 1", "layers": "1 2", **entries}
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
