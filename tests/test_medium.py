"""Permeability rasters, layout generation, the spectral weight."""

import numpy as np
import pytest

from msdarcy import (Block, ConfigError, MediumSpec, PermField,
                     RasterFormatError, Strip, build_grids, bilinear_pou,
                     compute_weight, generate_medium, load_raster, sample_spec,
                     save_raster, spec_from_mapping, three_channel_spec)
from msdarcy.mesh import FineGrid


def test_from_raw_rescales_to_unit_minimum():
    g = FineGrid(4, 4)
    raw = np.linspace(3.0, 7.0, g.n_cells)
    perm = PermField.from_raw(g, raw)
    assert perm.values.min() == 1.0
    assert np.allclose(perm.values, raw / 3.0)
    assert perm.contrast == pytest.approx(7.0 / 3.0)


def test_from_raw_rejects_bad_values():
    g = FineGrid(4, 4)
    with pytest.raises(ConfigError):
        PermField.from_raw(g, np.ones(7))
    vals = np.ones(g.n_cells)
    vals[5] = -1.0
    with pytest.raises(RasterFormatError, match="record 5"):
        PermField.from_raw(g, vals)
    vals[5] = np.nan
    with pytest.raises(RasterFormatError):
        PermField.from_raw(g, vals)


def test_raster_roundtrip_bit_exact(tmp_path):
    g = FineGrid(8, 8)
    rng = np.random.default_rng(11)
    perm = PermField.from_raw(g, np.exp(rng.uniform(0, 9, g.n_cells)))
    path = tmp_path / "k.txt"
    save_raster(perm, path)
    back = load_raster(path)
    assert back.grid.nx == 8
    assert np.array_equal(back.values, perm.values)


def test_load_raster_error_reporting(tmp_path):
    path = tmp_path / "k.txt"
    path.write_text("")
    with pytest.raises(RasterFormatError, match="header"):
        load_raster(path)
    path.write_text("4 x\n" + "1.0\n" * 16)
    with pytest.raises(RasterFormatError, match="header"):
        load_raster(path)
    path.write_text("4 3\n" + "1.0\n" * 12)
    with pytest.raises(ConfigError, match="square"):
        load_raster(path)
    path.write_text("2 2\n1.0 1.0 1.0\n")
    with pytest.raises(RasterFormatError, match="expected 4"):
        load_raster(path)
    path.write_text("2 2\n1.0 1.0 oops 1.0\n")
    with pytest.raises(RasterFormatError, match="record 2"):
        load_raster(path)


def _cell_centers(g):
    ix, iy = g.cell_ix_iy(np.arange(g.n_cells))
    return (ix + 0.5) * g.h, (iy + 0.5) * g.h


def test_strip_rasterization_against_cell_centers():
    g = FineGrid(16, 16)
    spec = MediumSpec(strips=(
        Strip("h", 0.25, 0.125, span=(0.25, 0.75), multiplier=100.0),))
    perm = generate_medium(spec, g)
    x, y = _cell_centers(g)
    inside = (0.25 < y) & (y < 0.375) & (0.25 < x) & (x < 0.75)
    assert np.array_equal(perm.values == 100.0, inside)
    assert np.array_equal(perm.values == 1.0, ~inside)


def test_vertical_strip_and_block_rasterization():
    g = FineGrid(16, 16)
    spec = MediumSpec(
        strips=(Strip("v", 0.5, 0.125, span=(0.0, 0.5), multiplier=10.0),),
        blocks=(Block(0.75, 0.75, 0.125, 0.25, multiplier=50.0),))
    perm = generate_medium(spec, g)
    x, y = _cell_centers(g)
    in_strip = (0.5 < x) & (x < 0.625) & (y < 0.5)
    in_block = (0.75 < x) & (x < 0.875) & (0.75 < y) & (y < 1.0)
    assert np.array_equal(perm.values == 10.0, in_strip)
    assert np.array_equal(perm.values == 50.0, in_block)


def test_overlap_takes_maximum_multiplier():
    g = FineGrid(8, 8)
    spec = MediumSpec(strips=(
        Strip("h", 0.25, 0.25, multiplier=10.0),
        Strip("v", 0.25, 0.25, multiplier=40.0),))
    perm = generate_medium(spec, g)
    vals = perm.values.reshape(8, 8)
    assert vals[3, 3] == 40.0  # crossing keeps the larger contrast
    assert vals[3, 0] == 10.0
    assert vals[0, 3] == 40.0


def test_generate_medium_validation():
    g = FineGrid(8, 8)
    with pytest.raises(ConfigError, match="background"):
        generate_medium(MediumSpec(background=0.0), g)
    with pytest.raises(ConfigError, match="axis"):
        generate_medium(MediumSpec(strips=(Strip("x", 0.2, 0.1),)), g)
    with pytest.raises(ConfigError, match="below 1"):
        generate_medium(MediumSpec(strips=(Strip("h", 0.2, 0.1, multiplier=0.5),)), g)
    with pytest.raises(ConfigError, match="below 1"):
        generate_medium(MediumSpec(blocks=(Block(0.2, 0.2, 0.1, 0.1, 0.5),)), g)
    with pytest.raises(ConfigError, match="not inside"):
        generate_medium(MediumSpec(blocks=(Block(0.9, 0.9, 0.3, 0.1),)), g)
    with pytest.raises(ConfigError, match="divide"):
        generate_medium(MediumSpec(coarse_n=3), g)


def test_channel_cap_counts_spans_not_whole_rows():
    g = FineGrid(16, 16)
    # two channels share coarse row 0 but their spans touch disjoint elements
    spec = MediumSpec(strips=(
        Strip("h", 0.125, 0.125, span=(0.0, 0.5), multiplier=10.0),
        Strip("h", 0.3125, 0.125, span=(0.5, 1.0), multiplier=10.0),),
        coarse_n=2, max_channels_per_element=1)
    generate_medium(spec, g)  # must not raise
    crossed = MediumSpec(strips=spec.strips + (
        Strip("v", 0.25, 0.125, multiplier=10.0),),
        coarse_n=2, max_channels_per_element=1)
    with pytest.raises(ConfigError, match="crossed by 2"):
        generate_medium(crossed, g)


def test_sample_spec_reproducible_and_respects_bands():
    spec = sample_spec(64, n_horizontal=2, n_vertical=1, n_inclusions=2,
                       contrast_lo=1e2, contrast_hi=1e4, seed=7,
                       h_band=(0.25, 0.75), v_band=(0.0, 0.5), coarse_n=8)
    again = sample_spec(64, n_horizontal=2, n_vertical=1, n_inclusions=2,
                        contrast_lo=1e2, contrast_hi=1e4, seed=7,
                        h_band=(0.25, 0.75), v_band=(0.0, 0.5), coarse_n=8)
    assert spec == again
    h_strips = [s for s in spec.strips if s.axis == "h"]
    v_strips = [s for s in spec.strips if s.axis == "v"]
    assert len(h_strips) == 2 and len(v_strips) == 1
    for s in h_strips:
        assert 0.25 <= s.lo and s.lo + s.thickness <= 0.75 + 1e-12
    for s in v_strips:
        assert 0.0 <= s.lo and s.lo + s.thickness <= 0.5 + 1e-12
    for s in spec.strips:
        assert 1e2 <= s.multiplier <= 1e4
    # disjointness gap of 2 cells between parallel channels
    rows = sorted(round(s.lo * 64) for s in h_strips)
    assert rows[1] - rows[0] >= 3 + 2
    g = FineGrid(64, 64)
    perm = generate_medium(spec, g)
    assert perm.values.max() > 1.0


def test_sample_spec_inclusions_avoid_channel_elements():
    spec = sample_spec(64, n_horizontal=1, n_vertical=1, n_inclusions=6,
                       seed=3, coarse_n=8)
    row = round([s for s in spec.strips if s.axis == "h"][0].lo * 64)
    col = round([s for s in spec.strips if s.axis == "v"][0].lo * 64)
    banned_rows = range((row // 8) * 8, (row // 8) * 8 + 8)
    banned_cols = range((col // 8) * 8, (col // 8) * 8 + 8)
    assert len(spec.blocks) == 6
    for blk in spec.blocks:
        i0, j0 = round(blk.x * 64), round(blk.y * 64)
        assert not any(j in banned_rows for j in range(j0, j0 + 2))
        assert not any(i in banned_cols for i in range(i0, i0 + 2))


def test_sample_spec_validation():
    with pytest.raises(ConfigError, match="contrast"):
        sample_spec(32, contrast_lo=0.5)
    with pytest.raises(ConfigError, match="contrast"):
        sample_spec(32, contrast_lo=100.0, contrast_hi=10.0)
    with pytest.raises(ConfigError, match="band"):
        sample_spec(32, n_horizontal=1, h_band=(0.7, 0.2))
    with pytest.raises(ConfigError, match="too narrow"):
        sample_spec(32, n_horizontal=1, h_band=(0.5, 0.53))
    with pytest.raises(ConfigError, match="disjoint"):
        sample_spec(32, n_horizontal=4, h_band=(0.0, 0.25), seed=1)
    with pytest.raises(ConfigError, match="divide"):
        sample_spec(32, coarse_n=5)


def test_spec_from_mapping_parses_and_rejects_unknown_keys():
    mapping = {"n_horizontal": "2", "n_vertical": "1", "seed": "7",
               "n_inclusions": "2", "contrast_lo": "1e2", "contrast_hi": "1e4",
               "h_band": "0.25 0.75", "v_band": "0.0 0.5", "coarse_n": "8"}
    spec = spec_from_mapping(mapping, 64)
    direct = sample_spec(64, n_horizontal=2, n_vertical=1, n_inclusions=2,
                         contrast_lo=1e2, contrast_hi=1e4, seed=7,
                         h_band=(0.25, 0.75), v_band=(0.0, 0.5), coarse_n=8)
    assert spec == direct
    with pytest.raises(ConfigError, match="unknown"):
        spec_from_mapping({"n_channels": "2"}, 64)
    with pytest.raises(ConfigError, match="two floats"):
        spec_from_mapping({"h_band": "0.25"}, 64)


def test_three_channel_layout_is_frozen():
    g = FineGrid(128, 128)
    perm = generate_medium(three_channel_spec(contrast=1e4), g)
    expected = np.zeros((128, 128), dtype=bool)
    expected[11:14, 0:90] = True          # long horizontal channel
    expected[6:9, 38:106] = True          # short horizontal channel
    expected[13:104, 3:6] = True          # vertical connector
    for i0, j0 in ((1, 113), (125, 13), (41, 73), (89, 105)):
        expected[j0:j0 + 2, i0:i0 + 2] = True
    vals = perm.values.reshape(128, 128)
    assert np.array_equal(vals == 1e4, expected)
    assert np.array_equal(vals == 1.0, ~expected)
    assert perm.contrast == pytest.approx(1e4)


def test_three_channel_spec_scales_contrast():
    g = FineGrid(128, 128)
    lo = generate_medium(three_channel_spec(contrast=1e4), g)
    hi = generate_medium(three_channel_spec(contrast=1e6), g)
    # same geometry, rescaled contrast
    assert np.array_equal(lo.values > 1, hi.values > 1)
    assert hi.contrast == pytest.approx(1e6)
    with pytest.raises(ConfigError):
        three_channel_spec(contrast=0.1)


def test_compute_weight_values_and_grid_check():
    fine, coarse = build_grids(16, 4)
    rng = np.random.default_rng(0)
    perm = PermField.from_raw(fine, np.exp(rng.uniform(0, 3, fine.n_cells)))
    pou = bilinear_pou(coarse)
    w = compute_weight(perm, pou)
    assert np.allclose(w.values, perm.values * pou.gradsq_cell_avg)
    assert (w.values > 0).all()
    other_fine, other_coarse = build_grids(8, 4)
    with pytest.raises(ConfigError):
        compute_weight(perm, bilinear_pou(other_coarse))
