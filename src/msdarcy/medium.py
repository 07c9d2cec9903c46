"""Permeability fields: raster I/O, channel/inclusion layouts, the spectral weight.

Raster format (ASCII): first line ``nx ny``, then nx*ny positive floats,
row-major with the bottom row first, whitespace separated. Values are
rescaled on load so the minimum is exactly 1; ratios are preserved.

A medium is described by axis-aligned channel strips and rectangular
inclusion blocks in domain coordinates, each with its own contrast
multiplier over the background. Rasterization snaps edges to the fine
lattice; overlapping shapes take the maximum multiplier. `sample_spec`
draws an entire layout from counts and placement bands, so a fixed seed
reproduces the raster bit for bit; an explicit layout rasterizes where
its shapes are placed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, RasterFormatError
from .mesh import FineGrid

_MAX_PLACEMENT_ATTEMPTS = 1000


@dataclass(frozen=True)
class PermField:
    """Cellwise permeability on a fine grid, min value 1."""

    grid: FineGrid
    values: np.ndarray

    @property
    def contrast(self):
        return float(self.values.max() / self.values.min())

    @classmethod
    def from_raw(cls, grid, values):
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size != grid.n_cells:
            raise ConfigError(
                f"permeability has {values.size} values, grid has {grid.n_cells} cells")
        bad = np.flatnonzero(~np.isfinite(values) | (values <= 0.0))
        if bad.size:
            raise RasterFormatError(
                f"non-positive or non-finite permeability at record {bad[0]}")
        return cls(grid, values / values.min())


@dataclass(frozen=True)
class WeightField:
    """Cellwise spectral weight: permeability times the summed squared
    gradients of the partition-of-unity hats, averaged per cell."""

    grid: FineGrid
    values: np.ndarray


def compute_weight(perm, pou):
    """Weight field for the local spectral problems."""
    if pou.coarse.fine != perm.grid:
        raise ConfigError("permeability and partition of unity use different grids")
    return WeightField(perm.grid, perm.values * pou.gradsq_cell_avg)


def load_raster(path):
    """Read a permeability raster, rescaling so min = 1."""
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise RasterFormatError(f"{path}: missing grid header")
    try:
        nx, ny = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise RasterFormatError(f"{path}: malformed grid header {tokens[:2]}")
    if nx != ny:
        raise ConfigError(f"{path}: only square grids are supported, got {nx}x{ny}")
    body = tokens[2:]
    if len(body) != nx * ny:
        raise RasterFormatError(
            f"{path}: expected {nx * ny} values, found {len(body)}")
    values = np.empty(nx * ny)
    for k, tok in enumerate(body):
        try:
            values[k] = float(tok)
        except ValueError:
            raise RasterFormatError(f"{path}: malformed record {k}: {tok!r}")
    grid = FineGrid(nx, ny)
    try:
        return PermField.from_raw(grid, values)
    except RasterFormatError as exc:
        raise RasterFormatError(f"{path}: {exc}")


def save_raster(perm, path):
    """Write a raster that load_raster reads back bit-exactly."""
    with open(path, "w") as fh:
        fh.write(f"{perm.grid.nx} {perm.grid.ny}\n")
        for v in perm.values:
            fh.write(f"{v:.17g}\n")


@dataclass(frozen=True)
class Strip:
    """Axis-aligned channel strip in domain coordinates.

    `axis` is "h" for a horizontal channel (constant-y band) or "v" for a
    vertical one; `lo` is the transverse lower edge, `span` the extent in
    the long direction. The strip multiplies the background by `multiplier`.
    """

    axis: str
    lo: float
    thickness: float
    span: tuple = (0.0, 1.0)
    multiplier: float = 1e4


@dataclass(frozen=True)
class Block:
    """Rectangular inclusion in domain coordinates ((x, y) lower-left)."""

    x: float
    y: float
    w: float
    h: float
    multiplier: float = 1e4


@dataclass(frozen=True)
class MediumSpec:
    """Explicit layout: channel strips plus inclusion blocks on a uniform
    background. When `coarse_n` and `max_channels_per_element` are set,
    rasterization fails if any coarse element is crossed by more channels
    than the cap allows.
    """

    strips: tuple = ()
    blocks: tuple = ()
    background: float = 1.0
    coarse_n: int = 0
    max_channels_per_element: int = 0


def _cells(lo, hi, n, what):
    """Snap a domain-coordinate interval to a half-open fine cell range."""
    if not (0.0 <= lo < hi <= 1.0 + 1e-12):
        raise ConfigError(f"{what} extent [{lo}, {hi}] not inside [0,1]")
    a = int(round(lo * n))
    b = int(round(hi * n))
    if b <= a:
        b = a + 1
    return max(a, 0), min(b, n)


def _strip_cells(strip, n):
    if strip.axis not in ("h", "v"):
        raise ConfigError(f"strip axis must be 'h' or 'v', got {strip.axis!r}")
    t0, t1 = _cells(strip.lo, strip.lo + strip.thickness, n, "strip")
    s0, s1 = _cells(strip.span[0], strip.span[1], n, "strip span")
    return t0, t1, s0, s1


def generate_medium(spec, grid):
    """Rasterize a MediumSpec on a fine grid."""
    nx, ny = grid.nx, grid.ny
    if spec.background <= 0:
        raise ConfigError(f"background must be positive, got {spec.background}")
    if spec.coarse_n and nx % spec.coarse_n != 0:
        raise ConfigError(f"coarse_n={spec.coarse_n} does not divide nx={nx}")
    values = np.full((ny, nx), spec.background)
    rects = []
    for strip in spec.strips:
        if strip.multiplier < 1:
            raise ConfigError(f"strip multiplier {strip.multiplier} below 1")
        if strip.axis == "h":
            j0, j1, i0, i1 = _strip_cells(strip, ny)
        else:
            i0, i1, j0, j1 = _strip_cells(strip, nx)
        rects.append((i0, i1, j0, j1))
        values[j0:j1, i0:i1] = np.maximum(values[j0:j1, i0:i1],
                                          spec.background * strip.multiplier)

    for blk in spec.blocks:
        if blk.multiplier < 1:
            raise ConfigError(f"block multiplier {blk.multiplier} below 1")
        i0, i1 = _cells(blk.x, blk.x + blk.w, nx, "block")
        j0, j1 = _cells(blk.y, blk.y + blk.h, ny, "block")
        values[j0:j1, i0:i1] = np.maximum(values[j0:j1, i0:i1],
                                          spec.background * blk.multiplier)

    if spec.coarse_n and spec.max_channels_per_element:
        r = nx // spec.coarse_n
        for J in range(spec.coarse_n):
            for I in range(spec.coarse_n):
                n_cross = sum(1 for i0, i1, j0, j1 in rects
                              if i0 < (I + 1) * r and i1 > I * r
                              and j0 < (J + 1) * r and j1 > J * r)
                if n_cross > spec.max_channels_per_element:
                    raise ConfigError(
                        f"element ({I},{J}) crossed by {n_cross} channels, "
                        f"cap is {spec.max_channels_per_element}")

    return PermField.from_raw(grid, values.ravel())


def sample_spec(n, n_horizontal=0, n_vertical=0, n_inclusions=0,
                contrast_lo=1e4, contrast_hi=1e4, seed=0, background=1.0,
                thickness_cells=3, inclusion_cells=2, min_gap_cells=2,
                h_band=(0.0, 1.0), v_band=(0.0, 1.0), coarse_n=0,
                max_channels_per_element=0):
    """Draw an explicit layout from counts and placement bands.

    Channels span the whole domain in their long direction, with
    transverse positions sampled inside the band on the n-cell lattice;
    disjointness is enforced with `min_gap_cells`. Inclusions stay clear
    of channel strips (whole coarse rows/columns when `coarse_n` is set)
    so each forms its own connected component. Contrast multipliers are
    drawn log-uniformly from [contrast_lo, contrast_hi].
    """
    if contrast_lo < 1 or contrast_hi < contrast_lo:
        raise ConfigError(f"bad contrast range [{contrast_lo}, {contrast_hi}]")
    if background <= 0:
        raise ConfigError(f"background must be positive, got {background}")
    for name, band in (("h_band", h_band), ("v_band", v_band)):
        if not (0.0 <= band[0] < band[1] <= 1.0):
            raise ConfigError(f"{name} {band} not inside [0,1]")
    if coarse_n and n % coarse_n != 0:
        raise ConfigError(f"coarse_n={coarse_n} does not divide n={n}")

    rng = np.random.default_rng(seed)
    t = thickness_cells

    def contrast():
        return float(np.exp(rng.uniform(np.log(contrast_lo), np.log(contrast_hi))))

    def place_strips(count, band, what):
        lo = int(np.ceil(band[0] * n - 1e-12))
        hi = int(np.floor(band[1] * n + 1e-12))
        if hi - lo < t:
            raise ConfigError(f"{what} band {band} too narrow for {t} cells")
        placed = []
        for _ in range(count):
            for _attempt in range(_MAX_PLACEMENT_ATTEMPTS):
                j0 = int(rng.integers(lo, hi - t + 1))
                if all(j0 + t + min_gap_cells <= p or p + t + min_gap_cells <= j0
                       for p in placed):
                    placed.append(j0)
                    break
            else:
                raise ConfigError(f"could not place {count} disjoint {what} "
                                  f"channels in band cells [{lo},{hi})")
        return placed

    axis_rows = place_strips(n_horizontal, h_band, "horizontal") if n_horizontal else []
    axis_cols = place_strips(n_vertical, v_band, "vertical") if n_vertical else []
    strips = tuple(
        [Strip("h", j0 / n, t / n, multiplier=contrast()) for j0 in axis_rows]
        + [Strip("v", i0 / n, t / n, multiplier=contrast()) for i0 in axis_cols])

    # inclusions avoid channel strips; with a coarse grid given the exclusion
    # widens to whole coarse rows/columns so no element mixes an inclusion
    # with a channel
    blocks = []
    if n_inclusions:
        s = inclusion_cells
        if s > n:
            raise ConfigError(f"inclusion size {s} exceeds grid")
        r = n // coarse_n if coarse_n else 0

        def banned(j0):
            if r:
                lo = (j0 // r) * r
                return lo, lo + r
            return j0, j0 + t

        banned_rows = [banned(j0) for j0 in axis_rows]
        banned_cols = [banned(i0) for i0 in axis_cols]
        for _ in range(n_inclusions):
            for _attempt in range(_MAX_PLACEMENT_ATTEMPTS):
                i0 = int(rng.integers(0, n - s + 1))
                j0 = int(rng.integers(0, n - s + 1))
                if any(j0 < b and j0 + s > a for a, b in banned_rows):
                    continue
                if any(i0 < b and i0 + s > a for a, b in banned_cols):
                    continue
                break
            else:
                raise ConfigError("could not place inclusions clear of channels")
            blocks.append(Block(i0 / n, j0 / n, s / n, s / n, contrast()))

    return MediumSpec(strips=strips, blocks=tuple(blocks), background=background,
                      coarse_n=coarse_n, max_channels_per_element=max_channels_per_element)


def _two_floats(text):
    a, b = text.split()
    return float(a), float(b)


def spec_from_mapping(mapping, n):
    """Build a sampled layout from a string-valued mapping (a parsed config
    section); `n` is the fine grid size the cell-unit keys refer to."""
    ints = ("n_horizontal", "n_vertical", "n_inclusions", "seed",
            "thickness_cells", "inclusion_cells", "min_gap_cells",
            "coarse_n", "max_channels_per_element")
    floats = ("contrast_lo", "contrast_hi", "background")
    bands = ("h_band", "v_band")
    kinds = ((ints, int, "an integer"), (floats, float, "a float"),
             (bands, _two_floats, "two floats"))
    kw = {}
    for keys, cast, wants in kinds:
        for key in keys:
            if key in mapping:
                try:
                    kw[key] = cast(mapping[key])
                except ValueError:
                    raise ConfigError(f"{key} wants {wants}, got {mapping[key]!r}") from None
    known = set(ints) | set(floats) | set(bands)
    unknown = set(mapping) - known
    if unknown:
        raise ConfigError(f"unknown medium keys: {sorted(unknown)}")
    return sample_spec(n, **kw)


def three_channel_spec(contrast=1e4):
    """Fixed benchmark medium on a 128-cell lattice: two horizontal channels
    joined by a vertical one in the lower-left region, one small dense block
    inside each of the two source/sink corner elements of an 8x8 coarse
    grid, and two isolated blocks in otherwise homogeneous elements. Block
    positions are chosen so each stays interior to a single coarse element
    for coarse sizes 8, 16 and 32."""
    n = 128.0
    if contrast < 1:
        raise ConfigError(f"contrast {contrast} below 1")
    strips = (
        Strip("h", 11 / n, 3 / n, span=(0.0, 90 / n), multiplier=contrast),
        Strip("h", 6 / n, 3 / n, span=(38 / n, 106 / n), multiplier=contrast),
        Strip("v", 3 / n, 3 / n, span=(13 / n, 104 / n), multiplier=contrast),
    )
    blocks = (
        Block(1 / n, 113 / n, 2 / n, 2 / n, contrast),
        Block(125 / n, 13 / n, 2 / n, 2 / n, contrast),
        Block(41 / n, 73 / n, 2 / n, 2 / n, contrast),
        Block(89 / n, 105 / n, 2 / n, 2 / n, contrast),
    )
    return MediumSpec(strips=strips, blocks=blocks, coarse_n=8,
                      max_channels_per_element=2)
