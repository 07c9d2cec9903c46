"""Uniform rectangular grids on the unit square.

Provides the fine grid (cells and edges with a fixed global numbering),
the coarse grid of square elements with the fine unknowns of each
element, oversampled rectangular regions, and the bilinear partition of
unity on coarse nodes.

Numbering conventions, used everywhere downstream:

* cells: ``cell(ix, iy) = iy*nx + ix`` (row-major, bottom row first),
* vertical edges (unit normal +x): ``vedge(i, j) = j*(nx+1) + i`` with
  ``i`` the x-line index in ``0..nx`` and ``j`` the cell row,
* horizontal edges (unit normal +y): ``hedge(i, j) = n_vedges + j*nx + i``
  with ``j`` the y-line index in ``0..ny``,
* fine nodes: ``node(ix, iy) = iy*(nx+1) + ix``.

Edge degrees of freedom are signed fluxes with respect to the +x/+y
normals, so a velocity field is a single vector indexed by global edge id.

The grids are frozen and hashable. Index tables that depend on the grids
alone are memoized per grid with `functools.cache` and returned
read-only (`read_only`): here `element_layout`, elsewhere the element
lines of `auxspace`, the macro-cell tables of `fem` and the region
templates of `basis`. Anything that depends on the permeability, the
source or the basis coefficients is built per call.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class FineGrid:
    """Uniform nx-by-ny grid of square cells on [0,1]^2 (nx == ny)."""

    nx: int
    ny: int

    @property
    def h(self):
        return 1.0 / self.nx

    @property
    def n_cells(self):
        return self.nx * self.ny

    @property
    def n_vedges(self):
        return (self.nx + 1) * self.ny

    @property
    def n_hedges(self):
        return self.nx * (self.ny + 1)

    @property
    def n_edges(self):
        return self.n_vedges + self.n_hedges

    def cell_ix_iy(self, cells):
        cells = np.asarray(cells)
        return cells % self.nx, cells // self.nx

    def vedge_id(self, i, j):
        return np.asarray(j) * (self.nx + 1) + np.asarray(i)

    def hedge_id(self, i, j):
        return self.n_vedges + np.asarray(j) * self.nx + np.asarray(i)

    def cell_edge_ids(self, cells):
        """Return (left, right, bottom, top) global edge ids for each cell."""
        ix, iy = self.cell_ix_iy(cells)
        left = self.vedge_id(ix, iy)
        right = self.vedge_id(ix + 1, iy)
        bottom = self.hedge_id(ix, iy)
        top = self.hedge_id(ix, iy + 1)
        return left, right, bottom, top

    def decode_edge(self, edges):
        """Return (kind, i, j) per edge; kind 0 = vertical, 1 = horizontal."""
        edges = np.asarray(edges)
        kind = (edges >= self.n_vedges).astype(np.int64)
        ev = edges
        i_v = ev % (self.nx + 1)
        j_v = ev // (self.nx + 1)
        eh = edges - self.n_vedges
        i_h = eh % self.nx
        j_h = eh // self.nx
        return kind, np.where(kind == 0, i_v, i_h), np.where(kind == 0, j_v, j_h)

    def edge_midpoint_key(self, edges):
        """Sort key that orders edges row by row in space: y2 * (2 nx + 2) +
        x2 for the doubled coordinates (x2, y2) of each edge's midpoint.
        In that order the edges of a row of cells lie within 2 nx of each
        other, so an operator coupling only the edges of one cell is a
        narrow band."""
        kind, i, j = self.decode_edge(edges)
        return (2 * j + 1 - kind) * (2 * self.nx + 2) + 2 * i + kind

    def boundary_edge_mask(self):
        """Boolean mask of edges lying on the boundary of the unit square."""
        mask = np.zeros(self.n_edges, dtype=bool)
        j = np.arange(self.ny)
        mask[self.vedge_id(0, j)] = True
        mask[self.vedge_id(self.nx, j)] = True
        i = np.arange(self.nx)
        mask[self.hedge_id(i, 0)] = True
        mask[self.hedge_id(i, self.ny)] = True
        return mask


@dataclass(frozen=True)
class CoarseGrid:
    """Nx-by-Ny grid of square elements, each an r-by-r block of fine cells."""

    fine: FineGrid
    Nx: int
    Ny: int

    @property
    def r(self):
        return self.fine.nx // self.Nx

    @property
    def H(self):
        return 1.0 / self.Nx

    @property
    def n_elements(self):
        return self.Nx * self.Ny

    def element_id(self, I, J):
        return np.asarray(J) * self.Nx + np.asarray(I)

    def element_IJ(self, e):
        e = np.asarray(e)
        return e % self.Nx, e // self.Nx

    def element_of_cell(self, cells):
        ix, iy = self.fine.cell_ix_iy(cells)
        return self.element_id(ix // self.r, iy // self.r)


def build_grids(nx, Nx):
    """Build consistent square fine and coarse grids.

    Raises ConfigError if the coarse grid does not evenly divide the fine
    one or the sizes are out of range.
    """
    if nx < 2:
        raise ConfigError(f"fine grid must have nx >= 2, got {nx}")
    if Nx < 1 or Nx > nx:
        raise ConfigError(f"coarse grid size {Nx} out of range for nx={nx}")
    if nx % Nx != 0:
        raise ConfigError(f"coarse grid {Nx} does not divide fine grid {nx}")
    fine = FineGrid(nx, nx)
    return fine, CoarseGrid(fine, Nx, Nx)


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangle of fine cells [i0,i1) x [j0,j1).

    Regions produced by oversampling remember their center element and
    layer count; the full-domain region and ad-hoc rectangles leave the
    coarse fields at -1.
    """

    fine: FineGrid
    i0: int
    i1: int
    j0: int
    j1: int
    center: int = -1
    layers: int = -1

    @property
    def shape(self):
        return self.i1 - self.i0, self.j1 - self.j0

    @property
    def n_cells(self):
        w, h = self.shape
        return w * h

    @property
    def is_full_domain(self):
        return (self.i0 == 0 and self.j0 == 0
                and self.i1 == self.fine.nx and self.j1 == self.fine.ny)

    def cells(self):
        """Global cell ids in the region, sorted ascending."""
        ix = np.arange(self.i0, self.i1)
        iy = np.arange(self.j0, self.j1)
        return (iy[:, None] * self.fine.nx + ix[None, :]).ravel()

    def interior_edges(self):
        """Edges strictly inside the region, sorted ascending.

        These carry the velocity unknowns for local problems with a no-flux
        condition on the region boundary.
        """
        g = self.fine
        iv = np.arange(self.i0 + 1, self.i1)
        jv = np.arange(self.j0, self.j1)
        ve = g.vedge_id(iv[None, :], jv[:, None]).ravel()
        ih = np.arange(self.i0, self.i1)
        jh = np.arange(self.j0 + 1, self.j1)
        he = g.hedge_id(ih[None, :], jh[:, None]).ravel()
        return np.sort(np.concatenate([ve, he]))

    def boundary_edges(self):
        """Edges on the region's boundary, sorted ascending."""
        g = self.fine
        jv = np.arange(self.j0, self.j1)
        ve = g.vedge_id(np.array([self.i0, self.i1])[None, :], jv[:, None]).ravel()
        ih = np.arange(self.i0, self.i1)
        he = g.hedge_id(ih[None, :], np.array([self.j0, self.j1])[:, None]).ravel()
        return np.sort(np.concatenate([ve, he]))


def full_domain(fine):
    """Region covering all of [0,1]^2."""
    return Region(fine, 0, fine.nx, 0, fine.ny)


def element_region(coarse, e):
    """Region of the single coarse element e."""
    return oversample_region(coarse, e, 0)


def oversample_region(coarse, e, layers):
    """Element e grown by `layers` rings of coarse elements, clipped to the domain."""
    if layers < 0:
        raise ConfigError(f"layer count must be >= 0, got {layers}")
    I, J = coarse.element_IJ(e)
    I0 = max(int(I) - layers, 0)
    I1 = min(int(I) + layers + 1, coarse.Nx)
    J0 = max(int(J) - layers, 0)
    J1 = min(int(J) + layers + 1, coarse.Ny)
    r = coarse.r
    return Region(coarse.fine, I0 * r, I1 * r, J0 * r, J1 * r,
                  center=int(e), layers=layers)


def read_only(*arrays):
    """The arrays, marked read-only: a memoized table is shared by every
    caller, so none may write to it."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@cache
def element_layout(coarse):
    """Every element's interior edges, cells and 4r boundary edges.

    Returns three read-only arrays with one row per element, each row
    ascending: row e of the first two equals `element_region(coarse, e)`'s
    `interior_edges()` and `cells()`, and the third holds the edges on the
    element's boundary. Memoized per grid.
    """
    grid = coarse.fine
    r = coarse.r
    # every element is element 0 shifted: cells and edges of each kind
    # move by the element's offset in the fine grid
    region = element_region(coarse, 0)
    edges = np.unique(np.concatenate(grid.cell_edge_ids(region.cells())))
    on_interior = np.isin(edges, region.interior_edges(), assume_unique=True)
    I, J = coarse.element_IJ(np.arange(coarse.n_elements))
    shift_v = (J * r * (grid.nx + 1) + I * r)[:, None]
    shift_h = (J * r * grid.nx + I * r)[:, None]
    all_edges = edges + np.where(edges < grid.n_vedges, shift_v, shift_h)
    return read_only(all_edges[:, on_interior], region.cells() + shift_h,
                     all_edges[:, ~on_interior])


def region_elements(coarse, region):
    """Ids of the coarse elements covering a region, ascending."""
    r = coarse.r
    I = np.arange(region.i0 // r, region.i1 // r)
    J = np.arange(region.j0 // r, region.j1 // r)
    return coarse.element_id(I[None, :], J[:, None]).ravel()


class PartitionOfUnity:
    """Bilinear hat functions on coarse nodes, seen on the fine grid.

    Exposes the per-fine-cell average of the summed squared hat
    gradients, which weights the spectral inner product downstream. The averages come from the closed-form integral
    of the four bilinear hats supported on each element, evaluated per
    fine cell, so no quadrature error enters.
    """

    def __init__(self, coarse):
        self.coarse = coarse
        self.gradsq_cell_avg = self._gradsq_averages()

    def _gradsq_averages(self):
        coarse = self.coarse
        fine = coarse.fine
        r = coarse.r
        H = coarse.H

        # exact average of (1-t)^2 + t^2 over the k-th of r subintervals
        def seg(k):
            k2 = r - 1 - k
            return ((3 * k * k + 3 * k + 1) + (3 * k2 * k2 + 3 * k2 + 1)) / (3.0 * r * r)

        seg_avg = np.array([seg(k) for k in range(r)])
        ix = np.arange(fine.nx) % r
        iy = np.arange(fine.ny) % r
        gx = seg_avg[ix]
        gy = seg_avg[iy]
        return (2.0 / (H * H)) * (gx[None, :] + gy[:, None]).ravel()


def bilinear_pou(coarse):
    """Partition of unity from the bilinear hats of the coarse grid."""
    return PartitionOfUnity(coarse)
