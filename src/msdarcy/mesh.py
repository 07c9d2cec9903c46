"""Uniform rectangular grids on the unit square.

Provides the fine grid (cells and edges with a fixed global numbering),
the coarse grid of square elements, oversampled rectangular regions,
the bilinear partition of unity on coarse nodes, and nodal cutoff fields.

Numbering conventions, used everywhere downstream:

* cells: ``cell(ix, iy) = iy*nx + ix`` (row-major, bottom row first),
* vertical edges (unit normal +x): ``vedge(i, j) = j*(nx+1) + i`` with
  ``i`` the x-line index in ``0..nx`` and ``j`` the cell row,
* horizontal edges (unit normal +y): ``hedge(i, j) = n_vedges + j*nx + i``
  with ``j`` the y-line index in ``0..ny``,
* fine nodes: ``node(ix, iy) = iy*(nx+1) + ix``.

Edge degrees of freedom are signed fluxes with respect to the +x/+y
normals, so a velocity field is a single vector indexed by global edge id.
"""

from dataclasses import dataclass

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

    @property
    def n_nodes(self):
        return (self.nx + 1) * (self.ny + 1)

    def cell_id(self, ix, iy):
        return np.asarray(iy) * self.nx + np.asarray(ix)

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

    def cell_centers(self, cells=None):
        if cells is None:
            cells = np.arange(self.n_cells)
        ix, iy = self.cell_ix_iy(cells)
        return (ix + 0.5) * self.h, (iy + 0.5) * self.h


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

    @property
    def n_nodes(self):
        return (self.Nx + 1) * (self.Ny + 1)

    def element_id(self, I, J):
        return np.asarray(J) * self.Nx + np.asarray(I)

    def element_IJ(self, e):
        e = np.asarray(e)
        return e % self.Nx, e // self.Nx

    def element_cells(self, e):
        """Global fine-cell ids of element e, sorted ascending."""
        I, J = self.element_IJ(e)
        r = self.r
        ix = I * r + np.arange(r)
        iy = J * r + np.arange(r)
        return (iy[:, None] * self.fine.nx + ix[None, :]).ravel()

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

    def all_edges(self):
        """Every edge of every cell in the region (region boundary included)."""
        g = self.fine
        iv = np.arange(self.i0, self.i1 + 1)
        jv = np.arange(self.j0, self.j1)
        ve = g.vedge_id(iv[None, :], jv[:, None]).ravel()
        ih = np.arange(self.i0, self.i1)
        jh = np.arange(self.j0, self.j1 + 1)
        he = g.hedge_id(ih[None, :], jh[:, None]).ravel()
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


def region_elements(coarse, region):
    """Ids of the coarse elements covering a region, ascending."""
    r = coarse.r
    I = np.arange(region.i0 // r, region.i1 // r)
    J = np.arange(region.j0 // r, region.j1 // r)
    return coarse.element_id(I[None, :], J[:, None]).ravel()


def interp_coarse_nodal(coarse, nodal):
    """Interpolate coarse nodal values bilinearly to all fine nodes.

    `nodal` has shape (Ny+1, Nx+1); the result has shape (ny+1, nx+1).
    """
    fine = coarse.fine
    r = coarse.r
    p = np.arange(fine.nx + 1)
    q = np.arange(fine.ny + 1)
    I = np.minimum(p // r, coarse.Nx - 1)
    J = np.minimum(q // r, coarse.Ny - 1)
    xi = (p - I * r) / r
    eta = (q - J * r) / r
    c00 = nodal[np.ix_(J, I)]
    c10 = nodal[np.ix_(J, I + 1)]
    c01 = nodal[np.ix_(J + 1, I)]
    c11 = nodal[np.ix_(J + 1, I + 1)]
    wx0 = (1.0 - xi)[None, :]
    wx1 = xi[None, :]
    wy0 = (1.0 - eta)[:, None]
    wy1 = eta[:, None]
    return wy0 * (wx0 * c00 + wx1 * c10) + wy1 * (wx0 * c01 + wx1 * c11)


class PartitionOfUnity:
    """Bilinear hat functions on coarse nodes, sampled on the fine grid.

    Exposes per-node hat samples and the per-fine-cell average of the
    summed squared hat gradients, which weights the spectral inner
    product downstream. The averages come from the closed-form integral
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

    def gradsq_at(self, x, y):
        """Pointwise sum of squared hat gradients at (x, y), cell interiors."""
        coarse = self.coarse
        H = coarse.H
        I = min(int(x / H), coarse.Nx - 1)
        J = min(int(y / H), coarse.Ny - 1)
        xi = x / H - I
        eta = y / H - J
        return (2.0 / (H * H)) * ((1 - xi) ** 2 + xi ** 2 + (1 - eta) ** 2 + eta ** 2)

    def hat_values(self, node):
        """Samples of the hat of coarse node `node` at all fine nodes, flat."""
        coarse = self.coarse
        nodal = np.zeros((coarse.Ny + 1, coarse.Nx + 1))
        nodal[node // (coarse.Nx + 1), node % (coarse.Nx + 1)] = 1.0
        return interp_coarse_nodal(coarse, nodal).ravel()

    def node_sum(self):
        """Sum of all hats at every fine node (should be identically one)."""
        coarse = self.coarse
        ones = np.ones((coarse.Ny + 1, coarse.Nx + 1))
        return interp_coarse_nodal(coarse, ones).ravel()


def bilinear_pou(coarse):
    """Partition of unity from the bilinear hats of the coarse grid."""
    return PartitionOfUnity(coarse)


@dataclass(frozen=True)
class CutoffField:
    """Piecewise-bilinear cutoff around one coarse element.

    Equal to 1 on the m-ring neighborhood of the element, 0 outside the
    M-ring neighborhood, interpolated linearly in the ring distance in
    between, then expanded to fine nodes.
    """

    coarse: CoarseGrid
    element: int
    outer: int
    inner: int
    coarse_values: np.ndarray
    fine_values: np.ndarray

    def max_gradient(self):
        """Largest gradient magnitude over the domain.

        The field is bilinear per fine cell, so each gradient component is
        linear in the transverse coordinate and the maximum magnitude over
        a cell is attained at its corners.
        """
        fine = self.coarse.fine
        V = self.fine_values.reshape(fine.ny + 1, fine.nx + 1)
        h = fine.h
        dx = np.diff(V, axis=1) / h
        dy = np.diff(V, axis=0) / h
        dx2 = np.maximum(dx[:-1, :] ** 2, dx[1:, :] ** 2)
        dy2 = np.maximum(dy[:, :-1] ** 2, dy[:, 1:] ** 2)
        return float(np.sqrt((dx2 + dy2).max()))


def cutoff_field(coarse, e, outer, inner):
    """Cutoff for element e: 1 within `inner` rings, 0 beyond `outer` rings."""
    if not (outer > inner >= 0):
        raise ConfigError(f"need outer > inner >= 0, got outer={outer} inner={inner}")
    I, J = coarse.element_IJ(e)
    a = np.arange(coarse.Nx + 1)
    b = np.arange(coarse.Ny + 1)
    dist_x = np.maximum.reduce([int(I) - a, a - (int(I) + 1), np.zeros_like(a)])
    dist_y = np.maximum.reduce([int(J) - b, b - (int(J) + 1), np.zeros_like(b)])
    t = np.maximum(dist_x[None, :], dist_y[:, None])
    vals = np.clip((outer - t) / (outer - inner), 0.0, 1.0)
    fine_vals = interp_coarse_nodal(coarse, vals).ravel()
    return CutoffField(coarse, int(e), outer, inner, vals, fine_vals)
