"""Lowest-order mixed discretization on rectangular grids.

Velocities are edge-normal fluxes (one unknown per edge, +x/+y normals),
pressures are constant per cell. On a region, velocity unknowns live on
the region-interior edges only, which imposes the no-flux condition on
the region (and domain) boundary.

Every fine-scale flux mass reads one set of per-cell entries
(`mass_triplets`): `auxspace`'s element kernels, the whole-domain
solves' residuals and `basis`'s regions.

The basis functions' region systems are instances of one symmetric
indefinite template over unknowns (u, p[, y]):

    A u - B^T p       = rhs_v
    B u + C y         = rhs_p
    C^T p - Y y       = rhs_c

where A is the weighted flux mass matrix, B the signed divergence, C the
coupling block of the energy-minimization constraint and Y a diagonal
(`basis.CondensedElements`: ones for `type2`, zeros for `type1`). The
second and third block rows are negated, so the matrix

    [ A   -B^T   0  ]
    [-B    0    -C  ]
    [ 0   -C^T   Y  ]

is symmetric, with right-hand side (rhs_v, -rhs_p, -rhs_c). A region's
system is written with those signs, value by value, from its template
(`basis._RegionTemplate`).

The fine reference and the snapshot have no C block, and they are
solved by hybridization (`_solve_whole_domain`): each cell's fluxes are
its own, an edge multiplier enforces the flux continuity between the two
cells of an interior edge, and the cells are eliminated, which leaves a
symmetric positive semidefinite system on the multipliers alone. One
level of nested dissection follows: each 2x2 macro-cell eliminates its
four inner multipliers, so only the multipliers on macro-cell
boundaries, half of them, reach the band. The pressure is fixed only up
to a constant, which one pinned multiplier fixes; it is then shifted to
zero mean.

Every band in the package is written, factored and solved here alone:
`band_matrix` writes it at the positions `lower_band_positions` or
`general_band_positions` give; `band_cholesky` and `band_solve` factor
and solve the symmetric positive definite ones (the macro-boundary
multipliers, the region skeletons and the coarse velocity block, each
ordered row by row in space), `band_lu` and `band_lu_solve` the pinned
coarse divergence block. `check_memory` refuses, before they are made,
the factors that would not fit in physical memory.

The macro-cell tables of the whole-domain solve depend on the grid
alone, so they are memoized per grid and read-only: the layout and band
size (`_macro_layout`, small, read before the memory check) and the
slots, unit-cell codes and scatter maps derived from it
(`_macro_tables`). The cell blocks, the band and its factor depend on
the permeability and are made per call.
"""

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpbtrf, dpbtrs

from .errors import ConfigError, SolveError
from .mesh import read_only


@dataclass(frozen=True)
class VelocityDofMap:
    """Sorted region-interior edges carrying the velocity unknowns. Only
    `perfbench/run.py` reads it; the package reads `Region.interior_edges`."""

    edges: np.ndarray

    @property
    def n_dofs(self):
        return self.edges.size


def velocity_dofmap(region):
    return VelocityDofMap(region.interior_edges())


def mass_triplets(grid, cells, kappa):
    """COO triplets of the kappa^-1-weighted flux mass matrix over `cells`,
    in global edge numbering."""
    L, R, B, T = grid.cell_edge_ids(cells)
    h2 = grid.h * grid.h
    c1 = h2 / (3.0 * kappa)
    c2 = h2 / (6.0 * kappa)
    rows = np.concatenate([L, R, L, R, B, T, B, T])
    cols = np.concatenate([L, R, R, L, B, T, T, B])
    vals = np.concatenate([c1, c1, c2, c2, c1, c1, c2, c2])
    return rows, cols, vals


def divergence_matrix(grid):
    """Signed cell-boundary flux sums: row c has +h on right/top edges and
    -h on left/bottom edges, so (Bv)_c equals the integral of div v over c."""
    cells = np.arange(grid.n_cells)
    L, R, B, T = grid.cell_edge_ids(cells)
    h = grid.h
    rows = np.tile(cells, 4)
    cols = np.concatenate([R, L, T, B])
    vals = np.concatenate([np.full(cells.size, h), np.full(cells.size, -h),
                           np.full(cells.size, h), np.full(cells.size, -h)])
    return sp.coo_matrix((vals, (rows, cols)),
                         shape=(grid.n_cells, grid.n_edges)).tocsr()


def band_cholesky(band):
    """The Cholesky factor of the symmetric positive definite matrix A
    whose lower band `band` holds in LAPACK storage: band[i - j, j] =
    A[i, j] for 0 <= i - j <= kd. A Fortran-ordered `band` is overwritten
    by the factor. Raises LinAlgError unless A is positive definite:
    Cholesky succeeds exactly when every symmetric pivot is positive."""
    factor, info = dpbtrf(band, lower=1, overwrite_ab=1)
    if info:
        raise np.linalg.LinAlgError(f"pivot {info} of {band.shape[1]} is not positive")
    return factor


def band_solve(factor, b):
    """A^-1 b from the factor `band_cholesky` returned."""
    return dpbtrs(factor, b, lower=1)[0]


def band_lu(band):
    """The LU factor, with row pivots, of the square matrix whose general
    band (`general_band_positions`) `band` holds; a Fortran-ordered `band`
    is overwritten. Raises LinAlgError if a pivot is zero."""
    kl = (band.shape[0] - 1) // 3
    lu, piv, info = dgbtrf(band, kl, kl, overwrite_ab=1)
    if info:
        raise np.linalg.LinAlgError(f"pivot {info} of {band.shape[1]} is zero")
    return lu, piv, kl


def band_lu_solve(factor, b, trans=0):
    """A^-1 b, or A^-T b for `trans` 1, from the factor `band_lu` returned."""
    lu, piv, kl = factor
    return dgbtrs(lu, kl, kl, b, piv, trans=trans)[0]


def band_half_width(matrix):
    """The largest |i - j| over the stored entries (i, j) of a CSR or CSC
    `matrix`, read off its index arrays without a copy of its values."""
    major = np.repeat(np.arange(matrix.indptr.size - 1, dtype=matrix.indices.dtype),
                      np.diff(matrix.indptr))
    return int(np.abs(matrix.indices - major).max(initial=0))


def _band_positions(minor, major, ld, n):
    """minor + ld * major in place in `minor`, as int64 where ld * n does
    not fit the index type. `major` is overwritten."""
    if ld * n > np.iinfo(minor.dtype).max:
        minor, major = minor.astype(np.int64), major.astype(np.int64)
    major *= ld
    minor += major
    return minor


def lower_band_positions(i, j, n, kd=0):
    """The flat positions of the entries (i, j) of a symmetric matrix in
    its (kd + 1) x n lower band, row |i - j| of column min(i, j), and kd,
    raised to the largest |i - j|."""
    offset = np.abs(i - j)
    kd = max(kd, int(offset.max(initial=0)))
    return _band_positions(offset, np.minimum(i, j), kd + 1, n), kd


def general_band_positions(i, j, n):
    """The flat positions of the entries (i, j) of a matrix in its general
    band of half-width kl, the largest |i - j|: row 2 kl + i - j of column
    j in 3 kl + 1 rows, the top kl for the row pivots' fill; and kl."""
    offset = i - j
    kl = int(max(offset.max(initial=0), -offset.min(initial=0)))
    offset += 2 * kl
    return _band_positions(offset, j.copy(), 3 * kl + 1, n), kl


def band_matrix(positions, values, ld, n):
    """The Fortran-ordered ld x n band whose flat (column-major) position p
    holds the sum of the `values` at `positions` p, in their order;
    positions from ld * n on are dropped."""
    return np.bincount(positions, values, minlength=ld * n)[:ld * n].reshape(ld, n, order="F")


@dataclass(frozen=True)
class FineSolution:
    """Whole-domain solve on the fine grid (the fine reference or a
    snapshot): per-edge fluxes, zero on the boundary edges, and per-cell
    pressures with zero mean."""

    grid: object
    v: np.ndarray
    p: np.ndarray


def check_memory(need, what):
    """Raise ConfigError if `need` bytes exceed the physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(
            f"{what} needs about {need / 2**30:.1f} GiB for its factors, more "
            f"than the {have / 2**30:.1f} GiB of physical memory")


def check_source(f, grid):
    """`f` as per-cell source averages on `grid`, refused unless it holds
    one value per cell and integrates to zero (to 1e-12 of its scale)."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (grid.n_cells,):
        raise ConfigError(f"source has shape {f.shape}, the {grid.nx}x{grid.ny} grid "
                          f"has {grid.n_cells} cells")
    total, scale = float(np.sum(f)) * grid.h ** 2, float(np.sum(np.abs(f))) * grid.h ** 2
    if abs(total) > 1e-12 * max(scale, 1.0):
        raise ConfigError(f"source must have zero mean, integral is {total:.3e}")
    return f


# a cell's four edges: left, right, bottom and top. _SIGN holds each edge's
# sign in the cell's divergence, _SWAP the other edge of its pair
_SIGN = np.array([-1.0, 1.0, -1.0, 1.0])
_SWAP = [1, 0, 3, 2]


def _unit_cells():
    """The block inverse of the unit cell (h = kappa = 1, so A has 1/3 on
    its diagonal and 1/6 in its pairs) for each set of interior edges,
    bit e of the set's index standing for edge e: the diagonal and pair
    coupling of A^-1, w = A^-1 b, s = b^T w and S X_uu S. They are
    computed exactly and rounded once, so each row of S X_uu S sums to
    zero, as the constants' null vector of H needs, up to one rounding
    per entry. The empty set, a 1x1 grid's, stays zero."""
    Ad, Ao, w = (np.zeros((16, 4)) for _ in range(3))
    s, G = np.zeros(16), np.zeros((16, 4, 4))
    for unit in range(1, 16):
        m = [(unit >> e) & 1 for e in range(4)]
        inv = [[Fraction(0)] * 4 for _ in range(4)]
        for i, j in ((0, 1), (2, 3)):
            det = Fraction(1, 9) - Fraction(m[i] * m[j], 36)
            inv[i][i], inv[j][j] = m[i] / (3 * det), m[j] / (3 * det)
            inv[i][j] = inv[j][i] = -m[i] * m[j] / (6 * det)
        sg = [int(_SIGN[e]) * m[e] for e in range(4)]
        w_u = [-sum(inv[i][j] * sg[j] for j in range(4)) for i in range(4)]
        s_u = -sum(sg[i] * w_u[i] for i in range(4))
        Ad[unit] = [inv[e][e] for e in range(4)]
        Ao[unit] = [inv[e][_SWAP[e]] for e in range(4)]
        w[unit], s[unit] = w_u, s_u
        G[unit] = [[sg[i] * (inv[i][j] - w_u[i] * w_u[j] / s_u) * sg[j] for j in range(4)]
                   for i in range(4)]
    return Ad, Ao, w, s, G


_UNIT_AD, _UNIT_AO, _UNIT_W, _UNIT_S, _UNIT_G = _unit_cells()

# a 2x2 macro-cell's multipliers: its four inner edges (slots 0-3), then its
# eight outer edges (slots 4-11) in the order of the doubled-midpoint key.
# _MIDPOINT holds each slot's doubled midpoint (x2, y2) from the macro's
# lower-left corner, and row q of _QUADRANT the slots of the four edges of
# the macro's cell (q % 2, q // 2)
_MIDPOINT = np.array([(2, 1), (2, 3), (1, 2), (3, 2), (1, 0), (3, 0),
                      (0, 1), (4, 1), (0, 3), (4, 3), (1, 4), (3, 4)])
_QUADRANT = np.array([[6, 0, 4, 2], [0, 7, 5, 3], [8, 1, 2, 10], [1, 9, 3, 11]])
# the pairs (i, j), i >= j, of outer slots: in slot order, the lower band
_LOWER = np.tril_indices(8)
# the most refinement sweeps against the whole-domain residual
_SWEEPS = 6


@cache
def _macro_layout(grid):
    """The 2x2 macro-cells of `grid` and the band of their outer slots;
    inert padding cells complete the last row and column of an odd grid.

    Returns the doubled midpoint of every macro's slots as a row-major
    point of the (2 ny + 1) x (2 nx + 1) lattice (0, a vertex, where the
    slot is no interior edge) and whether the slot is an interior edge;
    the sorted points of all interior edges; the band rank of every outer
    slot (n where it is no multiplier); and the band's size n and
    half-width kd. Its arrays hold a few integers per cell, so the band's
    memory can be checked before anything larger is made. Memoized per
    grid, read-only."""
    nx, ny = grid.nx, grid.ny
    mx, my = -(-nx // 2), -(-ny // 2)
    x2 = 4 * np.arange(mx)[None, :, None] + _MIDPOINT[:, 0]
    y2 = 4 * np.arange(my)[:, None, None] + _MIDPOINT[:, 1]
    valid = ((0 < x2) & (x2 < 2 * nx) & (0 < y2) & (y2 < 2 * ny)).reshape(-1, 12)
    point = np.where(valid, (y2 * (2 * nx + 1) + x2).reshape(-1, 12), 0)
    lattice = np.zeros((2 * nx + 1) * (2 * ny + 1), dtype=bool)
    lattice[point[:, 4:]] = True
    lattice[0] = False
    n = int(np.count_nonzero(lattice))
    rank = np.where(valid[:, 4:], np.cumsum(lattice)[point[:, 4:]] - 1, n)
    kd = int((np.where(valid[:, 4:], rank, -1).max(axis=1) - rank.min(axis=1)).max(initial=0))
    lattice[point[:, :4]] = True
    lattice[0] = False
    return *read_only(point, valid, np.flatnonzero(lattice), rank), n, kd


@cache
def _macro_tables(grid):
    """The index tables of the whole-domain solve that `_macro_layout`
    fixes, memoized per grid, read-only: each cell edge's slot in the flat
    (macro, slot) numbering (`cslot`, cells x 4); each lower pair of outer
    slots' flat position in the (kd + 1) x n band
    (`lower_band_positions`), or past its end where either slot is no
    multiplier (`flat`, macros x 36); which cell edges are interior
    (`inner`), as the code of the cell's set of interior edges (`unit`,
    bit e for edge e) and as the edges' signs in the cell's divergence
    (`sign`); and each cell's 4 x 4 place in its macro's 12 x 12 block
    (`scatter`, cells x 16)."""
    nx = grid.nx
    _, valid, _, rank, n, kd = _macro_layout(grid)
    ix, iy = grid.cell_ix_iy(np.arange(grid.n_cells))
    macro = (iy // 2) * -(-nx // 2) + ix // 2
    cslot = 12 * macro[:, None] + _QUADRANT[2 * (iy % 2) + ix % 2]
    i, j = rank[:, _LOWER[0]], rank[:, _LOWER[1]]
    both = (i < n) & (j < n)
    flat = np.full(i.shape, n * (kd + 1))
    flat[both] = lower_band_positions(i[both], j[both], n, kd)[0]
    inner = valid.ravel()[cslot]
    unit = inner @ (1, 2, 4, 8)
    scatter = (12 * cslot[:, :, None] + cslot[:, None, :] % 12).reshape(grid.n_cells, -1)
    return read_only(cslot, flat, inner, unit, _SIGN * inner, scatter)


def _solve_whole_domain(perm, rhs_p, rtol, label):
    """The no-flux mixed problem on the whole fine grid with cell
    right-hand side `rhs_p` and a zero-mean pressure, by hybridization.

    Each cell K keeps its own fluxes u_K on its four edges and its
    pressure p_K, with the local block [[A_K, -B_K^T], [-B_K, 0]] of the
    template restricted to its interior edges (a boundary flux is zero).
    A multiplier lambda_e per interior edge enters the flux rows of both
    cells with the divergence sign s_Ke, and continuity reads
    sum_K s_Ke u_Ke = 0; the multipliers cancel in the sum of an edge's
    two flux rows, so the hybrid system has the template's solution.
    A_K is diagonal in 2x2 blocks, its (left, right) and (bottom, top)
    pairs, so with b = -B_K^T, w = A_K^-1 b and s = b^T w > 0 the block
    inverse is X_K = [[A_K^-1 - w w^T / s, w / s], [w^T / s, -1 / s]]:
    the unit cell's for the same interior edges (`_unit_cells`), scaled
    by kappa_K / h^2. Eliminating the cells leaves H lambda = g with
    H = sum_K S_K X_K,uu S_K: symmetric positive semidefinite, with the
    constants as its null vector. The multiplier with the largest
    diagonal of H (the first in key order) is pinned to zero, which
    removes that null vector. The mean of `rhs_p` is removed first, which
    makes g compatible.

    H is then condensed by one level of nested dissection. The cells are
    grouped into 2x2 macro-cells (inert padding cells complete the last
    row and column of an odd grid), and the four inner multipliers of a
    macro couple only to its own twelve, so each macro eliminates them,
    pivot by pivot as a Cholesky factor would. The Schur complements on
    the macro-boundary multipliers, ordered row by row in space
    (`mesh.FineGrid.edge_midpoint_key`), form a band of half-width
    2 nx - 1 over half of the multipliers, factored by `band_cholesky`.
    A solve condenses the right-hand side onto the band, solves it, and
    recovers the inner multipliers, then every cell's fluxes and
    pressure. Each edge's flux is read from its left or bottom cell, and
    the pressure is shifted to zero mean.

    Refinement sweeps against the residual of every interior-edge and
    cell row, summed from the cells' blocks, follow while each halves the
    residual and until it is zero. Raises ConfigError for a grid without
    interior edges or a band larger than physical memory, and SolveError
    if the band is not positive definite or the relative residual stays
    above rtol.
    """
    grid = perm.grid
    nx, ny, h = grid.nx, grid.ny, grid.h
    if grid.n_cells < 2:
        raise ConfigError(f"the {nx}x{ny} fine grid has no interior edge to solve on")
    point, valid, edge_points, rank, n, kd = _macro_layout(grid)
    check_memory(8 * n * (kd + 1), f"the {nx}x{ny} fine grid's band of {n} "
                 f"multipliers at half-width {kd}")
    n_macros = valid.shape[0]
    cslot, flat, inner, unit, sign, scatter = _macro_tables(grid)
    row, col = _LOWER

    # each cell's X_K, scaled from the unit cell's by a = kappa / h^2
    a = perm.values / (h * h)
    Ad, Ao = a[:, None] * _UNIT_AD[unit], a[:, None] * _UNIT_AO[unit]
    w, s = (a * h)[:, None] * _UNIT_W[unit], a * h * h * _UNIT_S[unit]

    def apply_X(y_u, y_p):
        """Every cell's X_K (y_u, y_p): its four fluxes and its pressure."""
        c = (y_p - np.sum(w * y_u, axis=1)) / s
        return Ad * y_u + Ao * y_u[:, _SWAP] + w * c[:, None], -c

    # every macro's 12x12 block of H; an inner slot that padding cells leave
    # without an edge is an identity row
    H = np.bincount(scatter.ravel(), (a[:, None, None] * _UNIT_G[unit]).ravel(),
                    minlength=144 * n_macros).reshape(-1, 12, 12)
    k = np.arange(12)
    H[:, k[:4], k[:4]] += ~valid[:, :4]
    # lambda = 0 at the pin: its rows and columns are zeroed in every macro
    # that holds it, with diagonals that sum to one, and so is its entry of
    # every g
    diag = np.bincount(point[valid], H[:, k, k][valid])
    pin = np.nonzero(point == edge_points[np.argmax(diag[edge_points])])
    H[pin[0], pin[1], :] = 0.0
    H[pin[0], :, pin[1]] = 0.0
    H[pin[0], pin[1], pin[1]] = 1.0 / pin[0].size
    # the inner multipliers eliminated pivot by pivot, as a Cholesky factor
    # would, keeping each pivot's row: the band holds the Schur complements
    pivots = np.empty((4, n_macros, 12))
    for j in range(4):
        pivots[j] = H[:, j]
        ratio = H[:, j + 1:, j] / H[:, j, j, None]
        H[:, j + 1:, j + 1:] -= ratio[:, :, None] * H[:, j, None, j + 1:]
    schur = H[:, 4:, 4:][:, row, col]
    # the blocks are freed before the band is made, which keeps the
    # solve's memory at the band's size plus the cells' and macros' rows
    del H
    band = band_matrix(flat.ravel(), schur.ravel(), kd + 1, n)
    del schur
    try:
        factor = band_cholesky(band)
    except np.linalg.LinAlgError as exc:
        raise SolveError(f"factorization failed for {label}: {exc}")

    def solve(f_u, f_p):
        """Flux per edge and pressure per cell of the hybrid system with
        the cell-local right-hand sides f_u (four per cell) and f_p."""
        y_u, _ = apply_X(f_u, f_p)
        g = np.bincount(cslot.ravel(), (sign * y_u).ravel(), minlength=12 * n_macros)
        g = g.reshape(n_macros, 12)
        g[pin] = 0.0
        for j, pivot in enumerate(pivots):
            g[:, j + 1:] -= pivot[:, j + 1:] * (g[:, j] / pivot[:, j])[:, None]
        lam = np.empty_like(g)
        lam[:, 4:] = np.append(band_solve(factor, np.bincount(
            rank.ravel(), g[:, 4:].ravel(), minlength=n + 1)[:n]), 0.0)[rank]
        for j in range(3, -1, -1):
            pivot = pivots[j]
            lam[:, j] = (g[:, j] - np.sum(pivot[:, j + 1:] * lam[:, j + 1:], axis=1)) / pivot[:, j]
        z_u, z_p = apply_X(f_u - sign * lam.ravel()[cslot], f_p)
        v = np.zeros(grid.n_edges)
        v[:grid.n_vedges].reshape(ny, nx + 1)[:, 1:] = z_u[:, 1].reshape(ny, nx)
        v[grid.n_vedges:].reshape(ny + 1, nx)[1:] = z_u[:, 3].reshape(ny, nx)
        return v, z_p

    rhs_p = rhs_p - np.mean(rhs_p)
    c1, _, c2 = mass_triplets(grid, np.arange(grid.n_cells), perm.values)[2].reshape(8, ny, nx)[:3]

    def residual(v, p):
        """The template's residual on every interior-edge and cell row, as
        cell-local right-hand sides (an edge's row goes to its left or
        bottom cell), and its norm."""
        V = v[:grid.n_vedges].reshape(ny, nx + 1)
        E = v[grid.n_vedges:].reshape(ny + 1, nx)
        left, right, bottom, top = V[:, :-1], V[:, 1:], E[:-1], E[1:]
        P = p.reshape(ny, nx)
        r_x, r_y = np.zeros((ny, nx + 1)), np.zeros((ny + 1, nx))
        r_x[:, :-1] += c1 * left + c2 * right
        r_x[:, 1:] += c2 * left + c1 * right
        r_y[:-1] += c1 * bottom + c2 * top
        r_y[1:] += c2 * bottom + c1 * top
        # the pressure jumps are taken before they meet the small flux terms:
        # the jump of two close pressures is exact, their sum with a flux
        # term is not
        r_x[:, 1:-1] += h * (P[:, 1:] - P[:, :-1])
        r_y[1:-1] += h * (P[1:] - P[:-1])
        r_x[:, [0, nx]] = 0.0
        r_y[[0, ny]] = 0.0
        r_p = rhs_p - h * (right - left + top - bottom).ravel()
        f_u = np.zeros((grid.n_cells, 4))
        f_u[:, 1], f_u[:, 3] = r_x[:, 1:].ravel(), r_y[1:].ravel()
        return f_u, r_p, np.sqrt(np.sum(r_x * r_x) + np.sum(r_y * r_y) + r_p @ r_p)

    v, p = solve(np.zeros((grid.n_cells, 4)), -rhs_p)
    f_u, f_p, res = residual(v, p)
    scale = np.linalg.norm(rhs_p)
    tol = rtol * scale if scale > 0 else rtol
    # refine while each sweep at least halves the residual, and at least
    # once unless it is zero: at high contrast the band is solved only to
    # the accuracy of its dominant rows, while the small divergence rows
    # carry the conservation identities, and a sweep that first meets rtol
    # can leave the solution off by more than rtol. A zero residual (a zero
    # source) leaves nothing to refine
    for _ in range(_SWEEPS):
        if res == 0:
            break
        dv, dp = solve(f_u, f_p)
        v, p = v - dv, p - dp
        prev = res
        f_u, f_p, res = residual(v, p)
        if res > prev / 2:
            break
    if res > tol:
        raise SolveError(
            f"residual {res:.3e} above tolerance {tol:.3e} for {label}", residual=res)
    return FineSolution(grid, v, p - np.mean(p))


def solve_fine_reference(perm, f, rtol=1e-10):
    """Solve the no-flux mixed problem on the whole fine grid.

    `f` holds per-cell source averages and must integrate to zero.
    """
    f = check_source(f, perm.grid)
    return _solve_whole_domain(perm, perm.grid.h ** 2 * f, rtol, "fine reference")


def manufactured_cospi(grid):
    """Smooth reference problem for convergence checks on kappa = 1.

    Returns (f, v, p): exact cell averages of the source and pressure and
    exact edge averages of the normal flux for

        p(x, y) = cos(pi x) cos(pi y),   v = -grad p,   div v = f.
    """
    nx, ny, h = grid.nx, grid.ny, grid.h
    sx = np.sin(np.pi * np.arange(nx + 1) * h)
    sy = np.sin(np.pi * np.arange(ny + 1) * h)
    dsx = np.diff(sx)
    dsy = np.diff(sy)

    f = 2.0 * (dsx[None, :] * dsy[:, None]).ravel() / (h * h)
    p = (dsx[None, :] * dsy[:, None]).ravel() / (np.pi * np.pi * h * h)

    v = np.zeros(grid.n_edges)
    i = np.arange(nx + 1)
    j = np.arange(ny)
    v[grid.vedge_id(i[None, :], j[:, None]).ravel()] = \
        (sx[None, :] * dsy[:, None]).ravel() / h
    i = np.arange(nx)
    j = np.arange(ny + 1)
    v[grid.hedge_id(i[None, :], j[:, None]).ravel()] = \
        (dsx[None, :] * sy[:, None]).ravel() / h
    return f, v, p


def _source_block(grid, g):
    """The cells per side of one block of a g x g partition of `grid`."""
    if g < 1:
        raise ConfigError(f"source grid must be >= 1, got {g}")
    if grid.nx % g != 0:
        raise ConfigError(f"source grid {g} does not divide nx={grid.nx}")
    return grid.nx // g


def corner_source(grid, g=8, amplitude=1.0):
    """Per-cell source `amplitude` in the top-left block of a g x g
    partition of `grid` and sink `-amplitude` in the bottom-right one."""
    b = _source_block(grid, g)
    f = np.zeros((grid.ny, grid.nx))
    f[(g - 1) * b:, :b] = amplitude
    f[:b, (g - 1) * b:] = -amplitude
    return f.ravel()
