"""Lowest-order mixed discretization on rectangular grids.

Velocities are edge-normal fluxes (one unknown per edge, +x/+y normals),
pressures are constant per cell. On a region, velocity unknowns live on
the region-interior edges only, which imposes the no-flux condition on
the region (and domain) boundary.

Every fine-scale block comes from one assembly. The flux mass matrix and
the divergence matrix are assembled once, over all edges and cells in
global numbering; a region's A and B are their rows and columns on its
interior edges and cells. The element kernels of `auxspace` read the
same per-cell triplets (`mass_triplets`) line by line.

The basis functions' region systems are instances of one symmetric
indefinite template over unknowns (u, p[, y]):

    A u - B^T p                       = rhs_v
    B u + C y                         = rhs_p
    C^T p - [y if identity_block]     = rhs_c

where A is the weighted flux mass matrix, B the signed divergence and C
the coupling block of the energy-minimization constraint. Rows are
sign-flipped on assembly (`saddle_matrix`) so the full matrix is
symmetric; a region's system is its rows and columns of the
whole-domain template matrix with C (`basis.CondensedElements`).

The fine reference and the snapshot have no C block, and they are
solved by hybridization (`_solve_whole_domain`): each cell's fluxes are
its own, an edge multiplier enforces the flux continuity between the two
cells of an interior edge, and the cells are eliminated, which leaves a
symmetric positive semidefinite system on the multipliers alone. Their
pressure is fixed only up to a constant, which one pinned multiplier
fixes; the pressure is then shifted to zero mean.

`band_cholesky` and `band_solve` factor and solve every symmetric
positive definite band in the package: the multipliers, the region
skeletons and the coarse velocity block, each ordered row by row in space
(`mesh.FineGrid.edge_midpoint_key` for the fine edges).
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .errors import ConfigError, SolveError


@dataclass(frozen=True)
class VelocityDofMap:
    """Sorted region-interior edges carrying the velocity unknowns."""

    edges: np.ndarray

    @property
    def n_dofs(self):
        return self.edges.size

    def scatter(self, u, n_edges):
        """Expand local dof values to a full per-edge vector (zeros elsewhere)."""
        full = np.zeros(n_edges)
        full[self.edges] = u
        return full


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


def mass_matrix(grid, perm):
    """Flux mass matrix over all edges (global numbering). Used for energy
    norms, Galerkin projection and, sliced, every fine-scale system;
    boundary edges are included."""
    rows, cols, vals = mass_triplets(grid, np.arange(grid.n_cells), perm.values)
    n = grid.n_edges
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


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


def saddle_matrix(A, B, C=None, identity_block=True):
    """The symmetric template matrix of the module docs over (u, p[, y])."""
    rows = [[A, -B.T], [-B, None]]
    if C is not None:
        k = C.shape[1]
        yy = sp.identity(k) if identity_block else sp.csr_matrix((k, k))
        rows[0].append(None)
        rows[1].append(-C)
        rows.append([None, -C.T, yy])
    return sp.bmat(rows, format="csc")


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


@dataclass(frozen=True)
class FineSolution:
    """Whole-domain solve on the fine grid (the fine reference or a
    snapshot): per-edge fluxes, zero on the boundary edges, and per-cell
    pressures with zero mean."""

    grid: object
    v: np.ndarray
    p: np.ndarray


def check_zero_mean(f, h2):
    total = float(np.sum(f) * h2)
    scale = float(np.sum(np.abs(f)) * h2)
    if abs(total) > 1e-12 * max(scale, 1.0):
        raise ConfigError(f"source must have zero mean, integral is {total:.3e}")


# a cell's local unknowns: its left, right, bottom and top fluxes, then its
# pressure. _SIGN holds each edge's sign in the cell's divergence, and
# _MASS_ROW/_MASS_COL place mass_triplets' eight values in the 4x4 block
_SIGN = np.array([-1.0, 1.0, -1.0, 1.0])
_MASS_ROW = [0, 1, 0, 1, 2, 3, 2, 3]
_MASS_COL = [0, 1, 1, 0, 2, 3, 3, 2]
# the most refinement sweeps against the whole-domain residual
_SWEEPS = 6


def _solve_whole_domain(perm, rhs_p, rtol, label):
    """The no-flux mixed problem on the whole fine grid with cell
    right-hand side `rhs_p` and a zero-mean pressure, by hybridization.

    Each cell K keeps its own fluxes u_K on its four edges and its
    pressure p_K, with the local block [[A_K, -B_K^T], [-B_K, 0]] of the
    template; a domain-boundary edge, whose flux is zero, is a decoupled
    identity row. A multiplier lambda_e per interior edge enters the
    flux rows of both cells with the divergence sign s_Ke, and continuity
    reads sum_K s_Ke u_Ke = 0; the multipliers cancel in the sum of an
    edge's two flux rows, so the hybrid system has the template's
    solution. Eliminating the cells through the inverses X_K of their
    blocks leaves H lambda = g with H = sum_K S_K X_K,uu S_K: symmetric
    positive semidefinite, with the constants as its null vector. Its
    multipliers are ordered row by row in space, so H is a band of
    half-width 2 nx - 1, and the multiplier with the largest diagonal is
    pinned to zero. The mean of `rhs_p` is removed first, which makes g
    compatible.

    Each edge's flux is read from its left or bottom cell, each cell's
    pressure from its block, and the pressure is shifted to zero mean.
    Refinement sweeps against the residual of every interior-edge and
    cell row follow, until the residual stops falling. Raises SolveError
    if the band is not positive definite or the relative residual stays
    above rtol.
    """
    grid = perm.grid
    n_cells = grid.n_cells
    cells = np.arange(n_cells)
    edges = np.stack(grid.cell_edge_ids(cells), axis=1)
    on_boundary = grid.boundary_edge_mask()
    inner = ~on_boundary[edges]
    both = inner[:, :, None] & inner[:, None, :]
    sign = _SIGN * inner
    block = np.zeros((n_cells, 5, 5))
    mass = mass_triplets(grid, cells, perm.values)[2]
    block[:, _MASS_ROW, _MASS_COL] = mass.reshape(8, n_cells).T
    block[:, :4, :4] = np.where(both, block[:, :4, :4], np.eye(4))
    block[:, :4, 4] = block[:, 4, :4] = -grid.h * sign
    X = np.linalg.inv(block)

    interior = np.flatnonzero(~on_boundary)
    n = interior.size
    rank = np.zeros(grid.n_edges, dtype=np.int64)
    rank[interior[np.argsort(grid.edge_midpoint_key(interior))]] = np.arange(n)
    slot = rank[edges]
    # the lower band of H, transposed: entry (slot a, slot b), a >= b, of
    # every cell's contribution, summed at row b and column a - b of an
    # (n, kd + 1) array, whose transpose is LAPACK's band storage
    lower = both & (slot[:, :, None] >= slot[:, None, :])
    a = np.broadcast_to(slot[:, :, None], lower.shape)[lower]
    b = np.broadcast_to(slot[:, None, :], lower.shape)[lower]
    kd = int((a - b).max(initial=0))
    H = sign[:, :, None] * X[:, :4, :4] * sign[:, None, :]
    band = np.bincount(b * (kd + 1) + a - b, H[lower],
                       minlength=n * (kd + 1)).reshape(n, kd + 1)
    # lambda = 0 at the largest diagonal: its row and column of H become
    # those of the identity, and its entry of every g is zeroed
    pin = int(np.argmax(band[:, 0]))
    d = np.arange(1, min(kd, pin) + 1)
    band[pin, 1:] = 0.0
    band[pin - d, d] = 0.0
    band[pin, 0] = 1.0
    try:
        factor = band_cholesky(band.T)
    except np.linalg.LinAlgError as exc:
        raise SolveError(f"factorization failed for {label}: {exc}")

    def solve(F):
        """Flux per edge and pressure per cell of the hybrid system with
        the cell-local right-hand sides F (one row of five per cell)."""
        Y = np.einsum("kij,kj->ki", X, F)
        g = np.bincount(slot[inner], (sign * Y[:, :4])[inner], minlength=n)
        g[pin] = 0.0
        lam = band_solve(factor, g)
        z = Y - np.einsum("kij,kj->ki", X[:, :, :4], sign * lam[slot])
        v = np.zeros(grid.n_edges)
        v[edges[:, 1]] = z[:, 1]
        v[edges[:, 3]] = z[:, 3]
        return v, z[:, 4]

    M, D = mass_matrix(grid, perm), divergence_matrix(grid)
    rhs_p = rhs_p - np.mean(rhs_p)

    def residual(v, p):
        """The template's residual on every interior-edge and cell row, as
        cell-local right-hand sides (an edge's row goes to its left or
        bottom cell), and its norm."""
        r_v = np.where(on_boundary, 0.0, M @ v - D.T @ p)
        r_p = rhs_p - D @ v
        F = np.zeros((n_cells, 5))
        F[:, 1], F[:, 3], F[:, 4] = r_v[edges[:, 1]], r_v[edges[:, 3]], r_p
        return F, np.sqrt(r_v @ r_v + r_p @ r_p)

    F = np.zeros((n_cells, 5))
    F[:, 4] = -rhs_p
    v, p = solve(F)
    F, res = residual(v, p)
    scale = np.linalg.norm(rhs_p)
    tol = rtol * scale if scale > 0 else rtol
    # refine while each sweep at least halves the residual, and at least
    # once: at high contrast the band is solved only to the accuracy of
    # its dominant rows, while the small divergence rows carry the
    # conservation identities, and a sweep that first meets rtol can leave
    # the solution off by more than rtol
    for _ in range(_SWEEPS):
        dv, dp = solve(F)
        v, p = v - dv, p - dp
        prev = res
        F, res = residual(v, p)
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
    grid = perm.grid
    f = np.asarray(f, dtype=np.float64)
    if f.size != grid.n_cells:
        raise ConfigError(f"source has {f.size} values, grid has {grid.n_cells} cells")
    h2 = grid.h ** 2
    check_zero_mean(f, h2)
    return _solve_whole_domain(perm, h2 * f, rtol, "fine reference")


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
