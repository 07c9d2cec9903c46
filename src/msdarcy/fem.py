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

Every fine-scale linear system in the package is an instance of one
symmetric indefinite template over unknowns (u, p[, y]):

    A u - B^T p                       = rhs_v
    B u + C y                         = rhs_p
    C^T p - [y if identity_block]     = rhs_c

where A is the weighted flux mass matrix, B the signed divergence and C
an optional coupling block (used for the energy-minimization
constraint). Rows are sign-flipped on assembly (`saddle_matrix`) so the
full matrix is symmetric. `solve_saddle` factors it by sparse LU and
solves one right-hand side packed as (rhs_v, -rhs_p[, -rhs_c]), with
iterative refinement and a residual check. The fine reference and the
snapshot have no C block; their pressure is fixed only up to a constant,
which the whole-domain solve pins in one cell and then shifts to zero
mean. The basis functions' region systems are rows and columns of the
whole-domain template matrix with C (`basis.CondensedElements`).
`band_cholesky` and `band_solve` serve the symmetric positive definite
bands downstream: the region skeletons and the coarse velocity block.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.linalg import splu

from .errors import ConfigError, SolveError
from .mesh import full_domain


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


def solve_saddle(K, rhs, rtol=1e-10, label="system"):
    """Factor the template matrix `K` by sparse LU and solve `K x = rhs`,
    verifying the residual.

    `rhs` is packed in the order and with the sign flips of the template:
    (rhs_v, -rhs_p[, -rhs_c]). Raises SolveError if the factorization
    fails or the relative residual stays above rtol after the refinement
    sweeps.
    """
    if K.shape[0] == 0:
        raise ConfigError(f"{label} has no unknowns")
    try:
        lu = splu(K)
    except RuntimeError as exc:
        raise SolveError(f"factorization failed for {label}: {exc}")
    x = lu.solve(rhs)
    # one unconditional refinement sweep: the plain LU solve is only
    # accurate in the norm of the dominant rows, and at high contrast
    # the small divergence rows carry the conservation identities
    x = x - lu.solve(K @ x - rhs)
    scale = np.linalg.norm(rhs)
    tol = rtol * scale if scale > 0 else rtol
    res = np.linalg.norm(K @ x - rhs)
    for _ in range(2):
        if res <= tol:
            break
        x = x - lu.solve(K @ x - rhs)
        res = np.linalg.norm(K @ x - rhs)
    if res > tol:
        raise SolveError(
            f"residual {res:.3e} above tolerance {tol:.3e} for {label}", residual=res)
    return x


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


def _solve_whole_domain(perm, rhs_p, rtol, label):
    """The no-flux mixed problem on the whole fine grid with cell
    right-hand side `rhs_p` and a zero-mean pressure, from the
    whole-domain blocks on the interior edges.

    The pressure is fixed only up to a constant and the rows of B sum to
    zero, so once `rhs_p` has zero mean cell 0's row is the negated sum
    of the others: it is dropped, which pins p[0] = 0, and the square
    system is solved. The pressure is then shifted to zero mean.
    """
    grid = perm.grid
    dofmap = velocity_dofmap(full_domain(grid))
    edges = dofmap.edges
    A = mass_matrix(grid, perm)[edges][:, edges]
    B = divergence_matrix(grid)[1:, edges]
    rhs_p = rhs_p - np.mean(rhs_p)
    x = solve_saddle(saddle_matrix(A, B),
                     np.concatenate([np.zeros(edges.size), -rhs_p[1:]]), rtol, label)
    p = np.concatenate([[0.0], x[edges.size:]])
    return FineSolution(grid, dofmap.scatter(x[:edges.size], grid.n_edges), p - np.mean(p))


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
