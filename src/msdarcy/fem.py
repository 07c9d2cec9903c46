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

Every linear system in the package is an instance of one symmetric
indefinite template over unknowns (u, p[, y][, gamma]):

    A u - B^T p                       = rhs_v
    B u + C y + w gamma               = rhs_p
    C^T p - [y if identity_block]     = rhs_c
    w^T p                             = rhs_w

where A is the weighted flux mass matrix, B the signed divergence, C an
optional coupling block (used for the energy-minimization constraint),
and w an optional zero-mean row. Rows are sign-flipped on assembly so
the full matrix is symmetric, then factored by sparse LU with a residual
check and iterative refinement. `pack_rhs` takes rhs_c and rhs_w zero;
`solve_packed` takes any right-hand side packed in the same order.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
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


@dataclass
class SaddleSystem:
    """One instance of the symmetric template described in the module docs."""

    A: sp.spmatrix
    B: sp.spmatrix
    rhs_v: np.ndarray
    rhs_p: np.ndarray
    C: sp.spmatrix = None
    identity_block: bool = True
    mean_weights: np.ndarray = None
    label: str = ""

    def matrix(self):
        m = self.B.shape[0]
        rows = [[self.A, -self.B.T], [-self.B, None]]
        if self.C is not None:
            k = self.C.shape[1]
            yy = sp.identity(k) if self.identity_block else sp.csr_matrix((k, k))
            rows[0].append(None)
            rows[1].append(-self.C)
            rows.append([None, -self.C.T, yy])
        if self.mean_weights is not None:
            w = sp.csr_matrix(self.mean_weights.reshape(1, m))
            for i, row in enumerate(rows):
                row.append(-w.T if i == 1 else None)
            rows.append([None, -w] + [None] * (len(rows) - 1))
        return sp.bmat(rows, format="csc")

    def pack_rhs(self):
        """Full right-hand side with the sign flips matching matrix(); the
        rows of C^T and w get zero."""
        rhs = [self.rhs_v, -self.rhs_p]
        if self.C is not None:
            rhs.append(np.zeros(self.C.shape[1]))
        if self.mean_weights is not None:
            rhs.append(np.zeros(1))
        return np.concatenate(rhs)

    def split(self, x):
        n = self.A.shape[0]
        m = self.B.shape[0]
        u, p = x[:n], x[n:n + m]
        off = n + m
        y = None
        if self.C is not None:
            k = self.C.shape[1]
            y = x[off:off + k]
            off += k
        gamma = float(x[off]) if self.mean_weights is not None else 0.0
        return u, p, y, gamma


@dataclass(frozen=True)
class SaddleSolution:
    u: np.ndarray
    p: np.ndarray
    y: np.ndarray
    gamma: float
    residual: float


class SaddleFactorization:
    """Sparse LU of one saddle system, reusable across right-hand sides."""

    def __init__(self, system, rtol=1e-10):
        self.system = system
        self.rtol = rtol
        self.K = system.matrix()
        if self.K.shape[0] == 0:
            raise ConfigError("saddle system has no unknowns")
        try:
            self.lu = splu(self.K)
        except RuntimeError as exc:
            raise SolveError(
                f"factorization failed for {system.label or 'system'}: {exc}")

    def solve_packed(self, rhs):
        x = self.lu.solve(rhs)
        # one unconditional refinement sweep: the plain LU solve is only
        # accurate in the norm of the dominant rows, and at high contrast
        # the small divergence rows carry the conservation identities
        x = x - self.lu.solve(self.K @ x - rhs)
        scale = np.linalg.norm(rhs)
        tol = self.rtol * scale if scale > 0 else self.rtol
        res = np.linalg.norm(self.K @ x - rhs)
        for _ in range(2):
            if res <= tol:
                break
            x = x - self.lu.solve(self.K @ x - rhs)
            res = np.linalg.norm(self.K @ x - rhs)
        if res > tol:
            raise SolveError(
                f"residual {res:.3e} above tolerance {tol:.3e} "
                f"for {self.system.label or 'system'}", residual=res)
        u, p, y, gamma = self.system.split(x)
        rel = res / scale if scale > 0 else res
        return SaddleSolution(u, p, y, gamma, rel)


def solve_saddle(system, rtol=1e-10):
    """Factor and solve one saddle system, verifying the residual.

    Raises SolveError if the factorization fails or the relative residual
    stays above rtol after two refinement sweeps.
    """
    return SaddleFactorization(system, rtol=rtol).solve_packed(system.pack_rhs())


@dataclass(frozen=True)
class FineSolution:
    """Reference solve on the fine grid: per-edge fluxes (boundary edges
    zero) and zero-mean per-cell pressures."""

    grid: object
    v: np.ndarray
    p: np.ndarray


def check_zero_mean(f, h2, what="source"):
    total = float(np.sum(f) * h2)
    scale = float(np.sum(np.abs(f)) * h2)
    if abs(total) > 1e-12 * max(scale, 1.0):
        raise ConfigError(f"{what} must have zero mean, integral is {total:.3e}")


def _solve_whole_domain(perm, rhs_p, rtol, label):
    """The no-flux mixed problem on the whole fine grid with cell
    right-hand side `rhs_p` and a zero-mean pressure, from the
    whole-domain blocks on the interior edges."""
    grid = perm.grid
    dofmap = velocity_dofmap(full_domain(grid))
    edges = dofmap.edges
    A = mass_matrix(grid, perm)[edges][:, edges]
    B = divergence_matrix(grid)[:, edges]
    system = SaddleSystem(A, B, rhs_v=np.zeros(edges.size), rhs_p=rhs_p,
                          mean_weights=np.full(grid.n_cells, grid.h ** 2),
                          label=label)
    sol = solve_saddle(system, rtol=rtol)
    return FineSolution(grid, dofmap.scatter(sol.u, grid.n_edges), sol.p)


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
