"""Lowest-order mixed discretization on rectangular grids.

Velocities are edge-normal fluxes (one unknown per edge, +x/+y normals),
pressures are constant per cell. On a region, velocity unknowns live on
the region-interior edges only, which imposes the no-flux condition on
the region (and domain) boundary.

Every linear system in the package is an instance of one symmetric
indefinite template over unknowns (u, p[, y][, gamma]):

    A u - B^T p                       = rhs_v
    B u + D p + C y + w gamma        = rhs_p
    C^T p - [y if identity_block]    = rhs_c
    w^T p                            = mean_value

where A is the weighted flux mass matrix, B the signed divergence, D an
optional diagonal block, C an optional coupling block (used for the
energy-minimization constraint), and w an optional zero-mean row. Rows
are sign-flipped on assembly so the full matrix is symmetric, then
factored by sparse LU with a residual check and iterative refinement.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu
import scipy.linalg

from .errors import ConfigError, SolveError
from .mesh import full_domain


@dataclass(frozen=True)
class VelocityDofMap:
    """Sorted region-interior edges carrying the velocity unknowns."""

    edges: np.ndarray

    @property
    def n_dofs(self):
        return self.edges.size

    def local_index(self, edge_ids):
        """Map global edge ids to local dof indices, -1 where not a dof."""
        edge_ids = np.asarray(edge_ids)
        pos = np.searchsorted(self.edges, edge_ids)
        pos_c = np.minimum(pos, max(self.edges.size - 1, 0))
        if self.edges.size == 0:
            return np.full(edge_ids.shape, -1, dtype=np.int64)
        valid = self.edges[pos_c] == edge_ids
        return np.where(valid, pos_c, -1)

    def scatter(self, u, n_edges):
        """Expand local dof values to a full per-edge vector (zeros elsewhere)."""
        full = np.zeros(n_edges)
        full[self.edges] = u
        return full


def velocity_dofmap(region):
    return VelocityDofMap(region.interior_edges())


def _mass_triplets(grid, cells, kappa):
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


def mass_matrix(grid, perm, cells=None):
    """Flux mass matrix over all edges (global numbering), optionally
    restricted to the cells of a subdomain. Used for energy norms and
    Galerkin projection; boundary edges are included."""
    if cells is None:
        cells = np.arange(grid.n_cells)
    rows, cols, vals = _mass_triplets(grid, cells, perm.values[cells])
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


def assemble_a(region, perm, dofmap=None):
    """Flux mass matrix on the region's interior-edge dofs."""
    if dofmap is None:
        dofmap = velocity_dofmap(region)
    grid = region.fine
    cells = region.cells()
    rows, cols, vals = _mass_triplets(grid, cells, perm.values[cells])
    lr = dofmap.local_index(rows)
    lc = dofmap.local_index(cols)
    keep = (lr >= 0) & (lc >= 0)
    n = dofmap.n_dofs
    return sp.coo_matrix((vals[keep], (lr[keep], lc[keep])), shape=(n, n)).tocsr()


def assemble_b(region, dofmap=None):
    """Divergence block on (region cells) x (region dofs)."""
    if dofmap is None:
        dofmap = velocity_dofmap(region)
    grid = region.fine
    cells = region.cells()
    L, R, B, T = grid.cell_edge_ids(cells)
    h = grid.h
    ncr = cells.size
    local_cells = np.arange(ncr)
    rows = np.tile(local_cells, 4)
    cols = dofmap.local_index(np.concatenate([R, L, T, B]))
    vals = np.concatenate([np.full(ncr, h), np.full(ncr, -h),
                           np.full(ncr, h), np.full(ncr, -h)])
    keep = cols >= 0
    return sp.coo_matrix((vals[keep], (rows[keep], cols[keep])),
                         shape=(ncr, dofmap.n_dofs)).tocsr()


def assemble_s(region, weight):
    """Diagonal weighted pressure mass matrix on the region's cells."""
    cells = region.cells()
    h2 = region.fine.h ** 2
    return sp.diags(weight.values[cells] * h2).tocsr()


@dataclass
class SaddleSystem:
    """One instance of the symmetric template described in the module docs."""

    A: sp.spmatrix
    B: sp.spmatrix
    rhs_v: np.ndarray
    rhs_p: np.ndarray
    D: sp.spmatrix = None
    C: sp.spmatrix = None
    identity_block: bool = True
    rhs_c: np.ndarray = None
    mean_weights: np.ndarray = None
    mean_value: float = 0.0
    label: str = ""

    def matrix(self):
        m = self.B.shape[0]
        rows = [[self.A, -self.B.T],
                [-self.B, -self.D if self.D is not None else None]]
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

    def pack_rhs(self, rhs_v=None, rhs_p=None, rhs_c=None, mean_value=None):
        """Full right-hand side with the sign flips matching matrix()."""
        rv = self.rhs_v if rhs_v is None else rhs_v
        rp = self.rhs_p if rhs_p is None else rhs_p
        rhs = [rv, -rp]
        if self.C is not None:
            rc = rhs_c if rhs_c is not None else self.rhs_c
            if rc is None:
                rc = np.zeros(self.C.shape[1])
            rhs.append(-rc)
        if self.mean_weights is not None:
            mv = self.mean_value if mean_value is None else mean_value
            rhs.append(np.array([-mv]))
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

    def solve(self, **rhs_parts):
        return self.solve_packed(self.system.pack_rhs(**rhs_parts))


def solve_saddle(system, rtol=1e-10):
    """Factor and solve one saddle system, verifying the residual.

    Raises SolveError if the factorization fails or the relative residual
    stays above rtol after two refinement sweeps.
    """
    return SaddleFactorization(system, rtol=rtol).solve()


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
    region = full_domain(grid)
    dofmap = velocity_dofmap(region)
    A = assemble_a(region, perm, dofmap)
    B = assemble_b(region, dofmap)
    system = SaddleSystem(A, B, rhs_v=np.zeros(dofmap.n_dofs), rhs_p=h2 * f,
                          mean_weights=np.full(grid.n_cells, h2),
                          label="fine reference")
    sol = solve_saddle(system, rtol=rtol)
    return FineSolution(grid, dofmap.scatter(sol.u, grid.n_edges), sol.p)


def infsup_smallest_sigma(grid, perm):
    """Smallest eigenvalue of the pressure Schur complement on zero-mean
    pressures. Dense diagnostic; intended for small grids."""
    if grid.n_cells > 4096:
        raise ConfigError("inf-sup diagnostic is dense, use a grid of <= 64x64 cells")
    region = full_domain(grid)
    dofmap = velocity_dofmap(region)
    A = assemble_a(region, perm, dofmap).toarray()
    B = assemble_b(region, dofmap).toarray()
    schur = B @ np.linalg.solve(A, B.T)
    evals = np.linalg.eigvalsh(schur)
    return float(evals[1])


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
