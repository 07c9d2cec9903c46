"""Oracles and helpers shared by the test modules.

Every reference solver lives here: the paths that faster ones replaced
(sparse LU, SuperLU, the whole-domain saddle operator, dense KKT
systems), kept so the tests can hold the replacements to them, and the
analytic oracles of the mesh. So does every helper that more than one
test module reads. `src/` builds no matrix that only these read: the
whole-domain flux mass and saddle matrices are assembled here.

The test modules import from this module and never from each other;
pytest does not collect it.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from msdarcy import BasisSet, ConfigError
from msdarcy import coarse  # the coarse oracles read its private kernels
from msdarcy.fem import (band_cholesky, band_half_width, band_solve, divergence_matrix,
                         mass_triplets)
from msdarcy.mesh import CoarseGrid, element_layout, full_domain, region_elements


def interp_coarse_nodal(coarse, nodal):
    """Oracle: coarse nodal values interpolated bilinearly to all fine nodes.

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


def hat_values(coarse, node):
    """Oracle: samples of the hat of coarse node `node` at all fine nodes, flat."""
    nodal = np.zeros((coarse.Ny + 1, coarse.Nx + 1))
    nodal[node // (coarse.Nx + 1), node % (coarse.Nx + 1)] = 1.0
    return interp_coarse_nodal(coarse, nodal).ravel()


def node_sum(coarse):
    """Oracle: sum of all hats at every fine node (identically one)."""
    ones = np.ones((coarse.Ny + 1, coarse.Nx + 1))
    return interp_coarse_nodal(coarse, ones).ravel()


def gradsq_at(coarse, x, y):
    """Oracle: pointwise sum of squared hat gradients at (x, y), cell
    interiors."""
    H = coarse.H
    I = min(int(x / H), coarse.Nx - 1)
    J = min(int(y / H), coarse.Ny - 1)
    xi = x / H - I
    eta = y / H - J
    return (2.0 / (H * H)) * ((1 - xi) ** 2 + xi ** 2 + (1 - eta) ** 2 + eta ** 2)


@dataclass(frozen=True)
class CutoffField:
    """Oracle: piecewise-bilinear cutoff around one coarse element.

    Equal to 1 on the m-ring neighborhood of the element, 0 outside the
    M-ring neighborhood, interpolated linearly in the ring distance in
    between, then expanded to fine nodes. Cutoffs are a device of the
    method's proofs, not part of the algorithm.
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
    """Oracle: cutoff for element e, 1 within `inner` rings, 0 beyond
    `outer` rings."""
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


def mass_matrix(grid, perm):
    """Flux mass matrix over all edges (global numbering), boundary edges
    included. The solvers read its entries from `mass_triplets` instead."""
    rows, cols, vals = mass_triplets(grid, np.arange(grid.n_cells), perm.values)
    n = grid.n_edges
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def saddle_matrix(A, B, C=None, Y=None):
    """The symmetric template matrix of the `msdarcy.fem` module docs over
    (u, p[, y]); with C, the y block's diagonal Y is stored entry by entry,
    zero or not."""
    rows = [[A, -B.T], [-B, None]]
    if C is not None:
        k = np.arange(C.shape[1])
        rows[0].append(None)
        rows[1].append(-C)
        rows.append([None, -C.T, sp.csr_matrix((Y, (k, k)), shape=(k.size, k.size))])
    return sp.bmat(rows, format="csc")


def local_index(edges, edge_ids):
    """Reference: global edge ids to their indices in the sorted dof edges
    `edges`, -1 where not a dof."""
    edge_ids = np.asarray(edge_ids)
    pos = np.searchsorted(edges, edge_ids)
    pos_c = np.minimum(pos, max(edges.size - 1, 0))
    if edges.size == 0:
        return np.full(edge_ids.shape, -1, dtype=np.int64)
    valid = edges[pos_c] == edge_ids
    return np.where(valid, pos_c, -1)


def assemble_a(region, perm):
    """Reference: the flux mass matrix on the region's interior-edge dofs,
    assembled in region-local numbering (the path that slices of the
    whole-domain mass matrix replaced)."""
    edges = region.interior_edges()
    grid = region.fine
    cells = region.cells()
    rows, cols, vals = mass_triplets(grid, cells, perm.values[cells])
    lr = local_index(edges, rows)
    lc = local_index(edges, cols)
    keep = (lr >= 0) & (lc >= 0)
    n = edges.size
    return sp.coo_matrix((vals[keep], (lr[keep], lc[keep])), shape=(n, n)).tocsr()


def assemble_b(region):
    """Reference: the divergence block on (region cells) x (region dofs),
    assembled in region-local numbering."""
    edges = region.interior_edges()
    grid = region.fine
    cells = region.cells()
    L, R, B, T = grid.cell_edge_ids(cells)
    h = grid.h
    ncr = cells.size
    local_cells = np.arange(ncr)
    rows = np.tile(local_cells, 4)
    cols = local_index(edges, np.concatenate([R, L, T, B]))
    vals = np.concatenate([np.full(ncr, h), np.full(ncr, -h),
                           np.full(ncr, h), np.full(ncr, -h)])
    keep = cols >= 0
    return sp.coo_matrix((vals[keep], (rows[keep], cols[keep])),
                         shape=(ncr, edges.size)).tocsr()


def refined_lu(K, rtol=1e-10):
    """Reference: sparse LU of K, asserting the relative residual; returns
    solve(rhs) -> x. The residuals are summed in long double, and the
    refinement sweeps (at least one, at most six) run while each at least
    halves the correction, so x reaches the solution rounded to double
    rather than the roundoff of a double K @ x."""
    K = sp.csc_matrix(K)
    lu = splu(K)
    K_long = K.astype(np.longdouble)

    def residual(x, rhs):
        return (K_long @ x.astype(np.longdouble) - rhs).astype(np.float64)

    def solve(rhs):
        x = lu.solve(rhs)
        prev = np.inf
        for _ in range(6):
            dx = lu.solve(residual(x, rhs))
            x = x - dx
            if np.linalg.norm(dx) > prev / 2:
                break
            prev = np.linalg.norm(dx)
        assert np.linalg.norm(residual(x, rhs)) <= rtol * (np.linalg.norm(rhs) or 1.0)
        return x
    return solve


def bordered_reference(perm, f):
    """Reference: the fine reference with its zero-mean pressure fixed by
    a bordering row (w = h^2 per cell, multiplier gamma), the path the
    pinned pressure replaced. Returns (v per edge, p)."""
    grid = perm.grid
    region = full_domain(grid)
    edges = region.interior_edges()
    A, B = assemble_a(region, perm), assemble_b(region)
    h2 = grid.h ** 2
    w = sp.csr_matrix(np.full((1, grid.n_cells), h2))
    K = sp.bmat([[A, -B.T, None], [-B, None, -w.T], [None, -w, None]])
    n = edges.size
    x = refined_lu(K)(np.concatenate([np.zeros(n), -h2 * f, [0.0]]))
    v = np.zeros(grid.n_edges)
    v[edges] = x[:n]
    return v, x[n:n + grid.n_cells]


def pinned_reference(perm, rhs_p):
    """Reference: the whole-domain solve with cell right-hand side
    `rhs_p` by sparse LU of the saddle matrix with cell 0's divergence row
    dropped (the path the hybridized solve replaced), its pressure shifted
    to zero mean. Returns (v per edge, p)."""
    grid = perm.grid
    region = full_domain(grid)
    edges = region.interior_edges()
    A, B = assemble_a(region, perm), assemble_b(region)
    n = edges.size
    rhs_p = rhs_p - np.mean(rhs_p)
    x = refined_lu(saddle_matrix(A, B[1:]))(np.concatenate([np.zeros(n), -rhs_p[1:]]))
    p = np.concatenate([[0.0], x[n:]])
    v = np.zeros(grid.n_edges)
    v[edges] = x[:n]
    return v, p - np.mean(p)


def _cell_hybrid_reference(perm, rhs_p, rtol=1e-10):
    """Reference: the whole-domain solve with cell right-hand side `rhs_p`
    by hybridization onto every interior-edge multiplier, one band
    Cholesky over all of them (the path the macro-cell condensation
    replaced). Each cell's 5x5 block is inverted as a stack; the band is
    ordered by the doubled-midpoint key and pinned at its largest
    diagonal; refinement sweeps run while each halves the residual.
    Returns (v per edge, p) with a zero-mean p."""
    grid = perm.grid
    n_cells = grid.n_cells
    cells = np.arange(n_cells)
    edges = np.stack(grid.cell_edge_ids(cells), axis=1)
    on_boundary = grid.boundary_edge_mask()
    inner = ~on_boundary[edges]
    both = inner[:, :, None] & inner[:, None, :]
    sign = np.array([-1.0, 1.0, -1.0, 1.0]) * inner
    block = np.zeros((n_cells, 5, 5))
    mass = mass_triplets(grid, cells, perm.values)[2]
    block[:, [0, 1, 0, 1, 2, 3, 2, 3], [0, 1, 1, 0, 2, 3, 3, 2]] = mass.reshape(8, n_cells).T
    block[:, :4, :4] = np.where(both, block[:, :4, :4], np.eye(4))
    block[:, :4, 4] = block[:, 4, :4] = -grid.h * sign
    X = np.linalg.inv(block)

    interior = np.flatnonzero(~on_boundary)
    n = interior.size
    rank = np.zeros(grid.n_edges, dtype=np.int64)
    rank[interior[np.argsort(grid.edge_midpoint_key(interior))]] = np.arange(n)
    slot = rank[edges]
    lower = both & (slot[:, :, None] >= slot[:, None, :])
    a = np.broadcast_to(slot[:, :, None], lower.shape)[lower]
    b = np.broadcast_to(slot[:, None, :], lower.shape)[lower]
    kd = int((a - b).max(initial=0))
    H = sign[:, :, None] * X[:, :4, :4] * sign[:, None, :]
    band = np.bincount(b * (kd + 1) + a - b, H[lower],
                       minlength=n * (kd + 1)).reshape(n, kd + 1)
    pin = int(np.argmax(band[:, 0]))
    d = np.arange(1, min(kd, pin) + 1)
    band[pin, 1:] = 0.0
    band[pin - d, d] = 0.0
    band[pin, 0] = 1.0
    factor = band_cholesky(band.T)

    def solve(F):
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
        r_v = np.where(on_boundary, 0.0, M @ v - D.T @ p)
        r_p = rhs_p - D @ v
        F = np.zeros((n_cells, 5))
        F[:, 1], F[:, 3], F[:, 4] = r_v[edges[:, 1]], r_v[edges[:, 3]], r_p
        return F, np.sqrt(r_v @ r_v + r_p @ r_p)

    F = np.zeros((n_cells, 5))
    F[:, 4] = -rhs_p
    v, p = solve(F)
    F, res = residual(v, p)
    for _ in range(6):
        dv, dp = solve(F)
        v, p = v - dv, p - dp
        prev = res
        F, res = residual(v, p)
        if res > prev / 2:
            break
    assert res <= rtol * np.linalg.norm(rhs_p)
    return v, p - np.mean(p)


def infsup_smallest_sigma(grid, perm):
    """Oracle: smallest eigenvalue of the pressure Schur complement on
    zero-mean pressures. Dense; intended for small grids."""
    if grid.n_cells > 4096:
        raise ConfigError("inf-sup diagnostic is dense, use a grid of <= 64x64 cells")
    region = full_domain(grid)
    A = assemble_a(region, perm).toarray()
    B = assemble_b(region).toarray()
    schur = B @ np.linalg.solve(A, B.T)
    evals = np.linalg.eigvalsh(schur)
    return float(evals[1])


def _spectra_oracle(coarse, perm, weight):
    """Oracle: each element's blocks sliced from the whole-domain matrices,
    its interior flux block factored by sparse LU and its pencil solved by
    the generalized symmetric eigensolver, one element at a time (the path
    the stacked line kernel replaced). Returns each element's eigenvalues."""
    grid = coarse.fine
    interior, cells, _ = element_layout(coarse)
    mass, div = mass_matrix(grid, perm), divergence_matrix(grid)
    lams = []
    for i, c in zip(interior, cells):
        A, B = mass[i][:, i], div[c][:, i]
        M = np.zeros((c.size, c.size))
        if A.shape[0] > 0:
            M = B @ splu(A.tocsc()).solve(B.T.toarray())
            M = 0.5 * (M + M.T)
        lams.append(scipy.linalg.eigh(M, np.diag(weight.values[c] * grid.h ** 2),
                                      eigvals_only=True))
    return lams


def restriction(aux, region):
    """Reference: the auxiliary columns supported inside a region, as
    (column ids, R_loc) with R_loc mapping column coefficients to values
    on the region's cells (sorted global order), built element by
    element."""
    region_cells = region.cells()
    rows, cols, vals = [], [], []
    col_ids = []
    for e in region_elements(aux.coarse, region):
        local_rows = np.searchsorted(region_cells, aux.cells[e])
        for j in range(aux.counts[e]):
            rows.append(local_rows)
            cols.append(np.full(local_rows.size, len(col_ids)))
            vals.append(aux.pressures[e][:, j])
            col_ids.append(aux.offsets[e] + j)
    R = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(region_cells.size, len(col_ids))).tocsr()
    return np.asarray(col_ids), R


def _region_lu_reference(aux, perm, region, flavor, rtol=1e-10):
    """Oracle: the region's constrained saddle system assembled whole and
    factored by sparse LU, the path static condensation replaced. Returns
    solve(e, j) -> (v, q, div, trace) for the basis function of eigenvector
    j of element e: its fluxes v on the region-interior edges, the pressure
    q of the region solve on the region's cells, its divergence
    coefficients div (B v = S R_loc div) and its trace M v - B^T q on the
    region-boundary edges inside the domain."""
    edges = region.interior_edges()
    cols, R_loc = restriction(aux, region)
    cells = region.cells()
    s_region = aux.s_diag[cells]
    grid = region.fine
    trace_edges = region.boundary_edges()
    trace_edges = trace_edges[~grid.boundary_edge_mask()[trace_edges]]
    M_trace = mass_matrix(grid, perm)[trace_edges][:, edges]
    B_trace = divergence_matrix(grid)[cells][:, trace_edges].T
    n, m = edges.size, cells.size
    K = saddle_matrix(assemble_a(region, perm), assemble_b(region),
                      (sp.diags(s_region) @ R_loc).tocsr(),
                      np.full(cols.size, 0.0 if flavor == "type1" else 1.0))
    lu = refined_lu(K, rtol)

    def solve(e, j):
        p_loc = R_loc[:, int(np.searchsorted(cols, aux.column(e, j)))].toarray().ravel()
        # packed with the template's sign flips (rhs_v, -rhs_p, -rhs_c)
        rhs_p, rhs_c = np.zeros(m), np.zeros(cols.size)
        if flavor == "type1":
            rhs_c = R_loc.T @ (s_region * p_loc)
        else:
            rhs_p = s_region * p_loc
        x = lu(np.concatenate([np.zeros(n), -rhs_p, -rhs_c]))
        # B v + C y = rhs_p, which is C e_j for type2 and zero for type1
        div = -x[n + m:]
        if flavor != "type1":
            div[np.searchsorted(cols, aux.column(e, j))] += 1.0
        v, q = x[:n], x[n:n + m]
        return v, q, div, M_trace @ v - B_trace @ q
    return solve


def _columns(rows, values, n_rows):
    """The CSC matrix whose column k holds values[k] on the ascending row
    ids rows[k]."""
    indptr = np.concatenate([[0], np.cumsum([r.size for r in rows])])
    return sp.csc_matrix((np.concatenate(values), np.concatenate(rows), indptr),
                         shape=(n_rows, len(rows)))


def _from_records(aux, records):
    """Oracle: the set of `records`, its stacks rebuilt column by column
    from them, the path the stacks written in place replaced."""
    grid = aux.coarse.fine

    def stack(rows, values, n_rows):
        return _columns([getattr(fn, rows) for fn in records],
                        [getattr(fn, values) for fn in records], n_rows)
    return BasisSet(
        aux, records[0].flavor, records[0].layers, stack("edges", "v", grid.n_edges),
        stack("div_columns", "div", aux.n_columns),
        stack("trace_edges", "trace", grid.n_edges), np.array([fn.energy for fn in records]),
        np.array([aux.offsets[fn.element] + fn.j for fn in records]),
        np.array([fn.element for fn in records]))


def _skeleton_superlu_oracle(cond, region):
    """Oracle: a region's skeleton matrix, its elements' complements summed
    on the element boundary edges strictly inside it in ascending edge
    order, factored by SuperLU in symmetric mode (the path banded Cholesky
    replaced). Returns the skeleton edges and the factor."""
    elements = region_elements(cond.aux.coarse, region)
    skeleton = np.intersect1d(cond.boundary[elements], region.interior_edges())
    S = np.zeros((skeleton.size, skeleton.size))
    for e in elements:
        inside = np.isin(cond.boundary[e], skeleton)
        at = np.searchsorted(skeleton, cond.boundary[e][inside])
        S[np.ix_(at, at)] += cond.S[e][np.ix_(inside, inside)]
    return skeleton, splu(sp.csc_matrix(S), permc_spec="MMD_AT_PLUS_A",
                          diag_pivot_thresh=0.1, options={"SymmetricMode": True})


def _operator(cond):
    """Oracle: the whole-domain saddle matrix over all edges, cells and
    column slots, slot j of element e at e k_max + j, padding included,
    assembled by `saddle_matrix` from the flux mass, the divergence and
    the condensed elements' C and Y, in CSR with sorted indices: a
    region's rows and columns of it are that region's saddle matrix."""
    grid = cond.aux.coarse.fine
    n_el, _, k_max = cond.C.shape
    slots = np.arange(n_el * k_max).reshape(n_el, 1, k_max)
    C = sp.csr_matrix(
        (cond.C.ravel(), (np.broadcast_to(cond.cells[:, :, None], cond.C.shape).ravel(),
                          np.broadcast_to(slots, cond.C.shape).ravel())),
        shape=(grid.n_cells, slots.size))
    operator = saddle_matrix(mass_matrix(grid, cond.perm), divergence_matrix(grid), C,
                             cond.Y.ravel()).tocsr()
    operator.sort_indices()
    return operator


def _element_keys(cond, e):
    """Element e's interior unknowns without padding, as rows of the
    whole-domain operator: its interior edges, its cells and the slots
    e k_max + j of its kept columns j."""
    coarse = cond.aux.coarse
    grid = coarse.fine
    return np.concatenate([element_layout(coarse)[0][e], grid.n_edges + cond.cells[e],
                           grid.n_edges + grid.n_cells + e * cond.Z.shape[2]
                           + np.arange(cond.aux.counts[e])])


def _condensation_oracle(cond, operator, e):
    """Oracle: element e's interior block sliced from the whole-domain
    `operator` and factored by sparse LU, refined once, one element at a
    time (the path the stacked kernels replaced). Returns (W, S, Z) without
    padding."""
    aux = cond.aux
    grid = aux.coarse.fine
    keys = _element_keys(cond, e)
    rows = operator[keys]
    K_II = rows[:, keys].tocsc()
    K_IG = rows[:, cond.boundary[e]].toarray()
    cells = cond.cells[e]
    r, c, v = mass_triplets(grid, cells, cond.perm.values[cells])
    mass = sp.coo_matrix((v, (r, c)), shape=(grid.n_edges, grid.n_edges)).tocsr()
    K_GG = mass[cond.boundary[e]][:, cond.boundary[e]].toarray()
    P = aux.pressures[e][:, :aux.counts[e]]
    weighted = aux.s_diag[cells][:, None] * P
    rhs = np.zeros((keys.size, P.shape[1]))
    n_ie = cond.n_interior_edges
    if cond.flavor == "type1":
        rhs[n_ie + cells.size:] = -(P.T @ weighted)
    else:
        rhs[n_ie:n_ie + cells.size] = -weighted
    lu = splu(K_II)

    def solve(b):
        z = lu.solve(b)
        return z + lu.solve(b - K_II @ z)
    W = solve(K_IG)
    return W, K_GG - K_IG.T @ W, solve(rhs)


def _dense_reference(system):
    """Oracle: the restricted Schur eigenvalue from an explicit
    Householder frame, and the coefficients from the dense bordered KKT
    system, deflated by a multiplier row when the set is saturated."""
    A_c, B_c, w = system.A_c.toarray(), system.B_c.toarray(), system.mean_w
    n = A_c.shape[0]
    deflate = system.basis.saturated
    A_sym = 0.5 * (A_c + A_c.T)
    if deflate:
        u0 = system.basis.aux.coefficients(np.ones(system.basis.aux.coarse.fine.n_cells))
        A_sym = A_sym + np.trace(A_sym) / n * np.outer(u0, u0) / (u0 @ u0)
    schur = B_c @ scipy.linalg.cho_solve(scipy.linalg.cho_factor(A_sym), B_c.T)
    if n == 1:
        sigma = np.inf
    else:
        v = w / np.linalg.norm(w)
        e = np.zeros(n)
        e[0] = 1.0
        u = v - e if v[0] > 0 else v + e
        Z = (np.eye(n) - 2.0 * np.outer(u, u) / (u @ u))[:, 1:]
        sigma = np.linalg.eigvalsh(Z.T @ (0.5 * (schur + schur.T)) @ Z)[0]
    size = 2 * n + 1 + (1 if deflate else 0)
    K = np.zeros((size, size))
    K[:n, :n] = A_c
    K[:n, n:2 * n] = -B_c.T
    K[n:2 * n, :n] = -B_c
    K[n:2 * n, 2 * n] = -w
    K[2 * n, n:2 * n] = -w
    if deflate:
        K[:n, -1] = u0
        K[-1, :n] = u0
    rhs = np.zeros(size)
    rhs[n:2 * n] = -system.rhs_q
    x = scipy.linalg.solve(K, rhs, assume_a="sym")
    return x[:n], x[n:2 * n], float(x[2 * n]), float(sigma)


def _bordered_superlu_solve(system):
    """Oracle: the coarse solve by the path that the pinned band LU
    replaced. One SuperLU factor of the divergence block bordered by the
    mean weights, M = [[B_c, w], [w^T, 0]], gives the null vector z of B_c
    (M [z; t] = [0; 1]), a particular velocity and, by a transposed solve,
    the pressure; then one refinement sweep, and sigma from a Lanczos
    iteration on M solves. Returns (U, P, sigma)."""
    A_c, B_c, w, rhs_q = system.A_c, system.B_c, system.mean_w, system.rhs_q
    n = w.size
    A = 0.5 * (A_c + A_c.T)
    if system.basis.saturated:
        u0 = sp.csr_matrix(system.basis.aux.coefficients(1.0)[:, None])
        A = A + (A.diagonal().sum() / n / (u0.T @ u0)[0, 0]) * (u0 @ u0.T)
    w_col = sp.csr_matrix(w[:, None])
    lu = splu(sp.bmat([[B_c, w_col], [w_col.T, None]], format="csc"),
              permc_spec="MMD_AT_PLUS_A")
    z = lu.solve(np.append(np.zeros(n), 1.0))[:n]
    Az = A @ z

    def solve(f_u, f_q, f_w):
        y = lu.solve(np.append(f_q, 0.0))
        U = y[:n] + ((z @ f_u - Az @ y[:n]) / (z @ Az)) * z
        P = lu.solve(np.append(A @ U - f_u, f_w), trans="T")[:n]
        return U, P, y[n]

    U, P, gamma = np.zeros(n), np.zeros(n), 0.0
    for _ in range(2):
        dU, dP, dgamma = solve(B_c.T @ P - A_c @ U, rhs_q - B_c @ U - gamma * w, -(w @ P))
        U, P, gamma = U + dU, P + dP, gamma + dgamma
    if n == 1:
        return U, P, np.inf

    def zero_mean(q):
        return q - (w @ q) / (w @ w) * w
    return U, P, 1.0 / coarse._top_eigenvalue(
        lambda q: solve(np.zeros(n), zero_mean(q), 0.0)[1], n)


def _symmetrized_coo_solve(system):
    """Oracle: the coarse solve by the route that building both bands from
    the blocks' compressed arrays replaced. The symmetric part
    (A_c + A_c^T) / 2, shifted by c s s^T for a saturated set, is a sparse
    matrix whose `tril` goes through COO into the Cholesky band, B_c goes
    through COO into the pinned LU band, and every product with the
    velocity block reads that symmetric matrix. Returns (U, P, sigma, the
    Cholesky band and the pinned LU band, both before factoring)."""
    A_c, B_c, w, rhs_q = system.A_c, system.B_c, system.mean_w, system.rhs_q
    n = w.size
    s = system.basis.aux.coefficients(1.0)
    A = 0.5 * (A_c + A_c.T)
    if system.basis.saturated:
        u0 = sp.csr_matrix(s[:, None])
        A = A + (A.diagonal().sum() / n / (s @ s)) * (u0 @ u0.T)
    lower = sp.tril(A).tocoo()
    band = np.zeros((band_half_width(A) + 1, n), order="F")
    band[lower.row - lower.col, lower.col] = lower.data
    entries = B_c.tocoo()
    k, kb = int(np.argmax(np.abs(s))), band_half_width(B_c)
    keep = entries.row != k
    pinned = np.zeros((3 * kb + 1, n), order="F")
    pinned[2 * kb + entries.row[keep] - entries.col[keep], entries.col[keep]] = entries.data[keep]
    pinned[2 * kb, k] = 1.0
    lu, piv, info = scipy.linalg.lapack.dgbtrf(pinned, kb, kb)
    assert info == 0
    z = scipy.linalg.lapack.dgbtrs(lu, kb, kb, np.eye(1, n, k)[0], piv)[0]
    Az = A @ z

    def solve(f_u, f_q, f_w):
        gamma = (s @ f_q) / (s @ w)
        r = f_q - gamma * w
        r[k] = 0.0
        U = scipy.linalg.lapack.dgbtrs(lu, kb, kb, r, piv)[0]
        U += ((z @ f_u - Az @ U) / (z @ Az)) * z
        P = scipy.linalg.lapack.dgbtrs(lu, kb, kb, A @ U - f_u, piv, trans=1)[0]
        return U, P + ((f_w - w @ P) / (s @ w)) * s, gamma

    U, P, gamma = np.zeros(n), np.zeros(n), 0.0
    for _ in range(2):
        dU, dP, dgamma = solve(B_c.T @ P - A_c @ U, rhs_q - B_c @ U - gamma * w, -(w @ P))
        U, P, gamma = U + dU, P + dP, gamma + dgamma
    if n == 1:
        return U, P, np.inf, band, pinned

    def zero_mean(q):
        return q - (w @ q) / (w @ w) * w
    sigma = 1.0 / coarse._top_eigenvalue(lambda q: solve(np.zeros(n), zero_mean(q), 0.0)[1], n)
    return U, P, sigma, band, pinned


def _superlu_velocity_verdict(system):
    """Oracle: the velocity block's check by the path banded Cholesky
    replaced. A SuperLU factor in symmetric mode with diagonal pivots finds
    it positive definite iff every pivot is positive (Sylvester's law of
    inertia), and a Lanczos iteration on its solves gives the rank test's
    lambda_max. Returns (positive definite, lambda_max or None)."""
    A_c, B_c, w = system.A_c, system.B_c, system.mean_w
    n = w.size
    A = 0.5 * (A_c + A_c.T)
    if system.basis.saturated:
        u0 = sp.csr_matrix(system.basis.aux.coefficients(
            np.ones(system.basis.aux.coarse.fine.n_cells))[:, None])
        A = A + (A.diagonal().sum() / n / (u0.T @ u0)[0, 0]) * (u0 @ u0.T)
    try:
        lu = splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                  options={"SymmetricMode": True})
    except RuntimeError:
        return False, None
    if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0)):
        return False, None
    if n == 1:
        return True, None

    def zero_mean(q):
        return q - (w @ q) / (w @ w) * w
    return True, coarse._top_eigenvalue(
        lambda q: zero_mean(B_c @ lu.solve(B_c.T @ zero_mean(q))), n, tol=1e-3)
