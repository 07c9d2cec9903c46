"""Velocity basis functions by constrained energy minimization.

Each coarse element contributes one basis function per kept eigenvector.
A basis function is the no-flux mixed solution, on an oversampled region
around its element, whose divergence reproduces the eigenvector's
weighted mass while the pressure's component in the auxiliary space is
either penalized through the projection (the default, `type2`) or pinned
by explicit multipliers (`type1`). The `global` flavor solves the same
default problem on the whole domain and is the localization target the
oversampled functions converge to.

Both flavors are instances of the saddle template of `fem` with a
coupling block C = S R_loc (weighted mass times local eigenvector
matrix): `type2` closes it with an identity block (y = C^T q), `type1`
with a zero block, which turns y into the negated constraint multiplier.

The systems are solved by static condensation. C is element-local, so
the unknowns strictly inside a coarse element (its interior edges, its
cells and its multipliers y) couple to the rest of any region only
through the element's 4r boundary edges. `CondensedElements` factors each
element's interior block once and keeps its Schur complement on those
edges, which is symmetric positive definite for both flavors. A region
sums the complements of its elements on its skeleton (the element
boundary edges strictly inside it; the no-flux condition drops the edges
on the region boundary), factors that sparse matrix once, solves for all
right-hand sides of the centre element and recovers every element's
interior by back-substitution. The condensed elements serve every region,
every layer count and the `global` flavor, which is the same solve on
the whole-domain region. Each function's full region saddle residual is
checked at `rtol`.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import ConfigError, SolveError
from .fem import (SaddleFactorization, SaddleSystem, assemble_a, assemble_b,
                  check_zero_mean, divergence_matrix, mass_matrix,
                  mass_triplets, velocity_dofmap)
from .mesh import element_region, full_domain, oversample_region, region_elements


@dataclass(frozen=True)
class VelocityBasisFunction:
    """One localized (or global) basis function.

    `v` holds fluxes on `edges` (the region-interior edges), `q` the
    pressure companion on `cells`; both are zero outside the region.
    `mu` carries the multiplier coefficients for the `type1` flavor.
    """

    element: int
    j: int
    layers: int
    flavor: str
    edges: np.ndarray
    v: np.ndarray
    cells: np.ndarray
    q: np.ndarray
    mu: np.ndarray = None
    mu_columns: np.ndarray = None

    def v_global(self, n_edges):
        full = np.zeros(n_edges)
        full[self.edges] = self.v
        return full

    def q_global(self, n_cells):
        full = np.zeros(n_cells)
        full[self.cells] = self.q
        return full


class BasisSet:
    """All basis functions of one flavor/layer choice, element-major."""

    def __init__(self, coarse, aux, flavor, layers, functions):
        self.coarse = coarse
        self.aux = aux
        self.flavor = flavor
        self.layers = layers
        self.functions = functions

    def __len__(self):
        return len(self.functions)

    def __iter__(self):
        return iter(self.functions)

    @cached_property
    def saturated(self):
        """True when every function was solved on the whole domain.

        The set then carries one exact linear dependency (the combination
        reproducing the constant pressure has zero velocity), which the
        coarse solve shifts out of the velocity block.
        """
        n_cells = self.coarse.fine.n_cells
        return all(fn.cells.size == n_cells for fn in self.functions)

    @cached_property
    def matrix(self):
        """Sparse (n_edges x n_functions) flux matrix."""
        n_edges = self.coarse.fine.n_edges
        rows, cols, vals = [], [], []
        for k, fn in enumerate(self.functions):
            rows.append(fn.edges)
            cols.append(np.full(fn.edges.size, k))
            vals.append(fn.v)
        if not rows:
            return sp.csr_matrix((n_edges, 0))
        return sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n_edges, len(self.functions))).tocsr()


class CondensedElements:
    """Every coarse element's saddle block condensed onto its boundary edges.

    Element e's interior unknowns are its `n_interior_edges` inner edges,
    its cells and its columns, in that order (padded to the largest column
    count). With K_II = `K_II[e]` their block, `W[e]` = K_II^-1 K_IG,
    `S[e]` = K_GG - K_GI W[e] is the Schur complement on the element's 4r
    `boundary[e]` edges, and `Z[e]` = K_II^-1 of `interior_rhs(e)`.
    `keys[e]` numbers the interior unknowns as rows of `operator`, the
    whole-domain saddle matrix (-1 on padding).

    `flavor` is `type1` or `type2`; the `global` flavor uses `type2`.
    `workers` threads condense the elements.
    """

    def __init__(self, aux, perm, flavor="type2", workers=1):
        if flavor not in ("type1", "type2"):
            raise ConfigError(f"unknown localized flavor {flavor!r}")
        self.aux = aux
        self.perm = perm
        self.flavor = flavor
        coarse = aux.coarse
        grid = coarse.fine
        r = coarse.r
        # every element is element 0 shifted: cells and edges of each kind
        # move by the element's offset in the fine grid
        region = element_region(coarse, 0)
        edges = region.all_edges()
        on_interior = np.isin(edges, region.interior_edges(), assume_unique=True)
        I, J = coarse.element_IJ(np.arange(coarse.n_elements))
        shift_v = (J * r * (grid.nx + 1) + I * r)[:, None]
        shift_h = (J * r * grid.nx + I * r)[:, None]
        all_edges = edges + np.where(edges < grid.n_vedges, shift_v, shift_h)
        self.cells = region.cells() + shift_h
        self.boundary = all_edges[:, ~on_interior]
        n_ie, n_c, n_b = np.count_nonzero(on_interior), r * r, 4 * r
        self.n_interior_edges = n_ie
        counts = aux.counts
        k_max = int(counts.max())
        pad = np.arange(k_max)[None, :]
        columns = np.where(pad < counts[:, None], aux.offsets[:-1, None] + pad, -1)
        self.keys = np.concatenate([
            all_edges[:, on_interior], grid.n_edges + self.cells,
            np.where(columns >= 0, grid.n_edges + grid.n_cells + columns, -1)], axis=1)
        self.W = np.zeros((coarse.n_elements, self.keys.shape[1], n_b))
        self.S = np.empty((coarse.n_elements, n_b, n_b))
        self.Z = np.zeros((coarse.n_elements, self.keys.shape[1], k_max))
        self.K_II = [None] * coarse.n_elements
        # the whole-domain saddle matrix over (all edges, cells, columns):
        # a region's rows and columns of it are that region's saddle matrix
        self.operator = SaddleSystem(
            mass_matrix(grid, perm), divergence_matrix(grid),
            rhs_v=np.zeros(grid.n_edges), rhs_p=np.zeros(grid.n_cells),
            C=sp.diags(aux.s_diag) @ aux.matrix,
            identity_block=(flavor == "type2")).matrix().tocsr()
        n_all = self.operator.shape[0]
        # no two elements' interior unknowns couple, so the operator on all
        # of them, element after element, is block diagonal; an interior
        # row couples outside its block only to its element's boundary
        valid = self.keys >= 0
        start = np.concatenate([[0], np.cumsum(valid.sum(axis=1))])
        interior = self.operator[self.keys[valid]]
        K_all = interior[:, self.keys[valid]]
        K_all.sort_indices()
        owner = np.repeat(np.arange(coarse.n_elements), np.diff(start))
        # K_IG and the element's own K_GG (its cells' flux mass on its
        # boundary), dense; slot e * n_b + i is boundary edge i of element e
        slots = (np.arange(coarse.n_elements)[:, None] * n_all + self.boundary).ravel()

        def slot(e, edge):
            at = np.minimum(np.searchsorted(slots, e * n_all + edge), slots.size - 1)
            return at, slots[at] == e * n_all + edge

        ig = interior.tocoo()
        at, hit = slot(owner[ig.row], ig.col)
        K_IG = np.zeros((coarse.n_elements, self.keys.shape[1], n_b))
        K_IG[owner[ig.row][hit], (ig.row - start[owner[ig.row]])[hit],
             at[hit] % n_b] = ig.data[hit]
        cells = self.cells.ravel()
        ra, ca, va = mass_triplets(grid, cells, perm.values[cells])
        e_of = np.tile(np.repeat(np.arange(coarse.n_elements), n_c), 8)
        (ar, hr), (ac, hc) = slot(e_of, ra), slot(e_of, ca)
        K_GG = np.zeros((coarse.n_elements, n_b, n_b))
        np.add.at(K_GG, (e_of[hr & hc], ar[hr & hc] % n_b, ac[hr & hc] % n_b),
                  va[hr & hc])

        def condense(e):
            a, b = start[e], start[e + 1]
            p, q = K_all.indptr[a], K_all.indptr[b]
            # symmetric: its compressed rows are its compressed columns
            K = self.K_II[e] = sp.csc_matrix(
                (K_all.data[p:q], K_all.indices[p:q] - a, K_all.indptr[a:b + 1] - p),
                shape=(b - a, b - a))
            solve = _interior_solver(K, e)
            W = self.W[e, :b - a] = solve(K_IG[e, :b - a])
            self.Z[e, :b - a, :aux.counts[e]] = solve(self.interior_rhs(e))
            S = K_GG[e] - K_IG[e, :b - a].T @ W
            self.S[e] = 0.5 * (S + S.T)

        _run(workers, condense, range(coarse.n_elements))

    def interior_rhs(self, e):
        """The interior right-hand sides of element e's basis functions, one
        column per kept eigenvector, with the template's sign flips: -rhs_p
        for type2, -rhs_c for type1."""
        P = self.aux.pressures[e]
        n_c, k = P.shape
        weighted = self.aux.s_diag[self.cells[e]][:, None] * P
        rhs = np.zeros((self.interior_size(e), k))
        if self.flavor == "type1":
            rhs[self.n_interior_edges + n_c:] = -(P.T @ weighted)
        else:
            rhs[self.n_interior_edges:self.n_interior_edges + n_c] = -weighted
        return rhs

    def interior_size(self, e):
        """Number of element e's interior unknowns, padding excluded."""
        return self.n_interior_edges + self.cells.shape[1] + int(self.aux.counts[e])

    def interior_solve(self, e, rhs):
        """K_II^-1 rhs for element e (the refinement path: its factor is
        not kept)."""
        return _interior_solver(self.K_II[e], e)(rhs)

    def region(self, region):
        """The condensed system of one region, factored."""
        return _RegionSystem(self, region)

    def batch(self, e, layers, rtol=1e-10):
        """All basis functions of element e on its region of `layers`
        layers, or on the whole domain (the `global` flavor, from `type2`)
        when `layers` is None."""
        if layers is None:
            if self.flavor != "type2":
                raise ConfigError("the global flavor is built from type2 elements")
            return self.region(full_domain(self.aux.coarse.fine)).functions(
                e, -1, "global", rtol)
        _check_layers(layers)
        region = oversample_region(self.aux.coarse, e, layers)
        return self.region(region).functions(e, layers, self.flavor, rtol)


def _interior_solver(K, e):
    """Solver for an element's interior block K, refined once: the
    element's divergence rows are small next to its flux rows at high
    contrast, and they carry the conservation identities. The factor
    lives in the solver, so it is made and freed by the calling thread
    (scipy does not release a SuperLU object freed by another thread)."""
    try:
        lu = splu(K)
    except RuntimeError as exc:
        raise SolveError(f"factorization failed for the interior of element {e}: {exc}")

    def solve(rhs):
        z = lu.solve(rhs)
        return z + lu.solve(rhs - K @ z)
    return solve


def _run(workers, fn, items):
    """fn over items, on `workers` threads when more than one."""
    if workers and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


class _RegionSystem:
    """A region's skeleton system: the element complements summed on the
    element boundary edges strictly inside the region, factored once.

    Unknowns are ordered as in `fem`: region-interior edges, region
    cells, region columns, each ascending; index n is a discarded slot
    for the padding of elements' interior unknowns.
    """

    def __init__(self, cond, region):
        self.cond = cond
        self.region = region
        grid = region.fine
        self.elements = region_elements(cond.aux.coarse, region)
        self.edges = region.interior_edges()
        self.cells = region.cells()
        keys = cond.keys[self.elements]
        columns = keys[:, -int(cond.aux.counts.max()):]
        self.columns = columns[columns >= 0] - grid.n_edges - grid.n_cells
        # the region's unknowns as rows of the whole-domain operator
        self.unknowns = np.concatenate([self.edges, grid.n_edges + self.cells,
                                        grid.n_edges + grid.n_cells + self.columns])
        self.n = self.unknowns.size
        self.operator_rows = cond.operator[self.unknowns]
        self.pos = np.where(keys >= 0, np.searchsorted(self.unknowns, keys), self.n)
        boundary = cond.boundary[self.elements]
        at = np.minimum(np.searchsorted(self.edges, boundary), self.edges.size - 1)
        inside = self.edges[at] == boundary
        self.skeleton = np.unique(at[inside])
        n_s = self.skeleton.size
        self.slots = np.where(inside, np.searchsorted(self.skeleton, at), n_s)
        # the region's elements row by row: consecutive ids, consecutive
        # positions in self.elements, so W is read without copies
        width = self.elements.size // (region.shape[1] // cond.aux.coarse.r)
        self.element_rows = [(slice(i, i + width), slice(e, e + width))
                     for i, e in zip(range(0, self.elements.size, width),
                                     self.elements[::width])]
        self.lu = None
        if n_s:
            both = inside[:, :, None] & inside[:, None, :]
            rows = np.broadcast_to(self.slots[:, :, None], both.shape)[both]
            cols = np.broadcast_to(self.slots[:, None, :], both.shape)[both]
            S = sp.csc_matrix((cond.S[self.elements][both], (rows, cols)),
                              shape=(n_s, n_s))
            try:
                # symmetric positive definite: a symmetric ordering, diagonal pivots
                self.lu = splu(S, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                               options={"SymmetricMode": True})
            except RuntimeError as exc:
                raise SolveError(f"factorization failed for {self.label}: {exc}")

    def _residual(self, x, rhs):
        """The region's saddle equations evaluated at x, minus rhs."""
        full = np.zeros((self.operator_rows.shape[1], x.shape[1]))
        full[self.unknowns] = x
        return self.operator_rows @ full - rhs

    @property
    def label(self):
        return f"{self.cond.flavor} region around element {self.region.center}"

    def _solve(self, rhs, interior):
        """Solve the region's saddle equations for the columns of `rhs`.
        `interior` maps the index in `elements` of each element with a
        nonzero interior right-hand side to K_II^-1 of that right-hand side."""
        cond = self.cond
        n_s, k = self.skeleton.size, rhs.shape[1]
        padded = np.vstack([rhs, np.zeros((1, k))])
        g = np.zeros((n_s + 1, k))
        g[:n_s] = rhs[self.skeleton]
        for i in interior:
            # an element's slots are distinct but for the discarded n_s
            g[self.slots[i]] -= cond.W[self.elements[i]].T @ padded[self.pos[i]]
        u = np.zeros((n_s + 1, k))
        if n_s:
            u[:n_s] = self.lu.solve(g[:n_s])
        x = np.zeros((self.n + 1, k))
        for inc, ids in self.element_rows:
            x[self.pos[inc]] = -(cond.W[ids] @ u[self.slots[inc]])
        x[self.skeleton] = u[:n_s]
        for i, z in interior.items():
            x[self.pos[i, :z.shape[0]]] += z
        return x[:self.n]

    def _refine(self, res):
        """One sweep of the region solve against residual `res`."""
        cond = self.cond
        interior = {}
        for i, e in enumerate(self.elements):
            interior[i] = cond.interior_solve(e, res[self.pos[i, :cond.interior_size(e)]])
        return self._solve(res, interior)

    def functions(self, e, layers, flavor, rtol):
        """The basis functions of element e, which must lie in the region,
        each with its region saddle residual checked at rtol."""
        cond = self.cond
        i = int(np.searchsorted(self.elements, e))
        rhs_int = cond.interior_rhs(e)
        n_i, k = rhs_int.shape
        rhs = np.zeros((self.n, k))
        rhs[self.pos[i, :n_i]] = rhs_int
        scale = np.linalg.norm(rhs, axis=0)
        tol = np.where(scale > 0, rtol * scale, rtol)
        x = self._solve(rhs, {i: cond.Z[e, :n_i, :k]})
        res = self._residual(x, rhs)
        norms = np.linalg.norm(res, axis=0)
        for _ in range(3):
            if (norms <= tol).all():
                break
            x -= self._refine(res)
            res = self._residual(x, rhs)
            norms = np.linalg.norm(res, axis=0)
        bad = np.flatnonzero(norms > tol)
        if bad.size:
            b = bad[0]
            raise SolveError(f"residual {norms[b]:.3e} above tolerance {tol[b]:.3e} "
                             f"for {self.label}", residual=float(norms[b]))
        n_e, n_c = self.edges.size, self.cells.size
        out = []
        for j, xj in enumerate(np.ascontiguousarray(x.T)):
            mu, mu_cols = None, None
            if cond.flavor == "type1":
                mu, mu_cols = -xj[n_e + n_c:], self.columns
            out.append(VelocityBasisFunction(
                element=int(e), j=j, layers=layers, flavor=flavor,
                edges=self.edges, v=xj[:n_e], cells=self.cells,
                q=xj[n_e:n_e + n_c], mu=mu, mu_columns=mu_cols))
        return out


def _check_layers(layers):
    if layers is None or layers < 1:
        raise ConfigError("localized basis functions need at least one layer")


def build_element_batch(aux, perm, e, layers, flavor="type2", rtol=1e-10):
    """All basis functions of element e, factoring its region once."""
    _check_layers(layers)
    return CondensedElements(aux, perm, flavor).batch(e, layers, rtol)


def build_basis_function(aux, perm, e, j, layers=None, flavor="type2", rtol=1e-10):
    """A single basis function; `flavor="global"` solves on the whole domain."""
    aux.column(e, j)
    if flavor == "global":
        return CondensedElements(aux, perm, "type2").batch(e, None, rtol)[j]
    return build_element_batch(aux, perm, e, layers, flavor, rtol)[j]


def build_basis_set(aux, perm, layers=None, flavor="type2", rtol=1e-10, workers=1):
    """Basis functions for every element and kept eigenvector.

    Functions are ordered element-major to match the auxiliary-space
    columns. Every element is condensed once; the `global` flavor factors
    the whole-domain skeleton once and reuses it for every element.
    """
    coarse = aux.coarse
    if flavor != "global":
        _check_layers(layers)
    cond = CondensedElements(aux, perm, "type2" if flavor == "global" else flavor,
                             workers)
    ids = range(coarse.n_elements)
    if flavor == "global":
        system = cond.region(full_domain(coarse.fine))
        batches = [system.functions(e, -1, flavor, rtol) for e in ids]
        layers = -1
    else:
        batches = _run(workers, lambda e: cond.batch(e, layers, rtol), ids)
    functions = [fn for b in batches for fn in b]
    return BasisSet(coarse, aux, flavor, layers, functions)


@dataclass(frozen=True)
class SnapshotSolution:
    """Whole-domain solve whose divergence matches the projected source;
    the localization target's exact counterpart for the chosen space."""

    grid: object
    v: np.ndarray
    p: np.ndarray


def build_snapshot(aux, perm, f, rtol=1e-10):
    """Solve the whole-domain problem with source replaced by the
    weighted projection of kappa_tilde^-1 f onto the auxiliary space."""
    grid = perm.grid
    f = np.asarray(f, dtype=np.float64)
    h2 = grid.h ** 2
    check_zero_mean(f, h2)
    w = f / aux.weight.values
    pw = aux.project(w)
    region = full_domain(grid)
    dofmap = velocity_dofmap(region)
    A = assemble_a(region, perm, dofmap)
    B = assemble_b(region, dofmap)
    system = SaddleSystem(
        A, B, rhs_v=np.zeros(dofmap.n_dofs), rhs_p=aux.s_diag * pw,
        mean_weights=np.full(grid.n_cells, h2), label="snapshot")
    sol = SaddleFactorization(system, rtol=rtol).solve()
    # the template solves with -b(v, p); this problem is posed with +b(v, p)
    return SnapshotSolution(grid, dofmap.scatter(sol.u, grid.n_edges), -sol.p)
