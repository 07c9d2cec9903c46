"""Velocity basis functions by constrained energy minimization.

Each coarse element contributes one basis function per kept eigenvector.
A basis function is the no-flux mixed solution, on an oversampled region
around its element, whose divergence reproduces the eigenvector's
weighted mass while the pressure's component in the auxiliary space is
either penalized through the projection (the default, `type2`) or pinned
by explicit multipliers (`type1`). The `global` flavor solves the same
default problem on the whole domain and is the localization target the
oversampled functions converge to.

Both flavors reduce to the shared saddle template of `fem` with a
coupling block C = S R_loc (weighted mass times local eigenvector
matrix): `type2` closes it with an identity block (y = C^T q), `type1`
with a zero block, which turns y into the negated constraint multiplier.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError
from .fem import (SaddleFactorization, SaddleSystem, assemble_a, assemble_b,
                  check_zero_mean, velocity_dofmap)
from .mesh import full_domain, oversample_region


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


def _region_problem(aux, perm, region, flavor, rtol):
    """Assemble and factor the constrained saddle system of one region."""
    dofmap = velocity_dofmap(region)
    A = assemble_a(region, perm, dofmap)
    B = assemble_b(region, dofmap)
    cols, R_loc = aux.restriction(region)
    cells = region.cells()
    s_region = aux.s_diag[cells]
    C = sp.diags(s_region) @ R_loc
    system = SaddleSystem(
        A, B, rhs_v=np.zeros(dofmap.n_dofs), rhs_p=np.zeros(cells.size),
        C=C.tocsr(), identity_block=(flavor != "type1"),
        rhs_c=np.zeros(cols.size),
        label=f"{flavor} region around element {region.center}")
    fact = SaddleFactorization(system, rtol=rtol)
    return dofmap, cells, cols, R_loc, s_region, fact


def _solve_one(aux, perm, e, j, flavor, layers, dofmap, cells, cols, R_loc,
               s_region, fact):
    col = aux.column(e, j)
    lc = int(np.searchsorted(cols, col))
    p_loc = R_loc[:, lc].toarray().ravel()
    if flavor == "type1":
        rhs_c = R_loc.T @ (s_region * p_loc)
        sol = fact.solve(rhs_c=rhs_c)
        mu, mu_cols = -sol.y, cols
    else:
        sol = fact.solve(rhs_p=s_region * p_loc)
        mu, mu_cols = None, None
    return VelocityBasisFunction(
        element=int(e), j=int(j), layers=layers, flavor=flavor,
        edges=dofmap.edges, v=sol.u, cells=cells, q=sol.p,
        mu=mu, mu_columns=mu_cols)


def build_element_batch(aux, perm, e, layers, flavor="type2", rtol=1e-10):
    """All basis functions of element e, factoring its region once."""
    if flavor not in ("type1", "type2"):
        raise ConfigError(f"unknown localized flavor {flavor!r}")
    if layers < 1:
        raise ConfigError("localized basis functions need at least one layer")
    region = oversample_region(aux.coarse, e, layers)
    pieces = _region_problem(aux, perm, region, flavor, rtol)
    return [_solve_one(aux, perm, e, j, flavor, layers, *pieces)
            for j in range(aux.counts[e])]


def build_basis_function(aux, perm, e, j, layers=None, flavor="type2", rtol=1e-10):
    """A single basis function; `flavor="global"` solves on the whole domain."""
    if flavor == "global":
        region = full_domain(aux.coarse.fine)
        pieces = _region_problem(aux, perm, region, "type2", rtol)
        return _solve_one(aux, perm, e, j, "global", -1, *pieces)
    batch = build_element_batch(aux, perm, e, layers, flavor, rtol)
    return batch[j]


def build_basis_set(aux, perm, layers=None, flavor="type2", rtol=1e-10, workers=1):
    """Basis functions for every element and kept eigenvector.

    Functions are ordered element-major to match the auxiliary-space
    columns. The `global` flavor factors the whole-domain system once
    and reuses it for every right-hand side.
    """
    coarse = aux.coarse
    if flavor == "global":
        region = full_domain(coarse.fine)
        pieces = _region_problem(aux, perm, region, "type2", rtol)
        elements, js = aux.column_labels()
        functions = [_solve_one(aux, perm, e, j, "global", -1, *pieces)
                     for e, j in zip(elements, js)]
        return BasisSet(coarse, aux, flavor, -1, functions)

    def batch(e):
        return build_element_batch(aux, perm, e, layers, flavor, rtol)

    ids = range(coarse.n_elements)
    if workers and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(batch, ids))
    else:
        batches = [batch(e) for e in ids]
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
