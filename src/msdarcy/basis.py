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
matrix), closed by a diagonal Y: ones for `type2` (y = C^T q), zeros for
`type1`, which turns y into the negated constraint multiplier. Every
element has k_max column slots, its kept columns and padding; a padding
slot has C = 0 and Y = 1, so its y is zero. The flavor and the column
counts are values only, not the pattern.

The systems are solved by static condensation. C is element-local, so
the unknowns strictly inside a coarse element (its interior edges, its
cells and its multipliers y) couple to the rest of any region only
through the element's 4r boundary edges. `CondensedElements` condenses
every element at once, as stacks: the interior edges are eliminated line
by line (`auxspace.ElementLines`), the remaining dense block on the
cells and multipliers is inverted, and the element's Schur complement on
its boundary edges, symmetric positive definite for both flavors, is
kept; the factors are not. A region sums the complements of its
elements on its skeleton (the element boundary edges strictly inside
it; the no-flux condition drops the edges on the region boundary),
factors that matrix once, solves for all right-hand sides of the elements
it is the region of (its centres) and recovers every element's interior
by back-substitution. The skeleton runs row by row in space, so its
matrix is a band about two rows of the region's edges wide, written by
`fem.band_matrix` and factored by `fem.band_cholesky`. Regions of one shape
share their index maps (a `_RegionTemplate`), and are solved together
(`_Regions`): their ids, values, right-hand sides, back-substitutions
and residuals are stacked, and only the skeleton factors and solves run
region by region.
`CondensedElements.functions` is the one entry point and the one pass
that groups regions: it takes each element's region of any layer count,
or the whole domain for `layers=None` (the `global` flavor, from the
`type2` elements), merges the elements whose regions coincide, and
solves each distinct region once for all its centres, the regions of one
template in parts of about `REGION_BYTES`. It finds every region's
bounds, covered elements and template in one vectorized step. Each
function's full region saddle residual is checked at `rtol`.

A template holds a region's saddle pattern and where each of its values
comes from: a cell's flux mass, the divergence's +-h, C or Y. It depends
on the grids alone, on the region's shape and k_max, so the templates
are memoized per grid (`_template`, read-only) and serve every later
solve on the same grids. The values, the condensed elements, the
factors, the solutions and the stacks are made per call; no whole-domain
matrix is built.

Each function also carries what the coarse blocks need, so that they are
assembled with no fine-grid product: its divergence coefficients
R^T B psi, its trace M psi - B^T q on the region-boundary edges and its
energy psi^T M psi. They, and the residual check, come from the region's
rows, in its unknowns' columns and then its region-boundary edges'
columns; the region solve's pressure q is read there and dropped. The
rest is held only as the column stacks of a `BasisSet` (Psi, B_c and G):
the grouping pass fixes every column's place before any solve, each part
writes its columns there, and the per-function records are views.
"""

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import as_strided

from .auxspace import _run, _stacked, element_lines
from .errors import ConfigError, SolveError
from .fem import (FineSolution, _solve_whole_domain, band_cholesky, band_matrix, band_solve,
                  check_source, lower_band_positions, mass_triplets)
from .mesh import (Region, element_layout, full_domain, oversample_region, read_only,
                   region_elements)


@dataclass(frozen=True)
class VelocityBasisFunction:
    """One localized (or global) basis function.

    `v` holds fluxes on `edges` (the region-interior edges), zero outside
    the region, whose cells are `cells`. What the coarse blocks need
    (`coarse.assemble_coarse_system`), from the region solve: `div` holds
    the divergence coefficients R^T B psi on `div_columns`, the region's
    auxiliary columns. The divergence lies in the weighted image of the
    auxiliary space, B psi = S R div, so `div` is the function's column of
    B_c = R^T B Psi. `trace` holds M psi - B^T q on `trace_edges`, the
    region-boundary edges inside the domain, q being the region solve's
    pressure (not kept): the region's flux equations make it zero on the
    region-interior edges, and psi vanishes on the domain boundary, so
    psi_k^T M psi = psi_k^T (B^T q + trace) for every function psi_k. The
    `global` flavor has no such edges. `energy` is psi^T M psi. The arrays
    but `cells` are views of the function's columns in its `BasisSet`'s
    stacks, not copies.
    """

    element: int
    j: int
    layers: int
    flavor: str
    edges: np.ndarray
    v: np.ndarray
    cells: np.ndarray
    div: np.ndarray
    div_columns: np.ndarray
    trace: np.ndarray
    trace_edges: np.ndarray
    energy: float

    def v_global(self, n_edges):
        full = np.zeros(n_edges)
        full[self.edges] = self.v
        return full


@dataclass(frozen=True)
class BasisSet(Sequence):
    """The basis functions of one flavor/layer choice, element-major, as
    CSC column stacks written once by the basis stage: column k of Psi
    (`matrix`), B_c (`divergence`) and G (`traces`) holds what record k
    holds. `layers` is -1 for the `global` flavor. `len`, iteration and
    `bset[k]` give `VelocityBasisFunction` records whose arrays are views
    of column k of the stacks, not copies; their `cells` are those of
    their element's region.
    """

    aux: object
    flavor: str
    layers: int
    matrix: sp.csc_matrix
    divergence: sp.csc_matrix
    traces: sp.csc_matrix
    energies: np.ndarray
    columns: np.ndarray
    elements: np.ndarray

    def __len__(self):
        return self.energies.size

    def __getitem__(self, k):
        k = range(len(self))[k]
        e = int(self.elements[k])
        coarse = self.aux.coarse
        region = (full_domain(coarse.fine) if self.layers == -1
                  else oversample_region(coarse, e, self.layers))
        edges, v, div_columns, div, trace_edges, trace = (
            a[m.indptr[k]:m.indptr[k + 1]]
            for m in (self.matrix, self.divergence, self.traces)
            for a in (m.indices, m.data))
        return VelocityBasisFunction(
            e, int(self.columns[k] - self.aux.offsets[e]), self.layers, self.flavor, edges, v,
            region.cells(), div, div_columns, trace, trace_edges, float(self.energies[k]))

    @property
    def saturated(self):
        """True when every function was solved on the whole domain: its
        column of Psi holds every domain-interior edge.

        The set then carries one exact linear dependency (the combination
        reproducing the constant pressure has zero velocity), which the
        coarse solve shifts out of the velocity block.
        """
        interior = full_domain(self.aux.coarse.fine).interior_edges().size
        return bool(np.all(np.diff(self.matrix.indptr) == interior))


def _stack(sizes, n_rows):
    """A CSC matrix with `sizes[k]` entries in column k, whose row ids and
    values (the constructor reads neither) the parts `_scatter` in place."""
    nnz = int(sizes.sum())
    index = np.int32 if max(nnz, n_rows) < 2 ** 31 else np.int64
    indptr = np.append(0, np.cumsum(sizes)).astype(index)
    return sp.csc_matrix((np.empty(nnz), np.empty(nnz, dtype=index), indptr),
                         shape=(n_rows, sizes.size))


def _scatter(stack, columns, ids, values, keep=None):
    """Write row r of `ids` and of `values` into column columns[r] of the
    stack: whole, as one copy into the window of the row's width that
    starts at the column (the columns' windows do not overlap, and a copy
    per row beats an index per entry), or the entries `keep` marks."""
    start = stack.indptr[columns]
    if keep is None:
        n = ids.shape[1]
        for a, v in ((stack.indices, ids), (stack.data, values)):
            as_strided(a, (a.size - n + 1, n), 2 * a.strides)[start] = v
    else:
        at = (start[:, None] + np.cumsum(keep, axis=1) - 1)[keep]
        stack.indices[at] = ids[keep]
        stack.data[at] = values[keep]


class CondensedElements:
    """Every coarse element's saddle block condensed onto its boundary edges.

    Element e's interior unknowns are its `n_interior_edges` inner edges,
    its cells and its k_max column slots, in that order: its kept columns,
    then padding. With K_II their block, `W[e]` = K_II^-1 K_IG, `S[e]` =
    K_GG - K_GI W[e] is the Schur complement on the element's 4r
    `boundary[e]` edges, and `Z[e]` = K_II^-1 `rhs[e]`, where `rhs[e]`
    holds the interior right-hand sides of element e's basis functions, one
    column per kept eigenvector (zero on padding). `C`, `Y` and the
    cells' flux mass entries `c1`, `c2` are the values of every region's
    saddle matrix, which `_Regions` places by its template.

    `factor` factors K_II for some elements, as stacks: it inverts every
    line block of the interior edges (`auxspace.ElementLines`) and the
    dense block left on the cells and slots, -B A^-1 B^T bordered by -C
    and closed by the diagonal `Y`: ones for `type2`, zeros on kept
    `type1` columns, ones on padding. The factors are dropped once W and
    Z are made; a region's rare refinement sweep (`_Regions._refine`)
    makes its own.

    `flavor` is `type1` or `type2`; the `global` flavor uses `type2`.
    Up to `workers` threads condense contiguous slices of the elements
    and solve the parts of `functions`.
    """

    def __init__(self, aux, perm, flavor="type2", workers=1):
        if flavor not in FLAVORS[:2]:
            raise ConfigError(f"unknown localized flavor {flavor!r}")
        self.aux = aux
        self.perm = perm
        self.flavor = flavor
        self.workers = workers
        coarse = aux.coarse
        n_el = coarse.n_elements
        interior_edges, self.cells, self.boundary = element_layout(coarse)
        self.lines = element_lines(coarse)
        n_c, n_b = self.cells.shape[1], self.boundary.shape[1]
        n_ie = self.n_interior_edges = interior_edges.shape[1]
        kept = aux.columns >= 0
        k_max = kept.shape[1]
        width = n_ie + n_c + k_max
        # C on each element's cells and columns, zero on padding
        P = aux.pressures
        self.C = aux.s_diag[self.cells][:, :, None] * P
        self.Y = np.where(kept & (flavor == "type1"), 0.0, 1.0)
        # right-hand sides, with the template's sign flips: -rhs_p for
        # type2, -rhs_c for type1
        self.rhs = np.zeros((n_el, width, k_max))
        if flavor == "type1":
            self.rhs[:, n_ie + n_c:] = -(P.transpose(0, 2, 1) @ self.C)
        else:
            self.rhs[:, n_ie:n_ie + n_c] = -self.C
        # every cell's flux mass entries: c1 on its edges' diagonal, c2 in a pair
        self.c1, _, self.c2 = mass_triplets(
            perm.grid, np.arange(perm.grid.n_cells), perm.values)[2].reshape(8, -1)[:3]
        self.W = np.empty((n_el, width, n_b))
        self.S = np.empty((n_el, n_b, n_b))
        self.Z = np.empty((n_el, width, k_max))
        # the working set: the right-hand sides, the solution and two
        # temporaries of their size
        _stacked(workers, self._condense, n_el, 4 * 8 * self.W.shape[1] * (n_b + k_max))

    def _condense(self, part):
        """Condense the elements of one slice; their factors are dropped."""
        lines = self.lines
        n_ie = self.n_interior_edges
        mass, solve = self.factor(part)
        # K_IG: the interior edges' and cells' couplings to the boundary,
        # all within lines, next to the right-hand sides; K_GG: the
        # element's own flux mass on the boundary
        n, n_b, k = mass.shape[0], self.S.shape[1], self.C.shape[2]
        ends = [0, -1]
        F = np.zeros((n, self.W.shape[1], n_b + k))
        F[:, lines.interior[:, :, None], lines.boundary[:, None, :]] = \
            mass[:, :, 1:-1][:, :, :, ends]
        F[:, n_ie + lines.cells[:, :, None], lines.boundary[:, None, :]] = \
            -lines.div[:, :, ends]
        F[:, :, n_b:] = self.rhs[part]
        K_GG = np.zeros((n, n_b, n_b))
        K_GG[:, lines.boundary[:, :, None], lines.boundary[:, None, :]] = \
            mass[:, :, ends][:, :, :, ends]
        sol = solve(F)
        W = self.W[part] = sol[:, :, :n_b]
        self.Z[part] = sol[:, :, n_b:]
        S = K_GG - F[:, :, :n_b].transpose(0, 2, 1) @ W
        self.S[part] = 0.5 * (S + S.transpose(0, 2, 1))

    def factor(self, ids):
        """The line masses of the elements `ids` (a slice or an index
        array) and solve(F) = K_II^-1 F from their factors, F stacked as
        (elements, interior unknowns, columns), refined once: at high
        contrast an element's divergence rows are small next to its flux
        rows, and they carry the conservation identities."""
        lines = self.lines
        n_ie, n_c = self.n_interior_edges, self.cells.shape[1]
        mass = lines.mass(self.perm, np.arange(self.aux.coarse.n_elements)[ids])
        A, A_inv, X, M = lines.eliminate(mass)
        C, Y = self.C[ids], self.Y[ids]
        n, k = C.shape[0], C.shape[2]
        K = np.zeros((n, n_c + k, n_c + k))
        K[:, :n_c, :n_c] = -M
        K[:, :n_c, n_c:] = -C
        K[:, n_c:, :n_c] = -C.transpose(0, 2, 1)
        K[:, np.arange(n_c, n_c + k), np.arange(n_c, n_c + k)] = Y
        K_inv = np.linalg.inv(K)
        div = lines.div[:, :, 1:-1]

        def inverse(F):
            # the edges' line solves, the dense block's inverse, the
            # edges' back-substitution
            y = A_inv @ F[:, lines.interior]
            g = F[:, n_ie:].copy()
            g[:, :n_c] += lines.to_cells(div @ y)
            pc = K_inv @ g
            out = np.empty_like(F)
            out[:, lines.interior] = y + X @ pc[:, lines.cells]
            out[:, n_ie:] = pc
            return out

        def solve(F):
            z = inverse(F)
            # K_II z, from the line blocks, B and C
            u, p, y = z[:, lines.interior], z[:, n_ie:n_ie + n_c], z[:, n_ie + n_c:]
            res = np.empty_like(z)
            res[:, lines.interior] = A @ u - div.transpose(0, 2, 1) @ p[:, lines.cells]
            res[:, n_ie:n_ie + n_c] = -lines.to_cells(div @ u) - C @ y
            res[:, n_ie + n_c:] = Y[:, :, None] * y - C.transpose(0, 2, 1) @ p
            np.subtract(F, res, out=res)
            z += inverse(res)
            return z
        return mass, solve

    def functions(self, elements, layers, rtol=1e-10):
        """The `BasisSet` of the basis functions of `elements`,
        element-major, on their regions of `layers` layers, or on the whole
        domain (the `global` flavor, from `type2`) when `layers` is None;
        each function's region saddle residual is checked at rtol.

        Elements whose regions coincide share one region, factored once and
        solved for all of them. Regions of one template are solved together,
        in parts of about REGION_BYTES, on up to `workers` threads, each
        part writing its functions' columns of the stacks in place.
        """
        aux, coarse, grid = self.aux, self.aux.coarse, self.aux.coarse.fine
        if layers is None and self.flavor != "type2":
            raise ConfigError("the global flavor is built from type2 elements")
        _check_method("global" if layers is None else self.flavor, layers)
        elements = np.array(elements, dtype=np.int64)
        counts = aux.counts[elements]
        first = np.cumsum(counts) - counts
        k_max = self.Z.shape[2]
        # every centre's region, [I0, I1) x [J0, J1) in elements (the whole
        # domain when `layers` is None), and the distinct regions in the
        # order of their first centres; `region[t]` numbers centre t's
        reach = max(coarse.Nx, coarse.Ny) if layers is None else layers
        I, J = coarse.element_IJ(elements)
        bounds = np.stack([np.maximum(I - reach, 0), np.minimum(I + reach + 1, coarse.Nx),
                           np.maximum(J - reach, 0), np.minimum(J + reach + 1, coarse.Ny)],
                          axis=1)
        _, at, region = np.unique(bounds, axis=0, return_index=True, return_inverse=True)
        distinct = np.argsort(at)
        bounds, centre = bounds[at[distinct]], elements[at[distinct]]
        region = np.argsort(distinct)[region.ravel()]
        shapes = bounds[:, [1, 3]] - bounds[:, [0, 2]]
        # each region's template, by its shape, in the order of their first regions
        distinct_shapes, template = np.unique(shapes, axis=0, return_inverse=True)
        template = template.ravel()
        _, first_region = np.unique(template, return_index=True)
        templates = [_template(coarse, tuple(int(x) for x in shape), k_max)
                     for shape in distinct_shapes]
        # the regions of each template, in parts of about REGION_BYTES; a
        # part's items are its regions' centres, region by region. Each
        # region's columns are its covered elements' kept ones
        parts = []
        n_columns = np.empty(len(bounds), dtype=np.int64)
        for g in np.argsort(first_region):
            tpl, group = templates[g], np.flatnonzero(template == g)
            n_columns[group] = aux.counts[_covered(coarse, bounds[group])].sum(axis=1)
            count = min(group.size, -(-group.size * tpl.bytes // REGION_BYTES))
            parts += [(tpl, group[group.size * i // count:group.size * (i + 1) // count])
                      for i in range(count)]
        # each centre's column sizes in the stacks: its region's edges,
        # columns and region-boundary edges inside the domain
        r = coarse.r
        sides_x = (bounds[:, 0] > 0).astype(np.int64) + (bounds[:, 1] < coarse.Nx)
        sides_y = (bounds[:, 2] > 0).astype(np.int64) + (bounds[:, 3] < coarse.Ny)
        traces = r * (shapes[:, 1] * sides_x + shapes[:, 0] * sides_y)
        edges = np.array([tpl.edges.size for tpl in templates])[template]
        sizes = np.column_stack([edges, n_columns, traces])[region]
        sizes = np.repeat(sizes, counts, axis=0)
        stacks = [_stack(size, rows) for size, rows in
                  zip(sizes.T, (grid.n_edges, aux.n_columns, grid.n_edges))]
        energies = np.empty(sizes.shape[0])

        def solve(part):
            tpl, group = part
            system = _Regions(self, tpl, r * bounds[group][:, [0, 2]], centre[group],
                              _covered(coarse, bounds[group]), layers)
            # the part's centres, by their region's place in the part
            place = np.full(len(bounds), group.size)
            place[group] = np.arange(group.size)
            place = place[region]
            ts = np.argsort(place, kind="stable")[:np.count_nonzero(place < group.size)]
            items = np.column_stack([place[ts], elements[ts], first[ts]])
            # a region's centres are solved side by side, in parts of about REGION_BYTES
            size = group.size * max(1, REGION_BYTES // (5 * 8 * tpl.n * k_max * group.size))
            for start in range(0, len(items), size):
                system.solve(items[start:start + size], rtol, stacks, energies)

        _run(self.workers, solve, parts)
        owner = np.repeat(elements, counts)
        columns = aux.offsets[owner] + np.arange(owner.size) - np.repeat(first, counts)
        return BasisSet(aux, "global" if layers is None else self.flavor,
                        -1 if layers is None else layers, *stacks, energies, columns, owner)


def _covered(coarse, bounds):
    """The elements covering regions of one shape, [I0, I1) x [J0, J1) per
    row of `bounds`, one row per region, in `mesh.region_elements` order."""
    I0, I1, J0, J1 = bounds.T
    I = I0[:, None, None] + np.arange(I1[0] - I0[0])
    J = J0[:, None, None] + np.arange(J1[0] - J0[0])[:, None]
    return coarse.element_id(I, J).reshape(len(bounds), -1)


class _Rows:
    """The pattern of a region's rows, from the number of entries per row
    (`counts`) and their column ids (`ids`, row by row), each among
    `columns` (distinct ids): kept as row offsets and each entry's
    column's position in `columns`. The same for every region of one
    template (`_RegionTemplate`)."""

    def __init__(self, counts, ids, columns):
        n = columns.size
        lookup = np.full(columns.max() + 1, -1, dtype=np.int32)
        lookup[columns] = np.arange(n)
        self.indptr = np.append(0, np.cumsum(counts)).astype(np.int32)
        self.indices = lookup[ids].astype(np.min_scalar_type(n))
        self.shape = (counts.size, n)

    def matrix(self, data):
        """One block-diagonal matrix of these rows for several regions,
        region g's entries `data[g]`, row by row."""
        g, nnz = data.shape
        m, n = self.shape
        # ids of the index type the sparse constructor keeps: it then neither
        # scans nor copies them
        index = np.int32 if g * max(n, nnz) < 2 ** 31 else np.int64
        base = np.arange(g, dtype=index)[:, None]
        return sp.csr_matrix(
            (data.ravel(), (self.indices + base * index(n)).ravel(),
             np.append((self.indptr[:-1] + base * index(nnz)).ravel(), index(g * nnz))),
            shape=(g * m, g * n))


class _RegionTemplate:
    """Index maps shared by every region of one shape.

    Regions of one shape differ by a translation, which shifts each kind
    of global id (vertical edges, horizontal edges, cells and column
    slots) by a constant and keeps every sorted order. So the positions
    of the elements' interior unknowns among the region's unknowns
    (`pos`; every one is a region unknown, padding slots included), the
    skeleton in its row-by-row order and its slots, the lower band of the
    skeleton matrix (half-width `kd`) with the scatter from the elements'
    stacked complements into it, the pattern of the region's rows (`K`:
    the region's saddle matrix in its unknowns' columns, then its coupling
    to the region-boundary edges) and where their values come from hold
    for all of them. The column slots run element by element, as
    `aux.columns` does (-1 on padding).

    The template depends on the grids alone, not on the flavor, the
    column counts, the permeability or the eigenvectors: it is built for
    the region of `shape` (elements wide, high) at the domain's lower-left
    corner, whose covered elements have `k_max` slots each, and memoized
    per grid (`_template`). Its arrays are read-only.
    """

    def __init__(self, coarse, shape, k_max):
        grid, r = coarse.fine, coarse.r
        self.width, height = shape
        region = Region(grid, 0, self.width * r, 0, height * r)
        elements = region_elements(coarse, region)
        edges, cells = region.interior_edges(), region.cells()
        boundary = region.boundary_edges()
        self.vertical = edges < grid.n_vedges
        self.boundary_vertical = boundary < grid.n_vedges
        # the elements' interior unknowns by global id: interior edges,
        # cells and column slots (`ys`, e k_max + j for slot j of element e)
        interior_edges, element_cells, element_boundary = (
            a[elements] for a in element_layout(coarse))
        ys = grid.n_edges + grid.n_cells + elements[:, None] * k_max + np.arange(k_max)
        keys = np.concatenate([interior_edges, grid.n_edges + element_cells, ys], axis=1)
        unknowns = np.concatenate([edges, grid.n_edges + cells, ys.ravel()])
        n = self.n = unknowns.size
        self.pos = np.searchsorted(unknowns, keys).astype(np.int32)
        at = np.minimum(np.searchsorted(edges, element_boundary), edges.size - 1)
        inside = edges[at] == element_boundary
        # the skeleton row by row in space, by the doubled coordinates of
        # the edge midpoints: an element's complement couples edges at most
        # one element row apart, so the skeleton matrix is a narrow band
        skeleton = np.unique(at[inside])
        self.skeleton = skeleton[np.argsort(grid.edge_midpoint_key(edges[skeleton]))]
        n_s = self.n_s = self.skeleton.size
        rank = np.zeros(edges.size, dtype=np.int64)
        rank[self.skeleton] = np.arange(n_s)
        self.slots = np.where(inside, rank[at], n_s).astype(np.int32)
        # the skeleton matrix's lower band: entry (slot a, slot b), a >= b,
        # of every element's complement, summed at its flat position in the
        # (kd + 1) x n_s band (`S_dst`). `S_src` holds each such entry's
        # place in the flat stack of element complements for the template's
        # own elements; a region's elements are theirs shifted by the
        # region's first element id. The maps are narrow integers: that
        # keeps the templates small
        mask = (inside[:, :, None] & inside[:, None, :]
                & (self.slots[:, :, None] >= self.slots[:, None, :]))
        S_dst, self.kd = lower_band_positions(
            np.broadcast_to(self.slots[:, :, None], mask.shape)[mask],
            np.broadcast_to(self.slots[:, None, :], mask.shape)[mask], n_s)
        self.S_dst = S_dst.astype(np.min_scalar_type(n_s * (self.kd + 1)))
        owner, entry = np.nonzero(mask.reshape(elements.size, -1))
        self.S_src = (elements[owner] * mask[0].size + entry).astype(
            np.min_scalar_type(coarse.n_elements * mask[0].size))
        # the region's rows, in its unknowns' columns (its saddle matrix)
        # followed by its region-boundary edges' columns, which transposed
        # give the traces M psi - B^T q. The pattern is written out by row
        # kind, each row ascending, and `_Regions` writes the values in the
        # same order: an interior edge couples to itself and the opposite
        # edge of each of its two cells a and b (`edge_cells`; c2(a),
        # c1(a) + c1(b), c2(b)) and to those cells (-h, h); a cell to its
        # four edges (h, -h, h, -h) and its element's column slots (-C, an
        # entry for each, zero or not; `cell_element` is the element's place
        # in the region, `cell_local` the cell's in the element, whose cells
        # `element_layout` orders row by row); a slot to its element's cells
        # (-C) and itself (Y, zero or not)
        nx, (cells_x, cells_y) = grid.nx, region.shape
        j, i = np.mgrid[0:cells_y, 1:cells_x]
        v, cell = grid.vedge_id(i, j), grid.n_edges + j * nx + i
        vertical = np.stack([v - 1, v, v + 1, cell - 1, cell], axis=-1).reshape(-1, 5)
        j, i = np.mgrid[1:cells_y, 0:cells_x]
        h, cell = grid.hedge_id(i, j), grid.n_edges + j * nx + i
        horizontal = np.stack([h - nx, h, h + nx, cell - nx, cell], axis=-1).reshape(-1, 5)
        self.edge_cells = (np.concatenate([vertical[:, 3:], horizontal[:, 3:]])
                           - grid.n_edges).astype(np.int32)
        ix, iy = grid.cell_ix_iy(cells)
        self.cell_element = ((iy // r) * self.width + ix // r).astype(
            np.min_scalar_type(elements.size))
        self.cell_local = ((iy % r) * r + ix % r).astype(np.min_scalar_type(r * r))
        cell_rows = np.concatenate([np.stack(grid.cell_edge_ids(cells), axis=1),
                                    ys[self.cell_element]], axis=1)
        column_rows = np.concatenate([grid.n_edges + np.repeat(element_cells, k_max, axis=0),
                                      ys.reshape(-1, 1)], axis=1)
        rows = (vertical, horizontal, cell_rows, column_rows)
        self.K = _Rows(np.concatenate([np.full(len(a), a.shape[1]) for a in rows]),
                       np.concatenate([a.ravel() for a in rows]),
                       np.concatenate([unknowns, boundary]))
        self.edges, self.cells = edges.astype(np.int32), cells.astype(np.int32)
        self.boundary = boundary.astype(np.int32)
        # about what a region takes while solved with others: its rows'
        # values and ids, its gathered complements, its skeleton band (which
        # its factor overwrites) and five arrays of right-hand-side size
        self.bytes = 8 * (4 * int(self.K.indptr[-1])
                          + self.S_src.size + n_s * (self.kd + 1)
                          + 5 * n * k_max)
        # the region's elements row by row: consecutive ids, consecutive
        # positions in `elements`
        self.row_starts = range(0, elements.size, self.width)
        read_only(*(a for a in vars(self).values() if isinstance(a, np.ndarray)),
                  *(a for a in vars(self.K).values() if isinstance(a, np.ndarray)))


@cache
def _template(coarse, shape, k_max):
    """The `_RegionTemplate` of regions of `shape` (elements wide, high)
    whose elements have `k_max` column slots each; memoized per grid."""
    return _RegionTemplate(coarse, shape, k_max)


# About how many bytes the regions or centres solved together may take;
# more are solved in several parts.
REGION_BYTES = 8 << 20


class _Regions:
    """Regions of one template, solved together: each region's skeleton
    system is the element complements summed on the element boundary
    edges strictly inside it. Region g's lower-left cell is `origins[g]`
    (ix, iy), its first centre `centres[g]` (named in errors) and
    `elements[g]` holds its elements, as `mesh.region_elements` orders
    them. `layers` is their layer count; None marks the whole domain,
    whose functions are the `global` flavor's.

    Arrays carry a leading region axis. A region's unknowns are ordered as
    in `fem`: region-interior edges, region cells, its elements' column
    slots, each ascending; padding slots are unknowns like the others,
    whose values are zero. `columns` holds the slots' auxiliary columns,
    -1 on padding: only the kept ones reach B_c. `K` holds every region's
    rows of the template's `K`, their values written once by row kind, as
    one block-diagonal matrix: region g's n rows, and its n unknowns'
    columns followed by its region-boundary edges'. Each region's skeleton
    factor is made once, on its first solve, and kept for its other parts
    and refinement sweeps.
    """

    def __init__(self, cond, template, origins, centres, elements, layers):
        self.cond = cond
        self.template = tpl = template
        self.centres = centres
        self.elements = elements
        self.layers = layers
        self.flavor = "global" if layers is None else cond.flavor
        grid = cond.aux.coarse.fine
        # the template's region sits at the domain's lower-left corner; a
        # vertical edge's id moves by one more per row than a cell's
        dj = origins[:, 1:]
        shift = dj * grid.nx + origins[:, :1]
        self.edges = tpl.edges + np.where(tpl.vertical, shift + dj, shift)
        self.boundary = tpl.boundary + np.where(tpl.boundary_vertical, shift + dj, shift)
        self.cells = tpl.cells + shift
        g = len(centres)
        self.columns = cond.aux.columns[elements].reshape(g, -1)
        # every region's rows of `_RegionTemplate` as one block-diagonal
        # matrix, their values written by row kind in the template's order
        n_e, n_c, k = len(tpl.edge_cells), len(tpl.cell_local), cond.C.shape[2]
        data = np.empty((g, int(tpl.K.indptr[-1])))
        edge = data[:, :5 * n_e].reshape(g, n_e, 5)
        cell = data[:, 5 * n_e:5 * n_e + (4 + k) * n_c].reshape(g, n_c, 4 + k)
        column = data[:, 5 * n_e + (4 + k) * n_c:].reshape(g, elements.shape[1], k, -1)
        a, b = np.moveaxis(tpl.edge_cells + shift[:, :, None], 2, 0)
        edge[..., 0], edge[..., 2], edge[..., 3:] = cond.c2[a], cond.c2[b], (-grid.h, grid.h)
        np.add(cond.c1[a], cond.c1[b], out=edge[..., 1])
        cell[..., :4] = grid.h * np.array([1.0, -1.0, 1.0, -1.0])
        np.negative(cond.C[elements[:, tpl.cell_element], tpl.cell_local], out=cell[..., 4:])
        np.negative(cond.C[elements].transpose(0, 1, 3, 2), out=column[..., :-1])
        column[..., -1] = cond.Y[elements]
        self.K = tpl.K.matrix(data)
        self.s = cond.aux.s_diag[self.cells]
        # the region-boundary edges inside the domain: every function
        # vanishes on the domain boundary
        self.inner = ~grid.boundary_edge_mask()[self.boundary]
        # the regions' skeleton bands side by side, region g's from column g n_s
        self.bands = band_matrix(
            (tpl.S_dst + np.arange(g)[:, None] * (tpl.n_s * (tpl.kd + 1))).ravel(),
            cond.S.ravel()[tpl.S_src + self.elements[:, :1] * cond.S[0].size].ravel(),
            tpl.kd + 1, g * tpl.n_s)

    def _label(self, i):
        if self.layers is None:
            return "the global flavor's whole domain"
        return (f"the {self.flavor} region of {self.layers} layers around element "
                f"{self.centres[i]}")

    @cached_property
    def factors(self):
        """Every region's skeleton factor; each overwrites its band."""
        factors = []
        for i, band in enumerate(np.hsplit(self.bands, len(self.centres))):
            try:
                factors.append(band_cholesky(band))
            except np.linalg.LinAlgError as exc:
                raise SolveError(f"factorization failed for {self._label(i)}: {exc}")
        return factors

    def _times(self, z, start=0, K=None):
        """K [0; z; 0] for every region: z (regions, m, columns) on the
        unknowns from `start` on, zeros on the other unknowns and on the
        region-boundary edges. K is `self.K` or some rows of each region's
        block of it, the same in every block. Returns (regions, rows, columns)."""
        g, m, c = z.shape
        full = np.zeros((g, self.template.n + self.boundary.shape[1], c))
        full[:, start:start + m] = z
        return ((self.K if K is None else K) @ full.reshape(-1, c)).reshape(g, -1, c)

    def _skeleton(self, sel, g):
        """Skeleton values u (with the discarded slot) from right-hand sides
        g of the regions `sel`."""
        n_s = self.template.n_s
        u = np.zeros((len(sel), n_s + 1, g.shape[2]))
        for k, i in enumerate(sel if n_s else []):
            u[k, :n_s] = band_solve(self.factors[i], g[k, :n_s])
        return u

    def _back(self, sel, u):
        """Every unknown of the regions `sel` from their skeleton values:
        -W u on each element's interior, u on the skeleton."""
        cond, tpl = self.cond, self.template
        x = np.zeros((len(sel), tpl.n, u.shape[2]))
        for i in tpl.row_starts:
            # one row of elements at a time bounds the gathered W
            inc = slice(i, i + tpl.width)
            x[:, tpl.pos[inc]] = -(cond.W[self.elements[sel, inc]] @ u[:, tpl.slots[inc]])
        x[:, tpl.skeleton] = u[:, :tpl.n_s]
        return x

    def _refine(self, sel, res):
        """One sweep of the solve of the regions `sel` against residuals res."""
        cond, tpl = self.cond, self.template
        F = res[:, tpl.pos]
        _, solve = cond.factor(self.elements[sel].ravel())
        z = solve(F.reshape((-1,) + F.shape[2:])).reshape(F.shape)
        g = np.concatenate([res[:, tpl.skeleton], np.zeros((len(sel), 1, res.shape[2]))],
                           axis=1)
        W = cond.W[self.elements[sel]]
        np.add.at(g, (np.arange(len(sel))[:, None, None], tpl.slots[None]),
                  -(W.transpose(0, 1, 3, 2) @ F))
        x = self._back(sel, self._skeleton(sel, g))
        x[:, tpl.pos] += z
        return x

    def solve(self, items, rtol, stacks, energies):
        """The basis functions of the (region index, centre element, first
        column) rows of the array `items`, in region order, each with its region
        saddle residual checked at rtol, written into `stacks` (Psi, B_c and
        G, from `_stack`) and `energies` from the first column on."""
        cond, tpl = self.cond, self.template
        n, n_s, k = tpl.n, tpl.n_s, cond.Z.shape[2]
        sel = np.arange(len(self.centres))
        region, centre, first = items.T
        # a region's items sit side by side, k columns each, in item order
        order = np.arange(len(items)) - np.searchsorted(region, region)
        c = k * (order.max() + 1)
        cols = (order[:, None] * k + np.arange(k))[:, None, :]
        index = np.argmax(self.elements[region] == centre[:, None], axis=1)
        at, slots = tpl.pos[index], tpl.slots[index]
        rows = region[:, None, None]
        # the right-hand sides live on each centre's interior unknowns
        rhs = np.zeros((len(sel), n, c))
        rhs[rows, at[:, :, None], cols] = cond.rhs[centre]
        g = np.zeros((len(sel), n_s + 1, c))
        g[rows, slots[:, :, None], cols] = -(cond.W[centre].transpose(0, 2, 1) @ cond.rhs[centre])
        x = self._back(sel, self._skeleton(sel, g))
        x[rows, at[:, :, None], cols] += cond.Z[centre]
        scale = _norms(rhs)
        tol = np.where(scale > 0, rtol * scale, rtol)
        res = self._times(x) - rhs
        norms = _norms(res)
        for _ in range(3):
            bad = np.flatnonzero((norms > tol).any(axis=1))
            if not bad.size:
                break
            x[bad] -= self._refine(bad, res[bad])
            res = self._times(x) - rhs
            norms = _norms(res)
        bad = np.argwhere(norms > tol)
        if bad.size:
            i, col = bad[0]
            t = np.flatnonzero((region == i) & (order == col // k))[0]
            raise SolveError(f"residual {norms[i, col]:.3e} above tolerance "
                             f"{tol[i, col]:.3e} for the {self.flavor} function "
                             f"{col % k} of element {centre[t]}",
                             residual=float(norms[i, col]))
        # what the coarse blocks need, all from K: the traces on the
        # region-boundary edges, K^T x there; from K [psi; 0], which is
        # (A psi, -B psi) on the edges and cells, the energies psi^T A psi;
        # and from the column rows of K [0; S^-1 B psi; 0], which are -C^T,
        # the divergence coefficients R^T B psi = C^T S^-1 B psi. B psi + C y
        # equals C e (type2, e the own column) or zero (type1) only up to the
        # solve's residual; coefficients read off psi keep the expanded
        # velocity's element mass balances exact to roundoff
        del rhs, res
        n_e, n_c = self.edges.shape[1], self.cells.shape[1]
        trace = (self.K.T @ x.reshape(-1, c)).reshape(len(sel), -1, c)[:, n:]
        psi = x[:, :n_e]
        Kpsi = self._times(psi)
        energy = np.einsum("gec,gec->gc", psi, Kpsi[:, :n_e])
        column_rows = (np.arange(len(sel))[:, None] * n + np.arange(n_e + n_c, n)).ravel()
        div = self._times(Kpsi[:, n_e:n_e + n_c] / self.s[:, :, None], n_e, self.K[column_rows])
        # function j of item t: column first[t] + j of the stacks (`to`) and
        # order[t] k + j of the part's solution (`of`), j below its count
        fn = np.arange(k) < cond.aux.counts[centre][:, None]
        fn_region = np.broadcast_to(region[:, None], fn.shape)[fn]
        of, to = (order[:, None] * k + np.arange(k))[fn], (first[:, None] + np.arange(k))[fn]
        Psi, B_c, G = stacks
        columns = self.columns[fn_region]
        _scatter(Psi, to, self.edges[fn_region], psi[fn_region, :, of])
        _scatter(B_c, to, columns, div[fn_region, :, of], columns >= 0)
        _scatter(G, to, self.boundary[fn_region], trace[fn_region, :, of], self.inner[fn_region])
        energies[to] = energy[fn_region, of]


def _norms(a):
    """The 2-norms of the columns of each stacked matrix in `a`."""
    return np.sqrt(np.einsum("gnc,gnc->gc", a, a))


# the localized flavors, then the whole-domain one
FLAVORS = ("type1", "type2", "global")


def _check_method(flavor, layers=1):
    """Refuse an unknown flavor, and a layer count below one for a
    localized flavor (one unless given)."""
    if flavor not in FLAVORS:
        raise ConfigError(f"unknown flavor {flavor!r}")
    if flavor != "global" and (layers is None or layers < 1):
        raise ConfigError("localized basis functions need at least one layer")


def build_basis_set(aux, perm, layers=None, flavor="type2", rtol=1e-10, workers=1):
    """Basis functions for every element and kept eigenvector, ordered
    element-major to match the auxiliary-space columns: the elements
    condensed once, then `CondensedElements.functions`."""
    glob = flavor == "global"
    _check_method(flavor, layers)
    cond = CondensedElements(aux, perm, "type2" if glob else flavor, workers)
    return cond.functions(range(aux.coarse.n_elements), None if glob else layers, rtol)


def build_snapshot(aux, perm, f, rtol=1e-10):
    """Solve the whole-domain problem with source replaced by the
    weighted projection of kappa_tilde^-1 f onto the auxiliary space: the
    localization target's exact counterpart for the chosen space."""
    f = check_source(f, perm.grid)
    pw = aux.project(f / aux.weight.values)
    sol = _solve_whole_domain(perm, aux.s_diag * pw, rtol, "snapshot")
    # the template solves with -b(v, p); this problem is posed with +b(v, p)
    return FineSolution(sol.grid, sol.v, -sol.p)
