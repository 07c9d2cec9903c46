"""Auxiliary pressure space from local spectral problems.

On each coarse element the generalized eigenproblem

    (B A^-1 B^T) p = lambda S p

is solved, where A and B are the element's no-flux mixed blocks and S
the weighted pressure mass matrix. The elements are solved together, as
stacks: the flux mass matrix on rectangles couples only the edges of one
grid line of an element (`ElementLines`), so B A^-1 B^T comes from
batched solves of small tridiagonal line blocks, and one stacked
symmetric eigensolve of S^-1/2 B A^-1 B^T S^-1/2 gives every spectrum.
Eigenvalues come back ascending (the first is zero with a constant
eigenvector) and eigenvectors are S-orthonormal. Every element has the
same number of cells, so the spectra are one record of stacks
(`Spectra`), one row per element. The auxiliary space keeps the first
J_i eigenvectors per element, as one stack zero-padded to the largest
J_i; the projection onto it is S-orthogonal and acts elementwise.

The element lines hold only indices and the divergence signs, so they are
memoized per grid (`element_lines`, read-only); the line masses, the
eliminations and the spectra are computed per call.
"""

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError
from .fem import divergence_matrix, mass_triplets
from .mesh import element_layout, read_only


@dataclass(frozen=True)
class Spectra:
    """Every element's eigenpairs, one row per element: its ascending
    cells (elements, cells), its eigenvalues in ascending order (elements,
    cells) and its S-orthonormal eigenvectors as columns (elements, cells,
    cells)."""

    cells: np.ndarray
    lambdas: np.ndarray
    pressures: np.ndarray


@dataclass(frozen=True)
class ElementLines:
    """The grid lines of a coarse element, the same in every element.

    An element of r x r cells has 2r lines of r + 1 edges: its r rows of
    vertical edges, then its r columns of horizontal edges, each in
    ascending order, so positions 0 and r lie on the element boundary and
    1..r-1 inside it. The flux mass matrix on rectangles couples only
    edges of one line (`fem.mass_triplets`: left with right, bottom with
    top), and an edge's divergence lives on the cells of its line. So an
    element's own flux mass is a direct sum of 2r tridiagonal
    (r+1) x (r+1) line blocks, its interior block A one of 2r
    (r-1) x (r-1) blocks, and B A^-1 B^T a sum of one r x r block per line.

    `edges` holds element 0's global edge ids per line (every element is
    element 0 shifted). `cells`, `interior` and `boundary` index each
    line's cells, its positions 1..r-1 and its positions (0, r) into the
    element's ascending cells, interior edges and boundary edges of
    `element_layout`. `div` is the divergence of each line's edges on its
    cells, the same in every element.
    """

    coarse: object
    edges: np.ndarray
    cells: np.ndarray
    interior: np.ndarray
    boundary: np.ndarray
    div: np.ndarray

    def mass(self, perm, elements):
        """Each listed element's own flux mass (its cells' share) per line,
        shape (elements, 2r, r+1, r+1), from the triplets of its cells."""
        grid = self.coarse.fine
        r = self.coarse.r
        n = len(elements)
        _, cells, _ = element_layout(self.coarse)
        # element 0's edge ids carry every element's values: the blocks
        # depend on where an edge sits in its element, not on the element
        rows, cols, vals = mass_triplets(grid, np.tile(cells[0], n),
                                         perm.values[cells[elements]].ravel())
        at = np.full(grid.n_edges, -1)
        at[self.edges.ravel()] = np.arange(self.edges.size)
        line, pos_r, pos_c = at[rows] // (r + 1), at[rows] % (r + 1), at[cols] % (r + 1)
        owner = np.tile(np.repeat(np.arange(n), r * r), 8)
        size = 2 * r * (r + 1) ** 2
        flat = owner * size + (line * (r + 1) + pos_r) * (r + 1) + pos_c
        return np.bincount(flat, weights=vals, minlength=n * size).reshape(
            n, 2 * r, r + 1, r + 1)

    def eliminate(self, mass):
        """The interior edges of every element eliminated, from line masses.

        Returns (A, A_inv, X, M): each line's interior block A and its
        inverse, X = A^-1 B^T per line (elements, 2r, r-1, r), and the
        symmetric M = B A^-1 B^T (elements, r^2, r^2) on the element's cells.
        """
        r = self.coarse.r
        A = mass[:, :, 1:-1, 1:-1]
        A_inv = np.linalg.inv(A)
        div = self.div[:, :, 1:-1]
        X = A_inv @ div.transpose(0, 2, 1)
        lines = div @ X
        M = np.zeros((mass.shape[0], r * r, r * r))
        for part in (slice(0, r), slice(r, 2 * r)):
            # rows, then columns: each part covers every cell once
            cells = self.cells[part]
            M[:, cells[:, :, None], cells[:, None, :]] += lines[:, part]
        M += M.transpose(0, 2, 1)
        M *= 0.5
        return A, A_inv, X, M

    def to_cells(self, lines):
        """Sum per-line cell values (elements, 2r, r, m) onto the element's
        cells (elements, r^2, m)."""
        r = self.coarse.r
        out = np.zeros((lines.shape[0], r * r) + lines.shape[3:])
        out[:, self.cells[:r]] = lines[:, :r]
        out[:, self.cells[r:]] += lines[:, r:]
        return out


@cache
def element_lines(coarse):
    """The `ElementLines` of a coarse grid, memoized per grid."""
    grid = coarse.fine
    r = coarse.r
    interior, cells, boundary = (a[0] for a in element_layout(coarse))
    k = np.arange(r + 1)
    a = np.arange(r)[:, None]
    edges = np.concatenate([grid.vedge_id(k[None, :], a), grid.hedge_id(a, k[None, :])])
    local = np.arange(r * r).reshape(r, r)
    line_cells = np.concatenate([local, local.T])
    rows = np.broadcast_to(cells[line_cells][:, :, None], (2 * r, r, r + 1))
    cols = np.broadcast_to(edges[:, None, :], rows.shape)
    div = np.asarray(divergence_matrix(grid)[rows.ravel(), cols.ravel()]).reshape(rows.shape)
    return ElementLines(coarse, *read_only(
        edges, line_cells, np.searchsorted(interior, edges[:, 1:-1]),
        np.searchsorted(boundary, edges[:, [0, -1]]), div))


def _fix_signs(P):
    """Deterministic eigenvector signs, in place: in every column of every
    stacked matrix, the entry of largest magnitude (first such index) is
    made positive."""
    idx = np.argmax(np.abs(P), axis=1)
    signs = np.sign(np.take_along_axis(P, idx[:, None, :], axis=1))
    signs[signs == 0] = 1.0
    P *= signs


def _run(workers, fn, items):
    """[fn(item) for item in items], on `workers` threads when more than
    one and there are at least two items: the calling thread and
    workers - 1 pool threads claim the items in order, one at a time, and
    the caller claims the first. The caller's share matters for memory as
    well as time: glibc keeps what a pool thread frees in that thread's
    arena, where the calling thread's later work cannot reuse it.

    Results come back in item order. Once an item fails no further item
    is claimed; those already claimed run to their end, and the exception
    of the earliest failing item is raised."""
    if not (workers and workers > 1 and len(items) > 1):
        return [fn(item) for item in items]
    results, errors = [None] * len(items), {}
    order, lock = iter(range(len(items))), threading.Lock()

    def claim():
        with lock:
            return None if errors else next(order, None)

    def work(i):
        while i is not None:
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                with lock:
                    errors[i] = exc
            i = claim()

    first = claim()
    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        for _ in range(min(workers, len(items)) - 1):
            pool.submit(work, claim())
        work(first)
    if errors:
        raise errors[min(errors)]
    return results


# The working set of one slice of a stacked kernel. Smaller slices bound
# the kernel's temporaries; larger ones make each slice worth a thread:
# on a 2-core VM the spectra of 1024 elements of 16 cells take about
# 15 ms in one slice, and took 18-26 ms as two slices on two threads.
SLICE_BYTES = 4 << 20


def _stacked(workers, fn, n, item_bytes):
    """fn over contiguous slices of range(n), results in slice order: as
    many slices as a working set of `item_bytes` per element needs to stay
    within SLICE_BYTES, on up to `workers` threads. Each stacked kernel
    treats every element on its own, so no result depends on the slicing."""
    count = min(n, max(1, -(-n * item_bytes // SLICE_BYTES)))
    return _run(min(workers or 1, count),
                fn, [slice(n * i // count, n * (i + 1) // count) for i in range(count)])


def solve_all_spectra(coarse, perm, weight, workers=1):
    """Every element's spectrum, as the stacks of `Spectra`: the elements
    are solved in contiguous slices on `workers` threads."""
    lines = element_lines(coarse)
    _, cells, _ = element_layout(coarse)
    n = cells.shape[1]
    lam = np.empty(cells.shape)
    P = np.empty((coarse.n_elements, n, n))

    def solve(part):
        M = lines.eliminate(lines.mass(perm, np.arange(coarse.n_elements)[part]))[3]
        d = (weight.values[cells[part]] * coarse.fine.h ** 2) ** -0.5
        M *= d[:, :, None]
        M *= d[:, None, :]
        lam[part], P[part] = np.linalg.eigh(M)
        P[part] *= d[:, :, None]
        _fix_signs(P[part])

    _stacked(workers, solve, coarse.n_elements, 8 * n * n)
    return Spectra(cells, lam, P)


@dataclass
class AuxSpace:
    """Selected eigenvectors of all elements, with the projection onto
    their span in the weighted pressure inner product.

    `cells[e]` holds element e's ascending cells and `pressures[e]` its
    kept eigenvectors as columns: one (elements x cells x k_max) stack,
    zero past each element's `counts[e]` columns up to the largest count.
    Columns across elements are numbered element-major, so column
    `offsets[e] + j` is eigenvector j of element e.
    """

    coarse: object
    weight: object
    counts: np.ndarray
    offsets: np.ndarray
    cells: np.ndarray
    pressures: np.ndarray
    lambda_next: np.ndarray
    spectral_gap: float

    @property
    def n_columns(self):
        return int(self.offsets[-1])

    @cached_property
    def s_diag(self):
        return self.weight.values * self.coarse.fine.h ** 2

    @cached_property
    def columns(self):
        """Every element's column ids, (elements x k_max), -1 on padding."""
        pad = np.arange(self.pressures.shape[2])
        return np.where(pad < self.counts[:, None], self.offsets[:-1, None] + pad, -1)

    def column(self, e, j):
        if not 0 <= j < self.counts[e]:
            raise ConfigError(f"element {e} keeps {self.counts[e]} eigenvectors, "
                              f"asked for index {j}")
        return int(self.offsets[e] + j)

    @cached_property
    def matrix(self):
        """Global (n_cells x n_columns) eigenvector matrix."""
        shape = self.pressures.shape
        columns = np.broadcast_to(self.columns[:, None, :], shape)
        kept = columns >= 0
        return sp.coo_matrix(
            (self.pressures[kept], (np.broadcast_to(self.cells[:, :, None], shape)[kept],
                                    columns[kept])),
            shape=(self.coarse.fine.n_cells, self.n_columns)).tocsr()

    def coefficients(self, q):
        """Expansion coefficients of the projection of q."""
        return self.matrix.T @ (self.s_diag * q)

    def project(self, q):
        """S-orthogonal projection of a cellwise field onto the space."""
        return self.matrix @ self.coefficients(q)


def _check_selection(nbasis, threshold, n):
    """Refuse a selection that sets neither or both of nbasis / threshold,
    or an eigenvector count outside 1..n, n the eigenvalues per element."""
    if (nbasis is None) == (threshold is None):
        raise ConfigError("choose exactly one of nbasis / threshold")
    if nbasis is not None and (nbasis < 1 or nbasis > n):
        raise ConfigError(f"nbasis={nbasis} out of range for elements with {n} eigenvalues")


def build_aux_space(coarse, weight, spectra, nbasis=None, threshold=None):
    """Select eigenvectors per element, by fixed count or by eigenvalue
    threshold (all eigenvalues strictly below it, at least one kept)."""
    lam = spectra.lambdas
    n_el, n = lam.shape
    _check_selection(nbasis, threshold, n)
    if nbasis is not None:
        counts = np.full(n_el, nbasis, dtype=int)
    else:
        counts = np.maximum(1, np.sum(lam < threshold, axis=1))
    lam_next = np.where(counts < n, np.take_along_axis(
        lam, np.minimum(counts, n - 1)[:, None], axis=1)[:, 0], np.inf)
    k_max = int(counts.max())
    kept = np.arange(k_max) < counts[:, None]
    return AuxSpace(
        coarse=coarse, weight=weight, counts=counts,
        offsets=np.concatenate([[0], np.cumsum(counts)]), cells=spectra.cells,
        pressures=np.where(kept[:, None, :], spectra.pressures[:, :, :k_max], 0.0),
        lambda_next=lam_next, spectral_gap=float(lam_next.min()))


def write_eigen_report(path, spectra, m):
    """CSV eigenvalue table: element_i, j, lambda for the first m eigenvalues
    (clamped to what each element has)."""
    with open(path, "w") as fh:
        fh.write("element_i,j,lambda\n")
        fh.writelines(f"{e},{j},{lam:.17g}\n"
                      for (e, j), lam in np.ndenumerate(spectra.lambdas[:, :m]))


# Eigenvalues below this fraction of the largest count as zero in
# `gap_split`.
GAP_ZERO_REL = 1e-10


def gap_split(lambdas):
    """Locate the dominant multiplicative gap above the zero cluster.

    Returns (n_small, ratio): how many eigenvalues sit at or below the
    gap (the zero cluster included) and the gap ratio itself. The count
    is meaningful when the ratio is large; elements without contrast
    features report modest ratios.
    """
    lam = np.asarray(lambdas, dtype=float)
    n = lam.size
    if n == 0:
        return 0, float("inf")
    lmax = float(lam[-1])
    if lmax <= 0:
        return n, float("inf")
    z = max(1, int(np.sum(lam < GAP_ZERO_REL * lmax)))
    if z >= n or z + 1 > n - 1:
        return min(z, n), float("inf")
    ks = np.arange(z + 1, n)
    ratios = lam[ks] / lam[ks - 1]
    kbest = int(ks[np.argmax(ratios)])
    return kbest, float(ratios.max())
