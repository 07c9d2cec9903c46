"""Auxiliary pressure space from local spectral problems.

On each coarse element the generalized eigenproblem

    (B A^-1 B^T) p = lambda S p

is solved densely, where A and B are the element's no-flux mixed blocks
and S the weighted pressure mass matrix. Eigenvalues come back ascending
(the first is zero with a constant eigenvector) and eigenvectors are
S-orthonormal. The auxiliary space keeps the first J_i eigenvectors per
element; the projection onto it is S-orthogonal and acts elementwise.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import ConfigError
from .fem import assemble_a, assemble_b, velocity_dofmap
from .mesh import element_region, full_domain, region_elements


@dataclass(frozen=True)
class ElementSpectrum:
    """All eigenpairs of one element, ascending, S-orthonormal columns."""

    element: int
    cells: np.ndarray
    lambdas: np.ndarray
    pressures: np.ndarray
    velocities: np.ndarray = None
    dof_edges: np.ndarray = None


def _fix_signs(P):
    """Deterministic eigenvector signs: the entry of largest magnitude
    (first such index) is made positive."""
    idx = np.argmax(np.abs(P), axis=0)
    signs = np.sign(P[idx, np.arange(P.shape[1])])
    signs[signs == 0] = 1.0
    return P * signs[None, :]


def solve_local_spectral(coarse, e, perm, weight, velocities=False):
    """Solve one element's spectral problem. Returns every eigenpair."""
    region = element_region(coarse, e)
    dofmap = velocity_dofmap(region)
    cells = region.cells()
    nc = cells.size
    h2 = coarse.fine.h ** 2
    s_diag = weight.values[cells] * h2

    X = None
    if dofmap.n_dofs > 0:
        A = assemble_a(region, perm, dofmap)
        B = assemble_b(region, dofmap)
        X = splu(A.tocsc()).solve(B.T.toarray())
        M = B @ X
        M = 0.5 * (M + M.T)
    else:
        M = np.zeros((nc, nc))

    lam, P = scipy.linalg.eigh(M, np.diag(s_diag))
    P = _fix_signs(P)
    V = None
    if velocities and X is not None:
        V = X @ P
    return ElementSpectrum(int(e), cells, lam, P, V,
                           dofmap.edges if velocities else None)


def solve_all_spectra(coarse, perm, weight, velocities=False, workers=1):
    """Spectra for every element, in element order."""
    def work(e):
        return solve_local_spectral(coarse, e, perm, weight, velocities)

    ids = range(coarse.n_elements)
    if workers and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(work, ids))
    return [work(e) for e in ids]


@dataclass
class AuxSpace:
    """Selected eigenvectors of all elements, with the projection onto
    their span in the weighted pressure inner product.

    `pressures[e]` is the (cells_e x J_e) block of kept eigenvectors;
    columns across elements are numbered element-major, so column
    `offsets[e] + j` is eigenvector j of element e.
    """

    coarse: object
    weight: object
    counts: np.ndarray
    offsets: np.ndarray
    cells: list
    pressures: list
    lambdas: list
    lambda_next: np.ndarray
    spectral_gap: float

    @property
    def n_columns(self):
        return int(self.offsets[-1])

    @cached_property
    def s_diag(self):
        return self.weight.values * self.coarse.fine.h ** 2

    def column(self, e, j):
        if not 0 <= j < self.counts[e]:
            raise ConfigError(f"element {e} keeps {self.counts[e]} eigenvectors, "
                              f"asked for index {j}")
        return int(self.offsets[e] + j)

    def column_labels(self):
        """(element, j) per column, element-major."""
        elements = np.repeat(np.arange(self.counts.size), self.counts)
        j = np.concatenate([np.arange(c) for c in self.counts]) \
            if self.counts.size else np.empty(0, dtype=int)
        return elements, j

    def restriction(self, region):
        """Columns supported inside a region.

        Returns (column ids, R_loc) where R_loc maps column coefficients
        to values on the region's cells (sorted global order).
        """
        region_cells = region.cells()
        rows, cols, vals = [], [], []
        col_ids = []
        for e in region_elements(self.coarse, region):
            block = self.pressures[e]
            local_rows = np.searchsorted(region_cells, self.cells[e])
            for j in range(self.counts[e]):
                c = len(col_ids)
                col_ids.append(self.offsets[e] + j)
                rows.append(local_rows)
                cols.append(np.full(local_rows.size, c))
                vals.append(block[:, j])
        if not col_ids:
            return np.empty(0, dtype=int), sp.csr_matrix((region_cells.size, 0))
        R = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(region_cells.size, len(col_ids))).tocsr()
        return np.asarray(col_ids), R

    @cached_property
    def matrix(self):
        """Global (n_cells x n_columns) eigenvector matrix."""
        _, R = self.restriction(full_domain(self.coarse.fine))
        return R

    def coefficients(self, q):
        """Expansion coefficients of the projection of q."""
        return self.matrix.T @ (self.s_diag * q)

    def project(self, q):
        """S-orthogonal projection of a cellwise field onto the space."""
        return self.matrix @ self.coefficients(q)


def build_aux_space(coarse, weight, spectra, nbasis=None, threshold=None):
    """Select eigenvectors per element, by fixed count or by eigenvalue
    threshold (all eigenvalues strictly below it, at least one kept)."""
    if (nbasis is None) == (threshold is None):
        raise ConfigError("choose exactly one of nbasis / threshold")
    counts = np.zeros(len(spectra), dtype=int)
    for spec in spectra:
        n = spec.lambdas.size
        if nbasis is not None:
            if nbasis < 1 or nbasis > n:
                raise ConfigError(
                    f"nbasis={nbasis} out of range for element {spec.element} "
                    f"with {n} eigenvalues")
            counts[spec.element] = nbasis
        else:
            counts[spec.element] = max(1, int(np.sum(spec.lambdas < threshold)))
    offsets = np.concatenate([[0], np.cumsum(counts)])
    lam_next = np.array([
        spec.lambdas[counts[spec.element]]
        if counts[spec.element] < spec.lambdas.size else np.inf
        for spec in spectra])
    gap = float(lam_next.min()) if lam_next.size else np.inf
    return AuxSpace(
        coarse=coarse, weight=weight, counts=counts, offsets=offsets,
        cells=[spec.cells for spec in spectra],
        pressures=[spec.pressures[:, :counts[spec.element]] for spec in spectra],
        lambdas=[spec.lambdas[:counts[spec.element]] for spec in spectra],
        lambda_next=lam_next, spectral_gap=gap)


def write_eigen_report(path, spectra, m):
    """CSV eigenvalue table: element_i, j, lambda for the first m eigenvalues
    (clamped to what each element has)."""
    with open(path, "w") as fh:
        fh.write("element_i,j,lambda\n")
        for spec in spectra:
            for j in range(min(m, spec.lambdas.size)):
                fh.write(f"{spec.element},{j},{spec.lambdas[j]:.17g}\n")


def gap_split(lambdas, zero_rel=1e-10):
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
    z = max(1, int(np.sum(lam < zero_rel * lmax)))
    if z >= n or z + 1 > n - 1:
        return min(z, n), float("inf")
    ks = np.arange(z + 1, n)
    ratios = lam[ks] / lam[ks - 1]
    kbest = int(ks[np.argmax(ratios)])
    return kbest, float(ratios.max())
