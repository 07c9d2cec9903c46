"""Coarse-scale Darcy solve in the multiscale velocity space.

The fine operators are projected onto the basis columns Psi (velocity)
and the kept eigenvectors R (pressure): A_c = Psi^T M Psi and
B_c = R^T B Psi. Both blocks are assembled from what each basis
function's region solve returns, with no product of M or B with Psi.
Every function's divergence lies in the weighted image S R of the
auxiliary space, B psi_i = S R b_i, so B_c has column i equal to the
function's divergence coefficients b_i. Its flux equations give
M psi_i = B^T q_i + g_i, where q_i is its pressure companion and the
trace g_i lives on its region-boundary edges. With R^T S R = I,

    A_c = B_c^T Pi + Psi^T G,   Pi = R^T S Q,

where Q and G hold the q_i and g_i as columns: the basis set's
`pressures` and `traces`. The region equations fix Pi. For `type2` (and
`global`) the multipliers are y_i = R^T S q_i and b_i = e_i - y_i, so
Pi = E - B_c; for `type1` the constraint pins the moments, so Pi = E.
Here e_i is function i's own column and E selects them (the identity
for a set built in column order). The `global` flavor has no region
boundary, so there G = 0.

The region equations hold only up to the region solve's residual, so
b_i is read off psi_i itself (b_i = R^T B psi_i on the region): then the
element mass balances of the expanded velocity Psi U hold to roundoff,
as with the fine-grid product. The diagonal of A_c is the functions'
energies psi_i^T M psi_i: the identity is accurate only relative to
|b_i| |Pi_i|, which leaves the sign of a tiny diagonal entry to roundoff
(a function that vanishes but for roundoff, such as the constant mode
of a one-element global set, could make A_c indefinite).

The blocks are sparse: each basis function lives on its oversampled
region, so two functions couple only when their regions overlap. There
is one basis function per auxiliary column, so the divergence block is
square, with corank 1. The functions run element-major, and the elements
row by row in space, so the velocity block is a band; its banded
Cholesky factor (`fem.band_cholesky`) checks that it is positive definite
and serves the rank test below. One sparse LU of the
divergence block bordered by the pressure-mean weights gives its null
vector, a particular velocity and, by a transposed solve, the pressure;
the velocity is the particular one plus the multiple of the null vector
that minimizes the energy. A Lanczos iteration on the LU factor gives
the inf-sup constant of the pressure Schur complement on zero-mean
coefficients. The solution is expanded back to fine-grid fluxes and
pressures.
"""

import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from .errors import ConfigError, SolveError
from .fem import band_cholesky, band_solve, check_zero_mean, divergence_matrix


@dataclass(frozen=True)
class CoarseSystem:
    """Sparse projected blocks plus the data needed to expand solutions."""

    basis: object
    A_c: sp.spmatrix
    B_c: sp.spmatrix
    rhs_q: np.ndarray
    mean_w: np.ndarray


@dataclass(frozen=True)
class MsSolution:
    """Multiscale solution expanded on the fine grid."""

    coarse: object
    coeff_v: np.ndarray
    coeff_p: np.ndarray
    gamma: float
    v: np.ndarray
    p: np.ndarray
    schur_sigma: float


@dataclass(frozen=True)
class MassReport:
    """Per-element conservation residuals |integral(div v - f)| and the
    relative residual of div v against the image of the projection."""

    element_residuals: np.ndarray
    max_residual: float
    div_compat: float


def assemble_coarse_system(basis_set, perm, f):
    """Project the fine problem onto the multiscale spaces.

    B_c = R^T B Psi is read off the functions' divergence coefficients,
    and A_c = Psi^T M Psi = B_c^T Pi + Psi^T G, with Pi = E - B_c for
    `type2` and `global` and Pi = E for `type1` (see the module notes):

        psi_k^T M psi_i = (B psi_k)^T q_i + psi_k^T g_i
                        = b_k^T R^T S q_i + psi_k^T g_i.

    Its diagonal holds the functions' energies.

    Sizes whose coarse solve would not fit in physical memory raise
    ConfigError. For n basis functions the estimate is 8 * n * (kd + 1)
    bytes for the band of the velocity block, of half-width kd (n - 1 for
    a saturated set, whose A_c is full), plus 2 * nnz * sqrt(n) bytes for
    the sparse LU of the bordered divergence block, with nnz stored
    entries of A_c and B_c: its fill grows like nnz * sqrt(n) (0.015-0.035
    per unit on the preset three-channel medium at 64/8/L3, 64/32/L2 and
    128/32/L5), and the measured peak of the coarse solve above the band
    is 0.3-1.3 bytes per unit from n = 192 to n = 12288 there.
    """
    aux = basis_set.aux
    grid = perm.grid
    f = np.asarray(f, dtype=np.float64)
    h2 = grid.h ** 2
    check_zero_mean(f, h2)
    R = aux.matrix
    B_c = basis_set.divergence
    n = len(basis_set)
    E = sp.csc_matrix((np.ones(n), basis_set.columns, np.arange(n + 1)), shape=B_c.shape)
    Pi = E if basis_set.flavor == "type1" else E - B_c
    A_c = B_c.T @ Pi + basis_set.matrix.T @ basis_set.traces
    A_c.setdiag(basis_set.energies)
    # a sparse sum keeps arrays sized for both terms' entries; the copy
    # releases that slack (7 MiB at 3072 functions on a 64x64 grid)
    A_c = A_c.copy()
    entries = A_c.tocoo()
    kd = int(np.abs(entries.row - entries.col).max(initial=0))
    need = 8 * n * (kd + 1) + 2 * (A_c.nnz + B_c.nnz) * np.sqrt(n)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(
            f"coarse system of {n} basis functions needs about "
            f"{need / 2**30:.1f} GiB for its factors, more than the "
            f"{have / 2**30:.1f} GiB of physical memory")
    rhs_q = h2 * (R.T @ f)
    mean_w = np.asarray(R.T @ np.full(grid.n_cells, h2))
    return CoarseSystem(basis_set, A_c, B_c, rhs_q, mean_w)


def _top_eigenvalue(apply, n, tol=0.0):
    """Largest eigenvalue of the symmetric operator `apply` on R^n, by
    Lanczos (ARPACK) to relative accuracy `tol` (0: machine precision)
    from a fixed start vector, so runs repeat exactly."""
    v0 = np.random.default_rng(0).standard_normal(n)
    op = LinearOperator((n, n), matvec=apply, dtype=np.float64)
    try:
        return float(eigsh(op, k=1, which="LA", v0=v0, tol=tol,
                           return_eigenvectors=False)[0])
    except ArpackNoConvergence as exc:
        raise SolveError(f"coarse Schur eigenvalue did not converge: {exc}")


def solve_multiscale(system, rtol=1e-10):
    """Solve the coarse saddle system through one sparse LU of the square
    divergence block bordered by the pressure mean, and expand to the
    fine grid."""
    A_c, B_c, w, rhs_q = system.A_c, system.B_c, system.mean_w, system.rhs_q
    n = w.size
    if A_c.shape != (n, n) or B_c.shape != (n, n):
        raise SolveError(
            f"coarse system needs one basis function per auxiliary column: "
            f"velocity block {A_c.shape[0]}x{A_c.shape[1]}, divergence block "
            f"{B_c.shape[0]}x{B_c.shape[1]}")
    A = 0.5 * (A_c + A_c.T)
    if system.basis.saturated:
        # global functions combined by the coefficients u0 of the constant
        # pressure have zero velocity and divergence, so u0 spans the null
        # space of B_c; the shift makes A definite along it, and the energy
        # minimization below then fixes the coefficients along it
        aux = system.basis.aux
        u0 = sp.csr_matrix(aux.coefficients(np.ones(aux.coarse.fine.n_cells))[:, None])
        A = A + (A.diagonal().sum() / n / (u0.T @ u0)[0, 0]) * (u0 @ u0.T)
    # the lower band of A: element-major functions keep it narrow (half-width
    # 398 at n = 3072 on 64/32/L2, where reverse Cuthill-McKee gives 722)
    lower = sp.tril(A).tocoo()
    band = np.zeros((int((lower.row - lower.col).max(initial=0)) + 1, n), order="F")
    band[lower.row - lower.col, lower.col] = lower.data
    try:
        chol = band_cholesky(band)
    except np.linalg.LinAlgError as exc:
        raise SolveError(f"projected velocity block is not positive definite: {exc}")
    # B_c has corank 1. Its left null vector is s = R^T S 1: every basis
    # function has zero net flux, and its divergence lies in the weighted
    # image S R of the auxiliary space, where R^T S R = I. Bordering B_c
    # by w gives M = [[B_c, w], [w^T, 0]], nonsingular iff s^T w != 0 and
    # w^T z != 0 for the right null vector z of B_c (both cosines are
    # about 0.7 on the 16x16 test systems at contrast 1e3, 0.09 at 1e8).
    # Then M [z; t] = [0; 1] has t = 0, so it gives z. The pattern of M is
    # nearly symmetric; a minimum-degree ordering of M + M^T fills far
    # less than COLAMD at two layers (7.2M against 51M at n = 12288)
    w_col = sp.csr_matrix(w[:, None])
    try:
        lu = splu(sp.bmat([[B_c, w_col], [w_col.T, None]], format="csc"),
                  permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise SolveError(f"coarse system is singular: {exc}")
    z = lu.solve(np.append(np.zeros(n), 1.0))[:n]
    Az = A @ z
    zAz = z @ Az

    def solve(f_u, f_q, f_w):
        """(U, P, gamma) with A U - B_c^T P = f_u, B_c U + gamma w = f_q,
        w^T P = f_w: a particular U_p from M, the multiple of z that
        makes A U - f_u orthogonal to z (the range of B_c^T), and P from
        the transposed solve."""
        y = lu.solve(np.append(f_q, 0.0))
        U = y[:n] + ((z @ f_u - Az @ y[:n]) / zAz) * z
        P = lu.solve(np.append(A @ U - f_u, f_w), trans="T")[:n]
        return U, P, y[n]

    # one solve and one refinement sweep on the unshifted equations: the
    # LU solve is accurate in the norm of the dominant rows only, and at
    # high contrast the element mass balances are small components of the
    # divergence rows
    U, P, gamma = np.zeros(n), np.zeros(n), 0.0
    for _ in range(2):
        dU, dP, dgamma = solve(B_c.T @ P - A_c @ U, rhs_q - B_c @ U - gamma * w, -(w @ P))
        U, P, gamma = U + dU, P + dP, gamma + dgamma
    if n == 1:
        sigma = np.inf
    else:
        def zero_mean(q):
            return q - (w @ q) / (w @ w) * w

        # the pressure of the solve with data (0, Pi r, 0) is (Pi S Pi)^+ r
        # for the Schur complement S = B_c A^-1 B_c^T and the zero-mean
        # projector Pi, so the top eigenvalue of that map is 1 / sigma
        sigma = 1.0 / _top_eigenvalue(
            lambda q: solve(np.zeros(n), zero_mean(q), 0.0)[1], n)
        # numerical rank test: sigma scales like 1/contrast, so compare it
        # with the roundoff level of the largest eigenvalue, which needs
        # only a few digits
        lam_max = _top_eigenvalue(
            lambda q: zero_mean(B_c @ band_solve(chol, B_c.T @ zero_mean(q))), n, tol=1e-3)
        if not sigma > (n - 1) * np.finfo(float).eps * lam_max:
            raise SolveError(
                f"coarse system is singular: restricted Schur eigenvalue {sigma:.3e}, "
                f"largest {lam_max:.3e}")
    BU = B_c @ U
    gamma = float(w @ (rhs_q - BU)) / (w @ w)
    res = np.sqrt(np.linalg.norm(A_c @ U - B_c.T @ P) ** 2
                  + np.linalg.norm(BU + gamma * w - rhs_q) ** 2
                  + (w @ P) ** 2)
    scale = np.linalg.norm(rhs_q)
    if res > rtol * max(scale, 1e-300):
        raise SolveError(f"coarse solve residual {res:.3e} above {rtol:.1e} * {scale:.3e}",
                         residual=res)
    basis = system.basis
    v = np.asarray(basis.matrix @ U)
    p = np.asarray(basis.aux.matrix @ P)
    return MsSolution(basis.aux.coarse, U, P, gamma, v, p, sigma)


def div_compat_residual(v_edges, aux):
    """Relative weighted-norm residual of projecting div v / kappa_tilde
    onto the auxiliary space. Near zero iff div v lies in the image of
    the weighted projection, as every basis divergence should."""
    grid = aux.coarse.fine
    h2 = grid.h ** 2
    div_cells = (divergence_matrix(grid) @ v_edges) / h2
    g = div_cells / aux.weight.values
    r = g - aux.project(g)
    s = aux.s_diag
    num = float(np.sqrt(np.sum(s * r * r)))
    den = float(np.sqrt(np.sum(s * g * g)))
    return num / max(den, 1e-300)


def mass_residuals(solution, f, aux):
    """Conservation check of a fine-grid velocity field against the source,
    with the projection-compatibility residual of the velocity divergence."""
    coarse = solution.coarse
    grid = coarse.fine
    h2 = grid.h ** 2
    flux_int = divergence_matrix(grid) @ solution.v
    diff = flux_int - h2 * np.asarray(f, dtype=np.float64)
    per_element = np.zeros(coarse.n_elements)
    np.add.at(per_element, coarse.element_of_cell(np.arange(grid.n_cells)), diff)
    per_element = np.abs(per_element)
    return MassReport(per_element, float(per_element.max()),
                      div_compat_residual(solution.v, aux))
