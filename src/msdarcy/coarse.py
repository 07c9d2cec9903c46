"""Coarse-scale Darcy solve in the multiscale velocity space.

The fine operators are projected onto the basis columns Psi (velocity)
and the kept eigenvectors R (pressure): A_c = Psi^T M Psi and
B_c = R^T B Psi. Both blocks are assembled from what each basis
function's region solve returns, with no product of M or B with Psi.
Every function's divergence lies in the weighted image S R of the
auxiliary space, B psi_i = S R b_i, so B_c has column i equal to the
function's divergence coefficients b_i. Its flux equations give
M psi_i = B^T q_i + g_i, where q_i is the pressure of its region solve
and the trace g_i lives on its region-boundary edges. With R^T S R = I,

    A_c = B_c^T Pi + Psi^T G,   Pi = R^T S Q,

where Q and G hold the q_i and g_i as columns. G is the basis set's
`traces`; Q is not kept, since the region equations fix Pi. For `type2` (and
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
region, so two functions couple only when their regions overlap. The
functions run element-major, and the elements row by row in space, so
both blocks are bands. The velocity block's banded Cholesky factor
(`fem.band_cholesky`) checks that it is positive definite and serves the
rank test. There is one function per auxiliary column, so the divergence
block is square; its left null vector s = R^T S 1 makes one of its rows
redundant, and LAPACK's banded LU of the block with that row replaced by
a pin solves the saddle system. A Lanczos iteration on that LU gives the
inf-sup constant of the pressure Schur complement on zero-mean
coefficients.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import SolveError
from .fem import band_cholesky, band_solve, check_memory, check_source, divergence_matrix


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
    ConfigError. Its band factors take 8 * n * (kd + 1) bytes for the
    velocity block of n functions and half-width kd (n - 1 for a saturated
    set, whose A_c is full), and 8 * n * (3 * kb + 1) bytes for the pinned
    divergence block of half-width kb, whose row pivots add kb diagonals.
    """
    aux = basis_set.aux
    grid = perm.grid
    f = check_source(f, grid)
    h2 = grid.h ** 2
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
    need = 8 * n * (_half_width(A_c) + 1) + 8 * n * (3 * _half_width(B_c) + 1)
    check_memory(need, f"coarse system of {n} basis functions")
    rhs_q = h2 * (R.T @ f)
    mean_w = np.asarray(R.T @ np.full(grid.n_cells, h2))
    return CoarseSystem(basis_set, A_c, B_c, rhs_q, mean_w)


def _half_width(matrix):
    """The largest |i - j| over the stored entries (i, j) of a CSR or CSC
    `matrix`, read off its index arrays without a copy of its values."""
    major = np.repeat(np.arange(matrix.indptr.size - 1, dtype=matrix.indices.dtype),
                      np.diff(matrix.indptr))
    return int(np.abs(matrix.indices - major).max(initial=0))


def _top_eigenvalue(apply, n, tol=0.0):
    """Largest eigenvalue of the symmetric operator `apply` on R^n, by
    Lanczos (ARPACK) to relative accuracy `tol` (0: machine precision)
    from a fixed start vector, so runs repeat exactly.

    A run to machine precision keeps 8 Lanczos vectors: on the coarse
    Schur map of the benchmark inputs that takes 9-13 maps, against 21
    with ARPACK's default 20. A run to a few digits keeps the default:
    there it takes 21-31 maps, and up to 47 with 4 vectors."""
    ncv = min(n, 8) if tol == 0 else None
    v0 = np.random.default_rng(0).standard_normal(n)
    op = LinearOperator((n, n), matvec=apply, dtype=np.float64)
    try:
        return float(eigsh(op, k=1, which="LA", v0=v0, tol=tol, ncv=ncv,
                           return_eigenvectors=False)[0])
    except ArpackNoConvergence as exc:
        raise SolveError(f"coarse Schur eigenvalue did not converge: {exc}")


def solve_multiscale(system, rtol=1e-10):
    """Solve the coarse saddle system through the banded LU of the
    divergence block with one redundant row pinned, and expand to the fine
    grid. As s^T B_c = 0, B_c U + gamma w = f_q fixes gamma = s^T f_q /
    s^T w, and row k of B_c U = f_q - gamma w, at the largest |s_k|,
    combines the others. B~, which is B_c with row k replaced by U_k = 0,
    is nonsingular; B~ z = e_k gives the null vector z of B_c. For
    z^T h = 0, B~^T P = h solves B_c^T P = h with P_k = z^T B~^T P = 0, and
    the multiple of s that meets w^T P = f_w completes the pressure."""
    A_c, B_c, w, rhs_q = system.A_c, system.B_c, system.mean_w, system.rhs_q
    n = w.size
    if A_c.shape != (n, n) or B_c.shape != (n, n):
        raise SolveError(
            f"coarse system needs one basis function per auxiliary column: "
            f"velocity block {A_c.shape[0]}x{A_c.shape[1]}, divergence block "
            f"{B_c.shape[0]}x{B_c.shape[1]}")
    s = system.basis.aux.coefficients(1.0)
    A = 0.5 * (A_c + A_c.T)
    if system.basis.saturated:
        # global functions combined by the coefficients s of the constant
        # pressure have zero velocity and divergence, so s spans the null
        # space of B_c; the shift makes A definite along it, and the energy
        # minimization below then fixes the coefficients along it
        u0 = sp.csr_matrix(s[:, None])
        A = A + (A.diagonal().sum() / n / (s @ s)) * (u0 @ u0.T)
    lower = sp.tril(A).tocoo()
    band = np.zeros((_half_width(A) + 1, n), order="F")
    band[lower.row - lower.col, lower.col] = lower.data
    try:
        chol = band_cholesky(band)
    except np.linalg.LinAlgError as exc:
        raise SolveError(f"projected velocity block is not positive definite: {exc}")
    # B~ in LAPACK's general band storage, with kb rows on top for the fill
    # of the row pivots: band[2 kb + i - j, j] = B~[i, j]
    entries = B_c.tocoo()
    k, kb = int(np.argmax(np.abs(s))), _half_width(B_c)
    keep = entries.row != k
    band = np.zeros((3 * kb + 1, n), order="F")
    band[2 * kb + entries.row[keep] - entries.col[keep], entries.col[keep]] = entries.data[keep]
    band[2 * kb, k] = 1.0
    lu, piv, info = dgbtrf(band, kb, kb, overwrite_ab=1)
    if info:
        raise SolveError(f"coarse system is singular: pivot {info} of {n} is zero")
    z = dgbtrs(lu, kb, kb, np.eye(1, n, k)[0], piv)[0]
    Az = A @ z
    zAz = z @ Az

    def solve(f_u, f_q, f_w):
        """(U, P, gamma) with A U - B_c^T P = f_u, B_c U + gamma w = f_q and
        w^T P = f_w: a particular U with U_k = 0 plus the multiple of z that
        makes A U - f_u orthogonal to z, the range of B_c^T; then P."""
        gamma = (s @ f_q) / (s @ w)
        r = f_q - gamma * w
        r[k] = 0.0
        U = dgbtrs(lu, kb, kb, r, piv)[0]
        U += ((z @ f_u - Az @ U) / zAz) * z
        P = dgbtrs(lu, kb, kb, A @ U - f_u, piv, trans=1)[0]
        return U, P + ((f_w - w @ P) / (s @ w)) * s, gamma

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
