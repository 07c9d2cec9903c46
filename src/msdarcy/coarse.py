"""Coarse-scale Darcy solve in the multiscale velocity space.

The fine operators are projected onto the basis columns (velocity) and
the kept eigenvectors (pressure). The projected blocks are sparse: each
basis function lives on its oversampled region, so two functions couple
only when their regions overlap. A sparse LU of the velocity block in
symmetric mode checks that it is positive definite; one sparse LU of the
bordered saddle matrix gives the solution, and a Lanczos iteration on
the same factor gives the inf-sup constant of the pressure Schur
complement on zero-mean coefficients. The solution is expanded back to
fine-grid fluxes and pressures.
"""

import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from .errors import ConfigError, SolveError
from .fem import check_zero_mean, divergence_matrix, mass_matrix


@dataclass(frozen=True)
class CoarseSystem:
    """Sparse projected blocks plus the data needed to expand solutions."""

    basis: object
    aux: object
    A_c: sp.spmatrix
    B_c: sp.spmatrix
    rhs_q: np.ndarray
    mean_w: np.ndarray
    f: np.ndarray


@dataclass(frozen=True)
class MsSolution:
    """Multiscale solution expanded on the fine grid."""

    coarse: object
    flavor: str
    layers: int
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

    Sizes whose coarse solve would not fit in physical memory raise
    ConfigError. The estimate is 4 * nnz * sqrt(n) bytes for n basis
    functions and nnz stored entries of A_c and B_c: the LU fill of the
    bordered saddle matrix grows like nnz * sqrt(n), and the measured
    peak of the coarse stage grows by about 3.5 bytes per unit of it.
    """
    aux = basis_set.aux
    grid = perm.grid
    f = np.asarray(f, dtype=np.float64)
    h2 = grid.h ** 2
    check_zero_mean(f, h2)
    Psi = basis_set.matrix
    R = aux.matrix
    A_c = Psi.T @ (mass_matrix(grid, perm) @ Psi)
    B_c = R.T @ (divergence_matrix(grid) @ Psi)
    n = Psi.shape[1]
    need = 4 * (A_c.nnz + B_c.nnz) * np.sqrt(n)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(
            f"coarse system of {n} basis functions needs about "
            f"{need / 2**30:.1f} GiB for its sparse factors, more than the "
            f"{have / 2**30:.1f} GiB of physical memory")
    rhs_q = h2 * (R.T @ f)
    mean_w = np.asarray(R.T @ np.full(grid.n_cells, h2))
    return CoarseSystem(basis_set, aux, A_c, B_c, rhs_q, mean_w, f)


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
    """Solve the coarse saddle system by one sparse LU of its bordered
    matrix and expand to the fine grid."""
    A_c, B_c, w, rhs_q = system.A_c, system.B_c, system.mean_w, system.rhs_q
    m, n = A_c.shape[0], w.size
    A = 0.5 * (A_c + A_c.T)
    border = sp.csr_matrix((m, 0))
    if system.basis.saturated:
        # global functions combined by the coefficients of the constant
        # pressure have zero velocity; shifting out that null direction
        # leaves the Schur complement unchanged, as B_c annihilates it too.
        # The border u0^T U = 0 fixes the coefficients along it exactly,
        # also when A_c and B_c are roundoff along it and nothing else
        # (one global function)
        border = sp.csr_matrix(system.aux.coefficients(
            np.ones(system.aux.coarse.fine.n_cells))[:, None])
        A = A + (A.diagonal().sum() / m / (border.T @ border)[0, 0]) * (border @ border.T)
    b = border.shape[1]
    try:
        # symmetric mode, diagonal pivots (perm_r == perm_c): by Sylvester's
        # law of inertia A is positive definite iff every pivot is positive
        lu_a = splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                    options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolveError(f"projected velocity block is not positive definite: {exc}")
    pivots = lu_a.U.diagonal()
    if not (np.array_equal(lu_a.perm_r, lu_a.perm_c) and np.all(pivots > 0)):
        raise SolveError("projected velocity block is not positive definite: "
                         f"smallest pivot {pivots.min():.3e}")
    # unknowns (U, -P, gamma[, mu]): A U - B^T P [+ u0 mu] = 0,
    # B U + gamma w = rhs_q, w^T P = 0[, u0^T U = 0]
    w_col = sp.csr_matrix(w[:, None])
    K = sp.bmat([[A, B_c.T, None, border], [B_c, None, w_col, None],
                 [None, w_col.T, None, None], [border.T, None, None, None]],
                format="csc")
    try:
        lu = splu(K)
    except RuntimeError as exc:
        raise SolveError(f"coarse factorization failed: {exc}")

    def residual(x):
        """Right-hand side minus the unshifted equations at x."""
        U, Q, mu = x[:m], x[m:m + n], x[m + n + 1:]
        return np.concatenate([-(A_c @ U + B_c.T @ Q + border @ mu),
                               rhs_q - B_c @ U - x[m + n] * w, [-(w @ Q)],
                               -(border.T @ U)])

    # one solve and one refinement sweep: the LU solve is accurate in the
    # norm of the dominant rows only, and at high contrast the element mass
    # balances are small components of the divergence rows
    x = np.zeros(m + n + 1 + b)
    for _ in range(2):
        x += lu.solve(residual(x))
    U, P = x[:m], -x[m:m + n]
    if n == 1:
        sigma = np.inf
    else:
        def zero_mean(q):
            return q - (w @ q) / (w @ w) * w

        # K^-1 [0; r; 0] has pressure part -(Pi S Pi)^+ r for the Schur
        # complement S = B_c A^-1 B_c^T and the zero-mean projector Pi, so
        # its top eigenvalue is 1 / sigma (shift-invert at zero)
        pad = np.zeros(m)
        sigma = 1.0 / _top_eigenvalue(
            lambda q: -lu.solve(np.concatenate([pad, zero_mean(q), np.zeros(1 + b)]))[m:m + n],
            n)
        # numerical rank test: sigma scales like 1/contrast, so compare it
        # with the roundoff level of the largest eigenvalue, which needs
        # only a few digits
        lam_max = _top_eigenvalue(
            lambda q: zero_mean(B_c @ lu_a.solve(B_c.T @ zero_mean(q))), n, tol=1e-3)
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
    p = np.asarray(system.aux.matrix @ P)
    return MsSolution(basis.coarse, basis.flavor, basis.layers,
                      U, P, gamma, v, p, sigma)


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


def mass_residuals(solution, f, aux=None):
    """Conservation check of a fine-grid velocity field against the source.

    With `aux` given the report also carries the projection-compatibility
    residual of the velocity divergence.
    """
    coarse = solution.coarse
    grid = coarse.fine
    h2 = grid.h ** 2
    flux_int = divergence_matrix(grid) @ solution.v
    diff = flux_int - h2 * np.asarray(f, dtype=np.float64)
    per_element = np.zeros(coarse.n_elements)
    np.add.at(per_element, coarse.element_of_cell(np.arange(grid.n_cells)), diff)
    per_element = np.abs(per_element)
    compat = div_compat_residual(solution.v, aux) if aux is not None else float("nan")
    return MassReport(per_element, float(per_element.max()), compat)
