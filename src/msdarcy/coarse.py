"""Coarse-scale Darcy solve in the multiscale velocity space.

The fine operators are projected onto the basis columns (velocity) and
the kept eigenvectors (pressure). One Cholesky factorization eliminates
the velocity; the pressure Schur complement on zero-mean coefficients
gives the inf-sup constant and the pressure. The solution is expanded
back to fine-grid fluxes and pressures.
"""

import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConfigError, SolveError
from .fem import check_zero_mean, divergence_matrix, mass_matrix


@dataclass(frozen=True)
class CoarseSystem:
    """Dense projected blocks plus the data needed to expand solutions."""

    basis: object
    aux: object
    A_c: np.ndarray
    B_c: np.ndarray
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
    """Project the fine problem onto the multiscale spaces. Sizes whose
    coarse stage would not fit in physical memory raise ConfigError."""
    aux = basis_set.aux
    grid = perm.grid
    f = np.asarray(f, dtype=np.float64)
    h2 = grid.h ** 2
    check_zero_mean(f, h2)
    Psi = basis_set.matrix
    n = Psi.shape[1]
    need = 7 * 8 * n * n  # the coarse stage peaks at ~6.5 dense n x n arrays
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(
            f"coarse system of {n} basis functions needs about {need / 2**30:.1f} GiB "
            f"of dense arrays, more than the {have / 2**30:.1f} GiB of physical memory")
    A_c = (Psi.T @ (mass_matrix(grid, perm) @ Psi)).toarray()
    B_full = divergence_matrix(grid)
    R = aux.matrix
    B_c = (R.T @ (B_full @ Psi)).toarray()
    rhs_q = h2 * (R.T @ f)
    mean_w = np.asarray(R.T @ np.full(grid.n_cells, h2))
    return CoarseSystem(basis_set, aux, A_c, B_c, rhs_q, mean_w, f)


def solve_multiscale(system, rtol=1e-10):
    """Solve the coarse saddle system through the pressure Schur complement
    S = B_c A_c^-1 B_c^T and expand to the fine grid."""
    A_c, B_c, w, rhs_q = system.A_c, system.B_c, system.mean_w, system.rhs_q
    A = 0.5 * (A_c + A_c.T)
    if system.basis.saturated:
        # global functions combined by the coefficients of the constant
        # pressure have zero velocity; shifting out that null direction
        # leaves the Schur complement unchanged, as B_c annihilates it too
        u0 = system.aux.coefficients(np.ones(system.aux.coarse.fine.n_cells))
        A += (np.trace(A) / A.shape[0] / (u0 @ u0)) * np.outer(u0, u0)
    try:
        # in place: A is symmetric, and A.T is the Fortran order LAPACK uses
        cho = scipy.linalg.cho_factor(A.T, overwrite_a=True)
    except np.linalg.LinAlgError as exc:
        raise SolveError(f"projected velocity block is not positive definite: {exc}")
    X = scipy.linalg.cho_solve(cho, B_c.T)
    S = B_c @ X
    n = w.size
    if n == 1:
        sigma = np.inf
        solve_zero_mean = np.zeros_like  # the only zero-mean P is 0
    else:
        # Householder reflector H = I - beta u u^T maps e_0 to +-w/|w|, so
        # its columns 1.. span the zero-mean coefficients; H S H is formed
        # as the symmetric rank-2 update S - u t^T - t u^T
        u = w / np.linalg.norm(w)
        u[0] += 1.0 if u[0] <= 0 else -1.0
        beta = 2.0 / (u @ u)
        s = S @ u
        t = beta * s - (0.5 * beta * beta * (u @ s)) * u
        S -= np.outer(u, t)
        S -= np.outer(t, u)
        S = S[1:, 1:]
        sigma = float(np.linalg.eigvalsh(S)[0])
        if not sigma > 1e-10:
            raise SolveError(
                f"coarse system is singular: restricted Schur eigenvalue {sigma:.3e}")
        try:
            cho_s = scipy.linalg.cho_factor(S)
        except np.linalg.LinAlgError as exc:
            raise SolveError(f"coarse factorization failed: {exc}")

        def solve_zero_mean(r):
            """Zero-mean P with S P = r up to a multiple of w."""
            P = np.concatenate(([0.0], scipy.linalg.cho_solve(
                cho_s, (r - beta * (u @ r) * u)[1:])))
            return P - beta * (u @ P) * u
    U, P = np.zeros(A_c.shape[0]), np.zeros(n)
    # block elimination of the residual, twice: the second sweep refines,
    # because the Schur solve is accurate in the norm of S only, and at high
    # contrast the element mass balances are small components of its rows
    for _ in range(2):
        z = scipy.linalg.cho_solve(cho, B_c.T @ P - A_c @ U)
        dP = solve_zero_mean(rhs_q - B_c @ (U + z))
        P += dP
        U += z + X @ dP
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
