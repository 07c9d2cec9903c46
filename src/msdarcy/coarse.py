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
redundant, and the banded LU (`fem.band_lu`) of the block with that row
replaced by a pin solves the saddle system. A Lanczos iteration on that
LU gives the inf-sup constant of the pressure Schur complement on
zero-mean coefficients.

Both bands take their entries straight from the blocks' compressed
arrays, (A_c + A_c^T) / 2 from A_c's rows and the pinned block from
B_c's columns, with no symmetrized, triangular or coordinate copy; `fem`
places, writes, factors and solves them. Each band is overwritten by
its factor, so every product with a block reads the CSR/CSC block
itself, A_c rather than its symmetric part. A product on a band layout
would need a second copy of the band and gains little or loses: at 3072
functions on one thread, BLAS `dsbmv` took 0.42-0.51 ms against 0.54 ms
for the CSR product with A_c, and `dgbmv` 0.36 ms against 0.16 ms for
the CSC product with B_c. The two bands never coexist: the Cholesky
band lives until the rank test's largest eigenvalue, which runs right
after the Cholesky check, and is freed before the LU band is made; the
LU band lives until the sigma iteration ends. So the solve's memory peak
is the larger band, not their sum. An error of that early eigenvalue run
(no convergence, or ARPACK's own error on a degenerate block) is held
back and raised after the LU and sigma checks, so the checks still fail
in their order: Cholesky, LU pivot, sigma, rank test, residual.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh

from .errors import SolveError
from .fem import (band_cholesky, band_half_width, band_lu, band_lu_solve, band_matrix,
                  band_solve, check_memory, check_source, divergence_matrix,
                  general_band_positions, lower_band_positions)


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

    Its diagonal holds the functions' energies. A_c is summed in blocks of
    rows, each copied to its exact size before the next is formed, so no
    sum's slack for both terms' entries outlives its block. The solve
    reads A_c and B_c in the CSR and CSC layouts returned here, with no
    copy.

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
    A_c = _velocity_block(B_c, (E if basis_set.flavor == "type1" else E - B_c).tocsr(),
                          basis_set.matrix, basis_set.traces.tocsr())
    A_c.setdiag(basis_set.energies)
    need = 8 * n * (band_half_width(A_c) + 1) + 8 * n * (3 * band_half_width(B_c) + 1)
    check_memory(need, f"coarse system of {n} basis functions")
    rhs_q = h2 * (R.T @ f)
    mean_w = np.asarray(R.T @ np.full(grid.n_cells, h2))
    return CoarseSystem(basis_set, A_c, B_c, rhs_q, mean_w)


# A_c is summed in blocks of this many rows (functions). A sparse sum keeps
# arrays sized for both terms' entries, and each block's sum is copied to
# its exact size before the next is formed. At 3072 functions on a 64x64
# grid that took the assembly's tracemalloc peak from 29.3 to 20.0 MiB,
# at 3072 on a 128x128 grid (5 layers) from 129 to 86 MiB. Below this many
# functions there is one block: at 192 the calls of 8 blocks cost more
# than the whole sum (0.020 against 0.011 s).
_BLOCK_ROWS = 384


def _rows(matrix, start, stop):
    """Rows start:stop of the CSR `matrix`, as views of its arrays."""
    p0, p1 = matrix.indptr[start], matrix.indptr[stop]
    return sp.csr_matrix((matrix.data[p0:p1], matrix.indices[p0:p1],
                          matrix.indptr[start:stop + 1] - p0),
                         shape=(stop - start, matrix.shape[1]))


def _velocity_block(B_c, Pi, Psi, G):
    """B_c^T Pi + Psi^T G as CSR with no slack, for the CSC stacks B_c and
    Psi (whose transposes are CSR with no copy) and CSR Pi and G, summed
    in row blocks of _BLOCK_ROWS."""
    n = B_c.shape[1]
    parts = [(_rows(B_c.T, i, min(i + _BLOCK_ROWS, n)) @ Pi
              + _rows(Psi.T, i, min(i + _BLOCK_ROWS, n)) @ G).copy()
             for i in range(0, n, _BLOCK_ROWS)]
    return parts[0] if len(parts) == 1 else sp.vstack(parts, format="csr")


def _symmetric_band(A_c, kd):
    """The lower band of (A_c + A_c^T) / 2 at half-width kd, or A_c's own
    if that is larger, straight from A_c's compressed rows: each stored
    entry (i, j) adds itself at (max(i, j), min(i, j)), the sums are
    halved, and the diagonal is A_c's own."""
    A = A_c.tocsr()
    n = A.shape[0]
    positions, kd = lower_band_positions(
        np.repeat(np.arange(n, dtype=A.indices.dtype), np.diff(A.indptr)), A.indices, n, kd)
    band = band_matrix(positions, A.data, kd + 1, n)
    band *= 0.5
    band[0] = A.diagonal()
    return band


def _pinned_band(B_c, k):
    """The general band of B~, which is B_c with row k replaced by e_k^T,
    straight from B_c's compressed columns."""
    B = B_c.tocsc()
    n = B.shape[1]
    positions, kb = general_band_positions(
        B.indices, np.repeat(np.arange(n, dtype=B.indices.dtype), np.diff(B.indptr)), n)
    band = band_matrix(positions, B.data, 3 * kb + 1, n)
    row_k = np.arange(max(k - kb, 0), min(k + kb + 1, n))
    band[2 * kb + k - row_k, row_k] = 0.0
    band[2 * kb, k] = 1.0
    return band


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
    the multiple of s that meets w^T P = f_w completes the pressure.

    The matrix-vector products read A_c and B_c themselves, plus
    c s (s . x) for the shift of a saturated set: A is A_c (+ c s s^T) in
    the products, with A_c^T z in the null-vector correction, and its
    symmetric part only in the factor.

    One band is alive at a time. The rank test's largest eigenvalue, the
    Cholesky factor's last use, runs right after the Cholesky check, and
    the Cholesky band is freed before the LU band is made; the LU band is
    freed after the sigma iteration, its last use. Any error of that early
    eigenvalue run (a SolveError when it does not converge, or scipy's
    ArpackError, such as -9 on a zero divergence block) is held back and
    raised unchanged after the LU pivot check and the sigma iteration. So
    the checks fail in a fixed order: positive definiteness (Cholesky), a
    zero pivot (LU), the sigma iteration, the rank test, the residual."""
    A_c, B_c, w, rhs_q = system.A_c, system.B_c, system.mean_w, system.rhs_q
    n = w.size
    if A_c.shape != (n, n) or B_c.shape != (n, n):
        raise SolveError(
            f"coarse system needs one basis function per auxiliary column: "
            f"velocity block {A_c.shape[0]}x{A_c.shape[1]}, divergence block "
            f"{B_c.shape[0]}x{B_c.shape[1]}")
    s = system.basis.aux.coefficients(1.0)
    saturated = system.basis.saturated
    chol = _symmetric_band(A_c, n - 1 if saturated else 0)
    if saturated:
        # global functions combined by the coefficients s of the constant
        # pressure have zero velocity and divergence, so s spans the null
        # space of B_c; the shift c s s^T makes A definite along it, and the
        # energy minimization below then fixes the coefficients along it
        shift = chol[0].sum() / n / (s @ s)
        for d in range(n):
            chol[d, :n - d] += shift * (s[d:] * s[:n - d])

    def apply_a(x, matrix=A_c):
        """A x for A = A_c, plus c s s^T for a saturated set (A^T x for
        `matrix` A_c^T)."""
        y = matrix @ x
        if saturated:
            y += (shift * (s @ x)) * s
        return y
    try:
        chol = band_cholesky(chol)
    except np.linalg.LinAlgError as exc:
        raise SolveError(f"projected velocity block is not positive definite: {exc}")

    def zero_mean(q):
        return q - (w @ q) / (w @ w) * w

    # the rank test's largest eigenvalue, the Cholesky factor's last use, so
    # that its band is freed before the LU band is made; an error of this
    # run is held back until the LU and sigma checks have run
    lam_max, held = None, None
    if n > 1:
        try:
            lam_max = _top_eigenvalue(
                lambda q: zero_mean(B_c @ band_solve(chol, B_c.T @ zero_mean(q))), n, tol=1e-3)
        except (SolveError, ArpackError) as exc:
            held = exc
    del chol
    k = int(np.argmax(np.abs(s)))
    try:
        lu = band_lu(_pinned_band(B_c, k))
    except np.linalg.LinAlgError as exc:
        raise SolveError(f"coarse system is singular: {exc}")
    z = band_lu_solve(lu, np.eye(1, n, k)[0])
    Az = apply_a(z, A_c.T)
    zAz = z @ Az

    def solve(f_u, f_q, f_w):
        """(U, P, gamma) with A U - B_c^T P = f_u, B_c U + gamma w = f_q and
        w^T P = f_w: a particular U with U_k = 0 plus the multiple of z that
        makes A U - f_u orthogonal to z, the range of B_c^T; then P."""
        gamma = (s @ f_q) / (s @ w)
        r = f_q - gamma * w
        r[k] = 0.0
        U = band_lu_solve(lu, r)
        U += ((z @ f_u - Az @ U) / zAz) * z
        P = band_lu_solve(lu, apply_a(U) - f_u, trans=1)
        return U, P + ((f_w - w @ P) / (s @ w)) * s, gamma

    # one solve and one refinement sweep on the unshifted equations: the
    # LU solve is accurate in the norm of the dominant rows only, and at
    # high contrast the element mass balances are small components of the
    # divergence rows
    U, P, gamma = np.zeros(n), np.zeros(n), 0.0
    for _ in range(2):
        dU, dP, dgamma = solve(B_c.T @ P - A_c @ U, rhs_q - B_c @ U - gamma * w, -(w @ P))
        U, P, gamma = U + dU, P + dP, gamma + dgamma

    # the pressure of the solve with data (0, Pi r, 0) is (Pi S Pi)^+ r for
    # the Schur complement S = B_c A^-1 B_c^T and the zero-mean projector
    # Pi, so the top eigenvalue of that map is 1 / sigma
    sigma = np.inf if n == 1 else 1.0 / _top_eigenvalue(
        lambda q: solve(np.zeros(n), zero_mean(q), 0.0)[1], n)
    del lu
    if held is not None:
        raise held
    # numerical rank test: sigma scales like 1/contrast, so compare it with
    # the roundoff level of the largest eigenvalue, which needs only a few
    # digits
    if n > 1 and not sigma > (n - 1) * np.finfo(float).eps * lam_max:
        raise SolveError(
            f"coarse system is singular: restricted Schur eigenvalue {sigma:.3e}, "
            f"largest {lam_max:.3e}")
    BU = B_c @ U
    gamma = float(w @ (rhs_q - BU)) / (w @ w)
    res = np.sqrt(np.linalg.norm(A_c @ U - B_c.T @ P) ** 2
                  + np.linalg.norm(BU + gamma * w - rhs_q) ** 2
                  + (w @ P) ** 2)
    scale = np.linalg.norm(rhs_q)
    if not res <= rtol * max(scale, 1e-300):
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
    with the projection-compatibility residual of the velocity divergence.
    The source passes `check_source`, as in `assemble_coarse_system`."""
    coarse = solution.coarse
    grid = coarse.fine
    f = check_source(f, grid)
    h2 = grid.h ** 2
    flux_int = divergence_matrix(grid) @ solution.v
    diff = flux_int - h2 * f
    per_element = np.zeros(coarse.n_elements)
    np.add.at(per_element, coarse.element_of_cell(np.arange(grid.n_cells)), diff)
    per_element = np.abs(per_element)
    return MassReport(per_element, float(per_element.max()),
                      div_compat_residual(solution.v, aux))
