"""Finite-dimensional modular theory for matrix algebras in standard form.

The concrete construction throughout: ambient space is the n x n
matrices with the trace inner product ``<a, b> = Tr(a^H b)`` (row-major
vectorization), the algebra is generated by left multiplications, and
the cyclic/separating vector is ``rho^{1/2}`` for a full-rank density
matrix rho.  This gives an exact linear-solve construction of the
conjugate-linear involution with no quadrature.

Conjugate-linear compositions go through the tag algebra of the core
module (two conjugations cancel); realification is used only for the
conjugate-linear eigenproblem at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CONJUGATE,
    DEFAULT_TOL,
    LINEAR,
    OperatorError,
    OperatorMatrix,
    adjoint,
    compose,
    spectrum,
    sqrt_psd,
    unitary_power,
)


class ModularError(OperatorError):
    pass


@dataclass(frozen=True)
class AlgebraSpec:
    """A *-algebra of operators given by generators and a computed basis.

    ``basis`` is orthonormal in the trace inner product on operators and
    spans the unital *-algebra generated by the generators.
    """

    dim_ambient: int
    generators: tuple
    basis: tuple


def _hs_orthonormalize(mats, tol=1e-10):
    """Orthonormal basis (trace inner product) of the span of matrices."""
    if not mats:
        return []
    m = mats[0].shape[0]
    stack = np.array([M.reshape(-1) for M in mats])
    # SVD-based row space extraction keeps the result reproducible
    u, s, vh = np.linalg.svd(stack, full_matrices=False)
    rank = int(np.sum(s > tol * s[0])) if s.size and s[0] > 0 else 0
    return [vh[j].reshape(m, m) for j in range(rank)]


def algebra_from_generators(generators, tol: float = 1e-10) -> AlgebraSpec:
    """Close the span of the generators under adjoints and products."""
    gens = [np.asarray(g.matrix if isinstance(g, OperatorMatrix) else g,
                       dtype=complex) for g in generators]
    if not gens:
        raise ModularError("empty generator list")
    m = gens[0].shape[0]
    current = _hs_orthonormalize(
        [np.eye(m, dtype=complex)] + gens + [g.conj().T for g in gens], tol
    )
    while True:
        products = [a @ b for a in current for b in current]
        new = _hs_orthonormalize(current + products, tol)
        if len(new) == len(current):
            break
        current = new
    return AlgebraSpec(
        m,
        tuple(OperatorMatrix(g, LINEAR) for g in gens),
        tuple(OperatorMatrix(b, LINEAR) for b in current),
    )


def commutant(alg: AlgebraSpec, tol: float = 1e-10):
    """Orthonormal basis of everything commuting with all generators.

    Solves the stacked linear system ``g X - X g = 0`` over all
    generators by singular value thresholding.  The stack is folded one
    generator block at a time into its m^2 x m^2 R factor, which has the
    same singular values and right singular vectors as the stack.
    """
    if not alg.generators:
        raise ModularError("empty generator list")
    m = alg.dim_ambient
    eye = np.eye(m)
    R = np.zeros((0, m * m), dtype=complex)
    for g in alg.generators:
        block = np.kron(g.matrix, eye) - np.kron(eye, g.matrix.T)
        R = np.linalg.qr(np.vstack([R, block]), mode="r")
    _, s, vh = np.linalg.svd(R)
    scale = s[0] if s.size and s[0] > 0 else 1.0
    rank = int(np.sum(s > tol * scale))
    return [
        OperatorMatrix(vh[j].conj().reshape(m, m), LINEAR)
        for j in range(rank, vh.shape[0])
    ]


def _stack(mats) -> np.ndarray:
    """Matrices (or OperatorMatrix) as one (k, m, m) complex array."""
    return np.array([b.matrix if isinstance(b, OperatorMatrix) else b
                     for b in mats], dtype=complex)


def span_residual(x, basis) -> float:
    """Distance (Frobenius norm of the remainder) from an orthonormal span.

    ``x`` is one matrix, a (k, m, m) stack or a sequence of matrices;
    for several matrices the worst distance is returned.
    """
    X = x if isinstance(x, np.ndarray) else _stack(x)
    X = X.reshape(-1, X.shape[-1] ** 2)
    V = _stack(basis).reshape(len(basis), X.shape[1])
    rem = X - (X @ V.conj().T) @ V
    return float(np.max(np.linalg.norm(rem, axis=1)))


# ---------------------------------------------------------------------------
# Standard form


@dataclass(frozen=True)
class StandardForm:
    n: int
    rho: np.ndarray
    xi: np.ndarray
    alg: AlgebraSpec


#: largest n accepted: the commutant solves are n^4 x n^4 (n = 5 takes
#: seconds, n = 6 would take minutes)
MAX_N = 5


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_N:
        raise ModularError(f"matrix size n={n} is outside 1..{MAX_N}")


def standard_form(n: int, rho) -> StandardForm:
    """Hilbert-Schmidt standard form of the left-multiplication algebra.

    Ambient space: n x n matrices with trace inner product; algebra
    generators: left multiplications by matrix units; vector: rho^{1/2}.
    rho must be Hermitian and positive definite with unit trace, so the
    vector is both cyclic and separating (``m xi = 0`` for algebra m
    forces m = 0).
    """
    _check_n(n)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (n, n):
        raise ModularError(f"rho must be {n}x{n}")
    # finiteness first, so inf - inf never reaches the Hermitian test
    if not np.isfinite(rho).all() or np.max(abs(rho - rho.conj().T)) > 1e-10:
        raise ModularError("rho must be finite and Hermitian")
    if not abs(np.trace(rho) - 1.0) <= 1e-10:
        raise ModularError("rho must have unit trace")
    w, U = np.linalg.eigh(rho)
    if w[0] <= 1e-12:
        raise ModularError(
            "singular rho: the vector would not be separating "
            "(some algebra element m != 0 would satisfy m xi = 0)"
        )
    root = (U * np.sqrt(w)) @ U.conj().T
    xi = root.reshape(-1)
    # left multiplications by the matrix units E_ij; with row-major vec,
    # vec(x a) = (x kron I) vec(a)
    eye = np.eye(n)
    alg = algebra_from_generators([np.kron(np.outer(eye[i], eye[j]), eye)
                                   for i in range(n) for j in range(n)])
    return StandardForm(n, rho, xi, alg)


def tracial_rho(n: int) -> np.ndarray:
    _check_n(n)
    return np.eye(n) / n


def cyclic_check(alg: AlgebraSpec, xi, tol: float = 1e-10) -> bool:
    """xi is cyclic iff {b xi : b in basis} spans the ambient space."""
    cols = np.column_stack([b.matrix @ xi for b in alg.basis])
    return np.linalg.matrix_rank(cols, tol=tol) == alg.dim_ambient


def separating_check(alg: AlgebraSpec, xi, tol: float = 1e-10) -> bool:
    """xi is separating iff b -> b xi is injective on the algebra span."""
    cols = np.column_stack([b.matrix @ xi for b in alg.basis])
    return np.linalg.matrix_rank(cols, tol=tol) == len(alg.basis)


def _solve_involution(basis, xi, name: str):
    """Conjugate-linear matrix of v = m xi -> m^* xi over an operator span."""
    m_dim = xi.shape[0]
    M = np.column_stack([b.matrix @ xi for b in basis])
    if M.shape[1] != m_dim:
        raise ModularError(
            f"{name}: span dimension {M.shape[1]} != ambient {m_dim}; "
            "vector is not cyclic for this algebra"
        )
    cond = np.linalg.cond(M)
    if not np.isfinite(cond):
        raise ModularError(f"{name}: vector is not separating (singular solve)")
    coeffs = np.linalg.solve(M, np.eye(m_dim, dtype=complex))
    W = np.column_stack([b.matrix.conj().T @ xi for b in basis])
    mat = W @ np.conj(coeffs)
    return OperatorMatrix(mat, CONJUGATE), float(cond)


def build_S(alg: AlgebraSpec, xi):
    """The involution ``m xi -> m^* xi`` as a conjugate-linear matrix.

    Returns the operator and the condition number of the linear solve
    (ill-conditioning signals a nearly singular density matrix).
    """
    return _solve_involution(alg.basis, xi, "build_S")


def build_F(commutant_basis, xi):
    """The commutant-side involution ``m' xi -> (m')^* xi``."""
    return _solve_involution(commutant_basis, xi, "build_F")


@dataclass(frozen=True)
class ModularData:
    xi: np.ndarray
    S: OperatorMatrix
    F: OperatorMatrix
    Delta: OperatorMatrix
    J: OperatorMatrix
    comm: tuple  # orthonormal commutant basis
    cond: float  # condition number of the build_S solve


def modular_delta(S: OperatorMatrix, tol: float = DEFAULT_TOL) -> OperatorMatrix:
    """Modular operator Delta = S* S (linear: the conjugations cancel).

    For a density matrix state this acts by conjugation, h -> rho h
    rho^{-1}; see conjugation_action_matrix for the independent route.
    The matrix Ms^T conj(Ms) is exactly self-adjoint and PSD.
    """
    prod = compose(adjoint(S), S)
    w = spectrum(prod, tol)
    if w.size and w[0] < -tol * max(1.0, float(w[-1])):
        raise ModularError(f"S* S is not PSD: smallest eigenvalue {w[0]:.3e}")
    return prod


def modular_J(S: OperatorMatrix, Delta: OperatorMatrix) -> OperatorMatrix:
    """Conjugate-linear isometry J in the polar split S = J Delta^{1/2}.

    Delta is invertible whenever the vector is separating; a singular
    Delta here is an internal inconsistency, not a user error.
    """
    root = sqrt_psd(Delta)
    w = np.linalg.eigvalsh(root.matrix)
    if w[0] <= 1e-12:
        raise ModularError("internal inconsistency: Delta is singular")
    inv = np.linalg.inv(root.matrix)
    # J = S o Delta^{-1/2}: v -> Ms conj(Delta^{-1/2} v)
    return OperatorMatrix(S.matrix @ np.conj(inv), CONJUGATE)


def modular_data(sf: StandardForm, tol: float = DEFAULT_TOL) -> ModularData:
    comm = tuple(commutant(sf.alg))
    S, cond = build_S(sf.alg, sf.xi)
    F, _ = build_F(comm, sf.xi)
    Delta = modular_delta(S, tol)
    J = modular_J(S, Delta)
    return ModularData(sf.xi, S, F, Delta, J, comm, cond)


def conjugation_action_matrix(rho) -> np.ndarray:
    """Independent route to the modular operator: ``h -> rho h rho^{-1}``."""
    rho = np.asarray(rho, dtype=complex)
    return np.kron(rho, np.linalg.inv(rho).T)


def check_commutation(J: OperatorMatrix, alg: AlgebraSpec, comm_basis,
                      tol: float = DEFAULT_TOL) -> float:
    """Max residual of expanding J x J in the commutant basis.

    J x J is linear (conjugate - linear - conjugate), with matrix
    ``Mj conj(x) conj(Mj)``.  Returns the worst trace-norm remainder.
    """
    Mj = J.matrix
    sandwich = Mj @ np.conj(_stack(alg.basis)) @ np.conj(Mj)
    return span_residual(sandwich, comm_basis)


def check_sxs_commutes(S: OperatorMatrix, alg: AlgebraSpec) -> float:
    """Max commutator norm of S x S against the algebra basis."""
    Ms, Y = S.matrix, _stack(alg.basis)
    SX = (Ms @ np.conj(Y) @ np.conj(Ms))[:, None]
    comm = SX @ Y - Y @ SX  # [S x_i S, y_j] for every pair (i, j)
    return float(np.max(np.linalg.norm(comm, axis=(2, 3))))


def modular_flow_check(Delta: OperatorMatrix, alg: AlgebraSpec, t_list,
                       tol: float = DEFAULT_TOL) -> float:
    """Max residual of expanding Delta^{it} x Delta^{-it} in the algebra."""
    if not np.isfinite(t_list).all():
        raise ModularError(f"modular flow times must be finite: {t_list}")
    X = _stack(alg.basis)
    worst = 0.0
    for t in t_list:
        U = unitary_power(Delta, float(t), tol)
        Uinv = unitary_power(Delta, -float(t), tol)
        flowed = U.matrix @ X @ Uinv.matrix
        worst = max(worst, span_residual(flowed, alg.basis))
    return worst


def antilinear_defect_dimension(F: OperatorMatrix, alg: AlgebraSpec, xi,
                                tol: float = 1e-8) -> int:
    """Real dimension of the graph-defect space of the pair (S, F).

    A defect vector z must satisfy the conjugate-linear eigenvalue
    equation ``F* z = -z`` together with orthogonality to the orbit
    ``{(m - m*) xi}`` of the skew parts of the algebra; the eigenvalue
    equation alone has an n^2-real-dimensional solution set and does not
    certify anything.  Both conditions are realified and stacked; the
    vanishing argument predicts dimension 0.
    """
    C = adjoint(F).matrix
    n = C.shape[0]
    re, im, eye = C.real, C.imag, np.eye(n)
    # m = c b over complex c has skew part spanning both directions
    B = _stack(alg.basis)
    Bh = B.conj().transpose(0, 2, 1)
    V = np.concatenate([B - Bh, 1j * (B + Bh)]) @ np.asarray(xi, dtype=complex)
    V = V[np.linalg.norm(V, axis=1) >= 1e-14]
    R = np.vstack([
        # z = a + ib, F* z = C conj(z): real system for C conj(z) + z = 0
        np.block([[re + eye, im], [im, -re + eye]]),
        # <v, z> = 0: real and imaginary parts as rows over (a, b)
        np.hstack([V.real, V.imag]),
        np.hstack([-V.imag, V.real]),
    ])
    s = np.linalg.svd(R, compute_uv=False)
    scale = s[0] if s.size and s[0] > 0 else 1.0
    rank = int(np.sum(s > tol * scale))
    return 2 * n - rank
