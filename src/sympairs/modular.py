"""Finite-dimensional modular theory for matrix algebras in standard form.

The concrete construction throughout: ambient space is the n x n
matrices with the trace inner product ``<a, b> = Tr(a^H b)`` (row-major
vectorization), the algebra is the left multiplications, and the
cyclic/separating vector is ``rho^{1/2}`` for a full-rank density
matrix rho.  This gives an exact linear-solve construction of the
conjugate-linear involution with no quadrature.

A *-algebra is held as its orthonormal basis (trace inner product), a
read-only complex (k, m, m) stack: M of the standard form, M' and M''.
Those three depend on n alone and are built once per n per process.

Conjugate-linear matrices follow the tag algebra of the core module
(the adjoint of a conjugate-linear S is S^T, and two conjugations
cancel); realification is used only for the conjugate-linear
eigenproblem at the end.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import (
    CONJUGATE,
    OperatorError,
    OperatorMatrix,
    check_budget,
    power_from_spectrum,
    readonly,
    root_from_spectrum,
    rounding_tol,
    spectrum,
)


class ModularError(OperatorError):
    pass


#: relative rank threshold of the span SVDs in algebra_from_generators,
#: and the bound of its closure test
SPAN_TOL = 1e-10


def _hs_orthonormalize(stack: np.ndarray) -> np.ndarray:
    """Orthonormal basis (trace inner product) of the span of a stack."""
    k, m = stack.shape[:2]
    # SVD-based row space extraction keeps the result reproducible
    u, s, vh = np.linalg.svd(stack.reshape(k, m * m), full_matrices=False)
    rank = int(np.sum(s > SPAN_TOL * s[0])) if s.size and s[0] > 0 else 0
    return vh[:rank].reshape(rank, m, m)


def algebra_from_generators(generators) -> np.ndarray:
    """Read-only basis of the *-algebra generated by ``generators``: their
    span with 1, closed under adjoints and products.  No suite calls it;
    it builds algebras such as direct sums from their generators.

    Each round forms every product of the current basis and first tests
    whether the span is already closed.  A projection residual of
    Frobenius norm <= SPAN_TOL bounds every new singular value of the
    stacked span and products below the SVD rank threshold ``SPAN_TOL *
    s[0]`` (``s[0] >= 1``), so the SVD would add nothing; it runs only
    when the residual is larger.
    """
    gens = np.array(generators, dtype=complex)
    if not len(gens):
        raise ModularError("empty generator list")
    m = gens.shape[1]
    current = _hs_orthonormalize(np.concatenate(
        [np.eye(m, dtype=complex)[None], gens, gens.conj().transpose(0, 2, 1)]
    ))
    while True:
        products = (current[:, None] @ current[None]).reshape(-1, m, m)
        P, V = products.reshape(-1, m * m), current.reshape(-1, m * m)
        if np.linalg.norm(P - (P @ V.conj().T) @ V) <= SPAN_TOL:
            break
        new = _hs_orthonormalize(np.concatenate([current, products]))
        if len(new) == len(current):
            break
        current = new
    return readonly(current)


#: relative tolerance of the structural commutant: eigenvalue gaps of the
#: generic Hermitian element, links between its eigenspaces and the final
#: commutator check are each measured against the norm of what they test
CLUSTER_TOL = 1e-8

#: fixed seed of the generic algebra elements, so bases are reproducible
_GENERIC_SEED = 2010

#: smallest relative gap between eigenvalue clusters of the generic
#: element: eigenvectors mix at about eps / gap, so a draw with a closer
#: pair of clusters is replaced by the next draw of the seeded generator
GAP_FLOOR = 1e-3

#: generic draws tried before commutant gives up
MAX_DRAWS = 16


def commutant(B: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the commutant of the *-algebra with basis
    ``B``, as a read-only complex (k, m, m) stack like ``B``.

    Built from the block structure of the algebra (Murota, Kanno, Kojima
    & Kojima, Japan J. Indust. Appl. Math. 27, 2010).  Up to a unitary
    the algebra is a direct sum of blocks M_p (x) 1_d; a generic
    Hermitian element H has p eigenspaces of dimension d in each block.
    A second generic element K couples two eigenspaces exactly when they
    lie in the same block, and there ``V_a^H K V_b`` is a scalar times a
    unitary whose polar factor aligns the two eigenbases.  The commutant
    of a block is spanned by ``(1/sqrt p) sum_a W_a E_ij W_a^H``.  This is
    O(m^3), against O(m^6) for the Sylvester system.  A draw of H whose
    clusters lie closer than GAP_FLOOR (relative) is replaced by the next
    draw, at most MAX_DRAWS in all.

    The result is checked, never trusted: every element must commute
    with every basis element of the algebra, and the blocks must account
    for the whole algebra (sum of p^2 = len(B); with the double
    commutant theorem this makes the span all of M').  Otherwise
    ModularError.
    """
    if not len(B):
        raise ModularError("commutant: the algebra has no basis")
    m = B.shape[1]
    rng = np.random.default_rng(_GENERIC_SEED)
    for _ in range(MAX_DRAWS):
        c = rng.normal(size=(2, len(B))) + 1j * rng.normal(size=(2, len(B)))
        C, K = np.tensordot(c, B, axes=1)
        w, V = np.linalg.eigh((C + C.conj().T) / 2)
        gap, scale = np.diff(w), max(abs(w[0]), abs(w[-1]))
        cuts = np.flatnonzero(gap > CLUSTER_TOL * scale)
        if not len(cuts) or gap[cuts].min() >= GAP_FLOOR * scale:
            break
    else:
        raise ModularError(f"commutant: no generic element in {MAX_DRAWS} "
                           f"draws has clusters {GAP_FLOOR:g} apart")
    starts = np.concatenate([[0], cuts + 1])
    size = np.diff(np.concatenate([starts, [m]]))
    # Frobenius norms of the blocks V_a^H K V_b between eigenspaces
    KV = V.conj().T @ K @ V
    couple = np.add.reduceat(np.add.reduceat(abs(KV) ** 2, starts, axis=0),
                             starts, axis=1) ** 0.5
    linked = couple > CLUSTER_TOL * np.linalg.norm(K)
    seen = np.zeros(len(starts), dtype=bool)
    dim, out = 0, []  # dim: sum of p^2, the algebra the blocks span
    for root in range(len(starts)):
        if seen[root]:
            continue
        # breadth-first over linked eigenspaces, aligning each to its parent
        seen[root] = True
        d, queue = size[root], [root]
        W = {root: V[:, starts[root]:starts[root] + d]}
        for a in queue:
            for b in np.flatnonzero(linked[a] & ~seen):
                if size[b] != d:
                    raise ModularError(
                        "commutant: linked eigenspaces of unequal size")
                seen[b] = True
                queue.append(b)
                Vb = V[:, starts[b]:starts[b] + d]
                u, _, vh = np.linalg.svd(Vb.conj().T @ K @ W[a])
                W[b] = Vb @ (u @ vh)
        Ws = np.array([W[a] for a in queue])
        dim += len(queue) ** 2
        out.append(np.einsum("axi,ayj->ijxy", Ws, Ws.conj()).reshape(-1, m, m)
                   / np.sqrt(len(queue)))
    X = np.concatenate(out)
    # B spans a *-algebra, so commuting with each basis element is
    # commuting with the whole algebra, adjoints included
    worst = np.max(np.linalg.norm(B[:, None] @ X - X @ B[:, None],
                                  axis=(2, 3)))
    if dim != len(B) or not worst <= CLUSTER_TOL * np.max(np.linalg.norm(
            B, axis=(1, 2))):
        raise ModularError(
            f"commutant: structure check failed (block dimension {dim} "
            f"vs algebra {len(B)}, commutator {worst:.1e})")
    return readonly(X)


def span_residual(x, basis: np.ndarray) -> float:
    """Distance (Frobenius norm of the remainder) from an orthonormal span.

    ``x`` is one matrix or a stack of them, ``basis`` a (k, m, m) stack;
    for several matrices the worst distance is returned.
    """
    return float(np.max(_remainders(x, basis)))


def _remainders(x, basis: np.ndarray) -> np.ndarray:
    """Distance of each matrix of the stack ``x`` from the orthonormal
    span ``basis``, in one projection; shape ``x.shape[:-2]``."""
    X = np.asarray(x, dtype=complex)
    shape = X.shape[:-2]
    X = X.reshape(-1, X.shape[-1] ** 2)
    V = basis.reshape(len(basis), X.shape[1])
    rem = X - (X @ V.conj().T) @ V
    return np.linalg.norm(rem, axis=1).reshape(shape)


# ---------------------------------------------------------------------------
# Standard form


@dataclass(frozen=True)
class StandardForm:
    n: int
    rho: np.ndarray  # rho and xi are read-only arrays of their own
    xi: np.ndarray
    # read-only orthonormal bases, shared by every standard form at this n
    alg: np.ndarray  # M: E_ij (x) 1 / sqrt(n)
    comm: np.ndarray  # M' = commutant(alg)
    comm2: np.ndarray  # M'' = commutant(comm)


#: largest cond(rho) accepted.  No tolerance binds: on rotated rho (n =
#: 2..5, 160 draws per cond) every record passed up to cond(rho) = 5e7.
#: At 1e8 the defect rank flips to real dimension 1 in half the draws and
#: Delta can come out singular; the bound keeps a factor 50 below that.
MAX_COND_RHO = 2e6


def _check_n(n: int) -> None:
    """Refuse n < 1, and an n whose cold ``_algebras(n)`` build is over
    budget, cached or not: commutant's self-check holds the (k, k, m, m)
    complex products B X and X B (k = m = n^2) beside about six (k, m, m)
    stacks (M, M', the new basis and its blocks, the sandwiches)."""
    if n < 1:
        raise ModularError(f"matrix size n={n} must be at least 1")
    check_budget(16 * (2 * n**8 + 6 * n**6), f"matrix size n={n}",
                 ModularError)


@functools.cache
def _algebras(n: int) -> tuple:
    """(M, M', M'') of the standard form at n: they do not depend on rho.
    The memory budget (``_check_n``) admits n <= 8, so the cache holds
    at most eight entries.

    M has the closed-form basis E_ij (x) 1 / sqrt(n)
    (``|E_ij (x) 1|_F = sqrt(n)``).  commutant is seeded and checks its
    result, so a cached stack is the one a fresh build would give, and
    read-only stacks cannot be changed by the callers that share them.
    """
    # left multiplications by the matrix units E_ij; with row-major vec,
    # vec(x a) = (x kron I) vec(a), and (E_ij kron I)[ak, bl] = d_ia d_jb d_kl
    eye = np.eye(n, dtype=complex)
    alg = np.einsum("ia,jb,kl->ijakbl", eye, eye, eye / np.sqrt(n))
    alg = readonly(alg.reshape((n * n,) * 3))
    comm = commutant(alg)
    return alg, comm, commutant(comm)


@functools.cache
def double_commutant_residual(n: int) -> float:
    """Distance of M from M'' at n (Thm 4.10), plus the gap between their
    dimensions.  It reads ``_algebras(n)`` alone, so it does not depend
    on rho and is computed once per n."""
    _check_n(n)
    alg, _, comm2 = _algebras(n)
    return span_residual(alg, comm2) + abs(len(comm2) - len(alg))


def standard_form(n: int, rho) -> StandardForm:
    """Hilbert-Schmidt standard form of the left-multiplication algebra.

    Ambient space: n x n matrices with trace inner product; algebra M:
    the left multiplications, with its commutant M' and M'' (see
    ``_algebras``); vector: rho^{1/2}.  rho must be Hermitian and
    positive definite with unit trace, so the vector is both cyclic and
    separating (``m xi = 0`` for algebra m forces m = 0).
    """
    _check_n(n)
    # a copy: a later write to the caller's array cannot reach sf.rho
    rho = readonly(np.array(rho, dtype=complex))
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
    if w[-1] > MAX_COND_RHO * w[0]:
        raise ModularError(f"ill-conditioned rho: cond(rho) = "
                           f"{w[-1] / w[0]:.1e} > {MAX_COND_RHO:g}")
    root = (U * np.sqrt(w)) @ U.conj().T
    return StandardForm(n, rho, readonly(root.reshape(-1)), *_algebras(n))


def tracial_rho(n: int) -> np.ndarray:
    _check_n(n)
    return np.eye(n) / n


def cyclic_separating(alg: np.ndarray, xi):
    """(cyclic, separating) from one rank of the orbit {b xi : b in alg}:
    xi is cyclic iff the orbit spans the ambient space, and separating
    iff b -> b xi is injective on the algebra."""
    rank = np.linalg.matrix_rank(alg @ xi, tol=1e-10)
    return rank == alg.shape[1], rank == len(alg)


def _involution(basis: np.ndarray, xi, name: str) -> OperatorMatrix:
    """Conjugate-linear matrix of v = m xi -> m^* xi over an operator span;
    the span matrix (columns b xi) is square iff xi is cyclic, and
    singular iff xi is not separating."""
    M = (basis @ xi).T
    if M.shape[1] != xi.shape[0]:
        raise ModularError(
            f"{name}: span dimension {M.shape[1]} != ambient {xi.shape[0]}; "
            "vector is not cyclic for this algebra"
        )
    try:
        coeffs = np.linalg.solve(M, np.eye(M.shape[0], dtype=complex))
    except np.linalg.LinAlgError:
        raise ModularError(
            f"{name}: vector is not separating (singular solve)") from None
    W = (basis.conj().transpose(0, 2, 1) @ xi).T
    return OperatorMatrix(W @ np.conj(coeffs), CONJUGATE)


def build_S(alg: np.ndarray, xi) -> OperatorMatrix:
    """The involution ``m xi -> m^* xi`` as a conjugate-linear matrix."""
    return _involution(alg, xi, "build_S")


def build_F(commutant_basis: np.ndarray, xi) -> OperatorMatrix:
    """The commutant-side involution ``m' xi -> (m')^* xi``."""
    return _involution(commutant_basis, xi, "build_F")


@dataclass(frozen=True)
class ModularData:
    """Sec 4 from one eigendecomposition ``eig = (w, U)`` of Delta: root
    (Delta^{1/2}), J, the flow and cond(Delta) = w[-1] / w[0] reuse it."""

    S: OperatorMatrix
    F: OperatorMatrix
    Delta: OperatorMatrix
    J: OperatorMatrix
    eig: tuple  # (w, U) of Delta
    root: OperatorMatrix  # Delta^{1/2}


def modular_J(S: OperatorMatrix, root: OperatorMatrix, w) -> OperatorMatrix:
    """Conjugate-linear isometry J in the polar split S = J Delta^{1/2},
    from ``root`` = Delta^{1/2} and the eigenvalues ``w`` of Delta.

    Delta is invertible whenever the vector is separating; a singular
    Delta here is an internal inconsistency, not a user error.
    """
    if np.sqrt(max(w[0], 0.0)) <= 1e-12:
        raise ModularError("internal inconsistency: Delta is singular")
    inv = np.linalg.inv(root.matrix)
    # J = S o Delta^{-1/2}: v -> Ms conj(Delta^{-1/2} v)
    return OperatorMatrix(S.matrix @ np.conj(inv), CONJUGATE)


def modular_data(sf: StandardForm) -> ModularData:
    """Delta = S* S = A A^H (A = S^T, m columns) is checked self-adjoint
    and PSD within ROUNDING eps m, a rounding allowance (each entry is
    off by about m eps max|Delta|), never within ``--tol``."""
    S = build_S(sf.alg, sf.xi)
    # S* = S^T for conjugate-linear S, so S* S = S^T conj(S); S^T is
    # copied to C order, since a transposed operand can take another BLAS
    # path and move Delta's last bits
    Delta = OperatorMatrix(S.matrix.T.copy() @ np.conj(S.matrix))
    allowance = rounding_tol(0.0, Delta.rows)
    w, U = map(readonly, spectrum(Delta, allowance))
    root = OperatorMatrix(root_from_spectrum(w, U, allowance))
    return ModularData(S, build_F(sf.comm, sf.xi), Delta,
                       modular_J(S, root, w), (w, U), root)


def conjugation_action_matrix(rho) -> np.ndarray:
    """Independent route to the modular operator: ``h -> rho h rho^{-1}``,
    the Kronecker product rho (x) rho^{-T} as one broadcast product."""
    rho = np.asarray(rho, dtype=complex)
    inv_t = np.linalg.inv(rho).T
    # entry (i k, j l) is rho[i, j] inv_t[k, l], as in np.kron
    outer = rho[:, None, :, None] * inv_t[None, :, None, :]
    return outer.reshape(rho.size, rho.size)


def check_commutation(ops: np.ndarray, alg: np.ndarray,
                      comm_basis: np.ndarray) -> np.ndarray:
    """Worst residual of expanding T x T in the commutant basis, x over
    the algebra basis, for each conjugate-linear matrix T of the
    (r, m, m) stack ``ops``: membership of the sandwich in M' (Eq 4.11).

    For conjugate-linear T the sandwich is linear, with matrix
    ``T conj(x) conj(T)``.  All r k sandwiches are projected onto M' at
    once; returns the (r,) worst trace-norm remainders, one per T.
    """
    ops = np.asarray(ops)
    sandwich = ops[:, None] @ np.conj(alg) @ np.conj(ops)[:, None]
    return _remainders(sandwich, comm_basis).max(axis=1)


def check_sxs_commutes(S: OperatorMatrix, J: OperatorMatrix, alg: np.ndarray,
                       comm_basis: np.ndarray) -> tuple:
    """(S x S, J x J) residuals in M' from one ``check_commutation``:
    x -> S x S (Eq 4.11) and x -> J x J (Thm 4.10) map M into M'.  Kept
    as a name of its own because perfbench's metrics name it."""
    sxs, jxj = check_commutation(np.stack([S.matrix, J.matrix]), alg,
                                 comm_basis)
    return float(sxs), float(jxj)


#: largest |t| accepted by modular_flow_check.  The flow residual grows
#: like eps |t| cond(Delta), and so does suite_modular's tolerance: on
#: rotated rho (n = 2..5, cond(rho) up to 1e6) a true flow stayed below
#: 0.09 of it for |t| from 1 to 1e12.  So the bound keeps no true flow
#: passing; it caps how far a large |t| loosens the record.
MAX_FLOW_T = 1e3


#: entries of one flowed stack: modular_flow_check takes the times in
#: blocks of at most this many (k, m, m) entries, or one time at a time
#: where one stack is larger
FLOW_BLOCK = 2**16


def modular_flow_check(eig, alg: np.ndarray, t_list) -> float:
    """Max residual of expanding Delta^{it} x Delta^{-it} in the algebra,
    from Delta's eigendecomposition ``eig = (w, U)`` (``ModularData.eig``);
    Delta^{it} needs w > 0, which modular_J already checked.

    The times go in blocks: for a block of T times one (2T, m, m) stack
    holds Delta^{it} and Delta^{-it}, and the (T, k, m, m) flowed stack
    is projected onto M at once.  A block holds at most
    max(k m^2, FLOW_BLOCK) entries, so any number of times fits in the
    memory of a few such stacks.
    """
    if not np.isfinite(t_list).all():
        raise ModularError(f"modular flow times must be finite: {t_list}")
    if np.any(np.abs(t_list) > MAX_FLOW_T):
        raise ModularError(
            f"modular flow times must satisfy |t| <= {MAX_FLOW_T:g}: {t_list}")
    w, U = eig
    times = np.asarray(t_list, dtype=float).reshape(-1)
    step = max(1, FLOW_BLOCK // alg.size)
    worst = 0.0
    for start in range(0, len(times), step):
        t = times[start:start + step]
        # Delta^{-it} from the phases of -t itself, not from conjugate
        # phases: the bits of one time at a time
        both = np.concatenate([t, -t])[:, None, None]
        unitaries = power_from_spectrum(w, U, both, 0.0)[:, None]
        flowed = unitaries[:len(t)] @ alg @ unitaries[len(t):]
        worst = max(worst, span_residual(flowed, alg))
    return worst


def antilinear_defect_dimension(F: OperatorMatrix, alg: np.ndarray,
                                xi) -> int:
    """Real dimension of the graph-defect space of the pair (S, F).

    A defect vector z must satisfy the conjugate-linear eigenvalue
    equation ``F* z = -z`` together with orthogonality to the orbit
    ``{(m - m*) xi}`` of the skew parts of the algebra; the eigenvalue
    equation alone has an n^2-real-dimensional solution set and does not
    certify anything.  Both conditions are realified and stacked; the
    vanishing argument predicts dimension 0.
    """
    # m = c b over complex c has skew part spanning both directions
    Bh = alg.conj().transpose(0, 2, 1)
    xi = np.asarray(xi, dtype=complex)
    V = np.concatenate([alg - Bh, 1j * (alg + Bh)]) @ xi
    V = V[np.linalg.norm(V, axis=1) >= 1e-14]
    # z = a + ib and F* z = C conj(z) with C = F^T: the real system of
    # C conj(z) + z = 0 over (a, b), then <v, z> = 0 as two rows per v
    N, p, C = F.rows, len(V), F.matrix.T
    R = np.zeros((2 * N + 2 * p, 2 * N))
    np.fill_diagonal(R[:2 * N], 1.0)
    R[:N, :N] += C.real
    R[:N, N:] += C.imag
    R[N:2 * N, :N] += C.imag
    R[N:2 * N, N:] -= C.real
    R[2 * N:2 * N + p, :N], R[2 * N:2 * N + p, N:] = V.real, V.imag
    R[2 * N + p:, :N], R[2 * N + p:, N:] = -V.imag, V.real
    s = np.linalg.svd(R, compute_uv=False)
    scale = s[0] if s.size and s[0] > 0 else 1.0
    rank = int(np.sum(s > 1e-8 * scale))
    return 2 * F.rows - rank
