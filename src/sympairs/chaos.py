"""Truncated Gaussian-field calculus on a Hermite chaos basis.

The basis consists of products ``H_alpha = prod_i He_{alpha_i}(Phi(e_i))``
of probabilists' Hermite polynomials in d independent standard Gaussian
directions, truncated at total degree N.  With this normalization
``<H_alpha, H_beta> = delta_{alpha beta} * prod_i alpha_i!``, so all
adjoints are taken with respect to the weighted Gram matrix, never the
raw coefficient dot product.

Scalars are stored as complex with zero imaginary part; the underlying
theory is real.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class ChaosError(ValueError):
    pass


def _enumerate_indices(d: int, N: int):
    """Multi-indices alpha in N^d with |alpha| <= N, sorted by (|alpha|, lex)."""
    # stars and bars: d bars among N + d slots; alpha_j is the j-th gap
    idx = (tuple(b - a - 1 for a, b in zip((-1,) + bars, bars))
           for bars in itertools.combinations(range(N + d), d))
    return sorted(idx, key=lambda a: (sum(a), a))


@dataclass(frozen=True)
class Ladders:
    """Per-slot raise/lower index arrays of a chaos basis.

    Slot i raises position ``src[j]`` (degree < N) to ``up[i, j]``, the
    position of alpha + e_i; lowering sends ``up[i, j]`` back to ``src[j]``
    with weight ``rank[i, j] = alpha_i + 1``.  ``top`` holds the degree-N
    positions; slot i pushes weighted squared norm ``top_weight[i, j] =
    prod (alpha + e_i)!`` of ``top[j]`` past the truncation.
    """

    src: np.ndarray
    up: np.ndarray
    rank: np.ndarray
    top: np.ndarray
    top_weight: np.ndarray


class ChaosBasis:
    """Immutable multi-indexed Hermite basis of degree <= N in d variables."""

    __slots__ = ("d", "N", "indices", "index_map", "norms", "degrees",
                 "__dict__")  # __dict__ holds the cached properties

    def __init__(self, d: int, N: int):
        if d < 1 or N < 0:
            raise ChaosError("need d >= 1 and N >= 0")
        if N >= 170:
            raise ChaosError("N >= 170 refused: (N+1)! overflows a float")
        if math.comb(N + d, d) > 10**6:
            raise ChaosError("basis too large: C(N+d, d) exceeds 10^6")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "N", N)
        idx = tuple(_enumerate_indices(d, N))
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "index_map", {a: i for i, a in enumerate(idx)})
        norms = np.array(
            [math.prod(math.factorial(k) for k in a) for a in idx], dtype=float
        )
        norms.setflags(write=False)
        object.__setattr__(self, "norms", norms)
        degs = np.array([sum(a) for a in idx], dtype=int)
        degs.setflags(write=False)
        object.__setattr__(self, "degrees", degs)

    def __setattr__(self, name, value):
        raise AttributeError("ChaosBasis is immutable")

    def __len__(self):
        return len(self.indices)

    def __eq__(self, other):
        return (
            isinstance(other, ChaosBasis)
            and self.d == other.d
            and self.N == other.N
        )

    def __hash__(self):
        return hash((self.d, self.N))

    @cached_property
    def ladders(self) -> Ladders:
        """Read-only ladder index arrays, O(d * |basis|) in size."""
        idx = np.array(self.indices, dtype=float)
        src = np.flatnonzero(self.degrees < self.N)
        top = np.flatnonzero(self.degrees == self.N)
        up = np.array(
            [[self.index_map[a[:i] + (a[i] + 1,) + a[i + 1:]]
              for a in map(self.indices.__getitem__, src)]
             for i in range(self.d)], dtype=np.intp)
        lad = Ladders(src, up, idx[src].T + 1.0, top,
                      self.norms[top] * (idx[top].T + 1.0))
        for arr in vars(lad).values():
            arr.setflags(write=False)
        return lad

    @cached_property
    def number_matrix(self) -> np.ndarray:
        """``t_star_matrix @ t_matrix``, composed once per basis."""
        M = t_star_matrix(self) @ t_matrix(self)
        M.setflags(write=False)
        return M

    @cached_property
    def hermite_terms(self) -> tuple:
        """``hermite_monomials`` of each basis element, by position."""
        return tuple(tuple(hermite_monomials(a)) for a in self.indices)

    def unit(self, alpha) -> "ChaosVector":
        """The basis vector H_alpha."""
        coeffs = np.zeros(len(self), dtype=complex)
        coeffs[self.index_map[tuple(alpha)]] = 1.0
        return ChaosVector(self, coeffs)


def basis_build(d: int, N: int) -> ChaosBasis:
    return ChaosBasis(d, N)


@dataclass(frozen=True)
class ChaosVector:
    """Coefficient vector over a chaos basis (an element of H1 truncated)."""

    basis: ChaosBasis
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (len(self.basis),):
            raise ChaosError("coefficient length does not match basis")
        object.__setattr__(self, "coeffs", c)

    def __add__(self, other):
        self._same(other)
        return ChaosVector(self.basis, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._same(other)
        return ChaosVector(self.basis, self.coeffs - other.coeffs)

    def __rmul__(self, scalar):
        return ChaosVector(self.basis, scalar * self.coeffs)

    def _same(self, other):
        if self.basis != other.basis:
            raise ChaosError("chaos vectors live on different bases")


@dataclass(frozen=True)
class ChaosField:
    """Element of H2 = H1 (x) R^d: one chaos vector per direction."""

    components: tuple

    def __post_init__(self):
        if not self.components:
            raise ChaosError("field needs at least one component")


def h1_inner(F: ChaosVector, G: ChaosVector) -> complex:
    """Weighted inner product <F, G> = sum conj(f_a) g_a * prod a_i!."""
    F._same(G)
    return complex(np.sum(np.conj(F.coeffs) * G.coeffs * F.basis.norms))


def h2_inner(psi1: ChaosField, psi2: ChaosField) -> complex:
    return sum(
        h1_inner(a, b) for a, b in zip(psi1.components, psi2.components)
    )


def zero_vector(basis: ChaosBasis) -> ChaosVector:
    return ChaosVector(basis, np.zeros(len(basis), dtype=complex))


def mult_phi(i: int, F: ChaosVector):
    """Multiplication by Phi(e_i) via the three-term recurrence.

    ``x He_n = He_{n+1} + n He_{n-1}`` in slot i, one scatter along the
    basis' cached ladders.  Exact below degree N; mass pushed past degree
    N is dropped and its weighted norm returned as the truncation loss.
    """
    basis = F.basis
    if not 0 <= i < basis.d:
        raise ChaosError(f"slot {i} out of range for d = {basis.d}")
    lad = basis.ladders
    c = F.coeffs
    out = np.zeros(len(basis), dtype=complex)
    out[lad.up[i]] = c[lad.src]
    out[lad.src] += lad.rank[i] * c[lad.up[i]]
    dropped = np.abs(c[lad.top])
    lost = math.sqrt((dropped * dropped) @ lad.top_weight[i])
    return ChaosVector(basis, out), lost


def T_apply(F: ChaosVector) -> ChaosField:
    """Chaos-coordinate derivative: component i sends H_a to a_i H_{a - e_i}.

    One gather along the basis' cached lowering ladders.  Degree drops by
    one, so the truncated section is exact.
    """
    basis = F.basis
    lad = basis.ladders
    out = np.zeros((basis.d, len(basis)), dtype=complex)
    out[:, lad.src] = lad.rank * F.coeffs[lad.up]
    return ChaosField(tuple(ChaosVector(basis, row) for row in out))


def Tk_apply(F: ChaosVector, k) -> ChaosVector:
    """Contraction <T(F), k> of the derivative against a direction k."""
    k = np.asarray(k, dtype=float)
    if k.shape != (F.basis.d,):
        raise ChaosError("k must have one entry per direction")
    terms = (k[i] * c for i, c in enumerate(T_apply(F).components) if k[i])
    return sum(terms, zero_vector(F.basis))


def S_apply(G: ChaosVector, k):
    """Divergence-side operator ``S(G (x) k) = G * Phi(k) - <T(G), k>``.

    Raises the chaos degree by at most one; exact for inputs of degree
    <= N - 1.  Returns the result and the truncation loss.
    """
    k = np.asarray(k, dtype=float)
    if k.shape != (G.basis.d,):
        raise ChaosError("k must have one entry per direction")
    out = zero_vector(G.basis)
    lost = 0.0
    for i in range(G.basis.d):
        if k[i]:
            prod, li = mult_phi(i, G)
            out = out + k[i] * prod
            lost += abs(k[i]) * li
    return out - Tk_apply(G, k), lost


def t_matrix(basis: ChaosBasis) -> np.ndarray:
    """Matrix of the derivative in natural coordinates, stacked over slots.

    Row block i holds component i; shape (d * |basis|, |basis|), filled
    in one scatter from the basis' cached lowering ladders.
    """
    B = len(basis)
    lad = basis.ladders
    M = np.zeros((basis.d * B, B), dtype=complex)
    rows = np.arange(basis.d)[:, None] * B + lad.src
    M[rows, lad.up] = lad.rank
    return M


def t_star_matrix(basis: ChaosBasis) -> np.ndarray:
    """Weighted-norm adjoint of the derivative section, H2 -> H1."""
    M = t_matrix(basis)
    norms1 = basis.norms
    norms2 = np.tile(norms1, basis.d)
    return (1.0 / norms1)[:, None] * (M.conj().T * norms2[None, :])


def number_operator(F: ChaosVector) -> ChaosVector:
    """Apply the weighted-adjoint composition of the derivative with itself.

    Acts as multiplication of each chaos level n by n; the matrix is
    composed once per basis (``ChaosBasis.number_matrix``).
    """
    return ChaosVector(F.basis, F.basis.number_matrix @ F.coeffs)


def exp_vector(k, basis: ChaosBasis):
    """Truncated normalized Gaussian exponential of Phi(k).

    The coefficient of H_alpha is ``prod_i k_i^{alpha_i} / alpha_i!``;
    the weighted inner product of two such vectors approximates
    ``exp(<k1, k2>)``.  Returns the vector and a bound on the squared
    norm of the discarded tail (a warning-level quantity, not fatal).
    """
    k = np.asarray(k, dtype=float)
    if k.shape != (basis.d,):
        raise ChaosError("k must have one entry per direction")
    coeffs = np.zeros(len(basis), dtype=complex)
    for pos, alpha in enumerate(basis.indices):
        coeffs[pos] = math.prod(
            k[i] ** alpha[i] / math.factorial(alpha[i]) for i in range(basis.d)
        )
    ksq = float(k @ k)
    tail = math.exp(ksq) - sum(ksq**n / math.factorial(n) for n in range(basis.N + 1))
    return ChaosVector(basis, coeffs), max(tail, 0.0)


# ---------------------------------------------------------------------------
# Gaussian moment oracle (Wick/Isserlis pairing), independent of the chaos
# representation above.


def gaussian_expectation(poly, gramian) -> float:
    """Exact Gaussian expectation of a polynomial via Wick pairings.

    ``poly`` is an iterable of (coefficient, exponents) monomials in n
    variables; ``gramian`` is the n x n covariance matrix.  Total degree
    above 20 is refused (pairing explosion).
    """
    G = np.asarray(gramian, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ChaosError("gramian must be square")
    if np.max(np.abs(G - G.T)) > 1e-12:
        raise ChaosError("gramian must be symmetric")
    n = G.shape[0]
    memo = {}

    def moment(counts):
        total_deg = sum(counts)
        if total_deg == 0:
            return 1.0
        if total_deg % 2 == 1:
            return 0.0
        if counts in memo:
            return memo[counts]
        i = next(j for j, c in enumerate(counts) if c > 0)
        rest = list(counts)
        rest[i] -= 1
        acc = 0.0
        for j in range(n):
            if rest[j] > 0 and G[i, j] != 0.0:
                sub = list(rest)
                sub[j] -= 1
                acc += G[i, j] * rest[j] * moment(tuple(sub))
        memo[counts] = acc
        return acc

    total = 0.0
    for coeff, exponents in poly:
        exponents = tuple(int(e) for e in exponents)
        if len(exponents) != n:
            raise ChaosError("monomial arity does not match gramian size")
        if sum(exponents) > 20:
            raise ChaosError("total degree > 20 refused")
        total += coeff * moment(exponents)
    return total


def hermite_coefficients(n: int):
    """Monomial coefficients (ascending) of the probabilists' Hermite He_n."""
    prev = [1.0]
    if n == 0:
        return prev
    cur = [0.0, 1.0]
    for m in range(1, n):
        # He_{m+1} = x He_m - m He_{m-1}
        nxt = [0.0] + cur
        for p, c in enumerate(prev):
            nxt[p] -= m * c
        prev, cur = cur, nxt
    return cur


def hermite_monomials(alpha):
    """Monomial form of H_alpha: list of (coefficient, exponents)."""
    terms = [(1.0, tuple([0] * len(alpha)))]
    for i, ni in enumerate(alpha):
        coeffs = hermite_coefficients(ni)
        new_terms = []
        for c, exps in terms:
            for p, cp in enumerate(coeffs):
                if cp == 0.0:
                    continue
                e = list(exps)
                e[i] += p
                new_terms.append((c * cp, tuple(e)))
        terms = new_terms
    return terms


def chaos_monomials(F: ChaosVector):
    """Monomial form of a chaos vector (real coefficients assumed)."""
    acc = {}
    real = F.coeffs.real
    for pos in np.flatnonzero(real).tolist():
        c = real[pos]
        for mc, exps in F.basis.hermite_terms[pos]:
            acc[exps] = acc.get(exps, 0.0) + c * mc
    return [(c, e) for e, c in acc.items() if c != 0.0]


def multiply(F: ChaosVector, G: ChaosVector):
    """Pointwise product F * G via iterated multiplication by coordinates.

    F is expanded into monomials; each power of a coordinate is applied
    to G through the three-term recurrence.  Returns the product and the
    accumulated truncation loss.
    """
    F._same(G)
    out = zero_vector(F.basis)
    lost = 0.0
    for coeff, exps in chaos_monomials(F):
        term = G
        for i, p in enumerate(exps):
            for _ in range(p):
                term, li = mult_phi(i, term)
                lost += abs(coeff) * li
        out = out + coeff * term
    return out, lost


def pair_sections(basis: ChaosBasis, max_degree: int | None = None):
    """Orthonormal-coordinate sections of the derivative/divergence pair.

    Domains are restricted so truncation edges never enter: the H1 side
    keeps degrees <= max_degree (default N - 1) and the H2 side keeps
    per-component degrees <= max_degree - 1.  Columns are built by
    applying the actual operators to basis vectors and rescaling into
    orthonormal coordinates.  Returns (A, B, h1_positions, h2_slots).
    """
    m = basis.N - 1 if max_degree is None else max_degree
    if m < 1:
        raise ChaosError("need max_degree >= 1 for a nontrivial section")
    sn = np.sqrt(basis.norms)
    h1_pos = np.flatnonzero(basis.degrees <= m).tolist()
    low = np.flatnonzero(basis.degrees <= m - 1)
    h2_slots = [(i, q) for i in range(basis.d) for q in low.tolist()]
    A = np.zeros((len(h2_slots), len(h1_pos)), dtype=complex)
    for col, p in enumerate(h1_pos):
        fld = T_apply(basis.unit(basis.indices[p])).components
        A[:, col] = np.concatenate(
            [c.coeffs[low] * sn[low] / sn[p] for c in fld])
    B = np.zeros((len(h1_pos), len(h2_slots)), dtype=complex)
    for col, (i, q) in enumerate(h2_slots):
        k = np.zeros(basis.d)
        k[i] = 1.0
        img, _ = S_apply(basis.unit(basis.indices[q]), k)
        B[:, col] = img.coeffs[h1_pos] * sn[h1_pos] / sn[q]
    return A, B, h1_pos, h2_slots


def gram_schmidt_reduce(gramian, target: int = 0, tol: float = 1e-12):
    """Orthonormalize a frame given only its Gramian, target vector first.

    Returns (C, kept): C has one row per retained frame vector, giving
    its expansion in the original vectors, with row 0 the normalized
    target.  Dependent vectors (norm below tol after projection) are
    dropped and excluded from ``kept``.
    """
    G = np.asarray(gramian, dtype=float)
    n = G.shape[0]
    if G.shape != (n, n) or np.max(np.abs(G - G.T)) > 1e-10:
        raise ChaosError("gramian must be symmetric and square")
    w = np.linalg.eigvalsh(G)
    if w.size and w[0] < -1e-10 * max(1.0, w[-1]):
        raise ChaosError("gramian must be positive semidefinite")
    order = [target] + [i for i in range(n) if i != target]
    rows, kept = [], []
    for idx in order:
        c = np.zeros(n)
        c[idx] = 1.0
        for r in rows:
            c = c - (r @ G @ c) * r
        norm_sq = float(c @ G @ c)
        if norm_sq > tol:
            rows.append(c / math.sqrt(norm_sq))
            kept.append(idx)
    return np.array(rows), kept
