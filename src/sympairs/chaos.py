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


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


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
        object.__setattr__(self, "norms", _frozen(np.array(
            [math.prod(math.factorial(k) for k in a) for a in idx], dtype=float)))
        object.__setattr__(self, "degrees", _frozen(
            np.array([sum(a) for a in idx], dtype=int)))

    def __setattr__(self, name, value):
        raise AttributeError("ChaosBasis is immutable")

    def __len__(self):
        return len(self.indices)

    def __eq__(self, other):
        return isinstance(other, ChaosBasis) and \
            (self.d, self.N) == (other.d, other.N)

    def __hash__(self):
        return hash((self.d, self.N))

    @cached_property
    def alphas(self) -> np.ndarray:
        """The multi-indices as a read-only (|basis|, d) integer array."""
        return _frozen(np.array(self.indices, dtype=np.intp)
                       .reshape(len(self), self.d))

    @cached_property
    def binom(self) -> np.ndarray:
        """``binom[s, r] = C(s + r, r)`` for s <= 2N, r <= d (Pascal rows)."""
        c = np.ones((2 * self.N + 1, self.d + 1), dtype=np.int64)
        for s in range(1, 2 * self.N + 1):
            c[s] = np.cumsum(c[s - 1])
        return _frozen(c)

    @cached_property
    def linearisation(self) -> np.ndarray:
        """Per-slot ``lin[m, n, k] = k! C(m,k) C(n,k)`` (0 if k > m or n),
        so ``He_m He_n = sum_k lin[m, n, k] He_{m+n-2k}``; exact integers
        below 2^53, inf from 2^1023 on."""
        lin = np.zeros((self.N + 1,) * 3)
        for m, n in itertools.product(range(self.N + 1), repeat=2):
            v = 1
            for k in range(min(m, n) + 1):
                lin[m, n, k] = v if v < 2**1023 else math.inf
                v = v * (m - k) * (n - k) // (k + 1)
        return _frozen(lin)

    @cached_property
    def ladders(self) -> Ladders:
        """Read-only ladder index arrays, O(d * |basis|) in size."""
        idx = self.alphas.astype(float)
        src = np.flatnonzero(self.degrees < self.N)
        top = np.flatnonzero(self.degrees == self.N)
        up = np.array(
            [[self.index_map[a[:i] + (a[i] + 1,) + a[i + 1:]]
              for a in map(self.indices.__getitem__, src)]
             for i in range(self.d)], dtype=np.intp)
        lad = Ladders(src, up, idx[src].T + 1.0, top,
                      self.norms[top] * (idx[top].T + 1.0))
        for arr in vars(lad).values():
            _frozen(arr)
        return lad

    @cached_property
    def derivative_matrix(self) -> np.ndarray:
        """``t_matrix`` data, read-only; ``t_matrix`` checks bytes."""
        B, lad = len(self), self.ladders
        M = np.zeros((self.d * B, B), dtype=complex)
        M[np.arange(self.d)[:, None] * B + lad.src, lad.up] = lad.rank
        return _frozen(M)

    @cached_property
    def phi_stack(self) -> np.ndarray:
        """``phi_matrix`` data, read-only; ``phi_matrix`` checks bytes."""
        lad, slot = self.ladders, np.arange(self.d)[:, None]
        X = np.zeros((self.d, len(self), len(self)), dtype=complex)
        X[slot, lad.up, lad.src] = 1.0
        X[slot, lad.src, lad.up] = lad.rank
        return _frozen(X)

    @cached_property
    def number_matrix(self) -> np.ndarray:
        """``t_star_matrix @ t_matrix``, composed once per basis."""
        return _frozen(t_star_matrix(self) @ t_matrix(self))

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
    lad, c = basis.ladders, F.coeffs
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
    basis, lad = F.basis, F.basis.ladders
    out = np.zeros((basis.d, len(basis)), dtype=complex)
    out[:, lad.src] = lad.rank * F.coeffs[lad.up]
    return ChaosField(tuple(ChaosVector(basis, row) for row in out))


def _direction(basis: ChaosBasis, k) -> np.ndarray:
    k = np.asarray(k, dtype=float)
    if k.shape != (basis.d,):
        raise ChaosError("k must have one entry per direction")
    return k


def Tk_apply(F: ChaosVector, k) -> ChaosVector:
    """Contraction <T(F), k> of the derivative against a direction k."""
    k = _direction(F.basis, k)
    terms = (k[i] * c for i, c in enumerate(T_apply(F).components) if k[i])
    return sum(terms, zero_vector(F.basis))


def S_apply(G: ChaosVector, k):
    """Divergence-side operator ``S(G (x) k) = G * Phi(k) - <T(G), k>``.

    Raises the chaos degree by at most one; exact for inputs of degree
    <= N - 1.  Returns the result and the truncation loss.
    """
    k = _direction(G.basis, k)
    prods = [(k[i], *mult_phi(i, G)) for i in range(G.basis.d) if k[i]]
    out = sum((ki * prod for ki, prod, _ in prods), zero_vector(G.basis))
    return out - Tk_apply(G, k), sum(abs(ki) * li for ki, _, li in prods)


#: largest d*B x B complex matrix (t_matrix, phi_matrix) a basis may build
MAX_MATRIX_BYTES = 2**28


def matrix_preflight(d: int, N: int) -> None:
    """Refuse from d and N alone, before any index is enumerated, a basis
    whose d*B x B complex matrices exceed MAX_MATRIX_BYTES."""
    nbytes = 16 * d * math.comb(N + d, d) ** 2 if d > 0 and 0 <= N < 170 else 0
    if nbytes > MAX_MATRIX_BYTES:  # bad d or N are left to ChaosBasis
        size = (f"{nbytes / 2**30:.3g} GiB" if nbytes < 2**1000  # a float
                else f"over 2^{nbytes.bit_length() - 1} bytes")
        raise ChaosError(f"d={d}, N={N} refused: a d*B x B matrix needs "
                         f"{size} (limit 256 MiB)")


def t_matrix(basis: ChaosBasis) -> np.ndarray:
    """Matrix of the derivative in natural coordinates, stacked over slots.

    Row block i holds component i; shape (d * |basis|, |basis|), filled
    in one scatter from the basis' cached lowering ladders.  Read-only,
    cached on the basis (``ChaosBasis.derivative_matrix``).
    """
    matrix_preflight(basis.d, basis.N)
    return basis.derivative_matrix


def phi_matrix(basis: ChaosBasis) -> np.ndarray:
    """(d, |basis|, |basis|) stack of the matrices of ``mult_phi(i, .)``
    (mass past degree N dropped), filled in one scatter along the ladders.
    Read-only, cached on the basis (``ChaosBasis.phi_stack``)."""
    matrix_preflight(basis.d, basis.N)
    return basis.phi_stack


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
    k = _direction(basis, k)
    coeffs = np.array([math.prod(k[i] ** a / math.factorial(a)
                                 for i, a in enumerate(alpha))
                       for alpha in basis.indices], dtype=complex)
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
    slots = [[(c, p) for p, c in enumerate(hermite_coefficients(n)) if c]
             for n in alpha]
    return [(math.prod(c for c, _ in term), tuple(p for _, p in term))
            for term in itertools.product(*slots)]


def chaos_monomials(F: ChaosVector):
    """Monomial form of a chaos vector (real coefficients when F is real)."""
    acc = {}
    c = F.coeffs if F.coeffs.imag.any() else F.coeffs.real
    for pos in np.flatnonzero(c).tolist():
        for mc, exps in F.basis.hermite_terms[pos]:
            acc[exps] = acc.get(exps, 0.0) + c[pos] * mc
    return [(v, e) for e, v in acc.items() if v != 0.0]


def _rank(basis: ChaosBasis, gamma) -> np.ndarray:
    """(degree, lex) positions of the rows of ``gamma`` (degree <= 2N;
    from |basis| on, past N) in the combinatorial number system: degree n
    starts at C(n-1+d, d) and slot i adds C(s_i + r, r) - C(s_{i+1} + r, r)
    tuples smaller there (s_i = |gamma[i:]|, r = d-1-i)."""
    c, d = basis.binom, basis.d
    s = np.cumsum(gamma[:, ::-1], axis=1)[:, ::-1]
    r = np.arange(d - 1, 0, -1)
    pos = c[s[:, 0], d] - c[s[:, 0], d - 1]
    return pos + (c[s[:, :-1], r] - c[s[:, 1:], r]).sum(axis=1)


def _product_terms(basis: ChaosBasis, p: int, cols):
    """Terms of H_p * H_q, q in ``cols``: one per k <= min(p, q) slotwise,
    as (column j of q, multi-index p + q - 2k, prod_i lin[p_i, q_i, k_i])."""
    a, qs = basis.alphas[p], basis.alphas[cols]
    ks = np.indices(tuple(a + 1)).reshape(basis.d, -1).T  # the box k <= p
    col, kk = np.nonzero((ks[None] <= qs[:, None]).all(axis=2))
    q, k = qs[col], ks[kk]
    return col, a + q - 2 * k, basis.linearisation[a, q, k].prod(axis=1)


def product_columns(basis: ChaosBasis, p: int, cols) -> np.ndarray:
    """Columns ``cols`` of the matrix of multiplication by H_p, exact up
    to degree N: column j holds H_p * H_q for q = cols[j]."""
    col, gamma, coef = _product_terms(basis, p, cols)
    keep = gamma.sum(axis=1) <= basis.N
    out = np.zeros((len(basis), len(cols)), dtype=complex)
    out[_rank(basis, gamma[keep]), col[keep]] = coef[keep]
    return out


def multiply(F: ChaosVector, G: ChaosVector):
    """Exact pointwise product F * G, complex F and G included.

    Basis elements multiply slot by slot by the Hermite linearisation
    ``He_m He_n = sum_k k! C(m,k) C(n,k) He_{m+n-2k}``.  Returns the
    product truncated at degree N and ``lost``, the exact weighted norm
    of the part of F * G above degree N (inf past the float range).
    """
    F._same(G)
    basis, cols = F.basis, np.flatnonzero(G.coeffs)
    terms = [(p, *_product_terms(basis, p, cols))
             for p in np.flatnonzero(F.coeffs)]
    gamma = np.concatenate([t[2] for t in terms]
                           or [np.zeros((0, basis.d), dtype=np.intp)])
    vals = np.concatenate([F.coeffs[p] * G.coeffs[cols[j]] * w
                           for p, j, _, w in terms] or [np.zeros(0)])
    pos, first, inv = np.unique(_rank(basis, gamma), return_index=True,
                                return_inverse=True)
    acc = np.zeros(len(pos), dtype=complex)
    np.add.at(acc, inv, vals)
    out, high = np.zeros(len(basis), dtype=complex), pos >= len(basis)
    out[pos[~high]] = acc[~high]
    high &= acc != 0  # a zero times an inf weight (past 170!) is nan
    fact = np.array([math.factorial(n) if n <= 170 else math.inf
                     for n in range(2 * basis.N + 1)], dtype=float)
    with np.errstate(over="ignore"):
        weight = fact[gamma[first[high]]].prod(axis=1)
    return ChaosVector(basis, out), math.sqrt(np.abs(acc[high]) ** 2 @ weight)


def pair_sections(basis: ChaosBasis, max_degree: int | None = None):
    """Orthonormal-coordinate sections of the derivative/divergence pair.

    Domains are restricted so truncation edges never enter: the H1 side
    keeps degrees <= max_degree (default N - 1) and the H2 side keeps
    per-component degrees <= max_degree - 1.  A is cut from ``t_matrix``
    and B from the divergence ``phi_matrix - t_matrix`` (``S_apply`` on
    basis vectors), both rescaled into orthonormal coordinates.  Returns
    (A, B, h1_positions, h2_slots).
    """
    m = basis.N - 1 if max_degree is None else max_degree
    if m < 1:
        raise ChaosError("need max_degree >= 1 for a nontrivial section")
    d, n, sn = basis.d, len(basis), np.sqrt(basis.norms)
    h1 = np.flatnonzero(basis.degrees <= m)
    low = np.flatnonzero(basis.degrees <= m - 1)
    T = t_matrix(basis).reshape(d, n, n)
    A = T[:, low][:, :, h1] * sn[low][:, None] / sn[h1]
    S = (phi_matrix(basis) - T)[:, h1][:, :, low] * sn[h1][:, None] / sn[low]
    h2_slots = [(i, q) for i in range(d) for q in low.tolist()]
    return (A.reshape(-1, len(h1)), S.transpose(1, 0, 2).reshape(len(h1), -1),
            h1.tolist(), h2_slots)
