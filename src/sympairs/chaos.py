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

from .core import CooOperator, Immutable, check_budget, readonly


class ChaosError(ValueError):
    pass


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


class ChaosBasis(Immutable):
    """Immutable multi-indexed Hermite basis of degree <= N in d variables;
    ``alphas`` lists its multi-indices in (degree, lex) order, read-only."""

    __slots__ = ("d", "N", "alphas", "norms", "degrees",
                 "__dict__")  # __dict__ holds the cached properties

    def __init__(self, d: int, N: int):
        if d < 1 or N < 0:
            raise ChaosError("need d >= 1 and N >= 0")
        check_budget(basis_bytes(d, N), f"basis d={d}, N={N}", ChaosError)
        B = math.comb(N + d, d)
        self._fill(d=d, N=N)
        # alpha_j is the j-th gap of d bars in N + d slots, put at its _rank
        bars = np.fromiter(itertools.chain.from_iterable(
            itertools.combinations(range(N + d), d)), np.intp, B * d)
        gaps = np.diff(bars.reshape(B, d), axis=1, prepend=-1) - 1
        alphas = np.empty_like(gaps)
        alphas[_rank(self, gaps)] = gaps
        fact = np.array([math.factorial(n) for n in range(N + 1)], object)
        norms = fact[alphas].prod(axis=1).astype(float)  # exact, rounded once
        self._fill(alphas=alphas, norms=norms, degrees=alphas.sum(axis=1))

    def __len__(self):
        return len(self.alphas)

    def __eq__(self, other):
        return isinstance(other, ChaosBasis) and \
            (self.d, self.N) == (other.d, other.N)

    def __hash__(self):
        return hash((self.d, self.N))

    @cached_property
    def binom(self) -> np.ndarray:
        """``binom[s, r] = C(s + r, r)`` for s <= 2N, r <= d."""
        return readonly(np.array([[math.comb(s + r, r) for r in range(
            self.d + 1)] for s in range(2 * self.N + 1)], dtype=np.int64))

    @cached_property
    def linearisation(self) -> np.ndarray:
        """Per-slot ``lin[m, n, k] = k! C(m,k) C(n,k)`` (0 if k > m or n),
        so ``He_m He_n = sum_k lin[m, n, k] He_{m+n-2k}``; exact integers
        below 2^53, inf from 2^1023 on, the exact value rounded once
        between.  A float product of exact integer factors is exact below
        2^53 and at least 2^53 past it, so only the m that reach 2^53 are
        redone in integers, one m at a time, n >= m by symmetry."""
        N = self.N
        comb = [[math.comb(n, k) for k in range(N + 1)] for n in range(N + 1)]
        fact = [math.factorial(k) for k in range(N + 1)]
        cf = np.array(comb, dtype=float)
        with np.errstate(over="ignore"):
            lin = np.array(fact, dtype=float) * cf[:, None] * cf
        comb, fact = np.array(comb, object), np.array(fact, object)
        for m in np.flatnonzero(lin.max(axis=(1, 2)) >= 2**53):
            exact = fact[:m + 1] * comb[m, :m + 1] * comb[m:, :m + 1]
            over = exact >= 2**1023
            exact[over] = 0
            lin[m, m:, :m + 1] = lin[m:, m, :m + 1] = np.where(
                over, math.inf, exact.astype(float))
        return readonly(lin)

    @cached_property
    def ladders(self) -> Ladders:
        """Read-only ladder index arrays, O(d * |basis|) in size.

        alpha + e_0 lies C(|alpha| + d, d - 1) past alpha in ``_rank``'s
        order.  Raising slot j instead of slot j - 1 adds one to the suffix
        sum at j alone, which moves the rank back by C(s_j + r, r), with
        s_j = |alpha[j:]| and r = d - 1 - j: O(d) work per source."""
        c, d = self.binom, self.d
        src = np.flatnonzero(self.degrees < self.N)
        top = np.flatnonzero(self.degrees == self.N)
        up = np.empty((d, len(src)), dtype=np.intp)
        s = self.degrees[src]
        up[0] = src + c[s + 1, d - 1]
        for j in range(1, d):
            s = s - self.alphas[src, j - 1]
            up[j] = up[j - 1] - c[s, d - 1 - j]
        lad = Ladders(src, up, self.alphas[src].T + 1.0, top,
                      self.norms[top] * (self.alphas[top].T + 1.0))
        for arr in vars(lad).values():
            readonly(arr)
        return lad

    @cached_property
    def number_diagonal(self) -> np.ndarray:
        """Diagonal of ``t_star_matrix @ t_matrix``, read-only: each row of
        T holds one ladder entry, so the product is diagonal, and slot by
        slot, in slot order, ``up`` gains its T* entry times the rank."""
        lad = self.ladders
        return readonly(np.bincount(lad.up.ravel(), minlength=len(self),
                                   weights=(_adjoint_entries(self)
                                            * lad.rank).ravel()))

    @cached_property
    def hermite_terms(self) -> tuple:
        """``hermite_monomials`` of each basis element, by position."""
        return tuple(tuple(hermite_monomials(a)) for a in self.alphas.tolist())

    def unit(self, alpha) -> "ChaosVector":
        """The basis vector H_alpha, for alpha in N^d with |alpha| <= N."""
        a = np.asarray(alpha)
        if a.shape != (self.d,) or a.dtype.kind not in "iu" or \
                not ((0 <= a) & (a <= self.N)).all() or a.sum() > self.N:
            raise ChaosError(f"{alpha!r} is not a multi-index of the "
                             f"d={self.d}, N={self.N} basis")
        coeffs = np.zeros(len(self), dtype=complex)
        coeffs[_rank(self, a[None])[0]] = 1.0
        return ChaosVector(self, coeffs)


def basis_build(d: int, N: int) -> ChaosBasis:
    return ChaosBasis(d, N)


def basis_bytes(d: int, N: int) -> int:
    """Peak bytes of ChaosBasis(d, N) and its ladders: eight int64 (B, d)
    arrays while the alphas are ranked (B = C(N + d, d)); the ladders take
    fewer, three (B, d) arrays' worth.  N >= 170 is refused first, so
    k < 170 in every binomial here and in ``term_count``."""
    if N >= 170:
        raise ChaosError("N >= 170 refused: (N+1)! overflows a float")
    return 64 * d * math.comb(N + d, d)


def term_count(d: int, N: int) -> int:
    """Number of terms ``product_terms`` yields for the Eq 3.14 pairs,
    deg p + deg q <= N - 1: a pair contributes prod_i (min(p_i, q_i) + 1),
    whose series per slot is 1 / ((1 - x)^3 (1 + x)), so the count is the
    x^(N-1) coefficient of 1 / ((1 - x)^(3d + 1) (1 + x)^d); O(N) work."""
    return sum((-1) ** j * math.comb(d - 1 + j, j)
               * math.comb(3 * d + N - 1 - j, 3 * d) for j in range(N))


class ChaosVector(Immutable):
    """Coefficient vector over a chaos basis (an element of H1 truncated);
    immutable, and ``coeffs`` is a read-only copy of the array given."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis: ChaosBasis, coeffs):
        c = np.array(coeffs, dtype=complex)
        if c.shape != (len(basis),):
            raise ChaosError("coefficient length does not match basis")
        self._fill(basis=basis, coeffs=c)

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


def t_matrix(basis: ChaosBasis) -> np.ndarray:
    """Matrix of the derivative in natural coordinates, stacked over slots.

    Row block i holds component i; shape (d * |basis|, |basis|), filled
    in one scatter from the basis' cached lowering ladders.  A dense form
    for tests and oracles: ``suite_malliavin`` reads the ladders instead.
    """
    B, lad = len(basis), basis.ladders
    check_budget(16 * basis.d * B * B, f"d={basis.d}, N={basis.N} matrix",
                 ChaosError)
    M = np.zeros((basis.d * B, B), dtype=complex)
    M[np.arange(basis.d)[:, None] * B + lad.src, lad.up] = lad.rank
    return M


def phi_matrix(basis: ChaosBasis) -> np.ndarray:
    """(d, |basis|, |basis|) stack of the matrices of ``mult_phi(i, .)``
    (mass past degree N dropped), filled in one scatter along the ladders.
    A dense form for tests and oracles, like ``t_matrix``."""
    check_budget(16 * basis.d * len(basis) ** 2,
                 f"d={basis.d}, N={basis.N} matrix", ChaosError)
    lad, slot = basis.ladders, np.arange(basis.d)[:, None]
    X = np.zeros((basis.d, len(basis), len(basis)), dtype=complex)
    X[slot, lad.up, lad.src] = 1.0
    X[slot, lad.src, lad.up] = lad.rank
    return X


def t_star_matrix(basis: ChaosBasis) -> np.ndarray:
    """Weighted-norm adjoint of the derivative section, H2 -> H1."""
    M = t_matrix(basis)
    norms1 = basis.norms
    norms2 = np.tile(norms1, basis.d)
    return (1.0 / norms1)[:, None] * (M.conj().T * norms2[None, :])


def _adjoint_entries(basis: ChaosBasis) -> np.ndarray:
    """(d, sources) entries of T*: slot i raises ``src[j]`` to ``up[i, j]``
    with weight ``rank n_src / n_up`` (n the H1 weights), in
    ``t_star_matrix``'s order of operations."""
    lad, n = basis.ladders, basis.norms
    return (1.0 / n[lad.up]) * (lad.rank * n[lad.src])


def number_operator(F: ChaosVector) -> ChaosVector:
    """Apply the weighted-adjoint composition of the derivative with itself.

    Acts as multiplication of each chaos level n by n; the composition is
    diagonal, built once per basis (``ChaosBasis.number_diagonal``).
    """
    return ChaosVector(F.basis, F.basis.number_diagonal * F.coeffs)


def ibp_residual(basis: ChaosBasis) -> float:
    """Worst ``|<T_i H_p, 1> - <H_p, Phi_i 1>|`` (Eq 3.11) over slots i and
    deg p <= N - 1.  T_i H_p reaches the constant only from p = e_i, the
    constant's raise ``up[i, 0]``, which is also Phi_i 1; both sides vanish
    at every other p."""
    lad, n = basis.ladders, basis.norms
    return float(abs(lad.rank[:, 0] * n[lad.src[0]] - n[lad.up[:, 0]]).max())


def mult_split_residual(basis: ChaosBasis) -> float:
    """Worst entry of ``T_i + T_i* - Phi_i`` (Cor 3.14) on sources of degree
    <= N - 1.  The lowering halves of T_i and Phi_i are the same ladder
    entries and cancel exactly; the raising half leaves ``T* entry - 1``."""
    return float(abs(_adjoint_entries(basis) - 1.0).max())


def kernel_dimension(basis: ChaosBasis) -> int:
    """dim ker T (Cor 3.18).  Each row of T holds one ladder entry, so the
    columns have disjoint supports and are orthogonal: the kernel is spanned
    by the units of the columns no ladder entry reaches."""
    hits = np.bincount(basis.ladders.up.ravel(), minlength=len(basis))
    return int(np.count_nonzero(hits == 0))


def exp_vector(k, basis: ChaosBasis):
    """Truncated normalized Gaussian exponential of Phi(k).

    The coefficient of H_alpha is ``prod_i k_i^{alpha_i} / alpha_i!``;
    the weighted inner product of two such vectors approximates
    ``exp(<k1, k2>)``.  Returns the vector and a bound on the squared
    norm of the discarded tail (a warning-level quantity, not fatal).
    """
    k = _direction(basis, k)
    pw = np.array([[k[i] ** a / math.factorial(a) for a in range(basis.N + 1)]
                   for i in range(basis.d)])
    slots = pw[np.arange(basis.d), basis.alphas]  # (|basis|, d)
    coeffs = slots[:, 0].copy()
    for i in range(1, basis.d):  # slot by slot, in slot order
        coeffs *= slots[:, i]
    return ChaosVector(basis, coeffs), exp_tail(float(k @ k), basis.N)


def exp_tail(x: float, N: int) -> float:
    """``exp(x) - sum_{n <= N} x^n / n!`` for x >= 0, summed forward from
    n = N + 1: the difference itself cancels to 0.0 once the tail is below
    the float spacing of exp(x).  Past n = 2x each term is at most half
    the one before, so what is left after a term below 2^-60 of the sum
    is below it too.  inf once the tail passes the float range (x above
    about 709.78)."""
    terms, n = [], N + 1
    try:
        while True:
            terms.append(_exp_term(x, n))
            if n >= 2 * x and terms[-1] <= 2**-60 * math.fsum(terms):
                return math.fsum(terms)
            n += 1
    except OverflowError:  # a term, or the sum, is past the float range
        return math.inf


def _exp_term(x: float, n: int) -> float:
    """``x^n / n!``; once x^n or n! pass the float range, as one correctly
    rounded quotient of exact integers (x = p / q)."""
    try:
        return x**n / math.factorial(n)
    except OverflowError:
        p, q = x.as_integer_ratio()
        return p**n / (q**n * math.factorial(n))


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


def product_terms(basis: ChaosBasis, P, Q):
    """Terms of H_p * H_q for all pairs (p, q) = (P[t], Q[t]), one per k <=
    min(p, q) slotwise in (pair, k lex) order: (t, p, q, gamma = p + q -
    2k, w = prod_i lin[p_i, q_i, k_i]), the slot arrays (terms, d) with
    contiguous columns; O(terms) memory, no masks."""
    a, b = basis.alphas.T.take(P, axis=1), basis.alphas.T.take(Q, axis=1)
    box = np.minimum(a, b) + 1
    count = box.prod(axis=0)
    t = np.repeat(np.arange(len(count)), count)
    r = np.arange(len(t)) - np.repeat(np.cumsum(count) - count, count)
    k = np.empty((basis.d, len(t)), dtype=np.intp)
    for i in range(basis.d - 1, -1, -1):  # the last slot is the fastest digit
        r, k[i] = np.divmod(r, box[i].take(t))
    a, b = a.take(t, axis=1), b.take(t, axis=1)
    n1 = basis.N + 1
    w = basis.linearisation.ravel().take((a * n1 + b) * n1 + k).T.prod(axis=1)
    k *= -2  # gamma in place of k
    k += a
    k += b
    return t, a.T, b.T, k.T, w


def _leibniz_defects(basis: ChaosBasis, a, b, gamma, w):
    """Per slot, the terms' R of ``derivation_residual``, 0.0 within their
    bound.  c_i is a running prefix times a suffix product: exact in any
    order at every admitted size (for d >= 4 all weights are integers
    below 2^53; for d <= 3 c_i has at most two factors)."""
    d, n1, lin = basis.d, basis.N + 1, basis.linearisation.ravel()
    bound = (d + 2) * np.finfo(float).eps
    # flat[i]: where each term's lin[p_i, q_i, k_i] lies in the table
    flat = [(p * n1 + q) * n1 + (p + q - g) // 2
            for p, q, g in zip(a.T, b.T, gamma.T)]
    suffix = [1.0]  # suffix[j]: product of the factors of the last j slots
    for f in flat[:0:-1]:
        suffix.append(lin.take(f) * suffix[-1])
    prefix = 1.0
    for i, (p, q, f) in enumerate(zip(a.T, b.T, flat)):
        c = prefix * suffix[d - 1 - i]
        gw = gamma[:, i] * w
        x = q * lin.take(f - np.minimum(q, 1) * n1)
        y = p * lin.take(f - np.minimum(p, 1) * n1 * n1)
        R = gw - c * (x + y)
        if R.any():  # exact weights leave R = 0: no scale to form
            R[abs(R) <= bound * (abs(gw) + abs(c) * (abs(x) + abs(y)))] = 0.0
        yield R
        prefix = prefix * lin.take(f)


def derivation_residual(basis: ChaosBasis) -> float:
    """Worst weighted norm of ``T_i(H_p H_q) - q_i H_p H_{q-e_i} - p_i
    H_{p-e_i} H_q`` (Eq 3.14) over slots i and deg p + deg q <= N - 1.
    Weights factorise by slot, so at gamma - e_i term (p, q, k) of
    ``product_terms`` leaves ``gamma_i w - c_i (q_i lin[p_i, q_i - 1, k_i]
    + p_i lin[p_i - 1, q_i, k_i])``, c_i = prod_{j != i} lin[p_j, q_j, k_j]
    (an index -1 is read as 0: its factor q_i or p_i is 0).

    Past 2^53 the weights are rounded and need not cancel exactly.  Each
    term has one output position, so a term counts only if its |R|
    exceeds (d + 2) eps times its own backward-error scale |gamma_i w| +
    |c_i q_i lin| + |c_i p_i lin|; (d + 2) eps bounds, to first order,
    the rounding of the factors and sums behind it.  A term within that
    bound adds 0.0, so a passing table takes one pass and places no term;
    otherwise the terms are ranked after that pass and a second one weighs
    the slots with survivors.  A norm past the float range reads as inf,
    and a nan or inf table entry as nan or inf."""
    room = basis.N - 1 - basis.degrees[basis.degrees < basis.N]
    width = basis.binom[room, basis.d]  # the q of p: a prefix of the basis
    P = np.repeat(np.arange(len(width)), width)
    Q = np.arange(len(P)) - np.repeat(np.cumsum(width) - width, width)
    worst, lad = 0.0, basis.ladders
    with np.errstate(over="ignore", invalid="ignore"):
        t, a, b, gamma, w = product_terms(basis, P, Q)
        del P, Q
        if not any(R.any() for R in _leibniz_defects(basis, a, b, gamma, w)):
            return 0.0
        pos = _rank(basis, gamma)
        for i, R in enumerate(_leibniz_defects(basis, a, b, gamma, w)):
            if R.any():  # the norm of each term's gamma - e_i
                down = np.zeros(len(basis), dtype=np.intp)
                down[lad.up[i]] = lad.src
                col = np.bincount(t, weights=basis.norms[down[pos]] * R ** 2)
                worst = np.maximum(worst, col.max())  # nan propagates
    return math.sqrt(worst)


def multiply(F: ChaosVector, G: ChaosVector):
    """Exact pointwise product F * G, complex F and G included.

    Basis elements multiply slot by slot by the Hermite linearisation
    ``He_m He_n = sum_k k! C(m,k) C(n,k) He_{m+n-2k}``.  Returns the
    product truncated at degree N and ``lost``, the exact weighted norm
    of the part of F * G above degree N (inf past the float range).
    """
    F._same(G)
    basis, p, q = F.basis, np.flatnonzero(F.coeffs), np.flatnonzero(G.coeffs)
    P, Q = np.repeat(p, len(q)), np.tile(q, len(p))
    t, _, _, gamma, w = product_terms(basis, P, Q)
    vals = F.coeffs[P[t]] * G.coeffs[Q[t]] * w
    pos, first, inv = np.unique(_rank(basis, gamma), return_index=True,
                                return_inverse=True)
    acc = np.zeros(len(pos), dtype=complex)
    np.add.at(acc, inv, vals)
    out, high = np.zeros(len(basis), dtype=complex), pos >= len(basis)
    out[pos[~high]] = acc[~high]
    high &= acc != 0  # a zero times an inf weight (past 170!) is nan
    fact = np.array([math.factorial(n) if n <= 170 else math.inf
                     for n in range(2 * basis.N + 1)], dtype=float)
    with np.errstate(over="ignore"):  # lost is inf past the float range
        weight = fact[gamma[first[high]]].prod(axis=1)
        lost = math.sqrt(np.abs(acc[high]) ** 2 @ weight)
    return ChaosVector(basis, out), lost


def pair_sections(basis: ChaosBasis):
    """Orthonormal-coordinate sections of the derivative/divergence pair.

    Domains are restricted so truncation edges never enter: the H1 side
    keeps degrees <= N - 1 and the H2 side keeps per-component degrees
    <= N - 2, both prefixes of the basis.  A holds the lowering ladder
    entries (``t_matrix``) and B the raising ones (the divergence
    ``phi_matrix - t_matrix``, ``S_apply`` on basis vectors, whose lowering
    halves cancel), both rescaled into orthonormal coordinates.  Returns
    (A, B) as CooOperators straight from the ladders: one entry per row of
    A, slot i and source j at row i n2 + j, and per column of B.
    """
    if basis.N < 2:
        raise ChaosError("need N >= 2 for a nontrivial section")
    d, sn, lad = basis.d, np.sqrt(basis.norms), basis.ladders
    n1, n2 = basis.binom[basis.N - 1, d], basis.binom[basis.N - 2, d]
    src, up = lad.src[:n2], lad.up[:, :n2]
    h2 = np.arange(d)[:, None] * n2 + src
    A = CooOperator(h2, up, lad.rank[:, :n2].astype(complex)
                    * sn[src] / sn[up], (d * n2, n1))
    B = CooOperator(up, h2, np.ones(up.shape, dtype=complex)
                    * sn[up] / sn[src], (n1, d * n2))
    return A, B
