import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympairs import chaos
from sympairs.chaos import (
    ChaosError,
    ChaosField,
    ChaosVector,
    S_apply,
    T_apply,
    Tk_apply,
    basis_build,
    chaos_monomials,
    exp_vector,
    gaussian_expectation,
    h1_inner,
    h2_inner,
    hermite_coefficients,
    mult_phi,
    multiply,
    number_operator,
    pair_sections,
    phi_matrix,
    product_columns,
    t_matrix,
    t_star_matrix,
    zero_vector,
)


def mult_phi_loop(i, F):
    """Reference oracle: mult_phi as a plain loop over basis coefficients."""
    basis = F.basis
    out = np.zeros(len(basis), dtype=complex)
    lost_sq = 0.0
    for pos, alpha in enumerate(basis.indices):
        c = F.coeffs[pos]
        if c == 0:
            continue
        up = list(alpha)
        up[i] += 1
        up = tuple(up)
        if sum(up) <= basis.N:
            out[basis.index_map[up]] += c
        else:
            lost_sq += abs(c) ** 2 * math.prod(math.factorial(k) for k in up)
        if alpha[i] > 0:
            down = list(alpha)
            down[i] -= 1
            out[basis.index_map[tuple(down)]] += alpha[i] * c
    return out, math.sqrt(lost_sq)


def T_apply_loop(F):
    """Reference oracle: T_apply as a plain loop over basis coefficients."""
    basis = F.basis
    comps = []
    for i in range(basis.d):
        out = np.zeros(len(basis), dtype=complex)
        for pos, alpha in enumerate(basis.indices):
            c = F.coeffs[pos]
            if c == 0 or alpha[i] == 0:
                continue
            down = list(alpha)
            down[i] -= 1
            out[basis.index_map[tuple(down)]] += alpha[i] * c
        comps.append(out)
    return comps


def multiply_monomial(F, G):
    """Reference oracle: F * G by iterated multiplication by coordinates.

    F is expanded into monomials and each power of a coordinate is
    applied to G through ``mult_phi``.  Every intermediate step drops
    what passes degree N, so it is exact only when deg F + deg G <= N.
    """
    out = zero_vector(F.basis)
    for coeff, exps in chaos_monomials(F):
        term = G
        for i, p in enumerate(exps):
            for _ in range(p):
                term, _ = mult_phi(i, term)
        out = out + coeff * term
    return out


def embed(F, basis):
    """F as a vector of a larger basis over the same d."""
    c = np.zeros(len(basis), dtype=complex)
    c[:len(F.basis)] = F.coeffs  # the (degree, lex) order is nested in N
    return ChaosVector(basis, c)


def leibniz_loop_residual(basis, product):
    """Reference oracle: the Eq 3.14 residual as a loop over basis pairs."""
    worst = 0.0
    sub = [p for p in range(len(basis)) if basis.degrees[p] <= basis.N - 1]
    for p in sub:
        for q in sub:
            if basis.degrees[p] + basis.degrees[q] > basis.N - 1:
                continue
            H, K = basis.unit(basis.indices[p]), basis.unit(basis.indices[q])
            lhs = T_apply(product(H, K))
            th, tk = T_apply(H), T_apply(K)
            for i in range(basis.d):
                diff = (lhs.components[i] - product(K, th.components[i])
                        - product(H, tk.components[i]))
                worst = max(worst, abs(h1_inner(diff, diff)) ** 0.5)
    return worst


LADDER_SIZES = ((1, 8), (2, 6), (3, 5), (4, 4))
PRODUCT_SIZES = ((1, 8), (2, 6), (3, 5))


def random_vector(basis, rng):
    # full support, so the degree-N coefficients feed the truncation loss
    n = len(basis)
    return ChaosVector(basis, rng.normal(size=n) + 1j * rng.normal(size=n))


def poly_product(p, q):
    acc = {}
    for c1, e1 in p:
        for c2, e2 in q:
            e = tuple(a + b for a, b in zip(e1, e2))
            acc[e] = acc.get(e, 0.0) + c1 * c2
    return [(c, e) for e, c in acc.items()]


def test_basis_examples():
    b = basis_build(1, 2)
    assert b.indices == ((0,), (1,), (2,))
    assert np.array_equal(b.norms, [1.0, 1.0, 2.0])
    b = basis_build(2, 1)
    assert b.indices == ((0, 0), (0, 1), (1, 0))
    assert len(basis_build(3, 4)) == 35


def test_basis_validation():
    with pytest.raises(ChaosError):
        basis_build(0, 3)
    with pytest.raises(ChaosError):
        basis_build(30, 30)
    # (N+1)! overflows a float from N = 170 on
    with pytest.raises(ChaosError, match="N >= 170"):
        basis_build(1, 170)


@pytest.mark.parametrize("d,N", LADDER_SIZES)
def test_mult_phi_matches_loop_oracle(d, N):
    b = basis_build(d, N)
    rng = np.random.default_rng(100 * d + N)
    for _ in range(3):
        F = random_vector(b, rng)
        for i in range(d):
            out, lost = mult_phi(i, F)
            ref, ref_lost = mult_phi_loop(i, F)
            assert np.array_equal(out.coeffs, ref)
            assert ref_lost > 0.0
            assert abs(lost - ref_lost) <= 1e-12 * ref_lost


@pytest.mark.parametrize("d,N", LADDER_SIZES)
def test_T_apply_and_t_matrix_match_loop_oracle(d, N):
    b = basis_build(d, N)
    rng = np.random.default_rng(100 * d + N)
    F = random_vector(b, rng)
    ref = T_apply_loop(F)
    for comp, want in zip(T_apply(F).components, ref):
        assert np.array_equal(comp.coeffs, want)
    cols = [np.concatenate(T_apply_loop(b.unit(a))) for a in b.indices]
    assert np.array_equal(t_matrix(b), np.column_stack(cols))


def test_ladders_are_lazy_and_kept():
    b = basis_build(3, 4)
    assert "ladders" not in vars(b)
    mult_phi(0, b.unit((0, 0, 0)))
    lad = vars(b)["ladders"]
    T_apply(b.unit((1, 0, 0)))
    t_matrix(b)
    assert b.ladders is lad
    for arr in vars(lad).values():
        assert not arr.flags.writeable


def test_number_matrix_cached_per_basis():
    b = basis_build(2, 4)
    assert "number_matrix" not in vars(b)
    number_operator(b.unit((1, 0)))
    M = b.number_matrix
    assert M is vars(b)["number_matrix"] and not M.flags.writeable
    assert np.array_equal(M, t_star_matrix(b) @ t_matrix(b))
    assert basis_build(2, 4).number_matrix is not M


def test_h1_inner_is_weighted():
    b = basis_build(1, 4)
    H3 = b.unit((3,))
    assert h1_inner(H3, H3) == 6.0
    assert h1_inner(b.unit((2,)), H3) == 0.0


def test_mult_phi_examples():
    b = basis_build(1, 3)
    one = b.unit((0,))
    out, lost = mult_phi(0, one)
    assert lost == 0.0
    assert np.array_equal(out.coeffs, b.unit((1,)).coeffs)
    # x * He_1 = He_2 + He_0
    out, _ = mult_phi(0, b.unit((1,)))
    assert np.array_equal(out.coeffs, (b.unit((2,)) + b.unit((0,))).coeffs)
    # x * He_2 = He_3 + 2 He_1
    out, _ = mult_phi(0, b.unit((2,)))
    expect = b.unit((3,)) + 2.0 * b.unit((1,))
    assert np.array_equal(out.coeffs, expect.coeffs)


def test_mult_phi_truncation_loss():
    b = basis_build(1, 2)
    out, lost = mult_phi(0, b.unit((2,)))
    # He_3 dropped: weighted norm sqrt(3!) reported
    assert abs(lost - math.sqrt(6.0)) < 1e-12
    assert np.array_equal(out.coeffs, (2.0 * b.unit((1,))).coeffs)


def test_gaussian_expectation_examples():
    assert gaussian_expectation([(1.0, (1,))], [[1.0]]) == 0.0
    G = [[1.0, 0.3], [0.3, 1.0]]
    assert abs(gaussian_expectation([(1.0, (1, 1))], G) - 0.3) < 1e-15
    assert gaussian_expectation([(1.0, (4,))], [[1.0]]) == 3.0
    # sixth moment (5!! = 15) through the same recursion
    assert gaussian_expectation([(1.0, (6,))], [[1.0]]) == 15.0


def test_gaussian_expectation_validation():
    with pytest.raises(ChaosError):
        gaussian_expectation([(1.0, (1, 0))], [[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ChaosError):
        gaussian_expectation([(1.0, (22,))], [[1.0]])


def test_hermite_coefficients():
    assert hermite_coefficients(2) == [-1.0, 0.0, 1.0]
    assert hermite_coefficients(3) == [0.0, -3.0, 0.0, 1.0]


def test_hermite_orthogonality_via_oracle():
    # the Wick oracle reproduces the factorial norms of the basis
    b = basis_build(1, 5)
    for m in range(6):
        for n in range(6):
            p = poly_product(
                chaos_monomials(b.unit((m,))), chaos_monomials(b.unit((n,)))
            )
            val = gaussian_expectation(p, [[1.0]])
            expect = math.factorial(n) if m == n else 0.0
            assert abs(val - expect) < 1e-9


def test_T_apply_examples():
    b = basis_build(2, 3)
    fld = T_apply(b.unit((0, 0)))
    for comp in fld.components:
        assert not np.any(comp.coeffs)
    # x^2 in slot 0 is He_2 + He_0; derivative is 2 Phi(e_0)
    F = b.unit((2, 0)) + b.unit((0, 0))
    fld = T_apply(F)
    assert np.array_equal(fld.components[0].coeffs,
                          (2.0 * b.unit((1, 0))).coeffs)
    assert not np.any(fld.components[1].coeffs)


def test_T_apply_against_ibp_oracle():
    # <T(H_a), 1 (x) e_i> equals E[H_a * x_i] for all |a| <= 4
    b = basis_build(2, 4)
    G = np.eye(2)
    for alpha in b.indices:
        F = b.unit(alpha)
        fld = T_apply(F)
        for i in range(2):
            ones, _ = exp_vector(np.zeros(2), b)
            lhs = h1_inner(fld.components[i], ones).real
            exps = tuple(1 if j == i else 0 for j in range(2))
            rhs = gaussian_expectation(
                poly_product(chaos_monomials(F), [(1.0, exps)]), G
            )
            assert abs(lhs - rhs) < 1e-10


def test_S_apply_examples():
    b = basis_build(1, 4)
    out, lost = S_apply(b.unit((0,)), [1.0])
    assert np.array_equal(out.coeffs, b.unit((1,)).coeffs)
    out, _ = S_apply(b.unit((1,)), [1.0])
    assert np.array_equal(out.coeffs, b.unit((2,)).coeffs)
    for n in range(4):
        out, _ = S_apply(b.unit((n,)), [1.0])
        assert np.array_equal(out.coeffs, b.unit((n + 1,)).coeffs)


def test_Tk_apply_examples():
    b = basis_build(2, 3)
    out = Tk_apply(b.unit((1, 0)), [1.0, 0.0])
    assert np.array_equal(out.coeffs, b.unit((0, 0)).coeffs)
    out = Tk_apply(b.unit((1, 0)), [0.0, 1.0])
    assert not np.any(out.coeffs)
    b1 = basis_build(1, 3)
    out = Tk_apply(b1.unit((2,)), [1.0])
    assert np.array_equal(out.coeffs, (2.0 * b1.unit((1,))).coeffs)


def test_number_operator_examples():
    b = basis_build(2, 5)
    out = number_operator(b.unit((0, 0)))
    assert np.max(np.abs(out.coeffs)) < 1e-12
    for alpha in b.indices:
        if sum(alpha) > b.N - 1:
            continue
        F = b.unit(alpha)
        out = number_operator(F)
        assert np.max(np.abs(out.coeffs - sum(alpha) * F.coeffs)) < 1e-10


def test_t_star_is_weighted_adjoint():
    b = basis_build(2, 4)
    T = t_matrix(b)
    Ts = t_star_matrix(b)
    norms1 = b.norms
    norms2 = np.tile(norms1, b.d)
    # <T F, G>_2 = <F, T* G>_1 over all basis pairs
    lhs = T.conj().T * norms2[None, :]
    rhs = norms1[:, None] * Ts
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_exp_vector_examples():
    b = basis_build(1, 10)
    e0, tail = exp_vector([0.0], b)
    assert np.array_equal(e0.coeffs, b.unit((0,)).coeffs)
    assert tail == 0.0
    ek, _ = exp_vector([0.5], b)
    val = h1_inner(ek, ek).real
    assert abs(val - math.exp(0.25)) < 1e-9


def test_exp_vector_grid_gram_nonsingular():
    b = basis_build(1, 10)
    grid = [-0.4, -0.1, 0.2, 0.5]
    vecs = [exp_vector([k], b)[0] for k in grid]
    G = np.array([[h1_inner(u, v).real for v in vecs] for u in vecs])
    assert np.min(np.linalg.eigvalsh(G)) > 1e-6


def test_multiply_matches_hermite_product():
    # He_1 * He_1 = He_2 + He_0
    b = basis_build(1, 4)
    out, lost = multiply(b.unit((1,)), b.unit((1,)))
    assert lost == 0.0
    expect = b.unit((2,)) + b.unit((0,))
    assert np.max(np.abs(out.coeffs - expect.coeffs)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PRODUCT_SIZES), st.integers(0, 8),
       st.integers(0, 2**32 - 1))
def test_multiply_matches_monomial_oracle(size, split, seed):
    # real F of degree <= a and G of degree <= N - a: the oracle is exact
    d, N = size
    a = min(split, N)
    b = basis_build(d, N)
    rng = np.random.default_rng(seed)
    F = ChaosVector(b, rng.normal(size=len(b)) * (b.degrees <= a))
    G = ChaosVector(b, rng.normal(size=len(b)) * (b.degrees <= N - a))
    out, lost = multiply(F, G)
    ref = multiply_monomial(F, G)
    assert lost == 0.0
    assert np.max(np.abs(out.coeffs - ref.coeffs)) <= \
        1e-10 * max(1.0, np.max(np.abs(ref.coeffs)))


@pytest.mark.parametrize("d,N", PRODUCT_SIZES)
def test_multiply_truncation_and_lost_against_double_degree_oracle(d, N):
    # full support: in the degree-2N basis nothing is truncated, so the
    # oracle gives the whole product; lost is its weighted norm past N
    b, big = basis_build(d, N), basis_build(d, 2 * N)
    rng = np.random.default_rng(7 * d + N)
    F = ChaosVector(b, rng.normal(size=len(b)))
    G = ChaosVector(b, rng.normal(size=len(b)))
    out, lost = multiply(F, G)
    ref = multiply_monomial(embed(F, big), embed(G, big)).coeffs
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(out.coeffs - ref[:len(b)])) <= 1e-10 * scale
    tail = ref[len(b):]
    want = math.sqrt(np.sum(np.abs(tail) ** 2 * big.norms[len(b):]))
    assert lost > 0.0 and abs(lost - want) <= 1e-10 * want
    for p in (0, 1, len(b) - 1):
        cols = product_columns(b, p, np.arange(len(b)))
        for q in range(len(b)):
            ref = multiply_monomial(big.unit(b.indices[p]),
                                    big.unit(b.indices[q])).coeffs
            assert np.array_equal(cols[:, q], ref[:len(b)])


def test_multiply_complex_scalar_either_side():
    # the monomial route read F.coeffs.real, so 1j*H_1 times 1 gave 0
    b = basis_build(1, 4)
    H1, one = b.unit((1,)), b.unit((0,))
    for F, G in ((1j * H1, one), (one, 1j * H1)):
        out, lost = multiply(F, G)
        assert np.array_equal(out.coeffs, (1j * H1).coeffs) and lost == 0.0


@pytest.mark.parametrize("d,N", PRODUCT_SIZES)
def test_multiply_commutes_on_complex_vectors(d, N):
    b = basis_build(d, N)
    rng = np.random.default_rng(d + 10 * N)
    for _ in range(3):
        F, G = random_vector(b, rng), random_vector(b, rng)
        fg, lost_fg = multiply(F, G)
        gf, lost_gf = multiply(G, F)
        scale = np.max(np.abs(fg.coeffs))
        assert np.max(np.abs(fg.coeffs - gf.coeffs)) <= 1e-12 * scale
        assert abs(lost_fg - lost_gf) <= 1e-12 * lost_fg


def test_triple_moments_against_wick_oracle():
    # <H_a H_b, H_c> = E[H_a H_b H_c]; truncation never touches degree <= N
    b = basis_build(2, 3)
    G = np.eye(2)
    for x in b.indices:
        for y in b.indices:
            prod, _ = multiply(b.unit(x), b.unit(y))
            pxy = poly_product(chaos_monomials(b.unit(x)),
                               chaos_monomials(b.unit(y)))
            for z in b.indices:
                want = gaussian_expectation(
                    poly_product(pxy, chaos_monomials(b.unit(z))), G)
                assert abs(h1_inner(b.unit(z), prod) - want) < 1e-9
    # complex coefficients reach the oracle through chaos_monomials
    rng = np.random.default_rng(5)
    F, K = random_vector(b, rng), random_vector(b, rng)
    prod, _ = multiply(F, K)
    pfk = poly_product(chaos_monomials(F), chaos_monomials(K))
    for z in b.indices:
        want = gaussian_expectation(
            poly_product(pfk, chaos_monomials(b.unit(z))), G)
        assert abs(h1_inner(b.unit(z), prod) - want) < 1e-9


def test_chaos_monomials_keep_imaginary_parts():
    b = basis_build(1, 2)
    assert chaos_monomials(1j * b.unit((1,))) == [(1j, (1,))]
    assert chaos_monomials(b.unit((2,))) == [(-1.0, (0,)), (1.0, (2,))]


def test_rank_matches_index_map():
    # ranks past degree N follow the same order: check them on the
    # degree-2N basis, whose first |basis| indices are the basis itself
    for d in range(1, 6):
        for N in range(0, 8):
            b, big = basis_build(d, N), basis_build(d, 2 * N)
            assert np.array_equal(chaos._rank(b, big.alphas),
                                  np.arange(len(big)))
            assert [b.index_map[a] for a in b.indices] == list(range(len(b)))


def test_linearisation_table_is_lazy_and_exact():
    b = basis_build(2, 6)
    assert "linearisation" not in vars(b)
    multiply(b.unit((1, 0)), b.unit((1, 0)))
    lin = vars(b)["linearisation"]
    assert not lin.flags.writeable and lin.shape == (7, 7, 7)
    for m in range(7):
        for n in range(7):
            for k in range(7):
                want = math.factorial(k) * math.comb(m, k) * math.comb(n, k)
                assert lin[m, n, k] == want


def test_phi_matrix_columns_are_mult_phi():
    b = basis_build(3, 4)
    X = phi_matrix(b)
    for i in range(3):
        for p, a in enumerate(b.indices):
            assert np.array_equal(X[i][:, p], mult_phi(i, b.unit(a))[0].coeffs)


def test_matrix_preflight_refuses_before_allocating(monkeypatch):
    # d=3, N=100: C(103, 3) = 176,851 passes the basis guard, but one
    # derivative matrix would take 1.5 TB; nothing may be built first
    def refuse(*args):
        raise AssertionError("basis built before the byte check")

    monkeypatch.setattr(chaos, "basis_build", refuse)
    monkeypatch.setattr(chaos, "_enumerate_indices", refuse)
    with pytest.raises(ChaosError, match="GiB"):
        t_matrix(SimpleNamespace(d=3, N=100))
    from sympairs.suites import suite_malliavin

    with pytest.raises(ChaosError, match="refused"):
        suite_malliavin(3, 100)


@pytest.mark.parametrize("d,N", ((1, 6), (2, 5), (3, 4)))
def test_derivation_identity_matches_leibniz_loop(d, N):
    from sympairs.suites import suite_malliavin

    rec = next(r for r in suite_malliavin(d, N)
               if r.check == "derivation_identity")
    assert rec.passed
    assert rec.residual == leibniz_loop_residual(basis_build(d, N),
                                                 multiply_monomial) == 0.0


def test_each_linearisation_level_obeys_leibniz(monkeypatch):
    # T(He_{m+n-2k}) matches both Leibniz terms level by level, so Eq 3.14
    # cannot see a dropped or rescaled level (k = 0 alone is the Wick
    # product); the product itself is pinned by the oracle tests above
    from sympairs.suites import suite_malliavin

    real = chaos.basis_build

    def drop_level_0(d, N):
        b = real(d, N)
        lin = b.linearisation.copy()
        lin[:, :, 0] = 0.0
        vars(b)["linearisation"] = lin
        return b

    monkeypatch.setattr(chaos, "basis_build", drop_level_0)
    rec = next(r for r in suite_malliavin(2, 5)
               if r.check == "derivation_identity")
    assert rec.passed and rec.residual == 0.0


@pytest.mark.parametrize("d,N", ((1, 6), (2, 5)))
def test_derivation_identity_fails_on_wrong_product(monkeypatch, d, N):
    # level k = 1 off by one (mn + 1 for mn) breaks the Leibniz rule; the
    # table stays symmetric, so the loop's product(K, T_i H) and the
    # matrix form's M_{p - e_i} see the same wrong product
    from sympairs.suites import suite_malliavin

    real = chaos.basis_build

    def wrong_basis(d, N):
        b = real(d, N)
        lin = b.linearisation.copy()
        lin[:, :, 1] += lin[:, :, 1] > 0
        vars(b)["linearisation"] = lin
        return b

    monkeypatch.setattr(chaos, "basis_build", wrong_basis)
    recs = {r.check: r for r in suite_malliavin(d, N)}
    rec = recs["derivation_identity"]
    assert not rec.passed and rec.residual > 1.0
    loop = leibniz_loop_residual(wrong_basis(d, N),
                                 lambda F, G: multiply(F, G)[0])
    assert abs(rec.residual - loop) <= 1e-12 * loop
    # the other identities do not use the product
    assert all(r.passed for c, r in recs.items() if c != "derivation_identity")


def test_derivation_identity_small():
    b = basis_build(2, 5)
    H = b.unit((1, 1))
    K = b.unit((2, 0))
    prod, _ = multiply(H, K)
    lhs = T_apply(prod)
    th, tk = T_apply(H), T_apply(K)
    for i in range(2):
        a, _ = multiply(K, th.components[i])
        c, _ = multiply(H, tk.components[i])
        diff = lhs.components[i] - a - c
        assert np.max(np.abs(diff.coeffs)) < 1e-10


def test_pair_sections_residual_zero():
    from sympairs.pairs import SymmetricPairSpec, check_pair
    from sympairs.core import OperatorMatrix

    for d, N in ((1, 5), (2, 4)):
        A, B, _, _ = pair_sections(basis_build(d, N))
        spec = SymmetricPairSpec(OperatorMatrix(A), OperatorMatrix(B))
        assert check_pair(spec).residual < 1e-12


def test_kernel_of_t_section():
    b = basis_build(2, 4)
    s = np.linalg.svd(t_matrix(b), compute_uv=False)
    assert int(np.sum(s <= 1e-10 * s[0])) == 1


def test_h2_inner_consistency():
    b = basis_build(2, 3)
    f1 = ChaosField((b.unit((1, 0)), zero_vector(b)))
    f2 = ChaosField((b.unit((1, 0)), b.unit((0, 1))))
    assert h2_inner(f1, f2) == 1.0


def test_exp_inner_product_record_at_truncation_edge():
    # at (4, 5) |ip - exp(|k|^2)| equals the tail bound in exact
    # arithmetic, so only the truncated series gives a rounding-free check
    from sympairs.suites import suite_malliavin

    rec = next(r for r in suite_malliavin(4, 5)
               if r.check == "exp_inner_product")
    assert rec.passed and rec.tol == 1e-10
    assert rec.message.startswith("tail_bound=")


def test_dense_matrices_cached_per_basis():
    b = basis_build(3, 4)
    assert "derivative_matrix" not in vars(b) and "phi_stack" not in vars(b)
    T, X = t_matrix(b), phi_matrix(b)
    assert T is t_matrix(b) is b.derivative_matrix
    assert X is phi_matrix(b) is b.phi_stack
    assert not T.flags.writeable and not X.flags.writeable
    with pytest.raises(ValueError):
        T[0, 0] = 1.0
    assert basis_build(3, 4).derivative_matrix is not T


def test_suite_malliavin_builds_each_dense_matrix_once(monkeypatch):
    from functools import cached_property

    from sympairs.suites import suite_malliavin

    counts = {}
    for name in ("derivative_matrix", "phi_stack"):
        def counted(self, build=vars(chaos.ChaosBasis)[name].func, name=name):
            counts[name] = counts.get(name, 0) + 1
            return build(self)

        prop = cached_property(counted)
        prop.__set_name__(chaos.ChaosBasis, name)
        monkeypatch.setattr(chaos.ChaosBasis, name, prop)
    assert all(r.passed for r in suite_malliavin(3, 5))
    assert counts == {"derivative_matrix": 1, "phi_stack": 1}


@pytest.mark.parametrize("d,N", ((1, 6), (2, 5), (3, 4)))
def test_section_maximality_is_the_pair_residual(d, N):
    # Thm 3.13 (B = A*) and Eq 3.15 are one number, max |B - A*|
    from sympairs.report import canon_float
    from sympairs.suites import suite_malliavin

    recs = {r.check: r for r in suite_malliavin(d, N)}
    A, B, _, _ = pair_sections(basis_build(d, N))
    dev = canon_float(np.max(np.abs(B - A.conj().T)))
    assert recs["section_maximality"].residual == dev
    assert recs["pair_identity"].residual == dev
