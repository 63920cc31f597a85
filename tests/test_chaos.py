import math

import numpy as np
import pytest

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
    gram_schmidt_reduce,
    h1_inner,
    h2_inner,
    hermite_coefficients,
    mult_phi,
    multiply,
    number_operator,
    pair_sections,
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


LADDER_SIZES = ((1, 8), (2, 6), (3, 5), (4, 4))


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


def test_gram_schmidt_reduce_examples():
    C, kept = gram_schmidt_reduce(np.eye(3), target=0)
    assert np.max(np.abs(C - np.eye(3))) < 1e-12
    assert kept == [0, 1, 2]
    G = np.array([[1.0, 0.5], [0.5, 1.0]])
    C, kept = gram_schmidt_reduce(G, target=0)
    expect = np.array([-0.5, 1.0]) / math.sqrt(0.75)
    assert np.max(np.abs(C[1] - expect)) < 1e-12
    # dependent pair keeps one vector
    G = np.array([[1.0, 1.0], [1.0, 1.0]])
    C, kept = gram_schmidt_reduce(G, target=0)
    assert len(kept) == 1
    # orthonormality of the reduced frame in the Gramian metric
    G = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.5]])
    C, kept = gram_schmidt_reduce(G, target=1)
    assert kept[0] == 1
    M = C @ G @ C.T
    assert np.max(np.abs(M - np.eye(len(kept)))) < 1e-10


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
