import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sympairs import modular
from sympairs.core import (
    CONJUGATE,
    OperatorMatrix,
    adjoint,
    power_from_spectrum,
    sqrt_psd,
    unitary_power,
)
from sympairs.modular import (
    MAX_FLOW_T,
    ModularError,
    algebra_from_generators,
    antilinear_defect_dimension,
    build_F,
    build_S,
    check_commutation,
    check_sxs_commutes,
    commutant,
    conjugation_action_matrix,
    cyclic_separating,
    modular_J,
    modular_data,
    modular_flow_check,
    span_residual,
    standard_form,
    tracial_rho,
)
from sympairs.pairs import SymmetricPairSpec, check_pair
from sympairs.report import canon_float
from sympairs.suites import suite_modular


def random_rho(rng, n):
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    P = M @ M.conj().T + 0.1 * np.eye(n)
    return P / np.trace(P).real


def test_algebra_from_generators_closure():
    # a single matrix unit generates all of M_2
    E = np.array([[0.0, 1.0], [0.0, 0.0]])
    alg = algebra_from_generators([E])
    assert len(alg) == 4
    # a projection generates the diagonal algebra
    P = np.diag([1.0, 0.0])
    alg = algebra_from_generators([P])
    assert len(alg) == 2


def test_commutant_examples():
    # full matrix algebra: commutant is the scalars
    alg = algebra_from_generators(
        [np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag([1.0, 0.0])]
    )
    comm = commutant(alg)
    assert len(comm) == 1
    assert span_residual(np.eye(2, dtype=complex), comm) < 1e-10
    # scalars: commutant is everything
    alg = algebra_from_generators([np.eye(3)])
    assert len(commutant(alg)) == 9


def test_commutant_tensor_factor():
    # M_2 (x) 1 inside M_4 commutes exactly with 1 (x) M_2
    gens = []
    for E in (np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag([1.0, 0.0])):
        gens.append(np.kron(E, np.eye(2)))
    alg = algebra_from_generators(gens)
    comm = commutant(alg)
    assert len(comm) == 4
    probe = np.kron(np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert span_residual(probe.astype(complex), comm) < 1e-10


def test_standard_form_tracial():
    sf = standard_form(2, tracial_rho(2))
    assert np.max(np.abs(sf.xi - np.eye(2).reshape(-1) / np.sqrt(2))) < 1e-12
    assert len(sf.alg) == 4
    assert cyclic_separating(sf.alg, sf.xi) == (True, True)


def test_standard_form_diagonal_and_random():
    sf = standard_form(2, np.diag([0.7, 0.3]))
    assert cyclic_separating(sf.alg, sf.xi) == (True, True)
    rng = np.random.default_rng(20)
    sf = standard_form(3, random_rho(rng, 3))
    assert cyclic_separating(sf.alg, sf.xi) == (True, True)


def test_standard_form_validation():
    with pytest.raises(ModularError):
        standard_form(2, np.diag([1.0, 0.0]))
    with pytest.raises(ModularError):
        standard_form(2, np.diag([0.7, 0.7]))
    with pytest.raises(ModularError):
        standard_form(3, np.diag([0.5, 0.5]))


def test_cyclic_separating_converse():
    # the scalars on C^2: separating but not cyclic
    alg = algebra_from_generators([np.eye(2)])
    xi = np.array([1.0, 0.0], dtype=complex)
    assert cyclic_separating(alg, xi) == (False, True)
    # all of M_2 on C^2: cyclic but not separating
    alg = algebra_from_generators(
        [np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag([1.0, 0.0])]
    )
    assert cyclic_separating(alg, xi) == (True, False)


def test_build_S_tracial_is_adjoint():
    # for the tracial state S is h -> h^H exactly
    sf = standard_form(2, tracial_rho(2))
    S, cond = build_S(sf.alg, sf.xi)
    assert cond < 10.0
    for h in (np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]),
              np.array([[1j, 2.0], [0.5, -1j]])):
        v = h.astype(complex).reshape(-1)
        out = S.apply(v).reshape(2, 2)
        assert np.max(np.abs(out - h.conj().T)) < 1e-12


def test_build_S_fixes_xi_and_squares():
    for rho in (tracial_rho(2), np.diag([0.7, 0.3])):
        sf = standard_form(2, rho)
        S, _ = build_S(sf.alg, sf.xi)
        assert np.max(np.abs(S.apply(sf.xi) - sf.xi)) < 1e-10
        for j in range(4):
            e = np.zeros(4, dtype=complex)
            e[j] = 1.0
            assert np.max(np.abs(S.apply(S.apply(e)) - e)) < 1e-10
        # injective: no kernel
        assert np.linalg.matrix_rank(S.matrix) == 4


def test_build_S_matrix_units_diagonal_rho():
    # m = left mult by E_ij sends xi to the explicit matrix E_ij rho^{1/2};
    # S must send that to E_ji rho^{1/2}
    rho = np.diag([0.7, 0.3])
    sf = standard_form(2, rho)
    S, _ = build_S(sf.alg, sf.xi)
    root = np.diag(np.sqrt(np.diag(rho)))
    for i in range(2):
        for j in range(2):
            E = np.zeros((2, 2))
            E[i, j] = 1.0
            v = (E @ root).reshape(-1).astype(complex)
            expect = (E.T @ root).reshape(-1)
            assert np.max(np.abs(S.apply(v) - expect)) < 1e-12


def test_modular_delta_tracial_is_identity():
    Delta = modular_data(standard_form(2, tracial_rho(2))).Delta
    assert np.max(np.abs(Delta.matrix - np.eye(4))) < 1e-10


def test_modular_delta_spectrum_is_eigenvalue_ratios():
    rng = np.random.default_rng(21)
    for n in (2, 3, 4):
        rho = random_rho(rng, n)
        Delta = modular_data(standard_form(n, rho)).Delta
        w = np.linalg.eigvalsh(rho)
        expect = np.sort([wi / wj for wi in w for wj in w])
        got = np.sort(np.linalg.eigvalsh(Delta.matrix))
        assert np.max(np.abs(got - expect)) < 1e-9
        # and the conjugation oracle agrees with Delta entrywise
        oracle = conjugation_action_matrix(rho)
        assert np.max(np.abs(Delta.matrix - oracle)) < 1e-9


def test_modular_J_tracial_and_properties():
    sf = standard_form(2, tracial_rho(2))
    md = modular_data(sf)
    # tracial J is the adjoint map itself
    for h in (np.eye(2), np.array([[0.0, 1j], [2.0, 0.0]])):
        v = h.astype(complex).reshape(-1)
        assert np.max(np.abs(md.J.apply(v) - h.conj().T.reshape(-1))) < 1e-10
    sf = standard_form(2, np.diag([0.7, 0.3]))
    md = modular_data(sf)
    assert md.J.linearity == CONJUGATE
    # J is an isometry and an involution
    Mj = md.J.matrix
    assert np.max(np.abs(Mj.conj().T @ Mj - np.eye(4))) < 1e-12
    for j in range(4):
        e = np.zeros(4, dtype=complex)
        e[j] = 1.0
        assert np.max(np.abs(md.J.apply(md.J.apply(e)) - e)) < 1e-12
    # polar reconstruction S = J Delta^{1/2}
    root = sqrt_psd(md.Delta)
    recon = Mj @ np.conj(root.matrix)
    assert np.max(np.abs(md.S.matrix - recon)) < 1e-10


def test_check_commutation_and_sxs():
    for rho in (tracial_rho(2), np.diag([0.7, 0.3])):
        sf = standard_form(2, rho)
        md = modular_data(sf)
        comm = commutant(sf.alg)
        assert check_commutation(md.J, sf.alg, comm) < 1e-9
        assert check_sxs_commutes(md.S, sf.alg) < 1e-9


def test_modular_flow_examples():
    sf = standard_form(2, np.diag([0.7, 0.3]))
    md = modular_data(sf)
    assert modular_flow_check(md.eig, sf.alg, [0.0]) < 1e-12
    assert modular_flow_check(md.eig, sf.alg, [0.5, 1.0, np.pi]) < 1e-9
    # tracial flow is trivial at every time
    sf = standard_form(2, tracial_rho(2))
    md = modular_data(sf)
    assert modular_flow_check(md.eig, sf.alg, [0.7, 3.0]) < 1e-10


def test_modular_pair_check_pair_examples():
    # F* = S (Thm 4.11) is the check_pair residual of the pair (S, F)
    for rho in (tracial_rho(2), np.diag([0.7, 0.3])):
        sf = standard_form(2, rho)
        md = modular_data(sf)
        assert check_pair(SymmetricPairSpec(md.S, md.F)) < 1e-10
    # perturbing one entry of F breaks the adjoint relation by that much
    sf = standard_form(2, np.diag([0.7, 0.3]))
    md = modular_data(sf)
    Mf = md.F.matrix.copy()
    Mf[0, 1] += 0.1
    bad = OperatorMatrix(Mf, CONJUGATE)
    res = check_pair(SymmetricPairSpec(md.S, bad))
    assert res > 1e-10  # fails the default tolerance
    assert abs(res - 0.1) < 1e-9


def test_suite_maximality_is_the_pair_residual():
    rng = np.random.default_rng(23)
    for rho in (tracial_rho(2), np.diag([0.7, 0.3]), random_rho(rng, 3)):
        n = rho.shape[0]
        recs = {r.check: r for r in suite_modular(n, rho, [0.5])}
        assert recs["maximality"] == replace(
            recs["pair_identity"], check="maximality", anchor="Thm 4.11",
            message="")
        # independent oracle: F is conjugate-linear, so S* = S^T
        md = modular_data(standard_form(n, rho))
        dev = float(np.max(np.abs(md.F.matrix - md.S.matrix.T)))
        assert recs["maximality"].residual == canon_float(dev)


def test_antilinear_defect_dimension_zero():
    rng = np.random.default_rng(22)
    for rho in (tracial_rho(2), np.diag([0.7, 0.3]), random_rho(rng, 3)):
        sf = standard_form(rho.shape[0], rho)
        md = modular_data(sf)
        assert antilinear_defect_dimension(md.F, sf.alg, sf.xi) == 0


def test_build_F_is_S_adjoint():
    sf = standard_form(3, np.diag([0.5, 0.3, 0.2]))
    comm = commutant(sf.alg)
    S, _ = build_S(sf.alg, sf.xi)
    F = build_F(comm, sf.xi)
    assert np.max(np.abs(adjoint(F).matrix - S.matrix)) < 1e-10


def test_only_build_S_pays_for_a_condition_number(monkeypatch):
    sf = standard_form(3, random_rho(np.random.default_rng(17), 3))
    comm = commutant(sf.alg)
    calls = []

    def spy(M, *args, _real=np.linalg.cond, **kwargs):
        calls.append(M.shape)
        return _real(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", spy)
    build_F(comm, sf.xi)
    assert calls == []
    modular_data(sf)
    assert calls == [(9, 9)]


def test_involutions_refuse_a_singular_solve():
    # the diagonal algebra on C^2 with xi = e_0: the span is square but
    # diag(0, 1) xi = 0, so xi is cyclic-sized yet not separating
    alg = algebra_from_generators([np.diag([1.0, 0.0])])
    xi = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(ModularError, match="build_S: vector is not separ"):
        build_S(alg, xi)
    with pytest.raises(ModularError, match="build_F: vector is not separ"):
        build_F(alg, xi)


# ---------------------------------------------------------------------------
# reference oracles: the Sylvester solves, the SVD closure loop and the
# per-element loops that commutant, algebra_from_generators, span_residual
# and check_sxs_commutes replace; algebra_from_generators is itself the
# oracle of the standard form's closed-form basis


def commutant_svd_oracle(gens, m, tol=1e-10):
    """Rows vec(X) spanning the null space of the full stacked system."""
    eye = np.eye(m)
    stacked = np.vstack([np.kron(G, eye) - np.kron(eye, G.T) for G in gens])
    _, s, vh = np.linalg.svd(stacked)
    scale = s[0] if s.size and s[0] > 0 else 1.0
    return vh[int(np.sum(s > tol * scale)):].conj()


def commutant_oracle(gens, m, tol=1e-10):
    """Null space of ``G X - X G = 0`` over the generators, as rows vec(X).

    The stack is folded one generator block at a time into its
    m^2 x m^2 R factor, which has the same singular values and right
    singular vectors as the stack.  Works for any generator set, closed
    under adjoints or not.  A commutator below tol |G| counts as zero, so
    a generator within tol of the scalars acts as a scalar.
    """
    eye = np.eye(m)
    R = np.zeros((0, m * m), dtype=complex)
    for G in gens:
        block = np.kron(G, eye) - np.kron(eye, G.T)
        R = np.linalg.qr(np.vstack([R, block]), mode="r")
    _, s, vh = np.linalg.svd(R)
    scale = max(s[0], max(np.linalg.norm(G) for G in gens), 1e-300)
    return vh[int(np.sum(s > tol * scale)):].conj()


def with_adjoints(gens):
    return [np.asarray(G) for G in gens] + [np.asarray(G).conj().T
                                           for G in gens]


def algebra_svd_loop(gens, tol=1e-10):
    """The closure loop that runs an SVD every round, closed or not."""
    def orth(mats):
        stack = np.array([M.reshape(-1) for M in mats])
        _, s, vh = np.linalg.svd(stack, full_matrices=False)
        rank = int(np.sum(s > tol * s[0]))
        return [vh[j].reshape(M.shape) for j in range(rank)]

    gens = [np.asarray(g, dtype=complex) for g in gens]
    M = gens[0]
    current = orth([np.eye(M.shape[0], dtype=complex)] + with_adjoints(gens))
    while True:
        new = orth(current + [a @ b for a in current for b in current])
        if len(new) == len(current):
            return current
        current = new


def span_residual_oracle(x, basis):
    rem = x.astype(complex).copy()
    for b in basis:
        rem -= np.trace(b.conj().T @ rem) * b
    return float(np.linalg.norm(rem))


def sxs_oracle(S, alg):
    worst = 0.0
    for x in alg:
        sx = S.matrix @ np.conj(x) @ np.conj(S.matrix)
        for y in alg:
            worst = max(worst, float(np.linalg.norm(sx @ y - y @ sx)))
    return worst


def projector(rows):
    rows = np.asarray(rows).reshape(len(rows), -1)
    return rows.T @ rows.conj()


@st.composite
def generator_sets(draw):
    """1-4 generators on C^m, m = a*b: X (x) 1_b for random complex X
    (not closed under adjoints), 0/1 diagonal X, or a block diagonal
    X1 (+) X2, so the commutant ranges from the scalars to M_b-sized."""
    m = draw(st.integers(2, 9))
    count = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["kron", "projection", "direct_sum"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
    gens = []
    for _ in range(count):
        if kind == "direct_sum":
            X = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            X[:a, a:] = 0.0
            X[a:, :a] = 0.0
        else:
            X = rng.normal(size=(a, a)) + 1j * rng.normal(size=(a, a))
            if kind == "projection":
                X = np.diag(rng.integers(0, 2, size=a).astype(complex))
            X = np.kron(X, np.eye(m // a))
        gens.append(X)
    return m, gens


@settings(max_examples=80, deadline=None)
@given(generator_sets())
def test_commutant_matches_full_svd_oracle(m_gens):
    m, gens = m_gens
    # the folded oracle alone covers the adjoint-free set itself
    ref = commutant_oracle(gens, m)
    full = commutant_svd_oracle(gens, m)
    assert len(ref) == len(full)
    assert np.max(np.abs(projector(ref) - projector(full))) <= 1e-12
    # commutant is the commutant of the *-algebra: generators + adjoints
    comm = commutant(algebra_from_generators(gens))
    ref = commutant_oracle(with_adjoints(gens), m)
    assert len(comm) == len(ref)
    assert np.max(np.abs(projector(comm) - projector(ref))) <= 1e-12
    for b in comm:
        for G in with_adjoints(gens):
            assert np.max(np.abs(G @ b - b @ G)) <= 1e-10


def test_commutant_single_generator_and_adjoint_free_set():
    # one Jordan block: the oracle gives the polynomials in it, while the
    # *-algebra of N and N^H is all of M_4, whose commutant is the scalars
    N = np.diag(np.ones(3), 1)
    assert len(commutant_oracle([N], 4)) == 4
    comm = commutant(algebra_from_generators([N]))
    assert len(comm) == 1
    assert np.max(np.abs(projector(comm) - projector(
        commutant_oracle(with_adjoints([N]), 4)))) <= 1e-12
    # the upper-triangular unit E_01 alone, with no adjoint in the set
    E = np.zeros((2, 2))
    E[0, 1] = 1.0
    assert len(commutant_oracle([E], 2)) == 2
    comm = commutant(algebra_from_generators([E]))
    assert np.max(np.abs(projector(comm) - projector(
        commutant_oracle(with_adjoints([E]), 2)))) <= 1e-12


def rotated_direct_sum(blocks, rng):
    """U ((+)_k M_{n_k} (x) 1_{m_k}) U^H for a random unitary U, as its
    orthonormal basis of rotated matrix units."""
    m = sum(n * k for n, k in blocks)
    Z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    U, _ = np.linalg.qr(Z)
    basis, offset = [], 0
    for n, k in blocks:
        for i in range(n):
            for j in range(n):
                X = np.zeros((m, m), dtype=complex)
                unit = np.zeros((n, n))
                unit[i, j] = 1.0
                X[offset:offset + n * k, offset:offset + n * k] = np.kron(
                    unit, np.eye(k)) / np.sqrt(k)
                basis.append(U @ X @ U.conj().T)
        offset += n * k
    return np.array(basis)


# (n_k, m_k) per block; two or more blocks give a nontrivial centre
BLOCK = st.tuples(st.integers(1, 3), st.integers(1, 3))


@settings(max_examples=60, deadline=None)
@given(st.lists(BLOCK, min_size=2, max_size=3).filter(
    lambda b: sum(n * k for n, k in b) <= 10), st.integers(0, 2**32 - 1))
@example([(2, 1), (2, 1)], 0)  # inequivalent blocks of the same size
@example([(1, 2), (2, 1), (1, 2)], 1)
@example([(2, 2), (2, 2)], 2)
# the first generic draw has two clusters 5.8e-7 (relative) apart here
@example([(3, 2), (1, 1), (2, 1)], 0)
def test_commutant_matches_oracle_on_direct_sums(blocks, seed):
    alg = rotated_direct_sum(blocks, np.random.default_rng(seed))
    comm = commutant(alg)
    ref = commutant_oracle(with_adjoints(alg), alg.shape[1])
    assert len(comm) == len(ref) == sum(k * k for _, k in blocks)
    assert np.max(np.abs(projector(comm) - projector(ref))) <= 1e-12
    # orthonormal in the trace inner product
    C = comm.reshape(len(comm), -1)
    assert np.max(np.abs(C.conj() @ C.T - np.eye(len(comm)))) <= 1e-12
    # the adjoint of each element is another element (up to rounding):
    # the commutator check against the generators covers their adjoints
    Ch = comm.conj().transpose(0, 2, 1).reshape(len(comm), -1)
    assert np.max(np.min(abs(Ch[:, None] - C[None]).max(axis=2),
                         axis=1)) <= 1e-14


def test_commutant_redraws_close_clusters(monkeypatch):
    # the first draw for these blocks has its two closest clusters 5.8e-7
    # apart (relative); at a floor below that gap it is kept, and the
    # basis is worse than the redrawn one
    alg = rotated_direct_sum([(3, 2), (1, 1), (2, 1)],
                             np.random.default_rng(0))
    ref = projector(commutant_oracle(with_adjoints(alg), alg.shape[1]))
    err = np.max(np.abs(projector(commutant(alg)) - ref))
    monkeypatch.setattr(modular, "GAP_FLOOR", 1e-7)
    kept = np.max(np.abs(projector(commutant(alg)) - ref))
    assert err <= 1e-12 < kept
    # no draw clears a floor above the whole spectrum: refused, not kept
    monkeypatch.setattr(modular, "GAP_FLOOR", 3.0)
    with pytest.raises(ModularError, match="draws"):
        commutant(alg)


def test_commutant_is_deterministic():
    rng = np.random.default_rng(25)
    for alg in (standard_form(3, random_rho(rng, 3)).alg,
                rotated_direct_sum([(2, 1), (2, 1), (1, 3)], rng)):
        first, second = commutant(alg), commutant(alg)
        assert len(first) == len(second)
        assert np.array_equal(first, second)


@pytest.mark.parametrize("scale", (np.sqrt(3), 1e9, 1e-9))
def test_commutant_takes_a_basis_of_any_norm(scale):
    # the structure check scales with the largest basis norm, so E_ij (x) 1
    # without its 1 / sqrt(n), or far larger, gives the same commutant
    alg = standard_form(3, tracial_rho(3)).alg
    comm = commutant(scale * alg)
    assert len(comm) == 9
    assert np.allclose(projector(comm), projector(commutant(alg)),
                       atol=1e-12)


@pytest.mark.parametrize("delta, dim", [(1e-9, 2), (1e-11, 4)])
def test_commutant_near_degenerate_generator(delta, dim):
    # diag(1, 1 + delta) generates the diagonal algebra above the closure
    # threshold and only the scalars below it; commutant follows the basis
    G = np.diag([1.0, 1.0 + delta])
    comm = commutant(algebra_from_generators([G]))
    ref = commutant_oracle(with_adjoints([G]), 2)
    assert len(comm) == len(ref) == dim


def test_commutant_refuses_inconsistent_algebra():
    E = np.zeros((2, 2), dtype=complex)
    E[0, 1] = 1.0
    # a span that is not a *-algebra: its blocks do not add up to it
    span = np.array([np.eye(2) / np.sqrt(2), E])
    with pytest.raises(ModularError, match="structure check"):
        commutant(span)
    with pytest.raises(ModularError, match="no basis"):
        commutant(np.zeros((0, 2, 2), complex))


def test_algebra_from_generators_matches_svd_loop():
    # closed after one round: the closure test replaces the SVD exactly
    for n in range(1, 6):
        eye = np.eye(n)
        gens = [np.kron(np.outer(eye[i], eye[j]), eye)
                for i in range(n) for j in range(n)]
        got = algebra_from_generators(gens)
        ref = algebra_svd_loop(gens)
        assert len(got) == len(ref) == n * n
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))
    md = modular_data(standard_form(3, random_rho(np.random.default_rng(26),
                                                  3)))
    got = algebra_from_generators(md.comm)
    ref = algebra_svd_loop(list(md.comm))
    assert len(got) == len(ref) == 9
    assert all(np.array_equal(a, b) for a, b in zip(got, ref))
    # not closed: E_01 grows to M_2, and a Jordan block to M_4
    for G, dim in ((np.diag([1.0], 1), 4), (np.diag(np.ones(3), 1), 16)):
        got = algebra_from_generators([G])
        ref = algebra_svd_loop([G])
        assert len(got) == len(ref) == dim
        assert np.max(np.abs(projector(got) - projector(ref))) <= 1e-12


def test_batched_checks_match_loop_oracles():
    rng = np.random.default_rng(23)
    # a complex orthonormal span: 5 orthonormal 3x3 matrices
    G = rng.normal(size=(9, 5)) + 1j * rng.normal(size=(9, 5))
    Q, _ = np.linalg.qr(G)
    basis = Q.T.reshape(5, 3, 3)
    X = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    ref = max(span_residual_oracle(x, basis) for x in X)
    assert abs(span_residual(X, basis) - ref) <= 1e-12
    assert abs(span_residual(X[0], basis)
               - span_residual_oracle(X[0], basis)) <= 1e-12
    for n in (2, 3):
        sf = standard_form(n, random_rho(rng, n))
        md = modular_data(sf)
        # the algebra basis as a stack, a list and one matrix at a time
        comm2 = commutant(md.comm)
        ref = max(span_residual_oracle(b, comm2) for b in sf.alg)
        assert abs(span_residual(sf.alg, comm2) - ref) <= 1e-12
        for b in sf.alg[:3]:
            assert abs(span_residual(b, md.comm)
                       - span_residual_oracle(b, md.comm)) <= 1e-12
        assert abs(check_sxs_commutes(md.S, sf.alg)
                   - sxs_oracle(md.S, sf.alg)) <= 1e-12
        Mj = md.J.matrix
        ref = max(span_residual_oracle(Mj @ np.conj(x) @ np.conj(Mj),
                                       md.comm) for x in sf.alg)
        assert abs(check_commutation(md.J, sf.alg, md.comm) - ref) <= 1e-12


def test_modular_data_carries_commutant_and_cond():
    sf = standard_form(3, np.diag([0.5, 0.3, 0.2]))
    md = modular_data(sf)
    assert md.comm.shape == (9, 9, 9) and not md.comm.flags.writeable
    S, cond = build_S(sf.alg, sf.xi)
    assert md.cond == cond and np.array_equal(md.S.matrix, S.matrix)
    assert projector(md.comm) == pytest.approx(
        projector(commutant(sf.alg)), abs=1e-12)


@pytest.mark.parametrize("n, rho", [
    (1, tracial_rho(1)),
    (5, random_rho(np.random.default_rng(27), 5)),
])
def test_suite_modular_passes_at_size_ends(n, rho):
    recs = suite_modular(n, rho, [0.5, 1.0, 3.0])
    assert len(recs) == 13
    assert all(r.passed for r in recs), [(r.check, r.residual) for r in recs]


def test_suite_modular_takes_one_orbit_rank(monkeypatch):
    ranks = []
    real = np.linalg.matrix_rank
    monkeypatch.setattr(np.linalg, "matrix_rank",
                        lambda *a, **k: ranks.append(1) or real(*a, **k))
    recs = suite_modular(2, np.diag([0.7, 0.3]), [0.5])
    assert len(ranks) == 1
    assert recs[0].check == "cyclic_separating" and recs[0].passed


def test_modular_flow_time_cap():
    sf = standard_form(3, random_rho(np.random.default_rng(28), 3))
    md = modular_data(sf)
    assert modular_flow_check(md.eig, sf.alg, [MAX_FLOW_T, -MAX_FLOW_T]) \
        <= 1e-9
    for t in (np.nextafter(MAX_FLOW_T, np.inf), -1e6):
        with pytest.raises(ModularError, match=r"\|t\|"):
            modular_flow_check(md.eig, sf.alg, [0.5, t])


def ill_conditioned_rho(seed):
    """U diag(0.999, 0.001) U^H for a seeded random unitary U:
    cond(Delta) = (0.999 / 0.001)^2, about 1e6."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    U = q * (np.diag(r) / abs(np.diag(r)))
    return (U * [0.999, 0.001]) @ U.conj().T


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("t", [100.0, 1000.0])
def test_modular_flow_tolerance_scales_with_t_and_cond(monkeypatch, seed, t):
    # a true flow reaches 5.4e-8 at t = 1000 (seed 0): past a fixed 1e-9
    rho = ill_conditioned_rho(seed)
    recs = suite_modular(2, rho, [t])
    assert all(r.passed for r in recs), [(r.check, r.residual) for r in recs]
    [flow] = [r for r in recs if r.check == "modular_flow"]
    assert flow.tol == pytest.approx(1e-15 * t * 0.999**2 / 0.001**2)
    # a flow of Delta + eps E is no modular flow; its record fails
    E = np.random.default_rng(99).normal(size=(4, 4))
    E = OperatorMatrix(1e-8 * (E + E.T) / np.linalg.norm(E + E.T, 2))
    real = modular.modular_flow_check
    # the flow runs on a fresh decomposition of the perturbed Delta
    D = OperatorMatrix(modular_data(standard_form(2, rho)).Delta.matrix
                       + E.matrix)
    monkeypatch.setattr(modular, "modular_flow_check", lambda eig, *a: real(
        modular.spectrum(D, return_vectors=True), *a))
    [bad] = [r for r in suite_modular(2, rho, [t])
             if r.check == "modular_flow"]
    assert not bad.passed and bad.residual > 10 * bad.tol


def test_suite_modular_n4_passes():
    recs = suite_modular(4, random_rho(np.random.default_rng(24), 4),
                         [0.5, 1.0, 3.0])
    assert len(recs) == 13
    assert all(r.passed for r in recs), [(r.check, r.residual) for r in recs]


def test_non_hermitian_rho_refused():
    rho = np.array([[0.5, 0.1], [0.0, 0.5]])
    with pytest.raises(ModularError, match="Hermitian"):
        standard_form(2, rho)
    with pytest.raises(ModularError, match="Hermitian"):
        standard_form(2, np.array([[np.nan, 0.0], [0.0, 0.5]]))
    # a rounding-level asymmetry is accepted
    rho = np.array([[0.5, 1e-13], [0.0, 0.5]])
    assert len(standard_form(2, rho).alg) == 4


def test_oversized_n_refused_before_any_work(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the size guard let an oversized n through")

    monkeypatch.setattr(modular, "commutant", forbidden)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    for n in (6, 10**9):
        with pytest.raises(ModularError, match=r"outside 1\.\.5"):
            tracial_rho(n)
        # rho stays a placeholder: the guard runs before rho is read
        with pytest.raises(ModularError, match=r"outside 1\.\.5"):
            standard_form(n, None)
        with pytest.raises(ModularError, match=r"outside 1\.\.5"):
            suite_modular(n, None, [0.5])
    with pytest.raises(ModularError, match=r"outside 1\.\.5"):
        standard_form(0, np.zeros((0, 0)))


#: numpy's linalg implementation module: np.linalg.cond reaches svd there
LINALG_IMPL = next(sys.modules[name] for name in
                   ("numpy.linalg._linalg", "numpy.linalg.linalg")
                   if name in sys.modules)


def test_suite_modular_decomposes_delta_once(monkeypatch):
    # J, Delta^{1/2}, the flow Delta^{+-it} and cond(Delta) all come from
    # the one eigh of modular_data; the parent decomposed Delta 10 times
    rho = random_rho(np.random.default_rng(29), 3)
    Delta = modular_data(standard_form(3, rho)).Delta.matrix
    calls = []
    for name in ("eigh", "eigvalsh", "svd"):
        def spy(a, *args, _real=getattr(np.linalg, name), _name=name,
                **kwargs):
            if np.shape(a) == Delta.shape and np.array_equal(a, Delta):
                calls.append(_name)
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
        monkeypatch.setattr(LINALG_IMPL, name, spy)
    recs = suite_modular(3, rho, [0.5, 1.0, 3.0])
    assert calls == ["eigh"]
    assert len(recs) == 13 and all(r.passed for r in recs)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_shared_decomposition_matches_core_bit_for_bit(n):
    rho = random_rho(np.random.default_rng(30 + n), n)
    sf = standard_form(n, rho)
    md = modular_data(sf)
    assert np.array_equal(md.root.matrix, sqrt_psd(md.Delta).matrix)
    for t in (0.5, 1.0, 3.0, -MAX_FLOW_T):
        assert np.array_equal(power_from_spectrum(*md.eig, t),
                              unitary_power(md.Delta, t).matrix)
    w = md.eig[0]
    assert w[-1] / w[0] == pytest.approx(np.linalg.cond(md.Delta.matrix),
                                         rel=1e-12)


def test_bases_are_read_only_stacks():
    sf = standard_form(3, random_rho(np.random.default_rng(31), 3))
    comm = commutant(sf.alg)
    for stack in (sf.alg, comm):
        assert stack.shape == (9, 9, 9) and stack.dtype == complex
        assert not stack.flags.writeable
    # the basis is the left multiplications E_ij (x) 1, scaled to unit norm
    eye = np.eye(3)
    assert np.array_equal(sf.alg, [
        np.kron(np.outer(eye[i], eye[j]), eye) / np.sqrt(3)
        for i in range(3) for j in range(3)])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_closed_form_basis_matches_closure_oracle(n):
    # the closure of the basis spans the basis itself: a *-algebra
    B = standard_form(n, tracial_rho(n)).alg
    closed = algebra_from_generators(list(B))
    assert len(closed) == len(B) == n * n
    assert np.max(np.abs(projector(closed) - projector(B))) <= 1e-12
    # orthonormal, and every product of two basis elements in the span
    V = B.reshape(len(B), -1)
    assert np.max(np.abs(V.conj() @ V.T - np.eye(n * n))) <= 1e-12
    assert span_residual((B[:, None] @ B[None]).reshape(-1, n * n, n * n),
                         B) <= 1e-12
    assert span_residual(B.conj().transpose(0, 2, 1), B) <= 1e-12


def test_suite_modular_takes_no_closure(monkeypatch):
    # the standard form and M'' = commutant(M') need no closure rounds
    def forbidden(*args, **kwargs):
        raise AssertionError("suite_modular closed an algebra")

    monkeypatch.setattr(modular, "algebra_from_generators", forbidden)
    rng = np.random.default_rng(32)
    for n in range(1, 6):
        for rho in (tracial_rho(n), random_rho(rng, n)):
            recs = suite_modular(n, rho, [0.5, 1.0])
            assert len(recs) == 13
            assert all(r.passed for r in recs), \
                [(r.check, r.residual) for r in recs]
