import json
import pathlib
import re
import runpy
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sympairs
from sympairs import modular
from sympairs.core import (
    CONJUGATE,
    DEFAULT_TOL,
    ROUNDING,
    OperatorMatrix,
    adjoint,
    power_from_spectrum,
    rounding_tol,
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
    S = build_S(sf.alg, sf.xi)
    for h in (np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]),
              np.array([[1j, 2.0], [0.5, -1j]])):
        v = h.astype(complex).reshape(-1)
        out = S.apply(v).reshape(2, 2)
        assert np.max(np.abs(out - h.conj().T)) < 1e-12


def test_build_S_fixes_xi_and_squares():
    for rho in (tracial_rho(2), np.diag([0.7, 0.3])):
        sf = standard_form(2, rho)
        S = build_S(sf.alg, sf.xi)
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
    S = build_S(sf.alg, sf.xi)
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


def test_modular_data_eig_is_read_only():
    # the (w, U) of Delta that root, J and the flow share cannot be edited
    md = modular_data(standard_form(2, np.diag([0.7, 0.3])))
    for arr in md.eig:
        with pytest.raises(ValueError):
            arr[0] = 1.0


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
        sxs, jxj = check_sxs_commutes(md.S, md.J, sf.alg, comm)
        assert max(sxs, jxj) < 1e-9
        assert sxs_oracle(md.S, sf.alg) < 1e-9
        # one stack of S and J gives each operator's own worst residual
        stack = np.stack([md.S.matrix, md.J.matrix])
        assert list(check_commutation(stack, sf.alg, comm)) == [sxs, jxj]


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
    S = build_S(sf.alg, sf.xi)
    F = build_F(comm, sf.xi)
    assert np.max(np.abs(adjoint(F).matrix - S.matrix)) < 1e-10


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
# and the sandwich checks replace; algebra_from_generators is itself the
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
    """Worst commutator [S x S, y] over pairs of algebra basis elements:
    S x S lies in M' iff it commutes with all of M."""
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
    sf = standard_form(3, random_rho(np.random.default_rng(26), 3))
    got = algebra_from_generators(sf.comm)
    ref = algebra_svd_loop(list(sf.comm))
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
        ref = max(span_residual_oracle(b, sf.comm2) for b in sf.alg)
        assert abs(span_residual(sf.alg, sf.comm2) - ref) <= 1e-12
        for b in sf.alg[:3]:
            assert abs(span_residual(b, sf.comm)
                       - span_residual_oracle(b, sf.comm)) <= 1e-12
        # S x S lies in M': a projection onto it, and the commutators
        # with M on their own path, both read rounding level
        sxs, jxj = check_sxs_commutes(md.S, md.J, sf.alg, sf.comm)
        Ms = md.S.matrix
        ref = max(span_residual_oracle(Ms @ np.conj(x) @ np.conj(Ms),
                                       sf.comm) for x in sf.alg)
        assert abs(sxs - ref) <= 1e-12
        assert sxs_oracle(md.S, sf.alg) <= 1e-12
        Mj = md.J.matrix
        ref = max(span_residual_oracle(Mj @ np.conj(x) @ np.conj(Mj),
                                       sf.comm) for x in sf.alg)
        assert abs(jxj - ref) <= 1e-12


def test_standard_form_carries_commutants_and_modular_data_cond():
    sf = standard_form(3, np.diag([0.5, 0.3, 0.2]))
    for stack in (sf.comm, sf.comm2):
        assert stack.shape == (9, 9, 9) and not stack.flags.writeable
    assert projector(sf.comm) == pytest.approx(
        projector(commutant(sf.alg)), abs=1e-12)
    assert projector(sf.comm2) == pytest.approx(projector(sf.alg), abs=1e-12)
    md = modular_data(sf)
    assert np.array_equal(md.S.matrix, build_S(sf.alg, sf.xi).matrix)
    # the solve's span matrix is (1 (x) xi^T) / sqrt(n): its condition
    # number is cond(Delta)^{1/4}, read from Delta's eigenvalues
    w = md.eig[0]
    assert (w[-1] / w[0]) ** 0.25 == pytest.approx(
        np.linalg.cond((sf.alg @ sf.xi).T), rel=1e-12)


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


@pytest.mark.parametrize("t_list, message", [
    ([0.5, np.nan], "modular flow times must be finite: [0.5, nan]"),
    ([0.5, -np.inf], "modular flow times must be finite: [0.5, -inf]"),
    ([0.5, 1001.0],
     "modular flow times must satisfy |t| <= 1000: [0.5, 1001.0]"),
])
def test_flow_refusals_keep_their_messages(capsys, t_list, message):
    sf = standard_form(2, np.diag([0.7, 0.3]))
    md = modular_data(sf)
    with pytest.raises(ModularError) as info:
        modular_flow_check(md.eig, sf.alg, t_list)
    assert str(info.value) == message
    from sympairs import cli

    assert cli.main(["check", "modular", "--t",
                     ",".join(map(str, t_list))]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# the flow takes its times in stacked blocks


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_flow_stack_matches_the_per_time_oracle(monkeypatch, n):
    sf = standard_form(n, random_rho(np.random.default_rng(50 + n), n))
    md = modular_data(sf)
    t_list = [0.5, 1.0, 3.0, -7.25, 250.0]
    ref = 0.0
    for t in t_list:
        up, down = (power_from_spectrum(*md.eig, s) for s in (t, -t))
        ref = max(ref, *(span_residual_oracle(up @ x @ down, sf.alg)
                         for x in sf.alg))
    assert abs(modular_flow_check(md.eig, sf.alg, t_list) - ref) <= 1e-12
    # blocks of one, two and all five times
    for per_block in (1, 2, 5):
        monkeypatch.setattr(modular, "FLOW_BLOCK", per_block * sf.alg.size)
        assert abs(modular_flow_check(md.eig, sf.alg, t_list) - ref) <= 1e-12


@pytest.mark.parametrize("per_block", [1, 2, None])
def test_flow_mutation_at_the_middle_time_alone_fails(monkeypatch,
                                                      per_block):
    # Delta^{it} off by 1e-8 relative at t = 1 only, the middle of three
    # times: with one time per block, the middle closing a block of two,
    # and all three in one block
    rho, t_list = rotated_rho(np.random.default_rng(36), 3, 3.0), [0.5, 1, 3]
    if per_block:
        monkeypatch.setattr(modular, "FLOW_BLOCK", per_block * 9**3)
    real = modular.power_from_spectrum

    def mutated(w, U, t, tol=DEFAULT_TOL):
        out = real(w, U, t, tol)
        hit = np.reshape(t, -1) == t_list[1]
        return np.where(hit[:, None, None], out @ perturbed(1e-8, 37, 9), out)

    good = {r.check: r for r in suite_modular(3, rho, t_list)}
    monkeypatch.setattr(modular, "power_from_spectrum", mutated)
    recs = {r.check: r for r in suite_modular(3, rho, t_list)}
    assert good["modular_flow"].passed
    assert not recs["modular_flow"].passed, recs["modular_flow"]
    # the times around it alone still flow M into M
    assert all(r.passed for r in suite_modular(3, rho, [0.5, 3]))


@pytest.mark.parametrize("n, count", [(3, 5000), (6, 100)])
def test_flow_takes_many_times_in_bounded_blocks(n, count):
    import tracemalloc

    sf = standard_form(n, random_rho(np.random.default_rng(60 + n), n))
    md = modular_data(sf)
    t_list = list(np.linspace(-MAX_FLOW_T, MAX_FLOW_T, count))
    modular_flow_check(md.eig, sf.alg, t_list[:2])
    tracemalloc.start()
    try:
        flow = modular_flow_check(md.eig, sf.alg, t_list)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a block holds at most max(one (k, m, m) stack, FLOW_BLOCK) complex
    # entries, 1 MiB at n = 3 and at n = 6, and the peak is a few blocks;
    # every stack at once would be 56 MiB (n = 3) or 71 MiB (n = 6)
    block = 16 * max(sf.alg.size, modular.FLOW_BLOCK)
    assert peak < 5 * block < 16 * count * sf.alg.size / 10, peak
    w = md.eig[0]
    assert flow <= rounding_tol(DEFAULT_TOL, MAX_FLOW_T * w[-1] / w[0])


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
    # a true flow reaches about 5e-8 at t = 1000 (seed 0): past a fixed 1e-9
    rho = ill_conditioned_rho(seed)
    recs = suite_modular(2, rho, [t])
    assert all(r.passed for r in recs), [(r.check, r.residual) for r in recs]
    [flow] = [r for r in recs if r.check == "modular_flow"]
    # scale max(1, |t|) cond(Delta)
    assert flow.tol == pytest.approx(rounding_tol(
        DEFAULT_TOL, t * 0.999**2 / 0.001**2))
    # a flow of Delta + eps E is no modular flow; its record fails
    E = np.random.default_rng(99).normal(size=(4, 4))
    E = OperatorMatrix(1e-8 * (E + E.T) / np.linalg.norm(E + E.T, 2))
    real = modular.modular_flow_check
    # the flow runs on a fresh decomposition of the perturbed Delta
    D = OperatorMatrix(modular_data(standard_form(2, rho)).Delta.matrix
                       + E.matrix)
    monkeypatch.setattr(modular, "modular_flow_check", lambda eig, *a: real(
        modular.spectrum(D), *a))
    [bad] = [r for r in suite_modular(2, rho, [t])
             if r.check == "modular_flow"]
    assert not bad.passed and bad.residual > 4 * bad.tol


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

    monkeypatch.setattr(modular, "_algebras", forbidden)
    monkeypatch.setattr(modular, "commutant", forbidden)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    # n = 9 is the smallest n whose cold build is over the memory budget
    for n, size in ((9, "1.33 GiB"), (10**9, "2.98e+64 GiB")):
        refused = rf"matrix size n={n} refused: needs {re.escape(size)}"
        with pytest.raises(ModularError, match=refused):
            tracial_rho(n)
        # rho stays a placeholder: the guard runs before rho is read
        with pytest.raises(ModularError, match=refused):
            standard_form(n, None)
        with pytest.raises(ModularError, match=refused):
            suite_modular(n, None, [0.5])
    with pytest.raises(ModularError, match="must be at least 1"):
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
    rho = random_rho(np.random.default_rng(31), 3)
    sf = standard_form(3, rho)
    comm = commutant(sf.alg)
    for stack in (sf.alg, comm):
        assert stack.shape == (9, 9, 9) and stack.dtype == complex
        assert not stack.flags.writeable
    # rho and xi are read-only copies: the caller's later write stays out
    kept = rho.copy()
    rho[0, 0] += 1.0
    assert np.array_equal(sf.rho, kept)
    for arr in (sf.rho, sf.xi):
        with pytest.raises(ValueError):
            arr[0] = 0.0
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


# ---------------------------------------------------------------------------
# M, M' and M'' are built once per n and shared by every standard form


def count_commutant(monkeypatch):
    """Spy on commutant: a list that grows by len(B) on each call."""
    calls, real = [], modular.commutant
    monkeypatch.setattr(modular, "commutant",
                        lambda B, *a, **k: calls.append(len(B))
                        or real(B, *a, **k))
    return calls


def test_warm_suite_modular_builds_no_commutant(monkeypatch):
    rng = np.random.default_rng(33)
    rho, other = random_rho(rng, 3), random_rho(rng, 3)
    calls = count_commutant(monkeypatch)
    modular._algebras.cache_clear()
    cold = suite_modular(3, rho, [0.5, 1.0])
    assert calls == [9, 9]  # M' from M, then M'' from M'
    suite_modular(3, other, [0.5])
    warm = suite_modular(3, rho, [0.5, 1.0])
    assert calls == [9, 9]
    # records are bit-identical: commutant is seeded and deterministic
    assert warm == cold
    assert [r.residual for r in warm] == [r.residual for r in cold]


def test_standard_forms_share_stacks_per_n():
    rng = np.random.default_rng(34)
    forms = {n: [standard_form(n, random_rho(rng, n)) for _ in range(2)]
             for n in (2, 3)}
    for n, (a, b) in forms.items():
        assert a.alg is b.alg and a.comm is b.comm and a.comm2 is b.comm2
        for stack in (a.alg, a.comm, a.comm2):
            assert stack.shape == (n * n,) * 3 and not stack.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                stack[0, 0, 0] = 1.0
    two, three = forms[2][0], forms[3][0]
    assert not any(x is y for x in (two.alg, two.comm, two.comm2)
                   for y in (three.alg, three.comm, three.comm2))


def test_size_guard_runs_before_the_cached_build(monkeypatch):
    calls = count_commutant(monkeypatch)
    info = modular._algebras.cache_info()
    for n in (0, 9):
        with pytest.raises(ModularError, match="at least 1|refused"):
            standard_form(n, np.eye(max(n, 1)) / max(n, 1))
    assert calls == [] and modular._algebras.cache_info() == info


def test_demo_modular_reads_the_cached_commutant(monkeypatch, capsys):
    calls = count_commutant(monkeypatch)
    # a demo that built its own commutant would reach it through the
    # package's re-export
    monkeypatch.setattr(sympairs, "commutant", modular.commutant)
    modular._algebras.cache_clear()
    demo = pathlib.Path(__file__).resolve().parent.parent / "demos"
    runpy.run_path(str(demo / "demo_modular.py"), run_name="__main__")
    assert calls == [4, 4]  # M' and M'' at n = 2, once for both states
    assert "lands in the commutant" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# the J and Delta records' tolerances scale with cond(Delta)


def rotated_rho(rng, n, cond):
    """U diag(1 .. 1 / cond) U^H / trace for a seeded random unitary U:
    cond(rho) = cond and cond(Delta) = cond^2."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    U = q * (np.diag(r) / abs(np.diag(r)))
    w = np.geomspace(1.0, 1.0 / cond, n)
    return (U * (w / w.sum())) @ U.conj().T


#: the records of J and Delta, whose tolerances scale with cond(Delta)
J_RECORDS = ("polar_reconstruction", "conjugation_isometry",
             "conjugation_involution", "conjugation_swaps_commutant")
DELTA_RECORDS = ("delta_conjugation_oracle",)


def cond_delta(rho):
    w = modular_data(standard_form(len(rho), rho)).eig[0]
    return w[-1] / w[0]


def test_rounding_tol():
    eps = np.finfo(float).eps
    assert rounding_tol(1e-10, 1.0) == 1e-10
    assert rounding_tol(1e-10, 1e8) == ROUNDING * eps * 1e8


def test_j_and_delta_records_pass_on_rotated_rho_scan():
    # fixed tolerances failed 12 J records of this scan, and the Delta
    # oracle at cond(rho) = 1e4; residuals reach about eps cond(Delta)
    rng = np.random.default_rng(35)
    for n in (2, 3, 4, 5):
        for cond in (1e1, 1e2, 1e3, 1e4):
            for _ in range(2):
                recs = {r.check: r for r in suite_modular(
                    n, rotated_rho(rng, n, cond), [0.5])}
                for name in (*J_RECORDS, *DELTA_RECORDS):
                    assert recs[name].passed, (n, cond, recs[name])


def test_j_records_pass_on_the_rotated_ill_conditioned_example():
    # cond(Delta) = 1e8: fixed tolerances failed the isometry at 5.9e-10
    # and the involution at 3.9e-10, both against 1e-10
    U = np.array([[0.8, -0.6], [0.6, 0.8]])
    rho = U @ np.diag([1.0, 1e-4]) @ U.T / (1 + 1e-4)
    recs = {r.check: r for r in suite_modular(2, rho, [0.5, 1.0])}
    tol = canon_float(rounding_tol(DEFAULT_TOL, cond_delta(rho)))
    for name in (*J_RECORDS, *DELTA_RECORDS):
        assert recs[name].passed and recs[name].tol == tol > DEFAULT_TOL, \
            recs[name]


def test_j_and_delta_records_keep_floors_and_catch_mutations(monkeypatch):
    rho = rotated_rho(np.random.default_rng(36), 3, 3.0)
    # the floor is --tol; at 1e-13 the rounding allowance of cond(Delta) = 9
    # lies above it
    for tol in (DEFAULT_TOL, 1e-13):
        recs = {r.check: r for r in suite_modular(3, rho, [0.5], tol)}
        expect = canon_float(rounding_tol(tol, cond_delta(rho)))
        for name in (*J_RECORDS, *DELTA_RECORDS):
            assert recs[name].passed and recs[name].tol == expect, recs[name]
    # J off by 1e-8 relative is no modular conjugation
    E = np.random.default_rng(37).normal(size=(9, 9))
    E = 1e-8 * E / np.linalg.norm(E, 2)
    real_j, real_oracle = modular.modular_J, modular.conjugation_action_matrix
    monkeypatch.setattr(modular, "modular_J", lambda *a: OperatorMatrix(
        real_j(*a).matrix @ (np.eye(9) + E), CONJUGATE))
    # and an oracle off by 1e-8 relative is no conjugation action
    monkeypatch.setattr(modular, "conjugation_action_matrix", lambda r: (
        real_oracle(r) @ (np.eye(9) + E)))
    recs = {r.check: r for r in suite_modular(3, rho, [0.5])}
    for name in (*J_RECORDS, *DELTA_RECORDS):
        assert not recs[name].passed, recs[name]


# ---------------------------------------------------------------------------
# one sandwich check: S x S and J x J are both projections onto M'


def perturbed(rel, seed, size):
    """1 + E for a seeded random E of spectral norm ``rel``."""
    E = np.random.default_rng(seed).normal(size=(size, size))
    return np.eye(size) + rel * E / np.linalg.norm(E, 2)


def test_sandwich_check_catches_a_perturbed_S(monkeypatch):
    rho = rotated_rho(np.random.default_rng(36), 3, 3.0)
    sf = standard_form(3, rho)
    S = modular_data(sf).S
    good = {r.check: r for r in suite_modular(3, rho, [0.5])}
    assert good["sandwich_commutes"].passed
    # S off by 1e-8 relative is no involution of the standard form
    bad = OperatorMatrix(S.matrix @ perturbed(1e-8, 37, 9), CONJUGATE)
    monkeypatch.setattr(modular, "build_S", lambda *a: bad)
    [rec] = [r for r in suite_modular(3, rho, [0.5])
             if r.check == "sandwich_commutes"]
    assert not rec.passed and rec.residual > 5 * rec.tol, rec
    # the all-pairs commutators, on their own path, read rounding level
    # on the true S and flag the perturbed one
    assert sxs_oracle(S, sf.alg) <= 1e-14
    assert sxs_oracle(bad, sf.alg) > 1e-9


def test_sandwich_maxima_stay_per_operator(monkeypatch):
    # S and J share one projection onto M'; each record reads the worst
    # remainder of its own operator: a perturbed J moves only its record,
    # a perturbed S only the other
    rho = rotated_rho(np.random.default_rng(36), 3, 3.0)
    good = {r.check: r for r in suite_modular(3, rho, [0.5])}
    real_j, real_data = modular.modular_J, modular.modular_data
    monkeypatch.setattr(modular, "modular_J", lambda *a: OperatorMatrix(
        real_j(*a).matrix @ perturbed(1e-8, 37, 9), CONJUGATE))
    recs = {r.check: r for r in suite_modular(3, rho, [0.5])}
    assert not recs["conjugation_swaps_commutant"].passed
    assert recs["sandwich_commutes"] == good["sandwich_commutes"]
    monkeypatch.setattr(modular, "modular_J", real_j)

    def bad_s(sf):  # J, Delta and its root stay those of the true S
        md = real_data(sf)
        return replace(md, S=OperatorMatrix(
            md.S.matrix @ perturbed(1e-8, 37, 9), CONJUGATE))

    monkeypatch.setattr(modular, "modular_data", bad_s)
    recs = {r.check: r for r in suite_modular(3, rho, [0.5])}
    assert not recs["sandwich_commutes"].passed
    assert recs["conjugation_swaps_commutant"] == \
        good["conjugation_swaps_commutant"]


def test_suite_modular_takes_no_span_matrix_svd(monkeypatch):
    # the solve's conditioning is cond(Delta)^{1/4}, from Delta's one eigh
    rho = random_rho(np.random.default_rng(17), 3)
    sf = standard_form(3, rho)
    span = (sf.alg @ sf.xi).T
    calls = []
    for name in ("cond", "svd"):
        def spy(a, *args, _real=getattr(np.linalg, name), _name=name,
                **kwargs):
            calls.append(_name if _name == "cond" or np.array_equal(
                np.asarray(a), span) else None)
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
        monkeypatch.setattr(LINALG_IMPL, name, spy)
    recs = {r.check: r for r in suite_modular(3, rho, [0.5])}
    assert [c for c in calls if c] == []
    w = modular_data(sf).eig[0]
    assert recs["pair_identity"].message == \
        f"solve_cond={(w[-1] / w[0]) ** 0.25:.1e}"


def test_warm_suite_modular_allocates_no_all_pairs_stack():
    # at n = 5 the (k, k, m, m) commutator stack alone took 6.25 MB
    import tracemalloc

    rho = random_rho(np.random.default_rng(38), 5)
    suite_modular(5, rho, [0.5])  # fills the per-n cache
    tracemalloc.start()
    try:
        suite_modular(5, rho, [0.5])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak


# ---------------------------------------------------------------------------
# the pair records scale with cond(rho); past MAX_COND_RHO rho is refused


def test_every_record_passes_on_rotated_rho_up_to_1e6():
    # fixed tolerances failed pair_identity and maximality from
    # cond(rho) = 1e6; S and F carry rounding of about eps cond(rho).
    # With --tol as the floor, true identities pass at a tight tol too.
    rng = np.random.default_rng(39)
    for n in (2, 3, 4, 5):
        for cond in (1.0, 1e2, 1e4, 1e6):
            for _ in range(3):
                rho = rotated_rho(rng, n, cond)
                for tol in (DEFAULT_TOL, 1e-13):
                    recs = suite_modular(n, rho, [0.5, 10.0, MAX_FLOW_T], tol)
                    assert all(r.passed for r in recs), \
                        (n, cond, tol, [r for r in recs if not r.passed])


def hermitian_perturbed(M, rel, seed):
    """M + E for a seeded random Hermitian E of spectral norm rel |M|."""
    rng = np.random.default_rng(seed)
    E = rng.normal(size=M.shape) + 1j * rng.normal(size=M.shape)
    E = E + E.conj().T
    return M + rel * np.linalg.norm(M, 2) * E / np.linalg.norm(E, 2)


@pytest.mark.parametrize("target, records", [
    ("S", ["sandwich_commutes"]),
    ("J", ["conjugation_isometry", "conjugation_swaps_commutant"]),
    ("Delta", ["delta_conjugation_oracle"]),
    ("flow", ["modular_flow"]),
])
def test_tight_tol_catches_an_error_of_1e_11_relative(monkeypatch, target,
                                                       records):
    # at --tol 1e-13 on a well-conditioned rho every rounding allowance
    # lies below 1e-12; the fixed 1e-9 floors of sandwich_commutes,
    # conjugation_swaps_commutant, the Delta oracle and the flow admitted
    # each of these errors
    rho, t_list = rotated_rho(np.random.default_rng(36), 3, 3.0), [0.5, 3.0]
    assert all(r.passed for r in suite_modular(3, rho, t_list, 1e-13))
    if target in ("S", "J"):
        name = "build_S" if target == "S" else "modular_J"
        real = getattr(modular, name)
        monkeypatch.setattr(modular, name, lambda *a: OperatorMatrix(
            real(*a).matrix @ perturbed(1e-11, 37, 9), CONJUGATE))
    else:
        real = modular.modular_data

        def data(*a):  # Delta itself, or the eigendecomposition the flow uses
            md = real(*a)
            D = hermitian_perturbed(md.Delta.matrix, 1e-11, 37)
            if target == "Delta":
                return replace(md, Delta=OperatorMatrix(D))
            return replace(md, eig=np.linalg.eigh(D))

        monkeypatch.setattr(modular, "modular_data", data)
    recs = {r.check: r for r in suite_modular(3, rho, t_list, 1e-13)}
    for name in records:
        assert not recs[name].passed, recs[name]


def test_pair_records_pass_on_the_diagonal_ill_conditioned_example():
    # 1.1e-10 against a fixed 1e-10 before the tolerance scaled
    recs = {r.check: r for r in suite_modular(2, np.diag([1 - 1e-6, 1e-6]),
                                              [0.5])}
    for name in ("pair_identity", "maximality"):
        assert recs[name].passed and recs[name].tol > 1e-10, recs[name]


def test_pair_records_keep_floor_and_catch_a_perturbed_F(monkeypatch):
    rho = rotated_rho(np.random.default_rng(36), 3, 3.0)
    recs = {r.check: r for r in suite_modular(3, rho, [0.5])}
    for name in ("pair_identity", "maximality"):
        assert recs[name].passed and recs[name].tol == 1e-10, recs[name]
    # F off by 1e-8 relative is not the adjoint of S
    real = modular.build_F
    monkeypatch.setattr(modular, "build_F", lambda *a: OperatorMatrix(
        real(*a).matrix @ perturbed(1e-8, 40, 9), CONJUGATE))
    recs = {r.check: r for r in suite_modular(3, rho, [0.5])}
    for name in ("pair_identity", "maximality"):
        assert not recs[name].passed, recs[name]


def test_ill_conditioned_rho_refused():
    assert 1e6 < modular.MAX_COND_RHO < 1e8
    rng = np.random.default_rng(41)
    for n in (2, 3, 4, 5):
        with pytest.raises(ModularError, match=r"ill-conditioned rho: "
                           r"cond\(rho\) = 1\.0e\+08") as info:
            suite_modular(n, rotated_rho(rng, n, 1e8), [0.5])
        assert "\n" not in str(info.value)
    # the bound is on cond(rho) itself: the eigenvalues' ratio just inside
    # is admitted, just outside refused
    inside = modular.MAX_COND_RHO * (1 - 1e-9)
    standard_form(2, np.diag([inside, 1.0]) / (inside + 1))
    outside = modular.MAX_COND_RHO * (1 + 1e-9)
    with pytest.raises(ModularError, match="ill-conditioned"):
        standard_form(2, np.diag([outside, 1.0]) / (outside + 1))


def test_cli_refuses_ill_conditioned_rho(tmp_path, capsys):
    from sympairs import cli

    path = tmp_path / "rho.json"
    path.write_text("[[0.99999999, 0], [0, 1e-8]]")
    assert cli.main(["check", "modular", "--rho", str(path)]) == 2
    err = capsys.readouterr().err
    assert "ill-conditioned rho" in err and err.count("\n") == 1, err


def test_tol_sets_no_modular_guard(tmp_path, capsys):
    # --tol is each record's floor, never a guard: Delta's self-adjoint
    # and PSD checks take a rounding allowance, and the flow's positivity
    # floor is 0, so no tol turns a density matrix into a usage error
    from sympairs import cli

    rho_file = tmp_path / "rho.json"
    for seed in range(20):
        for n in range(2, 6):
            rho = random_rho(np.random.default_rng(seed), n)
            rho_file.write_text(json.dumps(
                [[[z.real, z.imag] for z in row] for row in rho]))
            assert cli.main(["check", "modular", "--rho", str(rho_file),
                             "--tol", "0", "--format", "csv"]) in (0, 1)
    # tracial Delta is the identity: eigenvalues 1 are positive at any tol
    assert cli.main(["check", "modular", "--n", "2", "--tol", "1"]) in (0, 1)
    assert "error" not in capsys.readouterr().err
