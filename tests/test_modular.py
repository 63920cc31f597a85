from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympairs import modular
from sympairs.core import CONJUGATE, OperatorMatrix, adjoint, sqrt_psd
from sympairs.modular import (
    AlgebraSpec,
    ModularError,
    algebra_from_generators,
    antilinear_defect_dimension,
    build_F,
    build_S,
    check_commutation,
    check_sxs_commutes,
    commutant,
    conjugation_action_matrix,
    cyclic_check,
    modular_J,
    modular_data,
    modular_delta,
    modular_flow_check,
    separating_check,
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
    assert len(alg.basis) == 4
    # a projection generates the diagonal algebra
    P = np.diag([1.0, 0.0])
    alg = algebra_from_generators([P])
    assert len(alg.basis) == 2


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
    assert len(sf.alg.basis) == 4
    assert cyclic_check(sf.alg, sf.xi)
    assert separating_check(sf.alg, sf.xi)


def test_standard_form_diagonal_and_random():
    sf = standard_form(2, np.diag([0.7, 0.3]))
    assert cyclic_check(sf.alg, sf.xi)
    assert separating_check(sf.alg, sf.xi)
    rng = np.random.default_rng(20)
    sf = standard_form(3, random_rho(rng, 3))
    assert cyclic_check(sf.alg, sf.xi)
    assert separating_check(sf.alg, sf.xi)


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
    assert not cyclic_check(alg, xi)
    assert separating_check(alg, xi)
    # all of M_2 on C^2: cyclic but not separating
    alg = algebra_from_generators(
        [np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag([1.0, 0.0])]
    )
    assert cyclic_check(alg, xi)
    assert not separating_check(alg, xi)


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
    sf = standard_form(2, tracial_rho(2))
    S, _ = build_S(sf.alg, sf.xi)
    Delta = modular_delta(S)
    assert np.max(np.abs(Delta.matrix - np.eye(4))) < 1e-10


def test_modular_delta_spectrum_is_eigenvalue_ratios():
    rng = np.random.default_rng(21)
    for n in (2, 3, 4):
        rho = random_rho(rng, n)
        sf = standard_form(n, rho)
        S, _ = build_S(sf.alg, sf.xi)
        Delta = modular_delta(S)
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
    assert modular_flow_check(md.Delta, sf.alg, [0.0]) < 1e-12
    assert modular_flow_check(md.Delta, sf.alg, [0.5, 1.0, np.pi]) < 1e-9
    # tracial flow is trivial at every time
    sf = standard_form(2, tracial_rho(2))
    md = modular_data(sf)
    assert modular_flow_check(md.Delta, sf.alg, [0.7, 3.0]) < 1e-10


def test_modular_pair_check_pair_examples():
    # F* = S (Thm 4.11) is the check_pair residual of the pair (S, F)
    for rho in (tracial_rho(2), np.diag([0.7, 0.3])):
        sf = standard_form(2, rho)
        md = modular_data(sf)
        rep = check_pair(SymmetricPairSpec(md.S, md.F))
        assert rep.passed and rep.residual < 1e-10
    # perturbing one entry of F breaks the adjoint relation by that much
    sf = standard_form(2, np.diag([0.7, 0.3]))
    md = modular_data(sf)
    Mf = md.F.matrix.copy()
    Mf[0, 1] += 0.1
    bad = OperatorMatrix(Mf, CONJUGATE)
    rep = check_pair(SymmetricPairSpec(md.S, bad))
    assert not rep.passed
    assert abs(rep.residual - 0.1) < 1e-9


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
    F, _ = build_F(comm, sf.xi)
    assert np.max(np.abs(adjoint(F).matrix - S.matrix)) < 1e-10


# ---------------------------------------------------------------------------
# reference oracles: the stacked full-SVD solve and the per-element loops
# that commutant, span_residual and check_sxs_commutes replace


def commutant_oracle(gens, m, tol=1e-10):
    """Rows vec(X) spanning the null space of the full stacked system."""
    eye = np.eye(m)
    stacked = np.vstack([np.kron(G, eye) - np.kron(eye, G.T) for G in gens])
    _, s, vh = np.linalg.svd(stacked)
    scale = s[0] if s.size and s[0] > 0 else 1.0
    return vh[int(np.sum(s > tol * scale)):].conj()


def span_residual_oracle(x, basis):
    rem = x.astype(complex).copy()
    for b in basis:
        rem -= np.trace(b.matrix.conj().T @ rem) * b.matrix
    return float(np.linalg.norm(rem))


def sxs_oracle(S, alg):
    worst = 0.0
    for x in alg.basis:
        sx = S.matrix @ np.conj(x.matrix) @ np.conj(S.matrix)
        for y in alg.basis:
            worst = max(worst, float(np.linalg.norm(
                sx @ y.matrix - y.matrix @ sx)))
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
    # commutant reads only the generators, so no *-closure is imposed
    alg = AlgebraSpec(m, tuple(OperatorMatrix(g) for g in gens), ())
    comm = commutant(alg)
    ref = commutant_oracle(gens, m)
    assert len(comm) == len(ref)
    assert np.max(np.abs(projector([b.matrix for b in comm])
                         - projector(ref))) <= 1e-12
    for b in comm:
        for G in gens:
            assert np.max(np.abs(G @ b.matrix - b.matrix @ G)) <= 1e-10


def test_commutant_single_generator_and_adjoint_free_set():
    # one Jordan block: its commutant is the polynomials in it
    N = np.diag(np.ones(3), 1)
    alg = AlgebraSpec(4, (OperatorMatrix(N),), ())
    assert len(commutant(alg)) == 4
    # the upper-triangular unit E_01 alone, with no adjoint in the set
    E = np.zeros((2, 2))
    E[0, 1] = 1.0
    comm = commutant(AlgebraSpec(2, (OperatorMatrix(E),), ()))
    assert np.max(np.abs(projector([b.matrix for b in comm])
                         - projector(commutant_oracle([E], 2)))) <= 1e-12


def test_batched_checks_match_loop_oracles():
    rng = np.random.default_rng(23)
    # a complex orthonormal span: 5 orthonormal 3x3 matrices
    G = rng.normal(size=(9, 5)) + 1j * rng.normal(size=(9, 5))
    Q, _ = np.linalg.qr(G)
    basis = [OperatorMatrix(q.reshape(3, 3)) for q in Q.T]
    X = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    ref = max(span_residual_oracle(x, basis) for x in X)
    assert abs(span_residual(X, basis) - ref) <= 1e-12
    assert abs(span_residual(X[0], basis)
               - span_residual_oracle(X[0], basis)) <= 1e-12
    for n in (2, 3):
        sf = standard_form(n, random_rho(rng, n))
        md = modular_data(sf)
        # the algebra basis as a stack, a list and one matrix at a time
        comm2 = commutant(algebra_from_generators(md.comm))
        ref = max(span_residual_oracle(b.matrix, comm2) for b in sf.alg.basis)
        assert abs(span_residual(sf.alg.basis, comm2) - ref) <= 1e-12
        for b in sf.alg.basis[:3]:
            assert abs(span_residual(b.matrix, md.comm)
                       - span_residual_oracle(b.matrix, md.comm)) <= 1e-12
        assert abs(check_sxs_commutes(md.S, sf.alg)
                   - sxs_oracle(md.S, sf.alg)) <= 1e-12
        Mj = md.J.matrix
        ref = max(span_residual_oracle(Mj @ np.conj(x.matrix) @ np.conj(Mj),
                                       md.comm) for x in sf.alg.basis)
        assert abs(check_commutation(md.J, sf.alg, md.comm) - ref) <= 1e-12


def test_modular_data_carries_commutant_and_cond():
    sf = standard_form(3, np.diag([0.5, 0.3, 0.2]))
    md = modular_data(sf)
    assert isinstance(md.comm, tuple) and len(md.comm) == 9
    S, cond = build_S(sf.alg, sf.xi)
    assert md.cond == cond and np.array_equal(md.S.matrix, S.matrix)
    assert projector([b.matrix for b in md.comm]) == pytest.approx(
        projector([b.matrix for b in commutant(sf.alg)]), abs=1e-12)


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
    assert len(standard_form(2, rho).alg.basis) == 4


def test_oversized_n_refused_before_any_work(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the size guard let an oversized n through")

    monkeypatch.setattr(modular, "algebra_from_generators", forbidden)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    for n in (6, 10**9):
        with pytest.raises(ModularError, match=r"outside 1\.\.5"):
            tracial_rho(n)
        # rho stays a placeholder: the guard runs before rho is read
        with pytest.raises(ModularError, match=r"outside 1\.\.5"):
            standard_form(n, None)
    with pytest.raises(ModularError, match=r"outside 1\.\.5"):
        standard_form(0, np.zeros((0, 0)))
