"""Acceptance gate: one test and one printed pass/fail line per criterion.

Each criterion pins its tolerances; oracles (Wick moments, conjugation
action, hand recurrences) are computed independently of the code paths
they certify.
"""

import math
import time

import numpy as np

from sympairs import chaos, modular, network, pairs
from sympairs.core import (
    OperatorMatrix,
    adjoint,
    cayley,
    eig_space,
    polar_decompose,
)

T0 = time.perf_counter()

RNG_GRAPHS = 40
RNG_MATRICES = 41


def report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d}: {status}" + (f"  {detail}" if detail else ""))
    assert ok, f"criterion {num:02d} failed: {detail}"


def hermite_pair(max_deg):
    """Derivative/creation sections in orthonormal Hermite coordinates."""
    n1 = max_deg + 1
    A = np.zeros((max_deg, n1))
    B = np.zeros((n1, max_deg))
    for n in range(1, n1):
        A[n - 1, n] = math.sqrt(n)
    for n in range(max_deg):
        B[n + 1, n] = math.sqrt(n + 1)
    return pairs.SymmetricPairSpec(OperatorMatrix(A), OperatorMatrix(B))


def random_graph(rng, n):
    """Connected graph on n vertices: spanning tree plus chords, c in (0, 2]."""
    verts = [str(i) for i in range(n)]
    edges = []
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.append((verts[i], verts[j], float(rng.uniform(0.1, 2.0))))
    extra = {(x, y) for x, y, _ in edges}
    for _ in range(n // 2):
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        if i == j or (verts[i], verts[j]) in extra or \
                (verts[j], verts[i]) in extra:
            continue
        edges.append((verts[i], verts[j], float(rng.uniform(0.1, 2.0))))
        extra.add((verts[i], verts[j]))
    return network.FiniteNetwork(verts, edges, verts[0])


def network_pair(net):
    """(K, Delta) as matrices in orthonormal coordinates.

    The energy side uses the kernel basis orthonormalized through the
    Gramian square root; the sequence side keeps the Dirac basis.
    """
    verts = [v for v in net.vertices if v != net.origin]
    kernels = [network.energy_kernel(net, x) for x in verts]
    m, n = len(verts), len(net)
    G = np.array([[network.energy(ka, kb) for kb in kernels]
                  for ka in kernels])
    w, U = np.linalg.eigh(G)
    inv_root = (U / np.sqrt(w)) @ U.T
    A_raw = np.column_stack([network.laplacian(k) for k in kernels])
    W = np.zeros((m, n))
    o = net.index[net.origin]
    for i, x in enumerate(verts):
        W[i, net.index[x]] = 1.0
        W[i, o] = -1.0
    A_on = A_raw @ inv_root
    B_on = inv_root @ W
    return pairs.SymmetricPairSpec(OperatorMatrix(A_on), OperatorMatrix(B_on))


def all_networks():
    rng = np.random.default_rng(RNG_GRAPHS)
    nets = [
        network.parse_graph("a b 1\nb c 1\norigin a\n"),
        network.parse_graph("a b 1\nb c 1\nc d 1\nd a 1\norigin a\n"),
    ]
    for _ in range(20):
        nets.append(random_graph(rng, int(rng.integers(5, 51))))
    return nets


def random_rho(rng, n):
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    P = M @ M.conj().T + 0.1 * np.eye(n)
    return P / np.trace(P).real


def collect_pairs():
    """Every symmetric pair exercised by the residual criterion."""
    out = [("hermite", hermite_pair(8))]
    for d in (1, 2, 3):
        basis = chaos.basis_build(d, 6)
        A, B = chaos.pair_sections(basis)
        out.append((f"malliavin_d{d}", pairs.SymmetricPairSpec(
            OperatorMatrix(A.to_dense()), OperatorMatrix(B.to_dense()))))
    rng = np.random.default_rng(42)
    for n in (2, 3):
        sf = modular.standard_form(n, random_rho(rng, n))
        S = modular.build_S(sf.alg, sf.xi)
        F = modular.build_F(modular.commutant(sf.alg), sf.xi)
        out.append((f"modular_n{n}", pairs.SymmetricPairSpec(S, F)))
    for i, net in enumerate(all_networks()):
        out.append((f"network_{i}", network_pair(net)))
    return out


ALL_PAIRS = collect_pairs()


def test_criterion_01_pair_residuals():
    start = time.perf_counter()
    worst = 0.0
    for name, spec in ALL_PAIRS:
        res = pairs.check_pair(spec)
        worst = max(worst, res)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 10.0
    report(1, ok, f"worst_residual={worst:.3e} time={elapsed:.2f}s "
                  f"pairs={len(ALL_PAIRS)}")


def test_criterion_02_block_algebra():
    worst_sym = 0.0
    worst_adj = 0.0
    for name, spec in ALL_PAIRS:
        res = pairs.check_pair(spec)
        L = pairs.build_L(spec)
        defect = pairs.symmetry_defect(L)
        worst_sym = max(worst_sym, defect - 2.0 * res)
        lstar = pairs.build_Lstar(spec)
        dev = float(np.max(np.abs(lstar.matrix - adjoint(L).matrix)))
        worst_adj = max(worst_adj, dev)
    # deficiency indices vanish on the exact symmetric sections
    defi_ok = True
    for name, spec in ALL_PAIRS:
        if pairs.check_pair(spec) > 1e-12:
            continue
        plus, minus = pairs.deficiency(spec)
        defi_ok = defi_ok and (len(plus), len(minus)) == (0, 0)
    # the flip maps the positive defect space into the negative one on
    # synthetic non-symmetric probes with exact +-i eigenvectors
    worst_flip = 0.0
    rng = np.random.default_rng(43)
    for _ in range(5):
        M = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
        Q, _ = np.linalg.qr(M)
        A = Q[:, :4]
        probe = pairs.SymmetricPairSpec(
            OperatorMatrix(A), OperatorMatrix(-A.conj().T)
        )
        lstar = pairs.build_Lstar(probe)
        for v in eig_space(lstar, 1j, 1e-9):
            out = pairs.defect_flip(v, (probe.dim_h1, probe.dim_h2))
            worst_flip = max(
                worst_flip,
                float(np.linalg.norm(lstar.apply(out) - (-1j) * out)),
            )
    ok = (worst_sym <= 1e-12 and worst_adj < 1e-12 and defi_ok
          and 0.0 < worst_flip < 1e-9)
    report(2, ok, f"sym_slack={worst_sym:.1e} adj={worst_adj:.1e} "
                  f"deficiency_ok={defi_ok} flip={worst_flip:.1e}")


def poly_product(p, q):
    acc = {}
    for c1, e1 in p:
        for c2, e2 in q:
            e = tuple(a + b for a, b in zip(e1, e2))
            acc[e] = acc.get(e, 0.0) + c1 * c2
    return [(c, e) for e, c in acc.items()]


def test_criterion_03_number_operator():
    worst = 0.0
    for d in (1, 2, 3):
        basis = chaos.basis_build(d, 6)
        Nmat = chaos.t_star_matrix(basis) @ chaos.t_matrix(basis)
        for p in range(len(basis)):
            if basis.degrees[p] > 5:
                continue
            col = Nmat[:, p].copy()
            col[p] -= basis.degrees[p]
            worst = max(worst, float(np.max(np.abs(col))))
    # independent Wick-moment oracle for <T H_a, T H_b> at d = 3
    basis = chaos.basis_build(3, 4)
    G = np.eye(3)
    worst_oracle = 0.0
    for alpha in basis.alphas:
        fa = chaos.T_apply(basis.unit(alpha))
        for beta in basis.alphas:
            fb = chaos.T_apply(basis.unit(beta))
            lhs = chaos.h2_inner(fa, fb).real
            rhs = 0.0
            for i in range(3):
                pa = chaos.chaos_monomials(fa.components[i])
                pb = chaos.chaos_monomials(fb.components[i])
                if pa and pb:
                    rhs += chaos.gaussian_expectation(
                        poly_product(pa, pb), G
                    )
            worst_oracle = max(worst_oracle, abs(lhs - rhs))
    ok = worst < 1e-10 and worst_oracle < 1e-9
    report(3, ok, f"level_mult={worst:.1e} wick_oracle={worst_oracle:.1e}")


def test_criterion_04_kernel_and_identities():
    kernel_ok = True
    worst_split = 0.0
    worst_deriv = 0.0
    for d in (1, 2, 3):
        basis = chaos.basis_build(d, 6)
        B = len(basis)
        sub = [p for p in range(B) if basis.degrees[p] <= 5]
        Tmat = chaos.t_matrix(basis)
        s = np.linalg.svd(Tmat, compute_uv=False)
        kernel_ok = kernel_ok and int(np.sum(s <= 1e-10 * s[0])) == 1
        # annihilation + creation = coordinate multiplication
        Tstar = chaos.t_star_matrix(basis)
        for i in range(d):
            Tk = Tmat[i * B:(i + 1) * B, :]
            Tk_star = Tstar[:, i * B:(i + 1) * B]
            Mk = np.zeros((B, B), dtype=complex)
            for p in range(B):
                img, _ = chaos.mult_phi(i, basis.unit(basis.alphas[p]))
                Mk[:, p] = img.coeffs
            worst_split = max(
                worst_split,
                float(np.max(np.abs((Tk + Tk_star)[:, sub] - Mk[:, sub]))),
            )
        # Leibniz rule on basis pairs with compatible total degree
        for p in sub:
            for q in sub:
                if basis.degrees[p] + basis.degrees[q] > 5:
                    continue
                H = basis.unit(basis.alphas[p])
                K = basis.unit(basis.alphas[q])
                prod, _ = chaos.multiply(H, K)
                lhs = chaos.T_apply(prod)
                th, tk = chaos.T_apply(H), chaos.T_apply(K)
                for i in range(d):
                    a, _ = chaos.multiply(K, th.components[i])
                    b, _ = chaos.multiply(H, tk.components[i])
                    diff = lhs.components[i] - a - b
                    worst_deriv = max(
                        worst_deriv,
                        abs(chaos.h1_inner(diff, diff)) ** 0.5,
                    )
    ok = kernel_ok and worst_split < 1e-10 and worst_deriv < 1e-10
    report(4, ok, f"kernel_dim_1={kernel_ok} split={worst_split:.1e} "
                  f"derivation={worst_deriv:.1e}")


def test_criterion_05_exponential_vectors():
    basis = chaos.basis_build(2, 12)
    worst_ip = 0.0
    ks = [np.array([0.6, 0.8]), np.array([0.3, -0.4]),
          np.array([1.0, 0.0])]
    vecs = [chaos.exp_vector(k, basis)[0] for k in ks]
    for k1, e1 in zip(ks, vecs):
        for k2, e2 in zip(ks, vecs):
            got = chaos.h1_inner(e1, e2).real
            worst_ip = max(worst_ip, abs(got - math.exp(float(k1 @ k2))))
    # eigen-style identity residual shrinks with the truncation degree
    resids = []
    for N in (6, 8, 10, 12):
        b = chaos.basis_build(1, N)
        k = np.array([0.5])
        ek, _ = chaos.exp_vector(k, b)
        num = chaos.number_operator(ek)
        mult, _ = chaos.mult_phi(0, ek)
        expect = 0.5 * mult - float(k @ k) * ek
        diff = num - expect
        resids.append(abs(chaos.h1_inner(diff, diff)) ** 0.5)
    decreasing = all(b < a for a, b in zip(resids, resids[1:]))
    ok = worst_ip < 1e-6 and decreasing and resids[-1] < 1e-4
    report(5, ok, f"exp_ip={worst_ip:.1e} "
                  f"resids={['%.1e' % r for r in resids]}")


def test_criterion_06_modular_suite():
    sf = modular.standard_form(2, np.diag([0.7, 0.3]))
    md = modular.modular_data(sf)
    comm = modular.commutant(sf.alg)
    got = np.sort(np.linalg.eigvalsh(md.Delta.matrix))
    expect = np.sort([3.0 / 7.0, 1.0, 1.0, 7.0 / 3.0])
    spec_dev = float(np.max(np.abs(got - expect)))
    oracle_dev = float(np.max(np.abs(
        md.Delta.matrix - modular.conjugation_action_matrix(sf.rho)
    )))
    Mj = md.J.matrix
    iso = float(np.max(np.abs(Mj.conj().T @ Mj - np.eye(4))))
    invo = float(np.max(np.abs(Mj @ np.conj(Mj) - np.eye(4))))
    from sympairs.core import sqrt_psd

    recon = float(np.max(np.abs(
        md.S.matrix - Mj @ np.conj(sqrt_psd(md.Delta).matrix)
    )))
    _, jmj = modular.check_sxs_commutes(md.S, md.J, sf.alg, comm)
    flow = modular.modular_flow_check(md.eig, sf.alg, [0.5, 1.0, math.pi])
    adj_dev = float(np.max(np.abs(adjoint(md.F).matrix - md.S.matrix)))
    # tracial state: Delta is the identity and J is the adjoint map
    sft = modular.standard_form(2, modular.tracial_rho(2))
    mdt = modular.modular_data(sft)
    tr_delta = float(np.max(np.abs(mdt.Delta.matrix - np.eye(4))))
    tr_j = 0.0
    for h in (np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]),
              np.array([[1j, 0.5], [2.0, -1j]])):
        v = h.astype(complex).reshape(-1)
        tr_j = max(tr_j, float(np.max(np.abs(
            mdt.J.apply(v) - h.conj().T.reshape(-1)
        ))))
    ok = (spec_dev < 1e-10 and oracle_dev < 1e-10 and iso < 1e-12
          and invo < 1e-12 and recon < 1e-10 and jmj < 1e-10
          and flow < 1e-9 and adj_dev < 1e-10
          and tr_delta < 1e-12 and tr_j < 1e-12)
    report(6, ok, f"spectrum={spec_dev:.1e} oracle={oracle_dev:.1e} "
                  f"iso={iso:.1e} invo={invo:.1e} recon={recon:.1e} "
                  f"jmj={jmj:.1e} flow={flow:.1e} adj={adj_dev:.1e} "
                  f"tracial=({tr_delta:.1e},{tr_j:.1e})")


def test_criterion_07_network_identities():
    worst = 0.0
    for net in all_networks():
        o = net.index[net.origin]
        iu, ju, c = net.edges  # c(x) from a conductance matrix of our own
        cond = np.zeros((len(net), len(net)))
        cond[iu, ju] = cond[ju, iu] = c
        for x in net.vertices:
            dx = net.delta(x)
            worst = max(worst, abs(
                network.energy(dx, dx) - cond[net.index[x]].sum()
            ))
        kernels = {x: network.energy_kernel(net, x)
                   for x in net.vertices if x != net.origin}
        for x, vx in kernels.items():
            lap = network.laplacian(vx)
            expect = np.zeros(len(net))
            expect[net.index[x]] = 1.0
            expect[o] = -1.0
            worst = max(worst, float(np.max(np.abs(lap - expect))))
        probes = [net.delta(y) for y in net.vertices]
        probes += list(kernels.values())
        for x, vx in kernels.items():
            for u in probes:
                worst = max(worst, abs(
                    network.energy(vx, u) - (u(x) - u(net.origin))
                ))
        for x in net.vertices:
            dx = net.delta(x)
            for u in kernels.values():
                worst = max(worst, abs(
                    network.energy(dx, u)
                    - network.laplacian(u)[net.index[x]]
                ))
    ok = worst < 1e-12
    report(7, ok, f"worst={worst:.1e}")


def test_criterion_08_defect_dichotomy():
    worst_rel = 0.0
    verdicts_ok = True
    for r in (2.0, 3.0):
        res = network.defect_recurrence(network.geometric_halfline(r), 80)
        verdicts_ok = verdicts_ok and res.verdict == network.CONVERGES
        worst_rel = max(worst_rel, res.rel_residual)
    res2 = network.defect_recurrence(network.geometric_halfline(2.0), 80)
    first_dev = float(np.max(np.abs(res2.psi[:4] - [1.0, 2.0, 3.5, 5.125])))
    resc = network.defect_recurrence(network.constant_halfline(), 80)
    const_ok = resc.verdict == network.DIVERGES and resc.psi[3] == 13.0
    ok = verdicts_ok and worst_rel < 1e-12 and first_dev == 0.0 and const_ok
    report(8, ok, f"rel_residual={worst_rel:.1e} first_dev={first_dev:.1e} "
                  f"constant_diverges={const_ok}")


def test_criterion_09_royden_harmonic():
    seq = network.twosided_geometric(2.0)
    W = 50
    worst_energy = 0.0
    for phi in (1.0, 0.7):
        h, eh = network.harmonic_flux(seq, phi, W)
        worst_energy = max(worst_energy, abs(eh - 4.0 * phi * phi))
    h, _ = network.harmonic_flux(seq, 1.0, W)
    net = h.network
    _, _, c_delta = network.royden_project(net.delta(0), h)
    v1 = network.energy_kernel(net, 1)
    _, _, c_v1 = network.royden_project(v1, h)
    worst_pair = max(
        network.lemma_dual_pairing(net, x, h) for x in (1, -5, 10, W - 1)
    )
    ok = (worst_energy < 1e-12 and abs(c_delta) < 1e-12
          and abs(c_v1 - 0.25) < 1e-10 and worst_pair < 1e-14)
    report(9, ok, f"energy={worst_energy:.1e} delta_coeff={c_delta:.1e} "
                  f"v1_coeff_dev={abs(c_v1 - 0.25):.1e} "
                  f"pairing={worst_pair:.1e}")


def test_criterion_10_operator_core():
    rng = np.random.default_rng(RNG_MATRICES)
    worst_polar = 0.0
    worst_spec = 0.0
    worst_cayley = 0.0
    worst_adj = 0.0
    for _ in range(50):
        rows = int(rng.integers(2, 21))
        cols = int(rng.integers(2, 21))
        M = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        T = OperatorMatrix(M)
        V, P = polar_decompose(T)
        scale = 1.0 + float(np.max(np.abs(M)))
        worst_polar = max(worst_polar, float(
            np.max(np.abs(V.matrix.matrix @ P.matrix - M))
        ) / scale)
        left = np.linalg.eigvalsh(M.conj().T @ M)
        right = np.linalg.eigvalsh(M @ M.conj().T)
        lnz = np.sort(left[left > 1e-9 * max(left.max(), 1.0)])
        rnz = np.sort(right[right > 1e-9 * max(right.max(), 1.0)])
        if lnz.size == rnz.size:
            worst_spec = max(worst_spec, float(np.max(np.abs(lnz - rnz)))
                             / scale if lnz.size else 0.0)
        else:
            worst_spec = np.inf
        H = M[:rows, :rows] if rows <= cols else M[:cols, :cols]
        H = (H + H.conj().T).real
        C = cayley(OperatorMatrix(H)).matrix
        worst_cayley = max(worst_cayley, float(
            np.max(np.abs(C.conj().T @ C - np.eye(H.shape[0])))
        ))
        back = adjoint(adjoint(T))
        worst_adj = max(worst_adj, float(np.max(np.abs(back.matrix - M))))
    ok = (worst_polar < 1e-9 and worst_spec < 1e-9
          and worst_cayley < 1e-10 and worst_adj < 1e-12)
    report(10, ok, f"polar={worst_polar:.1e} spectra={worst_spec:.1e} "
                   f"cayley={worst_cayley:.1e} adjoint={worst_adj:.1e}")


def test_wall_time_budget():
    elapsed = time.perf_counter() - T0
    print(f"acceptance wall time: {elapsed:.2f}s")
    assert elapsed < 60.0
