import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sympairs.core import DEFAULT_TOL
from sympairs.network import (
    CONVERGES,
    DIVERGES,
    ConductanceSequence,
    EnergyVector,
    FiniteNetwork,
    NetworkError,
    constant_halfline,
    defect_recurrence,
    energy,
    energy_diagonal,
    energy_gram,
    energy_kernel,
    geometric_halfline,
    harmonic_flux,
    laplacian,
    lemma_dual_pairing,
    pair_K_Delta_check,
    parse_graph,
    royden_project,
    twosided_geometric,
    twosided_window_network,
)
from sympairs.suites import run_suite, suite_network

P3_TEXT = """
# path a - b - c with unit conductances
a b 1
b c 1
origin a
"""


def path3():
    return parse_graph(P3_TEXT)


def cycle4():
    return parse_graph("a b 1\nb c 2\nc d 1\nd a 2\n")


def conductance_matrix(net):
    """The symmetric conductance matrix of ``net``, built here from its
    edge arrays, zero on the diagonal."""
    iu, ju, c = net.edges
    cond = np.zeros((len(net), len(net)))
    cond[iu, ju] = cond[ju, iu] = c
    return cond


def test_parse_graph_examples():
    net = path3()
    assert net.vertices == ("a", "b", "c")
    assert net.origin == "a"
    assert conductance_matrix(net)[net.index["b"]].sum() == 2.0
    # origin defaults to the first vertex mentioned
    net = parse_graph("x y 0.5\n")
    assert net.origin == "x"


def test_parse_graph_errors():
    with pytest.raises(NetworkError):
        parse_graph("a a 1\n")
    for c in ("-1", "0", "nan", "inf"):
        with pytest.raises(NetworkError):
            parse_graph(f"a b {c}\n")
    with pytest.raises(NetworkError):
        parse_graph("a b 1\nc d 1\n")
    with pytest.raises(NetworkError):
        parse_graph("# only comments\n")
    with pytest.raises(NetworkError):
        parse_graph("a b 1\norigin\n")
    with pytest.raises(NetworkError):
        parse_graph("a b 1 2\n")


def test_edge_to_unknown_vertex_refused():
    for edge in (("a", "c", 1.0), ("c", "a", 1.0)):
        with pytest.raises(NetworkError, match=r"edge \('[ac]', '[ac]'\)"):
            FiniteNetwork("ab", [edge], "a")


def test_energy_examples():
    net = path3()
    # Dirac energy equals the net conductance at the vertex
    assert energy(net.delta("b"), net.delta("b")) == 2.0
    assert energy(net.delta("a"), net.delta("a")) == 1.0
    const = EnergyVector(net, np.ones(3))
    assert energy(const, const) == 0.0
    u = EnergyVector(net, np.array([0.0, 1.0, 2.0]))
    assert energy(u, u) == 2.0


def test_energy_invariant_under_repinning():
    edges = [("a", "b", 1.0), ("b", "c", 1.0)]
    u_vals = np.array([0.3, 1.0, -0.4])
    nets = [FiniteNetwork("abc", edges, o) for o in "ab"]
    vals = [energy(EnergyVector(n, u_vals), EnergyVector(n, u_vals))
            for n in nets]
    assert abs(vals[0] - vals[1]) < 1e-14


def test_laplacian_examples():
    net = path3()
    const = EnergyVector(net, np.ones(3))
    assert np.max(np.abs(laplacian(const))) == 0.0
    va = EnergyVector(net, np.array([0.0, 1.0, 1.0]))
    assert np.array_equal(laplacian(va), [-1.0, 1.0, 0.0])
    assert np.array_equal(laplacian(net.delta("a")), [1.0, -1.0, 0.0])
    assert np.array_equal(laplacian(net.delta("b")), [-1.0, 2.0, -1.0])


def test_energy_kernel_hand_solves():
    net = path3()
    vb = energy_kernel(net, "b")
    assert np.array_equal(vb.values, [0.0, 1.0, 1.0])
    vc = energy_kernel(net, "c")
    assert np.array_equal(vc.values, [0.0, 1.0, 2.0])
    vo = energy_kernel(net, "a")
    assert np.max(np.abs(vo.values)) == 0.0


def test_energy_kernel_reproduces():
    for net in (path3(), cycle4()):
        rng = np.random.default_rng(30)
        u = EnergyVector(net, rng.normal(size=len(net)))
        for x in net.vertices:
            vx = energy_kernel(net, x)
            assert abs(energy(vx, u) - (u(x) - u(net.origin))) < 1e-12


def test_pair_K_Delta_check_examples():
    assert pair_K_Delta_check(path3()) < 1e-12
    assert pair_K_Delta_check(cycle4()) < 1e-12
    rng = np.random.default_rng(31)
    n = 12
    edges = []
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.append((str(i), str(j), float(rng.uniform(0.1, 2.0))))
    seen = {(x, y) for x, y, _ in edges}
    for _ in range(8):  # chords on pairs not drawn before
        i, j = (str(v) for v in rng.integers(0, n, size=2))
        if i == j or (i, j) in seen or (j, i) in seen:
            continue
        edges.append((i, j, float(rng.uniform(0.1, 2.0))))
        seen.add((i, j))
    net = FiniteNetwork([str(i) for i in range(n)], edges, "0")
    assert pair_K_Delta_check(net) < 1e-11


def test_conductance_sequences():
    assert geometric_halfline(2.0).c(3) == 8.0
    assert constant_halfline().c(7) == 1.0
    two = twosided_geometric(2.0)
    assert two.c(0) == 1.0
    assert two.c(2) == 4.0
    assert two.c(-1) == 1.0
    assert two.c(-3) == 4.0
    with pytest.raises(NetworkError):
        geometric_halfline(2.0).c(-1)


def test_defect_recurrence_geometric_values():
    res = defect_recurrence(geometric_halfline(2.0), 80)
    assert np.max(np.abs(res.psi[:4] - [1.0, 2.0, 3.5, 5.125])) < 1e-12
    assert res.verdict == CONVERGES
    assert not res.overflow
    assert res.rel_residual < 1e-12
    # psi is nondecreasing (it flattens at machine precision) and the
    # energy partials level off
    assert np.all(np.diff(res.psi) >= 0)
    assert res.energy_partials[-1] - res.energy_partials[-5] < 1e-9
    assert np.isfinite(res.l2_psi) and np.isfinite(res.l2_lap_psi)
    assert set(res.thresholds) == {"tail_ratio", "blowup_factor", "stagnation"}


def test_defect_recurrence_interior_identity():
    # hand check at n = 1 for r = 2: c0 (psi1 - psi0) + c1 (psi1 - psi2)
    # + psi1 = 1*(2-1) + 2*(2-3.5) + 2 = 0
    res = defect_recurrence(geometric_halfline(2.0), 10)
    assert abs(res.residuals[1]) < 1e-14


def test_defect_recurrence_constant_diverges():
    res = defect_recurrence(constant_halfline(), 80)
    assert np.max(np.abs(res.psi[:4] - [1.0, 2.0, 5.0, 13.0])) < 1e-9
    assert res.verdict == DIVERGES


def test_defect_recurrence_trivial_start():
    res = defect_recurrence(geometric_halfline(2.0), 10, psi0=0.0)
    assert np.max(np.abs(res.psi)) == 0.0
    assert res.verdict == CONVERGES


def test_defect_recurrence_validation():
    with pytest.raises(NetworkError):
        defect_recurrence(twosided_geometric(2.0), 10)
    with pytest.raises(NetworkError):
        defect_recurrence(geometric_halfline(2.0), 2)


def test_harmonic_flux_examples():
    seq = twosided_geometric(2.0)
    W = 50
    h, eh = harmonic_flux(seq, 1.0, W)
    # energy is flux^2 times the window sum of reciprocal conductances,
    # which tends to 4 as W grows
    assert abs(eh - 4.0) < 1e-9
    assert abs(h(W) - 2.0 * (1.0 - 2.0 ** (-W))) < 1e-12
    assert abs(h(-W) + 2.0 * (1.0 - 2.0 ** (-W))) < 1e-12
    lap = laplacian(h)
    net = h.network
    interior = [net.index[n] for n in range(-W + 1, W)]
    assert np.max(np.abs(lap[interior])) < 1e-14
    h0, e0 = harmonic_flux(seq, 0.0, 5)
    assert np.max(np.abs(h0.values)) == 0.0 and e0 == 0.0
    with pytest.raises(NetworkError):
        harmonic_flux(ConductanceSequence("twosided", "constant", 1.0), 1.0, 5)


def test_royden_project_examples():
    # wide window: the 1/4 coefficient carries a 2^-W truncation error
    seq = twosided_geometric(2.0)
    h, _ = harmonic_flux(seq, 1.0, 50)
    net = h.network
    # the harmonic direction itself splits as (0, h)
    fin, harm, coeff = royden_project(h, h)
    assert abs(coeff - 1.0) < 1e-12
    assert energy(fin, fin) < 1e-12
    # a Dirac mass carries no harmonic component
    fin, harm, coeff = royden_project(net.delta(0), h)
    assert abs(coeff) < 1e-12
    # the one-sided kernel v_1 carries coefficient 1/4
    v1 = energy_kernel(net, 1)
    _, _, coeff = royden_project(v1, h)
    assert abs(coeff - 0.25) < 1e-10
    # finite part is energy-orthogonal to h
    fin, _, _ = royden_project(v1, h)
    assert abs(energy(fin, h)) < 1e-12
    # None means no harmonic direction at all
    fin, harm, coeff = royden_project(v1, None)
    assert coeff == 0.0
    assert np.array_equal(fin.values, v1.values)


def test_lemma_dual_pairing_examples():
    seq = twosided_geometric(2.0)
    h, _ = harmonic_flux(seq, 1.0, 20)
    net = h.network
    for x in (1, -3, 7):
        assert lemma_dual_pairing(net, x, h) < 1e-14
    # constants pair to zero as well
    const = EnergyVector(net, np.ones(len(net)))
    assert lemma_dual_pairing(net, 2, const) == 0.0
    # a Dirac perturbation pairs to |Delta d(x) - Delta d(o)|
    d = net.delta(0)
    lap = laplacian(d)
    for x in (1, 2):
        expect = abs(lap[net.index[x]] - lap[net.index[0]])
        assert abs(lemma_dual_pairing(net, x, d) - expect) < 1e-12


def test_twosided_window_network_shape():
    net = twosided_window_network(twosided_geometric(2.0), 3)
    assert len(net) == 7
    assert net.origin == 0
    assert conductance_matrix(net)[net.index[2], net.index[3]] == 4.0
    with pytest.raises(NetworkError):
        twosided_window_network(geometric_halfline(2.0), 3)


def test_finite_network_validation():
    with pytest.raises(NetworkError):
        FiniteNetwork("ab", [("a", "b", 1.0)], "c")
    with pytest.raises(NetworkError):
        FiniteNetwork("aab", [("a", "b", 1.0)], "a")
    nan = float("nan")  # nan != nan, yet both ends are the one vertex
    with pytest.raises(NetworkError, match="self-loop at nan"):
        FiniteNetwork([nan, 1], [(nan, nan, 1.0), (nan, 1, 1.0)], nan)


@pytest.mark.parametrize("x, y", (("a", "b"), ("b", "a")))
def test_repeated_edge_refused(x, y):
    # a second conductance on the same pair used to overwrite the first
    text = f"a b 1\n{x} {y} 2\norigin a\n"
    named = re.escape(f"edge ({x!r}, {y!r}) given twice")
    with pytest.raises(NetworkError, match=named):
        parse_graph(text)
    with pytest.raises(NetworkError, match=named):
        FiniteNetwork("ab", [("a", "b", 1.0), (x, y, 2.0)], "a")
    rep = run_suite({"suites": [{"kind": "network",
                                 "params": {"graph": text}}]})
    [rec] = rep.records
    assert rec.check == "suite_error" and not rec.passed


# ---------------------------------------------------------------------------
# Reference oracle for the edge-list construction: the per-edge numpy
# writes and dense-row depth-first search it replaced.


def construction_oracle(vertices, edges, origin):
    """(cond, (iu, ju, c)) of a valid graph, built edge by edge; a bad
    one raises the NetworkError of the first check it fails."""
    vertices = tuple(vertices)
    if origin not in vertices:
        raise NetworkError(f"origin {origin!r} is not a vertex")
    index = {v: i for i, v in enumerate(vertices)}
    if len(index) != len(vertices):
        raise NetworkError("duplicate vertex ids")
    n = len(vertices)
    cond = np.zeros((n, n))
    for x, y, c in edges:
        i, j = index.get(x), index.get(y)
        if i is None or j is None:
            raise NetworkError(
                f"edge ({x!r}, {y!r}) names a vertex not in vertices")
        if x == y:
            raise NetworkError(f"self-loop at {x!r} (c_xx must be 0)")
        if not 0 < c < np.inf:
            raise NetworkError(
                f"conductance on ({x!r}, {y!r}) must be finite and > 0")
        if cond[i, j]:
            raise NetworkError(f"edge ({x!r}, {y!r}) given twice")
        cond[i, j] = cond[j, i] = c
    if n > 1 and not cond.any(axis=1).all():  # a row sum may overflow
        raise NetworkError("isolated vertex (zero net conductance)")
    seen, stack = {0}, [0]
    while stack:
        new = set(np.flatnonzero(cond[stack.pop()]).tolist()) - seen
        seen |= new
        stack.extend(new)
    if len(seen) != n:
        raise NetworkError("network is not connected")
    iu, ju = np.nonzero(np.triu(cond))
    return cond, (iu, ju, cond[iu, ju])


#: conductances that are refused, and edge cases that are not
BAD_CONDUCTANCES = (0.0, -0.0, -1.5, float("nan"), float("inf"),
                    -float("inf"))
ODD_CONDUCTANCES = (5e-324, 1e-300, 1e300, np.finfo(float).max, 3, True)


@st.composite
def edge_lists(draw):
    """Vertices v0..v{n-1}, an origin and an edge list that may hold an
    unknown vertex 'zz', self-loops, repeated or reversed edges, bad
    conductances, isolated vertices or several components."""
    n = draw(st.integers(1, 9))
    names = [f"v{i}" for i in range(n)]
    label = st.sampled_from(names + ["zz"])
    cond = st.one_of(st.floats(0.1, 10.0), st.floats(0.1, 10.0),
                     st.floats(0.1, 10.0), st.sampled_from(BAD_CONDUCTANCES),
                     st.sampled_from(ODD_CONDUCTANCES))
    edges = []
    if draw(st.booleans()):  # a spanning tree, so that valid graphs arise
        for i in range(1, n):
            j = draw(st.integers(0, i - 1))
            edges.append((names[i], names[j], draw(st.floats(0.1, 10.0))))
    edges += draw(st.lists(st.tuples(label, label, cond), max_size=6))
    edges = draw(st.permutations(edges))
    origin = draw(st.sampled_from(names + ["zz"]))
    return names, edges, origin


@settings(max_examples=300, deadline=None)
@given(edge_lists())
@example((["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 2.0)], "a"))
@example((["a", "b", "c"], [("a", "b", 1.0)], "a"))  # isolated vertex
@example((["a", "b", "c", "d"], [("a", "b", 1.0), ("c", "d", 1.0)], "a"))
@example((["a", "b"], [("a", "b", 1.0), ("b", "a", 1.0)], "a"))
@example((["a", "b"], [("a", "a", 1.0)], "a"))
@example((["a", "b"], [("a", "zz", 1.0)], "a"))
@example((["a", "b"], [("a", "b", float("nan"))], "a"))
@example((["a"], [], "a"))
@example((["a", "b", "c"], [("a", "b", np.finfo(float).max),
                            ("a", "c", 1e300)], "a"))  # row sum overflows
def test_construction_matches_per_edge_oracle(graph):
    vertices, edges, origin = graph
    try:
        ref = construction_oracle(vertices, edges, origin)
    except NetworkError as exc:
        with pytest.raises(NetworkError) as got:
            FiniteNetwork(vertices, edges, origin)
        assert str(got.value) == str(exc)
        return
    net = FiniteNetwork(vertices, edges, origin)
    cond, ref_edges = ref
    with np.errstate(over="ignore"):  # a row sum may overflow to inf
        want, got = np.diag(cond.sum(axis=1)) - cond, net.laplacian_matrix
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()  # bit for bit
    for got, want in zip(net.edges, ref_edges):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Reference oracles for the batched network layer: the double-difference
# energy and the per-vertex pinned solve that the cached data replaced.


def energy_oracle(net, u, v):
    """(1/2) sum c_xy (u(x)-u(y)) (v(x)-v(y)) over the full conductance
    matrix, and the same sum of absolute terms (the rounding scale)."""
    du = u[:, None] - u[None, :]
    dv = v[:, None] - v[None, :]
    terms = conductance_matrix(net) * du * dv
    return 0.5 * np.sum(terms), 0.5 * np.sum(np.abs(terms))


def kernel_oracle(net, x):
    """v_x from its own solve of the pinned Laplacian."""
    o = net.index[net.origin]
    vals = np.zeros(len(net))
    if net.index[x] == o:
        return vals
    cond = conductance_matrix(net)
    L = np.diag(cond.sum(axis=1)) - cond
    keep = [i for i in range(len(net)) if i != o]
    rhs = np.zeros(len(net))
    rhs[net.index[x]] = 1.0
    vals[keep] = np.linalg.solve(L[np.ix_(keep, keep)], rhs[keep])
    return vals


def tree_plus_chords(rng, n, chords):
    """Connected graph: random spanning tree plus chords, c in [0.1, 2]."""
    edges = {}
    for i in range(1, n):
        edges[(int(rng.integers(0, i)), i)] = rng.uniform(0.1, 2.0)
    for _ in range(chords):
        i, j = sorted(int(v) for v in rng.integers(0, n, size=2))
        if i != j:
            edges[(i, j)] = rng.uniform(0.1, 2.0)
    return [(i, j, float(c)) for (i, j), c in edges.items()]


@st.composite
def connected_networks(draw):
    n = draw(st.integers(2, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    edges = tree_plus_chords(rng, n, draw(st.integers(0, 2 * n)))
    origin = draw(st.integers(0, n - 1))
    return FiniteNetwork(range(n), edges, origin), rng


@settings(max_examples=60, deadline=None)
@given(connected_networks(), st.integers(1, 90), st.integers(1, 90))
def test_energy_gram_matches_double_difference(net_rng, ku, kv):
    # up to 90 columns, so dense draws take the edge-block path
    net, rng = net_rng
    U = rng.normal(size=(len(net), ku))
    V = rng.normal(size=(len(net), kv))
    G = energy_gram(net, U, V)
    for a in range(ku):
        for b in range(0, kv, 7):
            ref, scale = energy_oracle(net, U[:, a], V[:, b])
            assert abs(G[a, b] - ref) <= 1e-12 * max(scale, 1e-300)
    u = EnergyVector(net, U[:, 0])
    v = EnergyVector(net, V[:, 0])
    ref, scale = energy_oracle(net, u.values, v.values)
    assert abs(energy(u, v) - ref) <= 1e-12 * max(scale, 1e-300)


@settings(max_examples=60, deadline=None)
@given(connected_networks())
def test_kernel_matrix_and_suite_on_random_networks(net_rng):
    net, _ = net_rng
    K = net.kernel_matrix
    scale = np.max(np.abs(K))
    for x in net.vertices:
        ref = kernel_oracle(net, x)
        assert np.max(np.abs(K[:, net.index[x]] - ref)) <= 1e-12 * scale
    recs = suite_network(net)
    assert [r.check for r in recs] == [
        "dirac_energy", "kernel_laplacian", "reproducing_property",
        "dirac_pairing", "pair_identity",
    ]
    assert all(r.passed for r in recs), [(r.check, r.residual) for r in recs]


def test_network_data_is_lazy_cached_and_read_only():
    net = cycle4()
    assert energy(net.delta("a"), net.delta("b")) == -1.0
    # the energy form needs only the edge arrays, never the solve or the
    # Laplacian; the edge arrays are the network's one copy of the graph
    assert "edges" in net.__dict__ and not hasattr(net, "cond")
    assert "kernel_matrix" not in net.__dict__
    assert "laplacian_matrix" not in net.__dict__
    iu, ju, c = net.edges
    assert np.all(iu < ju) and len(c) == 4
    K = net.kernel_matrix
    assert net.kernel_matrix is K
    assert net.laplacian_matrix is net.laplacian_matrix
    assert net.laplacian_kernel is net.laplacian_kernel
    assert net.kernel_delta_gram is net.kernel_delta_gram
    for arr in (iu, ju, c, K, net.laplacian_matrix,
                net.laplacian_kernel, net.kernel_delta_gram,
                net.delta("a").values):
        with pytest.raises(ValueError):
            arr[0] = 1
    with pytest.raises(AttributeError, match="FiniteNetwork is immutable"):
        net.kernel_matrix = K
    with pytest.raises(AttributeError, match="EnergyVector is immutable"):
        net.delta("a").values = K[0]
    P = net.delta_matrix()
    for x in net.vertices:
        assert np.array_equal(P[:, net.index[x]], net.delta(x).values)


def test_suite_network_forms_each_energy_gram_once(monkeypatch):
    # E(K, K) and E(K, P) once each; the parent formed E(K, P) three times
    # (once transposed) and the full E(P, P) for its diagonal alone
    from sympairs import network

    rng = np.random.default_rng(17)
    net = FiniteNetwork(range(30), tree_plus_chords(rng, 30, 15), 0)
    K, P = net.kernel_matrix, net.delta_matrix()
    calls = []

    def spy(n, U, V, _real=network.energy_gram):
        calls.append(tuple("K" if np.array_equal(X, K) else
                           "P" if np.array_equal(X, P) else "?"
                           for X in (U, V)))
        return _real(n, U, V)

    monkeypatch.setattr(network, "energy_gram", spy)
    recs = suite_network(net)
    assert sorted(calls) == [("K", "K"), ("K", "P")]
    assert len(recs) == 5 and all(r.passed for r in recs)
    # Lemma 5.15 is the transpose of Thm 5.17: one residual
    assert recs[3].residual == recs[4].residual


def test_energy_diagonal_matches_gram_diagonal():
    rng = np.random.default_rng(18)
    net = FiniteNetwork(range(20), tree_plus_chords(rng, 20, 40), 3)
    for U in (net.delta_matrix(), rng.normal(size=(20, 7)),
              rng.normal(size=(20, 400))):  # 400 columns: edge blocks of 1
        ref = np.diag(energy_gram(net, U, U))
        assert np.allclose(energy_diagonal(net, U), ref, rtol=1e-13,
                           atol=0.0)


def test_suite_network_300_vertices():
    rng = np.random.default_rng(300)
    net = FiniteNetwork(range(300), tree_plus_chords(rng, 300, 150), 0)
    recs = suite_network(net)
    assert len(recs) == 5
    assert all(r.passed and r.residual < 1e-12 for r in recs)


def scan_networks():
    """(name, scale, edges) on vertices 0..n-1: unit paths, whose rounding
    grows with n max|K| = n^2, and random graphs with conductances scaled
    by ``scale``."""
    for n in (200, 1000):
        yield f"path{n}", 1.0, [(i, i + 1, 1.0) for i in range(n - 1)]
    for n in (60, 300):
        edges = tree_plus_chords(np.random.default_rng(n), n, n // 2)
        for s in (1e-6, 1.0, 1e6):
            yield f"random{n}x{s:g}", s, [(i, j, s * c) for i, j, c in edges]


def network_of(edges):
    return FiniteNetwork(range(max(j for _, j, _ in edges) + 1), edges, 0)


SCAN = [pytest.param(s, edges, id=name) for name, s, edges in scan_networks()]


@pytest.mark.parametrize("scale, edges", SCAN)
def test_network_scan_every_record_passes(scale, edges):
    # absolute tolerances failed true identities: the 1000-vertex path and
    # the 1e-6 scale (reproducing property), the 1e6 scale (Dirac energy);
    # with --tol as the floor they pass at a tight tol too
    net = network_of(edges)
    for tol in (DEFAULT_TOL, 1e-13):
        recs = suite_network(net, tol)
        assert all(r.passed for r in recs), [(tol, r.check, r.residual, r.tol)
                                             for r in recs]


@pytest.mark.parametrize("scale, edges", SCAN)
def test_network_scan_kernel_column_mutation_fails(scale, edges):
    net = network_of(edges)
    K = net.kernel_matrix.copy()
    K[:, np.argmax(np.abs(K).max(axis=0))] *= 1 + 1e-6
    K.setflags(write=False)
    net.__dict__["kernel_matrix"] = K  # the cached solve, one column off
    recs = {r.check: r for r in suite_network(net)}
    assert not recs["reproducing_property"].passed


@pytest.mark.parametrize("scale, edges", SCAN)
def test_network_scan_conductance_row_mutation_fails(scale, edges):
    # at scale 1e-6, 1e-9 c(x) is about 1e-15: no floor above --tol hides it
    net = network_of(edges)
    net.laplacian_kernel, net.kernel_delta_gram  # solved from the true L
    L = net.laplacian_matrix.copy()
    x = np.argmax(L.diagonal())
    L[x, x] *= 1 + 1e-9  # c(x) off by 1e-9
    L.setflags(write=False)
    net.__dict__["laplacian_matrix"] = L
    recs = {r.check: r for r in suite_network(net, 1e-16)}
    assert not recs["dirac_energy"].passed


@pytest.mark.parametrize("target", ["K", "c"])
def test_tight_tol_catches_an_error_of_1e_11_relative(target):
    # 20 vertices, conductances in [1e-3, 2e-2]: max c(x) max|K| = 12, so at
    # --tol 1e-13 the allowances lie below 2e-13, while the fixed floors
    # (1e-10 for K, 1e-12 for c(x) <= 0.05) admitted these errors
    edges = [(i, j, 0.01 * c) for i, j, c in
             tree_plus_chords(np.random.default_rng(20), 20, 10)]
    assert all(r.passed for r in suite_network(network_of(edges), 1e-13))
    net = network_of(edges)
    if target == "K":  # Delta K from one kernel column off by 1e-11
        K = net.kernel_matrix.copy()
        K[:, np.argmax(np.abs(K).max(axis=0))] *= 1 + 1e-11
        K.setflags(write=False)
        net.__dict__["kernel_matrix"] = K
        record = "kernel_laplacian"
    else:  # c(x) off by 1e-11, after every solve
        net.laplacian_kernel, net.kernel_delta_gram
        L = net.laplacian_matrix.copy()
        x = np.argmax(L.diagonal())
        L[x, x] *= 1 + 1e-11
        L.setflags(write=False)
        net.__dict__["laplacian_matrix"] = L
        record = "dirac_energy"
    recs = {r.check: r for r in suite_network(net, 1e-13)}
    assert not recs[record].passed, recs[record]


@pytest.mark.parametrize("expect", [5, "converges"])
def test_unknown_defect_expect_is_a_suite_error(expect):
    [rec] = run_suite({"suites": [{"kind": "defect",
                                   "params": {"expect": expect}}]}).records
    assert rec.check == "suite_error" and not rec.passed
    assert "'expect'" in rec.message


def residual_oracle(seq, psi, nmax):
    """Per-node residuals and scales of defect_recurrence, as a loop."""
    residuals = np.zeros(nmax + 1)
    scales = np.ones(nmax + 1)
    residuals[0] = seq.c(0) * (psi[0] - psi[1]) + psi[0]
    scales[0] = 1.0 + seq.c(0) * (abs(psi[0]) + abs(psi[1])) + abs(psi[0])
    for n in range(1, nmax):
        cp, cn = seq.c(n - 1), seq.c(n)
        residuals[n] = (
            cp * (psi[n] - psi[n - 1]) + cn * (psi[n] - psi[n + 1]) + psi[n]
        )
        scales[n] = (
            1.0
            + cp * (abs(psi[n]) + abs(psi[n - 1]))
            + cn * (abs(psi[n]) + abs(psi[n + 1]))
            + abs(psi[n])
        )
    return residuals, scales


@pytest.mark.parametrize("seq", [
    geometric_halfline(2.0), geometric_halfline(1.5), geometric_halfline(0.8),
    constant_halfline(1.0), constant_halfline(3.0),
])
@pytest.mark.parametrize("nmax", [3, 10, 80])
def test_defect_residuals_match_loop_oracle(monkeypatch, seq, nmax):
    calls, c = [], ConductanceSequence.c

    def counted(self, n):
        calls.append(n)
        return c(self, n)

    monkeypatch.setattr(ConductanceSequence, "c", counted)
    res = defect_recurrence(seq, nmax, psi0=1.5)
    # each c(n) read once, after the overflow check reads c(nmax - 1)
    assert len(calls) <= nmax + 1
    residuals, scales = residual_oracle(seq, res.psi, nmax)
    assert np.array_equal(res.residuals, residuals)
    if not res.overflow:
        expect = np.max(np.abs(residuals[:nmax]) / scales[:nmax])
        assert res.rel_residual == expect


def test_defect_overflow_refused():
    # 2.0**1024 is past the float range; nmax = 1024 still fits
    assert defect_recurrence(geometric_halfline(2.0), 1024).verdict == CONVERGES
    with pytest.raises(NetworkError, match="overflows"):
        defect_recurrence(geometric_halfline(2.0), 1025)
    with pytest.raises(NetworkError, match="overflows"):
        geometric_halfline(2.0).c(2000)
    with pytest.raises(NetworkError, match="overflows"):
        twosided_window_network(twosided_geometric(2.0), 1100)
    for bad in (0.0, -2.0, float("nan")):
        with pytest.raises(NetworkError):
            geometric_halfline(bad)
    rep = run_suite({"suites": [{"kind": "defect",
                                 "params": {"nmax": 2000}}]})
    assert [r.check for r in rep.records] == ["suite_error"]
    assert not rep.all_passed and "overflows" in rep.records[0].message


@pytest.mark.parametrize("seq,nmax", [
    (geometric_halfline(1e-300), 80),  # c(2) underflows to 0
    (geometric_halfline(1.0), 3000),
    (constant_halfline(2.0), 3000),
])
def test_defect_float_edge_is_overflow_without_warnings(seq, nmax):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = defect_recurrence(seq, nmax)
    assert res.overflow and res.verdict == DIVERGES


def test_network_vertex_cap(monkeypatch, tmp_path, capsys):
    from sympairs import cli, core, network

    def refuse(*args, **kwargs):
        raise AssertionError("n x n array allocated before the byte check")

    # the memory budget prices ten n x n float64 arrays: a path of 3,172
    # vertices is the largest admitted, and refusing 3,173 comes before
    # any n x n array; an admitted network builds its first one, the
    # Laplacian, on first use
    monkeypatch.setattr(network.np, "zeros", refuse)
    path = "".join(f"v{i} v{i + 1} 1\n" for i in range(3172))
    with pytest.raises(NetworkError,
                       match=r"3173 vertices refused: needs 768\.2 MiB"):
        parse_graph(path)
    net = parse_graph(path[:path.rindex("v3171 ")])
    with pytest.raises(AssertionError, match="allocated"):
        net.laplacian_matrix
    monkeypatch.undo()
    # a budget of 30 vertices: their edge phase is priced below it
    monkeypatch.setattr(core, "MAX_BYTES", 10 * 8 * 30 * 30)
    path = "".join(f"v{i} v{i + 1} 1\n" for i in range(30))
    with pytest.raises(NetworkError, match="31 vertices refused"):
        parse_graph(path)
    assert len(parse_graph(path[:path.rindex("v29 ")])) == 30
    graph = tmp_path / "g.txt"
    graph.write_text(path)
    assert cli.main(["check", "network", "-g", str(graph)]) == 2
    assert "31 vertices refused" in capsys.readouterr().err
    rec, = run_suite({"suites": [{"kind": "network", "params": {
        "graph": graph.read_text()}}]}).records
    assert rec.check == "suite_error" and not rec.passed


def test_defect_result_arrays_are_read_only():
    res = defect_recurrence(geometric_halfline(2.0), 10)
    for arr in (res.psi, res.residuals, res.energy_partials):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_defect_nmax_cap(monkeypatch):
    from sympairs import network

    res = defect_recurrence(constant_halfline(1.0), 10**6)
    assert len(res.psi) == 10**6 + 1
    with pytest.raises(NetworkError, match="nmax >= 3"):
        defect_recurrence(constant_halfline(1.0), 2)

    def refuse(*args, **kwargs):
        raise AssertionError("array allocated")

    # the memory budget prices eleven (nmax + 1) float64 arrays: 9,151,207
    # is the largest nmax admitted, and a larger one allocates nothing
    monkeypatch.setattr(network.np, "zeros", refuse)
    with pytest.raises(AssertionError, match="allocated"):
        defect_recurrence(constant_halfline(1.0), 9_151_207)
    for nmax in (9_151_208, 10**18):
        with pytest.raises(NetworkError, match=f"nmax={nmax} refused"):
            defect_recurrence(constant_halfline(1.0), nmax)


@pytest.mark.parametrize("graph", [
    "a b 1e300\nb c 1e-300\norigin a\n",  # max c(x) max|K| overflows
    "a b 1e-308\n",  # n max|K| overflows
])
def test_overflowing_rounding_scale_refused(graph, tmp_path, capsys):
    # a tolerance of inf would pass any residual (2.0e292 on the second
    # graph), so the network is refused instead of judged
    from sympairs import cli

    with pytest.raises(NetworkError, match="past the float range"):
        suite_network(parse_graph(graph))
    path = tmp_path / "g.txt"
    path.write_text(graph)
    assert cli.main(["check", "network", "-g", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a rounding scale") and err.count("\n") == 1
    rec, = run_suite({"suites": [{"kind": "network",
                                  "params": {"graph": graph}}]}).records
    assert rec.check == "suite_error" and not rec.passed
