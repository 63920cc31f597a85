"""Energy-space computations on resistance networks.

Finite networks get exact linear-solve machinery (energy form, graph
Laplacian, energy kernel) with the quotient by constants realized by
pinning the representative to vanish at the origin.  A network is built
from its edge list in one pass, which yields the read-only edge arrays
and conductance matrix; it caches the Laplacian, the kernel matrix (one
pinned-Laplacian solve), the Laplacian of the kernel and the
kernel-Dirac energy Gram on first use.  Energy is only ever the
incidence form ``energy_gram`` (or its diagonal ``energy_diagonal``)
over the edges, never the Laplacian, so identities pairing the two
compare independent computations.  The half-line recurrence machinery
exhibits the genuine defect vector ``Laplacian psi = -psi`` that no
finite matrix section can produce, and the two-sided model carries
nonconstant finite-energy harmonics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Immutable, check_budget, readonly


class NetworkError(ValueError):
    pass


class FiniteNetwork(Immutable):
    """Connected weighted graph with a distinguished origin, built from
    its edge list ``(x, y, c)``.

    One pass over the edges validates them (known vertices, no self-loop,
    finite c > 0, no edge given twice in either orientation) and yields
    the read-only ``edges`` arrays ``(iu, ju, c)``, one entry per edge
    iu < ju in row-major order, and the symmetric conductance matrix
    ``cond``, zero on the diagonal.  Every vertex has positive net
    conductance.
    """

    __slots__ = ("vertices", "index", "cond", "origin",
                 "__dict__")  # __dict__ holds edges and cached properties

    def __init__(self, vertices, edges, origin):
        vertices = tuple(vertices)
        if origin not in vertices:
            raise NetworkError(f"origin {origin!r} is not a vertex")
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise NetworkError("duplicate vertex ids")
        n = len(vertices)
        # before any n x n array: suite_network holds twelve float64 ones
        # (cond, L, the pinned block and its identity, K, LK, the kernel-
        # Dirac Gram, P, expect and energy_gram's block differences)
        check_budget(12 * 8 * n * n, f"{n} vertices", NetworkError)
        # one pass over the edge list: validate, then collect each edge as
        # an index pair lo < hi with its conductance, and adjacency lists
        lo, hi, cs, given = [], [], [], set()
        adj = [[] for _ in range(n)]
        for x, y, c in edges:
            i, j = index.get(x), index.get(y)
            if i is None or j is None:
                raise NetworkError(
                    f"edge ({x!r}, {y!r}) names a vertex not in vertices")
            if i == j:
                raise NetworkError(f"self-loop at {x!r} (c_xx must be 0)")
            if not 0 < c < np.inf:
                raise NetworkError(
                    f"conductance on ({x!r}, {y!r}) must be finite and > 0")
            if i > j:
                i, j = j, i
            if (i, j) in given:
                raise NetworkError(f"edge ({x!r}, {y!r}) given twice")
            given.add((i, j))
            lo.append(i)
            hi.append(j)
            cs.append(c)
            adj[i].append(j)
            adj[j].append(i)
        if n > 1 and not all(adj):
            raise NetworkError("isolated vertex (zero net conductance)")
        seen, stack = [False] * n, [0]  # connectivity by depth-first search
        seen[0] = True
        while stack:
            for j in adj[stack.pop()]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        if not all(seen):
            raise NetworkError("network is not connected")
        # edges in row-major (iu < ju) order, the order the Grams sum in
        lo, hi = np.array(lo, dtype=np.intp), np.array(hi, dtype=np.intp)
        order = np.lexsort((hi, lo))
        iu, ju, c = lo[order], hi[order], np.array(cs, dtype=float)[order]
        cond = np.zeros((n, n))
        cond[iu, ju] = c
        cond[ju, iu] = c
        self._fill(vertices=vertices, index=index, cond=cond, origin=origin,
                   edges=tuple(map(readonly, (iu, ju, c))))

    def __len__(self):
        return len(self.vertices)

    @cached_property
    def laplacian_matrix(self) -> np.ndarray:
        """Read-only ``diag(c(x)) - cond``."""
        return readonly(np.diag(self.cond.sum(axis=1)) - self.cond)

    @cached_property
    def kernel_matrix(self) -> np.ndarray:
        """Read-only K whose column x is the energy kernel v_x, from one
        pinned-Laplacian solve; the origin's row and column are zero."""
        n, o = len(self), self.index[self.origin]
        keep = np.arange(n) != o
        K = np.zeros((n, n))
        try:
            K[np.ix_(keep, keep)] = np.linalg.solve(
                self.laplacian_matrix[np.ix_(keep, keep)], np.eye(n - 1)
            )
        except np.linalg.LinAlgError as exc:
            raise NetworkError(
                "singular pinned Laplacian on a connected network "
                "(internal inconsistency)"
            ) from exc
        return readonly(K)

    @cached_property
    def laplacian_kernel(self) -> np.ndarray:
        """Read-only ``laplacian_matrix @ kernel_matrix``: column x is
        Delta v_x, which the pair and kernel checks both read."""
        return readonly(self.laplacian_matrix @ self.kernel_matrix)

    @cached_property
    def kernel_delta_gram(self) -> np.ndarray:
        """Read-only energy Gram ``energy_gram(K, P)`` of the kernel matrix
        against the pinned Dirac masses: entry (x, y) is <v_x, delta_y>_E.
        The reproducing, Dirac-pairing and pair checks all read it."""
        return readonly(energy_gram(self, self.kernel_matrix,
                                    self.delta_matrix()))

    def delta(self, x) -> "EnergyVector":
        """Dirac mass at x as an energy-space representative."""
        vals = np.zeros(len(self))
        vals[self.index[x]] = 1.0
        return EnergyVector(self, vals)

    def delta_matrix(self) -> np.ndarray:
        """Columns are the pinned Dirac masses ``delta(x)``, in vertex order."""
        P = np.eye(len(self))
        P[:, self.index[self.origin]] -= 1.0
        return P


class EnergyVector(Immutable):
    """Function on the vertices, pinned to vanish at the origin.

    Pinning picks the representative modulo constants; all energy inner
    products are invariant under re-pinning at a different vertex.
    Immutable: ``values`` is a read-only, pinned copy of the array given.
    """

    __slots__ = ("network", "values")

    def __init__(self, network: FiniteNetwork, values):
        vals = np.array(values, dtype=float)
        if vals.shape != (len(network),):
            raise NetworkError("value vector length mismatch")
        vals -= vals[network.index[network.origin]]
        self._fill(network=network, values=vals)

    def __call__(self, x) -> float:
        return float(self.values[self.network.index[x]])

    def __add__(self, other):
        self._same(other)
        return EnergyVector(self.network, self.values + other.values)

    def __sub__(self, other):
        self._same(other)
        return EnergyVector(self.network, self.values - other.values)

    def __rmul__(self, scalar):
        return EnergyVector(self.network, scalar * self.values)

    def _same(self, other):
        if self.network is not other.network:
            raise NetworkError("energy vectors live on different networks")


def _edge_blocks(net: FiniteNetwork, columns: int):
    """Consecutive blocks ``(iu, ju, c[:, None])`` of the edge arrays, so
    that an (edges x columns) temporary holds at most max(n^2, columns)
    entries, whatever the edge count."""
    iu, ju, c = net.edges
    block = max(len(net) ** 2 // max(columns, 1), 1)
    for s in range(0, len(c), block):
        yield iu[s:s + block], ju[s:s + block], c[s:s + block, None]


def energy_gram(net: FiniteNetwork, U: np.ndarray,
                V: np.ndarray) -> np.ndarray:
    """``[<U[:, a], V[:, b]>_E]``: sums c (u(x)-u(y)) (v(x)-v(y)) once per
    edge, never via the Laplacian, in edge blocks (``_edge_blocks``)."""
    G = np.zeros((U.shape[1], V.shape[1]))
    for a, b, c in _edge_blocks(net, max(U.shape[1], V.shape[1])):
        G += (U[a] - U[b]).T @ (c * (V[a] - V[b]))
    return G


def energy_diagonal(net: FiniteNetwork, U: np.ndarray) -> np.ndarray:
    """``[<U[:, a], U[:, a]>_E]``, the diagonal of ``energy_gram(net, U,
    U)`` from the incidence squares c (u(x)-u(y))^2 alone, with no
    columns x columns Gram."""
    d = np.zeros(U.shape[1])
    for a, b, c in _edge_blocks(net, U.shape[1]):
        D = U[a] - U[b]
        d += (D * (c * D)).sum(axis=0)
    return d


def energy(u: EnergyVector, v: EnergyVector) -> float:
    """Dirichlet form (1/2) sum c_xy (u(x)-u(y)) (v(x)-v(y))."""
    u._same(v)
    return float(
        energy_gram(u.network, u.values[:, None], v.values[:, None])[0, 0]
    )


def laplacian(u: EnergyVector) -> np.ndarray:
    """Pointwise (Delta u)(x) = sum_y c_xy (u(x) - u(y)), in vertex order."""
    return u.network.laplacian_matrix @ u.values


def energy_kernel(net: FiniteNetwork, x) -> EnergyVector:
    """Reproducing element v_x: solves Delta v = delta_x - delta_o, v(o) = 0.

    Satisfies ``<v_x, u>_E = u(x) - u(o)`` for every u; v_o is the zero
    representative.  A column of ``net.kernel_matrix``.
    """
    return EnergyVector(net, net.kernel_matrix[:, net.index[x]])


def pair_K_Delta_check(net: FiniteNetwork) -> float:
    """Pairing residual of the Laplacian against the inclusion operator.

    The Laplacian maps the kernel span into square-summable functions;
    the inclusion sends Dirac masses into the energy space.  Returns
    ``max |<Delta u, phi>_2 - <u, K phi>_E|`` over the basis pairs
    u = v_x (x != o), phi = delta_y.
    """
    return float(np.max(np.abs(net.laplacian_kernel.T
                               - net.kernel_delta_gram)))


# ---------------------------------------------------------------------------
# Conductance sequences and recurrence machinery

HALFLINE = "halfline"
TWOSIDED = "twosided"


@dataclass(frozen=True)
class ConductanceSequence:
    """Closed-form edge conductances on a half-line or two-sided path."""

    kind: str
    rule: str
    param: float

    def __post_init__(self):
        if self.kind not in (HALFLINE, TWOSIDED):
            raise NetworkError(f"unknown kind {self.kind!r}")
        if self.rule not in ("geometric", "constant"):
            raise NetworkError(f"unknown rule {self.rule!r}")
        if not self.param > 0:
            raise NetworkError("conductance parameter must be > 0")

    def c(self, n: int) -> float:
        """Conductance of the edge (n, n+1); refused past the float range."""
        if self.kind == HALFLINE and n < 0:
            raise NetworkError("half-line sequences start at n = 0")
        if self.rule == "constant":
            return self.param
        k = n if self.kind == HALFLINE else max(n, -n - 1)
        try:
            return self.param**k
        except OverflowError:
            raise NetworkError(
                f"conductance {self.param!r}**{k} overflows a float"
            ) from None


def geometric_halfline(r: float) -> ConductanceSequence:
    return ConductanceSequence(HALFLINE, "geometric", r)


def constant_halfline(c: float = 1.0) -> ConductanceSequence:
    return ConductanceSequence(HALFLINE, "constant", c)


def twosided_geometric(r: float = 2.0) -> ConductanceSequence:
    return ConductanceSequence(TWOSIDED, "geometric", r)


CONVERGES = "CONVERGES"
DIVERGES = "DIVERGES"
INCONCLUSIVE = "INCONCLUSIVE"

#: verdict thresholds, reported with every result so inconclusive runs
#: are diagnosable
TAIL_RATIO = 0.9
BLOWUP_FACTOR = 1e6
STAGNATION = 1e-12


@dataclass(frozen=True)
class DefectResult:
    psi: np.ndarray
    residuals: np.ndarray
    rel_residual: float
    energy_partials: np.ndarray
    verdict: str
    overflow: bool
    l2_psi: float
    l2_lap_psi: float
    thresholds: dict


def defect_recurrence(seq: ConductanceSequence, nmax: int,
                      psi0: float = 1.0) -> DefectResult:
    """Solve ``Delta psi = -psi`` on the half-line by forward recurrence.

    Boundary node: psi(1) = psi(0) (1 + 1/c_0).  Interior node n:
    psi(n+1) = psi(n) + (c_{n-1}/c_n)(psi(n) - psi(n-1)) + psi(n)/c_n.

    A finite-energy nonzero solution is a defect vector, witnessing that
    the energy Laplacian paired with the inclusion is not maximal.  The
    convergence verdict applies the module thresholds to the partial
    energy sums; overflow is reported as divergence with a flag.
    """
    if seq.kind != HALFLINE:
        raise NetworkError("defect_recurrence needs a half-line sequence")
    if nmax < 3:
        raise NetworkError(f"need nmax >= 3, got {nmax}")
    # before any allocation: eleven (nmax + 1) float64 arrays (psi and its
    # shift, c and its shift, residuals, scales and their temporaries,
    # energy increments and partial sums)
    check_budget(11 * 8 * (nmax + 1), f"nmax={nmax}", NetworkError)
    seq.c(nmax - 1)  # refuse an overflowing nmax before allocating
    psi = np.zeros(nmax + 1)
    psi[0] = psi0
    overflow = False
    with np.errstate(over="raise", invalid="raise"):
        try:
            psi[1] = psi[0] * (1.0 + 1.0 / seq.c(0))
            for n in range(1, nmax):
                cn, cp = seq.c(n), seq.c(n - 1)
                psi[n + 1] = (
                    psi[n] + (cp / cn) * (psi[n] - psi[n - 1]) + psi[n] / cn
                )
        except (FloatingPointError, ZeroDivisionError):  # c(n) underflowed
            overflow = True
    # pointwise residuals of Delta psi + psi at computed interior nodes,
    # plus a backward-error scale: once psi flattens at machine precision
    # the raw residual picks up c(n) times rounding noise, so each node
    # is judged relative to the magnitudes of the terms actually summed;
    # c(-1) = 0 and psi(-1) = psi(0) turn node 0 into the boundary node
    cn = np.array([seq.c(n) for n in range(nmax)])
    cp, prev = np.r_[0.0, cn[:-1]], np.r_[psi[0], psi[:nmax - 1]]
    here, nxt = psi[:nmax], psi[1:]
    residuals, scales = np.zeros(nmax + 1), np.ones(nmax + 1)
    # inf/nan residuals are judged below; an inf scale leaves a node unjudged
    with np.errstate(over="ignore", invalid="ignore"):
        residuals[:nmax] = cp * (here - prev) + cn * (here - nxt) + here
        scales[:nmax] = (1.0 + cp * (abs(here) + abs(prev))
                         + cn * (abs(here) + abs(nxt)) + abs(here))
    if overflow or not np.all(np.isfinite(residuals[:nmax])):
        rel_residual = float("nan")
    else:
        rel_residual = float(
            np.max(np.abs(residuals[:nmax]) / scales[:nmax])
        )
    # inf or nan (0 * inf) energy is a DIVERGES verdict
    with np.errstate(over="ignore", invalid="ignore"):
        increments = cn * np.diff(psi) ** 2
        partials = np.cumsum(increments)
    thresholds = {
        "tail_ratio": TAIL_RATIO,
        "blowup_factor": BLOWUP_FACTOR,
        "stagnation": STAGNATION,
    }
    if overflow or not np.all(np.isfinite(partials)):
        verdict = DIVERGES
        overflow = True
    elif psi0 == 0.0 or partials[-1] == 0.0:
        verdict = CONVERGES
    elif partials[-1] > BLOWUP_FACTOR * partials[2]:
        verdict = DIVERGES
    else:
        tail = increments[-max(nmax // 4, 1):]
        a, b = tail[:-1], tail[1:]
        ratio_ok = bool(np.all(b[a > 0] / a[a > 0] < TAIL_RATIO))
        stagnated = increments[-1] < STAGNATION * partials[-1]
        verdict = CONVERGES if (ratio_ok and stagnated) else INCONCLUSIVE
    # residual(n) = Delta psi(n) + psi(n), so Delta psi = residual - psi
    lap_vals = residuals[:nmax] - psi[:nmax]
    with np.errstate(over="ignore"):  # inf norms are reported as such
        l2_psi = float(np.sqrt(np.sum(psi[:nmax] ** 2)))
        l2_lap = float(np.sqrt(np.sum(lap_vals**2)))
    return DefectResult(
        psi, residuals, rel_residual, partials, verdict, overflow,
        l2_psi, l2_lap, thresholds,
    )


def twosided_window_network(seq: ConductanceSequence, W: int) -> FiniteNetwork:
    """Finite window n in [-W, W] of a two-sided path, origin at 0."""
    if seq.kind != TWOSIDED:
        raise NetworkError("need a two-sided sequence")
    vertices = list(range(-W, W + 1))
    edges = [(n, n + 1, seq.c(n)) for n in range(-W, W)]
    return FiniteNetwork(vertices, edges, 0)


def harmonic_flux(seq: ConductanceSequence, flux: float, W: int):
    """Constant-flux harmonic function on a two-sided window.

    h(0) = 0 and h(n+1) - h(n) = flux / c_n, so the Laplacian vanishes
    at every interior node and the energy is flux^2 * sum 1/c_n over the
    window.  Requires the reciprocal-conductance tail to be summable
    (tail ratio < 1); otherwise only constants are harmonic.
    """
    if seq.kind != TWOSIDED:
        raise NetworkError("harmonic_flux needs a two-sided sequence")
    if W < 2:
        raise NetworkError("need window W >= 2")
    r_pos = (1.0 / seq.c(W - 1)) / (1.0 / seq.c(W - 2))
    r_neg = (1.0 / seq.c(-W + 1)) / (1.0 / seq.c(-W + 2))
    if flux != 0.0 and (r_pos >= 1.0 or r_neg >= 1.0):
        raise NetworkError(
            "sum of reciprocal conductances does not converge: "
            "only constants are harmonic"
        )
    net = twosided_window_network(seq, W)
    vals = np.zeros(len(net))
    for n in range(0, W):
        vals[net.index[n + 1]] = vals[net.index[n]] + flux / seq.c(n)
    for n in range(0, -W, -1):
        vals[net.index[n - 1]] = vals[net.index[n]] - flux / seq.c(n - 1)
    h = EnergyVector(net, vals)
    return h, energy(h, h)


def royden_project(u: EnergyVector, h: EnergyVector | None,
                   tol: float = 1e-12):
    """Split u into its finitely-supported and harmonic parts.

    ``h`` spans the harmonic component (pass None on genuinely finite
    networks, where only constants are harmonic and everything is in the
    finitely-supported closure).  Returns (fin, harm, coefficient).
    """
    if h is None:
        return u, 0.0 * u, 0.0
    u._same(h)
    eh = energy(h, h)
    if eh < tol:
        raise NetworkError("harmonic direction has vanishing energy")
    coeff = energy(h, u) / eh
    harm = coeff * h
    return u - harm, harm, coeff


def lemma_dual_pairing(net: FiniteNetwork, x, h: EnergyVector) -> float:
    """|<Delta_E v_x, h>_E| computed two ways; returns the Laplacian route.

    By the Dirac-pairing identity this equals |Delta h(x) - Delta h(o)|,
    which vanishes identically for harmonic h.
    """
    lap_h = laplacian(h)
    direct = abs(
        lap_h[net.index[x]] - lap_h[net.index[net.origin]]
    )
    # cross-check through the energy form with the dipole image
    img = net.delta(x) - net.delta(net.origin)
    via_energy = abs(energy(img, h))
    if abs(direct - via_energy) > 1e-9 * (1.0 + abs(direct)):
        raise NetworkError("internal inconsistency in dual pairing")
    return float(direct)


def parse_graph(text: str) -> FiniteNetwork:
    """Parse the edge-list format: lines ``x y c``, plus ``origin x``.

    Blank lines and ``#`` comments are ignored; the origin defaults to
    the first vertex mentioned.
    """
    edges = []
    origin = None
    order = {}  # vertices in order of first mention
    for lineno, line in enumerate(text.splitlines(), 1):
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "origin":
            if len(parts) != 2:
                raise NetworkError(f"line {lineno}: malformed origin line")
            origin = parts[1]
            continue
        try:
            x, y, c = parts
            edges.append((x, y, float(c)))
        except ValueError:
            raise NetworkError(f"line {lineno}: expected 'x y c' with a "
                               "numeric c") from None
        order[x] = order[y] = None
    if not edges:
        raise NetworkError("no edges in graph input")
    if origin is None:
        origin = next(iter(order))
    return FiniteNetwork(order, edges, origin)
