"""Residual-check suites over the four math modules.

Each suite function returns a list of report records.  ``run_entry``
is the one map from a suite kind and its params to a suite call; both
``run_suite`` (the batch) and ``sympairs check`` go through it.  Bad
input never propagates as an exception out of ``run_suite``: it becomes
a failed record.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

from . import chaos, modular, network, pairs
from .core import (
    CONJUGATE,
    DEFAULT_TOL,
    adjoint,
    check_budget,
    not_bool,
    parse_tol,
    rounding_tol,
)
from .report import Record, Report, make_record


def suite_pair(spec: pairs.SymmetricPairSpec, tol: float = DEFAULT_TOL):
    # before L: the peak holds about 4.1 complex (n1 + n2)^2 arrays (L, L*
    # built two ways, their differences) beside A and B, at most half one
    n1, n2 = spec.dim_h1, spec.dim_h2
    check_budget(5 * 16 * (n1 + n2) ** 2, f"pair of dimensions {n1} and {n2}",
                 pairs.PairError)
    # |B - A*| once (|A - B*| has the same entries); tol alone judges each
    res = pairs.check_pair(spec)
    L = pairs.build_L(spec)
    return [
        make_record("pair", "pair_identity",
                    "Eq (2.3)" if spec.linearity == CONJUGATE else "Eq (2.1)",
                    res, tol),
        make_record("pair", "block_symmetry", "Thm 2.17",
                    pairs.symmetry_defect(L), tol),
        make_record("pair", "block_adjoint", "Cor 2.18",
                    np.max(np.abs(pairs.build_Lstar(spec).matrix
                                  - adjoint(L).matrix)), tol),
        make_record("pair", "maximality", "Lemma 2.10", res, tol,
                    message=f"|A-B*|={res:.3e} |B-A*|={res:.3e}"),
    ]


def suite_malliavin(d: int, N: int, tol: float = DEFAULT_TOL):
    if d < 1 or N < 2:  # the pair sections need degree-1 functions
        raise chaos.ChaosError("need d >= 1 and N >= 2")
    # beside four (B, d) int64 arrays (alphas, ladders, derivation_residual's
    # per-slot down tables of a failing table) and 1 MiB of small ones, the
    # two pair sections hold d n2 coordinate triples each (32 bytes: row,
    # col, complex value), and check_pair's sorted copies and per-coordinate
    # sums up to seven more
    basis_price = chaos.basis_bytes(d, N)  # refuses N >= 170 first
    B, n2 = math.comb(N + d, d), math.comb(N - 2 + d, d)
    section, what = 32 * d * n2, f"d={d}, N={N}"
    live = 32 * B * d + 2 * section + 2**20
    cheap = max(basis_price, live + 7 * section)
    check_budget(cheap, what, chaos.ChaosError)
    # the O(N) term count once that passed: per Eq 3.14 term 12 + 7 d int64
    # or float64 entries (product_terms' t, p, q, gamma and weights,
    # derivation_residual's table positions, suffix products and sums, and
    # for a failing table the terms' ranks), and the (N + 1)^3 lin table
    terms = 8 * (12 + 7 * d) * chaos.term_count(d, N) + 8 * (N + 1) ** 3
    check_budget(max(cheap, live + terms), what, chaos.ChaosError)
    basis = chaos.basis_build(d, N)
    # symmetric-pair identity for the derivative/divergence sections
    spec = pairs.SymmetricPairSpec(*chaos.pair_sections(basis))
    # kernel of the derivative section is the constants
    kdim = chaos.kernel_dimension(basis)
    # exponential vectors: inner product and eigen-style identity, with
    # the degree-N truncation of exp(|k|^2) summed independently in 1-D
    k = np.eye(d)[0] * 0.5
    e1, tail1 = chaos.exp_vector(k, basis)
    ksq = float(k @ k)
    series = math.fsum(ksq**n / math.factorial(n) for n in range(N + 1))
    diff = chaos.number_operator(e1) - (
        k[0] * chaos.mult_phi(0, e1)[0] - ksq * e1)
    edge_tol = max(tol, (N + 2) * (tail1 ** 0.5))
    pair_res = pairs.check_pair(spec)  # maximality is B = A*
    checks = [
        ("pair_identity", "Eq (3.15)", pair_res, tol, ""),
        ("section_maximality", "Thm 3.13", pair_res, tol, ""),
        ("ibp_identity", "Eq (3.11)", chaos.ibp_residual(basis), tol, ""),
        ("derivation_identity", "Eq (3.14)", chaos.derivation_residual(basis),
         tol, ""),
        # annihilation + creation = coordinate multiplication
        ("mult_split", "Cor 3.14", chaos.mult_split_residual(basis), tol, ""),
        ("kernel_dimension", "Cor 3.18", abs(kdim - 1), 0.5, f"dim={kdim}"),
        # the number operator acts as multiplication by the level
        ("number_operator", "Cor 3.18",
         abs(basis.number_diagonal - basis.degrees).max(), tol, ""),
        ("exp_inner_product", "Eq (3.3)",
         abs(chaos.h1_inner(e1, e1).real - series), tol,
         f"tail_bound={tail1:.3e}"),
        ("exp_number_identity", "Cor 3.17",
         abs(chaos.h1_inner(diff, diff)) ** 0.5, edge_tol,
         f"edge_tol={edge_tol:.3e}"),
    ]
    return [make_record("malliavin", *check) for check in checks]


def suite_modular(n: int, rho, t_list, tol: float = DEFAULT_TOL):
    sf = modular.standard_form(n, rho)
    md = modular.modular_data(sf)
    S, F, Mj, alg = md.S, md.F, md.J.matrix, sf.alg
    eye = np.eye(Mj.shape[0])
    w = md.eig[0]  # cond(Delta) = w[-1] / w[0]: Delta is PSD
    cond_delta = w[-1] / w[0]
    # the S solve's span matrix is (1 (x) xi^T) / sqrt(n), so its condition
    # number is cond(rho)^{1/2} = cond(Delta)^{1/4}: no SVD needed
    cond = cond_delta ** 0.25
    # rounding scales: 1 for M'' from orthonormal bases; cond(rho) =
    # cond(Delta)^{1/2} for S, F and S x S; cond(Delta) for J = S
    # Delta^{-1/2} and for the oracle rho (x) conj(rho^{-1})
    tol_1, tol_rho, tol_delta = (rounding_tol(tol, scale) for scale in
                                 (1.0, cond_delta ** 0.5, cond_delta))
    cyc, sep = modular.cyclic_separating(alg, sf.xi)
    sxs, jxj = modular.check_sxs_commutes(S, md.J, alg, sf.comm)
    pair_res = pairs.check_pair(pairs.SymmetricPairSpec(S, F))
    oracle = modular.conjugation_action_matrix(sf.rho)
    checks = [
        ("cyclic_separating", "Def 4.2", 0.0 if (cyc and sep) else 1.0, 0.5,
         f"cyclic={cyc} separating={sep}"),
        ("double_commutant", "Thm 4.10",
         modular.double_commutant_residual(n), tol_1, ""),
        ("pair_identity", "Thm 4.6", pair_res, tol_rho,
         f"solve_cond={cond:.1e}"),
        ("involution_squares", "Thm 4.10",
         abs(S.matrix @ np.conj(S.matrix) - eye).max(), tol_rho, ""),
        ("polar_reconstruction", "Eq (4.9)",
         abs(S.matrix - Mj @ np.conj(md.root.matrix)).max(), tol_delta, ""),
        ("conjugation_isometry", "Remark 2.8",
         abs(Mj.conj().T @ Mj - eye).max(), tol_delta, ""),
        ("conjugation_involution", "Eq (4.9)",
         abs(Mj @ np.conj(Mj) - eye).max(), tol_delta, ""),
        ("delta_conjugation_oracle", "Eq (4.8)",
         abs(md.Delta.matrix - oracle).max(), tol_delta, ""),
        ("sandwich_commutes", "Eq (4.11)", sxs, tol_rho, ""),
        ("conjugation_swaps_commutant", "Thm 4.10", jxj, tol_delta, ""),
    ]
    if t_list:
        # Delta^{it} carries a phase error of about eps |t| cond(Delta):
        # scale max(1, max |t|) cond(Delta)
        flow = modular.modular_flow_check(md.eig, alg, t_list)
        flow_tol = rounding_tol(tol, max(1.0, *map(abs, t_list)) * cond_delta)
        checks.append(("modular_flow", "Eq (4.10)", flow, flow_tol, ""))
    zdim = modular.antilinear_defect_dimension(F, alg, sf.xi)
    checks += [
        ("maximality", "Thm 4.11", pair_res, tol_rho, ""),  # F* = S
        ("defect_equation_trivial", "Eq (4.15)", float(zdim), 0.5,
         f"real_dim={zdim}"),
    ]
    return [make_record("modular", *check) for check in checks]


def suite_network(net: network.FiniteNetwork, tol: float = DEFAULT_TOL):
    # energy side via the incidence form (energy_gram, energy_diagonal),
    # other side via the Laplacian or point values; K's zero column v_o
    # adds zero residuals.  Each Gram is formed once: E(K, P) is the
    # network's cached kernel_delta_gram.
    K, P, o = net.kernel_matrix, net.delta_matrix(), net.index[net.origin]
    LK = net.laplacian_kernel
    # rounding scales: max c(x) for the Dirac energies, max c(x) max|K| for
    # Delta K and the pairing, n max|K| for the kernel Grams; in Python
    # floats a scale past the float range reads inf, unwarned, and a
    # tolerance of inf would check nothing
    cx = net.laplacian_matrix.diagonal()
    cmax, kmax = float(cx.max()), float(abs(K).max())
    scales = (cmax, cmax * kmax, len(net) * max(1.0, kmax))
    if not all(map(math.isfinite, scales)):
        raise network.NetworkError(
            f"a rounding scale is past the float range: max c(x) = "
            f"{cmax:.3g}, max|K| = {kmax:.3g}")
    tol_d, tol_ck, tol_r = (rounding_tol(tol, scale) for scale in scales)
    # Lemma 5.15 E(P, K) = LK is the transpose of Thm 5.17's
    # E(K, P) = LK^T, so one residual serves both records
    pair_res = network.pair_K_Delta_check(net)
    checks = (
        ("dirac_energy", "Remark 5.8", tol_d,
         abs(network.energy_diagonal(net, P) - cx).max()),
        # Delta v_x = delta_x - delta_o, column x of P.T
        ("kernel_laplacian", "Eq (5.11)", tol_ck, abs(LK - P.T).max()),
        # probes u are the Diracs and the kernels: <v_x, u>_E = u(x) - u(o)
        ("reproducing_property", "Eq (5.5)", tol_r,
         np.max([abs(net.kernel_delta_gram - (P - P[o])).max(),
                 abs(network.energy_gram(net, K, K) - (K - K[o])).max()])),
        ("dirac_pairing", "Lemma 5.15", tol_ck, pair_res),
        ("pair_identity", "Thm 5.17", tol_ck, pair_res),
    )
    return [make_record("network", name, anchor, res, t)
            for name, anchor, t, res in checks]


def suite_defect(rule: str, r: float, nmax: int, expect: str | None = None,
                 tol: float = DEFAULT_TOL):
    check_expect(expect)
    seq = network.ConductanceSequence(network.HALFLINE, rule, r)
    result = network.defect_recurrence(seq, nmax)
    msg = (
        f"energy={result.energy_partials[-1]:.6e} "
        f"l2_psi={result.l2_psi:.3e} l2_lap_psi={result.l2_lap_psi:.3e}"
        if not result.overflow else "overflow"
    )
    expected = f" expected={expect}" if expect else ""
    return [
        make_record("defect", "recurrence_residual", "Eq (5.14)",
                    0.0 if result.overflow else result.rel_residual,
                    rounding_tol(tol, 1.0),  # already relative: scale 1
                    message=f"overflow={result.overflow}"),
        make_record("defect", "energy_verdict", "Thm 5.18",
                    0.0 if expect in (None, result.verdict) else 1.0, 0.5,
                    message=f"verdict={result.verdict}{expected} {msg}"),
    ]


def default_config() -> dict:
    """Desk-scale batch touching all four math suites."""
    return {
        "suites": [
            {"kind": "malliavin", "params": {"d": 2, "N": 6}},
            {
                "kind": "modular",
                "params": {"n": 2, "rho": "tracial", "t_list": [0.5, 1.0]},
            },
            {
                "kind": "modular",
                "params": {
                    "n": 2,
                    "rho": [[0.7, 0.0], [0.0, 0.3]],
                    "t_list": [0.5, 1.0, 3.14159],
                },
            },
            {
                "kind": "network",
                "params": {"graph": "o a 1\na b 1\norigin o\n"},
            },
            {
                "kind": "network",
                "params": {
                    "graph": "p q 1\nq r 1\nr s 1\ns p 1\norigin p\n"
                },
            },
            {
                "kind": "defect",
                "params": {
                    "rule": "geometric", "r": 2.0, "nmax": 80,
                    "expect": "CONVERGES",
                },
            },
            {
                "kind": "defect",
                "params": {
                    "rule": "constant", "r": 1.0, "nmax": 80,
                    "expect": "DIVERGES",
                },
            },
        ]
    }


#: params a batch entry of each kind cannot run without (``n`` is the
#: size of a tracial rho; an explicit rho gives its own)
REQUIRED = {"malliavin": ("d", "N"), "modular": ("n",), "network": ("graph",)}

#: what bad input to ``run_entry`` raises: a failed ``suite_error``
#: record in a batch, exit 2 from ``sympairs check``
ENTRY_ERRORS = (ValueError, KeyError, np.linalg.LinAlgError)


def int_param(params: dict, key: str, default=0) -> int:
    """``params[key]`` as an int: an integral number or an integer string.
    A non-integral number raises ValueError instead of being truncated, and
    a boolean instead of being read as 0 or 1."""
    raw = params.get(key, default)
    try:
        if isinstance(raw, float) and not raw.is_integer():
            raise ValueError
        return int(not_bool(raw))
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"param {key!r} is not an integer: {raw!r}") from None


def float_param(params: dict, key: str, default=0.0) -> float:
    """``params[key]`` as a float; a boolean raises ValueError."""
    raw = params.get(key, default)
    try:
        return float(not_bool(raw))
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"param {key!r} is not a number: {raw!r}") from None


def check_expect(expect):
    """Refuse (ValueError) a defect ``expect`` other than None,
    CONVERGES or DIVERGES."""
    if expect not in (None, network.CONVERGES, network.DIVERGES):
        raise ValueError(f"param 'expect' must be {network.CONVERGES} or "
                         f"{network.DIVERGES}: {expect!r}")


def config_entries(config) -> list:
    """The entries of a batch config, or ValueError for a config that is
    not an object with a ``suites`` list."""
    entries = config.get("suites", []) if isinstance(config, dict) else None
    if not isinstance(entries, list):
        raise ValueError("config must be an object with a 'suites' list")
    return entries


def check_entry(entry) -> float | None:
    """Refuse (ValueError) a batch entry that is not an object of a known
    kind with params of the right types and a valid ``tol``: ``sympairs
    run`` checks every entry before it runs any.  A missing param is left
    to ``run_entry``, a failed record.  Returns the entry's ``tol``,
    parsed, or None when it has none."""
    valid = ("pair", "malliavin", "modular", "network", "defect")
    if not isinstance(entry, dict) or entry.get("kind") not in valid:
        raise ValueError(f"bad suite entry: {entry!r}")
    params = entry.get("params", {})
    if not isinstance(params, dict):
        raise ValueError(f"suite params must be an object: {params!r}")
    # the conversions run_entry applies to numeric params
    for key in ("d", "N", "n", "nmax"):
        int_param(params, key)
    float_param(params, "r")
    check_expect(params.get("expect"))
    for key in ("graph", "graph_file"):
        if not isinstance(params.get(key, ""), str):
            raise ValueError(f"param {key!r} must be a string")
    return parse_tol(entry["tol"], "suite tol") if "tol" in entry else None


def read_text(path: str) -> str:
    """The text of the file at ``path``, or ValueError naming it; a path
    that is not a string is a TypeError, never a file descriptor."""
    try:
        with open(os.fspath(path), "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def run_entry(kind: str, params: dict, tol: float | None = None) -> list:
    """Records of the ``kind`` suite on a batch entry's ``params``.

    ``tol`` is an explicit tolerance (entry ``tol``, ``--tol`` or
    SYMPAIR_TOL); with None a pair uses its file's ``tol`` and every
    other kind DEFAULT_TOL.  A network without ``graph`` reads its
    ``graph_file``.  Bad input raises one of ENTRY_ERRORS.
    """
    if kind == "network" and "graph" not in params and "graph_file" in params:
        params = {**params, "graph": read_text(params["graph_file"])}
    required = REQUIRED.get(kind, ())
    if kind == "modular" and params.get("rho", "tracial") != "tracial":
        required = ()
    missing = [k for k in required if k not in params]
    if missing:
        raise ValueError(f"{kind}: missing param {missing[0]!r}")
    if kind == "pair":
        spec, file_tol = pairs.pair_from_json(params)
        return suite_pair(spec, file_tol if tol is None else tol)
    tol = DEFAULT_TOL if tol is None else tol
    if kind == "malliavin":
        return suite_malliavin(int_param(params, "d"),
                               int_param(params, "N"), tol)
    if kind == "modular":
        rho = params.get("rho", "tracial")
        rho = modular.tracial_rho(int_param(params, "n")) if rho == "tracial" \
            else _parse_rho(rho)
        n = int_param(params, "n", len(rho))
        t_list = _parse_t_list(params.get("t_list", []))
        return suite_modular(n, rho, t_list, tol)
    if kind == "network":
        return suite_network(network.parse_graph(params["graph"]), tol)
    if kind == "defect":
        return suite_defect(params.get("rule", "geometric"),
                            float_param(params, "r", 2.0),
                            int_param(params, "nmax", 80),
                            params.get("expect"), tol)
    raise ValueError(f"unknown suite kind {kind!r}")


def run_suite(config: dict, default_tol: float | None = None) -> Report:
    """Run every configured entry; bad input becomes a failed record.

    ``default_tol`` (SYMPAIR_TOL) is the tolerance of entries without
    their own ``tol``; see ``run_entry``.  A config that ``config_entries``
    refuses gives one ``suite_error``, as does an entry that ``check_entry``
    refuses or whose tolerance fails ``parse_tol``.
    """
    report = Report()
    start = time.perf_counter()
    try:
        entries = config_entries(config)
    except ValueError as exc:
        entries = []
        report.records.append(_error_record("config", exc))
    for entry in entries:
        kind = entry.get("kind") if isinstance(entry, dict) else None
        try:
            tol = check_entry(entry)
            if tol is None and default_tol is not None:
                tol = parse_tol(default_tol, "default tol")
            report.extend(run_entry(kind, entry.get("params", {}), tol))
        except ENTRY_ERRORS as exc:
            report.records.append(_error_record(str(kind), exc))
    report.wall_time = time.perf_counter() - start
    return report


def _error_record(suite: str, exc: Exception) -> Record:
    """The failed record that bad batch input gives in place of checks."""
    return Record(suite, "suite_error", "-", 1.0, 0.0, False, str(exc))


def _parse_rho(obj) -> np.ndarray:
    """Density matrix from JSON rows; a cell is a number or [re, im]."""
    try:
        if not all(isinstance(row, list) for row in obj):
            raise TypeError
        return np.array([[complex(not_bool(c[0]), not_bool(c[1]))
                          if isinstance(c, (list, tuple))
                          else complex(not_bool(c)) for c in row]
                         for row in obj],
                        dtype=complex)
    except (TypeError, ValueError, IndexError, OverflowError):
        raise modular.ModularError(
            "rho must be a list of equal rows of numbers or [re, im] pairs"
        ) from None


def _parse_t_list(obj) -> list:
    try:
        if isinstance(obj, list):
            return [float(not_bool(t)) for t in obj]
    except (TypeError, ValueError, OverflowError):
        pass
    raise modular.ModularError(f"t_list must be a list of numbers: {obj!r}")
