"""Residual-check suites over the four math modules.

Each suite function returns a list of report records.  ``run_entry``
is the one map from a suite kind and its params to a suite call; both
``run_suite`` (the batch) and ``sympairs check`` go through it.  Bad
input never propagates as an exception out of ``run_suite``: it becomes
a failed record.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import chaos, modular, network, pairs
from .core import (
    CONJUGATE,
    DEFAULT_TOL,
    OperatorMatrix,
    adjoint,
    compose,
)
from .report import Record, Report, make_record, verdict_record


def suite_pair(spec: pairs.SymmetricPairSpec, tol: float = DEFAULT_TOL):
    # |B - A*| once; |A - B*| is its conjugate transpose, same entries
    res = pairs.check_pair(spec)
    L = pairs.build_L(spec)
    return [
        make_record("pair", "pair_identity",
                    "Eq (2.3)" if spec.linearity == CONJUGATE else "Eq (2.1)",
                    res, tol),
        make_record("pair", "block_symmetry", "Thm 2.17",
                    pairs.symmetry_defect(L), 2.0 * res + tol),
        make_record("pair", "block_adjoint", "Cor 2.18",
                    np.max(np.abs(pairs.build_Lstar(spec).matrix
                                  - adjoint(L).matrix)), 1e-12),
        make_record("pair", "maximality", "Lemma 2.10", res, tol,
                    message=f"|A-B*|={res:.3e} |B-A*|={res:.3e}", passed=True),
    ]


def suite_malliavin(d: int, N: int, tol: float = DEFAULT_TOL):
    chaos.matrix_preflight(d, N)
    if d < 1 or N < 2:  # the pair sections need degree-1 functions
        raise chaos.ChaosError("need d >= 1 and N >= 2")
    basis = chaos.basis_build(d, N)
    # symmetric-pair identity for the derivative/divergence sections
    A, Bs = chaos.pair_sections(basis)
    spec = pairs.SymmetricPairSpec(OperatorMatrix(A), OperatorMatrix(Bs))
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
    md = modular.modular_data(sf, tol)
    S, F, Mj, cond, alg = md.S, md.F, md.J.matrix, md.cond, sf.alg
    eye = np.eye(Mj.shape[0])
    tol9, tol_j = max(tol, 1e-9), max(tol, 1e-12 * cond + 1e-12)
    cyc, sep = modular.cyclic_separating(alg, sf.xi)
    # double commutant returns the algebra
    comm2 = modular.commutant(md.comm)
    double = modular.span_residual(alg, comm2) + abs(len(comm2) - len(alg))
    pair_res = pairs.check_pair(pairs.SymmetricPairSpec(S, F))
    oracle = modular.conjugation_action_matrix(sf.rho)
    checks = [
        ("cyclic_separating", "Def 4.2", 0.0 if (cyc and sep) else 1.0, 0.5,
         f"cyclic={cyc} separating={sep}"),
        ("double_commutant", "Thm 4.10", double, tol9, ""),
        ("pair_identity", "Thm 4.6", pair_res, tol, f"solve_cond={cond:.1e}"),
        ("involution_squares", "Thm 4.10",
         abs(compose(S, S).matrix - eye).max(), max(tol, 1e-9 * cond), ""),
        ("polar_reconstruction", "Eq (4.9)",
         abs(S.matrix - Mj @ np.conj(md.root.matrix)).max(), tol, ""),
        ("conjugation_isometry", "Remark 2.8",
         abs(Mj.conj().T @ Mj - eye).max(), tol_j, ""),
        ("conjugation_involution", "Eq (4.9)",
         abs(Mj @ np.conj(Mj) - eye).max(), tol_j, ""),
        ("delta_conjugation_oracle", "Eq (4.8)",
         abs(md.Delta.matrix - oracle).max(), tol9, ""),
        ("sandwich_commutes", "Eq (4.11)",
         modular.check_sxs_commutes(S, alg), tol9, ""),
        ("conjugation_swaps_commutant", "Thm 4.10",
         modular.check_commutation(md.J, alg, md.comm), tol9, ""),
    ]
    if t_list:
        # Delta^{it} carries a phase error of about eps |t| cond(Delta);
        # on 300 seeded rho (n = 2..5, cond(rho) up to 1e4, |t| <= 1e3)
        # a true flow reaches at most 1/12 of this tolerance
        flow = modular.modular_flow_check(md.eig, alg, t_list, tol)
        w = md.eig[0]  # cond(Delta) = w[-1] / w[0]: Delta is PSD
        flow_tol = max(tol9, 1e-15 * np.max(np.abs(t_list)) * (w[-1] / w[0]))
        checks.append(("modular_flow", "Eq (4.10)", flow, flow_tol, ""))
    zdim = modular.antilinear_defect_dimension(F, alg, sf.xi)
    checks += [
        ("maximality", "Thm 4.11", pair_res, tol, ""),  # F* = S
        ("defect_equation_trivial", "Eq (4.15)", float(zdim), 0.5,
         f"real_dim={zdim}"),
    ]
    return [make_record("modular", *check) for check in checks]


#: rounding factor of the network tolerances: true identities reached at
#: most 7.2 eps-scales (graphs to 2,000 vertices, conductances scaled by
#: 1e-6..1e6), and every perfbench graph (seeds 0-199) keeps its floors
ROUNDING = 64


def suite_network(net: network.FiniteNetwork, tol: float = DEFAULT_TOL):
    # energy side via the incidence form (energy_gram, energy_diagonal),
    # other side via the Laplacian or point values; K's zero column v_o
    # adds zero residuals.  Each Gram is formed once: E(K, P) is the
    # network's cached kernel_delta_gram.
    K, P, o = net.kernel_matrix, net.delta_matrix(), net.index[net.origin]
    LK = net.laplacian_kernel
    expect = np.eye(len(net))  # Delta v_x = delta_x - delta_o
    expect[o] -= 1.0
    tol_k = max(tol, 1e-10)
    # rounding grows with c(x) in the Dirac energies and with n max|K| in
    # the kernel Grams, so each of those tolerances scales from its floor
    cx, eps = net.cond.sum(axis=1), np.finfo(float).eps
    tol_d = max(tol, 1e-12, ROUNDING * eps * cx.max())
    tol_r = max(tol_k, ROUNDING * eps * len(net) * max(1.0, abs(K).max()))
    # Lemma 5.15 E(P, K) = LK is the transpose of Thm 5.17's
    # E(K, P) = LK^T, so one residual serves both records
    pair_res = network.pair_K_Delta_check(net)
    checks = (
        ("dirac_energy", "Remark 5.8", tol_d,
         abs(network.energy_diagonal(net, P) - cx).max()),
        ("kernel_laplacian", "Eq (5.11)", tol_k, abs(LK - expect).max()),
        # probes u are the Diracs and the kernels: <v_x, u>_E = u(x) - u(o)
        ("reproducing_property", "Eq (5.5)", tol_r,
         np.max([abs(net.kernel_delta_gram - (P - P[o])).max(),
                 abs(network.energy_gram(net, K, K) - (K - K[o])).max()])),
        ("dirac_pairing", "Lemma 5.15", tol_k, pair_res),
        ("pair_identity", "Thm 5.17", tol_k, pair_res),
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
    return [
        make_record("defect", "recurrence_residual", "Eq (5.14)",
                    0.0 if result.overflow else result.rel_residual,
                    max(tol, 1e-12), message=f"overflow={result.overflow}"),
        verdict_record("defect", "energy_verdict", "Thm 5.18",
                       result.verdict, expect, message=msg),
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
    A non-integral number raises ValueError instead of being truncated."""
    raw = params.get(key, default)
    try:
        if isinstance(raw, float) and not raw.is_integer():
            raise ValueError
        return int(raw)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"param {key!r} is not an integer: {raw!r}") from None


def check_expect(expect):
    """Refuse (ValueError) a defect ``expect`` other than None,
    CONVERGES or DIVERGES."""
    if expect not in (None, network.CONVERGES, network.DIVERGES):
        raise ValueError(f"param 'expect' must be {network.CONVERGES} or "
                         f"{network.DIVERGES}: {expect!r}")


def run_entry(kind: str, params: dict, tol: float | None = None) -> list:
    """Records of the ``kind`` suite on a batch entry's ``params``.

    ``tol`` is an explicit tolerance (entry ``tol``, ``--tol`` or
    SYMPAIR_TOL); with None a pair uses its file's ``tol`` and every
    other kind DEFAULT_TOL.  Bad input raises one of ENTRY_ERRORS.
    """
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
                            float(params.get("r", 2.0)),
                            int_param(params, "nmax", 80),
                            params.get("expect"), tol)
    raise ValueError(f"unknown suite kind {kind!r}")


def run_suite(config: dict, default_tol: float | None = None) -> Report:
    """Run every configured entry; bad input becomes a failed record.

    ``default_tol`` (SYMPAIR_TOL) is the tolerance of entries without
    their own ``tol``; see ``run_entry``.
    """
    report = Report()
    start = time.perf_counter()
    for entry in config.get("suites", []):
        kind = entry.get("kind")
        tol = entry.get("tol", default_tol)
        try:
            report.extend(run_entry(kind, entry.get("params", {}),
                                    None if tol is None else float(tol)))
        except ENTRY_ERRORS as exc:
            report.records.append(
                Record(str(kind), "suite_error", "-", 1.0, 0.0, False,
                       str(exc))
            )
    report.wall_time = time.perf_counter() - start
    return report


def _parse_rho(obj) -> np.ndarray:
    """Density matrix from JSON rows; a cell is a number or [re, im]."""
    try:
        if not all(isinstance(row, list) for row in obj):
            raise TypeError
        return np.array([[complex(c[0], c[1]) if isinstance(c, (list, tuple))
                          else complex(c) for c in row] for row in obj],
                        dtype=complex)
    except (TypeError, ValueError, IndexError, OverflowError):
        raise modular.ModularError(
            "rho must be a list of equal rows of numbers or [re, im] pairs"
        ) from None


def _parse_t_list(obj) -> list:
    try:
        if isinstance(obj, list):
            return [float(t) for t in obj]
    except (TypeError, ValueError, OverflowError):
        pass
    raise modular.ModularError(f"t_list must be a list of numbers: {obj!r}")
