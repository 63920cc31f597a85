"""Residual-check suites over the four math modules.

Each suite function returns a list of report records; the CLI and the
batch runner aggregate them.  Math-domain failures never propagate as
exceptions out of ``run_suite``: they become failed records.
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
    sqrt_psd,
)
from .report import Record, Report, make_record, verdict_record


def suite_pair(spec: pairs.SymmetricPairSpec, tol: float = DEFAULT_TOL):
    recs = []
    res = pairs.check_pair(spec, tol)
    anchor = "Eq (2.3)" if spec.linearity == CONJUGATE else "Eq (2.1)"
    recs.append(make_record("pair", "pair_identity", anchor, res.residual, tol))
    block = pairs.build_L(spec)
    defect = pairs.symmetry_defect(block)
    recs.append(
        make_record("pair", "block_symmetry", "Thm 2.17", defect,
                    2.0 * res.residual + tol)
    )
    lstar = pairs.build_Lstar(spec)
    dev = float(np.max(np.abs(lstar.L.matrix - adjoint(block.L).matrix)))
    recs.append(make_record("pair", "block_adjoint", "Cor 2.18", dev, 1e-12))
    _, dA, dB = pairs.is_maximal(spec, tol)
    recs.append(
        make_record("pair", "maximality", "Lemma 2.10", min(dA, dB), tol,
                    message=f"|A-B*|={dA:.3e} |B-A*|={dB:.3e}",
                    passed=True)
    )
    return recs


def suite_malliavin(d: int, N: int, tol: float = DEFAULT_TOL):
    recs = []
    basis = chaos.basis_build(d, N)
    sub = [p for p in range(len(basis)) if basis.degrees[p] <= N - 1]

    # symmetric-pair identity for the derivative/divergence sections
    A, B, _, _ = chaos.pair_sections(basis)
    spec = pairs.SymmetricPairSpec(OperatorMatrix(A), OperatorMatrix(B))
    res = pairs.check_pair(spec, tol)
    recs.append(
        make_record("malliavin", "pair_identity", "Eq (3.15)", res.residual, tol)
    )
    _, dA, _ = pairs.is_maximal(spec, tol)
    recs.append(
        make_record("malliavin", "section_maximality", "Thm 3.13", dA, tol)
    )

    # integration by parts against the constant function
    ones, _ = chaos.exp_vector(np.zeros(d), basis)
    worst = 0.0
    for p in sub:
        F = basis.unit(basis.indices[p])
        fld = chaos.T_apply(F)
        for i in range(d):
            lhs = chaos.h1_inner(fld.components[i], ones)
            phi_i, _ = chaos.mult_phi(i, ones)
            rhs = chaos.h1_inner(F, phi_i)
            worst = max(worst, abs(lhs - rhs))
    recs.append(make_record("malliavin", "ibp_identity", "Eq (3.11)", worst, tol))

    # derivation property on basis pairs with compatible total degree
    worst = 0.0
    for p in sub:
        for q in sub:
            if basis.degrees[p] + basis.degrees[q] > N - 1:
                continue
            H = basis.unit(basis.indices[p])
            K = basis.unit(basis.indices[q])
            prod, _ = chaos.multiply(H, K)
            lhs = chaos.T_apply(prod)
            th, tk = chaos.T_apply(H), chaos.T_apply(K)
            for i in range(d):
                a, _ = chaos.multiply(K, th.components[i])
                b, _ = chaos.multiply(H, tk.components[i])
                diff = lhs.components[i] - a - b
                worst = max(
                    worst, abs(chaos.h1_inner(diff, diff)) ** 0.5
                )
    recs.append(
        make_record("malliavin", "derivation_identity", "Eq (3.14)", worst, tol)
    )

    # annihilation + creation = coordinate multiplication
    Tmat = chaos.t_matrix(basis)
    Tstar = chaos.t_star_matrix(basis)
    Bsize = len(basis)
    worst = 0.0
    for i in range(d):
        Tk = Tmat[i * Bsize:(i + 1) * Bsize, :]
        Tk_star = Tstar[:, i * Bsize:(i + 1) * Bsize]
        Mk = np.column_stack([chaos.mult_phi(i, basis.unit(a))[0].coeffs
                              for a in basis.indices])
        dev = np.max(np.abs((Tk + Tk_star)[:, sub] - Mk[:, sub]))
        worst = max(worst, float(dev))
    recs.append(
        make_record("malliavin", "mult_split", "Cor 3.14", worst, tol)
    )

    # kernel of the derivative section is the constants
    ns = np.linalg.svd(Tmat, compute_uv=False)
    kdim = int(np.sum(ns <= 1e-10 * max(ns[0], 1.0)))
    recs.append(
        make_record("malliavin", "kernel_dimension", "Cor 3.18",
                    abs(kdim - 1), 0.5, message=f"dim={kdim}")
    )

    # number operator acts as multiplication by the level
    worst = 0.0
    for p in range(Bsize):
        F = basis.unit(basis.indices[p])
        out = chaos.number_operator(F)
        expect = float(basis.degrees[p]) * F
        diff = out - expect
        worst = max(worst, float(np.max(np.abs(diff.coeffs))))
    recs.append(
        make_record("malliavin", "number_operator", "Cor 3.18", worst, tol)
    )

    # exponential vectors: inner product and eigen-style identity
    k = np.zeros(d)
    k[0] = 0.5
    e1, tail1 = chaos.exp_vector(k, basis)
    ip = chaos.h1_inner(e1, e1).real
    # degree-N truncation of exp(|k|^2), summed independently in 1-D
    ksq = float(k @ k)
    series = math.fsum(ksq**n / math.factorial(n) for n in range(N + 1))
    recs.append(
        make_record("malliavin", "exp_inner_product", "Eq (3.3)",
                    abs(ip - series), tol,
                    message=f"tail_bound={tail1:.3e}")
    )
    num = chaos.number_operator(e1)
    mult = chaos.zero_vector(basis)
    for i in range(d):
        if k[i]:
            mi, _ = chaos.mult_phi(i, e1)
            mult = mult + k[i] * mi
    expect = mult - ksq * e1
    diff = num - expect
    resid = abs(chaos.h1_inner(diff, diff)) ** 0.5
    edge_tol = max(tol, (N + 2) * (tail1 ** 0.5))
    recs.append(
        make_record("malliavin", "exp_number_identity", "Cor 3.17",
                    resid, edge_tol, message=f"edge_tol={edge_tol:.3e}")
    )
    return recs


def suite_modular(n: int, rho, t_list, tol: float = DEFAULT_TOL):
    recs = []
    sf = modular.standard_form(n, rho)
    comm = modular.commutant(sf.alg)

    cyc = modular.cyclic_check(sf.alg, sf.xi)
    sep = modular.separating_check(sf.alg, sf.xi)
    recs.append(
        make_record("modular", "cyclic_separating", "Def 4.2",
                    0.0 if (cyc and sep) else 1.0, 0.5,
                    message=f"cyclic={cyc} separating={sep}")
    )

    # double commutant returns the algebra
    comm_alg = modular.algebra_from_generators(comm)
    comm2 = modular.commutant(comm_alg)
    worst = max(
        modular.span_residual(b.matrix, comm2) for b in sf.alg.basis
    )
    dim_dev = abs(len(comm2) - len(sf.alg.basis))
    recs.append(
        make_record("modular", "double_commutant", "Thm 4.10",
                    worst + dim_dev, max(tol, 1e-9))
    )

    S, cond_s = modular.build_S(sf.alg, sf.xi)
    F, _ = modular.build_F(comm, sf.xi)
    res = pairs.check_pair(pairs.SymmetricPairSpec(S, F), tol)
    recs.append(
        make_record("modular", "pair_identity", "Thm 4.6", res.residual, tol,
                    message=f"solve_cond={cond_s:.1e}")
    )

    ssq = compose(S, S).matrix
    dev = float(np.max(np.abs(ssq - np.eye(ssq.shape[0]))))
    recs.append(make_record("modular", "involution_squares", "Thm 4.10",
                            dev, max(tol, 1e-9 * cond_s)))

    Delta = modular.modular_delta(S, tol)
    J = modular.modular_J(S, Delta)
    root = sqrt_psd(Delta)
    recon = float(np.max(np.abs(S.matrix - J.matrix @ np.conj(root.matrix))))
    recs.append(make_record("modular", "polar_reconstruction", "Eq (4.9)",
                            recon, tol))

    Mj = J.matrix
    iso = float(np.max(np.abs(Mj.conj().T @ Mj - np.eye(Mj.shape[0]))))
    recs.append(make_record("modular", "conjugation_isometry", "Remark 2.8",
                            iso, max(tol, 1e-12 * cond_s + 1e-12)))
    invo = float(np.max(np.abs(Mj @ np.conj(Mj) - np.eye(Mj.shape[0]))))
    recs.append(make_record("modular", "conjugation_involution", "Eq (4.9)",
                            invo, max(tol, 1e-12 * cond_s + 1e-12)))

    oracle = modular.conjugation_action_matrix(sf.rho)
    dev = float(np.max(np.abs(Delta.matrix - oracle)))
    recs.append(make_record("modular", "delta_conjugation_oracle", "Eq (4.8)",
                            dev, max(tol, 1e-9)))

    worst = modular.check_sxs_commutes(S, sf.alg)
    recs.append(make_record("modular", "sandwich_commutes", "Eq (4.11)",
                            worst, max(tol, 1e-9)))
    worst = modular.check_commutation(J, sf.alg, comm, tol)
    recs.append(make_record("modular", "conjugation_swaps_commutant",
                            "Thm 4.10", worst, max(tol, 1e-9)))

    if t_list:
        worst = modular.modular_flow_check(Delta, sf.alg, t_list, tol)
        recs.append(make_record("modular", "modular_flow", "Eq (4.10)",
                                worst, max(tol, 1e-9)))

    ok, dev, pair_res = modular.maximality_check(S, F, tol)
    recs.append(make_record("modular", "maximality", "Thm 4.11", dev, tol))

    zdim = modular.antilinear_defect_dimension(F, sf.alg, sf.xi)
    recs.append(
        make_record("modular", "defect_equation_trivial", "Eq (4.15)",
                    float(zdim), 0.5, message=f"real_dim={zdim}")
    )
    return recs


def suite_network(net: network.FiniteNetwork, tol: float = DEFAULT_TOL):
    # energy side via energy_gram (incidence form), other side via the
    # Laplacian or point values; K's zero column v_o adds zero residuals.
    # Each residual matrix is reduced as soon as it is formed.
    K, P, o = net.kernel_matrix, net.delta_matrix(), net.index[net.origin]
    LK = net.laplacian_matrix @ K
    expect = np.eye(len(net))  # Delta v_x = delta_x - delta_o
    expect[o] -= 1.0
    E = network.energy_gram
    tol_k = max(tol, 1e-10)
    checks = (
        ("dirac_energy", "Remark 5.8", max(tol, 1e-12),
         abs(np.diag(E(net, P, P)) - net.cond.sum(axis=1)).max()),
        ("kernel_laplacian", "Eq (5.11)", tol_k, abs(LK - expect).max()),
        # probes u are the Diracs and the kernels: <v_x, u>_E = u(x) - u(o)
        ("reproducing_property", "Eq (5.5)", tol_k,
         np.max([abs(E(net, K, U) - (U - U[o])).max() for U in (P, K)])),
        ("dirac_pairing", "Lemma 5.15", tol_k, abs(E(net, P, K) - LK).max()),
        ("pair_identity", "Thm 5.17", tol_k,
         network.pair_K_Delta_check(net, tol)),
    )
    return [make_record("network", name, anchor, res, t)
            for name, anchor, t, res in checks]


def suite_defect(rule: str, r: float, nmax: int, expect: str | None = None,
                 tol: float = DEFAULT_TOL):
    recs = []
    seq = network.ConductanceSequence(network.HALFLINE, rule, r)
    result = network.defect_recurrence(seq, nmax)
    res = 0.0 if result.overflow else result.rel_residual
    recs.append(
        make_record("defect", "recurrence_residual", "Eq (5.14)",
                    res, max(tol, 1e-12),
                    message=f"overflow={result.overflow}")
    )
    msg = (
        f"energy={result.energy_partials[-1]:.6e} "
        f"l2_psi={result.l2_psi:.3e} l2_lap_psi={result.l2_lap_psi:.3e}"
        if not result.overflow else "overflow"
    )
    recs.append(
        verdict_record("defect", "energy_verdict", "Thm 5.18",
                       result.verdict, expect, message=msg)
    )
    return recs


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


def run_suite(config: dict, default_tol: float = DEFAULT_TOL) -> Report:
    """Execute every configured suite, converting math errors to failures."""
    report = Report()
    start = time.perf_counter()
    for entry in config.get("suites", []):
        kind = entry.get("kind")
        params = entry.get("params", {})
        tol = float(entry.get("tol", default_tol))
        try:
            if kind == "pair":
                spec, file_tol = pairs.pair_from_json(params)
                if "tol" in params:
                    tol = file_tol
                report.extend(suite_pair(spec, tol))
            elif kind == "malliavin":
                report.extend(
                    suite_malliavin(int(params["d"]), int(params["N"]), tol)
                )
            elif kind == "modular":
                rho = params.get("rho", "tracial")
                n = int(params["n"])
                rho = modular.tracial_rho(n) if rho == "tracial" \
                    else _parse_rho(rho)
                report.extend(
                    suite_modular(n, rho, params.get("t_list", []), tol)
                )
            elif kind == "network":
                net = network.parse_graph(params["graph"])
                report.extend(suite_network(net, tol))
            elif kind == "defect":
                report.extend(
                    suite_defect(
                        params.get("rule", "geometric"),
                        float(params.get("r", 2.0)),
                        int(params.get("nmax", 80)),
                        params.get("expect"),
                        tol,
                    )
                )
            else:
                raise ValueError(f"unknown suite kind {kind!r}")
        except (ValueError, KeyError, np.linalg.LinAlgError) as exc:
            report.records.append(
                Record(str(kind), "suite_error", "-", 1.0, 0.0, False,
                       str(exc))
            )
    report.wall_time = time.perf_counter() - start
    return report


def _parse_rho(obj) -> np.ndarray:
    rows = []
    for row in obj:
        vals = []
        for cell in row:
            if isinstance(cell, (list, tuple)):
                vals.append(complex(cell[0], cell[1]))
            else:
                vals.append(complex(cell))
        rows.append(vals)
    return np.array(rows, dtype=complex)
