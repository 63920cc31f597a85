"""Modular theory of the left-multiplication algebra in standard form.

Constructs the involution S from a density matrix, factors it into the
conjugation J and the modular operator, and verifies the spectrum of
the modular operator against the independent conjugation-action route.
"""

import math

import numpy as np

from sympairs import (
    check_commutation,
    commutant,
    conjugation_action_matrix,
    modular_data,
    modular_flow_check,
    standard_form,
    tracial_rho,
)


def main():
    rho = np.diag([0.7, 0.3])
    sf = standard_form(2, rho)
    md = modular_data(sf)
    print("density matrix diag(0.7, 0.3) on 2x2 matrices")

    got = np.sort(np.linalg.eigvalsh(md.Delta.matrix))
    expect = np.sort([0.3 / 0.7, 1.0, 1.0, 0.7 / 0.3])
    print(f"  modular spectrum: {np.round(got, 6)}")
    print(f"  eigenvalue ratios of rho: {np.round(expect, 6)}")

    oracle = conjugation_action_matrix(rho)
    dev = np.max(np.abs(md.Delta.matrix - oracle))
    print(f"  conjugation-action oracle deviation: {dev:.3e}")

    Mj = md.J.matrix
    iso = np.max(np.abs(Mj.conj().T @ Mj - np.eye(4)))
    invo = np.max(np.abs(Mj @ np.conj(Mj) - np.eye(4)))
    print(f"  J isometry {iso:.1e}, involution {invo:.1e}")

    comm = commutant(sf.alg)
    print(f"  J M J lands in the commutant: residual "
          f"{check_commutation(md.J, sf.alg, comm):.3e}")
    flow = modular_flow_check(md.eig, sf.alg, [0.5, 1.0, math.pi])
    print(f"  modular flow preserves the algebra: residual {flow:.3e}")

    sft = standard_form(2, tracial_rho(2))
    mdt = modular_data(sft)
    print(f"\ntracial state: |Delta - I| = "
          f"{np.max(np.abs(mdt.Delta.matrix - np.eye(4))):.1e} "
          "(J is then the plain adjoint map)")


if __name__ == "__main__":
    main()
