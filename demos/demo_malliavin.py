"""Derivative and divergence on a truncated Hermite chaos basis.

Shows the annihilation/creation action on basis vectors, the number
operator, the Wick-moment cross-check, and how the exponential-vector
identity residual shrinks as the truncation degree grows.
"""

import numpy as np

from sympairs import (
    T_apply,
    basis_build,
    chaos_monomials,
    exp_vector,
    gaussian_expectation,
    h1_inner,
    mult_phi,
    number_operator,
)


def main():
    basis = basis_build(2, 6)
    print(f"chaos basis: d = 2, degree <= 6, {len(basis)} elements")

    # derivative of a mixed basis vector
    F = basis.unit((2, 1))
    fld = T_apply(F)
    print("T(H_(2,1)) components (nonzero coefficients):")
    for i, comp in enumerate(fld.components):
        nz = [(tuple(basis.alphas[p].tolist()), comp.coeffs[p].real)
              for p in np.flatnonzero(np.abs(comp.coeffs))]
        print(f"  slot {i}: {nz}")

    out = number_operator(F)
    lvl = (F.coeffs @ out.coeffs).real  # F is the unit H_(2,1)
    print(f"number operator on H_(2,1): level multiplier {lvl:.1f}")

    # Wick-moment oracle agrees with the weighted inner product
    G = np.eye(2)
    pa = chaos_monomials(F)
    acc = {}
    for c1, e1 in pa:
        for c2, e2 in pa:
            e = tuple(a + b for a, b in zip(e1, e2))
            acc[e] = acc.get(e, 0.0) + c1 * c2
    oracle = gaussian_expectation(list((c, e) for e, c in acc.items()), G)
    direct = h1_inner(F, F).real
    print(f"|H_(2,1)|^2: chaos route {direct:.6f}, Wick oracle {oracle:.6f}")

    print("\nexponential-vector identity residual vs truncation degree:")
    k = np.array([0.5])
    for N in (6, 8, 10, 12):
        b = basis_build(1, N)
        ek, tail = exp_vector(k, b)
        num = number_operator(ek)
        mult, _ = mult_phi(0, ek)
        expect = 0.5 * mult - float(k @ k) * ek
        diff = num - expect
        resid = abs(h1_inner(diff, diff)) ** 0.5
        print(f"  N = {N:2d}: residual {resid:.3e}  (tail bound {tail:.1e})")


if __name__ == "__main__":
    main()
