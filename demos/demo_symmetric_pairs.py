"""Walk through the symmetric-pair machinery on small matrix sections.

Builds the classic derivative/creation pair in orthonormal Hermite
coordinates, checks the pairing identity, assembles the block operator,
and shows the defect bookkeeping on a deliberately non-symmetric probe.
"""

import math

import numpy as np

from sympairs import (
    OperatorMatrix,
    SymmetricPairSpec,
    build_L,
    build_Lstar,
    check_pair,
    deficiency,
    defect_flip,
    eig_space,
    symmetry_defect,
)


def hermite_pair(max_deg):
    n1 = max_deg + 1
    A = np.zeros((max_deg, n1))
    B = np.zeros((n1, max_deg))
    for n in range(1, n1):
        A[n - 1, n] = math.sqrt(n)
    for n in range(max_deg):
        B[n + 1, n] = math.sqrt(n + 1)
    return SymmetricPairSpec(OperatorMatrix(A), OperatorMatrix(B))


def main():
    spec = hermite_pair(6)
    print("derivative/creation pair, degree <= 6")
    print(f"  pairing residual <Au,v> - <u,Bv>: {check_pair(spec):.3e}")

    L = build_L(spec)
    print(f"  block symmetry defect |L - L*|:   {symmetry_defect(L):.3e}")
    print(f"  L* block shape: {build_Lstar(spec).matrix.shape}")

    plus, minus = deficiency(spec)
    print(f"  deficiency indices: ({len(plus)}, {len(minus)})  "
          "(finite symmetric sections are essentially self-adjoint)")

    # a skew probe with genuine +-i eigenvectors: columns of A orthonormal
    rng = np.random.default_rng(7)
    M = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    Q, _ = np.linalg.qr(M)
    probe = SymmetricPairSpec(
        OperatorMatrix(Q[:, :3]), OperatorMatrix(-Q[:, :3].conj().T)
    )
    lstar = build_Lstar(probe)
    plus = eig_space(lstar, 1j, 1e-9)
    print(f"\nskew probe: dim of the +i eigenspace of L*: {len(plus)}")
    v = plus[0]
    flipped = defect_flip(v, (probe.dim_h1, probe.dim_h2))
    resid = np.linalg.norm(lstar.apply(flipped) - (-1j) * flipped)
    print(f"  flip sends it into the -i eigenspace, residual {resid:.3e}")


if __name__ == "__main__":
    main()
