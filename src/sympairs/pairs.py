"""Symmetric pairs (A, B) and their block operator L.

A pair of operators A: H1 -> H2 and B: H2 -> H1 is *symmetric* when
``<A phi, psi> = <phi, B psi>`` for all phi, psi (with an outer complex
conjugation in the conjugate-linear case).  The associated block
operator ``L = [[0, B], [A, 0]]`` on K = H1 (+) H2 is symmetric exactly
when the pair is, and its adjoint is ``[[0, A*], [B*, 0]]``.

At finite dimension an exactly symmetric L has no +-i eigenvalues, so
the deficiency computation here verifies the (0, 0) prediction; genuine
defect phenomena are exhibited through the recurrence route in the
network module instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    LINEAR,
    CooOperator,
    OperatorError,
    OperatorMatrix,
    adjoint,
    eig_space,
    parse_tol,
    realify,
)


class PairError(OperatorError):
    """Raised for malformed pair specifications."""


@dataclass(frozen=True)
class SymmetricPairSpec:
    """Candidate pair A: H1 -> H2, B: H2 -> H1 with a shared linearity tag
    and a shared storage (OperatorMatrix or CooOperator)."""

    A: OperatorMatrix | CooOperator
    B: OperatorMatrix | CooOperator

    def __post_init__(self):
        if type(self.A) is not type(self.B):
            raise PairError("A and B must share a storage")
        if self.A.linearity != self.B.linearity:
            raise PairError("A and B must share a linearity tag")
        if self.A.cols != self.B.rows or self.A.rows != self.B.cols:
            raise PairError(
                f"dimension mismatch: A is {self.A.rows}x{self.A.cols}, "
                f"B is {self.B.rows}x{self.B.cols}"
            )

    @property
    def dim_h1(self) -> int:
        return self.A.cols

    @property
    def dim_h2(self) -> int:
        return self.A.rows

    @property
    def linearity(self) -> str:
        return self.A.linearity


def check_pair(spec: SymmetricPairSpec) -> float:
    """Max pairing defect over all standard basis pairs (phi, psi).

    Linear tag:      max |<A e_j, e_k> - <e_j, B e_k>|.
    Conjugate tag:   max |<A e_j, e_k> - conj(<e_j, B e_k>)|.
    Both are max |B - A*|, the entrywise deviation of B from the adjoint
    of A.  At finite dimension this one number is both the pair identity
    and maximality (B = A*), so the suites attach both anchors to it.
    On CooOperator pairs the same entries come from the two coordinate
    lists, and an entry listed on one side only is compared with zero.
    """
    Astar = adjoint(spec.A)
    if isinstance(Astar, CooOperator):
        return _coo_residual(Astar, spec.B)
    return float(np.max(np.abs(spec.B.matrix - Astar.matrix), initial=0.0))


def _coo_residual(Astar: CooOperator, B: CooOperator) -> float:
    """max |B - A*| over coordinates.  Both lists are sorted together by
    (row, col); each side's entries at a coordinate are summed in listed
    order, as ``CooOperator.to_dense`` sums them, and a side with none
    there holds zero, so the entries are the dense form's, up to the sign
    of a zero."""
    row = np.concatenate((B.row, Astar.row))
    col = np.concatenate((B.col, Astar.col))
    order = np.lexsort((col, row))
    row, col = row[order], col[order]
    new = np.ones(len(row), dtype=bool)
    new[1:] = (row[1:] != row[:-1]) | (col[1:] != col[:-1])
    sums = np.zeros((np.count_nonzero(new), 2), dtype=complex)
    side = (order >= len(B.row)).astype(np.intp)  # 0 for B, 1 for A*
    np.add.at(sums, (np.cumsum(new) - 1, side),
              np.concatenate((B.vals, Astar.vals))[order])
    return float(np.max(np.abs(sums[:, 0] - sums[:, 1]), initial=0.0))


def build_L(spec: SymmetricPairSpec) -> OperatorMatrix:
    """Assemble ``L = [[0, B], [A, 0]]`` on K = H1 (+) H2."""
    n1, n2 = spec.dim_h1, spec.dim_h2
    L = np.zeros((n1 + n2, n1 + n2), dtype=complex)
    L[:n1, n1:] = spec.B.matrix
    L[n1:, :n1] = spec.A.matrix
    return OperatorMatrix(L, spec.linearity)


def build_Lstar(spec: SymmetricPairSpec) -> OperatorMatrix:
    """Assemble ``L* = [[0, A*], [B*, 0]]``; equals adjoint(build_L)."""
    n1, n2 = spec.dim_h1, spec.dim_h2
    Ls = np.zeros((n1 + n2, n1 + n2), dtype=complex)
    Ls[:n1, n1:] = adjoint(spec.A).matrix
    Ls[n1:, :n1] = adjoint(spec.B).matrix
    return OperatorMatrix(Ls, spec.linearity)


def symmetry_defect(L: OperatorMatrix) -> float:
    """Entrywise deviation of L from its own adjoint."""
    M = L.matrix
    Ms = adjoint(L).matrix
    return float(np.max(np.abs(M - Ms))) if M.size else 0.0


def deficiency(spec: SymmetricPairSpec) -> tuple:
    """Defect spaces ``(def_plus, def_minus)`` of L as the +-i
    eigenspaces of L*, each a list of basis vectors.

    Requires L symmetric within DEFAULT_TOL.  A conjugate-linear L* is
    first realified (``realify``), a real symmetric matrix for a symmetric
    L: its complexification has no +-i eigenvalues, so again (0, 0).
    """
    if symmetry_defect(build_L(spec)) > DEFAULT_TOL:
        raise PairError("L is not symmetric within tolerance")
    lstar = build_Lstar(spec)
    if not lstar.is_linear:
        lstar = OperatorMatrix(realify(lstar), LINEAR)
    return eig_space(lstar, 1j), eig_space(lstar, -1j)


def defect_flip(v, split) -> np.ndarray:
    """Map u (+) w to (-u) (+) w, carrying def_+ onto def_-."""
    v = np.asarray(v, dtype=complex)
    n1, n2 = split
    if v.shape[0] != n1 + n2:
        raise PairError(f"vector length {v.shape[0]} does not match split {split}")
    out = v.copy()
    out[:n1] = -out[:n1]
    return out


def is_maximal(spec: SymmetricPairSpec):
    """Maximality B = A* as (verdict, |A-B*|, |B-A*|), both deviations being
    the check_pair residual, judged against DEFAULT_TOL; kept because
    perfbench's metrics name it."""
    res = check_pair(spec)
    return res < DEFAULT_TOL, res, res


def pair_from_json(obj) -> tuple:
    """Parse the shared pair JSON: {"A": <matrix>, "B": <matrix>, "tol": t}."""
    import json as _json

    if isinstance(obj, str):
        obj = _json.loads(obj)
    if not isinstance(obj, dict) or "A" not in obj or "B" not in obj:
        raise PairError("pair JSON must be an object with matrices A and B")
    A = OperatorMatrix.from_json(obj["A"])
    B = OperatorMatrix.from_json(obj["B"])
    tol = parse_tol(obj.get("tol", DEFAULT_TOL), "pair tol")
    return SymmetricPairSpec(A, B), tol
