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

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CONJUGATE,
    DEFAULT_TOL,
    LINEAR,
    OperatorError,
    OperatorMatrix,
    adjoint,
    eig_space,
)


class PairError(OperatorError):
    """Raised for malformed pair specifications."""


@dataclass(frozen=True)
class SymmetricPairSpec:
    """Candidate pair A: H1 -> H2, B: H2 -> H1 with a shared linearity tag."""

    A: OperatorMatrix
    B: OperatorMatrix

    def __post_init__(self):
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


@dataclass(frozen=True)
class BlockL:
    """Block operator on K = H1 (+) H2 with H1 coordinates first."""

    L: OperatorMatrix
    split: tuple


@dataclass(frozen=True)
class DefectData:
    def_plus: list
    def_minus: list

    @property
    def n_plus(self) -> int:
        return len(self.def_plus)

    @property
    def n_minus(self) -> int:
        return len(self.def_minus)


@dataclass(frozen=True)
class PairReport:
    check: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


def check_pair(spec: SymmetricPairSpec, tol: float = DEFAULT_TOL) -> PairReport:
    """Max pairing defect over all standard basis pairs (phi, psi).

    Linear tag:      max |<A e_j, e_k> - <e_j, B e_k>|.
    Conjugate tag:   max |<A e_j, e_k> - conj(<e_j, B e_k>)|.
    Both are max |B - A*|, the entrywise deviation of B from the adjoint
    of A.  At finite dimension this one number is both the pair identity
    and maximality (B = A*), so the suites attach both anchors to it.
    """
    B = spec.B.matrix
    if spec.linearity == CONJUGATE:
        B = np.conj(B)  # |conj(B) - A^H| = |B - A^T|, and A* = A^T here
    residual = np.max(np.abs(spec.A.matrix.conj().T - B), initial=0.0)
    return PairReport("check_pair", float(residual), tol)


def build_L(spec: SymmetricPairSpec) -> BlockL:
    """Assemble ``L = [[0, B], [A, 0]]`` on K = H1 (+) H2."""
    n1, n2 = spec.dim_h1, spec.dim_h2
    L = np.zeros((n1 + n2, n1 + n2), dtype=complex)
    L[:n1, n1:] = spec.B.matrix
    L[n1:, :n1] = spec.A.matrix
    return BlockL(OperatorMatrix(L, spec.linearity), (n1, n2))


def build_Lstar(spec: SymmetricPairSpec) -> BlockL:
    """Assemble ``L* = [[0, A*], [B*, 0]]``; equals adjoint(build_L)."""
    n1, n2 = spec.dim_h1, spec.dim_h2
    Ls = np.zeros((n1 + n2, n1 + n2), dtype=complex)
    Ls[:n1, n1:] = adjoint(spec.A).matrix
    Ls[n1:, :n1] = adjoint(spec.B).matrix
    return BlockL(OperatorMatrix(Ls, spec.linearity), (n1, n2))


def symmetry_defect(block: BlockL) -> float:
    """Entrywise deviation of L from its own adjoint."""
    M = block.L.matrix
    Ms = adjoint(block.L).matrix
    return float(np.max(np.abs(M - Ms))) if M.size else 0.0


def _realify_conjugate(M: np.ndarray) -> np.ndarray:
    """Real 2n x 2n representation of v -> M conj(v) on (Re v, Im v)."""
    re, im = M.real, M.imag
    return np.block([[re, im], [im, -re]])


def deficiency(spec: SymmetricPairSpec, tol: float = DEFAULT_TOL) -> DefectData:
    """Defect spaces of L as the +-i eigenspaces of L*.

    Requires L symmetric within tol.  A conjugate-linear L* is first
    realified (v -> M conj(v) becomes a real-linear map on (Re v, Im v));
    the realification of a symmetric conjugate-linear block is a real
    symmetric matrix, so its complexification has no +-i eigenvalues and
    the expected indices are again (0, 0).
    """
    block = build_L(spec)
    if symmetry_defect(block) > tol:
        raise PairError("L is not symmetric within tolerance")
    lstar = build_Lstar(spec).L
    if not lstar.is_linear:
        lstar = OperatorMatrix(_realify_conjugate(lstar.matrix), LINEAR)
    plus = eig_space(lstar, 1j, tol)
    minus = eig_space(lstar, -1j, tol)
    return DefectData(plus, minus)


def defect_flip(v, split) -> np.ndarray:
    """Map u (+) w to (-u) (+) w, carrying def_+ onto def_-."""
    v = np.asarray(v, dtype=complex)
    n1, n2 = split
    if v.shape[0] != n1 + n2:
        raise PairError(f"vector length {v.shape[0]} does not match split {split}")
    out = v.copy()
    out[:n1] = -out[:n1]
    return out


def is_maximal(spec: SymmetricPairSpec, tol: float = DEFAULT_TOL):
    """Maximality B = A* as (verdict, |A-B*|, |B-A*|), both deviations being
    the check_pair residual; kept because perfbench's metrics name it."""
    res = check_pair(spec, tol).residual
    return res < tol, res, res


def pair_from_json(obj) -> tuple:
    """Parse the shared pair JSON: {"A": <matrix>, "B": <matrix>, "tol": t}."""
    import json as _json

    if isinstance(obj, str):
        obj = _json.loads(obj)
    if not isinstance(obj, dict) or "A" not in obj or "B" not in obj:
        raise PairError("pair JSON must be an object with matrices A and B")
    A = OperatorMatrix.from_json(obj["A"])
    B = OperatorMatrix.from_json(obj["B"])
    try:
        tol = float(obj.get("tol", DEFAULT_TOL))
    except (TypeError, ValueError):
        tol = math.nan
    if not 0 <= tol < math.inf:  # NaN fails too
        raise PairError(f"pair tol is not a finite number >= 0: "
                        f"{obj['tol']!r}")
    return SymmetricPairSpec(A, B), tol
