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
    CONJUGATE,
    DEFAULT_TOL,
    LINEAR,
    OperatorError,
    OperatorMatrix,
    adjoint,
    compose,
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
    Both reduce to the entrywise deviation of B from the adjoint of A.
    Column j of ``AE`` is A e_j; entry (j, k) of ``BE`` is <e_j, B e_k>.
    """
    AE = spec.A.apply(np.eye(spec.dim_h1))
    BE = spec.B.apply(np.eye(spec.dim_h2))
    if spec.linearity == CONJUGATE:
        BE = np.conj(BE)
    residual = np.max(np.abs(AE.conj().T - BE), initial=0.0)
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


def psi_pm(u, spec: SymmetricPairSpec, sign: int, tol: float = DEFAULT_TOL):
    """Lift u with ``A*B*u = -u`` to the defect vector ``u (+) sign*i*B*u``.

    Returns (vector, precondition_residual, eigen_residual, eigenvalue).
    The output satisfies ``L* v = (-sign*i) v`` up to a constant multiple
    of the precondition residual; the eigenvalue actually verified is
    reported rather than assumed.
    """
    if sign not in (1, -1):
        raise PairError("sign must be +1 or -1")
    u = np.asarray(u, dtype=complex)
    if u.shape[0] != spec.dim_h1:
        raise PairError("u must live in H1")
    Bs = adjoint(spec.B)
    prod = compose(adjoint(spec.A), adjoint(spec.B))
    pre_residual = float(np.linalg.norm(prod.apply(u) + u))
    vec = np.concatenate([u, sign * 1j * Bs.apply(u)])
    lstar = build_Lstar(spec).L
    lam = -sign * 1j
    eig_residual = float(np.linalg.norm(lstar.apply(vec) - lam * vec))
    return vec, pre_residual, eig_residual, lam


def lq_apply(spec: SymmetricPairSpec, x, y, u, v) -> np.ndarray:
    """Action of the extension L_Q on x (+) y plus defect parameters u, v.

    Returns ``(By + iu - iv) (+) (Ax + B*u + B*v)``; u = v = 0 recovers L.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if x.shape[0] != spec.dim_h1 or u.shape[0] != spec.dim_h1:
        raise PairError("x and u must live in H1")
    if y.shape[0] != spec.dim_h2 or v.shape[0] != spec.dim_h1:
        raise PairError("y must live in H2, v in H1")
    Bs = adjoint(spec.B)
    top = spec.B.apply(y) + 1j * u - 1j * v
    bottom = spec.A.apply(x) + Bs.apply(u) + Bs.apply(v)
    return np.concatenate([top, bottom])


def qtilde_isometry_check(spec: SymmetricPairSpec, u, qu) -> float:
    """Deviation of qu from the isometry condition on the defect parameter."""
    u = np.asarray(u, dtype=complex)
    qu = np.asarray(qu, dtype=complex)
    Bs = adjoint(spec.B)
    left = np.linalg.norm(u) ** 2 + np.linalg.norm(Bs.apply(u)) ** 2
    right = np.linalg.norm(qu) ** 2 + np.linalg.norm(Bs.apply(qu)) ** 2
    return float(abs(left - right))


def is_maximal(spec: SymmetricPairSpec, tol: float = DEFAULT_TOL):
    """Finite-dimensional maximality: A equals B* entrywise.

    One equality suffices (the two deviations are conjugate transposes of
    each other); both are reported.  Returns (verdict, |A - B*|, |B - A*|).
    """
    dA = float(np.max(np.abs(spec.A.matrix - adjoint(spec.B).matrix)))
    dB = float(np.max(np.abs(spec.B.matrix - adjoint(spec.A).matrix)))
    return dA < tol, dA, dB


def defect_eig(spec: SymmetricPairSpec, tol: float = DEFAULT_TOL):
    """Orthonormal basis of the (-1)-eigenspace of A*B* on H1.

    A nonzero result certifies a strict containment for the represented
    sections; an empty list on exact finite sections is the expected
    "no finite-section defect" outcome.
    """
    prod = compose(adjoint(spec.A), adjoint(spec.B))
    return eig_space(prod, -1.0, tol)


def pair_from_json(obj) -> tuple:
    """Parse the shared pair JSON: {"A": <matrix>, "B": <matrix>, "tol": t}."""
    import json as _json

    if isinstance(obj, str):
        obj = _json.loads(obj)
    A = OperatorMatrix.from_json(obj["A"])
    B = OperatorMatrix.from_json(obj["B"])
    tol = float(obj.get("tol", DEFAULT_TOL))
    return SymmetricPairSpec(A, B), tol
