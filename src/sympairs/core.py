"""Complex linear algebra substrate.

Operators are stored as dense complex matrices, or as coordinate triples
(``CooOperator``) when each row holds a few entries, together with a
linearity tag.  A *linear* operator acts as ``v -> M v``; a *conjugate-linear*
operator acts as ``v -> M conj(v)``.  All inner products are
conjugate-linear in the FIRST argument, i.e. ``<u, v> = u^H v``, and
every function here is pure: inputs are never mutated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

LINEAR = "linear"
CONJUGATE = "conjugate"

#: default tolerance for identity-style residual checks
DEFAULT_TOL = 1e-10

#: rounding factor of every residual tolerance: judged against
#: ROUNDING eps scale alone, the worst true residual read 0.38 of it
#: (``double_commutant``) on rotated rho (n = 2..5, cond(rho) up to 1.9e6,
#: |t| up to 1e3), graphs to 2,000 vertices (conductances scaled by
#: 1e-6..1e6) and defect recurrences
ROUNDING = 64

#: the one memory budget, for arrays a problem would build; it admits
#: every size the default batch, benchmark and CI run (the largest,
#: malliavin d=2 N=40, peaks at 413 MiB) and refuses d=10 N=8 (971 MiB)
MAX_BYTES = 3 * 2**28


class OperatorError(ValueError):
    """Raised for malformed operators or violated preconditions."""


def not_bool(x):
    """``x``, or TypeError for a bool: JSON's true and false parse to one,
    which int(), float() and complex() would read as 1 and 0."""
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is not a number")
    return x


def parse_tol(raw, name: str) -> float:
    """``raw`` as a finite tolerance >= 0, or ValueError naming ``name``:
    NaN fails every check and inf passes every one; 0 makes strict checks
    fail, a check failure, not an input error.  A boolean (JSON true or
    false) is not a number here, and an integer past the float range is
    refused."""
    try:
        tol = float(not_bool(raw))
    except OverflowError:  # an integer past the float range
        tol = math.inf
    except (TypeError, ValueError):
        raise ValueError(f"{name} is not a number: {raw!r}") from None
    if not 0 <= tol < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative")
    return tol


def rounding_tol(floor: float, scale: float) -> float:
    """max(floor, ROUNDING eps scale): the tolerance of a record whose
    rounding errors scale with ``scale``; ``floor`` is ``--tol``."""
    return max(floor, ROUNDING * np.finfo(float).eps * scale)


def check_budget(nbytes: int, what: str, error: type) -> None:
    """Refuse ``what`` with ``error`` when ``nbytes``, an exact integer
    price of the arrays it is about to build, exceeds MAX_BYTES."""
    if nbytes > MAX_BYTES:
        limit = f"{MAX_BYTES / 2**30:g} GiB"
        if 1000 * nbytes <= 1001 * MAX_BYTES:
            # 4 digits in GiB would read as the limit: MiB, tenths rounded up
            size, limit = (f"{-(-10 * nbytes // 2**20) / 10:.1f} MiB",
                           f"{MAX_BYTES / 2**20:.1f} MiB")
        elif nbytes < 2**1000:  # a float
            size = f"{nbytes / 2**30:.4g} GiB"
        else:
            size = f"over 2^{nbytes.bit_length() - 1} bytes"
        raise error(f"{what} refused: needs {size} (limit {limit})")


def readonly(arr: np.ndarray) -> np.ndarray:
    """``arr``, marked read-only: only for an array its caller built or
    copied itself, never one it was given."""
    arr.setflags(write=False)
    return arr


class Immutable:
    """Base of the immutable values: ``_fill`` sets each field once, and
    any later assignment raises AttributeError."""

    __slots__ = ()

    def _fill(self, **fields):
        """Set ``fields``, marking each array among them read-only: pass
        only arrays this object built or copied itself."""
        for name, value in fields.items():
            if isinstance(value, np.ndarray):
                readonly(value)
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class _Tagged(Immutable):
    """What both operator storages share: the linearity tag, the shape
    and the check of the vector or block that ``apply`` takes."""

    __slots__ = ()

    def _fill(self, linearity, **fields):
        if linearity not in (LINEAR, CONJUGATE):
            raise OperatorError(f"unknown linearity tag {linearity!r}")
        super()._fill(linearity=linearity, **fields)

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]

    @property
    def is_linear(self) -> bool:
        return self.linearity == LINEAR

    def _operand(self, v) -> np.ndarray:
        """``v`` as a complex (cols,) vector or (cols, k) block, conjugated
        when the operator is conjugate-linear."""
        v = np.asarray(v, dtype=complex)
        if v.ndim not in (1, 2) or v.shape[0] != self.cols:
            raise OperatorError(
                f"dimension mismatch: operator is {self.rows}x{self.cols}, "
                f"vector has shape {v.shape}"
            )
        return v if self.is_linear else np.conj(v)


class OperatorMatrix(_Tagged):
    """A dense matrix tagged as linear or conjugate-linear.

    Immutable: the wrapped ndarray is marked read-only on construction.
    """

    __slots__ = ("matrix", "shape", "linearity")

    def __init__(self, matrix, linearity: str = LINEAR):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2:
            raise OperatorError("operator matrix must be 2-dimensional")
        if not np.all(np.isfinite(m)):
            raise OperatorError("operator matrix has non-finite entries")
        self._fill(linearity, matrix=m, shape=m.shape)

    def apply(self, v):
        """Apply the operator to a (cols,) vector or the columns of a
        (cols, k) block, honoring the linearity tag."""
        return self.matrix @ self._operand(v)

    def __repr__(self):
        return f"OperatorMatrix({self.rows}x{self.cols}, {self.linearity})"

    def to_json(self) -> str:
        """Serialize to the shared matrix JSON format."""
        entries = [[z.real, z.imag] for z in self.matrix.reshape(-1)]
        return json.dumps(
            {
                "rows": self.rows,
                "cols": self.cols,
                "linearity": self.linearity,
                "entries": entries,
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "OperatorMatrix":
        try:
            obj = json.loads(text) if isinstance(text, str) else text
            rows, cols = (int(not_bool(obj[k])) for k in ("rows", "cols"))
            # complex() reads JSON's true and false as 1 and 0: a pair
            # holding one goes to complex(None), which raises TypeError
            data = [complex(re, im) if type(re) is not bool
                    and type(im) is not bool else complex(None)
                    for re, im in obj["entries"]]
        except (TypeError, ValueError, KeyError, OverflowError):
            raise OperatorError("matrix JSON must be an object with integer "
                                "rows, cols and [re, im] entries") from None
        if min(rows, cols) < 1 or len(data) != rows * cols:
            raise OperatorError(f"{rows}x{cols} matrix with {len(data)} "
                                "entries; need rows, cols >= 1 and "
                                "rows*cols entries")
        data = np.array(data, dtype=complex).reshape(rows, cols)
        return OperatorMatrix(data, obj.get("linearity", LINEAR))


class CooOperator(_Tagged):
    """An operator held as coordinate triples, tagged like OperatorMatrix.

    Entry ``(row[t], col[t])`` holds ``vals[t]``; repeated coordinates
    add, in listed order, and an unlisted coordinate is zero.  Immutable:
    the three arrays are marked read-only on construction.
    """

    __slots__ = ("row", "col", "vals", "shape", "linearity")

    def __init__(self, row, col, vals, shape, linearity: str = LINEAR):
        row, col = (np.array(a, dtype=np.intp).ravel() for a in (row, col))
        vals = np.array(vals, dtype=complex).ravel()
        shape = tuple(int(n) for n in shape)
        if len(shape) != 2 or min(shape) < 0:
            raise OperatorError(f"bad operator shape {shape}")
        if not len(row) == len(col) == len(vals):
            raise OperatorError("row, col and vals differ in length")
        if len(row) and not (0 <= min(row.min(), col.min()) and row.max()
                             < shape[0] and col.max() < shape[1]):
            raise OperatorError(f"a coordinate lies outside {shape}")
        if not np.all(np.isfinite(vals)):
            raise OperatorError("operator has non-finite entries")
        self._fill(linearity, row=row, col=col, vals=vals, shape=shape)

    def apply(self, v):
        """Apply the operator to a (cols,) vector or the columns of a
        (cols, k) block, honoring the linearity tag."""
        v = self._operand(v)
        vals = self.vals if v.ndim == 1 else self.vals[:, None]
        out = np.zeros((self.rows, *v.shape[1:]), dtype=complex)
        np.add.at(out, self.row, vals * v[self.col])
        return out

    def to_dense(self) -> np.ndarray:
        """The dense matrix, an oracle form: repeated coordinates are
        summed in listed order."""
        M = np.zeros(self.shape, dtype=complex)
        np.add.at(M, (self.row, self.col), self.vals)
        return M


@dataclass(frozen=True)
class PartialIsometry:
    """Partial isometry with its initial and final projections.

    ``V^H V = initial_projection`` and ``V V^H = final_projection``
    within tolerance; both projections are orthogonal projections.
    """

    matrix: OperatorMatrix
    initial_projection: OperatorMatrix
    final_projection: OperatorMatrix


def adjoint(T):
    """Adjoint with the same linearity tag and the same storage.

    Linear case: conjugate transpose, satisfying ``<Tu, v> = <u, T*v>``.
    Conjugate-linear case: plain transpose (no conjugation), satisfying
    ``<Tu, v> = conj(<u, T*v>)``.  A CooOperator's rows and cols swap,
    and its entries are conjugated only when linear.
    """
    if isinstance(T, CooOperator):
        # valid already: of the fields, _fill checks only the tag again
        out = object.__new__(CooOperator)
        out._fill(T.linearity, row=T.col, col=T.row,
                  vals=T.vals.conj() if T.is_linear else T.vals,
                  shape=T.shape[::-1])
        return out
    if T.is_linear:
        return OperatorMatrix(T.matrix.conj().T, LINEAR)
    return OperatorMatrix(T.matrix.T, CONJUGATE)


def compose(S: OperatorMatrix, T: OperatorMatrix) -> OperatorMatrix:
    """The composition ``S o T``, with the induced linearity tag.

    conj(conj(v)) = v, so two conjugate-linear factors compose to a
    linear operator; the matrix of the inner factor is conjugated when
    the outer factor is conjugate-linear.
    """
    if T.rows != S.cols:
        raise OperatorError(
            f"cannot compose {S.rows}x{S.cols} after {T.rows}x{T.cols}"
        )
    if S.is_linear:
        mat = S.matrix @ T.matrix
        tag = T.linearity
    else:
        mat = S.matrix @ np.conj(T.matrix)
        tag = CONJUGATE if T.is_linear else LINEAR
    return OperatorMatrix(mat, tag)


def realify(T: OperatorMatrix) -> np.ndarray:
    """``[[Re M, Im M], [Im M, -Re M]]``: conjugate-linear T on (Re v, Im v)."""
    if T.is_linear:
        raise OperatorError("realify takes a conjugate-linear operator")
    re, im = T.matrix.real, T.matrix.imag
    return np.block([[re, im], [im, -re]])


def _require_linear(T: OperatorMatrix, op_name: str):
    if not T.is_linear:
        raise OperatorError(f"{op_name} requires a linear operator")


def _self_adjoint(T: OperatorMatrix, op_name: str, tol: float,
                  message: str) -> np.ndarray:
    """T's matrix, once T is linear, square and within ``tol * (1 +
    max|T|)`` of its adjoint; otherwise OperatorError (``message``)."""
    _require_linear(T, op_name)
    M = T.matrix
    if M.shape[0] != M.shape[1]:
        raise OperatorError(f"{op_name} requires a square matrix")
    if M.size and np.max(np.abs(M - M.conj().T)) > tol * (
            1.0 + np.max(np.abs(M))):
        raise OperatorError(message)
    return M


def polar_decompose(T: OperatorMatrix, tol: float = 1e-12):
    """Polar factorization ``T = V P`` with ``P = (T*T)^{1/2}`` PSD.

    V is the partial isometry vanishing on ker T; its initial projection
    is onto the orthogonal complement of ker T, its final projection
    onto the closure of the range.
    """
    _require_linear(T, "polar_decompose")
    u, s, vh = np.linalg.svd(T.matrix, full_matrices=False)
    smax = s[0] if s.size else 0.0
    r = int(np.sum(s > tol * smax)) if smax > 0 else 0
    P = vh.conj().T @ (s[:, None] * vh)
    ur, vr = u[:, :r], vh[:r, :]
    V = OperatorMatrix(ur @ vr, LINEAR)
    P1 = OperatorMatrix(vr.conj().T @ vr, LINEAR)
    P2 = OperatorMatrix(ur @ ur.conj().T, LINEAR)
    return PartialIsometry(V, P1, P2), OperatorMatrix(P, LINEAR)


def spectrum(H: OperatorMatrix, tol: float = DEFAULT_TOL, return_vectors=False):
    """Real eigenvalues of a self-adjoint operator, ascending.

    Raises if H deviates from self-adjointness by more than
    ``tol * (1 + max|H|)``.  With ``return_vectors=True`` also returns
    the orthonormal eigenvector columns.
    """
    M = _self_adjoint(H, "spectrum", tol,
                      "matrix is not self-adjoint within tolerance")
    w, U = np.linalg.eigh(M)
    if return_vectors:
        return w, U
    return w


def root_from_spectrum(w, U, tol: float = DEFAULT_TOL) -> np.ndarray:
    """``U diag(sqrt w) U^H``: the PSD square root from an eigendecomposition.

    ``(w, U)`` is ``spectrum(P, return_vectors=True)`` of a self-adjoint
    P.  Eigenvalues in ``[-tol, 0)`` (scaled by the largest eigenvalue)
    are clamped to zero; anything more negative is an error, not a clamp.
    """
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    if w.size and w[0] < -tol * scale:
        raise OperatorError(
            f"matrix is not PSD: smallest eigenvalue {w[0]:.3e}"
        )
    return (U * np.sqrt(np.clip(w, 0.0, None))) @ U.conj().T


def sqrt_psd(P: OperatorMatrix, tol: float = DEFAULT_TOL) -> OperatorMatrix:
    """Positive semidefinite square root of a PSD self-adjoint operator."""
    w, U = spectrum(P, tol=tol, return_vectors=True)
    return OperatorMatrix(root_from_spectrum(w, U, tol), LINEAR)


def cayley(T: OperatorMatrix, tol: float = DEFAULT_TOL) -> OperatorMatrix:
    """Cayley transform ``(iI - T)(iI + T)^{-1}`` of a symmetric operator.

    For bounded everywhere-defined symmetric T the result is unitary.
    """
    M = _self_adjoint(T, "cayley", tol,
                      "cayley requires a symmetric (self-adjoint) matrix")
    n = M.shape[0]
    shift = 1j * np.eye(n)
    # (i - T)(i + T)^{-1}; solve on the right to avoid an explicit inverse
    try:
        C = np.linalg.solve((shift + M).T, (shift - M).T).T
    except np.linalg.LinAlgError as exc:
        raise OperatorError("(iI + T) is numerically singular") from exc
    return OperatorMatrix(C, LINEAR)


def power_from_spectrum(w, U, t, tol: float = DEFAULT_TOL) -> np.ndarray:
    """``U diag(w^{it}) U^H``: the unitary ``H^{it}`` from an
    eigendecomposition ``(w, U)`` of a positive definite H.  ``t`` is one
    time, or a (T, 1, 1) array of times for a (T, m, m) stack."""
    if w.size and w[0] <= tol:
        raise OperatorError(
            f"unitary_power requires positive eigenvalues, got {w[0]:.3e}"
        )
    phases = np.exp(1j * t * np.log(w.real))
    return (U * phases) @ U.conj().T


def unitary_power(H: OperatorMatrix, t: float, tol: float = DEFAULT_TOL) -> OperatorMatrix:
    """The unitary ``H^{it}`` for positive definite self-adjoint H."""
    w, U = spectrum(H, tol=tol, return_vectors=True)
    return OperatorMatrix(power_from_spectrum(w, U, t, tol), LINEAR)


def _fix_phases(basis: np.ndarray) -> np.ndarray:
    """Normalize column phases so the first sizable entry is real positive."""
    out = basis.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size:
            pivot = col[nz[0]]
            out[:, j] = col * (np.conj(pivot) / abs(pivot))
    return out


def eig_space(T: OperatorMatrix, lam: complex, tol: float = DEFAULT_TOL):
    """Orthonormal basis of the numerical ``lam``-eigenspace of T."""
    _require_linear(T, "eig_space")
    M = T.matrix
    if M.shape[0] != M.shape[1]:
        raise OperatorError("eig_space requires a square matrix")
    shifted = OperatorMatrix(M - lam * np.eye(M.shape[0]), LINEAR)
    # threshold relative to the unshifted operator so lam = 0 still works
    scale = max(float(np.max(np.abs(M))) if M.size else 0.0, abs(lam), 1e-300)
    u, s, vh = np.linalg.svd(shifted.matrix)
    rank = int(np.sum(s > tol * scale))
    basis = _fix_phases(vh[rank:].conj().T)
    return [basis[:, j] for j in range(basis.shape[1])]
