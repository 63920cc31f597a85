import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympairs.core import (
    CONJUGATE,
    DEFAULT_TOL,
    LINEAR,
    OperatorMatrix,
    adjoint,
    eig_space,
)
from sympairs.pairs import (
    PairError,
    SymmetricPairSpec,
    build_L,
    build_Lstar,
    check_pair,
    defect_flip,
    deficiency,
    is_maximal,
    pair_from_json,
    symmetry_defect,
)
from sympairs.report import canon_float
from sympairs.suites import suite_pair


def hermite_sections(max_deg):
    """Orthonormal-coordinate sections of the derivative/creation pair.

    With the factorial norms, d/dx sends the degree-n unit vector to
    sqrt(n) times the degree n-1 unit vector, and the creation side
    raises with the same coefficient.  H1 holds degrees <= max_deg, H2
    degrees <= max_deg - 1.
    """
    n1 = max_deg + 1
    n2 = max_deg
    A = np.zeros((n2, n1))
    B = np.zeros((n1, n2))
    for n in range(1, n1):
        A[n - 1, n] = math.sqrt(n)
    for n in range(n2):
        B[n + 1, n] = math.sqrt(n + 1)
    return SymmetricPairSpec(OperatorMatrix(A), OperatorMatrix(B))


def test_spec_validation():
    with pytest.raises(PairError):
        SymmetricPairSpec(
            OperatorMatrix(np.eye(2)), OperatorMatrix(np.eye(3))
        )
    with pytest.raises(PairError):
        SymmetricPairSpec(
            OperatorMatrix(np.eye(2)), OperatorMatrix(np.eye(2), CONJUGATE)
        )


def test_check_pair_symmetric_matrix():
    M = np.array([[2.0, 1.0], [1.0, 3.0]])
    spec = SymmetricPairSpec(OperatorMatrix(M), OperatorMatrix(M))
    assert check_pair(spec) == 0.0


def test_check_pair_hermite_sections():
    spec = hermite_sections(5)
    res = check_pair(spec)
    assert res == 0.0
    assert res <= DEFAULT_TOL


def test_check_pair_deliberate_violation():
    spec = SymmetricPairSpec(
        OperatorMatrix(np.array([[1.0]])), OperatorMatrix(np.array([[2.0]]))
    )
    res = check_pair(spec)
    assert abs(res - 1.0) < 1e-15
    assert res > DEFAULT_TOL


def test_build_L_examples():
    spec = SymmetricPairSpec(
        OperatorMatrix(np.array([[1.0]])), OperatorMatrix(np.array([[1.0]]))
    )
    assert np.array_equal(build_L(spec).matrix,
                          np.array([[0.0, 1.0], [1.0, 0.0]]))
    spec = SymmetricPairSpec(
        OperatorMatrix(np.array([[2.0]])), OperatorMatrix(np.array([[3.0]]))
    )
    L = build_L(spec)
    assert np.array_equal(L.matrix, np.array([[0.0, 3.0], [2.0, 0.0]]))
    assert symmetry_defect(L) == check_pair(spec) == 1.0


def test_build_L_hermite_symmetric():
    assert symmetry_defect(build_L(hermite_sections(5))) < 1e-12


def test_build_Lstar_examples():
    spec = SymmetricPairSpec(
        OperatorMatrix(np.array([[2.0]])), OperatorMatrix(np.array([[3.0]]))
    )
    assert np.array_equal(build_Lstar(spec).matrix,
                          np.array([[0.0, 2.0], [3.0, 0.0]]))


def test_build_Lstar_is_adjoint_of_build_L():
    rng = np.random.default_rng(10)
    A = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    B = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    spec = SymmetricPairSpec(OperatorMatrix(A), OperatorMatrix(B))
    dev = np.max(
        np.abs(build_Lstar(spec).matrix - adjoint(build_L(spec)).matrix)
    )
    assert dev < 1e-12


def test_block_defect_bounds_pair_residual():
    # symmetry defect of L and pair residual bound each other
    specs = [
        hermite_sections(5),
        SymmetricPairSpec(
            OperatorMatrix(np.array([[1.0, 0.2], [0.2, 1.0]])),
            OperatorMatrix(np.array([[1.0, 0.2], [0.2, 1.0]])),
        ),
        SymmetricPairSpec(
            OperatorMatrix(np.array([[2.0]])), OperatorMatrix(np.array([[3.0]]))
        ),
    ]
    for spec in specs:
        res = check_pair(spec)
        defect = symmetry_defect(build_L(spec))
        assert defect <= 2.0 * res + 1e-15
        assert res <= defect + 1e-15


def test_deficiency_zero_on_symmetric_sections():
    plus, minus = deficiency(hermite_sections(5))
    assert (len(plus), len(minus)) == (0, 0)


def test_deficiency_rejects_non_symmetric():
    spec = SymmetricPairSpec(
        OperatorMatrix(np.array([[2.0]])), OperatorMatrix(np.array([[3.0]]))
    )
    with pytest.raises(PairError):
        deficiency(spec)


def test_defect_flip_trivial():
    assert np.array_equal(defect_flip([1.0, 2.0, 0.0], (2, 1)),
                          [-1.0, -2.0, 0.0])
    assert np.array_equal(defect_flip([0.0, 0.0, 3.0], (2, 1)),
                          [0.0, 0.0, 3.0])
    with pytest.raises(PairError):
        defect_flip([1.0, 2.0], (2, 1))


def test_defect_flip_on_synthetic_probe():
    # non-symmetric probe with actual +-i eigenvectors of L*: columns of
    # A orthonormal makes L skew-adjoint with unit singular values
    rng = np.random.default_rng(11)
    M = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    Q, _ = np.linalg.qr(M)
    A = Q[:, :3]
    spec = SymmetricPairSpec(
        OperatorMatrix(A), OperatorMatrix(-A.conj().T)
    )
    lstar = build_Lstar(spec)
    plus = eig_space(lstar, 1j, 1e-9)
    assert plus
    for v in plus:
        out = defect_flip(v, (spec.dim_h1, spec.dim_h2))
        resid = np.linalg.norm(lstar.apply(out) - (-1j) * out)
        assert resid < 1e-9


def test_is_maximal_examples():
    M = np.array([[1.0, 0.5], [0.5, 2.0]])
    spec = SymmetricPairSpec(OperatorMatrix(M), OperatorMatrix(M))
    ok, dA, dB = is_maximal(spec)
    assert ok and dA < 1e-15 and dB < 1e-15
    spec = SymmetricPairSpec(
        OperatorMatrix(np.array([[1.0, 0.0]])),
        OperatorMatrix(np.array([[1.0], [0.0]])),
    )
    assert is_maximal(spec)[0]
    spec = SymmetricPairSpec(
        OperatorMatrix(np.array([[1.0, 0.0]])),
        OperatorMatrix(np.array([[1.0], [1.0]])),
    )
    assert not is_maximal(spec)[0]
    assert check_pair(spec) > 0.5


def test_check_pair_conjugate_adjoint_is_transpose():
    A = np.array([[1j, 2.0]])
    spec = SymmetricPairSpec(OperatorMatrix(A, CONJUGATE),
                             OperatorMatrix(A.T, CONJUGATE))
    assert check_pair(spec) == 0.0
    spec = SymmetricPairSpec(OperatorMatrix(A, CONJUGATE),
                             OperatorMatrix(A.conj().T, CONJUGATE))
    assert check_pair(spec) == 2.0


def adjoint_deviation_oracle(A, B, linearity):
    """max |B - A*| with the tag-aware adjoint, straight from the matrices."""
    Astar = A.T if linearity == CONJUGATE else A.conj().T
    return float(np.max(np.abs(B - Astar)))


@st.composite
def random_pairs(draw):
    """(A, B, tag): B is A* exactly or plus a perturbation of drawn size."""
    n1, n2 = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    linearity = draw(st.sampled_from([LINEAR, CONJUGATE]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.normal(size=(n2, n1)) + 1j * rng.normal(size=(n2, n1))
    B = A.T if linearity == CONJUGATE else A.conj().T
    scale = draw(st.sampled_from([0.0, 1e-13, 1e-9, 1e-6, 1.0]))
    B = B + scale * (rng.normal(size=B.shape) + 1j * rng.normal(size=B.shape))
    return A, B, linearity


@settings(max_examples=200, deadline=None)
@given(random_pairs())
def test_suite_pair_records_carry_one_adjoint_deviation(pair):
    A, B, linearity = pair
    spec = SymmetricPairSpec(OperatorMatrix(A, linearity),
                             OperatorMatrix(B, linearity))
    dev = adjoint_deviation_oracle(A, B, linearity)
    # |A - B*| has the same entries, conjugated and transposed
    assert adjoint_deviation_oracle(B, A, linearity) == dev
    assert check_pair(spec) == dev
    assert is_maximal(spec)[1:] == (dev, dev)
    recs = {r.check: r for r in suite_pair(spec, 1e-10)}
    for check in ("pair_identity", "block_symmetry", "maximality"):
        assert recs[check].residual == canon_float(dev), check
        assert recs[check].passed == (canon_float(dev) <= 1e-10), check
    assert recs["maximality"].message == f"|A-B*|={dev:.3e} |B-A*|={dev:.3e}"
    assert recs["block_adjoint"].residual == 0.0


def test_suite_pair_one_entry_off_fails_three_records():
    # one pass rule: each record passes iff its residual <= tol, so a broken
    # pair fails the pair identity, the block symmetry and maximality alike
    spec = hermite_sections(3)
    B = spec.B.matrix.copy()
    B[0, 1] += 1e-6
    bad = SymmetricPairSpec(spec.A, OperatorMatrix(B, spec.linearity))
    for pair, ok in ((spec, True), (bad, False)):
        recs = {r.check: r for r in suite_pair(pair, DEFAULT_TOL)}
        for check in ("pair_identity", "block_symmetry", "maximality"):
            assert recs[check].passed == ok, recs[check]
        assert recs["block_adjoint"].passed, recs["block_adjoint"]


def test_pair_from_json_round_trip():
    spec = hermite_sections(3)
    obj = {
        "A": spec.A.to_json(),
        "B": spec.B.to_json(),
        "tol": 1e-8,
    }
    back, tol = pair_from_json(obj)
    assert tol == 1e-8
    assert np.array_equal(back.A.matrix, spec.A.matrix)
    assert np.array_equal(back.B.matrix, spec.B.matrix)
