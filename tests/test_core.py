import numpy as np
import pytest

from sympairs.core import (
    CONJUGATE,
    LINEAR,
    CooOperator,
    OperatorError,
    OperatorMatrix,
    adjoint,
    cayley,
    compose,
    eig_space,
    polar_decompose,
    realify,
    spectrum,
    sqrt_psd,
    unitary_power,
)


def rand_complex(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def test_operator_matrix_validation():
    with pytest.raises(OperatorError):
        OperatorMatrix(np.array([1.0, 2.0]))
    with pytest.raises(OperatorError):
        OperatorMatrix(np.array([[np.inf, 0], [0, 1]]))
    with pytest.raises(OperatorError):
        OperatorMatrix(np.eye(2), "antilinear")


def test_operator_matrix_immutable():
    T = OperatorMatrix(np.eye(2))
    with pytest.raises(AttributeError, match="OperatorMatrix is immutable"):
        T.linearity = CONJUGATE
    with pytest.raises(ValueError):
        T.matrix[0, 0] = 5.0


def test_apply_honors_tag():
    M = np.array([[1j, 0], [0, 2]])
    v = np.array([1 + 1j, 1.0])
    lin = OperatorMatrix(M, LINEAR)
    con = OperatorMatrix(M, CONJUGATE)
    assert np.allclose(lin.apply(v), M @ v)
    assert np.allclose(con.apply(v), M @ np.conj(v))


@pytest.mark.parametrize("shape", [(), (3,), (3, 2), (2, 2, 1), (0,)])
def test_apply_refuses_bad_shapes(shape):
    # a (k, cols) stack reached matmul and a 0-d input raised IndexError
    T = OperatorMatrix(np.ones((3, 2)))
    with pytest.raises(OperatorError, match="dimension mismatch"):
        T.apply(np.ones(shape))
    assert T.apply(np.ones(2)).shape == (3,)
    assert T.apply(np.ones((2, 4))).shape == (3, 4)


def test_json_round_trip():
    rng = np.random.default_rng(0)
    T = OperatorMatrix(rand_complex(rng, 3, 2), CONJUGATE)
    back = OperatorMatrix.from_json(T.to_json())
    assert back.linearity == CONJUGATE
    assert np.array_equal(back.matrix, T.matrix)


def test_adjoint_identity_is_identity():
    T = OperatorMatrix(np.eye(3))
    assert np.array_equal(adjoint(T).matrix, np.eye(3))


def test_adjoint_linear_is_conjugate_transpose():
    rng = np.random.default_rng(1)
    M = rand_complex(rng, 4, 3)
    assert np.array_equal(adjoint(OperatorMatrix(M)).matrix, M.conj().T)


def test_adjoint_conjugate_is_plain_transpose():
    # verify the defining identity <Tu, v> = conj(<u, T* v>) on basis
    # probes before trusting the closed form
    rng = np.random.default_rng(2)
    C = rand_complex(rng, 3, 3)
    T = OperatorMatrix(C, CONJUGATE)
    Ts = adjoint(T)
    assert np.array_equal(Ts.matrix, C.T)
    assert Ts.linearity == CONJUGATE
    for j in range(3):
        for k in range(3):
            u = np.zeros(3, dtype=complex)
            v = np.zeros(3, dtype=complex)
            u[j] = 1.0
            v[k] = 1.0
            lhs = np.vdot(T.apply(u), v)
            rhs = np.conj(np.vdot(u, Ts.apply(v)))
            assert abs(lhs - rhs) < 1e-12


def test_adjoint_involution_both_tags():
    rng = np.random.default_rng(3)
    for tag in (LINEAR, CONJUGATE):
        T = OperatorMatrix(rand_complex(rng, 5, 4), tag)
        back = adjoint(adjoint(T))
        assert np.max(np.abs(back.matrix - T.matrix)) < 1e-12
        assert back.linearity == tag


def test_compose_tag_algebra():
    rng = np.random.default_rng(4)
    A = rand_complex(rng, 3, 3)
    B = rand_complex(rng, 3, 3)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    for ta in (LINEAR, CONJUGATE):
        for tb in (LINEAR, CONJUGATE):
            S = OperatorMatrix(A, ta)
            T = OperatorMatrix(B, tb)
            st = compose(S, T)
            assert np.allclose(st.apply(v), S.apply(T.apply(v)))
            expect_linear = (ta == tb)
            assert st.is_linear == expect_linear


def test_realify_acts_on_real_and_imaginary_parts():
    rng = np.random.default_rng(5)
    T = OperatorMatrix(rand_complex(rng, 3, 4), CONJUGATE)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    R = realify(T)
    assert R.shape == (6, 8) and R.dtype == float
    Tv = T.apply(v)
    assert np.allclose(R @ np.concatenate([v.real, v.imag]),
                       np.concatenate([Tv.real, Tv.imag]), atol=1e-12)
    with pytest.raises(OperatorError, match="conjugate-linear"):
        realify(OperatorMatrix(T.matrix, LINEAR))


def test_polar_diagonal():
    V, P = polar_decompose(OperatorMatrix(np.diag([2.0, 0.0])))
    assert np.allclose(V.matrix.matrix, np.diag([1.0, 0.0]))
    assert np.allclose(P.matrix, np.diag([2.0, 0.0]))


def test_polar_unitary_input():
    theta = 0.3
    U = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    V, P = polar_decompose(OperatorMatrix(U))
    assert np.max(np.abs(V.matrix.matrix - U)) < 1e-12
    assert np.max(np.abs(P.matrix - np.eye(2))) < 1e-12


def test_polar_reconstruction_and_projections():
    rng = np.random.default_rng(5)
    T = OperatorMatrix(rand_complex(rng, 4, 3))
    V, P = polar_decompose(T)
    recon = V.matrix.matrix @ P.matrix
    assert np.max(np.abs(recon - T.matrix)) < 1e-10 * (
        1 + np.max(np.abs(T.matrix))
    )
    for proj in (V.initial_projection, V.final_projection):
        M = proj.matrix
        assert np.max(np.abs(M @ M - M)) < 1e-10
        assert np.max(np.abs(M - M.conj().T)) < 1e-10


def test_polar_spectral_multiset_equality():
    # nonzero spectra of T*T and TT* agree as multisets
    rng = np.random.default_rng(6)
    M = rand_complex(rng, 4, 3)
    left = np.linalg.eigvalsh(M.conj().T @ M)
    right = np.linalg.eigvalsh(M @ M.conj().T)
    lnz = sorted(x for x in left if x > 1e-9)
    rnz = sorted(x for x in right if x > 1e-9)
    assert len(lnz) == len(rnz)
    assert np.max(np.abs(np.array(lnz) - np.array(rnz))) < 1e-9


def test_spectrum_examples():
    assert np.allclose(spectrum(OperatorMatrix(np.diag([3.0, 1.0, 2.0])))[0],
                       [1.0, 2.0, 3.0])
    assert np.allclose(
        spectrum(OperatorMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])))[0],
        [-1.0, 1.0],
    )
    # Gramian of two unit vectors at overlap 0.5: eigenvalues 0.5 and 1.5
    G = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert np.allclose(spectrum(OperatorMatrix(G))[0], [0.5, 1.5])


def test_spectrum_rejects_non_self_adjoint():
    with pytest.raises(OperatorError):
        spectrum(OperatorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]])))


def test_spectrum_reconstruction():
    rng = np.random.default_rng(7)
    M = rand_complex(rng, 4, 4)
    H = OperatorMatrix(M + M.conj().T)
    w, U = spectrum(H)
    recon = (U * w) @ U.conj().T
    assert np.max(np.abs(recon - H.matrix)) < 1e-10


def test_sqrt_psd_examples():
    assert np.allclose(sqrt_psd(OperatorMatrix(np.eye(3))).matrix, np.eye(3))
    assert np.allclose(
        sqrt_psd(OperatorMatrix(np.diag([4.0, 9.0]))).matrix,
        np.diag([2.0, 3.0]),
    )
    rng = np.random.default_rng(8)
    M = rand_complex(rng, 4, 4)
    P = OperatorMatrix(M.conj().T @ M)
    Q = sqrt_psd(P).matrix
    assert np.max(np.abs(Q @ Q - P.matrix)) < 1e-10


def test_sqrt_psd_rejects_negative():
    with pytest.raises(OperatorError):
        sqrt_psd(OperatorMatrix(np.diag([1.0, -0.5])))


def test_cayley_examples():
    assert np.max(np.abs(cayley(OperatorMatrix(np.zeros((2, 2)))).matrix
                         - np.eye(2))) < 1e-12
    C = cayley(OperatorMatrix(np.array([[1.0]])))
    assert abs(C.matrix[0, 0] - (1j - 1) / (1j + 1)) < 1e-12
    assert abs(C.matrix[0, 0] - 1j) < 1e-12


def test_cayley_unitarity_and_no_minus_one():
    rng = np.random.default_rng(9)
    M = rng.normal(size=(5, 5))
    T = OperatorMatrix(M + M.T)
    C = cayley(T).matrix
    assert np.max(np.abs(C.conj().T @ C - np.eye(5))) < 1e-10
    # no eigenvalue of C(T) equals -1 for bounded symmetric T
    w = np.linalg.eigvals(C)
    assert np.min(np.abs(w + 1.0)) > 1e-6


def test_cayley_rejects_non_symmetric():
    with pytest.raises(OperatorError):
        cayley(OperatorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]])))


def test_unitary_power_examples():
    assert np.allclose(unitary_power(OperatorMatrix(np.eye(3)), 2.5).matrix,
                       np.eye(3))
    assert np.allclose(
        unitary_power(OperatorMatrix(np.diag([4.0])), 0.0).matrix, [[1.0]]
    )
    H = OperatorMatrix(np.diag([np.e, 1.0]))
    U = unitary_power(H, 2 * np.pi).matrix
    assert np.max(np.abs(U - np.eye(2))) < 1e-12


def test_unitary_power_rejects_nonpositive():
    with pytest.raises(OperatorError):
        unitary_power(OperatorMatrix(np.diag([1.0, 0.0])), 1.0)


def test_eig_space_kernel_examples():
    # lam = 0 gives the kernel, with the threshold still relative to |T|
    assert eig_space(OperatorMatrix(np.eye(4)), 0.0) == []
    basis = eig_space(OperatorMatrix(np.zeros((3, 3))), 0.0)
    assert len(basis) == 3
    basis = eig_space(OperatorMatrix(np.array([[1.0, 1.0], [1.0, 1.0]])), 0.0)
    assert len(basis) == 1
    v = basis[0]
    expect = np.array([1.0, -1.0]) / np.sqrt(2)
    assert min(np.max(np.abs(v - expect)), np.max(np.abs(v + expect))) < 1e-12


def test_eig_space_examples():
    assert len(eig_space(OperatorMatrix(np.eye(3)), 1.0)) == 3
    basis = eig_space(OperatorMatrix(np.diag([1j, -1j])), 1j)
    assert len(basis) == 1
    assert np.max(np.abs(basis[0] - np.array([1.0, 0.0]))) < 1e-12
    basis = eig_space(OperatorMatrix(np.array([[0.0, 1.0], [-1.0, 0.0]])), 1j)
    assert len(basis) == 1
    v = basis[0]
    expect = np.array([1.0, 1j]) / np.sqrt(2)
    phase = v[0] / expect[0]
    assert abs(abs(phase) - 1) < 1e-12
    assert np.max(np.abs(v - phase * expect)) < 1e-12


def test_eig_space_orthonormal():
    basis = eig_space(OperatorMatrix(np.eye(3) * 2.0), 2.0)
    B = np.column_stack(basis)
    assert np.max(np.abs(B.conj().T @ B - np.eye(3))) < 1e-12


@pytest.mark.parametrize("op, message", [
    (spectrum, "matrix is not self-adjoint within tolerance"),
    (cayley, r"cayley requires a symmetric \(self-adjoint\) matrix"),
])
def test_self_adjoint_guard_is_shared(op, message):
    # one rule for spectrum and cayley: |M - M^H| <= tol (1 + max|M|)
    name = op.__name__
    M = np.array([[2.0, 1.0], [1.0 + 3e-3, 2.0]])  # defect 3e-3, max|M| 2
    op(OperatorMatrix(M), tol=1e-3)
    with pytest.raises(OperatorError, match=message):
        op(OperatorMatrix(M), tol=0.999e-3)
    with pytest.raises(OperatorError, match=f"{name} requires a square"):
        op(OperatorMatrix(np.ones((2, 3))))
    with pytest.raises(OperatorError, match=f"{name} requires a linear"):
        op(OperatorMatrix(np.eye(2), CONJUGATE))


def random_coo(rng, shape, nnz, tag):
    """A CooOperator with nnz random entries, coordinates drawn with
    repeats so that some of them add."""
    row = rng.integers(0, shape[0], nnz)
    col = rng.integers(0, shape[1], nnz)
    return CooOperator(row, col, rand_complex(rng, nnz, 1), shape, tag)


def test_coo_to_dense_sums_repeats_in_order():
    T = CooOperator([0, 1, 0], [2, 0, 2], [1.0, 2j, 0.5], (2, 3))
    assert np.array_equal(T.to_dense(), [[0, 0, 1.5], [2j, 0, 0]])
    assert (T.rows, T.cols, T.is_linear) == (2, 3, True)
    empty = CooOperator([], [], [], (2, 3), CONJUGATE)
    assert np.array_equal(empty.to_dense(), np.zeros((2, 3)))
    assert np.array_equal(empty.apply(np.ones(3)), np.zeros(2))


def test_coo_apply_and_adjoint_match_the_dense_form():
    rng = np.random.default_rng(6)
    for tag in (LINEAR, CONJUGATE):
        T = random_coo(rng, (4, 5), 12, tag)
        dense = OperatorMatrix(T.to_dense(), tag)
        v = rand_complex(rng, 5, 1)[:, 0]
        block = rand_complex(rng, 5, 3)
        assert np.allclose(T.apply(v), dense.apply(v), rtol=0, atol=1e-12)
        assert np.allclose(T.apply(block), dense.apply(block), rtol=0,
                           atol=1e-12)
        Ts = adjoint(T)
        # conj commutes with the sums, so the adjoint is exact
        assert np.array_equal(Ts.to_dense(), adjoint(dense).matrix)
        assert Ts.linearity == tag and Ts.shape == (5, 4)
        back = adjoint(Ts)
        assert np.array_equal(back.to_dense(), T.to_dense())
        # the defining identity, with the conjugation the tag asks for
        u, w = rand_complex(rng, 5, 1)[:, 0], rand_complex(rng, 4, 1)[:, 0]
        lhs, rhs = np.vdot(T.apply(u), w), np.vdot(u, Ts.apply(w))
        assert abs(lhs - (rhs if tag == LINEAR else np.conj(rhs))) < 1e-12


@pytest.mark.parametrize("args, match", [
    (([0], [0, 1], [1.0, 1.0], (2, 2)), "differ in length"),
    (([2], [0], [1.0], (2, 2)), "outside"),
    (([0], [-1], [1.0], (2, 2)), "outside"),
    (([0], [0], [np.nan], (2, 2)), "non-finite"),
    (([0], [0], [1.0], (2, 2), "antilinear"), "linearity tag"),
    (([0], [0], [1.0], (2, -1)), "shape"),
    (([0], [0], [1.0], (2, 2, 2)), "shape"),
])
def test_coo_validation(args, match):
    with pytest.raises(OperatorError, match=match):
        CooOperator(*args)


def test_coo_is_immutable_and_owns_its_arrays():
    row = np.array([0, 1])
    T = CooOperator(row, [1, 0], [1.0, 2.0], (2, 2))
    row[0] = 1
    assert T.row.tolist() == [0, 1]
    with pytest.raises(AttributeError, match="CooOperator is immutable"):
        T.vals = np.zeros(2)
    for arr in (T.row, T.col, T.vals, adjoint(T).vals):
        assert not arr.flags.writeable
    with pytest.raises(OperatorError, match="dimension mismatch"):
        T.apply(np.ones(3))
