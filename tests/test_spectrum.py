"""Covariance construction, eigendecomposition against a Jacobi oracle, and rotations."""

import numpy as np
import pytest

from oracles import jacobi_eigh

from daedyn.errors import NotSymmetricError
from daedyn.spectrum import (
    Dataset,
    Spectrum,
    covariance,
    eigendecompose,
    projected_diagonal,
    random_orthogonal,
    read_spectrum_csv,
    rotate_weights,
    write_spectrum_csv,
)


def test_covariance_orthonormal_rows_gives_identity():
    ds = Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert np.array_equal(covariance(ds), np.eye(2))


def test_covariance_single_sample_outer_product():
    ds = Dataset(np.array([[1.0, 1.0]]))
    assert np.array_equal(covariance(ds), np.ones((2, 2)))


def test_covariance_matches_double_loop_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(0.0, 1.0, size=(100, 3)) * np.sqrt([2.0, 1.0, 0.25])
    expected = np.zeros((3, 3))
    for row in x:
        expected += np.outer(row, row)
    got = covariance(Dataset(x))
    scale = max(1.0, np.max(np.abs(expected)))
    assert np.max(np.abs(got - expected)) <= 1e-12 * scale


def test_covariance_rejects_nonfinite_with_sample_index():
    x = np.ones((4, 2))
    x[2, 1] = np.inf
    with pytest.raises(ValueError, match="sample 2"):
        covariance(x)
    with pytest.raises(ValueError, match="sample 2"):
        Dataset(x)


def test_eigendecompose_identity():
    spec = eigendecompose(np.eye(3))
    assert np.array_equal(spec.eigenvalues, np.ones(3))
    assert np.array_equal(spec.eigenvectors, np.eye(3))


def test_eigendecompose_diagonal_gives_sorted_permutation():
    spec = eigendecompose(np.diag([1.0, 3.0, 2.0]))
    assert np.array_equal(spec.eigenvalues, [3.0, 2.0, 1.0])
    expected = np.zeros((3, 3))
    expected[1, 0] = expected[2, 1] = expected[0, 2] = 1.0
    assert np.array_equal(spec.eigenvectors, expected)


def _oracle_spectrum(a):
    """Jacobi eigenpairs put in eigendecompose's order and sign convention."""
    lams, v = jacobi_eigh(a)
    order = np.argsort(-lams, kind="stable")
    lams, v = lams[order], v[:, order]
    peak = np.argmax(np.abs(v), axis=0)
    return lams, v * np.where(v[peak, np.arange(v.shape[1])] < 0.0, -1.0, 1.0)


def _eigendecompose_pairs(a):
    spec = eigendecompose(a)
    return spec.eigenvalues, spec.eigenvectors


# "jacobi" checks the oracle itself before it judges eigendecompose
@pytest.mark.parametrize("method", ["jacobi", "lapack"])
def test_eigendecompose_random_symmetric_residuals(method):
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 6))
    a = 0.5 * (a + a.T)
    solve = {"jacobi": jacobi_eigh, "lapack": _eigendecompose_pairs}[method]
    lams, v = solve(a)
    assert np.max(np.abs(v @ np.diag(lams) @ v.T - a)) <= 1e-10
    assert np.max(np.abs(v.T @ v - np.eye(6))) <= 1e-10


def test_eigendecompose_rejects_asymmetric_with_magnitude():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(NotSymmetricError, match="2"):
        eigendecompose(a)


def test_eigendecompose_methods_agree():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((12, 12))
    a = 0.5 * (a + a.T)
    lams, v = _oracle_spectrum(a)
    spec = eigendecompose(a)
    assert np.max(np.abs(lams - spec.eigenvalues)) <= 1e-10
    # well-separated spectrum: sign-fixed eigenvectors must agree directly
    assert np.max(np.abs(v - spec.eigenvectors)) <= 1e-8


def test_eigendecompose_degenerate_subspace_projector():
    rng = np.random.default_rng(3)
    q = random_orthogonal(4, rng)
    a = q @ np.diag([2.0, 1.0, 1.0, 0.5]) @ q.T
    spec = eigendecompose(0.5 * (a + a.T))
    # individual vectors inside the eigenvalue-1 block are basis-dependent;
    # the subspace projector is not
    block = spec.eigenvectors[:, 1:3]
    expected = q[:, 1:3]
    assert np.max(np.abs(block @ block.T - expected @ expected.T)) <= 1e-9


def test_eigendecompose_is_deterministic():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((7, 7))
    a = 0.5 * (a + a.T)
    s1 = eigendecompose(a)
    s2 = eigendecompose(a)
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    assert np.array_equal(s1.eigenvectors, s2.eigenvectors)


def test_eigendecompose_idempotent_eigenvalues():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((5, 5))
    a = 0.5 * (a + a.T)
    spec = eigendecompose(a)
    rebuilt = spec.eigenvectors @ np.diag(spec.eigenvalues) @ spec.eigenvectors.T
    again = eigendecompose(0.5 * (rebuilt + rebuilt.T))
    assert np.max(np.abs(again.eigenvalues - spec.eigenvalues)) <= 1e-10


def test_trace_equals_eigenvalue_sum():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((40, 6))
    s = covariance(Dataset(x))
    spec = eigendecompose(s)
    assert abs(np.trace(s) - spec.eigenvalues.sum()) <= 1e-8 * abs(np.trace(s))


def test_clamping_only_hits_roundoff_negatives(caplog):
    spec = eigendecompose(np.diag([1.0, 0.5, -5e-11]))
    assert spec.eigenvalues[-1] == 0.0
    spec2 = eigendecompose(np.diag([1.0, -1.0]))
    assert spec2.eigenvalues[-1] == -1.0


def test_spectrum_validation_rejects_nonorthogonal_basis():
    with pytest.raises(ValueError, match="orthogonal"):
        Spectrum(eigenvectors=np.array([[1.0, 1.0], [0.0, 1.0]]),
                 eigenvalues=np.array([2.0, 1.0]))


def test_rotate_weights_identity_basis_is_noop():
    spec = Spectrum(eigenvectors=np.eye(3), eigenvalues=np.array([3.0, 2.0, 1.0]))
    w1 = np.arange(6.0).reshape(2, 3)
    w2 = np.arange(6.0).reshape(3, 2)
    r1, r2 = rotate_weights(w1, w2, spec)
    assert np.array_equal(r1, w1) and np.array_equal(r2, w2)


def test_rotate_weights_undoes_prerotated_weights():
    rng = np.random.default_rng(2)
    v = random_orthogonal(4, rng)
    spec = Spectrum(eigenvectors=v, eigenvalues=np.array([4.0, 3.0, 2.0, 1.0]))
    a = rng.standard_normal((2, 4))
    b = rng.standard_normal((4, 2))
    r1, r2 = rotate_weights(a @ v.T, v @ b, spec)
    assert np.max(np.abs(r1 - a)) <= 1e-12
    assert np.max(np.abs(r2 - b)) <= 1e-12


def test_rotate_weights_product_matches_direct_rotation():
    rng = np.random.default_rng(3)
    v = random_orthogonal(5, rng)
    spec = Spectrum(eigenvectors=v, eigenvalues=np.sort(rng.uniform(0, 1, 5))[::-1])
    w1 = rng.standard_normal((3, 5))
    w2 = rng.standard_normal((5, 3))
    r1, r2 = rotate_weights(w1, w2, spec)
    assert np.max(np.abs(r2 @ r1 - v.T @ w2 @ w1 @ v)) <= 1e-12


def test_rotate_weights_dimension_mismatch():
    spec = Spectrum(eigenvectors=np.eye(3), eigenvalues=np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        rotate_weights(np.ones((2, 4)), np.ones((4, 2)), spec)


def test_projected_diagonal_identity_product_is_ones():
    rng = np.random.default_rng(9)
    v = random_orthogonal(4, rng)
    spec = Spectrum(eigenvectors=v, eigenvalues=np.array([4.0, 3.0, 2.0, 1.0]))
    diag, off = projected_diagonal(np.eye(4), np.eye(4), spec)
    assert np.max(np.abs(diag - 1.0)) <= 1e-12
    assert off <= 1e-12


def test_projected_diagonal_matches_triple_loop_oracle():
    rng = np.random.default_rng(5)
    v = random_orthogonal(4, rng)
    spec = Spectrum(eigenvectors=v, eigenvalues=np.array([4.0, 3.0, 2.0, 1.0]))
    w1 = rng.standard_normal((3, 4))
    w2 = rng.standard_normal((4, 3))
    m = w2 @ w1
    expected = np.zeros(4)
    for j in range(4):
        for a in range(4):
            for b in range(4):
                expected[j] += v[a, j] * m[a, b] * v[b, j]
    diag, _ = projected_diagonal(w1, w2, spec)
    assert np.max(np.abs(diag - expected)) <= 1e-12


def test_projected_diagonal_sum_equals_trace():
    rng = np.random.default_rng(17)
    v = random_orthogonal(6, rng)
    spec = Spectrum(eigenvectors=v, eigenvalues=np.sort(rng.uniform(0, 2, 6))[::-1])
    w1 = rng.standard_normal((4, 6))
    w2 = rng.standard_normal((6, 4))
    diag, _ = projected_diagonal(w1, w2, spec)
    assert abs(diag.sum() - np.trace(w2 @ w1)) <= 1e-10


def test_spectrum_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((30, 4))
    spec = eigendecompose(covariance(Dataset(x)))
    path = tmp_path / "spectrum.csv"
    vec_path = tmp_path / "vectors.csv"
    write_spectrum_csv(spec, path, vec_path)
    values = read_spectrum_csv(path)
    assert np.array_equal(values, spec.eigenvalues)
    rows = [line.split(",") for line in vec_path.read_text().strip().splitlines()]
    vectors = np.array([[float(x) for x in row] for row in rows])
    assert np.array_equal(vectors, spec.eigenvectors)
