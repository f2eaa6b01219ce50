import numpy as np
import pytest

from hybridcap import EnergyConstraint, herm_eig, matrix_sqrt_psd, validate_hermitian
from hybridcap.errors import NegativeEigenvalue, NoConvergence, NonHermitianInput

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2.0


class TestValidateHermitian:
    def test_identity(self):
        assert validate_hermitian(np.eye(3), 1e-12)

    def test_nilpotent(self):
        assert not validate_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1e-12)

    def test_pauli_y(self):
        assert validate_hermitian(PAULI_Y, 1e-12)

    @pytest.mark.filterwarnings("error")
    def test_huge_entries_do_not_overflow(self):
        # A - A† is 2e308 off the diagonal; A/2 - A†/2 is not, and the
        # decision is the same.  Entries near 1.7e308 in both parts overflow
        # the halved |.| to inf, which still compares as not Hermitian.
        assert not validate_hermitian([[1, 1e308], [-1e308, 1]], 1e-8)
        assert not validate_hermitian([[1, 1.7e308 * (1 + 1j)], [-1.7e308 * (1 - 1j), 1]], 1e-8)
        assert validate_hermitian([[1.7e308, 1e308], [1e308, -1.7e308]], 1e-8)
        assert validate_hermitian([[0, 0.5e-8], [-0.5e-8, 0]], 1e-8)
        assert not validate_hermitian([[0, 0.5e-8], [-0.6e-8, 0]], 1e-8)
        with pytest.raises(NonHermitianInput):
            EnergyConstraint([[1, 1e308], [-1e308, 1]], 1)


class TestHermEig:
    def test_diagonal(self):
        r = herm_eig(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(r.eigenvalues, [1.0, 2.0])

    def test_pauli_x(self):
        r = herm_eig(PAULI_X)
        np.testing.assert_allclose(r.eigenvalues, [-1.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        a = random_hermitian(rng, 4)
        r = herm_eig(a)
        recon = (r.eigenvectors * r.eigenvalues) @ r.eigenvectors.conj().T
        assert np.max(np.abs(recon - a)) <= 1e-8 * max(1.0, np.max(np.abs(a)))

    @pytest.mark.parametrize("seed", range(10))
    def test_orthonormal_columns(self, seed):
        rng = np.random.default_rng(seed)
        v = herm_eig(random_hermitian(rng, 5)).eigenvectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(5))) <= 1e-9

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_matches_lapack_spectrum(self, d):
        rng = np.random.default_rng(d)
        a = random_hermitian(rng, d)
        np.testing.assert_allclose(
            herm_eig(a).eigenvalues, np.linalg.eigvalsh(a), atol=1e-10
        )

    def test_eigenvalue_sum_is_trace(self):
        rng = np.random.default_rng(7)
        for d in (2, 3, 6):
            a = random_hermitian(rng, d)
            w = herm_eig(a).eigenvalues
            assert abs(w.sum() - np.real(np.trace(a))) <= 1e-8 * d

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        a = random_hermitian(rng, 6)
        r1, r2 = herm_eig(a.copy()), herm_eig(a.copy())
        assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
        assert np.array_equal(r1.eigenvectors, r2.eigenvectors)

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitianInput):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.filterwarnings("error")
    def test_huge_entries_do_not_overflow(self):
        with pytest.raises(NonHermitianInput):
            herm_eig([[1, 1e308], [-1e308, 1]])
        # A + A† would overflow; A/2 + A†/2 does not
        np.testing.assert_array_equal(herm_eig(np.diag([1.5e308, 1.0])).eigenvalues, [1.0, 1.5e308])

    def test_lapack_failure_is_no_convergence(self, monkeypatch):
        def failing_eigh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        with pytest.raises(NoConvergence):
            herm_eig(np.eye(2))


class TestMatrixSqrtPsd:
    def test_identity(self):
        np.testing.assert_allclose(matrix_sqrt_psd(np.eye(3)), np.eye(3), atol=1e-12)

    def test_diagonal(self):
        np.testing.assert_allclose(
            matrix_sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_squares_back(self, seed):
        rng = np.random.default_rng(seed)
        c = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = c.conj().T @ c
        b = matrix_sqrt_psd(a)
        assert np.max(np.abs(b @ b - a)) <= 1e-7
        assert validate_hermitian(b, 1e-10)

    def test_commutes_with_input(self):
        rng = np.random.default_rng(3)
        c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = c.conj().T @ c
        b = matrix_sqrt_psd(a)
        assert np.max(np.abs(a @ b - b @ a)) <= 1e-7

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NegativeEigenvalue):
            matrix_sqrt_psd(np.diag([1.0, -1.0]))

    def test_slightly_negative_clamped(self):
        b = matrix_sqrt_psd(np.diag([1.0, -5e-10]))
        np.testing.assert_allclose(b, np.diag([1.0, 0.0]), atol=1e-9)
