import numpy as np
import pytest

from stbc.errors import RankDeficientError
from stbc.linalg import (
    gram_schmidt_qr,
    matrix_from_text,
    matrix_to_text,
    pairwise_residual,
    real_matrix_from_text,
    realify,
    tilde_vec,
)

P1 = np.array([[0, 1], [-1, 0]], dtype=complex)
P3 = np.array([[1, 0], [0, -1]], dtype=complex)

rng = np.random.default_rng(20240814)


def crandn(*shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestRealify:
    def test_imaginary_unit(self):
        assert np.array_equal(realify(np.array([[1j]])), [[0.0, -1.0], [1.0, 0.0]])

    def test_identity(self):
        assert np.array_equal(realify(np.eye(3)), np.eye(6))

    def test_ring_homomorphism(self):
        a, b = crandn(2, 2), crandn(2, 2)
        assert np.abs(realify(a @ b) - realify(a) @ realify(b)).max() < 1e-12
        assert np.abs(realify(a + b) - (realify(a) + realify(b))).max() < 1e-12

    def test_rectangular(self):
        x = crandn(2, 3)
        assert realify(x).shape == (4, 6)


class TestTildeVec:
    def test_definition(self):
        assert np.array_equal(tilde_vec([1 + 2j]), [1.0, 2.0])
        assert np.array_equal(tilde_vec([1j, -1j]), [0.0, 1.0, 0.0, -1.0])

    def test_norm_preserved(self):
        x = crandn(5)
        assert abs(np.linalg.norm(tilde_vec(x)) - np.linalg.norm(x)) < 1e-12

    def test_intertwines_realify(self):
        x_mat, s = crandn(3, 4), crandn(4)
        lhs = tilde_vec(x_mat @ s)
        rhs = realify(x_mat) @ tilde_vec(s)
        assert np.abs(lhs - rhs).max() < 1e-12


class TestGramSchmidtQR:
    def test_identity(self):
        q, r = gram_schmidt_qr(np.eye(4))
        assert np.array_equal(q, np.eye(4))
        assert np.array_equal(r, np.eye(4))

    def test_random_tall(self):
        a = rng.standard_normal((8, 4))
        q, r = gram_schmidt_qr(a)
        assert np.abs(q.T @ q - np.eye(4)).max() < 1e-12
        recon_tol = 10 * np.finfo(float).eps * np.linalg.norm(a)
        assert np.abs(a - q @ r).max() < recon_tol
        assert (np.diag(r) > 0).all()

    def test_strict_zeros_below_diagonal(self):
        _, r = gram_schmidt_qr(rng.standard_normal((6, 6)))
        assert np.array_equal(np.tril(r, k=-1), np.zeros((6, 6)))

    def test_duplicate_column_rank_deficient(self):
        a = rng.standard_normal((6, 3))
        a = np.column_stack([a, a[:, 0]])
        with pytest.raises(RankDeficientError):
            gram_schmidt_qr(a)

    def test_zero_matrix(self):
        with pytest.raises(RankDeficientError):
            gram_schmidt_qr(np.zeros((4, 2)))

    def test_column_order_preserved(self):
        # leading orthogonal columns must give literal zeros in row 0
        a = np.array([[2.0, 0.0, 1.0], [0.0, 3.0, 1.0], [0.0, 0.0, 1.0]])
        _, r = gram_schmidt_qr(a)
        assert r[0, 1] == 0.0  # columns 0 and 1 are orthogonal


class TestScalars:
    def test_fro_norm_of_realify(self):
        x = crandn(3, 4)
        norm = np.linalg.norm
        assert abs(norm(realify(x)) - np.sqrt(2) * norm(x)) < 1e-12


class TestPairwiseResidual:
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("adjoint, shape", [(False, (4, 4)), (True, (4, 4)), (True, (2, 5))])
    def test_matches_literal_pairs(self, sign, adjoint, shape):
        left, right = crandn(3, *shape), crandn(5, *shape)
        h = (lambda m: m.conj().T) if adjoint else (lambda m: m)
        want = np.array([[np.abs(a @ h(b) + sign * (b @ h(a))).max() for b in right]
                         for a in left])
        assert np.array_equal(pairwise_residual(left, right, sign, adjoint), want)

    def test_zero_for_anticommuting_pair(self):
        assert np.array_equal(pairwise_residual(np.stack([P1, P3]), np.stack([P1, P3])),
                              [[2.0, 0.0], [0.0, 2.0]])


class TestMatrixText:
    def test_roundtrip_exact(self):
        x = crandn(3, 4)
        assert np.array_equal(matrix_from_text(matrix_to_text(x)), x)

    def test_real_entries_accepted(self):
        got = matrix_from_text("1.5 -2.0\n0.25 3.0")
        assert np.array_equal(got, np.array([[1.5, -2.0], [0.25, 3.0]]))

    def test_real_loader_rejects_complex(self):
        with pytest.raises(ValueError):
            real_matrix_from_text("1.0+2.0i")

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_text("1.0 2.0\n3.0")

    def test_bad_token_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_text("banana")

    def test_negative_imaginary_format(self):
        z = np.array([[1.0 - 2.5j]])
        text = matrix_to_text(z)
        assert "1.0-2.5i" in text
        assert np.array_equal(matrix_from_text(text), z)
