import re
from itertools import combinations

import numpy as np
import pytest

from stbc.clifford import (
    all_lambda_products,
    build_generators,
    mul_index_products,
    power_set_products,
    product_of,
    products_commute,
    subset_square_sign,
    verify_generators,
    verify_traceless,
)
from helpers import digest
from stbc.errors import BadIndexOrderError, UnsupportedSizeError
from stbc.linalg import vec


class TestBuildGenerators:
    def test_count_and_size_n8(self):
        cliff = build_generators(3)
        assert len(cliff.generators) == 6
        assert all(g.shape == (8, 8) for g in cliff.generators)

    def test_a1_first_generator(self):
        cliff = build_generators(1)
        assert np.array_equal(cliff.generators[0], np.diag([1j, -1j]))

    def test_a1_augmented_third(self):
        cliff = build_generators(1)
        assert len(cliff.generators) == 3
        # the augmentation is exactly the product of the first two
        assert np.array_equal(
            cliff.generators[2], cliff.generators[0] @ cliff.generators[1]
        )

    def test_sign_choice(self):
        plus = build_generators(2, +1)
        minus = build_generators(2, -1)
        assert np.array_equal(minus.generators[0], -plus.generators[0])
        for g_p, g_m in zip(plus.generators[1:], minus.generators[1:]):
            assert np.array_equal(g_p, g_m)

    @pytest.mark.parametrize("a, pinned", [
        pytest.param(1, "18686ef41d3bc17f9e1ccd92f9a63fface42c15cf260ef1c1e0576994046432b", id="1"),
        pytest.param(2, "6d5a3f7d88b46ea895a47344204e49fa4beced4d69fd1a60bad0f7fe4f7ba82e", id="2"),
        pytest.param(3, "873e30705879b26d9fa2954b5d31713dbe45de36f367843348314826c777fbfb", id="3"),
        pytest.param(4, "c586e66cd051ceb969ee25228235268b80129fde0890cfa9e04b24a315417a68", id="4"),
        pytest.param(5, "5daad0ea986be26bbe12d9a968b808bd2a00a107eba0e0cba8da9b9b593a8291", id="5"),
    ])
    def test_certification(self, a, pinned):
        report = verify_generators(build_generators(a))
        assert report.passed
        assert digest(report.summary()) == pinned

    def test_pairwise_anticommutation_literal(self):
        for a in (1, 2, 3):
            gens = build_generators(a).generators
            for g1, g2 in combinations(gens, 2):
                assert np.abs(g1 @ g2 + g2 @ g1).max() < 1e-12

    @pytest.mark.parametrize("a", [0, 6, -1])
    def test_unsupported_size(self, a):
        with pytest.raises(UnsupportedSizeError):
            build_generators(a)

    @pytest.mark.parametrize("a", [2.0, "2", None, True])
    def test_size_not_an_integer_refused(self, a):
        # a float, a string or None failed with a bare TypeError, and True
        # built the a = 1 set titled a=True
        with pytest.raises(UnsupportedSizeError,
                           match=re.escape(f"a must be an integer, got {a!r}")):
            build_generators(a)

    def test_range_message_kept_for_integers(self):
        with pytest.raises(UnsupportedSizeError, match=r"a must be in 1\.\.5, got 6"):
            build_generators(6)


class TestSquareSign:
    def test_small_values(self):
        assert subset_square_sign(1) == -1
        assert subset_square_sign(2) == -1
        assert subset_square_sign(3) == 1
        assert subset_square_sign(4) == 1

    def test_matches_literal_squares_exhaustively(self):
        cliff = build_generators(2)
        eye = np.eye(4)
        for prod in all_lambda_products(cliff):
            if not prod.indices:
                continue
            base = prod.matrix / prod.scalar  # strip the bookkeeping scalar
            want = subset_square_sign(len(prod.indices))
            assert np.abs(base @ base - want * eye).max() < 1e-12

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            subset_square_sign(0)


class TestProductsCommute:
    def test_named_cases(self):
        assert products_commute(1, 1, 0) is False  # distinct generators
        assert products_commute(3, 3, 3) is True  # all odd
        assert products_commute(2, 3, 0) is True  # rs even, p even
        assert products_commute(2, 2, 1) is False

    def test_overlap_bounds(self):
        with pytest.raises(ValueError):
            products_commute(1, 1, 2)

    def test_matches_matrix_commutators_exhaustively(self):
        cliff = build_generators(2)
        products = [p for p in all_lambda_products(cliff) if p.indices]
        for p1 in products:
            for p2 in products:
                overlap = len(set(p1.indices) & set(p2.indices))
                predicted = products_commute(
                    len(p1.indices), len(p2.indices), overlap
                )
                commutes = (
                    np.abs(p1.matrix @ p2.matrix - p2.matrix @ p1.matrix).max()
                    < 1e-12
                )
                assert commutes == predicted, (p1.label(), p2.label())


class TestProductOf:
    def test_empty_is_identity(self):
        cliff = build_generators(3)
        prod = product_of(cliff, ())
        assert np.array_equal(prod.matrix, np.eye(8))

    def test_hermitian_pair(self):
        cliff = build_generators(3)
        prod = product_of(cliff, (4, 5), scalar=1j)
        assert np.abs(prod.matrix - prod.matrix.conj().T).max() < 1e-12
        assert np.abs(prod.matrix @ prod.matrix - np.eye(8)).max() < 1e-12

    def test_triple_is_diagonal_hermitian(self):
        cliff = build_generators(3)
        prod = product_of(cliff, (1, 2, 3))
        m = prod.matrix
        assert np.abs(m - np.diag(np.diag(m))).max() < 1e-12
        assert np.abs(m - m.conj().T).max() < 1e-12

    def test_bad_order_rejected(self):
        cliff = build_generators(3)
        with pytest.raises(BadIndexOrderError):
            product_of(cliff, (2, 1))
        with pytest.raises(BadIndexOrderError):
            product_of(cliff, (3, 3))
        with pytest.raises(BadIndexOrderError):
            product_of(cliff, (0, 1))
        with pytest.raises(BadIndexOrderError):
            product_of(cliff, (7,))

    def test_exact_sign_bookkeeping_vs_literal(self):
        # scalar/index algebra must reproduce literal matrix products
        cliff = build_generators(3)
        rng = np.random.default_rng(7)
        products = all_lambda_products(cliff)
        for _ in range(50):
            p1, p2 = (products[rng.integers(len(products))] for _ in range(2))
            scalar, indices = mul_index_products(
                p1.scalar, p1.indices, p2.scalar, p2.indices
            )
            reconstructed = product_of(cliff, indices, scalar).matrix
            assert np.abs(reconstructed - p1.matrix @ p2.matrix).max() < 1e-12


class TestPowerSetProducts:
    def test_empty_set(self):
        out = power_set_products([], n=4)
        assert len(out) == 1
        assert np.array_equal(out[0].matrix, np.eye(4))

    def test_n8_commuting_set_matches_hand_expansion(self):
        cliff = build_generators(3)
        seeds = [product_of(cliff, (4, 5), 1j), product_of(cliff, (1, 2, 3))]
        out = power_set_products(seeds)
        f = cliff.generators
        expected = [
            np.eye(8, dtype=complex),
            1j * f[3] @ f[4],
            f[0] @ f[1] @ f[2],
            1j * f[0] @ f[1] @ f[2] @ f[3] @ f[4],
        ]
        assert len(out) == 4
        for got, want in zip(out, expected):
            assert np.abs(got.matrix - want).max() < 1e-12

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_full_lambda_basis_has_full_rank(self, a):
        cliff = build_generators(a)
        products = all_lambda_products(cliff)
        assert len(products) == 4**a
        stacked = np.stack([vec(p.matrix) for p in products])
        assert np.linalg.matrix_rank(stacked) == 4**a

    def test_size_guard(self):
        cliff = build_generators(1)
        seeds = [product_of(cliff, (1,))] * 13
        with pytest.raises(ValueError):
            power_set_products(seeds)


class TestTraceless:
    @pytest.mark.parametrize("a, pinned", [
        pytest.param(1, "4e17059957346fc8298f6cf7b7c54c8975900d9aba09573ac3d180186653f1a0", id="1"),
        pytest.param(2, "c5403673a538f8d3b3c6c133adc28d89b0f815a592198052309cc2c6d9795b26", id="2"),
        pytest.param(3, "e65f419bfd581719566c1fccd52ad62379514d2e4ec6942d6d255b62a78dd777", id="3"),
    ])
    def test_all_products_traceless(self, a, pinned):
        report = verify_traceless(build_generators(a))
        assert report.passed
        assert digest(report.summary()) == pinned

    def test_identity_exception(self):
        cliff = build_generators(3)
        assert np.trace(all_lambda_products(cliff)[0].matrix) == 8.0
