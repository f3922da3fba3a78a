import gc
import weakref
from itertools import product as iter_product

import numpy as np
import pytest

from stbc.coding_gain import (
    builtin_rotation,
    decode_info,
    default_encoder,
    encode,
    extract_W,
    identity_encoder,
    min_determinant,
    min_product_distance,
    rotation_from_matrix,
)
from helpers import one_weight_per_group_design, relabel
from stbc import decoder, sim
from stbc.coding_gain import _bounded_difference_set, full_symbol_matrix
from stbc.designs import STBCDesign, build_rate1_4group, extend_full_rate
from stbc.rng import substream
from stbc.sim import draw_trial
from stbc.errors import (
    AlphabetError,
    BudgetExceededError,
    StructureError,
    UnsupportedDimError,
)

rng = np.random.default_rng(4242)
PAM2 = np.array([-1.0, 1.0]) / np.sqrt(2.0)  # 4-QAM components


def closed_form_det(design, ds):
    """Independent closed-form oracle: product over odd diagonal
    positions of the signed sums, to the fourth power."""
    signs = np.array(
        [np.diag(design.weights[i]).real[0::2] for i in design.groups[0]]
    )  # (group size, n_t/2)
    return float(np.prod((ds @ signs) ** 4))


def literal_det(design, ds):
    d_mat = sum(ds[i] * design.weights[design.groups[0][i]] for i in range(len(ds)))
    return float(np.linalg.det(d_mat @ d_mat.conj().T).real)


class TestExtractW:
    def test_a1_trivial(self):
        assert np.array_equal(extract_W(build_rate1_4group(1)), [[1.0]])

    def test_a2_entries(self):
        w = extract_W(build_rate1_4group(2))
        assert w.shape == (2, 2)
        assert np.abs(np.abs(w) - 1 / np.sqrt(2)).max() < 1e-15
        assert (w[0] > 0).all()

    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    def test_orthogonal(self, a):
        w = extract_W(build_rate1_4group(a))
        assert np.abs(w.T @ w - np.eye(w.shape[0])).max() < 1e-12

    @pytest.mark.parametrize("a", [2, 3])
    def test_row_inner_products_match_traces(self, a):
        # <w_i, w_j> must equal tr(A_i A_j) / n_t for first-group weights
        d = build_rate1_4group(a)
        w = extract_W(d)
        g1 = [d.weights[i] for i in d.groups[0]]
        for i in range(len(g1)):
            for j in range(len(g1)):
                lhs = float(w[i] @ w[j])
                rhs = float(np.trace(g1[i] @ g1[j]).real) / d.n_t
                assert abs(lhs - rhs) < 1e-12

    def test_structure_error_on_non_diagonal_group(self):
        d = build_rate1_4group(2)
        # put a non-diagonal weight into the first group
        weights = list(d.weights)
        weights[1] = d.weights[4]
        weights[4] = d.weights[1]
        shuffled = STBCDesign(n_t=4, T=4, weights=tuple(weights), groups=d.groups)
        with pytest.raises(StructureError):
            extract_W(shuffled)


    def test_structure_error_on_wrong_first_group_size(self):
        d = one_weight_per_group_design()  # n_t = 4, one weight per group
        with pytest.raises(StructureError, match="first group"):
            extract_W(d)
        with pytest.raises(StructureError):
            default_encoder(d, PAM2)


class TestBuiltinRotations:
    @pytest.mark.parametrize("dim", [1, 2, 4, 8, 16])
    def test_orthogonal(self, dim):
        spec = builtin_rotation(dim)
        assert np.abs(spec.U.T @ spec.U - np.eye(dim)).max() < 1e-12

    def test_dim16_set_is_every_vector_of_support_two(self):
        # entries in {+-2, +-4} on one or two of the 16 positions
        diffs, text = _bounded_difference_set(16)
        assert len(np.unique(diffs, axis=0)) == len(diffs) == 16 * 4 + 120 * 16
        assert set(np.abs(diffs[diffs != 0]).tolist()) == {2.0, 4.0}
        assert set(np.count_nonzero(diffs, axis=1).tolist()) == {1, 2}
        assert text.endswith("(1984 vectors)")

    def test_dim2_eight_case_oracle(self):
        # independent enumeration of the 8 nonzero {-2,0,2}^2 differences
        u = builtin_rotation(2).U
        best = min(
            abs(np.prod(u @ np.array(d)))
            for d in iter_product((-2.0, 0.0, 2.0), repeat=2)
            if any(d)
        )
        assert best > 0.0
        assert abs(best - builtin_rotation(2).min_product_distance_value) < 1e-12

    def test_dim4_eighty_case_oracle(self):
        u = builtin_rotation(4).U
        dists = [
            abs(np.prod(u @ np.array(d)))
            for d in iter_product((-2.0, 0.0, 2.0), repeat=4)
            if any(d)
        ]
        assert len(dists) == 80
        assert min(dists) > 0.0

    def test_dim8_positive(self):
        assert builtin_rotation(8).min_product_distance_value > 0.0

    def test_unsupported_dim(self):
        with pytest.raises(UnsupportedDimError):
            builtin_rotation(3)

    def test_user_rotation_validated(self):
        with pytest.raises(ValueError):
            rotation_from_matrix(np.array([[1.0, 0.0], [1.0, 1.0]]))
        spec = rotation_from_matrix(np.eye(2))
        assert spec.source == "user-file"


class TestEncoder:
    def test_roundtrip(self):
        d = build_rate1_4group(2)
        enc = default_encoder(d, PAM2)
        x = rng.choice(PAM2, size=8)
        s = encode(enc, x)
        assert np.abs(decode_info(enc, s) - x).max() < 1e-12

    def test_norm_preserved(self):
        d = build_rate1_4group(3)
        enc = default_encoder(d, PAM2)
        x = rng.choice(PAM2, size=16)
        assert abs(np.linalg.norm(encode(enc, x)) - np.linalg.norm(x)) < 1e-12

    def test_identity_case(self):
        d = build_rate1_4group(1)
        enc = default_encoder(d, PAM2)  # W and U are both 1x1 identities
        x = rng.choice(PAM2, size=4)
        assert np.abs(encode(enc, x) - x).max() == 0.0

    @pytest.mark.parametrize("interleaved", [False, True])
    def test_matches_symbol_matrix_and_inverts(self, interleaved):
        # groups (0,4),(1,5),(2,6),(3,7) when interleaved: encode must
        # rotate each declared group in place, as full_symbol_matrix does
        d = build_rate1_4group(2)
        if interleaved:
            d = relabel(d, [0, 4, 1, 5, 2, 6, 3, 7])
        enc = default_encoder(d, PAM2)
        b = full_symbol_matrix(d, enc)
        for _ in range(10):
            x = rng.choice(PAM2, size=8)
            s = encode(enc, x)
            assert np.abs(s - b @ x).max() < 1e-12
            assert np.abs(decode_info(enc, s) - x).max() < 1e-12

    def test_decode_info_inverts_the_layered_symbol_map(self):
        # only the first layer is rotated; the outer layer is sent raw
        d = extend_full_rate(build_rate1_4group(2), 2)
        enc = default_encoder(d, PAM2)
        b = full_symbol_matrix(d, enc)
        for _ in range(10):
            x = rng.choice(PAM2, size=16)
            s = encode(enc, x)
            assert np.array_equal(s, b @ x)
            assert np.abs(decode_info(enc, s) - x).max() < 1e-12

    def test_alphabet_enforced(self):
        d = build_rate1_4group(2)
        enc = default_encoder(d, PAM2)
        with pytest.raises(AlphabetError):
            encode(enc, np.full(8, 0.3))

    def test_symbol_matrix_kept_on_the_encoder_only(self, monkeypatch):
        # a sweep's encoder, and the one decode_auto makes when given none,
        # die with the call: nothing caches the matrix beyond its encoder
        refs = []

        def recording(design, alphabet, rotation=None):
            enc = default_encoder(design, alphabet, rotation)
            refs.append(weakref.ref(enc))
            return enc

        monkeypatch.setattr(sim, "default_encoder", recording)
        monkeypatch.setattr(decoder, "default_encoder", recording)
        d = build_rate1_4group(2)
        sim.run_error_sweep(sim.SimConfig(design=d, n_r=1, trials=3))
        y, h, _ = draw_trial(d, default_encoder(d, PAM2), 1, 10.0, substream(3))
        decoder.decode_auto(y, h, d, decoder.constellation("4qam"), 10.0)
        gc.collect()
        assert len(refs) == 2 and all(ref() is None for ref in refs)
        enc = default_encoder(d, PAM2)
        assert full_symbol_matrix(d, enc) is full_symbol_matrix(d, enc)

    def test_rotation_must_fit_the_design_groups(self):
        enc = default_encoder(build_rate1_4group(2), PAM2)
        with pytest.raises(StructureError):
            full_symbol_matrix(build_rate1_4group(3), enc)

    def test_non_orthogonal_rotation_rejected(self):
        d = build_rate1_4group(2)
        with pytest.raises(ValueError):
            default_encoder(d, PAM2, rotation_from_matrix(np.ones((2, 2))))


class TestMinDeterminant:
    def test_unrotated_integer_differences_vanish(self):
        d = build_rate1_4group(2)
        res = min_determinant(d, identity_encoder(d, PAM2),
                              diff_levels=np.array([-2.0, 0.0, 2.0]))
        assert res.min_det == 0.0

    def test_rotated_positive(self):
        d = build_rate1_4group(2)
        res = min_determinant(d, default_encoder(d, PAM2))
        assert res.min_det > 0.1
        assert res.evaluations == 8  # 3^2 - 1 difference vectors

    def test_rotated_positive_n8(self):
        d = build_rate1_4group(3)
        res = min_determinant(d, default_encoder(d, PAM2))
        assert res.min_det > 0.0
        assert res.evaluations == 80

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_closed_form_matches_literal_on_random_differences(self, a):
        d = build_rate1_4group(a)
        gs = d.group_size
        for _ in range(200):
            ds = rng.standard_normal(gs)
            lit = literal_det(d, ds)
            closed = closed_form_det(d, ds)
            assert abs(lit - closed) <= 1e-9 * max(1.0, abs(lit), abs(closed))

    def test_group_minima_agree_across_groups(self):
        # enumerate 2-PAM differences on every group separately
        d = build_rate1_4group(2)
        enc = default_encoder(d, PAM2)
        diffs = np.unique(np.subtract.outer(PAM2, PAM2).round(12))
        minima = []
        for g in d.groups:
            best = np.inf
            for dx in iter_product(diffs, repeat=len(g)):
                if not any(dx):
                    continue
                ds = enc.rotation @ np.array(dx)
                d_mat = sum(ds[i] * d.weights[g[i]] for i in range(len(g)))
                best = min(best, float(np.linalg.det(d_mat @ d_mat.conj().T).real))
            minima.append(best)
        assert np.abs(np.array(minima) - minima[0]).max() < 1e-9

    def test_budget_guard(self):
        d = build_rate1_4group(3)
        with pytest.raises(BudgetExceededError):
            min_determinant(d, default_encoder(d, PAM2), budget=10)

    def test_min_product_distance_helper(self):
        u = np.eye(2)
        diffs = np.array([[2.0, 0.0], [2.0, 2.0]])
        assert min_product_distance(u, diffs) == 0.0
