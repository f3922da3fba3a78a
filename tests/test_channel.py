import dataclasses

import numpy as np
import pytest

from helpers import digest, relabel
from stbc.channel import (
    column_orthogonality_pairs,
    equivalent_channel,
    mandated_zero_mask,
    profile_over_channels,
    r_profile,
    sample_channel,
    sample_channels,
)
from stbc.capacity import random_rotation_baseline
from stbc.designs import (
    STBCDesign,
    build_rate1_4group,
    codeword,
    extend_full_rate,
    verify_design,
)
from stbc.errors import DimensionMismatchError, RankDeficientError
from stbc.linalg import realify, tilde_vec, vec
from stbc.rng import substream


class TestSampleChannel:
    def test_moments(self):
        rng = np.random.default_rng(17)
        draws = sample_channel(10, 10, rng).H
        for _ in range(999):
            draws = np.concatenate([draws.reshape(-1),
                                    sample_channel(10, 10, rng).H.reshape(-1)])
        # 10^5 entries in total
        assert draws.size == 100_000
        assert abs(np.mean(draws.real)) < 0.02
        assert abs(np.mean(draws.imag)) < 0.02
        assert abs(np.var(draws) - 1.0) < 0.02

    def test_seed_determinism(self):
        real = sample_channel(4, 2, substream(5))
        assert (real.n_r, real.n_t) == (2, 4)
        assert np.array_equal(real.H, sample_channel(4, 2, substream(5)).H)

    def test_stacked_draws_equal_successive_calls(self):
        stack = sample_channels(8, 2, 7, substream(40))
        rng = substream(40)
        for h in stack:
            assert np.array_equal(h, sample_channel(8, 2, rng).H)
        assert np.array_equal(sample_channels(8, 2, 1, substream(40))[0], stack[0])


class TestEquivalentChannel:
    def test_identity_single_weight(self):
        d = STBCDesign(n_t=2, T=2, weights=(np.eye(2, dtype=complex),),
                       groups=((0,),))
        heq = equivalent_channel(np.eye(2), d)
        assert np.array_equal(heq[:, 0], tilde_vec(vec(np.eye(2))))

    @pytest.mark.parametrize("layers", [1, 2])
    def test_matches_direct_transmission(self, layers):
        rng = np.random.default_rng(3)
        base = build_rate1_4group(2)
        d = base if layers == 1 else extend_full_rate(base, layers)
        h = sample_channel(4, 3, rng).H
        heq = equivalent_channel(h, d)
        s = rng.standard_normal(d.n_real_symbols)
        lhs = tilde_vec(vec(h @ codeword(d, s)))
        assert np.abs(lhs - heq @ s).max() < 1e-10

    @pytest.mark.parametrize("a, layers", [(a, n) for a in range(1, 5)
                                           for n in range(1, min(2**a, 4) + 1)])
    def test_matches_kronecker_form(self, a, layers):
        # reference: H_eq = (I_T x realify(H)) G.  Builtin weights are
        # signed permutations with entries +-1, +-j, so every entry of
        # either side is one exact product and the two are equal bit for bit
        base = build_rate1_4group(a)
        d = extend_full_rate(base, layers)
        hs = sample_channels(d.n_t, 2, 3, substream(42))
        for h, heq in zip(hs, equivalent_channel(hs, d)):
            assert np.array_equal(heq, np.kron(np.eye(d.T), realify(h)) @ d.G)

    @pytest.mark.parametrize("remix", [False, True])
    def test_rounded_taps_match_kronecker_form(self, remix):
        # a pi/4 layer scalar puts layer 2's taps off +-1, +-j, so each is
        # a rounded product; the Haar remix gives each weight column
        # several taps
        d = extend_full_rate(build_rate1_4group(2), 2, layer_scalar=np.exp(1j * np.pi / 4))
        if remix:
            d = random_rotation_baseline(d)
            assert d.weight_taps[0].shape[0] > 1
        for h in sample_channels(d.n_t, 2, 5, substream(44)):
            ref = np.kron(np.eye(d.T), realify(h)) @ d.G
            assert np.abs(equivalent_channel(h, d) - ref).max() <= 1e-15 * np.abs(ref).max()

    @pytest.mark.parametrize("a", range(1, 5))
    def test_builtin_weights_have_one_read_only_tap(self, a):
        base = build_rate1_4group(a)
        for layers in range(1, min(base.n_t, 4) + 1):
            d = extend_full_rate(base, layers)
            rows, values = d.weight_taps
            assert rows.shape == values.shape == (1, d.n_real_symbols * d.T)
            assert not rows.flags.writeable and not values.flags.writeable
            with pytest.raises(ValueError):
                values[0, 0] = 0.0
            # the one tap is the column's nonzero entry, of unit modulus
            cols = d.weight_stack.transpose(0, 2, 1).reshape(-1, d.n_t)
            assert np.array_equal(cols[np.arange(len(cols)), rows[0]], values[0])
            assert np.allclose(np.abs(values), 1.0)

    def test_stack_equals_per_channel_calls(self):
        d = extend_full_rate(build_rate1_4group(2), 2)
        hs = sample_channels(4, 3, 6, substream(43))
        stack = equivalent_channel(hs, d)
        assert stack.shape == (6, 2 * 3 * d.T, d.n_real_symbols)
        for h, heq in zip(hs, stack):
            assert np.array_equal(heq, equivalent_channel(h, d))
        nested = equivalent_channel(hs.reshape(2, 3, 3, 4), d)
        assert np.array_equal(nested.reshape(stack.shape), stack)

    def test_alamouti_columns_orthogonal(self):
        rng = np.random.default_rng(8)
        d = build_rate1_4group(1)
        h = sample_channel(2, 1, rng).H
        heq = equivalent_channel(h, d)
        gram = heq.T @ heq
        assert np.abs(gram - np.diag(np.diag(gram))).max() < 1e-12

    def test_dimension_check(self):
        d = build_rate1_4group(1)
        with pytest.raises(DimensionMismatchError):
            equivalent_channel(np.eye(3), d)
        with pytest.raises(DimensionMismatchError):
            equivalent_channel(np.ones(2), d)


class TestOrthogonalityPairs:
    def test_rate1_all_cross_group_pairs(self):
        d = build_rate1_4group(2)
        pairs = column_orthogonality_pairs(d)
        for gi in range(4):
            for gj in range(gi + 1, 4):
                for i in d.groups[gi]:
                    for j in d.groups[gj]:
                        assert (i, j) in pairs
        # the same code with its groups interleaved: (0,4), (1,5), ...
        moved = column_orthogonality_pairs(relabel(d, [0, 4, 1, 5, 2, 6, 3, 7]))
        assert digest(repr(sorted(moved))) == (
            "877fca1cd9e571ce46c8791b92f9d6ac60f9a72ff40b9c512648fe2c5f4b6e7e")

    def test_scaled_identity_pair_is_returned(self):
        # j I against I: A1 A2^H + A2 A1^H = -j I + j I = 0
        d = STBCDesign(
            n_t=2, T=2,
            weights=(np.eye(2, dtype=complex), 1j * np.eye(2, dtype=complex)),
            groups=((0,), (1,)),
        )
        assert (0, 1) in column_orthogonality_pairs(d)

    def test_pairs_imply_observed_zeros(self):
        # prefix-orthogonality implied zeros must hold for every channel
        d = extend_full_rate(build_rate1_4group(3), 2)
        pairs = column_orthogonality_pairs(d)
        n = d.n_real_symbols
        implied = np.zeros((n, n), dtype=bool)
        for j in range(n):
            for i in range(j):
                if all((m, j) in pairs for m in range(i + 1)):
                    implied[i, j] = True
        assert implied.sum() > 0
        _, _, always_zero, _ = profile_over_channels(d, 2, 20, seed=3)
        assert always_zero[implied].all()


class TestRProfile:
    def test_rate1_n8_single_kron_block(self):
        d = build_rate1_4group(3)
        h = sample_channel(8, 1, substream(21)).H
        prof = r_profile(equivalent_channel(h, d), design=d)
        assert len(prof.layer_blocks) == 1
        blk = prof.layer_blocks[0]
        assert blk.kron_identity
        assert blk.V.shape == (4, 4)
        assert np.abs(np.tril(blk.V, k=-1)).max() < 1e-12

    def test_rate2_n8_layered_structure(self):
        d = extend_full_rate(build_rate1_4group(3), 2)
        h = sample_channel(8, 2, substream(22)).H
        prof = r_profile(equivalent_channel(h, d), design=d)
        assert len(prof.layer_blocks) == 2
        assert all(blk.kron_identity for blk in prof.layer_blocks)
        # the off-diagonal layer block is dense apart from a few
        # incidental orthogonality zeros in its leading row
        x_block = prof.R[:16, 16:]
        assert np.abs(x_block).max() > 1e-2
        assert (np.abs(x_block) > 1e-9).mean() > 0.8

    def test_orthogonal_toy_design_gives_diagonal_R(self):
        d = build_rate1_4group(1)
        h = sample_channel(2, 1, substream(23)).H
        prof = r_profile(equivalent_channel(h, d), design=d)
        off = prof.R - np.diag(np.diag(prof.R))
        assert np.abs(off).max() < 1e-9

    def test_rank_deficient_rejected(self):
        d = build_rate1_4group(1)
        with pytest.raises(RankDeficientError):
            r_profile(equivalent_channel(np.zeros((1, 2)), d), design=d)

    def test_profile_refuses_too_few_receive_antennas(self, monkeypatch):
        # n_r = 1 under two layers: H_eq is 8 x 16 for every channel, so
        # the profile is refused before any channel is drawn
        import stbc.rng

        def no_draws(*args):
            raise AssertionError("a channel was drawn")

        monkeypatch.setattr(stbc.rng, "draw_block", no_draws)
        d = extend_full_rate(build_rate1_4group(2), 2)
        with pytest.raises(RankDeficientError, match=r"n_r = 1 .*2-layer.*\(8, 16\)"):
            profile_over_channels(d, 1, 5)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-9])
    def test_tol_must_be_finite_and_positive(self, tol):
        # such a tol finds no zero entry: refused, not an all-'x' mask
        d = build_rate1_4group(1)
        h = sample_channel(2, 1, substream(24)).H
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            r_profile(equivalent_channel(h, d), design=d, tol=tol)
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            profile_over_channels(d, 1, 3, tol=tol)

    @pytest.mark.parametrize("tol", [-1, float("nan"), 0, "x", None, 1j])
    def test_bad_tol_refused_before_any_draw(self, tol, monkeypatch):
        # the profile checked tol only in r_profile, after its first draw;
        # a tol that is not a number failed with a bare TypeError
        import stbc.rng

        def no_draws(*args):
            raise AssertionError("a channel was drawn")

        monkeypatch.setattr(stbc.rng, "draw_block", no_draws)
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            profile_over_channels(build_rate1_4group(1), 1, 3, tol=tol)

    def test_mask_text(self):
        d = build_rate1_4group(1)
        h = sample_channel(2, 1, substream(24)).H
        prof = r_profile(equivalent_channel(h, d), design=d)
        grid = prof.mask_text().splitlines()
        assert len(grid) == 4 and all(len(row) == 4 for row in grid)


class TestMandatedMask:
    def test_silver_pattern(self):
        d = extend_full_rate(build_rate1_4group(1), 2)
        mask = mandated_zero_mask(d)
        # layer diagonal blocks: groups of size 1 -> off-diagonal entries
        # of each 4x4 block zero; strictly-lower always zero
        expected = np.tril(np.ones((8, 8), dtype=bool), -1)
        for lo in (0, 4):
            for i in range(4):
                for j in range(4):
                    if i != j:
                        expected[lo + i, lo + j] = True
        assert np.array_equal(mask, expected)

    def test_zero_pattern_holds_for_every_channel(self):
        d = build_rate1_4group(2)
        mask = mandated_zero_mask(d)
        _, max_abs, always_zero, _ = profile_over_channels(d, 1, 25, seed=9)
        assert np.all(max_abs[mask] < 1e-9)
        assert always_zero[mask].all()

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_builtin_masks_are_the_contiguous_layout(self, a):
        # layer-major weights, four contiguous groups of n_t/2 per layer:
        # zero below the diagonal and wherever two different groups of one
        # layer meet
        base = build_rate1_4group(a)
        for layers in range(1, min(4, base.n_t) + 1):
            d = extend_full_rate(base, layers)
            n = d.n_real_symbols
            per, q = n // layers, base.n_t // 2
            expected = np.tril(np.ones((n, n), dtype=bool), -1)
            for i in range(n):
                for j in range(n):
                    if i // per == j // per and (i % per) // q != (j % per) // q:
                        expected[i, j] = True
            assert np.array_equal(mandated_zero_mask(d), expected)

    def test_interleaved_groups_claim_only_zeros(self):
        # the a=2 rate-1 code with groups (1,5), (2,6), (3,7), (4,8)
        d = relabel(build_rate1_4group(2), INTERLEAVE)
        assert d.structure is not None
        mask = mandated_zero_mask(d)
        assert np.triu(mask, 1).any()
        _, max_abs, _, profiles = profile_over_channels(d, 1, 20, seed=12)
        assert max_abs[mask].max() < 1e-9
        assert all(p.layer_blocks[0].kron_identity for p in profiles)

    @pytest.mark.parametrize("groups", [
        None,                                   # the Haar remix, declared groups kept
        (tuple(range(8)),),                     # one group of eight
        ((0, 1, 2), (3,), (4, 5), (6, 7)),      # four groups of unequal size
    ])
    def test_uncertified_designs_claim_the_lower_triangle_only(self, groups):
        base = build_rate1_4group(2)
        if groups is None:
            d = random_rotation_baseline(base)
        else:
            d = STBCDesign(n_t=4, T=4, weights=base.weights, groups=groups)
        assert d.structure is None
        assert np.array_equal(mandated_zero_mask(d), np.tril(np.ones((8, 8), dtype=bool), -1))
        _, _, _, profiles = profile_over_channels(d, 1, 5, seed=13)
        assert not any(p.layer_blocks[0].kron_identity for p in profiles)

    def test_relabelled_two_layer_code_claims_no_later_layer(self):
        # interleaved inside each layer; the relabelled design carries no
        # products, so only the first layer's zeros are claimed
        two = extend_full_rate(build_rate1_4group(2), 2)
        d = relabel(two, INTERLEAVE + [8 + i for i in INTERLEAVE])
        mask = mandated_zero_mask(d)
        _, _, always_zero, _ = profile_over_channels(d, 2, 20, seed=14)
        assert not (mask & ~always_zero).any()
        assert np.array_equal(mask[8:, 8:], np.tril(np.ones((8, 8), dtype=bool), -1))
        assert np.triu(mask[:8, :8], 1).any()

    def test_right_multiple_layer_has_no_mandated_zeros(self):
        # layer 2 is the base times a Haar unitary on the right: each layer
        # meets its own cross-group condition, yet layer 2's cross-group
        # entries of R are not zero
        d = haar_right_multiple_design()
        assert verify_design(d).passed
        mask = mandated_zero_mask(d)
        assert np.array_equal(mask[8:, 8:], np.tril(np.ones((8, 8), dtype=bool), -1))
        _, max_abs, _, profiles = profile_over_channels(d, 2, 5, seed=15)
        assert max_abs[mask].max() < 1e-9
        assert max(p.layer_blocks[1].max_cross_group for p in profiles) > 0.1
        assert not any(p.layer_blocks[1].kron_identity for p in profiles)

    def test_uncertified_later_layer_claims_no_zeros(self):
        # weight 7 (layer 2) nudged past the certification tolerance: the
        # design keeps its products and its certified first layer, but
        # fails verification, and layer 2's cross-group zeros are not
        # claimed any more
        d = extend_full_rate(build_rate1_4group(1), 2)
        weights = list(d.weights)
        weights[6] = weights[6] + 3e-11 * np.eye(d.n_t)
        nudged = dataclasses.replace(d, weights=tuple(weights))
        assert nudged.products is not None and nudged.structure is not None
        assert not verify_design(nudged).passed
        mask = mandated_zero_mask(nudged)
        claimed = set(map(tuple, np.argwhere(np.triu(mask, 1)).tolist()))
        assert claimed <= column_orthogonality_pairs(nudged)
        assert not claimed & {(5, 6), (6, 7)}
        assert np.array_equal(mask[:4, :4], mandated_zero_mask(d)[:4, :4])


INTERLEAVE = [0, 4, 1, 5, 2, 6, 3, 7]


def haar_right_multiple_design():
    base = build_rate1_4group(2)
    z = np.random.default_rng(5).standard_normal((2, 4, 4))
    q, r = np.linalg.qr(z[0] + 1j * z[1])
    u = q * (np.diag(r) / np.abs(np.diag(r)))  # Haar-distributed unitary
    return STBCDesign(
        n_t=4, T=4,
        weights=base.weights + tuple(w @ u for w in base.weights),
        groups=base.groups + tuple(tuple(i + 8 for i in g) for g in base.groups),
        layers=2,
        provenance="a=2 rate-1 code, layer 2 times a Haar unitary",
    )
