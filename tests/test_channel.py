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
from stbc.designs import (
    STBCDesign,
    build_rate1_4group,
    codeword,
    extend_full_rate,
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

    @pytest.mark.parametrize("a, layers", [(1, 2), (2, 2), (3, 1)])
    def test_matches_kronecker_form(self, a, layers):
        # reference: H_eq = (I_T x realify(H)) G
        base = build_rate1_4group(a)
        d = base if layers == 1 else extend_full_rate(base, layers)
        for t in range(5):
            h = sample_channel(d.n_t, 2, substream(42, trial=t)).H
            ref = np.kron(np.eye(d.T), realify(h)) @ d.G
            assert np.abs(equivalent_channel(h, d) - ref).max() < 1e-13

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
        import stbc.channel

        def no_draws(*args):
            raise AssertionError("a channel was drawn")

        monkeypatch.setattr(stbc.channel, "sample_channel", no_draws)
        d = extend_full_rate(build_rate1_4group(2), 2)
        with pytest.raises(RankDeficientError, match=r"n_r = 1 .*2-layer.*\(8, 16\)"):
            profile_over_channels(d, 1, 5)

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
