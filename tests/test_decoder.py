import gc
import weakref

import numpy as np
import pytest

from helpers import one_weight_per_group_design, random_trial, relabel
from stbc.capacity import random_rotation_baseline
from stbc.coding_gain import default_encoder, identity_encoder
from stbc.decoder import (
    complexity_account,
    constellation,
    decode_auto,
    full_symbol_matrix,
    ml_oracle,
    square_qam,
)
from stbc.designs import (
    STBCDesign,
    build_rate1_4group,
    codeword,
    extend_full_rate,
    verify_design,
)
from stbc.errors import (
    BudgetExceededError,
    NotGroupDecodableError,
    StructureError,
    TooLargeError,
)

CONS = constellation("4qam")


def silver_design():
    return extend_full_rate(build_rate1_4group(1), 2)


class TestConstellation:
    def test_4qam_points(self):
        c = square_qam(4)
        expected = np.array([-1 - 1j, -1 + 1j, 1 - 1j, 1 + 1j]) / np.sqrt(2)
        assert np.abs(np.sort_complex(c.points) - np.sort_complex(expected)).max() < 1e-15

    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_unit_energy(self, m):
        c = square_qam(m)
        assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) < 1e-12

    def test_labels(self):
        assert constellation("16-QAM").size == 16
        with pytest.raises(ValueError):
            constellation("8psk")
        with pytest.raises(ValueError):
            square_qam(8)

    def test_symbol_index_layout(self):
        c = square_qam(4)
        # index = re_index * sqrt(M) + im_index
        assert c.points[0] == c.pam[0] + 1j * c.pam[0]
        assert c.points[1] == c.pam[0] + 1j * c.pam[1]
        assert c.points[2] == c.pam[1] + 1j * c.pam[0]


class TestComplexityAccount:
    def test_rate1_n8(self):
        acc = complexity_account(build_rate1_4group(3), CONS)
        assert acc.group_evaluations == 64  # 4 groups x M^{n_t/4} = 4 * 16
        assert acc.oracle_evaluations == 4**8
        assert acc.order_exponent == 2.0

    def test_rate2_n8_order_m10(self):
        acc = complexity_account(extend_full_rate(build_rate1_4group(3), 2), CONS)
        assert acc.order_exponent == 10.0
        assert acc.conditional_evaluations == 4 * 4**10

    def test_rate1_n2(self):
        acc = complexity_account(build_rate1_4group(1), CONS)
        assert acc.group_evaluations == 8  # 4 groups x sqrt(M)
        assert acc.order_exponent == 0.5

    def test_silver(self):
        acc = complexity_account(silver_design(), CONS)
        assert acc.conditional_evaluations == 128
        assert acc.order_exponent == 2.5

    @pytest.mark.parametrize("a, layers", [(1, 1), (2, 1), (3, 1), (4, 1),
                                           (1, 2), (2, 2), (3, 2)])
    @pytest.mark.parametrize("label", ["4qam", "16qam", "64qam"])
    def test_builtin_codes_match_the_paper(self, a, layers, label):
        # 4 * M^{n_t/4} at rate 1, M^{n_t(L-1)} * 4 * M^{n_t/4} for L layers
        base = build_rate1_4group(a)
        d = base if layers == 1 else extend_full_rate(base, layers)
        cons = constellation(label)
        m, n_t = cons.size, d.n_t
        acc = complexity_account(d, cons)
        count = round(m ** (n_t * (layers - 1)) * 4 * m ** (n_t / 4))
        assert acc.oracle_evaluations == m**d.k
        assert acc.order_exponent == n_t * (layers - 0.75)
        if layers == 1:
            assert (acc.group_evaluations, acc.conditional_evaluations) == (count, None)
        else:
            assert (acc.group_evaluations, acc.conditional_evaluations) == (None, count)

    def test_one_weight_per_group_design_counts_what_the_decoder_scans(self):
        d = one_weight_per_group_design()
        assert verify_design(d).passed
        acc = complexity_account(d, CONS)
        assert acc.conditional_evaluations == 128  # 2^4 outer x 4 groups x 2
        assert acc.order_exponent == 2.5
        enc = identity_encoder(d, CONS.pam)
        for t in range(6):
            y, h, _ = random_trial(d, enc, 2, 10.0, seed=31, trial=t)
            r = decode_auto(y, h, d, CONS, 10.0, enc)
            assert r.metric_evaluations == acc.conditional_evaluations
            assert r.level_indices == ml_oracle(y, h, d, CONS, 10.0, enc).level_indices

    def test_group_straddling_the_first_layer_rejected(self):
        d = extend_full_rate(build_rate1_4group(2), 2)
        groups = list(d.groups)
        groups[3], groups[4] = (6, 8), (7, 9)
        bad = STBCDesign(n_t=4, T=4, weights=d.weights, groups=tuple(groups),
                         layers=2)
        with pytest.raises(StructureError):
            complexity_account(bad, CONS)


class TestNoiseless:
    def test_group_decode_exact_recovery(self):
        d = build_rate1_4group(2)
        enc = default_encoder(d, CONS.pam)
        y, h, levels = random_trial(d, enc, 1, 10.0, seed=1, trial=0,
                                    noise_scale=0.0)
        res = decode_auto(y, h, d, CONS, 10.0, enc)
        assert res.level_indices == tuple(levels)
        assert res.metric < 1e-18

    def test_conditional_decode_exact_recovery(self):
        d = silver_design()
        enc = default_encoder(d, CONS.pam)
        y, h, levels = random_trial(d, enc, 2, 10.0, seed=2, trial=0,
                                    noise_scale=0.0)
        res = decode_auto(y, h, d, CONS, 10.0, enc)
        assert res.level_indices == tuple(levels)
        assert res.metric < 1e-18

    def test_oracle_exact_recovery(self):
        d = build_rate1_4group(1)
        enc = default_encoder(d, CONS.pam)
        y, h, levels = random_trial(d, enc, 1, 10.0, seed=3, trial=0,
                                    noise_scale=0.0)
        res = ml_oracle(y, h, d, CONS, 10.0, enc)
        assert res.level_indices == tuple(levels)


class TestOracleEquivalence:
    def test_group_equals_oracle(self):
        d = build_rate1_4group(2)
        enc = default_encoder(d, CONS.pam)
        acc = complexity_account(d, CONS)
        for t in range(100):
            y, h, _ = random_trial(d, enc, 1, 8.0, seed=11, trial=t)
            r1 = decode_auto(y, h, d, CONS, 8.0, enc)
            r2 = ml_oracle(y, h, d, CONS, 8.0, enc)
            assert r1.level_indices == r2.level_indices
            assert abs(r1.metric - r2.metric) < 1e-9
            assert r1.metric_evaluations == acc.group_evaluations
            assert r2.metric_evaluations == acc.oracle_evaluations

    def test_conditional_equals_oracle(self):
        d = silver_design()
        enc = default_encoder(d, CONS.pam)
        acc = complexity_account(d, CONS)
        for t in range(200):
            y, h, _ = random_trial(d, enc, 2, 6.0, seed=12, trial=t)
            r1 = decode_auto(y, h, d, CONS, 6.0, enc)
            r2 = ml_oracle(y, h, d, CONS, 6.0, enc)
            assert r1.level_indices == r2.level_indices
            assert abs(r1.metric - r2.metric) < 1e-9
            assert r1.metric_evaluations == acc.conditional_evaluations

    def test_oracle_agrees_with_naive_reimplementation(self):
        # independent argmin loop over the two-layer code: plain python,
        # complex-domain metric, no equivalent-channel machinery
        from itertools import product as iter_product

        d = silver_design()
        enc = default_encoder(d, CONS.pam)
        b = full_symbol_matrix(d, enc)
        snr = 5.0
        for trial in (0, 1, 2):
            y, h, _ = random_trial(d, enc, 2, snr, seed=13, trial=trial)
            best, best_lv = np.inf, None
            for lv in iter_product(range(2), repeat=8):
                info = CONS.pam[list(lv)]
                s_mat = d.energy_scale * codeword(d, b @ info)
                metric = np.linalg.norm(y - np.sqrt(snr / 2) * h @ s_mat) ** 2
                if metric < best:
                    best, best_lv = metric, lv
            res = ml_oracle(y, h, d, CONS, snr, enc)
            assert res.level_indices == best_lv
            assert abs(res.metric - best) < 1e-9


class TestTieBreaking:
    def test_zero_channel_all_decoders_pick_lexicographic_minimum(self):
        d = silver_design()
        enc = default_encoder(d, CONS.pam)
        y = np.ones((2, 2), dtype=complex)
        h = np.zeros((2, 2), dtype=complex)
        r_cond = decode_auto(y, h, d, CONS, 10.0, enc)
        r_orac = ml_oracle(y, h, d, CONS, 10.0, enc)
        assert r_cond.level_indices == r_orac.level_indices == (0,) * 8

        d1 = build_rate1_4group(2)
        enc1 = default_encoder(d1, CONS.pam)
        r_grp = decode_auto(np.ones((1, 4), dtype=complex),
                            np.zeros((1, 4), dtype=complex), d1, CONS, 10.0, enc1)
        assert r_grp.level_indices == (0,) * 8


class TestMetricRecomputation:
    def test_reported_metric_matches_direct_evaluation(self):
        d = silver_design()
        enc = default_encoder(d, CONS.pam)
        b = full_symbol_matrix(d, enc)
        snr = 12.0
        y, h, _ = random_trial(d, enc, 2, snr, seed=14, trial=9)
        res = decode_auto(y, h, d, CONS, snr, enc)
        s_mat = d.energy_scale * codeword(d, b @ res.info)
        direct = np.linalg.norm(y - np.sqrt(snr / 2) * h @ s_mat) ** 2
        assert abs(res.metric - direct) < 1e-9


class TestGuards:
    def test_oracle_size_guard(self):
        d = extend_full_rate(build_rate1_4group(3), 2)  # k = 16
        y = np.zeros((2, 8), dtype=complex)
        h = np.zeros((2, 8), dtype=complex)
        with pytest.raises(TooLargeError):
            ml_oracle(y, h, d, CONS, 1.0)

    def test_oracle_budget_guard(self):
        # a=3 rate-1 16-QAM: k = 8 passes the size guard, but 4^16 = 2^32
        # candidates exceed the oracle's 2^22
        d = build_rate1_4group(3)
        y = np.zeros((1, 8), dtype=complex)
        h = np.zeros((1, 8), dtype=complex)
        with pytest.raises(TooLargeError, match=f"{4**16} exceeds the budget of {1 << 22}"):
            ml_oracle(y, h, d, constellation("16qam"), 1.0)

    def test_conditional_budget_guard(self):
        # a=3 two-layer 16-QAM: 4^16 outer hypotheses times 4 * 4^4 group
        # scans = 2^42, refused against the budget of 2^26
        d = extend_full_rate(build_rate1_4group(3), 2)
        y = np.zeros((2, 8), dtype=complex)
        h = np.zeros((2, 8), dtype=complex)
        with pytest.raises(BudgetExceededError, match=f"{1 << 42} hypotheses"):
            decode_auto(y, h, d, constellation("16qam"), 1.0)

    @pytest.mark.parametrize("decode", [decode_auto])
    def test_rate1_budget_guard(self, decode):
        # 4 * 4^16 = 2^34 scans: refused before any candidate table is
        # built (one table would need 4^16 digit columns)
        d = build_rate1_4group(5)
        y = np.zeros((1, d.T), dtype=complex)
        h = np.zeros((1, d.n_t), dtype=complex)
        with pytest.raises(BudgetExceededError):
            decode(y, h, d, constellation("16qam"), 1.0)

    @pytest.mark.parametrize("decode", [decode_auto])
    def test_table_bytes_guard(self, decode):
        # a=4 64-QAM passes the scan budget at exactly 1 << 26 scans, but
        # its tables (8 x 2^24 digits, 32 n_r x 2^24 images per group)
        # need over 5 GiB: refused before any of them is allocated
        import tracemalloc

        d = build_rate1_4group(4)
        cons = constellation("64qam")
        assert complexity_account(d, cons).group_evaluations == 1 << 26
        y = np.zeros((1, d.T), dtype=complex)
        h = np.zeros((1, d.n_t), dtype=complex)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="bytes"):
                decode(y, h, d, cons, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 24

    @pytest.mark.parametrize("a, label", [(4, "16qam"), (3, "64qam")])
    def test_far_smaller_tables_allowed(self, a, label):
        d = build_rate1_4group(a)
        cons = constellation(label)
        enc = default_encoder(d, cons.pam)
        y, h, levels = random_trial(d, enc, 1, 10.0, seed=17, trial=0, noise_scale=0.0)
        res = decode_auto(y, h, d, cons, 10.0, enc)
        assert res.level_indices == tuple(levels)

    def test_group_decode_rejects_uncertified_design(self):
        d = random_rotation_baseline(build_rate1_4group(2))
        y = np.zeros((1, 4), dtype=complex)
        h = np.zeros((1, 4), dtype=complex)
        with pytest.raises(NotGroupDecodableError):
            decode_auto(y, h, d, CONS, 1.0)


class TestAutoDispatch:
    def test_rate1_uses_group(self):
        d = build_rate1_4group(2)
        enc = default_encoder(d, CONS.pam)
        y, h, _ = random_trial(d, enc, 1, 10.0, seed=15, trial=0)
        res = decode_auto(y, h, d, CONS, 10.0, enc)
        assert res.metric_evaluations == complexity_account(d, CONS).group_evaluations

    def test_layered_uses_conditional(self):
        d = silver_design()
        enc = default_encoder(d, CONS.pam)
        y, h, _ = random_trial(d, enc, 2, 10.0, seed=16, trial=0)
        res = decode_auto(y, h, d, CONS, 10.0, enc)
        assert res.metric_evaluations == complexity_account(d, CONS).conditional_evaluations

    def test_decoded_design_is_not_kept_alive(self):
        # no module-level cache may keep a decoded design alive
        d = silver_design()
        y, h, _ = random_trial(d, default_encoder(d, CONS.pam), 2, 10.0, seed=16, trial=0)
        decode_auto(y, h, d, CONS, 10.0)
        alive = weakref.ref(d)
        del d
        gc.collect()
        assert alive() is None


class TestDeclaredGroups:
    def test_interleaved_groups_decode_like_the_oracle(self):
        # groups (1,5),(2,6),(3,7),(4,8): a certified relabelling of the
        # a=2 rate-1 code whose groups are not contiguous
        d = relabel(build_rate1_4group(2), [0, 4, 1, 5, 2, 6, 3, 7])
        assert d.groups == ((0, 4), (1, 5), (2, 6), (3, 7))
        assert verify_design(d).passed
        enc = default_encoder(d, CONS.pam)
        for t in range(50):
            y, h, _ = random_trial(d, enc, 1, 8.0, seed=17, trial=t)
            r1 = decode_auto(y, h, d, CONS, 8.0, enc)
            r2 = ml_oracle(y, h, d, CONS, 8.0, enc)
            assert r1.level_indices == r2.level_indices
            assert abs(r1.metric - r2.metric) < 1e-9

    def test_uncertified_first_layer_rejected(self):
        # the two-antenna two-layer code with weights 2 and 6 swapped
        # across layers fails certification and must not be decoded
        silver = silver_design()
        weights = list(silver.weights)
        weights[1], weights[5] = weights[5], weights[1]
        d = STBCDesign(n_t=2, T=2, weights=tuple(weights), groups=silver.groups,
                       layers=2)
        assert not verify_design(d).passed
        y = np.ones((2, 2), dtype=complex)
        h = np.eye(2, dtype=complex)
        enc = default_encoder(silver, CONS.pam)
        with pytest.raises(NotGroupDecodableError):
            decode_auto(y, h, d, CONS, 10.0, enc)
