import gc
import re
import weakref
from unittest.mock import patch

import numpy as np
import pytest

from helpers import one_weight_per_group_design, random_trial, relabel, structured_reference
from stbc.capacity import random_rotation_baseline
from stbc.coding_gain import default_encoder, identity_encoder, min_determinant
from stbc.decoder import (
    _effective_operator,
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
    verify_group_decodable,
)
from stbc.errors import (
    BudgetExceededError,
    DimensionMismatchError,
    NotGroupDecodableError,
    StructureError,
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

    @pytest.mark.parametrize("label", [None, 4, "qam", "64.0qam", "bogus", "16qam4"])
    def test_label_not_digits_qam_refused(self, label):
        with pytest.raises(ValueError, match=rf"unsupported constellation {label!r} "):
            constellation(label)

    @pytest.mark.parametrize("label", [["4qam"], {"a": 1}, {"4qam"}])
    def test_unhashable_label_refused(self, label):
        # the label is checked before the cache, which would raise a bare
        # TypeError: unhashable type
        with pytest.raises(ValueError,
                           match=re.escape(f"unsupported constellation {label!r} ")):
            constellation(label)

    def test_known_bad_size_keeps_its_message(self):
        with pytest.raises(ValueError, match="even perfect-square size, got 3"):
            constellation("3qam")

    def test_one_read_only_instance_per_label(self):
        c = constellation("4qam")
        assert constellation("4qam") is c
        assert constellation("4-QAM") is c
        with pytest.raises(ValueError):
            c.pam[0] = 0.0
        with pytest.raises(ValueError):
            c.points[0] = 0.0
        assert c.pam.tolist() == square_qam(4).pam.tolist()

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

    @pytest.mark.parametrize("design", [
        # the a=2 rate-1 code's first layer regrouped to (1,3),(2,4),(5,7),(6,8)
        pytest.param(STBCDesign(n_t=4, T=4, weights=build_rate1_4group(2).weights,
                                groups=((0, 2), (1, 3), (4, 6), (5, 7))), id="a2-rate1-regrouped"),
        pytest.param(random_rotation_baseline(silver_design()), id="silver-remix"),
    ])
    def test_uncertified_design_counts_the_plain_search(self, design):
        # without certified groups the only exact search is the plain one:
        # one scan per hypothesis, M^k, not the declared groups' count
        assert not verify_design(design).passed and design.structure is None
        acc = complexity_account(design, CONS)
        structured = acc.group_evaluations if design.layers == 1 else acc.conditional_evaluations
        assert structured == acc.oracle_evaluations == 256
        assert acc.order_exponent == 4.0

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

    @pytest.mark.parametrize("a", [1, 2])
    def test_oracle_does_not_depend_on_the_tile(self, a):
        # 64-candidate tiles, the default ones (the Silver code's 256
        # candidates at once, the a=2 two-layer code's 65,536 in tiles of
        # 2,048) and one product over all of them give bit-identical least
        # metrics and tie scales, so the same decisions, on drawn trials
        # and a zero channel
        from stbc import decoder

        d = extend_full_rate(build_rate1_4group(a), 2)
        enc = default_encoder(d, CONS.pam)
        trials = [random_trial(d, enc, 2, 10.0, seed=17, trial=t)[:2] for t in range(2)]
        trials.append((trials[0][0], np.zeros_like(trials[0][1])))
        within = decoder._within
        for y, h in trials:
            got = []
            for cap in (1, decoder._TILE_MACS, 1 << 30):
                seen = []

                def recorded(value, scale):
                    seen.append((float(value), float(scale)))
                    return within(value, scale)

                with patch.object(decoder, "_TILE_MACS", cap), \
                        patch.object(decoder, "_within", recorded):
                    res = ml_oracle(y, h, d, CONS, 10.0, enc)
                got.append((res.level_indices, res.metric_evaluations, seen))
            assert got[0] == got[1] == got[2]


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
        y1, h1 = np.ones((1, 4), dtype=complex), np.zeros((1, 4), dtype=complex)
        r_grp = decode_auto(y1, h1, d1, CONS, 10.0, enc1)
        r_orac1 = ml_oracle(y1, h1, d1, CONS, 10.0, enc1)
        assert r_grp.level_indices == r_orac1.level_indices == (0,) * 8

    def test_oracle_equals_structured_search_when_y_is_orthogonal_to_phi(self):
        # y off the column space of phi: x and -x tie in every group, so
        # every decision is a tie broken by the lexicographic rule
        d = build_rate1_4group(2)
        enc = default_encoder(d, CONS.pam)
        snr = 10.0
        for t in range(20):
            y, h, _ = random_trial(d, enc, 3, snr, seed=21, trial=t)
            yv, phi, _ = _effective_operator(y, h, d, CONS, snr, enc)
            q, _ = np.linalg.qr(phi)
            yv = yv - q @ (q.T @ yv)
            y = yv.view(complex).reshape(d.T, 3).T  # columns of Y stacked
            r_auto = decode_auto(y, h, d, CONS, snr, enc)
            r_orac = ml_oracle(y, h, d, CONS, snr, enc)
            assert r_orac.level_indices == r_auto.level_indices
            assert abs(r_orac.metric - r_auto.metric) < 1e-9


class TestLexLeast:
    """``_lex_least`` and ``_least_tied`` against a plain lexicographic
    minimum per trial (first real symbol most significant)."""

    @staticmethod
    def _reference(full, tri):
        rows = {}
        for row, t in zip(map(tuple, full.tolist()), tri.tolist()):
            rows[t] = min(rows.get(t, row), row)
        return [rows[t] for t in sorted(rows)], sorted(rows)

    @staticmethod
    def _owners(rng, case, trials, leaves):
        if case == "one row each":  # the early return: a strictly rising trial index
            return np.sort(rng.choice(trials, size=leaves, replace=False))
        return np.sort(rng.integers(0, trials, size=leaves))

    @pytest.mark.parametrize("case", ["one row each", "repeated rows"])
    @pytest.mark.parametrize("seed", range(6))
    def test_lex_least_equals_reference(self, case, seed):
        from stbc.decoder import _lex_least

        rng = np.random.default_rng([seed, 0x1e])
        trials, n, p = 40, 9, 4
        tri = self._owners(rng, case, trials, 25)
        full = rng.integers(0, p, size=(len(tri), n))
        if case == "repeated rows":  # equal rows within a trial and across trials
            full[1::3] = full[0:-1:3]
            full[:, :4] = full[0, :4]
        rows, owners = _lex_least(full, tri)
        want_rows, want_owners = self._reference(full, tri)
        assert rows.tolist() == [list(r) for r in want_rows]
        assert owners.tolist() == want_owners

    @pytest.mark.parametrize("case", ["one row each", "repeated rows"])
    @pytest.mark.parametrize("width", [1, 3, 1000])
    def test_least_tied_equals_reference(self, case, width):
        # four groups of two binary symbols and three outer symbols; each
        # group takes its first candidate at the least metric, as argmin does
        from stbc.decoder import _group_candidates, _least_tied

        rng = np.random.default_rng([width, len(case)])
        trials, leaves = 12, 30
        cols = np.arange(8).reshape(4, 2)
        outer = np.array([8, 9, 10])
        cand = _group_candidates(2, 2)
        owners = self._owners(rng, case, trials, 10 if case == "one row each" else leaves)
        digits = rng.integers(0, 2, size=(len(owners), 3))
        metrics = rng.permutation(len(owners) * 16).reshape(-1, 4, 4) / 7.0
        metrics[:, :, 3] = metrics[:, :, 1] = metrics.min(axis=2)  # candidates 1 and 3 tie
        if case == "repeated rows":
            digits[1::2], metrics[1::2] = digits[:-1:2], metrics[:-1:2]
        full = np.empty((len(owners), 11), dtype=int)
        full[:, outer] = digits
        for g in range(4):
            full[:, cols[g]] = cand[:, np.argmin(metrics[:, g], axis=1)].T

        got = _least_tied(cols, cand, outer, owners, np.ones(trials), width,
                          lambda part: (digits[part], metrics[part]))
        assert [tuple(r) for r in got.tolist()] == self._reference(full, owners)[0]

    @pytest.mark.parametrize("tie_width", [5, 1 << 20])
    def test_all_tied_zero_channel_stack(self, tie_width):
        # every hypothesis of every trial ties: each takes the all-zero
        # vector, whether one chunk holds the ties or many chunks span trials
        from stbc import decoder

        d = silver_design()
        enc = default_encoder(d, CONS.pam)
        y = np.ones((3, 2, 2), dtype=complex)
        with patch.object(decoder, "_tie_width", lambda *args: tie_width):
            levels, evaluations, _ = decoder._decode_stack(
                y, np.zeros_like(y), d, CONS, np.full(3, 10.0), enc)
        assert levels.tolist() == [[0] * 8] * 3
        assert evaluations.tolist() == [complexity_account(d, CONS).conditional_evaluations] * 3


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
        # k = 16: 2^32 candidates exceed the oracle's 2^22
        d = extend_full_rate(build_rate1_4group(3), 2)
        y = np.zeros((2, 8), dtype=complex)
        h = np.zeros((2, 8), dtype=complex)
        with pytest.raises(BudgetExceededError):
            ml_oracle(y, h, d, CONS, 1.0)

    def test_oracle_budget_guard(self):
        # a=3 rate-1 16-QAM: k = 8, but 4^16 = 2^32 candidates exceed the
        # oracle's 2^22
        d = build_rate1_4group(3)
        y = np.zeros((1, 8), dtype=complex)
        h = np.zeros((1, 8), dtype=complex)
        with pytest.raises(BudgetExceededError, match=f"{4**16} exceeds the budget of {1 << 22}"):
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

    @pytest.mark.parametrize("decode", [decode_auto, ml_oracle])
    @pytest.mark.parametrize("bad", ["nan received", "inf channel", "negative snr",
                                     "nan snr", "inf snr"])
    def test_bad_inputs_refused(self, decode, bad):
        d = build_rate1_4group(2)
        y, h, snr = np.ones((1, 4), dtype=complex), np.ones((1, 4), dtype=complex), 10.0
        if bad == "nan received":
            y[0, 1] = np.nan
        elif bad == "inf channel":
            h[0, 2] = 1j * np.inf
        else:
            snr = {"negative snr": -1.0, "nan snr": np.nan, "inf snr": np.inf}[bad]
        with pytest.raises(ValueError, match="non-finite entries|snr must be finite and >= 0"):
            decode(y, h, d, CONS, snr)

    @pytest.mark.parametrize("decode", [decode_auto, ml_oracle])
    def test_zero_snr_is_valid(self, decode):
        # nothing of the codeword arrives: every hypothesis ties
        d = build_rate1_4group(2)
        y, h = np.ones((1, 4), dtype=complex), np.ones((1, 4), dtype=complex)
        res = decode(y, h, d, CONS, 0.0)
        assert res.level_indices == (0,) * 8 and res.metric == pytest.approx(4.0)

    @pytest.mark.parametrize("decode", [decode_auto, ml_oracle])
    @pytest.mark.parametrize("y_shape, h_shape", [
        ((2,), (2,)),  # one trial without its receive axis
        ((1, 1, 2), (1, 1, 2)),  # a stack
        ((1, 2), (1, 3)),  # a channel of the wrong width
        ((2, 2), (1, 2)),  # a received matrix of other rows
        ((0, 2), (0, 2)),  # no receive antenna
    ])
    def test_wrong_shapes_refused(self, decode, y_shape, h_shape):
        # the error names the caller's shapes, before any admission
        d = build_rate1_4group(1)
        with pytest.raises(DimensionMismatchError) as err:
            decode(np.ones(y_shape), np.ones(h_shape), d, CONS, 1.0)
        assert f"channel {h_shape} and received matrix {y_shape}" in str(err.value)

    @pytest.mark.parametrize("decode", [decode_auto, ml_oracle])
    @pytest.mark.parametrize("snr", [[1.0, 4.0], [5.0], np.ones((1, 1))])
    def test_snr_is_one_value(self, decode, snr):
        # one trial takes one snr: a vector is refused, not broadcast into a stack
        d = build_rate1_4group(1)
        with pytest.raises(ValueError, match="snr must be finite and >= 0, one value"):
            decode(np.ones((1, 2)), np.ones((1, 2)), d, CONS, snr)

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

    def test_groups_listed_layer_two_first(self):
        # the certified a=2 two-layer code with its second layer's groups
        # declared first has the builtin code's split, encoder and decisions
        base = extend_full_rate(build_rate1_4group(2), 2)
        d = relabel(base, range(16), group_order=[4, 5, 6, 7, 0, 1, 2, 3])
        assert d.groups[0] == (8, 9) and verify_design(d).passed
        assert d.structure[0] == base.structure[0]
        assert d.structure[1].tolist() == base.structure[1].tolist()
        enc = default_encoder(d, CONS.pam)
        assert np.array_equal(enc.rotation, default_encoder(base, CONS.pam).rotation)
        assert (min_determinant(d, enc).min_det
                == min_determinant(base, default_encoder(base, CONS.pam)).min_det)
        for t in range(3):
            y, h, _ = random_trial(d, enc, 2, 8.0, seed=18, trial=t)
            assert (decode_auto(y, h, d, CONS, 8.0).level_indices
                    == ml_oracle(y, h, d, CONS, 8.0).level_indices)

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


class TestUncertifiedDesign:
    """A design without certified groups (``structure`` None) gets the
    identity symbol map and only the oracle decodes it."""

    def test_oracle_sweep_with_the_identity_map(self):
        from stbc.sim import SimConfig, run_error_sweep

        d = random_rotation_baseline(silver_design())
        assert d.structure is None
        enc = default_encoder(d, CONS.pam)
        assert np.array_equal(full_symbol_matrix(d, enc), np.eye(d.n_real_symbols))
        records = run_error_sweep(SimConfig(design=d, n_r=2, snr_db=(0.0, 10.0), trials=20,
                                            seed=5, decoder="oracle"))
        assert [r.mean_evals for r in records] == [256.0, 256.0]
        assert default_encoder(d, CONS.pam) is enc

    def test_structured_decoding_refused(self):
        from stbc.sim import SimConfig, run_error_sweep

        d = random_rotation_baseline(silver_design())
        y, h = np.ones((2, 2), dtype=complex), np.eye(2, dtype=complex)
        with pytest.raises(NotGroupDecodableError):
            decode_auto(y, h, d, CONS, 10.0)
        with pytest.raises(NotGroupDecodableError):
            run_error_sweep(SimConfig(design=d, n_r=2, trials=2))


class TestOneCertificationTolerance:
    """The split the decoder and the R-matrix analysis read is exactly the
    one certification passes: a weight nudged by 1e-14 I stays certified
    everywhere, one nudged by 3e-11 I is certified nowhere."""

    @pytest.mark.parametrize("eps", [1e-14, 3e-11])
    @pytest.mark.parametrize("base, weight", [
        pytest.param(lambda: build_rate1_4group(2), 4, id="a2-rate1-weight5"),
        pytest.param(silver_design, 2, id="a1-two-layer-weight3"),
    ])
    def test_split_equals_certification(self, base, weight, eps):
        from dataclasses import replace

        from stbc.channel import column_orthogonality_pairs, mandated_zero_mask

        d = base()
        weights = list(d.weights)
        weights[weight] = weights[weight] + eps * np.eye(d.n_t)
        d = replace(d, weights=tuple(weights))
        certified = verify_group_decodable(d).checks[0].passed
        assert (d.structure is not None) == certified == (eps < 1e-12)

        claimed = set(map(tuple, np.argwhere(np.triu(mandated_zero_mask(d), 1)).tolist()))
        assert claimed <= column_orthogonality_pairs(d)
        assert bool(claimed) == certified

        enc = default_encoder(d, CONS.pam)
        y, h, _ = random_trial(d, enc, 2, 10.0, seed=7, trial=0)
        oracle = ml_oracle(y, h, d, CONS, 10.0, enc)
        assert oracle.metric_evaluations == 2 ** d.n_real_symbols
        if certified:
            assert decode_auto(y, h, d, CONS, 10.0, enc).level_indices == oracle.level_indices
        else:
            with pytest.raises(NotGroupDecodableError):
                decode_auto(y, h, d, CONS, 10.0, enc)


class TestBoundedSearch:
    """Codes whose outer hypotheses span more than one chunk scan only the
    survivors of a QR lower bound; the decision must not move."""

    A3 = extend_full_rate(build_rate1_4group(3), 2)
    A2 = extend_full_rate(build_rate1_4group(2), 2)

    @staticmethod
    def _kinds(d, cons, n_r, snr, seed):
        """A drawn trial, its zero-channel and zero-received versions and,
        when phi has more rows than columns, a received vector orthogonal
        to every column of phi: then x and -x tie in every group (their
        cross terms are rounding noise), so rounding must not decide."""
        from stbc import decoder

        enc = default_encoder(d, cons.pam)
        y, h, _ = random_trial(d, enc, n_r, snr, seed=seed, trial=0)
        kinds = {
            "drawn": (y, h),
            "zero channel": (y, np.zeros_like(h)),
            "zero received": (np.zeros_like(y), h),
        }
        y_real, phi, _ = decoder._effective_operator(y, h, d, cons, snr, enc)
        if phi.shape[0] > phi.shape[1]:
            across = y_real - phi @ np.linalg.lstsq(phi, y_real, rcond=None)[0]
            kinds["orthogonal"] = (across.view(complex).reshape(d.T, n_r).T, h)
        return enc, kinds

    @pytest.mark.parametrize("design, label", [
        (silver_design(), "16qam"),
        (extend_full_rate(build_rate1_4group(2), 2), "4qam"),
        (build_rate1_4group(2), "4qam"),
    ])
    def test_decision_independent_of_chunk_width(self, design, label):
        # 256 outer hypotheses: widths 1, 2, 3 and 17 take the bounded
        # search, the default scans all of them at once.  The rate-1 code
        # has no outer index; with a received vector orthogonal to phi its
        # groups tie x_g with -x_g.
        from stbc import decoder

        cons = constellation(label)
        groups, outer = design.structure
        enc, kinds = self._kinds(design, cons, 3, 3.0, seed=41)
        assert len(kinds) == 4
        for kind, (y, h) in kinds.items():
            got = set()
            for width in (1, 2, 3, 17, decoder._CHUNK):
                with patch.object(decoder, "_CHUNK", width):
                    got.add(decode_auto(y, h, design, cons, 3.0, enc).level_indices)
            y_real, phi, _ = decoder._effective_operator(y, h, design, cons, 3.0, enc)
            assert got == {structured_reference(y_real, phi, cons.pam, outer, groups)}, kind

    def test_decision_independent_of_chunk_width_at_32_rows(self):
        # the eight-antenna code's group products are (16, 32) @ (32, w),
        # whose roundings differ between widths; its outer hypotheses
        # always take the bounded search.  A zero received matrix leaves
        # ~62,000 survivors, so it is scored at the wider widths only.
        from stbc import decoder

        enc, kinds = self._kinds(self.A3, CONS, 2, 10.0, seed=42)
        for kind, widths in (("drawn", (1, 2, 3, 17, decoder._CHUNK)),
                             ("zero received", (17, 100, decoder._CHUNK))):
            y, h = kinds[kind]
            got = set()
            for width in widths:
                with patch.object(decoder, "_CHUNK", width):
                    got.add(decode_auto(y, h, self.A3, CONS, 10.0, enc).level_indices)
            assert len(got) == 1, kind

    def test_zero_channel_prunes_nothing(self):
        # every hypothesis has the same total, so every bound ties the
        # radius: all outer hypotheses survive and all of them tie
        cons = constellation("16qam")
        enc, kinds = self._kinds(self.A2, cons, 2, 10.0, seed=43)
        res = decode_auto(*kinds["zero channel"], self.A2, cons, 10.0, enc)
        assert res.metric_evaluations == complexity_account(self.A2, cons).conditional_evaluations
        assert res.level_indices == (0,) * self.A2.n_real_symbols

    def test_high_snr_scans_under_one_percent(self):
        account = complexity_account(self.A3, CONS).conditional_evaluations
        enc = default_encoder(self.A3, CONS.pam)
        counts = []
        for t in range(4):
            y, h, levels = random_trial(self.A3, enc, 2, 10 ** 2.5, seed=44, trial=t)
            res = decode_auto(y, h, self.A3, CONS, 10 ** 2.5, enc)
            assert res.level_indices == tuple(levels)
            assert res.metric_evaluations % (4 * 2**4) == 0
            counts.append(res.metric_evaluations)
        assert 0 < np.mean(counts) < 0.01 * account

    @pytest.mark.parametrize("code", ["a3-two-layer-4qam", "a2-two-layer-16qam"])
    @pytest.mark.parametrize("n_r, block", [
        # receive antennas, then (SNR in dB, trial kind) of each trial of
        # one stack; phi has more rows than columns from n_r = 3 on
        (2, [(10.0, "drawn")]),
        (2, [(0.0, "zero channel"), (20.0, "drawn"), (3.0, "drawn"), (10.0, "zero received")]),
        (3, [(20.0, "drawn"), (0.0, "drawn"), (10.0, "orthogonal"), (0.0, "zero received"),
             (3.0, "zero channel"), (20.0, "orthogonal")]),
    ])
    def test_stack_equals_alone_and_reference(self, code, n_r, block):
        # both codes have 65,536 outer hypotheses, so every stack takes one
        # bounded search; each trial's decision and counter must equal its
        # own decode and the reference that scores every hypothesis, and
        # its survivors every outer hypothesis whose bound is within its
        # radius, in ascending index order
        from stbc import decoder
        from stbc.linalg import _lex_digits

        design, cons = {"a3-two-layer-4qam": (self.A3, CONS),
                        "a2-two-layer-16qam": (self.A2, constellation("16qam"))}[code]
        groups, outer = design.structure
        ys, hs, snrs = [], [], []
        for i, (snr_db, kind) in enumerate(block):
            snr = 10.0 ** (snr_db / 10.0)
            enc, kinds = self._kinds(design, cons, n_r, snr, seed=60 + i)
            y, h = kinds[kind]
            ys.append(y)
            hs.append(h)
            snrs.append(snr)
        passes, real = [], decoder._radius_pass

        def radius_pass(*args):
            passes.append((args, real(*args)))
            return passes[-1][1]

        with patch.object(decoder, "_radius_pass", radius_pass):
            levels, evaluations, _ = decoder._decode_stack(
                np.array(ys), np.array(hs), design, cons, np.array(snrs), enc)
        [((z_o, r_oo, p, _, limit), (survivors, tri, _))] = passes
        m = len(outer)
        # every outer hypothesis's levels in index order, column c of R_oo
        # taking the digit of weight p^c
        x = cons.pam[_lex_digits(np.arange(p**m), p, m)[::-1]]
        per_outer = sum(p ** len(g) for g in groups)
        for i in range(len(block)):
            within = np.flatnonzero(np.square(z_o[i, :, None] - r_oo[i] @ x).sum(axis=0)
                                    <= limit[i])
            assert survivors[tri == i].tolist() == within.tolist(), block[i]
            assert evaluations[i] == per_outer * len(within), block[i]
        for i, (y, h, snr) in enumerate(zip(ys, hs, snrs)):
            alone = decode_auto(y, h, design, cons, snr, enc)
            y_real, phi, _ = decoder._effective_operator(y, h, design, cons, snr, enc)
            reference = structured_reference(y_real, phi, cons.pam, outer, groups)
            assert tuple(levels[i].tolist()) == alone.level_indices == reference, block[i]
            assert evaluations[i] == alone.metric_evaluations, block[i]

    def test_k_best_keeps_the_earliest_of_bounds_tied_at_the_boundary(self):
        # 63 bounds below 1.0 at scattered positions and 65 equal to 1.0:
        # the 64th seed is the earliest tied position, alone and stacked
        from stbc import decoder

        rng = np.random.default_rng(3)
        child = np.ones(128)
        below = rng.permutation(128)[: decoder._SEEDS - 1]
        child[below] = 0.5 + 1e-3 * np.arange(len(below))
        want = sorted([*below, min(set(range(128)) - set(below))])
        tied = child.reshape(64, 2)
        assert decoder._k_best(tied, np.zeros(64, dtype=int)).tolist() == want
        other = rng.random((64, 2))
        both = decoder._k_best(np.concatenate([other, tied]), np.repeat([0, 1], 64))
        assert both[decoder._SEEDS:].tolist() == [128 + w for w in want]
        assert both[:decoder._SEEDS].tolist() == decoder._k_best(
            other, np.zeros(64, dtype=int)).tolist()

    @pytest.mark.parametrize("trials, width, levels", [(1, 128, 3), (3, 256, 5), (4, 96, 2)])
    def test_k_best_equals_the_first_of_a_stable_sort(self, trials, width, levels):
        # bounds drawn from a few values tie everywhere, the K-th included:
        # each trial keeps the positions a stable sort puts first
        from stbc import decoder

        rng = np.random.default_rng(trials)
        per = rng.integers(0, levels, (trials, width)).astype(float)
        want = np.sort(np.argsort(per, axis=1, kind="stable")[:, :decoder._SEEDS], axis=1)
        want += width * np.arange(trials)[:, None]
        got = decoder._k_best(per.reshape(-1, 2), np.repeat(np.arange(trials), width // 2))
        assert got.tolist() == want.ravel().tolist()

    @pytest.mark.parametrize("code", ["a3-two-layer-4qam", "a2-two-layer-16qam"])
    def test_block_state_within_its_charge(self, code):
        # a zero channel prunes nothing and ties every hypothesis, the
        # worst case of a block's search state: its traced peak stays
        # within the trials' and the shared bytes of _sizes_at
        import tracemalloc

        from stbc import decoder

        design, cons = {"a3-two-layer-4qam": (self.A3, CONS),
                        "a2-two-layer-16qam": (self.A2, constellation("16qam"))}[code]
        groups, outer = design.structure
        p = len(cons.pam)
        assert decoder._admit_search(design, cons, 2)[1] * decoder._hypotheses(
            p, groups, len(outer)) <= decoder._BUDGET
        trial, shared = decoder._sizes_at(p, groups, len(outer), 4 * design.T,
                                          decoder._CHUNK, decoder._TILE_MACS)
        enc = default_encoder(design, cons.pam)
        for block in (1, 3):
            y = np.zeros((block, 2, design.T), dtype=complex)
            h = np.zeros((block, 2, design.n_t), dtype=complex)
            tracemalloc.start()
            try:
                _, evaluations, _ = decoder._decode_stack(
                    y, h, design, cons, np.ones(block), enc)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert evaluations.tolist() == [p ** len(outer) * 64] * block
            assert peak <= block * trial + shared

    @pytest.mark.parametrize("code, leaf", [("a3-two-layer-4qam", 384),
                                            ("a2-two-layer-16qam", 768)])
    def test_tiles_within_the_cap(self, code, leaf):
        # the leaf product (k + sum_g n_cand, m + 1) and the radius pass's
        # (prefixes, half) by (half, p^half) are cut into tiles that are
        # multiples of 64 columns (or prefixes) within _TILE_MACS
        from stbc import decoder

        design, cons = {"a3-two-layer-4qam": (self.A3, CONS),
                        "a2-two-layer-16qam": (self.A2, constellation("16qam"))}[code]
        groups, outer = design.structure
        p, m = len(cons.pam), len(outer)
        rows = sum(len(g) + p ** len(g) for g in groups)
        cap = decoder._TILE_MACS
        assert decoder._leaf_width(p, groups, m, cap) == leaf
        for width, per_column in ((leaf, rows * (m + 1)),
                                  (decoder._radius_width(p, m, cap), p ** (m // 2) * (m // 2))):
            assert width % 64 == 0
            assert width * per_column <= decoder._TILE_MACS

    @pytest.mark.parametrize("code", ["a3-two-layer-4qam", "a2-two-layer-16qam"])
    def test_totals_and_decisions_do_not_depend_on_the_tile(self, code):
        # the narrowest tiles (64 columns), the default ones and one product
        # per trial's run of leaves give the seeds and the survivors
        # bit-identical totals, hence the same radii, survivors, decisions
        # and counters, on a drawn, a zero and a one-entry channel and a
        # zero received matrix (~60,000 survivors, whose run starts mid-tile
        # in the stack), alone and stacked
        from stbc import decoder

        design, cons = {"a3-two-layer-4qam": (self.A3, CONS),
                        "a2-two-layer-16qam": (self.A2, constellation("16qam"))}[code]
        enc, kinds = self._kinds(design, cons, 2, 10.0, seed=71)
        y, h = kinds["drawn"]
        one = np.zeros_like(h)
        one[0, 0] = h[0, 0]
        trials = [(y, h), (y, np.zeros_like(h)), (y, one), kinds["zero received"]]
        stacks = [[t] for t in trials] + [trials]
        real = decoder._qr_form

        def decode(stack):
            scores, widths = [], []

            def qr_form(*args):
                *head, score, width = real(*args)
                widths.append(width)

                def recorded(*a, **kw):
                    out = score(*a, **kw)
                    if not kw:  # the seeds' and the survivors' totals
                        scores.append(out.tobytes())
                    return out
                return (*head, recorded, width)

            with patch.object(decoder, "_qr_form", qr_form):
                levels, evaluations, _ = decoder._decode_stack(
                    *map(np.array, zip(*stack)), design, cons, np.full(len(stack), 10.0), enc)
            return levels.tolist(), evaluations.tolist(), scores, widths[0]

        for stack in stacks:
            got = []
            for cap in (1, decoder._TILE_MACS, 1 << 27):
                with patch.object(decoder, "_TILE_MACS", cap):
                    got.append(decode(stack))
            # the large cap scores each trial's leaves, 65,536 at most, at once
            assert got[0][3] == 64 and got[2][3] >= 65536
            assert got[0][:3] == got[1][:3] == got[2][:3]

    @pytest.mark.parametrize("code", ["a3-two-layer-4qam", "a2-two-layer-16qam"])
    def test_channel_with_one_entry(self, code):
        # phi then has rank 8: the first group's columns are dependent, so
        # the QR's inner block is not block diagonal across groups (its
        # cross-group entries reach the size of R's largest); the leaf
        # scores must not assume that it is
        from stbc import decoder

        design, cons = {"a3-two-layer-4qam": (self.A3, CONS),
                        "a2-two-layer-16qam": (self.A2, constellation("16qam"))}[code]
        groups, outer = design.structure
        enc, kinds = self._kinds(design, cons, 2, 10.0, seed=64)
        y, h = kinds["drawn"]
        one = np.zeros_like(h)
        one[0, 0] = h[0, 0]
        levels, evaluations, _ = decoder._decode_stack(
            np.array([y, y]), np.array([one, h]), design, cons, np.array([10.0, 10.0]), enc)
        for i, channel in enumerate((one, h)):
            alone = decode_auto(y, channel, design, cons, 10.0, enc)
            y_real, phi, _ = decoder._effective_operator(y, channel, design, cons, 10.0, enc)
            assert tuple(levels[i].tolist()) == alone.level_indices == structured_reference(
                y_real, phi, cons.pam, outer, groups)
            assert evaluations[i] == alone.metric_evaluations

    def test_refusals_unchanged(self):
        y, h = np.zeros((2, 8), dtype=complex), np.zeros((2, 8), dtype=complex)
        with pytest.raises(BudgetExceededError) as err:
            decode_auto(y, h, self.A3, constellation("16qam"), 1.0)
        assert str(err.value) == "4398046511104 hypotheses exceed the budget of 67108864"
        d = build_rate1_4group(4)
        y, h = np.zeros((1, d.T), dtype=complex), np.zeros((1, d.n_t), dtype=complex)
        with pytest.raises(BudgetExceededError) as err:
            decode_auto(y, h, d, constellation("64qam"), 1.0)
        # the single-chunk charge of _sizes_at: four groups of 2^24
        # candidates, each with its images, forms and product rows
        assert str(err.value) == (
            "search tables of 23689464360 bytes exceed the limit of 1073741824"
        )


#: (a, layers, n_r) of the sweep-overhead benchmark's codes: every outer
#: hypothesis fits in one chunk, so a block of trials is one stacked scan
SMALL_CODES = [
    pytest.param(1, 2, 2, id="silver"),
    pytest.param(2, 1, 1, id="a2-rate1"),
    pytest.param(3, 1, 2, id="a3-rate1"),
    pytest.param(2, 2, 2, id="a2-two-layer"),
]


class TestStackedScan:
    @pytest.mark.parametrize("a, layers, n_r", SMALL_CODES)
    def test_block_state_within_its_charge(self, a, layers, n_r):
        # a zero channel ties every hypothesis, the worst case of a block's
        # state: a full block's traced peak stays within the trials' and
        # the shared bytes of _sizes_at, and that charge within the cap
        import tracemalloc

        from stbc import decoder

        design = extend_full_rate(build_rate1_4group(a), layers)
        groups, outer = design.structure
        assert 2 ** len(outer) <= decoder._CHUNK
        trial, shared = decoder._sizes_at(2, groups, len(outer), 2 * n_r * design.T,
                                          decoder._CHUNK, decoder._TILE_MACS)
        _, block = decoder._admit_search(design, CONS, n_r)
        assert block > 1 and block * trial + shared <= decoder._BLOCK_BYTES
        enc = default_encoder(design, CONS.pam)
        y = np.zeros((block, n_r, design.T), dtype=complex)
        h = np.zeros((block, n_r, design.n_t), dtype=complex)
        tracemalloc.start()
        try:
            levels, _, _ = decoder._decode_stack(y, h, design, CONS, np.ones(block), enc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert levels.tolist() == [[0] * design.n_real_symbols] * block
        assert peak <= block * trial + shared

    @pytest.mark.parametrize("a, layers, n_r", SMALL_CODES)
    def test_tied_scans_equal_oracle_and_alone(self, a, layers, n_r):
        # noiseless trials through a drawn channel, through a channel of
        # one entry (many hypotheses give the same received matrix) and
        # through a zero channel (all of them do), and a zero received
        # matrix (x and -x tie), in one stack: each decision equals the
        # oracle's and the trial's own stack of one
        from stbc import decoder

        design = extend_full_rate(build_rate1_4group(a), layers)
        enc = default_encoder(design, CONS.pam)
        b = full_symbol_matrix(design, enc)
        snr = 10.0
        ys, hs = [], []
        for t in range(2):
            _, h, levels = random_trial(design, enc, n_r, snr, seed=71, trial=t)
            one = np.zeros_like(h)
            one[0, -1] = h[0, -1]
            s = design.energy_scale * codeword(design, b @ CONS.pam[levels])
            for channel in (h, one, np.zeros_like(h)):
                ys.append(np.sqrt(snr / design.n_t) * channel @ s)
                hs.append(channel)
            ys.append(np.zeros_like(ys[-1]))
            hs.append(h)
        levels, evaluations, _ = decoder._decode_stack(
            np.array(ys), np.array(hs), design, CONS, np.full(len(ys), snr), enc)
        for i, (y, h) in enumerate(zip(ys, hs)):
            alone = decode_auto(y, h, design, CONS, snr, enc)
            oracle = ml_oracle(y, h, design, CONS, snr, enc)
            assert tuple(levels[i].tolist()) == alone.level_indices == oracle.level_indices, i
            assert evaluations[i] == alone.metric_evaluations


    def test_unequal_groups_refused_before_any_table(self):
        # the scan puts the first layer's four groups on one axis, so it
        # relies on their equal size: the 4 x 4 rate-3/4 orthogonal
        # design's six real weights grouped 1, 1, 2, 2 pass the
        # cross-group condition (any partition of an orthogonal design
        # does), and every entry point refuses them before a search
        from stbc import decoder
        from stbc.coding_gain import Encoder
        from stbc.sim import SimConfig, run_error_sweep

        def ostbc(x1, x2, x3):
            c = np.conj
            return np.array([[x1, 0, x2, -x3], [0, x1, c(x3), c(x2)],
                             [-c(x2), -x3, c(x1), 0], [c(x3), -x2, 0, c(x1)]])

        weights = tuple(ostbc(*unit * np.eye(3)[i]) for i in range(3) for unit in (1, 1j))
        design = STBCDesign(n_t=4, T=4, weights=weights, groups=((0,), (1,), (2, 3), (4, 5)))
        assert design.structure[0] == design.groups
        y, h = np.zeros((1, 4), dtype=complex), np.ones((1, 4), dtype=complex)
        refusals = [
            (lambda: decode_auto(y, h, design, CONS, 1.0),
             "first group holds 1 weights, the sign basis needs 2"),
            (lambda: decode_auto(y, h, design, CONS, 1.0, identity_encoder(design, CONS.pam)),
             "a 1-symbol rotation cannot encode the group (3, 4)"),
            (lambda: decode_auto(y, h, design, CONS, 1.0, Encoder(design, np.eye(2), CONS.pam)),
             "a 2-symbol rotation cannot encode the group (1,)"),
            (lambda: run_error_sweep(SimConfig(design=design, n_r=1, trials=2)),
             "first group holds 1 weights, the sign basis needs 2"),
        ]

        def search(*args):
            raise AssertionError("a search was started")

        with patch.object(decoder, "_partitioned_search", search):
            for call, message in refusals:
                with pytest.raises(StructureError) as err:
                    call()
                assert str(err.value) == message


class TestDefaultEncoder:
    def test_calls_without_an_encoder_share_one_symbol_matrix(self):
        d = build_rate1_4group(2)
        y, h = np.ones((1, 4), dtype=complex), np.ones((1, 4), dtype=complex)
        first = _effective_operator(y, h, d, CONS, 10.0, None)[2]
        assert _effective_operator(y, h, d, CONS, 10.0, None)[2] is first
        assert default_encoder(d, CONS.pam) is default_encoder(d, CONS.pam.copy())
        assert default_encoder(d, constellation("16qam").pam) is not default_encoder(d, CONS.pam)

    def test_a_dropped_design_is_collected(self):
        d = build_rate1_4group(2)
        y, h = np.ones((1, 4), dtype=complex), np.ones((1, 4), dtype=complex)
        decode_auto(y, h, d, CONS, 10.0)
        ml_oracle(y, h, d, CONS, 10.0)
        design, encoder = weakref.ref(d), weakref.ref(default_encoder(d, CONS.pam))
        del d
        gc.collect()
        assert design() is None and encoder() is None

    @pytest.mark.parametrize("a, layers, n_r", SMALL_CODES)
    def test_decisions_unchanged(self, a, layers, n_r):
        # the kept default decides as a freshly built encoder does
        from stbc.coding_gain import builtin_rotation, extract_W

        design = extend_full_rate(build_rate1_4group(a), layers)
        fresh = default_encoder(design, CONS.pam, builtin_rotation(extract_W(design).shape[0]))
        assert fresh is not default_encoder(design, CONS.pam)
        for t in range(3):
            y, h, _ = random_trial(design, fresh, n_r, 3.0, seed=72, trial=t)
            for decode in (decode_auto, ml_oracle):
                kept, built = decode(y, h, design, CONS, 3.0), decode(y, h, design, CONS, 3.0, fresh)
                assert (kept.level_indices, kept.metric) == (built.level_indices, built.metric)
