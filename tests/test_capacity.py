import numpy as np
import pytest

from helpers import digest
from stbc import capacity
from stbc.capacity import (
    channel_capacity,
    code_capacity,
    high_snr_decomposition,
    logdet_gram_lu,
    logdet_gram_qr,
    low_snr_condition,
    random_rotation_baseline,
)
from stbc.channel import (
    column_orthogonality_pairs,
    equivalent_channel,
    profile_over_channels,
    sample_channel,
    sample_channels,
)
from stbc.designs import STBCDesign, build_rate1_4group, extend_full_rate
from stbc.errors import RankDeficientError
from stbc.linalg import gram_schmidt_qr, realify
from stbc.rng import substream

rng = np.random.default_rng(606)


class TestLogDetRoutes:
    def test_qr_equals_lu(self):
        for _ in range(20):
            a = rng.standard_normal((12, 8))
            rho = float(rng.uniform(0.01, 100.0))
            assert abs(logdet_gram_qr(a, rho) - logdet_gram_lu(a, rho)) < 1e-8

    def test_diagonal_case_closed_form(self):
        diag = np.array([2.0, 0.5, 1.5])
        a = np.diag(diag)
        rho = 7.0
        expected = float(np.sum(np.log2(1.0 + rho * diag**2)))
        assert abs(logdet_gram_qr(a, rho) - expected) < 1e-12


class TestRDiagonalIdentity:
    def test_projection_identity_per_trial(self):
        # R(i,i)^2 = ||h_i||^2 - sum_{j<i} <q_j, h_i>^2
        d = extend_full_rate(build_rate1_4group(2), 2)
        for t in range(10):
            h = sample_channel(4, 2, substream(31, trial=t)).H
            heq = d.energy_scale * equivalent_channel(h, d)
            q, r = gram_schmidt_qr(heq)
            for i in range(heq.shape[1]):
                proj = sum(
                    float(q[:, j] @ heq[:, i]) ** 2 for j in range(i)
                )
                rhs = float(np.linalg.norm(heq[:, i]) ** 2) - proj
                assert abs(r[i, i] ** 2 - rhs) < 1e-9


def mean_and_error(vals):
    vals = np.asarray(vals)
    return vals.mean(), vals.std(ddof=1) / np.sqrt(vals.size)


def close(got, want):
    return abs(got - want) <= 1e-12 * abs(want)


REF_TRIALS = capacity.MIN_TRIALS + 3
assert REF_TRIALS % capacity._BLOCK, "the last block must be a partial one"
REF_CODES = {
    "silver": (extend_full_rate(build_rate1_4group(1), 2), 2),
    "a2-two-layer": (extend_full_rate(build_rate1_4group(2), 2), 2),
    "a3-rate1": (build_rate1_4group(3), 2),
}


class TestBatchedMatchesPerTrialLoop:
    """The stacked estimators against one-draw-at-a-time reference loops
    on the same stream: Gram-Schmidt log-det and R diagonal."""

    @pytest.mark.parametrize("name", sorted(REF_CODES))
    def test_code_capacity(self, name):
        d, n_r = REF_CODES[name]
        snr = 10.0
        rng_ref = substream(44)
        vals = []
        for _ in range(REF_TRIALS):
            heq = d.energy_scale * equivalent_channel(
                sample_channel(d.n_t, n_r, rng_ref).H, d
            )
            vals.append(logdet_gram_qr(heq, snr / d.n_t) / (2.0 * d.T))
        mean, err = mean_and_error(vals)
        est = code_capacity(d, n_r, snr, REF_TRIALS, rng=substream(44))
        assert est.trials == REF_TRIALS
        assert close(est.mean, mean) and close(est.std_error, err)

    @pytest.mark.parametrize("n_t, n_r", [(2, 2), (4, 1), (8, 2)])
    def test_channel_capacity(self, n_t, n_r):
        # det(realify(X)) = |det X|^2 gives an independent real route
        snr = 10.0
        rng_ref = substream(45)
        vals = [
            0.5 * logdet_gram_qr(realify(sample_channel(n_t, n_r, rng_ref).H).T, snr / n_t)
            for _ in range(REF_TRIALS)
        ]
        mean, err = mean_and_error(vals)
        est = channel_capacity(n_t, n_r, snr, REF_TRIALS, rng=substream(45))
        assert close(est.mean, mean) and close(est.std_error, err)

    @pytest.mark.parametrize("name", sorted(REF_CODES))
    def test_high_snr_via_r_matches_gram_schmidt_diagonal(self, name):
        d, n_r = REF_CODES[name]
        snr = 1000.0
        rho = snr / d.n_t
        rng_ref = substream(46)
        via_r, exact = [], []
        for _ in range(REF_TRIALS):
            heq = d.energy_scale * equivalent_channel(
                sample_channel(d.n_t, n_r, rng_ref).H, d
            )
            _, r = gram_schmidt_qr(heq)
            via_r.append(n_r * np.log2(rho) + np.sum(np.log2(np.diag(r) ** 2)) / (2.0 * d.T))
            exact.append(logdet_gram_qr(heq, rho) / (2.0 * d.T))
        cmp = high_snr_decomposition(d, n_r, snr, REF_TRIALS, rng=substream(46))
        assert cmp.resampled == 0
        for est, vals in ((cmp.via_r, via_r), (cmp.via_exact, exact)):
            mean, err = mean_and_error(vals)
            assert close(est.mean, mean) and close(est.std_error, err)


class TestHighSnrResampling:
    def test_rejected_draws_are_replaced_in_stream_order(self, monkeypatch):
        # zero every third channel draw: its H_eq is rank deficient, so the
        # estimate must equal a per-draw loop that skips exactly those draws
        d, n_r = REF_CODES["silver"]
        snr = 1000.0
        rho = snr / d.n_t
        drawn = 0

        def zeroing(n_t, n_r, count, rng):
            nonlocal drawn
            h = sample_channels(n_t, n_r, count, rng)
            h[(drawn + np.arange(count)) % 3 == 2] = 0.0
            drawn += count
            return h

        monkeypatch.setattr(capacity, "sample_channels", zeroing)
        cmp = high_snr_decomposition(d, n_r, snr, REF_TRIALS, rng=substream(47))
        rng_ref = substream(47)
        via_r = []
        skipped = 0
        while len(via_r) < REF_TRIALS:
            h = sample_channel(d.n_t, n_r, rng_ref).H
            if (len(via_r) + skipped) % 3 == 2:
                skipped += 1
                continue
            _, r = gram_schmidt_qr(d.energy_scale * equivalent_channel(h, d))
            via_r.append(n_r * np.log2(rho) + np.sum(np.log2(np.diag(r) ** 2)) / (2.0 * d.T))
        assert cmp.resampled == skipped
        mean, err = mean_and_error(via_r)
        assert close(cmp.via_r.mean, mean) and close(cmp.via_r.std_error, err)

    def test_always_rank_deficient_raises_after_bounded_draws(self, monkeypatch):
        # two-antenna two-layer code with one receive antenna: H_eq is 4 x 8
        d = extend_full_rate(build_rate1_4group(1), 2)
        trials = 100
        drawn = 0

        def counting(n_t, n_r, count, rng):
            nonlocal drawn
            drawn += count
            return sample_channels(n_t, n_r, count, rng)

        monkeypatch.setattr(capacity, "sample_channels", counting)
        with pytest.raises(RankDeficientError):
            high_snr_decomposition(d, 1, 1000.0, trials, rng=substream(48))
        assert 101 + trials <= drawn < 101 + trials + capacity._BLOCK


class TestCapacityEstimates:
    def test_vanishes_at_zero_snr(self):
        d = build_rate1_4group(1)
        est = code_capacity(d, 1, 1e-6, 200, rng=substream(1))
        assert est.mean < 1e-4

    def test_alamouti_matches_channel_capacity(self):
        d = build_rate1_4group(1)
        for snr_db in (0.0, 10.0):
            snr = 10 ** (snr_db / 10)
            code = code_capacity(d, 1, snr, 2000, rng=substream(2))
            chan = channel_capacity(2, 1, snr, 2000, rng=substream(2))
            assert code.agrees_with(chan)

    def test_unitary_square_generator_matches_channel_capacity(self):
        silver = extend_full_rate(build_rate1_4group(1), 2)
        code = code_capacity(silver, 2, 10.0, 2000, rng=substream(3))
        chan = channel_capacity(2, 2, 10.0, 2000, rng=substream(3))
        assert code.agrees_with(chan)

    def test_monotone_in_snr(self):
        d = build_rate1_4group(2)
        means = []
        for snr_db in (0.0, 5.0, 10.0, 15.0):
            est = code_capacity(d, 1, 10 ** (snr_db / 10), 500, rng=substream(4))
            means.append((est.mean, est.std_error))
        for (m1, s1), (m2, s2) in zip(means, means[1:]):
            assert m2 >= m1 - 2 * np.hypot(s1, s2)

    def test_seed_determinism(self):
        d = build_rate1_4group(1)
        e1 = code_capacity(d, 1, 10.0, 300, rng=substream(9))
        e2 = code_capacity(d, 1, 10.0, 300, rng=substream(9))
        assert e1.mean == e2.mean and e1.std_error == e2.std_error

    def test_siso_high_snr_slope(self):
        # one bit per 3.01 dB: regression over a 20-30 dB sweep
        dbs = np.arange(20.0, 31.0, 2.0)
        means = [
            channel_capacity(1, 1, 10 ** (db / 10), 4000, rng=substream(10)).mean
            for db in dbs
        ]
        slope = np.polyfit(dbs, means, 1)[0]
        assert abs(slope - 1.0 / (10.0 * np.log10(2.0))) < 0.02

    def test_low_snr_linearization(self):
        # C ~ (snr/n_t) E||H||^2 log2(e) for vanishing snr
        n_t, n_r, snr = 2, 2, 1e-3
        est = channel_capacity(n_t, n_r, snr, 4000, rng=substream(11))
        linear = (snr / n_t) * (n_t * n_r) * np.log2(np.e)
        assert abs(est.mean / linear - 1.0) < 0.1

    def test_minimum_trials_enforced(self):
        with pytest.raises(ValueError):
            channel_capacity(2, 1, 1.0, 50, rng=substream(0))


class TestLowSnrCondition:
    def test_rate1_design_conforms_for_single_antenna(self):
        report = low_snr_condition(build_rate1_4group(1), 1, trials=500)
        assert report.passed, report.summary()

    def test_silver_conforms_for_two_antennas(self):
        silver = extend_full_rate(build_rate1_4group(1), 2)
        report = low_snr_condition(silver, 2, trials=500)
        assert report.passed, report.summary()

    def test_wrong_receive_count_fails_constant_check(self):
        report = low_snr_condition(build_rate1_4group(1), 2, trials=500)
        failed = [c for c in report.checks if not c.passed]
        assert failed and "1/n_r" in failed[0].name

    def test_non_unitary_weight_reported_with_witness(self):
        bad = STBCDesign(
            n_t=2,
            T=2,
            weights=(
                np.diag([2.0, 0.0]).astype(complex),
                np.eye(2, dtype=complex),
            ),
            groups=((0,), (1,)),
        )
        report = low_snr_condition(bad, 1, trials=500)
        first = report.checks[0]
        assert not first.passed
        assert first.witnesses
        assert digest(report.summary()) == (
            "8a69bc0206ef6d249266e3c427a4cb8d5009ce0a3b7904f71544ab58f293d163")


class TestHighSnr:
    def test_full_rate_n2_estimates_agree_at_30db(self):
        silver = extend_full_rate(build_rate1_4group(1), 2)
        cmp = high_snr_decomposition(silver, 2, 1000.0, 400, rng=substream(5))
        assert cmp.resampled == 0
        assert abs(cmp.via_r.mean - cmp.via_exact.mean) < 0.1

    def test_rate1_single_antenna(self):
        d = build_rate1_4group(2)
        cmp = high_snr_decomposition(d, 1, 1000.0, 400, rng=substream(6))
        assert abs(cmp.via_r.mean - cmp.via_exact.mean) < 0.1


class TestRotationBaseline:
    def test_baseline_keeps_capacity_but_loses_zeros(self):
        d = extend_full_rate(build_rate1_4group(3), 2)
        base = random_rotation_baseline(d)
        # same column space => same exact capacity; estimates must agree
        c1 = code_capacity(d, 2, 1000.0, 300, rng=substream(7))
        c2 = code_capacity(base, 2, 1000.0, 300, rng=substream(7))
        assert abs(c1.mean - c2.mean) < 1e-9  # paired draws, identical Gram
        # but the structural zeros are gone
        _, _, zeros_d, _ = profile_over_channels(d, 2, 5, seed=8)
        _, _, zeros_b, _ = profile_over_channels(base, 2, 5, seed=8)
        upper_d = np.triu(zeros_d, k=1).sum()
        upper_b = np.triu(zeros_b, k=1).sum()
        assert upper_d > upper_b
        assert len(column_orthogonality_pairs(base)) < len(
            column_orthogonality_pairs(d)
        )

    def test_baseline_deterministic(self):
        d = build_rate1_4group(2)
        b1 = random_rotation_baseline(d, seed=5)
        b2 = random_rotation_baseline(d, seed=5)
        for w1, w2 in zip(b1.weights, b2.weights):
            assert np.array_equal(w1, w2)
