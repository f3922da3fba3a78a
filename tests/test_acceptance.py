"""End-to-end acceptance suite.

One test per acceptance criterion, each enforcing its stated tolerance
and printing a single summary line (run with ``pytest -s`` to see them
inline).
"""

from itertools import combinations

import numpy as np

from helpers import expected_table_n8, random_trial
from stbc.capacity import (
    channel_capacity,
    code_capacity,
    random_rotation_baseline,
)
from stbc.channel import equivalent_channel, mandated_zero_mask, r_profile, sample_channel
from stbc.cli import main as cli_main
from stbc.clifford import (
    all_lambda_products,
    build_generators,
    products_commute,
    subset_square_sign,
)
from stbc.coding_gain import default_encoder, extract_W
from stbc.decoder import (
    complexity_account,
    constellation,
    decode_auto,
    full_symbol_matrix,
    ml_oracle,
)
from stbc.designs import (
    build_rate1_4group,
    codeword,
    extend_full_rate,
    verify_theorem1,
)
from stbc.rng import substream
from stbc.sim import SimConfig, run_error_sweep, uncoded_siso_sweep

CONS = constellation("4qam")


def _report(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


def test_acceptance_1_algebra_certification():
    """Generator algebra exact at a in {1,2,3}; sign/commutation rules
    match literal matrix computation exhaustively at a = 2; every
    non-identity product traceless at a <= 3."""
    for a in (1, 2, 3):
        cliff = build_generators(a)
        gens = cliff.generators
        eye = np.eye(cliff.n)
        resid = 0.0
        for g in gens:
            resid = max(resid, np.abs(g.conj().T + g).max())
            resid = max(resid, np.abs(g.conj().T @ g - eye).max())
        for g1, g2 in combinations(gens, 2):
            resid = max(resid, np.abs(g1 @ g2 + g2 @ g1).max())
        assert resid < 1e-12, f"a={a}: residual {resid}"

    cliff2 = build_generators(2)
    products = [p for p in all_lambda_products(cliff2) if p.indices]
    eye4 = np.eye(4)
    for p in products:
        base = p.matrix / p.scalar
        want = subset_square_sign(len(p.indices))
        assert np.abs(base @ base - want * eye4).max() < 1e-12
    for p1 in products:
        for p2 in products:
            overlap = len(set(p1.indices) & set(p2.indices))
            predicted = products_commute(len(p1.indices), len(p2.indices), overlap)
            literal = np.abs(p1.matrix @ p2.matrix - p2.matrix @ p1.matrix).max() < 1e-12
            assert literal == predicted

    for a in (1, 2, 3):
        cliff = build_generators(a)
        for p in all_lambda_products(cliff):
            if p.indices:
                assert abs(np.trace(p.matrix)) < 1e-12
    _report(1, "algebra certification")


def test_acceptance_2_theorem1_construction():
    """The eight-antenna design reproduces the published 16-matrix table
    entrywise (default sign convention); all normal-form and cross-group
    conditions pass at a in {1,2,3}."""
    cliff = build_generators(3)
    design = build_rate1_4group(3)
    for got, want in zip(design.weights, expected_table_n8(cliff)):
        assert np.abs(got - want).max() == 0.0
    for a in (1, 2, 3):
        report = verify_theorem1(build_rate1_4group(a))
        assert report.passed, report.summary()
    _report(2, "rate-1 4-group construction")


def test_acceptance_3_w_unitarity_and_closed_form():
    """W orthogonal to 1e-12 for a <= 4; closed-form determinant equals
    the literal determinant to 1e-9 relative over 1000 random
    single-group differences at a <= 3."""
    for a in (1, 2, 3, 4):
        w = extract_W(build_rate1_4group(a))
        assert np.abs(w.T @ w - np.eye(w.shape[0])).max() < 1e-12

    rng = np.random.default_rng(2024)
    for a in (1, 2, 3):
        design = build_rate1_4group(a)
        gs = design.group_size
        g1 = [design.weights[i] for i in design.groups[0]]
        signs = np.array([np.diag(w).real[0::2] for w in g1])
        for _ in range(1000):
            ds = rng.standard_normal(gs)
            d_mat = sum(ds[i] * g1[i] for i in range(gs))
            lit = float(np.linalg.det(d_mat @ d_mat.conj().T).real)
            closed = float(np.prod((ds @ signs) ** 4))
            assert abs(lit - closed) <= 1e-9 * max(1.0, abs(lit), abs(closed))
    _report(3, "W unitarity and closed-form determinant")


def test_acceptance_4_r_matrix_structure():
    """Rate-2 eight-antenna design: every block-pattern zero of R stays
    below 1e-9 (unit-norm columns) for 100 random channels, and each
    diagonal block factors as I_4 x V with V upper triangular."""
    design = extend_full_rate(build_rate1_4group(3), 2)
    mask = mandated_zero_mask(design)
    for s in range(100):
        h = sample_channel(8, 2, substream(1001, trial=s)).H
        prof = r_profile(equivalent_channel(h, design), tol=1e-9, design=design)
        assert np.abs(prof.R[mask]).max() < 1e-9
        assert len(prof.layer_blocks) == 2
        for blk in prof.layer_blocks:
            assert blk.kron_identity
            assert np.abs(np.tril(blk.V, k=-1)).max() < 1e-9
    _report(4, "R-matrix block structure")


def test_acceptance_5_decoder_exactness():
    """decode_auto == oracle on 1000 trials (two antennas, two layers)
    and on 500 trials (rate-1, four antennas); measured
    hypothesis counters equal the complexity account exactly, including
    the order-M^10 count for the eight-antenna two-layer code."""
    silver = extend_full_rate(build_rate1_4group(1), 2)
    enc_s = default_encoder(silver, CONS.pam)
    acc_s = complexity_account(silver, CONS)
    for t in range(1000):
        y, h, _ = random_trial(silver, enc_s, 2, 6.31, seed=501, trial=t)
        r_c = decode_auto(y, h, silver, CONS, 6.31, enc_s)
        r_o = ml_oracle(y, h, silver, CONS, 6.31, enc_s)
        assert r_c.level_indices == r_o.level_indices
        assert abs(r_c.metric - r_o.metric) <= 1e-9
        assert r_c.metric_evaluations == acc_s.conditional_evaluations

    d4 = build_rate1_4group(2)
    enc_4 = default_encoder(d4, CONS.pam)
    acc_4 = complexity_account(d4, CONS)
    for t in range(500):
        y, h, _ = random_trial(d4, enc_4, 1, 7.94, seed=502, trial=t)
        r_g = decode_auto(y, h, d4, CONS, 7.94, enc_4)
        r_o = ml_oracle(y, h, d4, CONS, 7.94, enc_4)
        assert r_g.level_indices == r_o.level_indices
        assert abs(r_g.metric - r_o.metric) <= 1e-9
        assert r_g.metric_evaluations == acc_4.group_evaluations

    big = extend_full_rate(build_rate1_4group(3), 2)
    acc_big = complexity_account(big, CONS)
    assert acc_big.order_exponent == 10.0
    assert acc_big.conditional_evaluations == 4 * 4**10
    enc_b = default_encoder(big, CONS.pam)
    y, h, levels = random_trial(big, enc_b, 2, 25.0, seed=503, trial=0)
    res = decode_auto(y, h, big, CONS, 25.0, enc_b)
    assert res.metric_evaluations == acc_big.conditional_evaluations
    assert res.level_indices == tuple(levels)
    _report(5, "decoder exactness and complexity counters")


def test_acceptance_6_capacity_properties():
    """(i) Alamouti 2x1 capacity equals channel capacity within 3 MC
    standard errors at 0/10/20 dB (10^4 trials); (ii) so does the
    unitary-square-generator case; (iii) at 30 dB the 8x2 rate-2 design
    is not below the fixed-seed random-rotation baseline (10^3 trials)."""
    alam = build_rate1_4group(1)
    for point, snr_db in enumerate((0.0, 10.0, 20.0)):
        snr = 10.0 ** (snr_db / 10.0)
        code = code_capacity(alam, 1, snr, 10_000, rng=substream(601, 2, point, 0))
        chan = channel_capacity(2, 1, snr, 10_000, rng=substream(601, 2, point, 1))
        assert code.agrees_with(chan, 3.0), (snr_db, code, chan)

    silver = extend_full_rate(build_rate1_4group(1), 2)
    code = code_capacity(silver, 2, 10.0, 10_000, rng=substream(602, 2, 0, 0))
    chan = channel_capacity(2, 2, 10.0, 10_000, rng=substream(602, 2, 0, 1))
    assert code.agrees_with(chan, 3.0)

    proposed = extend_full_rate(build_rate1_4group(3), 2)
    baseline = random_rotation_baseline(proposed)
    snr = 10.0**3
    p = code_capacity(proposed, 2, snr, 1000, rng=substream(603, 2, 0, 0))
    b = code_capacity(baseline, 2, snr, 1000, rng=substream(603, 2, 0, 1))
    margin = p.mean - b.mean
    assert margin >= -3.0 * float(np.hypot(p.std_error, b.std_error)), margin
    _report(6, "ergodic capacity properties")


def test_acceptance_7_error_rate_sanity():
    """SER non-increasing over a 0-20 dB sweep (2 standard-error slack,
    10^4 trials/point, two-antenna two-layer code); noiseless trials give
    CER = 0; the rotated rate-1 four-antenna code has a steeper
    high-SNR log-SER slope than uncoded single-antenna transmission."""
    silver = extend_full_rate(build_rate1_4group(1), 2)
    cfg = SimConfig(
        design=silver, n_r=2, snr_db=(0.0, 4.0, 8.0, 12.0, 16.0, 20.0),
        trials=10_000, seed=701,
    )
    records = run_error_sweep(cfg)
    k = silver.k
    for lo, hi in zip(records, records[1:]):
        n_sym = lo.trials * k
        se = np.hypot(
            np.sqrt(max(lo.ser * (1 - lo.ser), 1e-12) / n_sym),
            np.sqrt(max(hi.ser * (1 - hi.ser), 1e-12) / n_sym),
        )
        assert hi.ser <= lo.ser + 2 * se, (lo, hi)

    noiseless = run_error_sweep(
        SimConfig(design=silver, n_r=2, snr_db=(10.0,), trials=500,
                  seed=702, noise_scale=0.0)
    )[0]
    assert noiseless.cer == 0.0

    d4 = build_rate1_4group(2)
    low = run_error_sweep(
        SimConfig(design=d4, n_r=1, snr_db=(15.0,), trials=10_000, seed=703)
    )[0]
    high = run_error_sweep(
        SimConfig(design=d4, n_r=1, snr_db=(25.0,), trials=100_000, seed=703)
    )[0]
    siso = uncoded_siso_sweep("4qam", (15.0, 25.0), 10_000, seed=704)

    def log_slope(ser_lo, ser_hi, floor):
        return (np.log10(ser_lo) - np.log10(max(ser_hi, floor))) / 10.0

    code_slope = log_slope(low.ser, high.ser, 1.0 / (high.trials * d4.k))
    siso_slope = log_slope(siso[0].ser, siso[1].ser, 1.0 / siso[1].trials)
    assert code_slope > siso_slope, (code_slope, siso_slope)
    _report(7, "error-rate sanity and diversity trend")


def test_acceptance_8_determinism(tmp_path):
    """Re-running any CSV-producing command with the same seed yields a
    byte-identical file."""
    sim_outs = []
    for name in ("sim1.csv", "sim2.csv"):
        out = tmp_path / name
        assert cli_main([
            "sim", "sweep", "--a", "1", "--layers", "2", "--nr", "2",
            "--snr-db", "0:8:4", "--trials", "300", "--seed", "88",
            "--out", str(out),
        ]) == 0
        sim_outs.append(out.read_bytes())
    assert sim_outs[0] == sim_outs[1]

    cap_outs = []
    for name in ("cap1.csv", "cap2.csv"):
        out = tmp_path / name
        assert cli_main([
            "capacity", "sweep", "--a", "2", "--nr", "1",
            "--snr-db", "0,10", "--trials", "200", "--seed", "88",
            "--out", str(out),
        ]) == 0
        cap_outs.append(out.read_bytes())
    assert cap_outs[0] == cap_outs[1]

    dec_outs = []
    for name in ("dec1.csv", "dec2.csv"):
        out = tmp_path / name
        assert cli_main([
            "decode", "--a", "1", "--layers", "2", "--snr-db", "6",
            "--trials", "50", "--seed", "88", "--out", str(out),
        ]) == 0
        dec_outs.append(out.read_bytes())
    assert dec_outs[0] == dec_outs[1]
    _report(8, "byte-identical reruns")
