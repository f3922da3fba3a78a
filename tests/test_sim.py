import hashlib

import numpy as np
import pytest

from helpers import digest
from stbc.cli import main
from stbc.decoder import (
    _block_trials,
    complexity_account,
    constellation,
    decode_auto,
    full_symbol_matrix,
)
from stbc.coding_gain import default_encoder
from stbc.designs import build_rate1_4group, codeword, extend_full_rate
from stbc.errors import IntractableError
from stbc.rng import CTX_ERROR_SWEEP, substream
from stbc.sim import (
    SimConfig,
    SimRecord,
    draw_trial,
    emit_csv,
    parse_config_file,
    parse_layer_scalar,
    parse_records_csv,
    parse_snr_spec,
    run_decode_trials,
    run_error_sweep,
    uncoded_siso_sweep,
    verify_all,
)


def silver_cfg(**overrides):
    base = dict(
        design=extend_full_rate(build_rate1_4group(1), 2),
        n_r=2,
        constellation="4qam",
        snr_db=(8.0,),
        trials=200,
        seed=77,
        decoder="auto",
    )
    base.update(overrides)
    return SimConfig(**base)


class TestErrorSweep:
    def test_deterministic_records(self):
        r1 = run_error_sweep(silver_cfg())
        r2 = run_error_sweep(silver_cfg())
        assert [(a.cer, a.ser, a.codeword_errors) for a in r1] == [
            (b.cer, b.ser, b.codeword_errors) for b in r2
        ]

    def test_error_rates_in_open_interval_at_moderate_snr(self):
        rec = run_error_sweep(silver_cfg(snr_db=(6.0,), trials=400))[0]
        assert 0.0 < rec.ser < 1.0
        assert 0.0 < rec.cer < 1.0

    def test_noiseless_gives_zero_cer(self):
        rec = run_error_sweep(silver_cfg(noise_scale=0.0, trials=100))[0]
        assert rec.cer == 0.0 and rec.ser == 0.0

    def test_counter_matches_account(self):
        cfg = silver_cfg(trials=50)
        rec = run_error_sweep(cfg)[0]
        acc = complexity_account(cfg.design, constellation("4qam"))
        assert rec.mean_evals == acc.conditional_evaluations

    def test_symbol_errors_bounded_by_codeword_errors(self):
        cfg = silver_cfg(snr_db=(0.0,), trials=300)
        rec = run_error_sweep(cfg)[0]
        k = cfg.design.k
        assert rec.codeword_errors <= rec.symbol_errors <= k * rec.codeword_errors
        assert rec.ser <= rec.cer <= 1.0

    def test_intractable_guard(self):
        d = extend_full_rate(build_rate1_4group(3), 2)
        cfg = SimConfig(design=d, n_r=2, snr_db=(10.0,), trials=10**6)
        with pytest.raises(IntractableError):
            run_error_sweep(cfg)

    @pytest.mark.parametrize("name", ["group", "conditional", "sphere"])
    def test_unknown_decoder_rejected(self, name):
        with pytest.raises(ValueError, match="unknown decoder"):
            silver_cfg(decoder=name)
        with pytest.raises(ValueError, match="unknown decoder"):
            run_decode_trials(build_rate1_4group(1), 1, "4qam", 8.0, 2, 0, name)

    @pytest.mark.parametrize("a, layers, n_r, trials", [
        (2, 2, 2, 7),    # 4 trials a block: 21 trials end on a block of one
        (1, 2, 2, 50),   # 128 trials a block: the first block spans points
    ])
    def test_blocks_equal_per_trial_decoding(self, a, layers, n_r, trials):
        design = extend_full_rate(build_rate1_4group(a), layers)
        cons = constellation("4qam")
        assert trials * 3 % _block_trials(design, cons, n_r) != 0
        enc = default_encoder(design, cons.pam)
        snr_db = (2.0, 9.0, 16.0)
        want = []
        for point, db in enumerate(snr_db):
            snr = 10.0 ** (db / 10.0)
            cw = sym = evals = 0
            for trial in range(trials):
                rng = substream(5, CTX_ERROR_SWEEP, point, trial)
                y, h, levels = draw_trial(design, enc, n_r, snr, rng)
                res = decode_auto(y, h, design, cons, snr, enc)
                wrong = np.reshape(np.asarray(res.level_indices) != levels, (-1, 2)).any(axis=1)
                cw, sym = cw + int(wrong.any()), sym + int(wrong.sum())
                evals += res.metric_evaluations
            want.append((cw, sym, evals / trials))
        cfg = SimConfig(design=design, n_r=n_r, snr_db=snr_db, trials=trials, seed=5)
        got = [(r.codeword_errors, r.symbol_errors, r.mean_evals) for r in run_error_sweep(cfg)]
        assert got == want

        rows = run_decode_trials(design, n_r, "4qam", snr_db[1], trials, 5)
        snr = 10.0 ** (snr_db[1] / 10.0)
        for trial, row in enumerate(rows):
            y, h, _ = draw_trial(design, enc, n_r, snr, substream(5, CTX_ERROR_SWEEP, 0, trial))
            assert row["metric"] == decode_auto(y, h, design, cons, snr, enc).metric

    def test_oracle_decoder_choice(self):
        cfg = silver_cfg(decoder="oracle", trials=20)
        rec = run_error_sweep(cfg)[0]
        assert rec.mean_evals == 4**4

    def test_energy_normalization(self):
        d = extend_full_rate(build_rate1_4group(2), 2)
        cons = constellation("4qam")
        b = full_symbol_matrix(d, default_encoder(d, cons.pam))
        rng = np.random.default_rng(5)
        energies = []
        for _ in range(10_000):
            levels = rng.integers(0, 2, size=d.n_real_symbols)
            s = b @ cons.pam[levels]
            energies.append(
                np.linalg.norm(d.energy_scale * codeword(d, s)) ** 2
            )
        assert abs(np.mean(energies) / (d.n_t * d.T) - 1.0) < 0.01


class TestSisoBaseline:
    def test_noiseless_perfect(self):
        rec = uncoded_siso_sweep("4qam", (10.0,), 200, seed=3, noise_scale=0.0)[0]
        assert rec.ser == 0.0

    def test_deterministic(self):
        r1 = uncoded_siso_sweep("4qam", (5.0,), 500, seed=4)[0]
        r2 = uncoded_siso_sweep("4qam", (5.0,), 500, seed=4)[0]
        assert r1.ser == r2.ser

    def test_moderate_snr_errors_present(self):
        rec = uncoded_siso_sweep("4qam", (5.0,), 500, seed=4)[0]
        assert 0.0 < rec.ser < 0.5


class TestCsv:
    def _records(self):
        return [
            SimRecord(0.0, 100, 30, 55, 0.3, 0.1375, 128.0, 1.5),
            SimRecord(4.0, 100, 12, 20, 0.12, 0.05, 128.0, 1.25),
        ]

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(self._records(), path)
        rows = parse_records_csv(path)
        for rec, row in zip(self._records(), rows):
            assert row["snr_db"] == rec.snr_db
            assert row["trials"] == rec.trials
            assert row["cer"] == rec.cer
            assert row["ser"] == rec.ser
            assert row["mean_evals"] == rec.mean_evals
            assert row["wall_time_s"] == 0.0  # timing suppressed by default

    def test_timing_opt_in(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(self._records(), path, timing=True)
        rows = parse_records_csv(path)
        assert rows[0]["wall_time_s"] == 1.5

    def test_header_only_for_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == "snr_db,trials,cer,ser,mean_evals,wall_time_s\n"

    def test_byte_identical_reruns(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_error_sweep(silver_cfg(trials=60)), p1)
        emit_csv(run_error_sweep(silver_cfg(trials=60)), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestParsing:
    def test_config_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "# comment line\n"
            "a = 1\n"
            "layers = 2\n"
            "trials=50  # inline comment\n"
            "snr_db = 0:8:4\n"
        )
        cfg = parse_config_file(path)
        assert cfg == {"a": "1", "layers": "2", "trials": "50", "snr_db": "0:8:4"}

    def test_config_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("this is not a key value line\n")
        with pytest.raises(ValueError):
            parse_config_file(path)

    def test_snr_specs(self):
        assert parse_snr_spec("0:20:5") == (0.0, 5.0, 10.0, 15.0, 20.0)
        assert parse_snr_spec("1,2.5,7") == (1.0, 2.5, 7.0)
        with pytest.raises(ValueError):
            parse_snr_spec("0:10:0")

    def test_layer_scalar(self):
        assert parse_layer_scalar("1") == 1.0 + 0j
        got = parse_layer_scalar("pi/4")
        assert abs(got - np.exp(1j * np.pi / 4)) < 1e-15
        # the modulus is checked where the scalar is used
        with pytest.raises(ValueError, match="unit modulus"):
            extend_full_rate(build_rate1_4group(1), 2, layer_scalar=parse_layer_scalar("2.0+0.0i"))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            silver_cfg(trials=0)
        with pytest.raises(ValueError):
            silver_cfg(snr_db=())
        with pytest.raises(ValueError):
            silver_cfg(decoder="magic")


class TestSubstream:
    @pytest.mark.parametrize("seed, context, point, trial", [
        (0, CTX_ERROR_SWEEP, 0, 0),
        (12345, 3, 7, 99),
        (-5, 2, 1, 3),
        ((1 << 64) - 1, (1 << 16) - 1, (1 << 16) - 1, (1 << 32) - 1),
    ])
    def test_equals_keyed_philox(self, seed, context, point, trial):
        key = [seed & (1 << 64) - 1, (context << 48) | (point << 32) | trial]
        want = np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
        got = substream(seed, context, point, trial)
        assert repr(got.bit_generator.state) == repr(want.bit_generator.state)
        assert np.array_equal(got.standard_normal(100), want.standard_normal(100))
        assert np.array_equal(got.integers(0, 16, 50), want.integers(0, 16, 50))

    @pytest.mark.parametrize("args", [(0, 1 << 16), (0, 1, 1 << 16), (0, 1, 0, 1 << 32),
                                      (0, -1)])
    def test_range_checks(self, args):
        with pytest.raises(ValueError):
            substream(*args)


class TestVerifyAll:
    @pytest.mark.parametrize("a,layers,pinned", [
        pytest.param(1, 2, "a094af67e7225e0615ff1f6f2458867073da890b6fb164b5144249f53acbe8ac",
                     id="1-2"),
        pytest.param(2, 1, "354bdbb9566e56fdbf7cd8ff66a2f2754df62e5f440ef7a2a3bb7983d1464ad7",
                     id="2-1"),
    ])
    def test_passes(self, a, layers, pinned):
        report = verify_all(a, layers)
        assert report.passed, report.summary()
        assert digest(report.summary()) == pinned

    def test_summary_lines(self):
        report = verify_all(1, 1)
        text = report.summary()
        assert "PASS" in text and "FAIL" not in text


class TestPinnedOutputs:
    """Byte-exact outputs pinned across commits, not just across reruns.

    The digests were produced by the implementation that predates the
    shared transmit model and group-search kernel.  Any change to the
    draw order, the transmit arithmetic, the decoded indices, the metric
    or the counters moves them.
    """

    @staticmethod
    def _sweep_digest(tmp_path, design, n_r, **options):
        cfg = SimConfig(design=design, n_r=n_r, snr_db=(0.0, 5.0, 10.0),
                        trials=100, seed=8, **options)
        out = tmp_path / "sweep.csv"
        emit_csv(run_error_sweep(cfg), out)
        return hashlib.sha256(out.read_bytes()).hexdigest()

    @pytest.mark.parametrize("design, n_r, digest", [
        (extend_full_rate(build_rate1_4group(1), 2), 2,
         "2501dedbe018524a7620f9e70eae678c1fcbbb1d5d222f242350eeb403257934"),
        (build_rate1_4group(2), 1,
         "75072e40232f936ef2bfe70cd75a9a2dd05ce7e12646d93790b466e5b6fa3efd"),
    ])
    def test_sweep_csv(self, tmp_path, design, n_r, digest):
        assert self._sweep_digest(tmp_path, design, n_r) == digest

    @pytest.mark.parametrize("design, n_r, options, digest", [
        (extend_full_rate(build_rate1_4group(2), 2), 2, {},
         "d445e0a762b50fe4d884069c9735bca83be5c3e53f1dc34cb94d3ef37ce3ece2"),
        (extend_full_rate(build_rate1_4group(1), 2), 2, {"constellation": "16qam"},
         "d0a6f9c5e3ff4b0d18aa44171ac76774d73e3253a49d82ecd46ff25b542df3f6"),
        (extend_full_rate(build_rate1_4group(1), 2), 2, {"decoder": "oracle"},
         "bbc3917aa01758184fc402b9c8173eedaa384c8e58f9b5253296d475f00c4c1d"),
        (build_rate1_4group(2), 1, {"noise_scale": 0.0},
         "352bf50d35f1897469d822e1b206dc9f079182e52ceb09834809c83643b897d1"),
    ])
    def test_sweep_csv_variants(self, tmp_path, design, n_r, options, digest):
        assert self._sweep_digest(tmp_path, design, n_r, **options) == digest

    def test_siso_csv(self, tmp_path):
        out = tmp_path / "siso.csv"
        emit_csv(uncoded_siso_sweep("16qam", (0.0, 5.0, 10.0), 300, 7), out)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "346a90372b0d3494f97ec141c5865fb6fb59b51e7a5dcf0a088e70172d1fada7")

    @pytest.mark.parametrize("design_args, digest", [
        (("--a", "1", "--layers", "2"),
         "1906092c9e6a562fb24291535a4a86d7b14a031f8f706ef680593b31d178c484"),
        (("--a", "2"),
         "1f8200da0cc6a143bb3f2611c21c3dc7f15f6b23acdb59904ddf9fc93315645b"),
        (("--a", "3", "--nr", "2"),
         "6dc3495ae462d62a90357458b63d223fd41961b74b9c3e443c330facaae0d512"),
    ])
    def test_decode_log(self, tmp_path, design_args, digest):
        out = tmp_path / "decode.csv"
        assert main(["decode", *design_args, "--snr-db", "8", "--trials", "100",
                     "--seed", "5", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
