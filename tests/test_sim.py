import csv
import hashlib
import re
from dataclasses import replace
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest

from helpers import digest
from stbc.cli import main
from stbc.decoder import (
    _admit_search,
    complexity_account,
    constellation,
    decode_auto,
    full_symbol_matrix,
    ml_oracle,
)
from stbc.capacity import code_capacity, random_rotation_baseline
from stbc.channel import profile_over_channels
from stbc.clifford import build_generators
from stbc.coding_gain import default_encoder
from stbc.designs import build_rate1_4group, codeword, extend_full_rate
from stbc.errors import BudgetExceededError, NotGroupDecodableError, UnsupportedSizeError
from stbc import decoder, rng, sim
from stbc.rng import CTX_ERROR_SWEEP, POINTS, as_generator, draw_block, substream
from stbc.sim import (
    CSV_COLUMNS,
    SimConfig,
    SimRecord,
    draw_trial,
    emit_csv,
    parse_config_file,
    parse_layer_scalar,
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
        with pytest.raises(BudgetExceededError):
            run_error_sweep(cfg)

    @pytest.mark.parametrize("entry", [run_error_sweep, run_decode_trials])
    def test_one_budget_rule_before_any_draw(self, entry):
        # the sweep and the decode log refuse the same config alike
        d = extend_full_rate(build_rate1_4group(3), 2)
        cfg = SimConfig(design=d, n_r=2, snr_db=(10.0,), trials=10**6)
        with patch.object(rng, "draw_block", side_effect=AssertionError("drew")):
            with pytest.raises(BudgetExceededError) as err:
                entry(cfg)
        assert str(err.value) == ("sweep needs ~4.19e+12 hypothesis evaluations "
                                  "(4194304 per codeword); budget is 2e+09")

    @pytest.mark.parametrize("entry", [run_error_sweep, run_decode_trials])
    @pytest.mark.parametrize("a, layers, n_r, label, decoder, message", [
        pytest.param(1, 2, 2, "1024qam", "auto",
                     "134217728 hypotheses exceed the budget of 67108864", id="scans"),
        pytest.param(2, 1, 1, "64qam", "oracle",
                     "M^k = 16777216 exceeds the budget of 4194304", id="oracle"),
        pytest.param(4, 1, 1, "64qam", "auto",
                     "search tables of 23689464360 bytes exceed the limit of 1073741824",
                     id="table-bytes"),
    ])
    @pytest.mark.parametrize("trials", [1, 10**8])
    def test_per_codeword_limits_before_any_draw(self, entry, a, layers, n_r, label,
                                                 decoder, message, trials):
        # each decoder's admission refuses the config before its first
        # block is drawn, with the decoder's own message, also when the
        # trials exceed EVALUATION_BUDGET too
        design = extend_full_rate(build_rate1_4group(a), layers)
        cfg = SimConfig(design=design, n_r=n_r, constellation=label, snr_db=(10.0,),
                        trials=trials, decoder=decoder)
        with patch.object(rng, "draw_block", side_effect=AssertionError("drew")):
            with pytest.raises(BudgetExceededError) as err:
                entry(cfg)
        assert str(err.value) == message

    def test_design_without_the_split_refused_before_the_sweep_budget(self):
        d = random_rotation_baseline(extend_full_rate(build_rate1_4group(1), 2))
        cfg = SimConfig(design=d, n_r=2, snr_db=(10.0,), trials=10**8)
        with patch.object(rng, "draw_block", side_effect=AssertionError("drew")):
            with pytest.raises(NotGroupDecodableError):
                run_error_sweep(cfg)

    @pytest.mark.parametrize("name", ["group", "conditional", "sphere"])
    def test_unknown_decoder_rejected(self, name):
        with pytest.raises(ValueError, match="unknown decoder"):
            silver_cfg(decoder=name)
        with pytest.raises(ValueError, match="unknown decoder"):
            run_decode_trials(SimConfig(design=build_rate1_4group(1), n_r=1, snr_db=(8.0,),
                                        trials=2, seed=0, decoder=name))

    @pytest.mark.parametrize("a, layers, n_r, trials, snr_db", [
        # 22 trials a block: 28 trials in blocks of 22 and 6
        pytest.param(2, 2, 2, 7, (2.0, 9.0, 16.0, 23.0), id="2-2-2-7"),
        # 238 trials a block: 250 trials in blocks of 238 and 12
        pytest.param(1, 2, 2, 50, (2.0, 9.0, 16.0, 23.0, 30.0), id="1-2-2-50"),
        # the bounded search, 16 trials a block: 20 trials in blocks of 16 and 4
        pytest.param(3, 2, 2, 4, (0.0, 5.0, 10.0, 15.0, 20.0), id="3-2-2-4"),
    ])
    def test_blocks_equal_per_trial_decoding(self, a, layers, n_r, trials, snr_db):
        design = extend_full_rate(build_rate1_4group(a), layers)
        cons = constellation("4qam")
        _, block = _admit_search(design, cons, n_r)
        total = trials * len(snr_db)
        # two or more blocks, the last one partial, and a block that spans points
        assert block < total and total % block != 0
        assert any(start // trials != (min(start + block, total) - 1) // trials
                   for start in range(0, total, block))
        enc = default_encoder(design, cons.pam)
        want, alone = [], []
        for point, db in enumerate(snr_db):
            snr = 10.0 ** (db / 10.0)
            cw = sym = evals = 0
            for trial in range(trials):
                rng = substream(5, CTX_ERROR_SWEEP, point, trial)
                y, h, levels = draw_trial(design, enc, n_r, snr, rng)
                res = decode_auto(y, h, design, cons, snr, enc)
                alone.append((res.level_indices, res.metric_evaluations))
                wrong = np.reshape(np.asarray(res.level_indices) != levels, (-1, 2)).any(axis=1)
                cw, sym = cw + int(wrong.any()), sym + int(wrong.sum())
                evals += res.metric_evaluations
            want.append((cw, sym, evals / trials))
        cfg = SimConfig(design=design, n_r=n_r, snr_db=snr_db, trials=trials, seed=5)
        got = [(r.codeword_errors, r.symbol_errors, r.mean_evals) for r in run_error_sweep(cfg)]
        assert got == want

        # trial for trial: the simulator's blocks, decoded by _decode_stack
        # without the public input check, decide as decode_auto does
        snrs = [10.0 ** (db / 10.0) for db in snr_db]
        blocks = list(sim._decoded_trials(cfg))
        assert len(blocks) > 1
        assert [(tuple(levels), int(count)) for *_, decoded, evaluations, _ in blocks
                for levels, count in zip(decoded.tolist(), evaluations)] == alone

        rows = run_decode_trials(
            SimConfig(design=design, n_r=n_r, snr_db=(snr_db[1],), trials=trials, seed=5))
        snr = 10.0 ** (snr_db[1] / 10.0)
        for trial, row in enumerate(rows):
            y, h, _ = draw_trial(design, enc, n_r, snr, substream(5, CTX_ERROR_SWEEP, 0, trial))
            assert row["metric"] == decode_auto(y, h, design, cons, snr, enc).metric

    @pytest.mark.parametrize("a, layers, trials, snr_db, ticks", [
        # one block of 150 trials over six points, timed as 3 s
        pytest.param(1, 2, 25, (0.0, 4.0, 8.0, 12.0, 16.0, 20.0), [0.0, 3.0], id="silver"),
        # blocks of 22 and 6 trials over four points, each trial timed as 1 s
        pytest.param(2, 2, 7, (2.0, 9.0, 16.0, 23.0), [0.0, 22.0, 28.0], id="a2-two-layer"),
    ])
    def test_block_time_split_over_its_points(self, a, layers, trials, snr_db, ticks):
        # a block that spans points shares its time among them in
        # proportion to their trials; the clock is read once per block
        design = extend_full_rate(build_rate1_4group(a), layers)
        cfg = SimConfig(design=design, n_r=2, snr_db=snr_db, trials=trials, seed=5)
        clock = iter(ticks)
        with patch.object(sim, "time", SimpleNamespace(perf_counter=lambda: next(clock))):
            records = run_error_sweep(cfg)
        share = ticks[-1] / len(snr_db)
        assert [r.wall_time_s for r in records] == [share] * len(snr_db)
        assert next(clock, None) is None

    def test_oracle_decoder_choice(self):
        cfg = silver_cfg(decoder="oracle", trials=20)
        rec = run_error_sweep(cfg)[0]
        assert rec.mean_evals == 4**4

    def test_oracle_sweep_draws_in_blocks(self):
        # the oracle decodes the simulator's blocks: 3 points of 40 trials
        # take fewer draw_block calls than trials
        calls = []

        def counted(*args):
            calls.append(len(args[2]))
            return draw_block(*args)

        cfg = silver_cfg(decoder="oracle", trials=40, snr_db=(0.0, 8.0, 16.0))
        with patch.object(rng, "draw_block", counted):
            run_error_sweep(cfg)
        assert sum(calls) == 120 and len(calls) < 120

    def test_siso_and_profile_csvs_do_not_depend_on_the_block(self, tmp_path):
        # blocks of 1 and of 7 trials, which span the SISO's points and
        # split the profile's seeds, write the same bytes as the default
        sizes = []

        def recorded(seed, context, paths, *sizes_of_a_trial):
            sizes.append(len(paths))
            return draw_block(seed, context, paths, *sizes_of_a_trial)

        texts = []
        for block in (rng.BLOCK_TRIALS, 1, 7):
            siso, profile = tmp_path / f"siso{block}.csv", tmp_path / f"profile{block}.csv"
            with patch.object(rng, "BLOCK_TRIALS", block), patch.object(rng, "draw_block",
                                                                        recorded):
                emit_csv(uncoded_siso_sweep("16qam", (0.0, 5.0, 10.0), 30, 7), siso)
                assert main(["channel", "profile", "--a", "2", "--layers", "2", "--nr", "2",
                             "--seeds", "25", "--out", str(profile)]) == 0
            assert max(sizes) == min(block, 90) and sum(sizes) == 90 + 25
            sizes.clear()
            texts.append((siso.read_bytes(), profile.read_bytes()))
        assert texts[1] == texts[0] and texts[2] == texts[0]

    @pytest.mark.parametrize("entry", [
        lambda: uncoded_siso_sweep("4qam", (0.0,), (1 << 32) + 1, 1),
        lambda: profile_over_channels(build_rate1_4group(1), 1, (1 << 32) + 1),
    ], ids=["siso", "profile"])
    def test_trial_index_out_of_range_refused_before_any_draw(self, entry):
        # trial 2^32 does not fit its key field: refused up front, not
        # after 2^32 trials
        with patch.object(rng, "draw_block", side_effect=AssertionError("drew")):
            with pytest.raises(ValueError, match="trial index out of range"):
                entry()

    def test_siso_memory_does_not_grow_with_trials(self):
        # the baseline holds one block of trials at a time: ten times the
        # trials take no more memory than a small margin
        import tracemalloc

        peaks = []
        for trials in (20_000, 200_000):
            tracemalloc.start()
            try:
                uncoded_siso_sweep("64qam", (10.0,), trials, 3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + (1 << 20), peaks

    def test_oracle_csv_does_not_depend_on_the_block(self, tmp_path):
        # blocks of 1 and of 7 trials (1,600 bytes of front end a trial on
        # the Silver code at n_r = 2) write the same bytes as the default
        cfg = silver_cfg(decoder="oracle", trials=100, snr_db=(0.0, 8.0, 16.0))
        cons = constellation(cfg.constellation)
        texts = []
        for cap, block in ((decoder._BLOCK_BYTES, 983), (1, 1), (7 * 1600 + 1, 7)):
            with patch.object(decoder, "_BLOCK_BYTES", cap):
                assert decoder._admit_oracle(cfg.design, cons, cfg.n_r) == (4**4, block)
                out = tmp_path / f"sweep{block}.csv"
                emit_csv(run_error_sweep(cfg), out)
            texts.append(out.read_bytes())
        assert texts[1] == texts[0] and texts[2] == texts[0]

    def test_oracle_decode_log_equals_per_trial_decoding(self):
        cfg = silver_cfg(decoder="oracle", trials=30)
        cons = constellation(cfg.constellation)
        enc = default_encoder(cfg.design, cons.pam)
        snr = 10.0 ** (cfg.snr_db[0] / 10.0)
        for trial, row in enumerate(run_decode_trials(cfg)):
            y, h, levels = draw_trial(cfg.design, enc, cfg.n_r, snr,
                                      substream(cfg.seed, CTX_ERROR_SWEEP, 0, trial))
            res = ml_oracle(y, h, cfg.design, cons, snr, enc)
            wrong = np.reshape(np.asarray(res.level_indices) != levels, (-1, 2)).any(axis=1)
            assert row == {"trial": trial, "metric": res.metric,
                           "symbol_errors": int(wrong.sum()),
                           "evaluations": res.metric_evaluations}

    @pytest.mark.parametrize("snr", [-1.0, np.nan, np.inf, [1.0, 4.0]])
    def test_draw_trial_refuses_bad_snr(self, snr):
        d = build_rate1_4group(1)
        enc = default_encoder(d, constellation("4qam").pam)
        with pytest.raises(ValueError, match="snr must be finite and >= 0"):
            draw_trial(d, enc, 1, snr, substream(0))

    @pytest.mark.parametrize("snr_db", [5.0, ("a",), "10", ((1.0, 2.0),), (1j,)])
    def test_snr_points_must_be_real_sequence(self, snr_db):
        with pytest.raises(ValueError, match="snr_db must be a sequence of real numbers"):
            silver_cfg(snr_db=snr_db)

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


class TestPairedDraws:
    """Two sweeps at one seed whose codes share n_t, T and 2k draw the same
    normals and levels trial for trial, whatever their block sizes."""

    @staticmethod
    def _drawn(cfg):
        """(normals, levels, blocks) that ``cfg``'s sweep drew."""
        blocks = []

        def record(*args):
            blocks.append(draw_block(*args))
            return blocks[-1]

        with patch.object(rng, "draw_block", side_effect=record):
            run_error_sweep(cfg)
        normals, levels = (np.concatenate(part) for part in zip(*blocks))
        return normals, levels, len(blocks)

    def test_codes_of_one_shape(self):
        plain = silver_cfg(snr_db=(0.0, 10.0), trials=40, seed=3)
        rotated = replace(plain, design=extend_full_rate(
            build_rate1_4group(1), 2, layer_scalar=parse_layer_scalar("pi/4")))
        assert not np.allclose(plain.design.weights, rotated.design.weights)
        normals, levels, _ = self._drawn(plain)
        assert len(levels) == 80
        other_normals, other_levels, _ = self._drawn(rotated)
        assert np.array_equal(normals, other_normals)
        assert np.array_equal(levels, other_levels)

    def test_auto_and_oracle(self):
        # 600 trials: three blocks of the structured search (238 a block),
        # one of the oracle
        cfg = silver_cfg(snr_db=(0.0, 10.0), trials=300, seed=3)
        normals, levels, blocks = self._drawn(cfg)
        other_normals, other_levels, other_blocks = self._drawn(replace(cfg, decoder="oracle"))
        assert (blocks, other_blocks) == (3, 1)
        assert np.array_equal(normals, other_normals)
        assert np.array_equal(levels, other_levels)


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

    def test_no_trials_refused(self):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            uncoded_siso_sweep("4qam", (0.0,), 0, 1)


def read_records_csv(path) -> list[dict]:
    """emit_csv output read back with the csv module, one dict per row."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        assert tuple(reader.fieldnames) == CSV_COLUMNS
        return [{key: (int if key == "trials" else float)(value) for key, value in row.items()}
                for row in reader]


class TestCsv:
    def _records(self):
        return [
            SimRecord(0.0, 100, 30, 55, 4, 128.0, 1.5),
            SimRecord(4.0, 100, 12, 20, 4, 128.0, 1.25),
        ]

    def test_rates_from_counts(self):
        assert [(r.cer, r.ser) for r in self._records()] == [(0.3, 0.1375), (0.12, 0.05)]

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(self._records(), path)
        rows = read_records_csv(path)
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
        rows = read_records_csv(path)
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
        for bad in ("0:10:0", "10:0:1", "0:nan:1", "0:10:inf", "1,nan", "-inf"):
            with pytest.raises(ValueError):
                parse_snr_spec(bad)

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
        for n_r in (0, -1):
            with pytest.raises(ValueError, match="n_r"):
                silver_cfg(n_r=n_r)
        for snr_db in ((float("nan"),), (0.0, float("inf"))):
            with pytest.raises(ValueError, match="snr_db"):
                silver_cfg(snr_db=snr_db)
        for noise_scale in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError, match="noise_scale"):
                silver_cfg(noise_scale=noise_scale)
            with pytest.raises(ValueError, match="noise_scale"):
                uncoded_siso_sweep("4qam", (0.0,), 10, 1, noise_scale=noise_scale)

    @pytest.mark.parametrize("entry, name", [
        (lambda: run_error_sweep(silver_cfg(trials=True)), "trials"),
        (lambda: silver_cfg(n_r=True), "n_r"),
        (lambda: uncoded_siso_sweep("4qam", (0.0,), True, 1), "trials"),
        (lambda: profile_over_channels(build_rate1_4group(1), 1, True), "n_seeds"),
        (lambda: profile_over_channels(build_rate1_4group(1), True, 2), "n_r"),
        (lambda: code_capacity(build_rate1_4group(1), 1, 10.0, True, 0), "trials"),
    ], ids=["sweep-trials", "config-n_r", "siso-trials", "profile-seeds", "profile-n_r",
            "capacity-trials"])
    def test_bool_count_refused(self, entry, name):
        # bool is an Integral, but True is no count of trials or antennas
        with pytest.raises(ValueError, match=f"{name} must be an integer, got True"):
            entry()

    @pytest.mark.parametrize("noise_scale", ["x", None, 1j])
    def test_noise_scale_not_a_real_number_refused(self, noise_scale):
        with pytest.raises(ValueError, match="noise_scale must be real, finite"):
            uncoded_siso_sweep("4qam", (0.0,), 10, 1, noise_scale=noise_scale)
        with pytest.raises(ValueError, match="noise_scale must be real, finite"):
            silver_cfg(noise_scale=noise_scale)

    @pytest.mark.parametrize("label, match", [
        ("bogus", "unsupported constellation 'bogus'"),
        ("qam", "unsupported constellation 'qam'"),
        ("64.0qam", "unsupported constellation '64.0qam'"),
        (None, "unsupported constellation None"),
        ("8qam", "even perfect-square size, got 8"),
    ])
    def test_config_refuses_a_bad_label(self, label, match):
        # refused when the config is made, not when its sweep runs
        with pytest.raises(ValueError, match=match):
            silver_cfg(constellation=label)

    @pytest.mark.parametrize("label", [["4qam"], {"a": 1}, {"4qam"}])
    def test_unhashable_label_refused(self, label):
        # refused by the label check, not the constellation cache's bare
        # TypeError: unhashable type
        match = re.escape(f"unsupported constellation {label!r} ")
        with pytest.raises(ValueError, match=match):
            silver_cfg(constellation=label)
        with pytest.raises(ValueError, match=match):
            uncoded_siso_sweep(label, (0.0,), 10, 1)

    @pytest.mark.parametrize("entry, snr_db", [(run_error_sweep, (0.0, 10.0)),
                                               (run_decode_trials, (8.0,))],
                             ids=["sweep", "decode-log"])
    @pytest.mark.parametrize("design", [None, "x", build_generators(1)],
                             ids=["none", "str", "clifford-set"])
    def test_config_refuses_what_is_not_a_design(self, entry, snr_db, design):
        # a sweep of such a config failed with an AttributeError
        with pytest.raises(ValueError, match=f"design must be an STBCDesign, got "
                                             f"{type(design).__name__}$"):
            entry(SimConfig(design=design, n_r=1, snr_db=snr_db, trials=2))

    @pytest.mark.parametrize("field, value", [("trials", 2.5), ("n_r", 1.5), ("trials", "3")])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            silver_cfg(**{field: value})

    @pytest.mark.parametrize("n_r, snr_db, trials, match", [
        (0, 8.0, 2, "n_r must be >= 1"),
        (1.5, 8.0, 2, "n_r must be an integer"),
        (1, float("nan"), 2, "snr_db values must be finite"),
        (1, 8.0, 0, "trials must be >= 1"),
        (1, 8.0, 2.5, "trials must be an integer"),
    ])
    def test_decode_log_checks_its_inputs_as_a_sweep_does(self, n_r, snr_db, trials, match):
        with pytest.raises(ValueError, match=match):
            run_decode_trials(SimConfig(design=build_rate1_4group(1), n_r=n_r,
                                        snr_db=(snr_db,), trials=trials, seed=0))

    def test_snr_whose_linear_value_overflows_refused(self):
        # 10^400 overflows a float; the largest accepted point converts
        top = float(np.nextafter(10 * np.log10(np.finfo(float).max), 0))
        assert np.isfinite(10.0 ** (top / 10.0))
        SimConfig(design=build_rate1_4group(1), n_r=1, snr_db=(top,))
        with pytest.raises(ValueError, match=r"finite linear snr, got \(0\.0, 4000\.0\)"):
            SimConfig(design=build_rate1_4group(1), n_r=1, snr_db=(0.0, 4000.0))
        with pytest.raises(ValueError, match="finite linear snr"):
            uncoded_siso_sweep("4qam", (4000.0,), 10, 1)

    def test_decode_log_refuses_more_than_one_point(self):
        with pytest.raises(ValueError, match="one snr point, got 2"):
            run_decode_trials(silver_cfg(snr_db=(4.0, 8.0), trials=2))

    def test_snr_range_needs_three_fields(self):
        for spec in ("0:10", "0:10:2:4"):
            with pytest.raises(ValueError, match="A:B:STEP"):
                parse_snr_spec(spec)

    def test_snr_points_bounded_up_front(self):
        # a stream path addresses 2^16 points; more are refused before any
        # point is built or decoded
        assert POINTS == 1 << 16
        assert len(parse_snr_spec("0:65535:1")) == POINTS
        for spec in ("0:65536:1", "0:1:1e-5", "0:1e300:1e-300"):
            with pytest.raises(ValueError, match="at most 65536"):
                parse_snr_spec(spec)
        with pytest.raises(ValueError, match="at most 65536"):
            parse_snr_spec(",".join(["1"] * (POINTS + 1)))
        many = tuple(float(i % 20) for i in range(70_000))
        with pytest.raises(ValueError, match="at most 65536 snr points, got 70000"):
            silver_cfg(snr_db=many, trials=1)
        with pytest.raises(ValueError, match="at most 65536 snr points, got 70000"):
            uncoded_siso_sweep("4qam", many, 1, 1)


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


class TestSeeds:
    @pytest.mark.parametrize("seed", [1.5, "x", None, np.float64(2.0)])
    @pytest.mark.parametrize("entry", [
        "SimConfig", "uncoded_siso_sweep", "profile_over_channels", "substream",
        "draw_block", "as_generator", "code_capacity"])
    def test_non_integer_seed_refused(self, entry, seed):
        d = build_rate1_4group(1)
        call = {
            "SimConfig": lambda: silver_cfg(seed=seed),
            "uncoded_siso_sweep": lambda: uncoded_siso_sweep("4qam", (5.0,), 3, seed),
            "profile_over_channels": lambda: profile_over_channels(d, 1, 2, seed=seed),
            "substream": lambda: substream(seed),
            "draw_block": lambda: draw_block(seed, CTX_ERROR_SWEEP, [(0, 0)], 4, 2, 2),
            "as_generator": lambda: as_generator(seed),
            "code_capacity": lambda: code_capacity(d, 1, 10.0, 100, rng=seed),
        }[entry]
        with pytest.raises(ValueError, match="seed must be an integer"):
            call()

    @pytest.mark.parametrize("seed", [-5, (1 << 64) + 3, np.int64(-5), np.uint64(7)])
    def test_integer_seeds_wrap_to_64_bits(self, seed):
        want = substream(int(seed) % (1 << 64))
        assert repr(substream(seed).bit_generator.state) == repr(want.bit_generator.state)
        assert repr(as_generator(seed).bit_generator.state) == repr(want.bit_generator.state)


class TestDrawBlock:
    """The stream contract: a block's draws equal, row for row, those of
    ``standard_normal`` and then ``integers`` on each trial's substream."""

    @staticmethod
    def _reference(seed, context, paths, normals, p, n):
        rows = []
        for point, trial in paths:
            gen = substream(seed, context, point, trial)
            rows.append((gen.standard_normal(normals), gen.integers(0, p, size=n)))
        return np.array([r for r, _ in rows]), np.array([lv for _, lv in rows])

    @pytest.mark.parametrize("p", [2, 4, 6, 8, 12])
    @pytest.mark.parametrize("n", [1, 7, 8, 31, 32])
    @pytest.mark.parametrize("seed, paths", [
        (11, [(0, t) for t in range(6)] + [(1, 0), (1, 1)]),
        ((1 << 63) + 12345, [(3, 2), (0, 0), ((1 << 16) - 1, 9)]),
        (-42, [(2, 5), (2, 6)]),
        (7, [(0, (1 << 32) - 1), (5, (1 << 32) - 2)]),
    ])
    def test_equals_per_trial_calls(self, p, n, seed, paths):
        normals, levels = draw_block(seed, CTX_ERROR_SWEEP, paths, 12, p, n)
        want_normals, want_levels = self._reference(seed, CTX_ERROR_SWEEP, paths, 12, p, n)
        assert normals.dtype == np.float64 and levels.dtype == np.int64
        assert np.array_equal(normals, want_normals)
        assert np.array_equal(levels, want_levels)

    @pytest.mark.parametrize("p", [1, 3, (1 << 32) - 1, 1 << 32])
    def test_level_count_bounds(self, p):
        paths = [(0, t) for t in range(4)]
        got = draw_block(3, CTX_ERROR_SWEEP, paths, 2, p, 5)
        want = self._reference(3, CTX_ERROR_SWEEP, paths, 2, p, 5)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("p", [0, (1 << 32) + 1])
    def test_level_count_refused(self, p):
        with pytest.raises(ValueError, match="level count"):
            draw_block(3, CTX_ERROR_SWEEP, [(0, 0)], 2, p, 5)

    def test_hand_made_words(self):
        # words split low half first; with p = 6 a zero half scales to a
        # remainder of 0, below Lemire's threshold (2^32 - 6) % 6 = 4, so
        # its row is flagged; the row without such a half is not
        low, high = 0x9ABCDEF0, 0x12345678
        words = np.array([[(high << 32) | low, 0x1234],
                          [high << 32, 0x1234],
                          [0xFFFFFFFF_FFFFFFFF, 0]], dtype=np.uint64)
        levels, retry = rng._levels(words, 6, 3)
        halves = [[low, high, 0x1234], [0, high, 0x1234], [0xFFFFFFFF, 0xFFFFFFFF, 0]]
        assert levels.tolist() == [[(h * 6) >> 32 for h in row] for row in halves]
        assert retry.tolist() == [False, True, True]
        # the unused high half of an odd row's last word is not looked at
        assert rng._levels(np.array([[0xFFFFFFFF]], dtype=np.uint64), 6, 1)[1].tolist() == [False]
        # a power of two never rejects
        assert not rng._levels(words, 8, 4)[1].any()

    def test_flagged_row_replayed(self, monkeypatch):
        # a flagged row's levels come from its substream, whatever the
        # vectorised step made of its words
        real = rng._levels

        def flag_second(words, p, n):
            levels, retry = real(words, p, n)
            levels[1] = -1
            retry[1] = True
            return levels, retry

        monkeypatch.setattr(rng, "_levels", flag_second)
        paths = [(0, 3), (0, 4), (1, 0)]
        got = draw_block(5, CTX_ERROR_SWEEP, paths, 8, 6, 9)
        want = self._reference(5, CTX_ERROR_SWEEP, paths, 8, 6, 9)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("paths", [[(0, 0), (1 << 16, 0)], [(0, -1)], [(0, 1 << 32)]])
    def test_range_checks(self, paths):
        with pytest.raises(ValueError, match="out of range"):
            draw_block(0, CTX_ERROR_SWEEP, paths, 4, 2, 2)
        with pytest.raises(ValueError, match="context out of range"):
            draw_block(0, 1 << 16, [(0, 0)], 4, 2, 2)


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

    def test_steps_over_a_limit_covered_at_smaller_a(self):
        # n_t = 32: the rate-1 oracle's M^k = 2^64 and the minimum
        # determinant's 3^16 - 1 differences are refused by their owners
        # and reported, not run
        text = verify_all(5, 1).summary()
        assert text.startswith("== full verification (a=5, layers=1): PASS ==")
        lines = text.splitlines()
        assert ("[PASS] rotated minimum determinant positive (closed form agrees) "
                "(43046720 difference vectors exceed the budget of 10000000; "
                "covered at smaller a)") in lines
        assert ("[PASS] complexity account matches the closed-form count (oracle: "
                f"{2**64} = M^k hypotheses (M=4); group: {4 * 2**16}; "
                "search order M^8)") in lines
        assert ("[PASS] group decoder == exhaustive oracle "
                "(oracle intractable at this size; covered at smaller a)") in lines

    def test_summary_lines(self):
        report = verify_all(1, 1)
        text = report.summary()
        assert "PASS" in text and "FAIL" not in text

    @pytest.mark.parametrize("a,layers,pinned", [
        pytest.param(1, 2, "a094af67e7225e0615ff1f6f2458867073da890b6fb164b5144249f53acbe8ac",
                     id="1-2"),
        pytest.param(2, 1, "354bdbb9566e56fdbf7cd8ff66a2f2754df62e5f440ef7a2a3bb7983d1464ad7",
                     id="2-1"),
    ])
    def test_draws_nothing_beside_the_trial_loop(self, a, layers, pinned):
        # the decoder checks draw on the sweeps' schedule, and the energy
        # check is exact: no substream, no per-trial draw
        with patch.object(rng, "substream", side_effect=AssertionError("substream")), \
                patch.object(sim, "draw_trial", side_effect=AssertionError("draw_trial")):
            report = verify_all(a, layers)
        assert digest(report.summary()) == pinned

    CHECKS = ("group decoder == exhaustive oracle",
              "conditional decoder == exhaustive oracle (two antennas, two layers)")

    @staticmethod
    def _changed(name, change):
        """The decoder table with ``name``'s stacked decode followed by
        ``change(levels, evaluations)``, which edits a block in place."""
        admit, decode = decoder._DECODERS[name]

        def changed(*args):
            levels, evaluations, b = decode(*args)
            change(levels, evaluations)
            return levels, evaluations, b

        return patch.dict(decoder._DECODERS, {name: (admit, changed)})

    def _witnesses(self, report):
        return {check.name: check.witnesses for check in report.checks
                if check.name in self.CHECKS}

    def test_a_changed_decision_fails_and_names_its_trial(self):
        # each check decodes its trials in one block; the oracle's
        # decision on trial 5 gets another first level
        def flip(levels, _):
            levels[5, 0] = 1 - levels[5, 0]

        with self._changed("oracle", flip):
            report = verify_all(1, 2)
        assert not report.passed
        assert self._witnesses(report) == {name: ["trial 5"] for name in self.CHECKS}

    def test_a_changed_count_fails_as_a_counter(self):
        def count_one_more(_, evaluations):
            evaluations[2] += 1

        with self._changed("auto", count_one_more):
            report = verify_all(1, 2)
        assert not report.passed
        assert self._witnesses(report) == {name: ["trial 2: counter"] for name in self.CHECKS}

    def test_layer_count_not_an_integer_refused(self):
        with pytest.raises(UnsupportedSizeError, match="n_layers must be an integer, got 2.0"):
            verify_all(2, layers=2.0)


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
        # 65,536 outer hypotheses each: the bounded search, whose survivor
        # counts the mean_evals column carries
        (extend_full_rate(build_rate1_4group(3), 2), 2, {},
         "86aa9bcc6a2767775bf255b83a5719a74a0018e97a9f8926405681cb620a7cfa"),
        (extend_full_rate(build_rate1_4group(2), 2), 2, {"constellation": "16qam"},
         "3721928192acd2c77bfedc4deae17def8ce5732c7a783d12c9349021b23543d1"),
    ])
    def test_sweep_csv_variants(self, tmp_path, design, n_r, options, digest):
        assert self._sweep_digest(tmp_path, design, n_r, **options) == digest

    def test_siso_csv(self, tmp_path):
        out = tmp_path / "siso.csv"
        emit_csv(uncoded_siso_sweep("16qam", (0.0, 5.0, 10.0), 300, 7), out)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "346a90372b0d3494f97ec141c5865fb6fb59b51e7a5dcf0a088e70172d1fada7")
        emit_csv(uncoded_siso_sweep("4qam", (0.0, 10.0), 500, seed=9), out)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "766489f8f50aae49f252eb8ac6c7098094b5847622314e316db6c9225bc84352")

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

    @pytest.mark.parametrize("args, digest", [
        (("--a", "3", "--layers", "2", "--nr", "2", "--seeds", "40"),
         "0cd8891baab9515e267cdf1be626a226f9e53d81093f7a426eb7d115468d06a5"),
        (("--a", "2", "--nr", "1", "--seeds", "25", "--seed", "9"),
         "cb6150496bd430f8be277a79d61192d6fe3e83be6efe4ec46b4c4741aad280a8"),
    ])
    def test_channel_profile_csv(self, tmp_path, args, digest):
        # the bytes of the profile when it drew one channel per substream
        out = tmp_path / "profile.csv"
        assert main(["channel", "profile", *args, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("design_args, digest", [
        (("--a", "1", "--layers", "2"),
         "bcf68d1d821981deef33ff8defb76dda73a9dafc2bdf1cb9c530d8d43d11d924"),
        (("--a", "2"),
         "7ea7c04641f3e15ab64e933d17904a2ab8e8b93628f64a634a165e4a63efa4c1"),
    ])
    def test_oracle_decode_log(self, tmp_path, design_args, digest):
        # the bytes of the oracle's log when it decoded one trial at a time
        out = tmp_path / "decode.csv"
        assert main(["decode", *design_args, "--snr-db", "8", "--trials", "100",
                     "--seed", "5", "--decoder", "oracle", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
