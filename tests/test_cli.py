from unittest.mock import patch

import numpy as np
import pytest

from stbc import rng
from stbc.cli import main
from stbc.errors import BudgetExceededError, DesignFormatError, RankDeficientError
from stbc.linalg import matrix_from_text, matrix_to_text


def run(*argv):
    return main([str(a) for a in argv])


class TestCliffordDump:
    def test_emits_parseable_generators(self, tmp_path, capsys):
        out = tmp_path / "gens.txt"
        assert run("clifford", "dump", "--a", 2, "--out", out) == 0
        blocks = out.read_text().split("generator")
        matrices = [matrix_from_text(b.split("\n", 1)[1]) for b in blocks[1:]]
        assert len(matrices) == 4
        for m in matrices:
            assert m.shape == (4, 4)
            assert np.abs(m @ m.conj().T - np.eye(4)).max() < 1e-12

    def test_stdout_default(self, capsys):
        assert run("clifford", "dump", "--a", 1) == 0
        assert "generator 1" in capsys.readouterr().out


class TestDesignCommands:
    def test_build_verify_dump_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "d.txt"
        assert run("design", "build", "--a", 2, "--out", path) == 0
        assert run("design", "verify", "--design", path) == 0
        assert "PASS" in capsys.readouterr().out
        assert run("design", "dump", "--design", path) == 0
        dumped = capsys.readouterr().out
        assert dumped.startswith("stbc-design v1")

    def test_verify_catches_corruption(self, tmp_path, capsys):
        path = tmp_path / "d.txt"
        run("design", "build", "--a", 2, "--out", path)
        text = path.read_text().replace("-1.0+0.0i", "1.0+0.0i", 1)
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert run("design", "verify", "--design", bad) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_layered_build(self, tmp_path, capsys):
        path = tmp_path / "full.txt"
        assert run("design", "build", "--a", 1, "--layers", 2,
                   "--layer-scalar", "pi/4", "--out", path) == 0
        assert run("design", "verify", "--design", path) == 0

    def test_one_layer_build_refuses_a_non_unit_scalar(self, tmp_path):
        path = tmp_path / "d.txt"
        with pytest.raises(ValueError, match="unit modulus"):
            run("design", "build", "--a", 2, "--layer-scalar", "2", "--out", path)
        assert not path.exists()

    @pytest.mark.parametrize("field", ["nt", "T"])
    def test_verify_names_missing_header_field(self, tmp_path, field):
        path = tmp_path / "full.txt"
        run("design", "build", "--a", 1, "--layers", 2, "--out", path)
        lines = path.read_text().splitlines(keepends=True)
        bad = tmp_path / "bad.txt"
        bad.write_text("".join(ln for ln in lines if not ln.startswith(field + " ")))
        with pytest.raises(DesignFormatError, match=rf"\b{field}\b"):
            run("design", "verify", "--design", bad)

    def test_verify_refuses_layers_not_dividing_weights(self, tmp_path):
        path = tmp_path / "d.txt"
        run("design", "build", "--a", 1, "--out", path)
        bad = tmp_path / "bad.txt"
        bad.write_text(path.read_text().replace("layers 1", "layers 3", 1))
        with pytest.raises(DesignFormatError, match="3 layers"):
            run("design", "verify", "--design", bad)


class TestChannelProfile:
    def test_profile_writes_stats(self, tmp_path, capsys):
        out = tmp_path / "prof.csv"
        assert run("channel", "profile", "--a", 2, "--nr", 1,
                   "--seeds", 5, "--out", out) == 0
        printed = capsys.readouterr().out
        assert "zero mask" in printed
        lines = out.read_text().splitlines()
        assert lines[0] == "row,col,mean_abs,max_abs,always_zero"
        assert len(lines) == 1 + 8 * 8

    def test_profile_of_a_design_file_matches_the_builtin_code(self, tmp_path, capsys):
        path = tmp_path / "d.txt"
        assert run("design", "build", "--a", 2, "--layers", 2, "--out", path) == 0
        capsys.readouterr()
        assert run("channel", "profile", "--design", path, "--nr", 2, "--seeds", 5) == 0
        loaded = capsys.readouterr().out
        assert run("channel", "profile", "--a", 2, "--layers", 2, "--nr", 2, "--seeds", 5) == 0
        assert loaded == capsys.readouterr().out

    def test_profile_refuses_fewer_receive_antennas_than_layers(self, tmp_path):
        out = tmp_path / "prof.csv"
        with pytest.raises(RankDeficientError, match="n_r"):
            run("channel", "profile", "--a", 2, "--layers", 2, "--nr", 1, "--out", out)
        assert not out.exists()

    def test_profile_refuses_a_tol_that_finds_no_zero(self, tmp_path):
        out = tmp_path / "p.csv"
        with pytest.raises(ValueError, match="tol must be finite and > 0, got nan"):
            run("channel", "profile", "--a", 1, "--nr", 1, "--seeds", 2, "--tol", "nan",
                "--out", out)
        assert not out.exists()

    def test_profile_refuses_zero_seeds(self, tmp_path):
        out = tmp_path / "prof.csv"
        with pytest.raises(ValueError, match="n_seeds must be >= 1, got 0"):
            run("channel", "profile", "--a", 2, "--nr", 1, "--seeds", 0, "--out", out)
        assert not out.exists()


class TestDecodeCommand:
    def test_per_trial_csv(self, tmp_path):
        out = tmp_path / "dec.csv"
        assert run("decode", "--a", 1, "--layers", 2, "--constellation", "4qam",
                   "--snr-db", 8, "--trials", 10, "--seed", 5, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "trial,metric,symbol_errors,evaluations"
        assert len(lines) == 11
        assert all(line.split(",")[3] == "128" for line in lines[1:])

    @pytest.mark.parametrize("layers", [1, 2])
    def test_receive_antennas_default_to_the_layer_count(self, tmp_path, layers):
        # one n_r rule for decode and sim sweep: without --nr, one antenna a layer
        default, given = tmp_path / "default.csv", tmp_path / "given.csv"
        args = ("decode", "--a", 1, "--layers", layers, "--snr-db", 8, "--trials", 10,
                "--seed", 5)
        assert run(*args, "--out", default) == 0
        assert run(*args, "--nr", layers, "--out", given) == 0
        assert default.read_bytes() == given.read_bytes()

    def test_zero_receive_antennas_refused(self, tmp_path):
        out = tmp_path / "dec.csv"
        with pytest.raises(ValueError, match="n_r must be >= 1"):
            run("decode", "--a", 1, "--snr-db", 8, "--trials", 10, "--nr", 0, "--out", out)
        assert not out.exists()

    def test_over_budget_refused_before_any_draw(self, tmp_path):
        # ~4.19e12 predicted evaluations: refused as the sweep refuses it
        out = tmp_path / "dec.csv"
        with patch.object(rng, "draw_block", side_effect=AssertionError("drew")):
            with pytest.raises(BudgetExceededError, match=r"^sweep needs ~4\.19e\+12 "):
                run("decode", "--a", 3, "--layers", 2, "--snr-db", 10, "--trials", 10**6,
                    "--out", out)
        assert not out.exists()

    def test_snr_whose_linear_value_overflows_refused(self, tmp_path):
        # 10^400 overflows a float: refused where the point enters
        out = tmp_path / "dec.csv"
        with pytest.raises(ValueError, match=r"finite linear snr, got \(4000\.0,\)"):
            run("decode", "--a", 1, "--snr-db", 4000, "--trials", 10, "--out", out)
        assert not out.exists()


class TestCapacitySweep:
    def test_deterministic_csv(self, tmp_path):
        a1, a2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
        for out in (a1, a2):
            assert run("capacity", "sweep", "--a", 1, "--nr", 1,
                       "--snr-db", "0:10:10", "--trials", 150,
                       "--seed", 3, "--out", out) == 0
        assert a1.read_bytes() == a2.read_bytes()
        lines = a1.read_text().splitlines()
        assert lines[0] == "snr_db,mean_bits,std_err,trials"
        assert len(lines) == 3

    def test_zero_receive_antennas_refused(self, tmp_path):
        out = tmp_path / "c.csv"
        with pytest.raises(ValueError, match="n_r must be >= 1"):
            run("capacity", "sweep", "--a", 1, "--nr", 0, "--snr-db", "0:10:10",
                "--trials", 150, "--out", out)
        assert not out.exists()

    def test_snr_whose_linear_value_overflows_refused(self, tmp_path):
        # refused before the first point's trials
        out = tmp_path / "c.csv"
        with patch("stbc.cli.code_capacity", side_effect=AssertionError("estimated")), \
                pytest.raises(ValueError, match=r"finite linear snr, got \(0\.0, 4000\.0\)"):
            run("capacity", "sweep", "--a", 1, "--nr", 1, "--snr-db", "0,4000", "--trials", 100,
                "--out", out)
        assert not out.exists()


class TestSimSweep:
    def test_deterministic_csv(self, tmp_path):
        s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        for out in (s1, s2):
            assert run("sim", "sweep", "--a", 1, "--layers", 2, "--nr", 2,
                       "--snr-db", "4", "--trials", 100, "--seed", 9,
                       "--out", out) == 0
        assert s1.read_bytes() == s2.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "a = 1\nlayers = 2\nnr = 2\ntrials = 40\nsnr_db = 2\nseed = 11\n"
        )
        out1 = tmp_path / "cfg.csv"
        assert run("sim", "sweep", "--config", cfg, "--out", out1) == 0
        # overriding the seed must change nothing but stay deterministic
        out2 = tmp_path / "cfg2.csv"
        assert run("sim", "sweep", "--config", cfg, "--seed", 11,
                   "--out", out2) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_config_file_with_unknown_key_refused(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("a = 1\nlayers = 2\ntrails = 40\n")
        with pytest.raises(ValueError, match="trails"):
            run("sim", "sweep", "--config", cfg, "--out", tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()

    def test_env_seed_default(self, tmp_path, monkeypatch):
        out1 = tmp_path / "env.csv"
        out2 = tmp_path / "flag.csv"
        monkeypatch.setenv("STBC_SEED", "123")
        assert run("sim", "sweep", "--a", 1, "--layers", 2, "--nr", 2,
                   "--snr-db", "4", "--trials", 50, "--out", out1) == 0
        monkeypatch.delenv("STBC_SEED")
        assert run("sim", "sweep", "--a", 1, "--layers", 2, "--nr", 2,
                   "--snr-db", "4", "--trials", 50, "--seed", 123,
                   "--out", out2) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestGainCommand:
    def test_min_det_builtin(self, capsys):
        assert run("gain", "min-det", "--a", 2, "--alphabet", "4qam") == 0
        out = capsys.readouterr().out
        assert "minimum determinant" in out

    def test_min_det_rotation_file(self, tmp_path, capsys):
        rot = tmp_path / "rot.txt"
        theta = 0.5 * np.arctan(2.0)
        u = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        rot.write_text(matrix_to_text(u))
        assert run("gain", "min-det", "--a", 2, "--alphabet", "4qam",
                   "--rotation", rot) == 0

    def test_min_det_unrotated(self, capsys):
        assert run("gain", "min-det", "--a", 2, "--alphabet", "4qam",
                   "--rotation", "none") == 0
        out = capsys.readouterr().out
        assert "minimum determinant: 0.0" in out


class TestVerifyAllCommand:
    def test_passes(self, capsys):
        assert run("verify-all", "--a", 1, "--layers", 2) == 0
        assert "PASS" in capsys.readouterr().out
