"""The two input rules at every entry point they guard.

The integer rule (``linalg._integer_refusal``): a size, count, seed or sign
is an integer -- a numpy one too, never a bool -- within its range.  The
orthogonality rule (``linalg._orthogonality_refusal``): a rotation is a
real, square, finite matrix with |U^T U - I| <= ``CERT_TOL``.  Each entry
point refuses what its rule refuses with its own error class and a message
naming the argument, before anything is built or drawn: ``rng.draw_block``
and the capacity estimators' ``sample_channels`` raise if called.
"""

import numpy as np
import pytest

from stbc import capacity, rng
from stbc.capacity import (
    channel_capacity,
    code_capacity,
    high_snr_decomposition,
    low_snr_condition,
    random_rotation_baseline,
)
from stbc.channel import profile_over_channels
from stbc.cli import main
from stbc.clifford import build_generators
from stbc.coding_gain import (
    Encoder,
    default_encoder,
    encode,
    min_determinant,
    rotation_from_matrix,
)
from stbc.decoder import Constellation, constellation, square_qam
from stbc.designs import STBCDesign, build_rate1_4group, extend_full_rate, save_design
from stbc.errors import AlphabetError, DesignFormatError, UnsupportedSizeError
from stbc.sim import SimConfig, draw_trial, parse_layer_scalar, uncoded_siso_sweep, verify_all

BAD_INTEGERS = [True, 1.0, 2.5, float("nan"), None, "2"]

BASE = build_rate1_4group(1)
PAM = constellation("4qam").pam
DRAW_BLOCK = rng.draw_block  # the fixture below patches the module's


def _design(**fields):
    return STBCDesign(**{"n_t": BASE.n_t, "T": BASE.T, "weights": BASE.weights,
                         "groups": BASE.groups, **fields})


# (id, error class, argument the message names, call of the bad value)
INTEGER_ENTRIES = [
    ("build_generators-a", UnsupportedSizeError, "a", lambda v: build_generators(v)),
    ("build_generators-sign", ValueError, "sign", lambda v: build_generators(1, v)),
    ("build_rate1_4group-sign", ValueError, "sign", lambda v: build_rate1_4group(1, sign=v)),
    ("extend_full_rate-n_layers", UnsupportedSizeError, "n_layers",
     lambda v: extend_full_rate(BASE, v)),
    ("STBCDesign-n_t", DesignFormatError, "n_t", lambda v: _design(n_t=v)),
    ("STBCDesign-T", DesignFormatError, "T", lambda v: _design(T=v)),
    ("STBCDesign-layers", DesignFormatError, "layers", lambda v: _design(layers=v)),
    ("square_qam-size", ValueError, "size", lambda v: square_qam(v)),
    ("verify_all-a", UnsupportedSizeError, "a", lambda v: verify_all(v)),
    ("verify_all-layers", UnsupportedSizeError, "n_layers", lambda v: verify_all(1, v)),
    ("verify_all-seed", ValueError, "seed", lambda v: verify_all(1, 1, seed=v)),
    ("SimConfig-n_r", ValueError, "n_r", lambda v: SimConfig(design=BASE, n_r=v)),
    ("SimConfig-trials", ValueError, "trials", lambda v: SimConfig(design=BASE, n_r=1, trials=v)),
    ("SimConfig-seed", ValueError, "seed", lambda v: SimConfig(design=BASE, n_r=1, seed=v)),
    ("siso-trials", ValueError, "trials", lambda v: uncoded_siso_sweep("4qam", (0.0,), v, 0)),
    ("siso-seed", ValueError, "seed", lambda v: uncoded_siso_sweep("4qam", (0.0,), 10, v)),
    ("profile-n_r", ValueError, "n_r", lambda v: profile_over_channels(BASE, v, 3)),
    ("profile-n_seeds", ValueError, "n_seeds", lambda v: profile_over_channels(BASE, 1, v)),
    ("profile-seed", ValueError, "seed", lambda v: profile_over_channels(BASE, 1, 3, seed=v)),
    ("code_capacity-n_r", ValueError, "n_r", lambda v: code_capacity(BASE, v, 10.0, 100, 0)),
    ("code_capacity-trials", ValueError, "trials",
     lambda v: code_capacity(BASE, 1, 10.0, v, 0)),
    ("code_capacity-seed", ValueError, "seed", lambda v: code_capacity(BASE, 1, 10.0, 100, v)),
    ("channel_capacity-n_t", ValueError, "n_t", lambda v: channel_capacity(v, 1, 10.0, 100, 0)),
    ("channel_capacity-seed", ValueError, "seed",
     lambda v: channel_capacity(2, 1, 10.0, 100, v)),
    ("high_snr-n_r", ValueError, "n_r", lambda v: high_snr_decomposition(BASE, v, 10.0, 100, 0)),
    ("high_snr-seed", ValueError, "seed",
     lambda v: high_snr_decomposition(BASE, 1, 10.0, 100, v)),
    ("low_snr-n_r", ValueError, "n_r", lambda v: low_snr_condition(BASE, v)),
    ("random_rotation_baseline-seed", ValueError, "seed",
     lambda v: random_rotation_baseline(BASE, seed=v)),
    ("substream-seed", ValueError, "seed", lambda v: rng.substream(v)),
    ("draw_block-seed", ValueError, "seed", lambda v: DRAW_BLOCK(v, 1, [(0, 0)], 2, 4, 2)),
    ("as_generator-seed", ValueError, "seed", lambda v: rng.as_generator(v)),
    ("draw_trial-n_r", ValueError, "n_r",
     lambda v: draw_trial(BASE, default_encoder(BASE, PAM), v, 10.0, rng.substream(0))),
]


@pytest.fixture
def no_draw(monkeypatch):
    """Make every Monte-Carlo draw of the library raise."""
    def drew(*args, **kwargs):
        raise AssertionError("drew")

    monkeypatch.setattr(rng, "draw_block", drew)
    monkeypatch.setattr(capacity, "sample_channels", drew)


@pytest.mark.parametrize("value", BAD_INTEGERS, ids=repr)
@pytest.mark.parametrize("error, name, call", [entry[1:] for entry in INTEGER_ENTRIES],
                         ids=[entry[0] for entry in INTEGER_ENTRIES])
def test_integer_rule_refuses_before_any_draw(no_draw, error, name, call, value):
    with pytest.raises(error, match=rf"\b{name}\b"):
        call(value)


def test_integer_rule_messages():
    with pytest.raises(UnsupportedSizeError, match=r"^a must be in 1\.\.5, got 6$"):
        build_generators(6)
    with pytest.raises(ValueError, match=r"^trials must be >= 1, got 0$"):
        SimConfig(design=BASE, n_r=1, trials=0)
    with pytest.raises(DesignFormatError, match=r"^T must be an integer, got 2\.0$"):
        _design(T=2.0)
    with pytest.raises(ValueError, match=r"^sign must be the integer \+1 or -1, got 2$"):
        build_generators(1, 2)


def test_numpy_integers_still_accepted():
    assert build_generators(1, np.int64(-1)).sign == -1
    assert build_rate1_4group(1, sign=np.int64(-1)).provenance.endswith("sign=-1")
    wrapped = rng.substream(np.uint64(2**63)).standard_normal()
    assert wrapped == rng.substream(2**63).standard_normal()
    assert square_qam(np.int64(16)) is square_qam(16)
    assert _design(n_t=np.int64(2), T=np.int32(2), layers=np.int8(1)).n_t == 2
    cfg = SimConfig(design=BASE, n_r=np.int64(1), trials=np.int64(3), seed=np.uint64(2**63))
    assert cfg.trials == 3


def test_a_float_size_is_refused_after_its_integer_is_cached():
    square_qam(4)
    with pytest.raises(ValueError, match="size must be an integer, got 4.0"):
        square_qam(4.0)


D2 = build_rate1_4group(2)  # groups of two real symbols: 2 x 2 rotations
ROTATIONS = {
    "nan": np.full((2, 2), np.nan),
    "inf": np.array([[np.inf, 0.0], [0.0, 1.0]]),
    "nan-entry": np.array([[1.0, 0.0], [0.0, np.nan]]),
    "non-square": np.eye(2, 3),
    "not-2-d": np.ones(4),
    "complex": np.eye(2) * 1j,
    "non-orthogonal": np.ones((2, 2)),
    "near-orthogonal": np.eye(2) * (1.0 + 1e-11),
}
ORTHOGONALITY_ENTRIES = [
    ("rotation_from_matrix", "rotation", lambda u: rotation_from_matrix(u)),
    ("Encoder", "encoder rotation", lambda u: Encoder(D2, u, PAM)),
]


@pytest.mark.parametrize("u", ROTATIONS.values(), ids=ROTATIONS.keys())
@pytest.mark.parametrize("name, call", [entry[1:] for entry in ORTHOGONALITY_ENTRIES],
                         ids=[entry[0] for entry in ORTHOGONALITY_ENTRIES])
def test_orthogonality_rule_refuses(name, call, u):
    with pytest.raises(ValueError, match=rf"^{name} "):
        call(u)


def test_a_nan_rotation_never_reaches_the_minimum_determinant():
    # it returned min_det = inf with max_disagreement = 0.0
    w_u = np.full((2, 2), np.nan)
    with pytest.raises(ValueError, match="encoder rotation"):
        min_determinant(D2, Encoder(D2, w_u, PAM))


@pytest.mark.parametrize("alphabet", [np.array([np.nan, 1.0]), np.array([-1.0, np.inf])])
def test_encoder_refuses_a_non_finite_alphabet(alphabet):
    with pytest.raises(ValueError, match="alphabet contains non-finite entries"):
        Encoder(D2, np.eye(2), alphabet)


def test_orthogonal_rotations_pass():
    c, s = np.cos(0.3), np.sin(0.3)
    assert rotation_from_matrix([[c, -s], [s, c]]).dim == 2
    assert rotation_from_matrix(np.eye(3, dtype=int)).U.dtype == float


def test_nan_info_symbols_refused():
    enc = default_encoder(D2, PAM)
    with pytest.raises(AlphabetError, match="info symbol np.float64\\(nan\\)"):
        encode(enc, np.full(8, np.nan))
    with pytest.raises(AlphabetError, match="info symbol np.float64\\(0.5\\)"):
        encode(enc, np.r_[PAM[[0, 1, 0, 1, 0, 1, 0]], 0.5])


def test_nan_constellation_refused():
    with pytest.raises(ValueError, match="constellation power nan"):
        Constellation("x", np.array([np.nan, 1.0]), np.array([np.nan, 1.0]))


@pytest.mark.parametrize("scalar", [np.nan, complex(np.nan, 0.0), np.inf, None, "1", [1.0]],
                         ids=repr)
def test_layer_scalar_must_be_a_unit_number(scalar):
    with pytest.raises(ValueError, match="layer_scalar must be a number of unit modulus"):
        extend_full_rate(BASE, 2, layer_scalar=scalar)


@pytest.mark.parametrize("spec", ["1 2", "1\n2", "0.6+0.8i 1"])
def test_layer_scalar_spec_is_one_number(spec, tmp_path):
    with pytest.raises(ValueError, match="a layer scalar is one number"):
        parse_layer_scalar(spec)
    path = tmp_path / "d.txt"
    with pytest.raises(ValueError, match="a layer scalar is one number"):
        main(["design", "build", "--a", "1", "--layers", "2", "--layer-scalar", spec,
              "--out", str(path)])
    assert not path.exists()


def test_low_snr_check_names_its_snr():
    names = [c.name for c in low_snr_condition(BASE, 1, trials=200, snr=0.1).checks]
    assert "capacity ratio -> 1 at -10 dB (within 5%)" in names
    names = [c.name for c in low_snr_condition(BASE, 1, trials=200).checks]
    assert "capacity ratio -> 1 at -20 dB (within 5%)" in names


class TestMinDetRefusesLayeredDesigns:
    def test_from_a(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["gain", "min-det", "--a", "1", "--layers", "2"])
        assert err.value.code not in (0, None) and "2 layers" in str(err.value.code)
        assert "minimum determinant" not in capsys.readouterr().out

    def test_from_design_file(self, tmp_path, capsys):
        path = tmp_path / "silver.txt"
        save_design(extend_full_rate(BASE, 2), path)
        with pytest.raises(SystemExit) as err:
            main(["gain", "min-det", "--design", str(path)])
        assert err.value.code not in (0, None) and "2 layers" in str(err.value.code)
        assert "minimum determinant" not in capsys.readouterr().out

    def test_rate1_design_still_certified(self, tmp_path, capsys):
        path = tmp_path / "d.txt"
        save_design(BASE, path)
        assert main(["gain", "min-det", "--design", str(path)]) == 0
        assert "minimum determinant: " in capsys.readouterr().out
