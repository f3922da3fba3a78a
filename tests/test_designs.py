from pathlib import Path

import numpy as np
import pytest

from helpers import digest, expected_table_n8, literal_product
from stbc.clifford import build_generators
from stbc.designs import (
    STBCDesign,
    build_rate1_4group,
    codeword,
    design_from_text,
    design_to_text,
    extend_full_rate,
    load_design,
    save_design,
    verify_design,
    verify_group_decodable,
    verify_theorem1,
)
from stbc.errors import (
    DependentExtensionError,
    DesignFormatError,
    DimensionMismatchError,
    StructureError,
    UnsupportedSizeError,
)
from stbc.linalg import tilde_vec, vec

rng = np.random.default_rng(99)


class TestRate1Construction:
    def test_n8_shape(self):
        d = build_rate1_4group(3)
        assert d.n_t == d.T == 8
        assert len(d.weights) == 16
        assert [len(g) for g in d.groups] == [4, 4, 4, 4]
        assert d.rate == 1.0

    def test_n8_matches_published_table_entrywise(self):
        cliff = build_generators(3)
        expected = expected_table_n8(cliff)
        d = build_rate1_4group(3)
        for got, want in zip(d.weights, expected):
            assert np.abs(got - want).max() == 0.0

    def test_n8_group1_fourth_entry(self):
        cliff = build_generators(3)
        d = build_rate1_4group(3)
        want = literal_product(cliff, 1, 2, 3, 4, 5, scalar=1j)
        assert np.abs(d.weights[d.groups[0][3]] - want).max() == 0.0

    def test_group_headers(self):
        cliff = build_generators(3)
        d = build_rate1_4group(3)
        for m in range(3):
            header = d.weights[d.groups[m + 1][0]]
            assert np.array_equal(header, cliff.generators[m])

    def test_a1_is_alamouti_array(self):
        d = build_rate1_4group(1)
        assert len(d.weights) == 4
        s = rng.standard_normal(4)
        got = codeword(d, s)
        z1, z2 = s[0] + 1j * s[1], s[2] + 1j * s[3]
        classic = np.array([[z1, z2], [-np.conj(z2), np.conj(z1)]])
        assert np.abs(got - classic).max() < 1e-14

    def test_group1_closes_up_to_sign(self):
        d = build_rate1_4group(3)
        g1 = [d.weights[i] for i in d.groups[0]]
        for a in g1:
            for b in g1:
                prod = a @ b
                hits = [
                    np.abs(prod - sgn * c).max() < 1e-12
                    for c in g1
                    for sgn in (1, -1)
                ]
                assert any(hits)

    @pytest.mark.parametrize("a", [2, 3, 4])
    def test_group1_diagonal_properties(self, a):
        d = build_rate1_4group(a)
        for i in d.groups[0][1:]:
            w = d.weights[i]
            diag = np.diag(w)
            assert np.abs(w - np.diag(diag)).max() == 0.0
            assert np.abs(np.abs(diag.real) - 1).max() == 0.0
            assert np.abs(diag.imag).max() == 0.0
            assert abs(np.trace(w)) == 0.0
            assert np.array_equal(diag[0::2], diag[1::2])

    def test_unsupported_size(self):
        with pytest.raises(UnsupportedSizeError):
            build_rate1_4group(0)


#: ``verify_design`` summaries of the builtin codes by layer count (their
#: text names no antenna count, so every a shares them)
VERIFY_DESIGN_DIGESTS = {
    1: "10b5bd3f78432dd49b4193c5a343d87c45d215244f097cb7bb0e0d80748333e8",
    2: "f8cb7e58d9995913b364e6b79eade29e1256e118840523a92b84039342d8cb6e",
    3: "34d787479338cbf5376f5cbc95ce970d34e42977efed6c1b3a48e8a82c54c98d",
    4: "848f9d72db459b339a71f7476e7ed5dc93037093f56f3d3410ecb4194d669020",
}


class TestTheorem1:
    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    def test_builtin_designs_pass(self, a):
        base = build_rate1_4group(a)
        assert verify_theorem1(base).summary() == verify_design(base).summary()
        for layers in range(1, min(base.n_t, 4) + 1):
            report = verify_design(extend_full_rate(base, layers))
            assert report.passed, report.summary()
            assert digest(report.summary()) == VERIFY_DESIGN_DIGESTS[layers]

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_every_layer_is_certified_group_decodable(self, a):
        # the dispersion condition holds within each layer, not between
        # groups of different layers; a rate-1 report is verify_theorem1's tail
        base = build_rate1_4group(a)
        report = verify_group_decodable(base)
        assert report.passed and report.checks == verify_design(base).checks[-1:]
        for layers in range(2, min(base.n_t, 4) + 1):
            design = extend_full_rate(base, layers)
            report = verify_group_decodable(design)
            assert report.passed, report.summary()
            assert report.summary() == verify_design(design).summary()

    def test_commuting_headers_fail_with_witness(self):
        # g1 and g1g2g3 commute, so placing them as headers of different
        # groups must trip the anticommutation condition
        cliff = build_generators(2)
        weights = (
            np.eye(4, dtype=complex),
            cliff.generators[0].copy(),
            literal_product(cliff, 1, 2, 3),
            cliff.generators[1].copy(),
        )
        bad = STBCDesign(
            n_t=4,
            T=4,
            weights=tuple(np.ascontiguousarray(w) for w in weights),
            groups=((0,), (1,), (2,), (3,)),
        )
        report = verify_theorem1(bad)
        assert not report.passed
        cond5 = next(c for c in report.checks if c.name.startswith("5"))
        assert not cond5.passed
        assert cond5.witnesses
        assert digest(report.summary()) == (
            "213157f0368a6f88ef9fef78416d54b7a8a8d196311b5cf31e55d791fe607b12")

    def test_flipped_sign_fails(self):
        d = build_rate1_4group(2)
        weights = list(np.array(w) for w in d.weights)
        weights[5] = -weights[5]
        corrupted = STBCDesign(
            n_t=4, T=4, weights=tuple(weights), groups=d.groups
        )
        report = verify_theorem1(corrupted)
        assert not report.passed
        assert digest(report.summary()) == (
            "bb9e9ba0c877a7f9fca3f34902a62b51aacfbcbfba0b97792a49c574c698408f")

    def test_group_longer_than_the_first_fails_the_row_rule(self):
        d = build_rate1_4group(2)
        uneven = STBCDesign(n_t=4, T=4, weights=d.weights,
                            groups=((0, 1), (2, 3, 4), (5,), (6, 7)))
        report = verify_theorem1(uneven)
        row_rule = next(c for c in report.checks if c.name.startswith("6"))
        assert row_rule.witnesses == ["group 2 has more entries than the first group"]


class TestExtension:
    def test_silver_structure(self):
        base = build_rate1_4group(1)
        silver = extend_full_rate(base, 2)
        assert silver.rate == 2.0
        assert silver.cliff is base.cliff
        for i in range(4):
            assert np.abs(silver.weights[4 + i] - 1j * base.weights[i]).max() == 0.0

    def test_n8_layer_multipliers(self):
        cliff = build_generators(3)
        base = build_rate1_4group(3)
        two = extend_full_rate(base, 2)
        assert len(two.weights) == 32
        assert two.rate == 2.0
        # second layer = first layer right-multiplied by generator 4
        f4 = cliff.generators[3]
        for i in range(16):
            assert np.abs(two.weights[16 + i] - base.weights[i] @ f4).max() == 0.0
        three = extend_full_rate(base, 3)
        f6 = cliff.generators[5]
        for i in range(16):
            assert np.abs(three.weights[32 + i] - base.weights[i] @ f6).max() == 0.0

    def test_layer_scalar_applies_to_later_layers(self):
        base = build_rate1_4group(1)
        scal = np.exp(1j * np.pi / 4)
        silver = extend_full_rate(base, 2, layer_scalar=scal)
        assert np.abs(silver.weights[0] - base.weights[0]).max() == 0.0
        assert np.abs(silver.weights[4] - 1j * scal * base.weights[0]).max() < 1e-15

    def test_full_extension_exhausts_at_n_t(self):
        base = build_rate1_4group(2)
        full = extend_full_rate(base, 4)
        assert len(full.weights) == 32
        assert np.linalg.matrix_rank(full.G) == 32

    def test_layer_count_bounds(self):
        base = build_rate1_4group(1)
        with pytest.raises(UnsupportedSizeError):
            extend_full_rate(base, 3)

    def test_non_unit_scalar_rejected(self):
        with pytest.raises(ValueError):
            extend_full_rate(build_rate1_4group(1), 2, layer_scalar=2.0)

    def test_one_layer_is_the_base(self):
        # layer 1's multiplier is the identity and layer_scalar applies to
        # later layers only, but its modulus is still checked
        base = build_rate1_4group(2)
        assert extend_full_rate(base, 1) is base
        assert extend_full_rate(base, 1, layer_scalar=np.exp(1j * np.pi / 4)) is base
        with pytest.raises(ValueError, match="unit modulus"):
            extend_full_rate(base, 1, layer_scalar=2.0)

    def test_each_layer_is_group_decodable(self):
        design = extend_full_rate(build_rate1_4group(2), 2,
                                  layer_scalar=np.exp(1j * np.pi / 4))
        report = verify_design(design)
        assert report.passed
        assert [c.name for c in report.checks] == [
            "layer 1: all cross-group pairs", "layer 2: all cross-group pairs"]

    def test_layer_witnesses_numbered_within_the_layer(self):
        # weights 10 and 11 (layer 2) swapped across groups 5 and 6: the
        # witnesses number the weights from the layer's first one
        d = extend_full_rate(build_rate1_4group(2), 2)
        weights = list(d.weights)
        weights[9], weights[10] = weights[10], weights[9]
        bad = STBCDesign(n_t=4, T=4, weights=tuple(weights), groups=d.groups, layers=2)
        report = verify_design(bad)
        assert [c.passed for c in report.checks] == [True, False]
        assert report.checks[1].witnesses[0] == "groups (1,2) weights (1,3): residual 2.00e+00"
        assert digest(report.summary()) == (
            "391305d09fe5d4774cfe7ecbe7e7326717af09f6a940692d517cd93d7c6089fc")

    def test_group_straddling_layers_rejected(self):
        d = extend_full_rate(build_rate1_4group(2), 2)
        groups = list(d.groups)
        groups[3], groups[4] = (6, 8), (7, 9)
        bad = STBCDesign(n_t=4, T=4, weights=d.weights, groups=tuple(groups), layers=2)
        with pytest.raises(StructureError):
            verify_design(bad)

    def test_labels_of_a_non_exact_layer_scalar(self):
        silver = extend_full_rate(build_rate1_4group(1), 2, layer_scalar=np.exp(1j * np.pi / 4))
        assert silver.labels() == [
            "1", "g1", "g2", "g1g2",
            "(-0.707107+0.707107j).1", "(-0.707107+0.707107j).g1",
            "(-0.707107+0.707107j).g2", "(-0.707107+0.707107j).g1g2",
        ]
        plain = extend_full_rate(build_rate1_4group(1), 2)
        assert plain.labels()[4:] == ["j.1", "j.g1", "j.g2", "j.g1g2"]

    def test_dependent_weights_rejected(self):
        w = np.eye(2, dtype=complex)
        with pytest.raises(DependentExtensionError):
            STBCDesign(n_t=2, T=2, weights=(w, w.copy()), groups=((0,), (1,)))


class TestCodeword:
    def test_unit_vector_picks_weight(self):
        d = build_rate1_4group(2)
        e1 = np.zeros(8)
        e1[0] = 1.0
        assert np.array_equal(codeword(d, e1), d.weights[0])

    def test_zero_vector(self):
        d = build_rate1_4group(2)
        assert np.abs(codeword(d, np.zeros(8))).max() == 0.0

    def test_wrong_length_rejected(self):
        d = build_rate1_4group(2)
        with pytest.raises(DimensionMismatchError):
            codeword(d, np.zeros(7))

    def test_energy_scale(self):
        assert build_rate1_4group(2).energy_scale == 1.0
        silver = extend_full_rate(build_rate1_4group(1), 2)
        assert abs(silver.energy_scale - 1 / np.sqrt(2)) < 1e-15


class TestGeneratorMatrix:
    def test_rate1_a2_orthogonal_columns(self):
        g = build_rate1_4group(2).G
        assert g.shape == (32, 8)
        gram = g.T @ g
        assert np.abs(gram - np.diag(np.diag(gram))).max() < 1e-12

    def test_single_weight_design(self):
        d = STBCDesign(
            n_t=2, T=2, weights=(np.eye(2, dtype=complex),), groups=((0,),)
        )
        g = d.G
        assert g.shape == (8, 1)
        assert np.array_equal(g[:, 0], tilde_vec(vec(np.eye(2))))

    def test_full_rate_n2_invertible(self):
        silver = extend_full_rate(build_rate1_4group(1), 2)
        g = silver.G
        assert g.shape == (8, 8)
        assert abs(np.linalg.det(g)) > 1e-6

    def test_cached_and_read_only(self):
        d = build_rate1_4group(2)
        assert d.G is d.G
        with pytest.raises(ValueError):
            d.G[0, 0] = 1.0

    def test_consistency_with_codeword(self):
        d = extend_full_rate(build_rate1_4group(2), 2)
        g = d.G
        s = rng.standard_normal(16)
        assert np.abs(g @ s - tilde_vec(vec(codeword(d, s)))).max() < 1e-12


class TestDesignFiles:
    def test_roundtrip(self, tmp_path):
        d = extend_full_rate(build_rate1_4group(2), 2,
                             layer_scalar=np.exp(1j * np.pi / 4))
        path = tmp_path / "design.txt"
        save_design(d, path)
        loaded = load_design(path)
        assert loaded.n_t == d.n_t and loaded.T == d.T
        assert loaded.layers == d.layers
        assert loaded.groups == d.groups
        for w1, w2 in zip(loaded.weights, d.weights):
            assert np.array_equal(w1, w2)

    def test_file_with_a_scalars_line_loads(self):
        # written by the format that still carried a "scalars" line
        path = Path(__file__).parent / "data" / "two_layer_a1_pi4.txt"
        assert "\nscalars " in path.read_text()
        loaded = load_design(path)
        d = extend_full_rate(build_rate1_4group(1), 2, layer_scalar=np.exp(1j * np.pi / 4))
        assert (loaded.n_t, loaded.T, loaded.layers) == (d.n_t, d.T, d.layers)
        assert loaded.groups == d.groups
        for w1, w2 in zip(loaded.weights, d.weights, strict=True):
            assert np.array_equal(w1, w2)
        assert "scalars" not in design_to_text(loaded)

    def test_header_required(self):
        with pytest.raises(ValueError):
            design_from_text("nonsense\n")

    def test_design_without_weights_refused(self):
        with pytest.raises(DesignFormatError, match="at least one weight"):
            design_from_text("stbc-design v1\nnt 2\nT 2\n")

    @pytest.mark.parametrize("old, new", [
        ("stbc-design v1", "stbc-design"),   # header
        ("group 1 2", "group 1 two"),        # group index
        ("0.0+1.0i", "0.0+1.0j"),            # weight entry
        ("group 1 2", "group 1"),            # groups no longer a partition
        ("nt 4", "nt abc"),                  # header values
        ("T 4", "T x"),
        ("layers 1", "layers two"),
        ("groups 4", "groups x"),
        ("groups 4", "groups 7"),            # header disagrees with the group lines
    ])
    def test_malformed_text_raises_design_format_error(self, old, new):
        text = design_to_text(build_rate1_4group(2))
        assert old in text
        with pytest.raises(DesignFormatError):
            design_from_text(text.replace(old, new, 1))

    def test_groups_header_is_optional(self):
        d = build_rate1_4group(2)
        text = design_to_text(d)
        assert "\ngroups 4\n" in text
        assert design_from_text(text.replace("\ngroups 4\n", "\n", 1)).groups == d.groups

    @pytest.mark.parametrize("layers, scalars", [
        ("3", "1 1 1"),   # weight 4 would belong to no layer
        ("0", ""),
    ])
    def test_layer_count_must_divide_weight_count(self, layers, scalars):
        # in the older format, with a scalars line (read and ignored)
        text = design_to_text(build_rate1_4group(1))
        text = text.replace("layers 1", f"layers {layers}\nscalars {scalars}", 1)
        with pytest.raises(DesignFormatError, match="layers"):
            design_from_text(text)

    @pytest.mark.parametrize("scale", [2.0, 0.5, 1.0 + 1e-6])
    def test_weights_off_the_stated_energy_refused(self, scale):
        # every weight scaled by 2 would run silently at 4x the SNR
        d = build_rate1_4group(2)
        scaled = STBCDesign(n_t=d.n_t, T=d.T, weights=tuple(scale * w for w in d.weights),
                            groups=d.groups, provenance="scaled")
        with pytest.raises(DesignFormatError, match="weight norm"):
            design_from_text(design_to_text(scaled))

    def test_energy_checked_on_the_mean_not_per_weight(self):
        from stbc.capacity import random_rotation_baseline

        silver_pi4 = extend_full_rate(build_rate1_4group(1), 2,
                                      layer_scalar=np.exp(1j * np.pi / 4))
        d = random_rotation_baseline(silver_pi4)
        norms = [np.linalg.norm(w) ** 2 for w in d.weights]
        assert max(norms) - min(norms) > 0.5  # single weights spread around n_t
        loaded = design_from_text(design_to_text(d))
        assert loaded.n_real_symbols == d.n_real_symbols

    def test_corrupted_sign_detected(self):
        d = build_rate1_4group(2)
        text = design_to_text(d)
        # flip one sign in the serialized form of a header weight
        corrupted = text.replace("-1.0+0.0i", "1.0+0.0i", 1)
        loaded = design_from_text(corrupted)
        report = verify_theorem1(loaded)
        assert not report.passed
        assert any(c.witnesses for c in report.checks if not c.passed)

    def test_loaded_design_cannot_extend(self):
        d = build_rate1_4group(1)
        loaded = design_from_text(design_to_text(d))
        with pytest.raises(ValueError):
            extend_full_rate(loaded, 2)
