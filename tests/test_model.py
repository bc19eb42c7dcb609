import hashlib
import math
import re
import struct
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from byte_edits import edited
from reference_ops import add
from scdnn.autodiff import ShapeError, Tensor
from scdnn.data import stratified_split, synth_generate
from scdnn.layers import BatchNorm1d, cross_entropy, relu
from scdnn.model import (
    BACKBONES,
    MIN_INPUT_LENGTH,
    ModelConfig,
    ModelIOError,
    _ResidualBlock,
    build_model,
    load_model,
    save_model,
    tiny_config,
)
from scdnn.satse import GAMMA_MIN, MASK_INDEX_MODES, SatseBlock
from scdnn.training import Hyperparams, _loss_of, train


@pytest.fixture(scope="module")
def tiny_model():
    return build_model(tiny_config(), seed=11)


@pytest.fixture(scope="module")
def tiny_model_file(tmp_path_factory):
    """A valid file of a one-stage two-lead model, and a path to overwrite."""
    workdir = tmp_path_factory.mktemp("mutants")
    config = tiny_config(n_classes=2, n_leads=2, input_length=16, widths=(2,))
    save_model(build_model(config, seed=0), workdir / "valid.scdn")
    return (workdir / "valid.scdn").read_bytes(), workdir / "mutant.scdn"


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    """A path for a test to write a model file to, and overwrite."""
    return tmp_path_factory.mktemp("models") / "model.scdn"


def _typed(valid, wrong=st.nothing()):
    """Values of a field as (value, of a type its text rule refuses)."""
    return valid.map(lambda v: (v, False)) | wrong.map(lambda v: (v, True))


_NUMPY_INTS = st.sampled_from([np.int64, np.int32, np.uint8])
_BOOLS = st.booleans() | st.booleans().map(np.bool_)


def _ints(lo, hi):
    """An int field's values: ints and numpy integers, or integral floats
    and booleans, which its text rule refuses."""
    return _typed(st.integers(lo, hi) | st.builds(lambda k, v: k(v), _NUMPY_INTS,
                                                  st.integers(lo, hi)),
                  st.integers(lo, hi).map(float) | _BOOLS)


def _floats(lo, hi, ints=st.nothing()):
    """A float field's values: floats, numpy floats and `ints`, or booleans,
    which its text rule refuses."""
    return _typed(st.floats(lo, hi) | st.floats(lo, hi).map(np.float64) | ints,
                  _BOOLS)


# ModelConfig field -> its typed values, each of which meets the field's rule
_TYPED_FIELDS = {
    "n_classes": _ints(1, 5),
    "n_leads": _ints(1, 3),
    "backbone": _typed(st.sampled_from(sorted(BACKBONES))),
    "satse_blocks": _ints(0, 4),
    "fixed_phi": _typed(st.none()) | _floats(0.05, 0.95),
    "mask_index_mode": _typed(st.sampled_from(MASK_INDEX_MODES)),
    "double_softmax": _typed(_BOOLS | st.sampled_from([0, 1]),
                             st.integers(2, 5)),
    "stem_maxpool": _typed(_BOOLS | st.sampled_from([0, 1]), st.integers(2, 5)),
    "precision": _typed(st.sampled_from(["real32", "real64"])),
    "input_length": _ints(16, 64),
    "stage_widths": st.tuples(
        st.lists(_ints(1, 4) | _typed(st.nothing(), st.floats(1.1, 3.9)),
                 min_size=1, max_size=4),
        st.sampled_from([tuple, list]),
    ).map(lambda drawn: (drawn[1](v for v, _ in drawn[0]),
                         any(bad for _, bad in drawn[0]))),
    "phi_init": _floats(0.05, 0.95),
    "gamma_init": _floats(0.001, 4.0, st.integers(1, 4)),
}


class TestConfig:
    def test_text_roundtrip(self):
        cfg = ModelConfig(n_classes=5, backbone="resnet34", fixed_phi=0.2,
                          input_length=512, satse_blocks=2,
                          stage_widths=(8, 16), double_softmax=True)
        back = ModelConfig.from_text(cfg.to_text())
        assert back == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ModelConfig.from_text("n_classes=3\nbogus=1\n")

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(n_classes=0)
        with pytest.raises(ValueError):
            ModelConfig(n_classes=2, backbone="resnet99")
        with pytest.raises(ValueError):
            ModelConfig(n_classes=2, fixed_phi=1.5)

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_leads": 0}, "^n_leads must be positive$"),
        ({"input_length": MIN_INPUT_LENGTH - 1},
         f"^input_length must be at least {MIN_INPUT_LENGTH}$"),
    ], ids=["n_leads", "input_length"])
    def test_lead_count_and_input_length_checked(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ModelConfig(n_classes=2, **kwargs)

    @pytest.mark.parametrize("widths", [(0, 8), (4, 0), (-2, 8)])
    def test_stage_width_below_one_rejected(self, widths):
        with pytest.raises(ValueError, match="stage widths must be at least 1"):
            tiny_config(widths=widths)

    @pytest.mark.parametrize("widths", [(), (4, 8, 8, 8, 8)])
    def test_stage_count_outside_one_to_four_rejected(self, widths):
        with pytest.raises(ValueError, match="stage_widths must list 1 to 4 stages"):
            tiny_config(widths=widths)

    def test_stage_count_is_the_number_of_widths(self):
        assert ModelConfig(n_classes=2).stage_widths == (64, 128, 256, 512)
        cfg = ModelConfig.from_text("n_classes=3\nstage_widths=4,8\n")
        model = build_model(replace(cfg, input_length=64), seed=0)
        assert [c for c, _ in model.stage_shapes] == [4, 8]

    def test_satse_count_helper(self):
        cfg = ModelConfig(n_classes=2).with_satse_count(2)
        assert cfg.satse_blocks == 2

    @pytest.mark.parametrize("count", [-1, 5])
    def test_satse_count_out_of_range_rejected(self, count):
        with pytest.raises(ValueError, match=r"satse block count must be 0\.\.4"):
            ModelConfig(n_classes=2).with_satse_count(count)

    @pytest.mark.parametrize("kwargs, message", [
        ({"phi_init": 1.0}, r"phi_init must lie in \(0, 1\), got 1.0"),
        ({"phi_init": 0.0}, "phi_init must lie in"),
        ({"phi_init": float("nan")}, "phi_init must lie in"),
        ({"fixed_phi": 1.5}, "fixed_phi must lie in"),
        ({"fixed_phi": -0.2, "phi_init": 0.3}, "fixed_phi must lie in"),
        ({"gamma_init": 0.0}, "gamma_init must be at least 0.001, got 0.0"),
        ({"gamma_init": float("nan")}, "gamma_init must be at least"),
        ({"fixed_phi": 0.3, "phi_init": 5.0}, "phi_init must lie in"),
        ({"gamma_init": float("inf")}, "^gamma_init must be finite, got inf$"),
    ])
    def test_initial_phi_and_gamma_checked(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ModelConfig(n_classes=2, **kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"phi_init": 1.0}, r"^phi_init must lie in \(0, 1\), got 1.0$"),
        ({"gamma_init": 0.0}, "^gamma_init must be at least 0.001, got 0.0$"),
        ({"mask_index_mode": "folded"}, "^unknown mask_index_mode 'folded'$"),
    ])
    def test_config_and_block_refuse_alike(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ModelConfig(n_classes=2, **kwargs)
        with pytest.raises(ValueError, match=message):
            SatseBlock(2, 8, **kwargs)

    def test_initial_phi_is_the_fixed_phi_when_set(self):
        assert ModelConfig(n_classes=2, phi_init=0.3).initial_phi == 0.3
        cfg = ModelConfig(n_classes=2, fixed_phi=0.2, phi_init=0.3)
        assert cfg.initial_phi == 0.2
        model = build_model(replace(cfg, input_length=64), seed=0)
        assert [row[0] for row in model.satse_snapshot()] == [0.2] * 4

    @settings(max_examples=100, deadline=None)
    @given(phi=st.floats(), gamma=st.floats(), fixed=st.none() | st.floats())
    def test_config_that_validates_builds(self, phi, gamma, fixed):
        try:
            cfg = tiny_config(widths=(2,), input_length=16, phi_init=phi,
                              gamma_init=gamma, fixed_phi=fixed)
        except ValueError:
            return
        build_model(cfg, seed=0)

    @pytest.mark.parametrize("line", [
        "double_softmax=yes",
        "double_softmax=",
        "stem_maxpool=TRUE",
    ])
    def test_malformed_boolean_rejected(self, line):
        with pytest.raises(ValueError):
            ModelConfig.from_text(f"n_classes=3\n{line}\n")

    def test_boolean_spellings_accepted(self):
        cfg = ModelConfig.from_text(
            "n_classes=3\ndouble_softmax=true\nstem_maxpool=False\n")
        assert cfg.double_softmax and not cfg.stem_maxpool

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_text_roundtrip_property(self, data):
        cfg = ModelConfig(
            n_classes=data.draw(st.integers(1, 10_000)),
            n_leads=data.draw(st.integers(1, 64)),
            backbone=data.draw(st.sampled_from(sorted(BACKBONES))),
            satse_blocks=data.draw(st.integers(0, 4)),
            fixed_phi=data.draw(st.none() | st.floats(
                0.0, 1.0, exclude_min=True, exclude_max=True)),
            mask_index_mode=data.draw(st.sampled_from(MASK_INDEX_MODES)),
            double_softmax=data.draw(st.booleans()),
            stem_maxpool=data.draw(st.booleans()),
            precision=data.draw(st.sampled_from(["real32", "real64"])),
            input_length=data.draw(st.none() | st.integers(8, 1 << 20)),
            stage_widths=data.draw(st.lists(st.integers(1, 1024), min_size=1,
                                            max_size=4).map(tuple)),
            phi_init=data.draw(st.floats(0.0, 1.0, exclude_min=True,
                                         exclude_max=True)),
            gamma_init=data.draw(st.floats(GAMMA_MIN, allow_infinity=False)),
        )
        assert ModelConfig.from_text(cfg.to_text()) == cfg

    @pytest.mark.parametrize("overrides, key, text", [
        ({"satse_blocks": 2.0}, "satse_blocks", "2.0"),
        ({"satse_blocks": True}, "satse_blocks", "True"),
        ({"input_length": 64.0}, "input_length", "64.0"),
        ({"widths": (4.7, 8)}, "stage_widths", "4.7"),
    ])
    def test_python_value_read_by_its_key_rule(self, model_path, overrides,
                                               key, text):
        model_path.unlink(missing_ok=True)
        with pytest.raises(ValueError, match=f"^config key {key}: "
                                             f"{re.escape(repr(text))} is not int$"):
            save_model(build_model(tiny_config(**overrides)), model_path)
        assert not model_path.exists()

    def test_value_read_as_its_text_reads(self):
        cfg = tiny_config(n_leads=np.int64(2), widths=[np.uint8(4), 8],
                          gamma_init=2, double_softmax=1)
        assert cfg == tiny_config(n_leads=2, widths=(4, 8), gamma_init=2.0,
                                  double_softmax=True)
        values = (cfg.n_leads, cfg.gamma_init, cfg.double_softmax,
                  cfg.stage_widths, *cfg.stage_widths)
        assert [type(v) for v in values] == [int, float, bool, tuple, int, int]

    def test_empty_width_list_gets_the_stage_count_message(self):
        with pytest.raises(ValueError, match=r"^stage_widths must list 1 to 4 "
                                             r"stages, got \(\)$"):
            ModelConfig.from_text("n_classes=3\nstage_widths=\n")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_typed_values_refused_naming_a_field_or_survive_a_file(
            self, model_path, data):
        chosen = data.draw(st.sets(st.sampled_from(sorted(_TYPED_FIELDS))),
                           label="fields")
        drawn = {name: data.draw(_TYPED_FIELDS[name], label=name)
                 for name in sorted(chosen)}
        kwargs = {"n_classes": 3, "input_length": 32, "stage_widths": (2, 4)}
        kwargs.update({name: value for name, (value, _) in drawn.items()})
        wrong = {name for name, (_, bad) in drawn.items() if bad}
        try:
            cfg = ModelConfig(**kwargs)
        except ValueError as exc:
            assert re.match(r"config key (\w+): ", str(exc))[1] in wrong, exc
            return
        assert not wrong
        for name, value in kwargs.items():
            expect = tuple(value) if name == "stage_widths" else value
            assert getattr(cfg, name) == expect, name
        save_model(build_model(cfg), model_path)
        assert load_model(model_path).config == cfg

    def test_repeated_key_rejected(self):
        with pytest.raises(ValueError,
                           match="'n_classes' repeated on lines 1 and 3"):
            ModelConfig.from_text("n_classes=3\n# comment\n n_classes = 7\n")

    @pytest.mark.parametrize("text, key", [
        ("n_classes=None", "n_classes"),
        ("n_classes=3\ngamma_init=None", "gamma_init"),
        ("n_classes=3\ndouble_softmax=None", "double_softmax"),
        ("n_classes=3\nsatse_blocks=None", "satse_blocks"),
        ("n_classes=3\nstage_widths=2.0", "stage_widths"),
        ("n_classes=3\nstage_widths=4,,8", "stage_widths"),
        ("phi_init=0.3", "n_classes"),
    ])
    def test_bad_or_missing_value_names_its_key(self, text, key):
        with pytest.raises(ValueError, match=f"config key '?{key}\\b"):
            ModelConfig.from_text(text)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_parses_or_raises_value_error_property(self, data):
        keys = st.sampled_from([f.name for f in fields(ModelConfig)]) | st.text(
            max_size=6)
        words = st.sampled_from(["None", "", "0", "1", "true", "False", "nan",
                                 "-1", "4,8", "1,0,1,1", "resnet34", "literal",
                                 "real32"])
        values = (words | st.integers(-3, 2000).map(str)
                  | st.floats(allow_nan=False).map(repr) | st.text(max_size=8)
                  | st.lists(words | st.integers(-3, 64).map(str),
                             min_size=1, max_size=5).map(",".join))
        lines = st.lists(st.tuples(keys, values).map("=".join)
                         | st.sampled_from(["# note", "", "n_classes=3"]),
                         max_size=8)
        text = "\n".join(data.draw(lines))
        try:
            cfg = ModelConfig.from_text(text)
        except ValueError:
            return
        assert ModelConfig.from_text(cfg.to_text()).to_text() == cfg.to_text()


class TestBuild:
    def test_resnet18_head_width(self):
        m = build_model(ModelConfig(n_classes=5, input_length=512), seed=0)
        assert m.head.weight.data.shape == (5, 1024)
        assert [c for c, _ in m.stage_shapes] == [64, 128, 256, 512]

    def test_resnet50_expansion(self):
        m = build_model(
            ModelConfig(n_classes=2, backbone="resnet50", input_length=512), seed=0
        )
        assert [c for c, _ in m.stage_shapes] == [256, 512, 1024, 2048]

    def test_stage_lengths_follow_stride_plan(self):
        m = build_model(ModelConfig(n_classes=2, input_length=512), seed=0)
        assert [l for _, l in m.stage_shapes] == [128, 64, 32, 16]
        m2 = build_model(
            ModelConfig(n_classes=2, input_length=512, stem_maxpool=False), seed=0
        )
        assert [l for _, l in m2.stage_shapes] == [256, 128, 64, 32]

    @pytest.mark.parametrize("stem_maxpool", [True, False])
    def test_every_length_from_the_smallest_builds_and_runs(self, stem_maxpool):
        for length in range(MIN_INPUT_LENGTH, 40):
            cfg = tiny_config(input_length=length, widths=(2, 2, 2, 2),
                              stem_maxpool=stem_maxpool)
            model = build_model(cfg, seed=0)
            expected = (length - 1) // 2 + 1
            if stem_maxpool:
                expected = (expected - 1) // 2 + 1
            for s, (_, got) in enumerate(model.stage_shapes):
                if s:
                    expected = (expected - 1) // 2 + 1
                assert got == expected >= 1
            # each SATSE block checks that its input has the stage's length
            logits = model.forward(np.zeros((2, 12, length)), "eval")
            assert logits.data.shape == (2, 3)

    def test_identical_seeds_identical_params(self):
        a = build_model(tiny_config(), seed=4)
        b = build_model(tiny_config(), seed=4)
        for (ka, pa), (kb, pb) in zip(a.named_parameters().items(),
                                      b.named_parameters().items()):
            assert ka == kb
            assert np.array_equal(pa.data, pb.data)
        c = build_model(tiny_config(), seed=5)
        assert not np.array_equal(
            a.stem_conv.weight.data, c.stem_conv.weight.data
        )

    def test_satse_parameter_count_delta(self):
        with_satse = build_model(tiny_config(), seed=0)
        without = build_model(tiny_config(satse_blocks=0), seed=0)
        delta = with_satse.parameter_count() - without.parameter_count()
        expected = sum(2 * c * l + 4 for c, l in with_satse.stage_shapes)
        assert delta == expected

    @settings(max_examples=40, deadline=None)
    @given(n_stages=st.integers(1, 4), count=st.integers(0, 4),
           phi=st.sampled_from([0.2, 0.4]), gamma=st.sampled_from([0.5, 2.0]))
    def test_blocks_sit_on_the_first_stages(self, n_stages, count, phi, gamma):
        config = tiny_config(n_classes=2, n_leads=2, input_length=32,
                             widths=(2,) * n_stages, satse_blocks=count,
                             phi_init=phi, gamma_init=gamma)
        model = build_model(config, seed=0)
        on = [s < count for s in range(n_stages)]
        assert [b is not None for b in model.satse] == on
        assert {name.split(".")[0] for name in model.named_parameters()
                if name.startswith("satse")} == {
            f"satse{s + 1}" for s in range(n_stages) if on[s]}
        # row 0 before any update, row 1 after one epoch of them
        ds = stratified_split(synth_generate(4, 2, n_leads=2, length=32),
                              (0.5, 0.25, 0.25))
        rows = train(model, ds, Hyperparams(epochs=2, batch_size=4, lr=1e-2,
                                            lr_drop_epoch=2)).rows
        for s in range(4):
            first, after = ((row.phi[s], row.gamma[s], row.lam_low[s],
                             row.lam_high[s]) for row in rows)
            assert first == (phi, gamma, 0.0, 0.0)
            assert (after == first) == (s >= min(count, n_stages))

    def test_unset_input_length_refused(self):
        with pytest.raises(ValueError, match="^config.input_length must be set "
                                             "before building$"):
            build_model(ModelConfig(n_classes=2))

    def test_unsupported_backbone_fails(self):
        with pytest.raises(ValueError, match="backbone"):
            ModelConfig(n_classes=2, backbone="vgg")

    def test_parameter_names_unique(self, tiny_model):
        names = list(tiny_model.named_parameters())
        assert len(names) == len(set(names))

    def test_fixed_phi_frozen(self):
        m = build_model(tiny_config(fixed_phi=0.2), seed=0)
        for sat in m.satse:
            assert sat.phi.requires_grad is False
            assert float(sat.phi.data) == 0.2
        assert "satse1.phi" not in m.trainable_parameters()

    # (config overrides, expected count): tiny_config has 10 batchnorms
    # (stem, four blocks of two, one projection) and two SATSE blocks.
    @pytest.mark.parametrize("overrides, count", [
        ({}, 20 + 2 * 4),
        ({"fixed_phi": 0.2}, 20 + 2 * 4),
    ])
    def test_weight_decay_exempt_is_batchnorm_affine_and_satse_scalars(
            self, overrides, count):
        m = build_model(tiny_config(**overrides), seed=0)
        bns = [m.stem_bn] + [layer for blocks in m.stages for block in blocks
                             for layer in block.named_layers().values()
                             if isinstance(layer, BatchNorm1d)]
        scalars = [t for bn in bns for t in (bn.scale, bn.shift)]
        scalars += [t for sat in m.satse if sat is not None
                    for t in (sat.phi, sat.gamma, sat.lambda_low,
                              sat.lambda_high)]
        expect = {name for name, p in m.named_parameters().items()
                  if any(p is t for t in scalars)}
        assert m.weight_decay_exempt == expect
        assert len(expect) == count


class TestResidualBlock:
    # (c_in, c_out, kernel, stride, padding) per conv, as in He et al.
    @pytest.mark.parametrize("kind, c_in, width, stride, convs", [
        ("basic", 6, 6, 1, {"conv1": (6, 6, 3, 1, 1), "conv2": (6, 6, 3, 1, 1)}),
        ("basic", 4, 6, 2, {"conv1": (4, 6, 3, 2, 1), "conv2": (6, 6, 3, 1, 1),
                            "proj": (4, 6, 1, 2, 0)}),
        ("bottleneck", 12, 3, 1, {"conv1": (12, 3, 1, 1, 0),
                                  "conv2": (3, 3, 3, 1, 1),
                                  "conv3": (3, 12, 1, 1, 0)}),
        ("bottleneck", 4, 3, 2, {"conv1": (4, 3, 1, 1, 0), "conv2": (3, 3, 3, 2, 1),
                                 "conv3": (3, 12, 1, 1, 0),
                                 "proj": (4, 12, 1, 2, 0)}),
    ])
    def test_layers_and_wiring(self, kind, c_in, width, stride, convs):
        rng = np.random.default_rng(3)
        block = _ResidualBlock(kind, c_in, width, stride, rng, np.float64)
        layers = block.named_layers()
        assert [n for n in layers if "bn" not in n] == list(convs)
        bn_of = {n: layers["proj_bn" if n == "proj" else "bn" + n[4:]]
                 for n in convs}
        for name, (ci, co, kernel, s, pad) in convs.items():
            conv = layers[name]
            assert conv.weight.data.shape == (co, ci, kernel)
            assert not hasattr(conv, "bias")
            assert (conv.stride, conv.padding) == (s, pad)
            assert bn_of[name].channels == co

        def pair(name, h):
            return bn_of[name].forward(layers[name].forward(h), "train", False)

        x = Tensor(rng.normal(size=(3, c_in, 10)))
        h = pair("conv1", x)
        for name in [n for n in convs if n.startswith("conv")][1:]:
            h = pair(name, relu(h))
        shortcut = pair("proj", x) if "proj" in convs else x
        expect = relu(add(h, shortcut)).data
        got = block.forward(x, "train", False).data
        np.testing.assert_array_equal(got, expect)


class TestForward:
    def test_shape_and_finiteness(self, tiny_model):
        rng = np.random.default_rng(0)
        logits = tiny_model.forward(rng.normal(size=(2, 12, 64)), "train")
        assert logits.data.shape == (2, 3)
        assert np.all(np.isfinite(logits.data))

    def test_zero_gain_blocks_match_disabled_blocks_bitwise(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 12, 64))
        enabled = build_model(tiny_config(), seed=7)
        disabled = build_model(tiny_config(satse_blocks=0), seed=7)
        a = enabled.forward(x, "eval").data
        b = disabled.forward(x, "eval").data
        assert np.array_equal(a, b)

    def test_amplitude_scaling_changes_logits(self, tiny_model):
        # raw amplitudes matter: no hidden global normalization in eval mode
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 12, 64))
        a = tiny_model.forward(x, "eval").data
        b = tiny_model.forward(2.0 * x, "eval").data
        assert not np.allclose(a, b)

    def test_eval_forward_pure(self, tiny_model):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 12, 64))
        a = tiny_model.forward(x, "eval").data
        b = tiny_model.forward(x, "eval").data
        assert np.array_equal(a, b)

    def test_wrong_lead_count_fails(self, tiny_model):
        with pytest.raises(ShapeError, match="leads"):
            tiny_model.forward(np.zeros((2, 5, 64)))

    def test_nonfinite_activation_names_stage(self):
        m = build_model(tiny_config(), seed=0)
        x = np.full((2, 12, 64), 1e308)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError,
                                                      match="stage 1"):
            m.forward(x, "eval")

    def test_training_graph_node_count(self):
        # 86 parameter leaves, the input and 39 interior nodes: 9 nodes of a
        # batchnorm, its relu and the layer it feeds (the stem max-pool, and
        # each block's second conv), the other 12 convs and 11 batchnorms
        # (8 ending a block, with the shortcut add and relu fused in, and
        # 3 projections), 4 SATSE blocks, the pooled head features (average
        # and max in one node), the head and the loss.
        m = build_model(ModelConfig(n_classes=4, input_length=128,
                                    stage_widths=(4, 8, 12, 16)), seed=3)
        x = np.random.default_rng(0).normal(size=(4, 12, 128))
        loss = cross_entropy(m.forward(x, "train"), np.arange(4))
        seen, stack = set(), [loss]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(node._parents)
        assert len(m.named_parameters()) == 86
        assert len(seen) == 126

    def test_training_tape_holds_no_batchnorm_relu_output(self):
        # The interior nodes of a tiny resnet18's training graph, batch 2:
        # widths 4 and 8, L = 64, stem max-pool on, both SATSE blocks on.
        # A batchnorm-relu output that feeds only a conv or the max-pool is
        # recomputed in backward, so no node holds one.
        m = build_model(tiny_config(), seed=3)
        x = np.random.default_rng(0).normal(size=(2, 12, 64))
        loss = cross_entropy(m.forward(x, "train"), np.arange(2))
        seen, stack, held = {id(loss)}, [loss], []
        while stack:
            node = stack.pop()
            if node._parents:
                held.append(node.data)
            for p in node._parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append(p)
        expect = (
            [(2, 4, 32), (2, 4, 16)]  # stem conv; batchnorm-relu-max-pool
            # stage 1, per block: conv1, batchnorm-relu-conv2, batchnorm
            # with shortcut and relu; then SATSE
            + [(2, 4, 16)] * (2 * 3 + 1)
            # stage 2: projection conv and batchnorm, two blocks, SATSE
            + [(2, 8, 8)] * (2 + 2 * 3 + 1)
            + [(2, 16), (2, 3), ()]  # pooled features, logits, loss
        )
        assert sorted(a.shape for a in held) == sorted(expect)
        assert sum(a.nbytes for a in held) == 8 * sum(
            math.prod(shape) for shape in expect)

    def test_train_mode_updates_running_stats_eval_does_not(self):
        m = build_model(tiny_config(), seed=2)
        before = m.stem_bn.running_mean.copy()
        x = np.random.default_rng(4).normal(size=(2, 12, 64))
        m.forward(x, "eval")
        np.testing.assert_array_equal(m.stem_bn.running_mean, before)
        m.forward(x, "train")
        assert not np.array_equal(m.stem_bn.running_mean, before)


class TestPersistence:
    def test_roundtrip_bitwise(self, tmp_path):
        m = build_model(tiny_config(), seed=9)
        rng = np.random.default_rng(5)
        m.forward(rng.normal(size=(4, 12, 64)), "train")  # move running stats
        x = rng.normal(size=(2, 12, 64))
        expect = m.forward(x, "eval").data
        path = tmp_path / "model.scdn"
        save_model(m, path)
        loaded = load_model(path)
        assert loaded.config == m.config
        np.testing.assert_array_equal(loaded.forward(x, "eval").data, expect)
        for name, p in m.named_parameters().items():
            np.testing.assert_array_equal(loaded.named_parameters()[name].data,
                                          p.data)
        for name, buf in m.named_buffers().items():
            np.testing.assert_array_equal(loaded.named_buffers()[name], buf)

    def test_loaded_arrays_are_writable_and_own_their_memory(self, tmp_path):
        path = tmp_path / "model.scdn"
        save_model(build_model(tiny_config(), seed=9), path)
        raw = path.read_bytes()
        loaded = load_model(path)
        arrays = [p.data for p in loaded.named_parameters().values()]
        arrays += loaded.named_buffers().values()
        for arr in arrays:
            assert arr.flags.writeable
            base = arr
            while isinstance(base, np.ndarray) and base.base is not None:
                base = base.base
            assert isinstance(base, np.ndarray)  # not the file's bytes
            arr[...] = 7  # writes reach the model, not the file
        assert path.read_bytes() == raw
        assert float(loaded.satse[1].lambda_low.data) == 7.0

    # SHA-256 of save_model's bytes for two seeded builds. They pin the
    # registry's names and order, the construction order and the initial
    # values; a change to any of them needs a new model format version.
    # They also pin the embedded config text, which lists every ModelConfig
    # field, so a field added or removed changes them too.
    GOLDEN = {
        "resnet18": (
            ModelConfig(n_classes=5, backbone="resnet18", input_length=128,
                        stage_widths=(4, 8, 12, 16),
                        satse_blocks=3),
            "7ce1ba9afd338912a427edc6a4cee0cf7bc11e40eb5694d49787a09c409bd14f",
        ),
        "resnet50": (
            ModelConfig(n_classes=3, n_leads=2, backbone="resnet50",
                        input_length=96, stage_widths=(2, 4, 6),
                        precision="real32"),
            "4d997ad14f0c174ec58fc18e7fc2272c305284b7a0f6af0e05070385a21e7ced",
        ),
    }

    @pytest.mark.parametrize("backbone", sorted(GOLDEN))
    def test_golden_model_file_digest(self, tmp_path, backbone):
        config, digest = self.GOLDEN[backbone]
        path = tmp_path / "model.scdn"
        save_model(build_model(config, seed=11), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.scdn"
        save_model(build_model(tiny_config(), seed=9), path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"garbage")
        with pytest.raises(ModelIOError, match=f"trailing bytes .* offset {size}"):
            load_model(path)

    def test_repeated_entry_rejected(self, tmp_path):
        m = build_model(tiny_config(), seed=9)
        path = tmp_path / "model.scdn"
        save_model(m, path)
        raw = path.read_bytes()
        # Header: magic, version u16, config length u32, config, entry count.
        cfg_len = struct.unpack_from("<I", raw, 6)[0]
        count_at = 10 + cfg_len
        count = struct.unpack_from("<I", raw, count_at)[0]
        name, first = next(iter(m.named_parameters().items()))
        start = count_at + 4
        size = 2 + len(name) + 2 + 4 * first.data.ndim + first.data.nbytes
        entry = raw[start : start + size]
        assert entry[2 : 2 + len(name)] == name.encode()
        path.write_bytes(raw[:count_at] + struct.pack("<I", count + 1)
                         + entry + raw[start:])
        with pytest.raises(ModelIOError, match=f"repeated entry '{name}'"):
            load_model(path)

    def test_entry_name_not_utf8_reports_offset(self, tmp_path):
        m = build_model(tiny_config(), seed=9)
        path = tmp_path / "model.scdn"
        save_model(m, path)
        raw = bytearray(path.read_bytes())
        cfg_len = struct.unpack_from("<I", raw, 6)[0]
        name_at = 10 + cfg_len + 4 + 2  # the first entry's name bytes
        name = next(iter(m.named_parameters()))
        assert raw[name_at : name_at + len(name)] == name.encode()
        raw[name_at + 1] = 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelIOError,
                           match=f"entry name is not UTF-8 at offset {name_at}"):
            load_model(path)

    def test_malformed_embedded_boolean_rejected(self, tmp_path):
        path = tmp_path / "model.scdn"
        save_model(build_model(tiny_config(), seed=9), path)
        raw = path.read_bytes()
        bad = raw.replace(b"double_softmax=False", b"double_softmax=Falsy")
        assert bad != raw
        path.write_bytes(bad)
        with pytest.raises(ModelIOError, match="not a boolean"):
            load_model(path)

    def test_repeated_embedded_key_rejected(self, tmp_path):
        path = tmp_path / "model.scdn"
        save_model(build_model(tiny_config(), seed=9), path)
        raw = path.read_bytes()
        cfg_len = struct.unpack_from("<I", raw, 6)[0]
        cfg = raw[10 : 10 + cfg_len] + b"n_classes=7\n"
        path.write_bytes(raw[:6] + struct.pack("<I", len(cfg)) + cfg
                         + raw[10 + cfg_len :])
        with pytest.raises(ModelIOError, match="'n_classes' repeated on lines"):
            load_model(path)

    # files from before the stage count came from stage_widths, from before
    # every block kept its own branch gains, and from before the blocks were
    # set by one count
    @pytest.mark.parametrize("line", ["n_stages=2", "tie_lambdas=0",
                                      "satse_blocks_enabled=1,1,1,1"])
    def test_file_with_a_retired_key_is_refused_naming_it(self, tmp_path,
                                                          line):
        path = tmp_path / "model.scdn"
        save_model(build_model(tiny_config(), seed=9), path)
        raw = path.read_bytes()
        cfg_len = struct.unpack_from("<I", raw, 6)[0]
        cfg = raw[10 : 10 + cfg_len].replace(
            b"stage_widths=", f"{line}\nstage_widths=".encode())
        path.write_bytes(raw[:6] + struct.pack("<I", len(cfg)) + cfg
                         + raw[10 + cfg_len :])
        key = line.split("=")[0]
        with pytest.raises(ModelIOError,
                           match=rf"unknown config keys: \['{key}'\]"):
            load_model(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.scdn"
        path.write_bytes(b"XXXX" + bytes(64))
        with pytest.raises(ModelIOError, match="magic"):
            load_model(path)

    def test_truncation_rejected(self, tmp_path):
        # Every cut in the header, the config, the entry count and each
        # entry's name, dtype and shape fields, and the first, middle and
        # last cut inside each entry's values: cuts within one value block
        # all fail at the same read, so the others add only time.
        m = build_model(tiny_config(), seed=9)
        arrays = {name: p.data for name, p in m.named_parameters().items()}
        arrays.update(m.named_buffers())
        path = tmp_path / "model.scdn"
        save_model(m, path)
        raw = path.read_bytes()
        at = 10 + struct.unpack_from("<I", raw, 6)[0]
        count = struct.unpack_from("<I", raw, at)[0]
        at += 4
        cuts = set(range(at))
        for _ in range(count):
            start = at
            n = struct.unpack_from("<H", raw, at)[0]
            name = raw[at + 2 : at + 2 + n].decode()
            at += 2 + n
            at += 2 + 4 * raw[at + 1]
            cuts.update(range(start, at + 1))
            size = arrays[name].nbytes
            cuts.update((at + size // 2, at + size - 1))
            at += size
        assert at == len(raw) and len(cuts) > 1000
        cuts.update((len(raw) // 2, len(raw) - 5))
        for cut in sorted(cuts):
            path.write_bytes(raw[:cut])
            with pytest.raises(ModelIOError, match="truncated"):
                load_model(path)

    def test_wrong_version_rejected(self, tmp_path):
        m = build_model(tiny_config(), seed=9)
        path = tmp_path / "model.scdn"
        save_model(m, path)
        raw = bytearray(path.read_bytes())
        raw[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelIOError, match="version"):
            load_model(path)

    def _saved_with(self, tmp_path, edit):
        """Save a tiny model after `edit(model)` alters what gets written."""
        m = build_model(tiny_config(), seed=9)
        edit(m)
        path = tmp_path / "model.scdn"
        save_model(m, path)
        return path

    def test_unexpected_entry_rejected(self, tmp_path):
        path = self._saved_with(tmp_path, lambda m: None)
        path.write_bytes(path.read_bytes().replace(b"head.fc.bias",
                                                   b"head.fc.bogs"))
        with pytest.raises(ModelIOError, match="unexpected entry 'head.fc.bogs'"):
            load_model(path)

    def test_missing_entry_rejected(self, tmp_path):
        path = self._saved_with(tmp_path, lambda m: m._params.pop("head.fc.bias"))
        with pytest.raises(ModelIOError, match="missing entries.*head.fc.bias"):
            load_model(path)

    @pytest.mark.parametrize("name", ["head.fc.bias", "stem.bn.running_mean"])
    def test_wrong_shape_rejected(self, tmp_path, name):
        def edit(m):
            if name in m._params:
                m._params[name].data = np.zeros(5)
            else:
                m.stem_bn.running_mean = np.zeros(5)

        path = self._saved_with(tmp_path, edit)
        with pytest.raises(ModelIOError,
                           match=rf"'{name}' has shape \(5,\), model expects"):
            load_model(path)

    def test_shape_product_past_int64_reported_as_truncated(self, tmp_path):
        # 65536**4 wraps to 0 in int64; the file holds no values for it.
        path = self._saved_with(tmp_path, lambda m: None)
        raw = path.read_bytes()
        count_at = 10 + struct.unpack_from("<I", raw, 6)[0]
        name = b"stem.conv.weight"
        entry = (struct.pack("<H", len(name)) + name + struct.pack("<BB", 0, 4)
                 + struct.pack("<4I", *(65536,) * 4))
        path.write_bytes(raw[:count_at] + struct.pack("<I", 1) + entry)
        with pytest.raises(ModelIOError, match="truncated"):
            load_model(path)

    def _with_first_entry(self, tmp_path, header):
        """A saved tiny model cut to one entry that starts with `header`."""
        path = self._saved_with(tmp_path, lambda m: None)
        raw = path.read_bytes()
        count_at = 10 + struct.unpack_from("<I", raw, 6)[0]
        name = b"stem.conv.weight"
        head = raw[:count_at] + struct.pack("<IH", 1, len(name)) + name
        path.write_bytes(head + header)
        return path, len(head)

    def test_rank_above_limit_reports_offset(self, tmp_path):
        # numpy 2 refuses a rank above 64; the reader stops at the rank byte
        path, code_at = self._with_first_entry(tmp_path, struct.pack("<BB", 0, 65)
                                               + bytes(4 * 65))
        with pytest.raises(ModelIOError,
                           match=f"'stem.conv.weight' has rank 65 at offset "
                                 f"{code_at + 1}"):
            load_model(path)

    def test_empty_shape_numpy_cannot_hold_rejected(self, tmp_path):
        path, _ = self._with_first_entry(
            tmp_path, struct.pack("<BB4I", 0, 4, 0, *(2**32 - 1,) * 3))
        with pytest.raises(ModelIOError, match="which numpy cannot hold"):
            load_model(path)

    @pytest.mark.parametrize("line", [b"n_classes=3", b"gamma_init=0.5"])
    def test_embedded_none_rejected(self, tmp_path, line):
        path = self._saved_with(tmp_path, lambda m: None)
        raw = path.read_bytes()
        cfg_len = struct.unpack_from("<I", raw, 6)[0]
        key = line.split(b"=")[0]
        cfg = raw[10 : 10 + cfg_len].replace(line, key + b"=None")
        path.write_bytes(raw[:6] + struct.pack("<I", len(cfg)) + cfg
                         + raw[10 + cfg_len :])
        with pytest.raises(ModelIOError, match=f"invalid embedded config: "
                                               f"config key {key.decode()}:"):
            load_model(path)

    def test_embedded_config_that_cannot_build_rejected(self, tmp_path):
        path = self._saved_with(tmp_path, lambda m: None)
        raw = path.read_bytes()
        bad = raw.replace(b"phi_init=0.4", b"phi_init=8.4")
        assert bad != raw
        path.write_bytes(bad)
        with pytest.raises(ModelIOError,
                           match=r"invalid embedded config: phi_init must lie"):
            load_model(path)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_edited_file_loads_or_raises_model_io_error(self, tiny_model_file,
                                                          data):
        raw, path = tiny_model_file
        path.write_bytes(data.draw(edited(raw)))
        try:
            load_model(path)
        except ModelIOError:
            pass

    def test_malformed_file_fails_before_building(self, tmp_path, monkeypatch):
        import scdnn.model

        path = self._saved_with(tmp_path, lambda m: None)
        raw = path.read_bytes()
        built = []
        monkeypatch.setattr(scdnn.model, "build_model",
                            lambda *a, **k: built.append(a) or build_model(*a, **k))
        cfg_len = struct.unpack_from("<I", raw, 6)[0]
        name_len = struct.unpack_from("<H", raw, 14 + cfg_len)[0]
        code_at = 16 + cfg_len + name_len
        bad_code = raw[:code_at] + b"\x07" + raw[code_at + 1 :]
        for bad, what in ((raw[:-1], "truncated"), (raw + b"x", "trailing"),
                          (bad_code, "unknown dtype code 7")):
            path.write_bytes(bad)
            with pytest.raises(ModelIOError, match=what):
                load_model(path)
        assert built == []
        path.write_bytes(raw)
        load_model(path)
        assert len(built) == 1

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("precision", ["real64", "real32"])
    def test_non_finite_entry_refused_naming_it_before_building(
            self, tmp_path, monkeypatch, value, precision):
        import scdnn.model

        name = "stage1.block1.conv1.weight"
        m = build_model(tiny_config(precision=precision), seed=9)
        m.named_parameters()[name].data.flat[5] = value
        path = tmp_path / "model.scdn"
        save_model(m, path)
        built = []
        monkeypatch.setattr(scdnn.model, "build_model",
                            lambda *a, **k: built.append(a) or build_model(*a, **k))
        with pytest.raises(ModelIOError, match=f"^entry '{name}' holds a "
                                               f"non-finite value at offset "
                                               f"\\d+$") as info:
            load_model(path)
        assert built == []
        offset = int(str(info.value).rsplit(" ", 1)[1])
        little_endian = np.dtype(m.config.dtype).newbyteorder("<")
        stored = np.frombuffer(path.read_bytes(), little_endian, 1, offset)[0]
        assert stored == value or (np.isnan(stored) and np.isnan(value))

    def test_loaded_model_rejects_mismatched_leads(self, tmp_path):
        m = build_model(tiny_config(), seed=9)
        path = tmp_path / "model.scdn"
        save_model(m, path)
        loaded = load_model(path)
        with pytest.raises(ShapeError):
            loaded.forward(np.zeros((2, 4, 64)))


class TestFullModelGradients:
    @staticmethod
    def _gradcheck(cfg, seed=13):
        from scdnn.cli import _randomize_for_gradcheck, gradcheck_loss
        from scdnn.autodiff import grad_check

        m = build_model(cfg, seed=seed)
        _randomize_for_gradcheck(m, seed)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, cfg.n_leads, cfg.input_length))
        labels = rng.integers(0, cfg.n_classes, size=2)
        rep = grad_check(gradcheck_loss(m, x, labels), m.trainable_parameters())
        assert rep.passed, rep.worst()

    def test_small_two_stage_gradcheck(self):
        # exhaustive check lives in the acceptance suite; this is a fast
        # guard on a one-stage variant
        self._gradcheck(tiny_config(widths=(4,), input_length=32))

    # Bottleneck blocks fuse two batchnorm-relu-conv runs each; without the
    # stem max-pool the stem's batchnorm and relu run unfused.
    @pytest.mark.parametrize("overrides", [
        {"backbone": "resnet50", "widths": (2,), "n_leads": 2},
        {"stem_maxpool": False, "widths": (4,), "n_leads": 2},
    ], ids=["resnet50", "no_stem_maxpool"])
    def test_gradcheck_of_other_wiring(self, overrides):
        self._gradcheck(tiny_config(input_length=32, **overrides))

    def test_error_planted_above_the_rounding_floor_fails(self, monkeypatch):
        # In the configuration whose satse1.phi gradient falls below
        # grad_check's rounding floor, a 1e-3 relative error planted in one
        # SATSE weight component whose gradient is above that floor fails.
        from scdnn.autodiff import _ROUNDING_FLOOR, grad_check
        from scdnn.cli import _randomize_for_gradcheck, gradcheck_loss

        cfg = tiny_config(n_classes=2, input_length=8, widths=(2, 4))
        m = build_model(cfg, seed=0)
        _randomize_for_gradcheck(m, 0)
        rng = np.random.default_rng([0, 3])
        loss = gradcheck_loss(m, rng.normal(size=(2, cfg.n_leads, 8)),
                              rng.integers(0, 2, size=2))
        target = m.satse[1]
        weight = target.weight_re
        params = {"satse2.weight_re": weight}
        assert grad_check(loss, params).passed
        floor = _ROUNDING_FLOOR * abs(loss().data.item()) / 1e-6
        component = int(np.argmax(np.abs(weight.grad)))
        assert abs(weight.grad.flat[component]) > 10 * floor

        forward = SatseBlock.forward

        def planted(block, x):
            out = forward(block, x)
            if block is not target:
                return out
            backward = out._backward

            def wrong(g):
                grads = list(backward(g))
                grads[3] = grads[3].copy()
                grads[3].flat[component] *= 1 + 1e-3
                return tuple(grads)

            out._backward = wrong
            return out

        monkeypatch.setattr(SatseBlock, "forward", planted)
        report = grad_check(loss, params)
        assert not report.passed
        assert report.max_rel_error["satse2.weight_re"] == pytest.approx(
            1e-3, rel=0.01)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_real32_gradients_match_real64(self, seed):
        # grad_check needs float64, so the float32 backward is checked
        # against the float64 one from the same parameters and batch
        from scdnn.cli import _randomize_for_gradcheck

        cfg = tiny_config(widths=(4, 8, 8, 8), input_length=128)
        m64 = build_model(cfg, seed=seed)
        _randomize_for_gradcheck(m64, seed)
        m32 = build_model(replace(cfg, precision="real32"), seed=seed)
        params32 = m32.named_parameters()
        for name, p in m64.named_parameters().items():
            params32[name].data[...] = p.data
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(4, 12, 128))
        labels = rng.integers(0, 3, size=4)
        for m in (m64, m32):
            _loss_of(m, Tensor(x.astype(m.config.dtype)), labels, "train",
                     False).backward()
        for name, p in m64.trainable_parameters().items():
            g64, g32 = p.grad, params32[name].grad
            assert g32.dtype == np.float32 and np.linalg.norm(g64) > 0, name
            rel = np.linalg.norm(g32 - g64) / np.linalg.norm(g64)
            assert rel < 1e-3, (name, rel)
