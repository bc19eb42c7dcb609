"""Configuration variants: loss shaping, precision, SATSE blocks off,
padding."""

import numpy as np
import pytest

from scdnn.autodiff import grad_check
from scdnn.cli import _randomize_for_gradcheck, gradcheck_loss, main
from scdnn.data import (
    EcgDataset,
    EcgRecord,
    pad_to_max,
    read_ecgb,
    stratified_split,
    synth_generate,
    write_ecgb,
)
from scdnn.model import build_model, load_model, tiny_config
from scdnn.training import Hyperparams, evaluate, predict, train


def toy(seed=0, n=10, length=64):
    ds = synth_generate(n, 3, length=length, noise_std=0.05, seed=seed)
    return stratified_split(ds, (0.6, 0.2, 0.2), seed=seed)


class TestDoubleSoftmax:
    def test_training_runs_and_differs_from_single(self):
        ds = toy(1)
        hyper = Hyperparams(epochs=2, batch_size=16, lr=1e-3, lr_drop_epoch=2,
                            seed=1)
        single = build_model(tiny_config(), seed=1)
        double = build_model(tiny_config(double_softmax=True), seed=1)
        log_s = train(single, ds, hyper)
        log_d = train(double, ds, hyper)
        assert log_s.rows[0].loss != log_d.rows[0].loss

    def test_gradients_still_exact(self):
        model = build_model(tiny_config(double_softmax=True,
                                        widths=(2, 4), input_length=32),
                            seed=2)
        _randomize_for_gradcheck(model, 2)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 12, 32))
        labels = rng.integers(0, 3, size=2)
        assert grad_check(gradcheck_loss(model, x, labels),
                          model.trainable_parameters()).passed

    def test_argmax_unchanged_so_metrics_agree(self):
        ds = toy(3)
        model = build_model(tiny_config(), seed=3)
        a = evaluate(model, ds, "val")
        model.config = type(model.config)(
            **{**vars(model.config), "double_softmax": True}
        )
        b = evaluate(model, ds, "val")
        assert a.accuracy == b.accuracy


class TestReal32:
    def test_forward_and_training_step_run_in_float32(self):
        ds = toy(4)
        model = build_model(tiny_config(precision="real32"), seed=4)
        assert model.stem_conv.weight.data.dtype == np.float32
        logits = model.forward(np.zeros((2, 12, 64)), "eval")
        assert logits.data.dtype == np.float32
        hyper = Hyperparams(epochs=1, batch_size=16, lr=1e-3, lr_drop_epoch=1,
                            seed=4)
        log = train(model, ds, hyper)
        assert np.isfinite(log.rows[0].loss)
        assert model.stem_conv.weight.data.dtype == np.float32

    def test_gradcheck_requires_float64(self):
        model = build_model(tiny_config(precision="real32", widths=(2,),
                                        input_length=32), seed=4)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 12, 32))
        loss = gradcheck_loss(model, x, rng.integers(0, 3, size=2))
        with pytest.raises(TypeError, match="float64"):
            grad_check(loss, model.trainable_parameters())


class TestNoSatseBlock:
    @pytest.mark.parametrize("overrides", [{"satse_blocks": 0}])
    def test_registers_no_satse_parameter_and_trains(self, overrides):
        ds = toy(5)
        model = build_model(tiny_config(**overrides), seed=5)
        assert model.satse == [None, None]
        assert not any("satse" in name for name in model.named_parameters())
        hyper = Hyperparams(epochs=1, batch_size=16, lr=1e-3, lr_drop_epoch=1,
                            seed=5)
        log = train(model, ds, hyper)
        assert np.isfinite(log.rows[0].loss)


class TestMixedLengths:
    def _mixed_dataset(self):
        rng = np.random.default_rng(6)
        records = [
            EcgRecord(rng.normal(size=(12, 48)).astype(np.float32), i % 2,
                      f"m{i}")
            for i in range(8)
        ] + [
            EcgRecord(rng.normal(size=(12, 64)).astype(np.float32), i % 2,
                      f"n{i}")
            for i in range(8)
        ]
        ds = EcgDataset(records, ["a", "b"], 12)
        return stratified_split(ds, (0.6, 0.2, 0.2), seed=6)

    def test_train_rejects_ragged_batches(self):
        ds = self._mixed_dataset()
        model = build_model(tiny_config(n_classes=2), seed=6)
        with pytest.raises(ValueError, match="mixed lengths"):
            train(model, ds, Hyperparams(epochs=1, lr_drop_epoch=1))

    def test_predict_and_evaluate_reject_mixed_lengths(self):
        ds = self._mixed_dataset()
        model = build_model(tiny_config(n_classes=2, input_length=64), seed=6)
        assert {rec.length for rec in ds.records_in("val")} == {48, 64}
        message = r"records have mixed lengths \(48 to 64\); pad to max first"
        with pytest.raises(ValueError, match=message):
            predict(model, ds.records)
        with pytest.raises(ValueError, match=message):
            evaluate(model, ds, "val")
        # the same records padded classify, one prediction each
        assert len(predict(model, pad_to_max(ds).records)) == 16

    def test_cli_pads_automatically(self, tmp_path, capsys):
        ds = self._mixed_dataset()
        path = tmp_path / "mixed.ecgb"
        write_ecgb(ds, path)
        out_dir = tmp_path / "run"
        rc = main(["train", "--data", str(path), "--out-dir", str(out_dir),
                   "--epochs", "1", "--batch", "8", "--stage-widths", "2,4",
                   "--seed", "6"])
        assert rc == 0
        assert "padded" in capsys.readouterr().out
        model = load_model(out_dir / "model.scdn")
        assert model.config.input_length == 64

    def test_cli_eval_pads_like_train(self, tmp_path, capsys):
        # the val split holds records of both lengths
        path = tmp_path / "mixed.ecgb"
        write_ecgb(self._mixed_dataset(), path)
        run = tmp_path / "run"
        assert main(["train", "--data", str(path), "--out-dir", str(run),
                     "--epochs", "1", "--batch", "8", "--stage-widths", "2,4",
                     "--seed", "6"]) == 0
        capsys.readouterr()
        assert main(["eval", "--model", str(run / "model.scdn"),
                     "--data", str(path), "--split", "val"]) == 0
        out = capsys.readouterr().out
        assert "padded 2 distinct record lengths to 64" in out
        assert "macro f1" in out

    def test_satse_model_refuses_records_of_another_length(self):
        ds = toy(2, n=6, length=48)
        model = build_model(tiny_config(input_length=64), seed=2)
        message = ("have length 48, but the model's spectral blocks are built "
                   "for length 64")
        with pytest.raises(ValueError, match=f"^records {message}$"):
            predict(model, ds.records)
        with pytest.raises(ValueError, match=f"^train records {message}$"):
            train(model, ds, Hyperparams(epochs=1, lr_drop_epoch=1))
        # without spectral blocks the pooled head takes any one length
        plain = build_model(tiny_config(input_length=64,
                                        satse_blocks=0))
        assert len(predict(plain, ds.records)) == len(ds.records)

    def test_pad_then_train_directly(self):
        ds = pad_to_max(self._mixed_dataset())
        model = build_model(tiny_config(n_classes=2), seed=6)
        log = train(model, ds,
                    Hyperparams(epochs=1, batch_size=8, lr_drop_epoch=1))
        assert np.isfinite(log.rows[0].loss)
