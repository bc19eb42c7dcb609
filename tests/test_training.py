import numpy as np
import pytest

from reference_ops import reduce_mean, sub
from scdnn.autodiff import Tensor
from scdnn.data import stratified_split, synth_generate
from scdnn.model import build_model, tiny_config
from scdnn.training import (
    AdamState,
    Hyperparams,
    TRACE_HEADER,
    TrainingAbort,
    adam_step,
    benchmark_inference,
    evaluate,
    lr_at_epoch,
    metrics_from_confusion,
    predict,
    run_ablation,
    train,
)


def toy_dataset(n_per_class=10, length=64, seed=4, fractions=(0.6, 0.2, 0.2)):
    ds = synth_generate(n_per_class, 3, n_leads=12, length=length,
                        noise_std=0.05, seed=seed)
    return stratified_split(ds, fractions, seed=seed)


class TestHyperparams:
    def test_defaults_match_reference_settings(self):
        h = Hyperparams()
        assert h.epochs == 50
        assert h.batch_size == 32
        assert h.lr == 1e-4
        assert h.weight_decay == 2e-5
        assert h.lr_drop_epoch == 20
        assert h.lr_drop_factor == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Hyperparams(epochs=0)
        with pytest.raises(ValueError):
            Hyperparams(lr=-1.0)
        with pytest.raises(ValueError):
            Hyperparams(lr_drop_epoch=60, epochs=50)

    @pytest.mark.parametrize("batch_size", [-1, 0, 1])
    def test_batch_below_two_rejected(self, batch_size):
        # train-mode batch norm needs two records, so a batch of one would
        # be dropped and the epoch would train nothing
        with pytest.raises(ValueError, match="batch_size must be at least 2"):
            Hyperparams(epochs=2, batch_size=batch_size, lr_drop_epoch=2)
        Hyperparams(epochs=2, batch_size=2, lr_drop_epoch=2)

    def test_lr_schedule(self):
        h = Hyperparams()
        assert lr_at_epoch(h, 0) == 1e-4
        assert lr_at_epoch(h, 19) == 1e-4
        assert lr_at_epoch(h, 20) == 1e-5
        assert lr_at_epoch(h, 49) == 1e-5


class TestAdam:
    def test_first_step_moves_by_lr_in_sign_direction(self):
        rng = np.random.default_rng(0)
        p = Tensor(rng.normal(size=8), requires_grad=True)
        start = p.data.copy()
        g = rng.normal(size=8)
        adam_step({"p": p}, {"p": g}, AdamState(), lr=0.01)
        step = p.data - start
        np.testing.assert_allclose(step, -0.01 * np.sign(g), rtol=1e-6)

    def test_zero_gradient_zero_decay_is_noop(self):
        p = Tensor(np.arange(4.0), requires_grad=True)
        before = p.data.copy()
        adam_step({"p": p}, {"p": np.zeros(4)}, AdamState(), lr=0.1)
        np.testing.assert_array_equal(p.data, before)

    def test_200_steps_on_quadratic_reaches_origin(self):
        # oracle: independent simulation of the same update rule
        def simulate(x0, lr, steps):
            x, m, v, b1, b2, eps = x0, 0.0, 0.0, 0.9, 0.999, 1e-8
            for t in range(1, steps + 1):
                g = 2.0 * x
                m = b1 * m + (1 - b1) * g
                v = b2 * v + (1 - b2) * g * g
                x -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
            return x

        p = Tensor(np.asarray(5.0), requires_grad=True)
        state = AdamState()
        for _ in range(200):
            adam_step({"x": p}, {"x": 2.0 * p.data}, state, lr=0.1)
        expect = simulate(5.0, 0.1, 200)
        assert float(p.data) == pytest.approx(expect, abs=1e-12)
        assert abs(float(p.data)) < 0.5

    def test_weight_decay_coupled_and_exempt(self):
        p1 = Tensor(np.asarray(2.0), requires_grad=True)
        p2 = Tensor(np.asarray(2.0), requires_grad=True)
        adam_step(
            {"a": p1, "b": p2},
            {"a": np.asarray(0.0), "b": np.asarray(0.0)},
            AdamState(), lr=0.1, weight_decay=0.01, decay_exempt={"b"},
        )
        assert float(p1.data) != 2.0  # decayed through the coupled gradient
        assert float(p2.data) == 2.0  # exempt

    def test_quadratic_probe_loss_strictly_decreases(self):
        # single linear layer, least-squares loss, 50 steps at lr 1e-2
        rng = np.random.default_rng(1)
        from scdnn.layers import Linear

        layer = Linear(4, 1, rng=rng)
        x = rng.normal(size=(16, 4))
        y = x @ rng.normal(size=(4, 1))
        state = AdamState()
        params = {"w": layer.weight, "b": layer.bias}
        losses = []
        for _ in range(50):
            pred = layer.forward(Tensor(x))
            diff = sub(pred, Tensor(y))
            loss = reduce_mean(diff * diff)
            losses.append(float(loss.data))
            for p in params.values():
                p.grad = None
            loss.backward()
            adam_step(params, {k: p.grad for k, p in params.items()}, state,
                      lr=1e-2)
        assert all(b < a for a, b in zip(losses, losses[1:]))


class TestTrainLoop:
    def test_deterministic_end_to_end(self):
        ds = toy_dataset()
        hyper = Hyperparams(epochs=1, batch_size=32, lr_drop_epoch=1, seed=3)
        m1 = build_model(tiny_config(), seed=3)
        m2 = build_model(tiny_config(), seed=3)
        log1 = train(m1, ds, hyper)
        log2 = train(m2, ds, hyper)
        assert log1.to_csv() == log2.to_csv()
        for a, b in zip(m1.named_parameters().values(),
                        m2.named_parameters().values()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_trace_shape_and_row0(self):
        ds = toy_dataset()
        hyper = Hyperparams(epochs=3, batch_size=16, lr_drop_epoch=2, seed=0)
        model = build_model(tiny_config(), seed=0)
        log = train(model, ds, hyper)
        assert len(log.rows) == 3
        csv = log.to_csv().splitlines()
        assert csv[0] == TRACE_HEADER
        row0 = log.rows[0]
        assert row0.phi == (0.4,) * 4
        assert row0.gamma == (0.5,) * 4
        assert row0.lam_low == (0.0,) * 4
        assert row0.lam_high == (0.0,) * 4
        assert row0.lr == 1e-4
        assert log.rows[2].lr == 1e-5
        for row in log.rows:
            assert all(1e-3 <= v <= 0.999 for v in row.phi)
            assert all(np.isfinite(v) for v in row.lam_low + row.lam_high)

    def test_loss_decreases_on_separable_data(self):
        ds = toy_dataset(n_per_class=16)
        hyper = Hyperparams(epochs=6, batch_size=16, lr=1e-3, lr_drop_epoch=6,
                            seed=1)
        model = build_model(tiny_config(), seed=1)
        log = train(model, ds, hyper)
        assert log.rows[5].loss < log.rows[0].loss

    def test_missing_train_split_fails(self):
        ds = synth_generate(4, 3, length=64, seed=0)  # no splits assigned
        with pytest.raises(ValueError, match="train"):
            train(build_model(tiny_config(), seed=0), ds, Hyperparams(epochs=1,
                  lr_drop_epoch=1))

    def test_single_record_train_split_fails(self):
        ds = toy_dataset()
        ds.splits = {rid: "val" for rid in ds.splits}
        ds.splits[ds.records[0].record_id] = "train"
        model = build_model(tiny_config(), seed=0)
        before = {k: p.data.copy() for k, p in model.named_parameters().items()}
        with pytest.raises(ValueError, match="1 records"):
            train(model, ds, Hyperparams(epochs=2, batch_size=2, lr_drop_epoch=2))
        for k, p in model.named_parameters().items():
            np.testing.assert_array_equal(p.data, before[k])

    def test_class_count_mismatch_fails(self):
        ds = toy_dataset()
        model = build_model(tiny_config(n_classes=5), seed=0)
        with pytest.raises(ValueError, match="classes"):
            train(model, ds, Hyperparams(epochs=1, lr_drop_epoch=1))

    def test_fixed_phi_stays_constant(self):
        ds = toy_dataset()
        model = build_model(tiny_config(fixed_phi=0.2), seed=2)
        log = train(model, ds, Hyperparams(epochs=2, batch_size=16,
                                           lr=1e-3, lr_drop_epoch=2, seed=2))
        for row in log.rows:
            assert row.phi == (0.2,) * 4

    def test_abort_on_nonfinite_loss(self):
        ds = toy_dataset()
        model = build_model(tiny_config(), seed=0)
        model.head.weight.data[:] = np.nan
        with pytest.raises(TrainingAbort, match="epoch 0"):
            train(model, ds, Hyperparams(epochs=1, lr_drop_epoch=1))


class TestMetrics:
    def test_perfect_predictions(self):
        rep = metrics_from_confusion(np.diag([5, 3, 2]))
        assert rep.accuracy == 1.0
        assert rep.macro_precision == 1.0
        assert rep.macro_recall == 1.0
        assert rep.macro_f1 == 1.0

    def test_hand_computed_two_class_example(self):
        rep = metrics_from_confusion([[2, 0], [1, 1]])
        assert rep.accuracy == pytest.approx(0.75, abs=1e-12)
        assert rep.macro_precision == pytest.approx(5 / 6, abs=1e-12)
        assert rep.macro_recall == pytest.approx(0.75, abs=1e-12)
        assert rep.macro_f1 == pytest.approx(11 / 15, abs=1e-12)

    def test_single_class_predictor_with_zero_division_rule(self):
        rep = metrics_from_confusion([[50, 0], [50, 0]])
        assert rep.accuracy == pytest.approx(0.5, abs=1e-12)
        assert rep.macro_f1 == pytest.approx(1 / 3, abs=1e-12)
        assert rep.zero_division_classes == (1,)

    def test_internal_consistency(self):
        rng = np.random.default_rng(3)
        confusion = rng.integers(0, 20, size=(4, 4))
        rep = metrics_from_confusion(confusion)
        assert rep.accuracy == pytest.approx(
            np.trace(confusion) / confusion.sum(), abs=1e-12
        )
        assert rep.macro_precision == pytest.approx(
            np.mean([c.precision for c in rep.per_class]), abs=1e-12
        )
        for c, row in zip(rep.per_class, confusion):
            assert c.support == row.sum()

    def test_evaluate_on_memorized_toy(self):
        ds = toy_dataset(n_per_class=8, fractions=(0.5, 0.25, 0.25))
        model = build_model(tiny_config(), seed=5)
        train(model, ds, Hyperparams(epochs=25, batch_size=12, lr=3e-3,
                                     lr_drop_epoch=20, seed=5))
        rep = evaluate(model, ds, "train")
        assert rep.accuracy == 1.0
        assert rep.macro_f1 == 1.0

    def test_evaluate_empty_split_fails(self):
        ds = synth_generate(4, 3, length=64, seed=0)
        with pytest.raises(ValueError, match="empty"):
            evaluate(build_model(tiny_config(), seed=0), ds, "test")

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_below_one_rejected_by_predict_and_evaluate(self, batch_size):
        ds = toy_dataset(n_per_class=4)
        model = build_model(tiny_config(), seed=0)
        with pytest.raises(ValueError, match="batch_size must be at least 1"):
            predict(model, ds.records_in("train"), batch_size)
        with pytest.raises(ValueError, match="batch_size must be at least 1"):
            evaluate(model, ds, "train", batch_size)

    def test_text_and_keyvalue_output(self):
        rep = metrics_from_confusion([[2, 0], [1, 1]])
        text = rep.to_text(["aa", "bb"])
        assert "macro f1" in text and "confusion" in text and "aa" in text
        kv = rep.to_keyvalues()
        assert "macro_f1=" in kv and "confusion0=2,0" in kv


@pytest.fixture
def capture_forward():
    """Wrap a model's forward to collect every output tensor it returns."""
    wrapped = []

    def wrap(model):
        forward = model.forward
        outputs = []

        def capturing(x, mode="eval", update_running=None):
            out = forward(x, mode, update_running)
            outputs.append(out)
            return out

        model.forward = capturing
        wrapped.append(model)
        return outputs

    yield wrap
    for model in wrapped:
        del model.forward


def _unrecorded(tensors):
    return bool(tensors) and all(
        t._parents == () and t._backward is None for t in tensors)


class TestNoGradInference:
    @pytest.mark.parametrize("precision", ["real64", "real32"])
    def test_predict_logits_equal_recording_forward(self, precision,
                                                    capture_forward):
        records = toy_dataset(n_per_class=4).records_in("train")
        model = build_model(tiny_config(precision=precision), seed=6)
        x = np.stack([rec.leads for rec in records]).astype(model.config.dtype)
        model.forward(x, "train")  # non-trivial running statistics
        recorded = [model.forward(x[s : s + 3], "eval")
                    for s in range(0, len(records), 3)]
        assert all(t._parents for t in recorded)

        captured = capture_forward(model)
        preds = predict(model, records, batch_size=3)
        assert _unrecorded(captured)
        assert len(captured) == len(recorded)
        for got, ref in zip(captured, recorded):
            assert got.data.dtype == ref.data.dtype == model.config.dtype
            assert np.array_equal(got.data, ref.data)
        logits = np.concatenate([t.data for t in recorded])
        np.testing.assert_array_equal(preds, np.argmax(logits, axis=1))

    def test_benchmark_inference_records_no_graph(self, capture_forward):
        ds = toy_dataset(n_per_class=4)
        model = build_model(tiny_config(), seed=0)
        captured = capture_forward(model)
        benchmark_inference(model, ds, repeats=1, split="train", batch_size=4)
        assert _unrecorded(captured)


class TestAblation:
    def test_three_axes_table_shapes(self):
        ds = toy_dataset(n_per_class=6, length=64, fractions=(0.5, 0.25, 0.25))
        hyper = Hyperparams(epochs=1, batch_size=8, lr_drop_epoch=1, seed=0)
        base = tiny_config()

        table = run_ablation(base, "satse_count", [0, 2], ds, hyper)
        assert [r.value for r in table.rows] == [0, 2]
        assert table.rows[0].parameter_count < table.rows[1].parameter_count

        table = run_ablation(base, "fixed_phi", [0.1, 0.4], ds, hyper)
        assert len(table.rows) == 2
        assert all(set(r.stats) == {"accuracy", "macro_precision",
                                    "macro_recall", "macro_f1"}
                   for r in table.rows)

        table = run_ablation(base, "depth", ["resnet18", "resnet34"], ds, hyper)
        assert [r.value for r in table.rows] == ["resnet18", "resnet34"]
        text = table.to_text()
        assert "resnet34" in text and "+-" in text

    def test_repeats_give_mean_and_std(self):
        ds = toy_dataset(n_per_class=6, length=64, fractions=(0.5, 0.25, 0.25))
        hyper = Hyperparams(epochs=1, batch_size=8, lr_drop_epoch=1, seed=0)
        table = run_ablation(tiny_config(), "satse_count", [1], ds, hyper,
                             repeats=2)
        assert table.rows[0].repeats == 2
        mean, std = table.rows[0].stats["accuracy"]
        assert 0.0 <= mean <= 1.0 and std >= 0.0

    def test_unknown_axis_rejected(self):
        ds = toy_dataset(n_per_class=4)
        with pytest.raises(ValueError, match="axis"):
            run_ablation(tiny_config(), "widths", [1], ds,
                         Hyperparams(epochs=1, lr_drop_epoch=1))


class TestBenchmark:
    def test_single_repeat_reports_zero_std(self):
        ds = toy_dataset(n_per_class=4)
        model = build_model(tiny_config(), seed=0)
        bench = benchmark_inference(model, ds, repeats=1, split="train",
                                    batch_size=4)
        assert bench.std_seconds_per_batch == 0.0
        assert len(bench.per_repeat) == 1

    def test_rows_match_repeats(self):
        ds = toy_dataset(n_per_class=4)
        model = build_model(tiny_config(), seed=0)
        bench = benchmark_inference(model, ds, repeats=3, split="train",
                                    batch_size=4)
        assert len(bench.per_repeat) == 3
        assert bench.mean_seconds_per_batch > 0.0

    @pytest.mark.parametrize("batch_size,repeats", [(0, 1), (-1, 1), (4, 0),
                                                    (4, -2)])
    def test_batch_or_repeats_below_one_rejected(self, batch_size, repeats):
        ds = toy_dataset(n_per_class=4)
        model = build_model(tiny_config(), seed=0)
        with pytest.raises(ValueError, match="must be at least 1"):
            benchmark_inference(model, ds, repeats=repeats, split="train",
                                batch_size=batch_size)
