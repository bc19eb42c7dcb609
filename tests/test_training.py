import json
import types
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_ops import reduce_mean, sub
from scdnn import autodiff, layers, satse, training
from scdnn.autodiff import Tensor
from scdnn.data import stratified_split, synth_generate
from scdnn.model import build_model, tiny_config
from scdnn.training import (
    AdamState,
    Hyperparams,
    TRACE_HEADER,
    TrainingAbort,
    adam_step,
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
        assert (h.adam_beta1, h.adam_beta2, h.adam_eps) == (0.9, 0.999, 1e-8)

    @pytest.mark.parametrize("name", ["adam_beta1", "adam_beta2", "adam_eps"])
    def test_adam_constant_is_not_a_field(self, name):
        with pytest.raises(TypeError, match=name):
            Hyperparams(**{name: getattr(Hyperparams, name)})

    def test_validation(self):
        with pytest.raises(ValueError):
            Hyperparams(epochs=0)
        with pytest.raises(ValueError):
            Hyperparams(lr=-1.0)
        with pytest.raises(ValueError, match="lr_drop_epoch must be non-negative"):
            Hyperparams(lr_drop_epoch=-1)
        # a drop epoch past the end of the run never drops the rate
        h = Hyperparams(lr_drop_epoch=60, epochs=50)
        assert {lr_at_epoch(h, e) for e in range(h.epochs)} == {h.lr}

    @pytest.mark.parametrize("field, value, rule", [
        ("lr", float("inf"), "positive and finite"),
        ("lr", float("nan"), "positive and finite"),
        ("weight_decay", float("nan"), "non-negative and finite"),
        ("weight_decay", float("inf"), "non-negative and finite"),
        ("lr_drop_factor", float("inf"), "positive and finite"),
        ("seed", -1, "non-negative"),
    ])
    def test_non_finite_or_out_of_range_value_refused(self, field, value, rule):
        with pytest.raises(ValueError, match=f"{field} must be {rule}, got"):
            Hyperparams(**{field: value})

    @pytest.mark.parametrize("field, value", [("epochs", 2.5),
                                              ("batch_size", True)])
    def test_python_value_read_by_its_field_rule(self, field, value):
        with pytest.raises(ValueError,
                           match=f"^config key {field}: '{value}' is not int$"):
            Hyperparams(**{field: value})

    def test_integral_learning_rate_reads_as_float(self):
        h = Hyperparams(lr=1)
        assert h.lr == 1.0 and type(h.lr) is float

    def test_bounds_admit_their_edges(self):
        h = Hyperparams(weight_decay=0.0, lr_drop_epoch=0, seed=0)
        assert (h.weight_decay, h.lr_drop_epoch, h.seed) == (0.0, 0, 0)

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

    def test_trace_callback_gets_each_epoch_row_as_logged(self):
        seen = []

        def callback(row):
            assert row.epoch == len(seen)  # once per epoch, in order
            seen.append(row)

        ds = toy_dataset()
        model = build_model(tiny_config(), seed=0)
        hyper = Hyperparams(epochs=3, batch_size=16, lr_drop_epoch=2, seed=0)
        log = train(model, ds, hyper, trace_callback=callback)
        assert len(seen) == len(log.rows) == 3
        assert all(a is b for a, b in zip(seen, log.rows))

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


class TestStepMemory:
    def test_no_earlier_step_graph_outlives_its_step(self):
        model = build_model(tiny_config(), seed=0)
        forward = model.forward
        logits = []

        def forward_after_last_step_freed(x, mode="eval", update_running=None):
            assert not logits or logits[-1]() is None, (
                f"step {len(logits)} still holds step {len(logits) - 1}'s graph")
            out = forward(x, mode, update_running)
            logits.append(weakref.ref(out))
            return out

        model.forward = forward_after_last_step_freed
        train(model, toy_dataset(),
              Hyperparams(epochs=2, batch_size=4, lr_drop_epoch=2))
        assert len(logits) == 10  # 18 train records: five batches an epoch

    def test_same_trace_without_mallopt(self, monkeypatch):
        ds = toy_dataset()
        hyper = Hyperparams(epochs=2, batch_size=8, lr_drop_epoch=1, seed=3)
        expect = train(build_model(tiny_config(), seed=3), ds, hyper).to_csv()
        monkeypatch.setattr(training, "_LIBC", types.SimpleNamespace())
        monkeypatch.setattr(training, "_heap_kept", False)
        got = train(build_model(tiny_config(), seed=3), ds, hyper).to_csv()
        assert got == expect

    def test_allocator_set_once_and_by_training_only(self, monkeypatch):
        calls = []
        monkeypatch.setattr(training, "_LIBC", types.SimpleNamespace(
            mallopt=lambda param, value: calls.append((param, value))))
        monkeypatch.setattr(training, "_heap_kept", False)
        ds = toy_dataset(n_per_class=4)
        model = build_model(tiny_config(), seed=0)
        evaluate(model, ds, "train")
        assert calls == []
        hyper = Hyperparams(epochs=1, batch_size=8, lr_drop_epoch=1)
        train(model, ds, hyper)
        train(model, ds, hyper)
        # glibc's M_MMAP_THRESHOLD (-3) at its 32 MiB ceiling, and
        # M_TRIM_THRESHOLD (-1) at the largest int, so the top is never trimmed
        assert sorted(calls) == [(-3, 32 * 2**20), (-1, 2**31 - 1)]


class TestReal32Guard:
    def test_step_and_eval_batch_stay_float32(self, monkeypatch):
        outputs, vjps = [], []

        def hooked(node):
            def recording(data, parents, backward_fn):
                def backward(g):
                    grads = backward_fn(g)
                    vjps.extend(np.asarray(v).dtype for v in grads
                                if v is not None)
                    return grads

                outputs.append(np.asarray(data).dtype)
                return node(data, parents, backward)

            return recording

        for module in (autodiff, layers, satse):
            monkeypatch.setattr(module, "_node", hooked(module._node))
        steps = []

        def adam_spy(params, grads, state, lr, **kwargs):
            steps.append((dict(grads), state))
            adam_step(params, grads, state, lr, **kwargs)

        monkeypatch.setattr(training, "adam_step", adam_spy)
        ds = toy_dataset()
        model = build_model(tiny_config(precision="real32"), seed=0)
        train(model, ds, Hyperparams(epochs=1, batch_size=32, lr_drop_epoch=1))
        assert len(steps) == 1 and len(vjps) > len(outputs) > 20
        (grads, state), = steps
        params = model.trainable_parameters()
        assert grads.keys() == state.m.keys() == state.v.keys() == params.keys()
        for arrays in (grads, state.m, state.v):
            assert {a.dtype for a in arrays.values()} == {np.dtype(np.float32)}
        assert {p.data.dtype for p in params.values()} == {np.dtype(np.float32)}
        n_train = len(outputs)
        predict(model, ds.records_in("test"), batch_size=32)
        assert len(outputs) > n_train
        assert set(outputs) == set(vjps) == {np.dtype(np.float32)}

    def test_real32_model_learns_to_the_c05_bar(self):
        # test_c05_end_to_end_learning's data, bar and seed in real32, at a
        # size and learning rate that train in seconds
        seed = 2024
        ds = synth_generate([80, 60, 60], 3, n_leads=12, length=256,
                            noise_std=0.05, seed=seed)
        ds = stratified_split(ds, (0.75, 0.125, 0.125), seed=seed)
        config = tiny_config(input_length=256, widths=(8, 16, 32, 64),
                             precision="real32")
        model = build_model(config, seed=seed)
        train(model, ds, Hyperparams(epochs=8, lr=1e-3, seed=seed))
        params = model.named_parameters().values()
        assert {p.data.dtype for p in params} == {np.dtype(np.float32)}
        assert evaluate(model, ds, "test").macro_f1 >= 0.90


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

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_per_class_loop(self, data):
        # The per-class loop the array version replaced, as the reference:
        # the arithmetic is the same, so every value must be equal.
        n = data.draw(st.integers(1, 6))
        confusion = np.array(data.draw(st.lists(
            st.lists(st.integers(0, 9) | st.just(0), min_size=n, max_size=n),
            min_size=n, max_size=n)), dtype=np.int64)
        rows, zero_div = [], []
        for c in range(n):
            tp = confusion[c, c]
            pred, true = confusion[:, c].sum(), confusion[c, :].sum()
            precision = tp / pred if pred else 0.0
            recall = tp / true if true else 0.0
            f1 = (2 * precision * recall / (precision + recall)
                  if precision + recall else 0.0)
            rows.append((float(precision), float(recall), float(f1), int(true)))
            if not pred or not true:
                zero_div.append(c)
        rep = metrics_from_confusion(confusion)
        assert [(c.precision, c.recall, c.f1, c.support)
                for c in rep.per_class] == rows
        assert all(type(v) in (float, int) for c in rep.per_class
                   for v in vars(c).values())
        assert rep.zero_division_classes == tuple(zero_div)
        assert rep.macro_f1 == float(np.mean([r[2] for r in rows]))
        assert rep.macro_precision == float(np.mean([r[0] for r in rows]))
        assert rep.macro_recall == float(np.mean([r[1] for r in rows]))

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

    @pytest.mark.parametrize("n_classes", [5, 2])
    def test_evaluate_rejects_class_count_mismatch(self, n_classes):
        ds = stratified_split(synth_generate(4, n_classes, length=64, seed=0),
                              (0.5, 0.25, 0.25), seed=0)
        model = build_model(tiny_config(n_classes=3), seed=0)
        with pytest.raises(ValueError, match=f"dataset has {n_classes} "
                                             f"classes, model expects 3"):
            evaluate(model, ds, "test")

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
        doc = json.loads(rep.to_json())
        assert doc["macro_f1"] == rep.macro_f1
        assert doc["confusion"] == [[2, 0], [1, 1]]
        assert doc["per_class"][1] == {"precision": 1.0, "recall": 0.5,
                                       "f1": 2 / 3, "support": 2}
        assert doc["zero_division_classes"] == []
        with pytest.raises(ValueError):
            replace(rep, macro_f1=float("nan")).to_json()


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

    @pytest.mark.parametrize("fractions, axis, values, message", [
        ((0.5, 0.5, 0.0), "satse_count", [1], "split 'test' is empty"),
        ((0.5, 0.25, 0.25), "satse_count", [0, 5], "satse block count"),
        ((0.5, 0.25, 0.25), "fixed_phi", [0.2, 1.5], "fixed_phi must lie"),
        ((0.5, 0.25, 0.25), "depth", ["resnet18", "x"], "unsupported backbone"),
    ])
    def test_refused_before_training(self, monkeypatch, fractions, axis,
                                     values, message):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(training, "train", no_training)
        ds = toy_dataset(n_per_class=6, fractions=fractions)
        with pytest.raises(ValueError, match=message):
            run_ablation(tiny_config(), axis, values, ds,
                         Hyperparams(epochs=1, batch_size=8))

    def test_no_repeats_rejected(self):
        ds = toy_dataset(n_per_class=4)
        with pytest.raises(ValueError, match="^repeats must be at least 1$"):
            run_ablation(tiny_config(), "satse_count", [1], ds,
                         Hyperparams(epochs=1, lr_drop_epoch=1), repeats=0)

    def test_unknown_axis_rejected(self):
        ds = toy_dataset(n_per_class=4)
        with pytest.raises(ValueError, match="axis"):
            run_ablation(tiny_config(), "widths", [1], ds,
                         Hyperparams(epochs=1, lr_drop_epoch=1))
