import re
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from reference_ops import (
    add,
    as_complex,
    concat,
    exp,
    imag_part,
    log,
    matmul,
    mul,
    real_part,
    reduce_mean,
    reduce_sum,
    reshape,
    sigmoid,
)
from scdnn.autodiff import ShapeError, Tensor, _node, grad_check, no_grad
from scdnn.layers import cross_entropy, relu
from scdnn.model import build_model, tiny_config
from scdnn.satse import stable_sigmoid
from scdnn.training import _loss_of


class TestForwardEval:
    def test_product(self):
        out = Tensor(3.0) * Tensor(4.0)
        assert out.data.item() == 12.0

    def test_identity(self):
        x = np.random.default_rng(0).normal(size=(3, 4))
        out = Tensor(x)
        np.testing.assert_array_equal(out.data, x)

    def test_sum_of_squares(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]))
        out = (x * x).sum()
        assert out.data.item() == 14.0

    def test_determinism(self):
        rng = np.random.default_rng(5)
        w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        x = Tensor(rng.normal(size=(2, 4)))
        a = reduce_sum(sigmoid(matmul(x, w))).data
        b = reduce_sum(sigmoid(matmul(x, w))).data
        assert np.array_equal(a, b)

    def test_shape_mismatch_names_op(self):
        with pytest.raises(ShapeError, match="matmul"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    @pytest.mark.parametrize("data, dtype", [(["a", "b"], "<U1"),
                                             ([None], "object")],
                             ids=["strings", "objects"])
    def test_unsupported_dtype_rejected(self, data, dtype):
        with pytest.raises(TypeError, match=f"^unsupported tensor dtype {dtype}$"):
            Tensor(data)


class TestBackward:
    def test_square(self):
        x = Tensor(np.asarray(3.0), requires_grad=True)
        (x * x).backward()
        assert x.grad.item() == pytest.approx(6.0, abs=1e-12)

    def test_linear_gradient_is_coefficient(self):
        c = np.array([2.0, -1.5, 0.25])
        x = Tensor(np.zeros(3), requires_grad=True)
        (Tensor(c) * x).sum().backward()
        np.testing.assert_allclose(x.grad, c, atol=0)

    def test_cross_entropy_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(3)
        logits = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
        label = np.array([1])
        cross_entropy(logits, label).backward()
        grad = logits.grad

        z = logits.data[0]
        p = np.exp(z - z.max())
        p /= p.sum()
        expect = p.copy()
        expect[1] -= 1.0
        np.testing.assert_allclose(grad[0], expect, atol=1e-12)

        # independent central finite differences at step 1e-6
        eps = 1e-6
        fd = np.zeros(3)
        for k in range(3):
            zp = logits.data.copy()
            zp[0, k] += eps
            zm = logits.data.copy()
            zm[0, k] -= eps

            def ce(zz):
                row = zz[0]
                m = row.max()
                return -(row[label[0]] - m - np.log(np.exp(row - m).sum()))

            fd[k] = (ce(zp) - ce(zm)) / (2 * eps)
        np.testing.assert_allclose(grad[0], fd, atol=1e-9)

    def test_requires_scalar_real_loss(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            (x * x).backward()
        z = as_complex(Tensor(np.asarray(1.0), requires_grad=True),
                       Tensor(np.asarray(0.0)))
        with pytest.raises(TypeError, match="real"):
            z.backward()

    def test_nonfinite_gradient_flagged(self):
        x = Tensor(np.asarray(0.0), requires_grad=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            rep = grad_check(lambda: log(x), {"x": x})
        assert "x" in rep.nonfinite
        assert not rep.passed

        # A VJP that returns NaN for one component while the loss and its
        # finite differences stay finite: the NaN must not be read as a
        # zero error.
        w = Tensor(np.array([0.5, -0.25]), requires_grad=True)

        def loss():
            return _node(np.asarray(w.data.sum()), (w,),
                         lambda g: (g * np.array([np.nan, 1.0]),))

        rep = grad_check(loss, {"w": w})
        assert rep.nonfinite == {"w": [0]}
        assert not rep.passed


class TestGradCheck:
    def test_quadratic_exact(self):
        rng = np.random.default_rng(1)
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        x = Tensor(rng.normal(size=(2, 3)))

        def loss():
            h = matmul(x, w)
            return (h * h).sum()

        rep = grad_check(loss, {"w": w}, epsilon=1e-5)
        assert rep.max_rel_error["w"] < 1e-8

    def test_epsilon_validated(self):
        w = Tensor(np.asarray(1.0), requires_grad=True)
        with pytest.raises(ValueError):
            grad_check(lambda: w * w, {"w": w}, epsilon=1e-2)

    def test_random_composed_graphs_match_finite_differences(self):
        # property: arbitrary compositions of smooth ops differentiate
        # correctly; 12 random graph shapes, seeded
        for trial in range(12):
            rng = np.random.default_rng(100 + trial)
            n = int(rng.integers(2, 5))
            w1 = Tensor(rng.normal(size=(n, n)), requires_grad=True)
            w2 = Tensor(rng.normal(size=(n,)), requires_grad=True)
            b = Tensor(rng.normal(size=(1, n)), requires_grad=True)
            x = Tensor(rng.normal(size=(3, n)))

            def loss():
                h = add(matmul(x, w1), b)
                h = mul(sigmoid(h), w2)
                h = add(exp(reduce_mean(h, axis=0)), relu(reduce_sum(h, axis=1)).sum())
                return reduce_sum(h)

            rep = grad_check(loss, {"w1": w1, "w2": w2, "b": b})
            assert rep.passed, f"trial {trial}: {rep}"

    def test_complex_pair_ops(self):
        rng = np.random.default_rng(8)
        re = Tensor(rng.normal(size=6), requires_grad=True)
        im = Tensor(rng.normal(size=6), requires_grad=True)
        c1 = rng.normal(size=6) + 1j * rng.normal(size=6)

        def loss():
            z = as_complex(re, im)
            w = mul(z, Tensor(c1))
            return add((real_part(w) * real_part(w)).sum(),
                       (imag_part(w) * imag_part(w)).sum())

        rep = grad_check(loss, {"re": re, "im": im})
        assert rep.passed


class TestProperties:
    def test_batch_sum_gradient_linearity(self):
        # gradient of summed batch loss equals the sum of per-sample gradients
        rng = np.random.default_rng(4)
        w = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        xs = rng.normal(size=(6, 5))

        def loss_for(rows):
            w.grad = None
            h = sigmoid(matmul(Tensor(rows), w))
            (h * h).sum().backward()
            return w.grad

        total = loss_for(xs)
        parts = sum(loss_for(xs[k : k + 1]) for k in range(6))
        np.testing.assert_allclose(total, parts, atol=1e-10)

    def test_gradient_accumulates_over_reuse(self):
        x = Tensor(np.asarray(2.0), requires_grad=True)
        add(x * x, x).backward()
        assert x.grad.item() == pytest.approx(5.0)

    def test_unbroadcast_matches_elementwise_loop(self):
        rng = np.random.default_rng(9)
        col = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
        full = rng.normal(size=(3, 4))
        mul(col, Tensor(full)).sum().backward()
        np.testing.assert_allclose(
            col.grad, full.sum(axis=1, keepdims=True), atol=1e-12
        )


class TestOps:
    def test_stable_sigmoid_saturates_cleanly(self):
        assert stable_sigmoid(1e6) == 1.0
        assert stable_sigmoid(-1e6) == 0.0
        assert stable_sigmoid(0.0) == 0.5

    def test_concat_splits_gradient(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        (concat([a, b], 1) * Tensor(np.arange(10.0).reshape(2, 5))).sum().backward()
        np.testing.assert_array_equal(a.grad, [[0.0, 1.0], [5.0, 6.0]])
        np.testing.assert_array_equal(b.grad, [[2.0, 3.0, 4.0], [7.0, 8.0, 9.0]])

    def test_reshape_roundtrip(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        (reshape(x, (2, 3)) * reshape(x, (2, 3))).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * np.arange(6.0))


class TestEngineCheck:
    @pytest.mark.parametrize("grad, message", [
        (np.ones((1, 3)), "shape (1, 3) and dtype float64 for a parent of "
                          "shape (3,) and dtype float64"),
        (np.ones(3, np.float32), "shape (3,) and dtype float32 for a parent of "
                                 "shape (3,) and dtype float64"),
    ])
    def test_vjp_gradient_must_fit_its_parent(self, grad, message):
        w = Tensor(np.arange(3.0), requires_grad=True)
        loss = _node(np.asarray(3.0), (w,), lambda g: (grad,))
        with pytest.raises(ShapeError, match=re.escape(message)):
            loss.backward()
        assert w.grad is None

    def test_product_takes_a_tensor_of_one_shape_and_dtype(self):
        x = Tensor(np.ones(3))
        for other in (2.0, Tensor(np.ones((1, 3))), Tensor(np.ones(3, np.float32))):
            with pytest.raises(ShapeError, match=re.escape("Tensor * takes")):
                x * other
        with pytest.raises(TypeError):
            2.0 * x


def _recorded(t):
    return bool(t._parents) and t._backward is not None


class TestNoGrad:
    def test_ops_inside_return_plain_tensors(self):
        w = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
        x = Tensor(np.ones((3, 2)))
        with no_grad():
            out = sigmoid(matmul(x, w)).sum()
        assert out._parents == ()
        assert out._backward is None
        assert not out.requires_grad
        assert out.data.item() == sigmoid(matmul(x, w)).sum().data.item()

    def test_recording_resumes_after_block(self):
        w = Tensor(np.asarray(2.0), requires_grad=True)
        with no_grad():
            assert not _recorded(w * w)
        out = w * w
        assert _recorded(out)
        out.backward()
        assert w.grad.item() == 4.0

    def test_recording_resumes_after_nested_blocks(self):
        w = Tensor(np.asarray(1.5), requires_grad=True)
        with no_grad():
            with no_grad():
                assert not _recorded(add(w, 1.0))
            assert not _recorded(add(w, 1.0))
        assert _recorded(add(w, 1.0))

    def test_recording_resumes_after_exception(self):
        w = Tensor(np.asarray(1.5), requires_grad=True)
        with pytest.raises(ShapeError):
            with no_grad():
                matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
        assert _recorded(mul(w, 3.0))

    def test_block_in_one_thread_leaves_others_recording(self):
        w = Tensor(np.asarray(0.5), requires_grad=True)
        entered, release = threading.Event(), threading.Event()
        seen = {}

        def hold_block_open():
            with no_grad():
                seen["inside"] = _recorded(w * w)
                entered.set()
                release.wait(timeout=10.0)
                seen["still_inside"] = _recorded(w * w)

        holder = threading.Thread(target=hold_block_open)
        holder.start()
        try:
            assert entered.wait(timeout=10.0)
            assert _recorded(w * w)
            other = {}
            recorder = threading.Thread(
                target=lambda: other.setdefault("recorded", _recorded(w * w)))
            recorder.start()
            recorder.join(timeout=10.0)
            assert not recorder.is_alive()
            assert other["recorded"]
        finally:
            release.set()
            holder.join(timeout=10.0)
        assert not holder.is_alive()
        assert seen == {"inside": False, "still_inside": False}


def _interior_nodes(root):
    """Every recorded node reachable from `root`, the root included."""
    seen, stack, found = {id(root)}, [root], []
    while stack:
        node = stack.pop()
        if node._parents:
            found.append(node)
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return found


def _training_loss():
    model = build_model(tiny_config(), seed=0)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 12, 64))
    labels = rng.integers(0, 3, size=4)
    return model, _loss_of(model, Tensor(x), labels, "train", False)


class TestRelease:
    def test_backward_frees_closures_and_interior_gradients(self):
        model, loss = _training_loss()
        nodes = _interior_nodes(loss)
        assert len(nodes) > 10
        refs = [weakref.ref(node._backward) for node in nodes]
        loss.backward()
        assert all(ref() is None for ref in refs)
        assert all(node._backward is None for node in nodes)
        assert all(node.grad is None for node in nodes if node is not loss)
        assert loss.grad == 1.0
        for name, p in model.trainable_parameters().items():
            assert p.grad is not None, name
            assert p.grad.shape == p.data.shape, name

    def test_second_backward_raises_and_keeps_leaf_gradients(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = mul(relu(mul(x, 3)), 2).sum()
        y.backward()
        np.testing.assert_array_equal(x.grad, [6.0, 6.0])
        with pytest.raises(RuntimeError, match="already used by a backward"):
            y.backward()
        np.testing.assert_array_equal(x.grad, [6.0, 6.0])

        model, loss = _training_loss()
        loss.backward()
        params = model.trainable_parameters()
        before = {k: p.grad.copy() for k, p in params.items()}
        with pytest.raises(RuntimeError, match="run the forward pass again"):
            loss.backward()
        for k, p in params.items():
            assert p.grad.tobytes() == before[k].tobytes(), k
        assert loss.grad == 1.0

    def test_new_loss_on_released_node_raises_and_keeps_leaf_gradients(self):
        model, loss = _training_loss()
        logits = loss._parents[0]
        assert logits._parents
        loss.backward()
        params = model.trainable_parameters()
        before = {k: p.grad.copy() for k, p in params.items()}
        extra = mul(logits, 2.0).sum()
        with pytest.raises(RuntimeError, match="already used by a backward"):
            extra.backward()
        for k, p in params.items():
            assert p.grad.tobytes() == before[k].tobytes(), k
        assert extra.grad is None and extra._backward is not None

    def test_backward_lowers_held_memory(self):
        # Backward frees the tape's closures and interior outputs and leaves
        # one gradient per parameter, so apart from those gradients fewer
        # traced bytes are held than right after the forward.
        model = build_model(tiny_config(input_length=256, widths=(8, 16, 24, 32)),
                            seed=0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 12, 256))
        labels = rng.integers(0, 3, size=8)
        tracemalloc.start()
        try:
            loss = _loss_of(model, Tensor(x), labels, "train", False)
            before = tracemalloc.get_traced_memory()[0]
            loss.backward()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        grads = sum(p.grad.nbytes for p in model.trainable_parameters().values())
        assert after - grads < before
