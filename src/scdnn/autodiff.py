"""Reverse-mode automatic differentiation on dense numpy arrays.

Tensors wrap float64/float32 or complex128/complex64 numpy arrays. Every
operation records its parent tensors together with a closure that computes
vector-Jacobian products, and ``Tensor.backward`` walks the recorded graph
once in reverse topological order, accumulating gradients on the leaves.
The walk consumes the graph: each node frees its closure and its gradient
as soon as its vector-Jacobian product has run, so a graph serves one
backward pass, and a fresh forward is needed for the next one.

Complex values use the pairing convention: the gradient stored for a
complex tensor is ``dL/dRe + 1j*dL/dIm``. For a real-valued loss this is
exactly equivalent to differentiating the real and imaginary parts as two
independent real leaves, so finite-difference checks reduce to ordinary
real perturbations and no special calculus conventions are needed.

Inside ``with no_grad():`` operations return plain tensors with no parents
and no closure, so inference retains nothing for a backward pass. The flag
is a ``contextvars.ContextVar``: it holds per thread and per asyncio task,
and it is restored when the block exits, also on an exception.

``grad_check(loss_fn, params)`` checks the backward rules: it differentiates
a zero-argument loss closure once, then compares each component of the
named parameter leaves against central finite differences of that closure.
"""

import contextlib
import contextvars

import numpy as np

__all__ = [
    "Tensor",
    "GradCheckReport",
    "ShapeError",
    "stable_sigmoid",
    "grad_check",
    "no_grad",
    "mul",
    "relu",
    "reduce_sum",
]


class ShapeError(ValueError):
    """Raised when incompatible shapes reach an operation."""


def stable_sigmoid(z):
    """Overflow-safe logistic function, elementwise; exact 0/1 at saturation."""
    z = np.asarray(z)
    if z.dtype.kind != "f":
        z = z.astype(np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _as_float_array(data):
    arr = np.asarray(data)
    if arr.dtype.kind in "iub":
        arr = arr.astype(np.float64)
    if arr.dtype.kind not in "fc":
        raise TypeError(f"unsupported tensor dtype {arr.dtype}")
    if arr.ndim > 0 and not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)
    return arr


def _unbroadcast(g, shape):
    """Sum `g` down to `shape` along axes that were broadcast in forward."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _grad_for(parent_data, g):
    """Coerce an upstream gradient to the parent's shape and dtype family."""
    g = np.asarray(g)
    g = _unbroadcast(g, parent_data.shape)
    parent_complex = parent_data.dtype.kind == "c"
    if not parent_complex and g.dtype.kind == "c":
        g = g.real
    if g.dtype != parent_data.dtype:
        g = g.astype(parent_data.dtype)
    return g


class Tensor:
    """A dense array node in a dynamically recorded computation graph."""

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = _as_float_array(data)
        self.requires_grad = bool(requires_grad) or any(
            p.requires_grad for p in _parents
        )
        self.grad = None
        self._parents = tuple(_parents)
        self._backward = _backward

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        req = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{req})"

    # -- operators -----------------------------------------------------

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis, keepdims)

    # -- backward ------------------------------------------------------

    def backward(self):
        """Accumulate gradients of this (real scalar) node onto all leaves.

        The pass consumes the graph. As soon as an interior node's VJP has
        run, the node drops its closure, and with it the arrays saved for
        the VJP, and its gradient, except on this root. Leaf gradients are
        kept. A second backward that reaches a consumed node raises
        ``RuntimeError`` before any gradient changes; run the forward again
        for a fresh graph.
        """
        if self.data.size != 1:
            raise ValueError(
                f"backward requires a scalar loss node, got shape {self.data.shape}"
            )
        if self.data.dtype.kind == "c":
            raise TypeError("backward requires a real scalar loss")
        topo = _toposort(self)
        if any(node._parents and node._backward is None for node in topo):
            raise RuntimeError(
                "the graph was already used by a backward pass, which frees "
                "it; run the forward pass again to build a new graph"
            )
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if not node._parents:
                continue
            backward_fn, upstream = node._backward, node.grad
            node._backward = None
            if node is not self:
                node.grad = None
            if upstream is None:
                continue
            grads = backward_fn(upstream)
            for parent, g in zip(node._parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                g = _grad_for(parent.data, g)
                if parent.grad is None:
                    parent.grad = g
                else:
                    parent.grad = parent.grad + g


def _toposort(root):
    """Iterative post-order over ancestors that require gradients."""
    topo = []
    visited = {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        advanced = False
        for p in parents:
            if id(p) not in visited and p.requires_grad:
                visited.add(id(p))
                stack.append((p, iter(p._parents)))
                advanced = True
                break
        if not advanced:
            topo.append(node)
            stack.pop()
    return topo


_recording = contextvars.ContextVar("scdnn_autodiff_recording", default=True)


@contextlib.contextmanager
def no_grad():
    """Run the enclosed operations without recording a graph.

    Results are leaf tensors with no parents and no backward closure, so
    calling ``backward`` through them reaches nothing. Nesting is allowed;
    recording resumes when the outermost block exits.
    """
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


def _node(data, parents, backward_fn):
    """Construct an interior graph node; gradient tracking is inherited.

    Under ``no_grad`` the node is a plain tensor holding only `data`.
    """
    if not _recording.get():
        return Tensor(data)
    return Tensor(data, _parents=parents, _backward=backward_fn)


def _promote(x):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


# -- elementwise arithmetic ---------------------------------------------
#
# Python-number operands stay plain scalars instead of becoming float64
# leaf tensors: numpy's weak scalar promotion then preserves float32
# pipelines, and constants never enter the graph.


def _is_pynum(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def mul(a, b):
    """Elementwise product; complex factors follow the pairing convention."""
    if isinstance(a, Tensor) and _is_pynum(b):
        return _node(a.data * b, (a,), lambda g: (g * b,))
    if isinstance(b, Tensor) and _is_pynum(a):
        return _node(b.data * a, (b,), lambda g: (g * a,))
    a, b = _promote(a), _promote(b)

    def backward(g):
        ga = np.conj(b.data) * g if a.requires_grad else None
        gb = np.conj(a.data) * g if b.requires_grad else None
        return ga, gb

    return _node(a.data * b.data, (a, b), backward)


def relu(a):
    a = _promote(a)
    mask = a.data > 0

    def backward(g):
        return (g * mask,)

    return _node(np.maximum(a.data, 0.0), (a,), backward)


# -- reductions ------------------------------------------------------------


def _axis_tuple(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(ax % ndim for ax in axis)


def reduce_sum(a, axis=None, keepdims=False):
    a = _promote(a)
    axes = _axis_tuple(axis, a.data.ndim)
    out = a.data.sum(axis=axes, keepdims=keepdims)

    def backward(g):
        gg = np.asarray(g)
        if not keepdims:
            gg = np.expand_dims(gg, axes)
        return (np.broadcast_to(gg, a.data.shape),)

    return _node(out, (a,), backward)


# -- gradient checking -----------------------------------------------------


class GradCheckReport:
    """Per-parameter comparison of analytic and central-difference gradients."""

    def __init__(self, max_rel_error, nonfinite, tolerance):
        self.max_rel_error = dict(max_rel_error)
        self.nonfinite = dict(nonfinite)
        self.tolerance = tolerance

    @property
    def passed(self):
        if self.nonfinite:
            return False
        return all(e < self.tolerance for e in self.max_rel_error.values())

    def worst(self, n=5):
        """The n parameters with the largest relative error, descending."""
        ranked = sorted(self.max_rel_error.items(), key=lambda kv: -kv[1])
        return ranked[:n]

    def __repr__(self):
        status = "pass" if self.passed else "FAIL"
        top = ", ".join(f"{k}={v:.3e}" for k, v in self.worst(3))
        return f"GradCheckReport({status} at {self.tolerance:g}; worst: {top})"


def grad_check(loss_fn, params, epsilon=1e-6, tolerance=1e-4):
    """Compare every component of `params` against central finite differences.

    `loss_fn` takes no arguments and returns the scalar loss Tensor; inputs
    are whatever it closes over. `params` maps names to the float64 leaves
    to check; leaves that do not require gradients are skipped. One backward
    pass gives the analytic gradient, then each component is perturbed in
    place by +-`epsilon` and `loss_fn` is called for the two losses. The
    relative error per component is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8). Components
    whose analytic gradient or perturbed losses are not finite are listed
    per name in the report's `nonfinite`, which fails it.
    """
    if not 1e-7 <= epsilon <= 1e-4:
        raise ValueError(f"epsilon {epsilon} outside [1e-7, 1e-4]")
    params = {k: p for k, p in params.items() if p.requires_grad}
    for name, p in params.items():
        if p.data.dtype != np.float64:
            raise TypeError(f"grad_check requires float64 parameters ({name})")
        p.grad = None
    loss_fn().backward()

    max_rel = {}
    nonfinite = {}
    for name, p in params.items():
        flat = p.data.ravel()
        ana = (np.zeros_like(p.data) if p.grad is None else p.grad).ravel()
        worst = 0.0
        bad = []
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            lp = loss_fn().data.item()
            flat[i] = orig - epsilon
            lm = loss_fn().data.item()
            flat[i] = orig
            if not (np.isfinite(ana[i]) and np.isfinite(lp) and np.isfinite(lm)):
                bad.append(i)
                continue
            num = (lp - lm) / (2.0 * epsilon)
            rel = abs(ana[i] - num) / max(abs(ana[i]), abs(num), 1e-8)
            worst = max(worst, rel)
        max_rel[name] = worst
        if bad:
            nonfinite[name] = bad
    return GradCheckReport(max_rel, nonfinite, tolerance)
