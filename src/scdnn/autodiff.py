"""Reverse-mode automatic differentiation on dense numpy arrays.

Tensors wrap float64/float32 or complex128/complex64 numpy arrays. Every
operation records its parent tensors together with a closure that computes
vector-Jacobian products, and ``Tensor.backward`` walks the recorded graph
once in reverse topological order, accumulating gradients on the leaves.
The walk consumes the graph: each node frees its closure and its gradient
as soon as its vector-Jacobian product has run, so a graph serves one
backward pass, and a fresh forward is needed for the next one. Every
vector-Jacobian product returns each gradient in its parent's exact shape
and dtype; the walk checks this and neither sums broadcast axes nor casts.

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
    "grad_check",
    "no_grad",
]

# The finite-difference steps that grad_check accepts.
_EPSILON_RANGE = (1e-7, 1e-4)
# grad_check's floor on a gradient's scale, per unit loss and step: 2**22 u.
_ROUNDING_FLOOR = 2.0**22 * 2.0**-53


class ShapeError(ValueError):
    """Raised when a shape or dtype does not fit an operation or a gradient."""


def _as_float_array(data):
    arr = np.asarray(data)
    if arr.dtype.kind in "iub":
        arr = arr.astype(np.float64)
    if arr.dtype.kind not in "fc":
        raise TypeError(f"unsupported tensor dtype {arr.dtype}")
    if arr.ndim > 0 and not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)
    return arr


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
    # The model runs on fused nodes; these serve the benchmark's segmented
    # step, which chains its backward through (out * upstream).sum().

    def __mul__(self, other):
        """Product with a Tensor of one shape and dtype (pairing convention)."""
        if not (isinstance(other, Tensor)
                and (other.shape, other.dtype) == (self.shape, self.dtype)):
            raise ShapeError(f"Tensor * takes a Tensor of shape {self.shape} "
                             f"and dtype {self.dtype}, got {other!r}")

        def backward(g):
            return (np.conj(other.data) * g if self.requires_grad else None,
                    np.conj(self.data) * g if other.requires_grad else None)

        return _node(self.data * other.data, (self, other), backward)

    def sum(self):
        """Sum of every element."""
        return _node(self.data.sum(), (self,),
                     lambda g: (np.broadcast_to(g, self.shape),))

    # -- backward ------------------------------------------------------

    def backward(self):
        """Accumulate gradients of this (real scalar) node onto all leaves.

        The pass consumes the graph. As soon as an interior node's VJP has
        run, the node drops its closure, and with it the arrays saved for
        the VJP, and its gradient, except on this root. Leaf gradients are
        kept. A second backward that reaches a consumed node raises
        ``RuntimeError`` before any gradient changes; run the forward again
        for a fresh graph. A VJP gradient that does not fit its parent's
        shape and dtype exactly raises ``ShapeError``."""
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
                if (g.shape, g.dtype) != (parent.shape, parent.dtype):
                    raise ShapeError(
                        f"{backward_fn.__qualname__} returned a gradient of "
                        f"shape {g.shape} and dtype {g.dtype} for a parent of "
                        f"shape {parent.shape} and dtype {parent.dtype}")
                if parent.grad is None:
                    parent.grad = g
                else:
                    parent.grad = parent.grad + g


def _toposort(root):
    """Iterative post-order over ancestors that require gradients."""
    topo, visited, stack = [], {id(root)}, [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        p = next((p for p in parents if id(p) not in visited and p.requires_grad),
                 None)
        if p is None:
            topo.append(node)
            stack.pop()
        else:
            visited.add(id(p))
            stack.append((p, iter(p._parents)))
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
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8, floor), where
    floor = 2**22 * u * max(|L+|, |L-|) / epsilon, u = 2**-53 and L+, L- are
    the two losses. A loss carries rounding error of up to a few hundred
    u * |L|, so the central difference of a gradient below the floor cannot
    resolve the default tolerance, 1e-4: its error is taken relative to the
    floor. Components whose analytic gradient or perturbed losses are not
    finite are listed per name in the report's `nonfinite`, which fails it.
    """
    low, high = _EPSILON_RANGE
    if not low <= epsilon <= high:
        raise ValueError(f"epsilon {epsilon} outside [{low:g}, {high:g}]")
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
            floor = _ROUNDING_FLOOR * max(abs(lp), abs(lm)) / epsilon
            rel = abs(ana[i] - num) / max(abs(ana[i]), abs(num), 1e-8, floor)
            worst = max(worst, rel)
        max_rel[name] = worst
        if bad:
            nonfinite[name] = bad
    return GradCheckReport(max_rel, nonfinite, tolerance)
