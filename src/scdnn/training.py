"""Training loop, Adam optimizer, trace logging, macro-averaged evaluation,
ablation sweeps, and inference timing.

Training is bit-reproducible at 64-bit precision for a fixed seed: batch
shuffling, parameter init, and every update are seeded and run in a fixed
order. The per-epoch trace snapshots spectral-block parameters *before*
the epoch's first update, so row 0 always shows the initial values.
"""

import io
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import Tensor, no_grad
from .layers import cross_entropy, softmax
from .model import build_model

__all__ = [
    "Hyperparams",
    "AdamState",
    "TraceLog",
    "MetricsReport",
    "AblationTable",
    "InferenceBenchmark",
    "TrainingAbort",
    "adam_step",
    "lr_at_epoch",
    "train",
    "evaluate",
    "run_ablation",
    "benchmark_inference",
    "TRACE_HEADER",
]

TRACE_HEADER = (
    "epoch,loss,lr,"
    "phi1,phi2,phi3,phi4,"
    "gamma1,gamma2,gamma3,gamma4,"
    "lamL1,lamL2,lamL3,lamL4,"
    "lamH1,lamH2,lamH3,lamH4"
)


class TrainingAbort(RuntimeError):
    """Raised when the loss goes non-finite, with epoch/batch context."""


@dataclass
class Hyperparams:
    epochs: int = 50
    batch_size: int = 32
    lr: float = 1e-4
    weight_decay: float = 2e-5
    lr_drop_epoch: int = 20
    lr_drop_factor: float = 10.0
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if self.batch_size < 2:
            raise ValueError("batch_size must be at least 2: train-mode "
                             "batch normalization needs two records")
        if min(self.lr, self.lr_drop_factor, self.adam_eps) <= 0:
            raise ValueError("lr, lr_drop_factor and adam_eps must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if not 0 <= self.lr_drop_epoch <= self.epochs:
            raise ValueError("lr_drop_epoch must lie within the epoch range")

    def to_text(self):
        return "".join(
            f"{k}={v}\n"
            for k, v in vars(self).items()
        )


def lr_at_epoch(hyper, epoch):
    """Base rate until lr_drop_epoch, divided by the drop factor afterwards."""
    if epoch >= hyper.lr_drop_epoch:
        return hyper.lr / hyper.lr_drop_factor
    return hyper.lr


class AdamState:
    """First/second moment estimates per parameter name plus a step counter."""

    def __init__(self):
        self.m = {}
        self.v = {}
        self.t = 0


def adam_step(params, grads, state, lr, weight_decay=0.0, decay_exempt=(),
              beta1=0.9, beta2=0.999, eps=1e-8):
    """One coupled-L2 Adam update, in place on the parameter tensors."""
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    for name, p in params.items():
        g = np.asarray(grads[name])
        if weight_decay and name not in decay_exempt:
            g = g + weight_decay * p.data
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        state.m[name] = beta1 * state.m[name] + (1.0 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1.0 - beta2) * (g * g)
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)


@dataclass
class TraceRow:
    epoch: int
    loss: float
    lr: float
    phi: tuple
    gamma: tuple
    lam_low: tuple
    lam_high: tuple

    def to_csv(self):
        cells = [str(self.epoch), repr(self.loss), repr(self.lr)]
        for group in (self.phi, self.gamma, self.lam_low, self.lam_high):
            cells.extend(repr(v) for v in group)
        return ",".join(cells)


@dataclass
class TraceLog:
    rows: list = field(default_factory=list)

    def to_csv(self):
        out = [TRACE_HEADER]
        out.extend(row.to_csv() for row in self.rows)
        return "\n".join(out) + "\n"

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())


def _batch_array(records, dtype):
    return np.stack([rec.leads for rec in records]).astype(dtype)


def _batch_labels(records):
    return np.array([rec.label for rec in records], dtype=np.int64)


def _loss_of(model, x, labels, mode, update_running=None):
    """Cross-entropy of the model's logits for the input Tensor `x`."""
    logits = model.forward(x, mode, update_running)
    if model.config.double_softmax:
        logits = softmax(logits)
    return cross_entropy(logits, labels)


def train(model, dataset, hyper, trace_callback=None):
    """Run the full optimization schedule; returns the TraceLog.

    The model is updated in place. Each epoch shuffles the train split with
    a seeded generator, steps Adam per batch (weight decay skips batchnorm
    affine parameters and the spectral scalars), clamps the spectral
    thresholds, and drops a trailing batch of one sample, which batch
    normalization cannot process.
    """
    records = dataset.records_in("train")
    if len(records) < 2:
        raise ValueError(f"train split has {len(records)} records; train-mode "
                         f"batch normalization needs at least 2")
    if len(dataset.class_names) != model.config.n_classes:
        raise ValueError(
            f"dataset has {len(dataset.class_names)} classes, model expects "
            f"{model.config.n_classes}"
        )
    if len({rec.length for rec in records}) != 1:
        raise ValueError("train records have mixed lengths; pad to max first")
    dtype = model.config.dtype
    params = model.trainable_parameters()
    state = AdamState()
    log = TraceLog()
    n = len(records)
    for epoch in range(hyper.epochs):
        lr = lr_at_epoch(hyper, epoch)
        snap = model.satse_snapshot()
        order = np.random.default_rng([hyper.seed, 101, epoch]).permutation(n)
        total, count = 0.0, 0
        for start in range(0, n, hyper.batch_size):
            chosen = [records[i] for i in order[start : start + hyper.batch_size]]
            if len(chosen) == 1:
                continue
            xb = _batch_array(chosen, dtype)
            yb = _batch_labels(chosen)
            loss = _loss_of(model, Tensor(xb), yb, "train")
            value = float(loss.data)
            if not np.isfinite(value):
                raise TrainingAbort(
                    f"non-finite loss at epoch {epoch}, batch {start // hyper.batch_size}"
                )
            model.zero_grad()
            # backward frees the closures and interior gradients, but
            # `loss` keeps the forward activations alive through its parent
            # links until the next batch rebinds it. That is deliberate:
            # dropping `loss` here lowers the peak further, but glibc then
            # trims the freed heap between steps, and the next forward pays
            # several thousand minor page faults to grow it back (L=1000,
            # batch 32: the step median rose by about a tenth).
            loss.backward()
            grads = {k: p.grad for k, p in params.items()}
            adam_step(
                params, grads, state, lr,
                weight_decay=hyper.weight_decay,
                decay_exempt=model.weight_decay_exempt,
                beta1=hyper.adam_beta1, beta2=hyper.adam_beta2,
                eps=hyper.adam_eps,
            )
            model.clamp_satse()
            total += value * len(chosen)
            count += len(chosen)
        row = TraceRow(
            epoch=epoch,
            loss=total / max(count, 1),
            lr=lr,
            phi=tuple(s[0] for s in snap),
            gamma=tuple(s[1] for s in snap),
            lam_low=tuple(s[2] for s in snap),
            lam_high=tuple(s[3] for s in snap),
        )
        log.rows.append(row)
        if trace_callback is not None:
            trace_callback(row)
    return log


# -- evaluation ----------------------------------------------------------------


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class MetricsReport:
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    per_class: list
    confusion: np.ndarray
    zero_division_classes: tuple = ()

    def to_text(self, class_names=None):
        n = self.confusion.shape[0]
        names = class_names or [f"class{i}" for i in range(n)]
        width = max(len(s) for s in names)
        buf = io.StringIO()
        buf.write(f"accuracy        {self.accuracy:.6f}\n")
        buf.write(f"macro precision {self.macro_precision:.6f}\n")
        buf.write(f"macro recall    {self.macro_recall:.6f}\n")
        buf.write(f"macro f1        {self.macro_f1:.6f}\n")
        buf.write("\nper-class (precision / recall / f1 / support):\n")
        for i, cm in enumerate(self.per_class):
            flag = " [zero-division -> 0]" if i in self.zero_division_classes else ""
            buf.write(
                f"  {names[i]:<{width}}  {cm.precision:.6f}  {cm.recall:.6f}  "
                f"{cm.f1:.6f}  {cm.support}{flag}\n"
            )
        buf.write("\nconfusion matrix (rows true, cols predicted):\n")
        for i in range(n):
            buf.write("  " + " ".join(f"{v:6d}" for v in self.confusion[i]) + "\n")
        return buf.getvalue()

    def to_keyvalues(self):
        lines = [
            f"accuracy={self.accuracy!r}",
            f"macro_precision={self.macro_precision!r}",
            f"macro_recall={self.macro_recall!r}",
            f"macro_f1={self.macro_f1!r}",
        ]
        for i, cm in enumerate(self.per_class):
            lines.append(
                f"class{i}={cm.precision!r},{cm.recall!r},{cm.f1!r},{cm.support}"
            )
        for i in range(self.confusion.shape[0]):
            lines.append(
                f"confusion{i}=" + ",".join(str(v) for v in self.confusion[i])
            )
        return "\n".join(lines) + "\n"


def metrics_from_confusion(confusion):
    """Macro metrics from a (true, predicted) count matrix.

    Per-class precision TP/(TP+FP) and recall TP/(TP+FN); classes whose
    denominator is zero contribute 0 and are flagged.
    """
    confusion = np.asarray(confusion, dtype=np.int64)
    n = confusion.shape[0]
    total = confusion.sum()
    accuracy = float(np.trace(confusion) / total) if total else 0.0
    per_class = []
    zero_div = []
    for c in range(n):
        tp = confusion[c, c]
        fp = confusion[:, c].sum() - tp
        fn = confusion[c, :].sum() - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        if tp + fp == 0 or tp + fn == 0:
            zero_div.append(c)
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        per_class.append(
            ClassMetrics(float(precision), float(recall), float(f1),
                         int(confusion[c, :].sum()))
        )
    return MetricsReport(
        accuracy=accuracy,
        macro_precision=float(np.mean([c.precision for c in per_class])),
        macro_recall=float(np.mean([c.recall for c in per_class])),
        macro_f1=float(np.mean([c.f1 for c in per_class])),
        per_class=per_class,
        confusion=confusion,
        zero_division_classes=tuple(zero_div),
    )


def predict(model, records, batch_size=64):
    """Eval-mode argmax class per record; ties resolve to the lowest index.

    The forward passes run under ``no_grad``, so no graph is recorded.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    preds = []
    dtype = model.config.dtype
    with no_grad():
        for start in range(0, len(records), batch_size):
            chunk = records[start : start + batch_size]
            logits = model.forward(Tensor(_batch_array(chunk, dtype)), "eval")
            preds.extend(np.argmax(logits.data, axis=1).tolist())
    return np.array(preds, dtype=np.int64)


def evaluate(model, dataset, split="test", batch_size=64):
    records = dataset.records_in(split)
    if not records:
        raise ValueError(f"split {split!r} is empty")
    preds = predict(model, records, batch_size)
    labels = _batch_labels(records)
    n = model.config.n_classes
    confusion = np.zeros((n, n), dtype=np.int64)
    np.add.at(confusion, (labels, preds), 1)
    return metrics_from_confusion(confusion)


# -- ablations -----------------------------------------------------------------

ABLATION_AXES = ("satse_count", "fixed_phi", "depth")

_METRIC_NAMES = ("accuracy", "macro_precision", "macro_recall", "macro_f1")


@dataclass
class AblationRow:
    value: object
    stats: dict  # metric name -> (mean, std)
    parameter_count: int
    repeats: int


@dataclass
class AblationTable:
    axis: str
    rows: list

    def to_text(self):
        buf = io.StringIO()
        buf.write(f"axis: {self.axis}\n")
        header = f"{'value':>12} {'params':>10}"
        for m in _METRIC_NAMES:
            header += f" {m:>24}"
        buf.write(header + "\n")
        for row in self.rows:
            line = f"{str(row.value):>12} {row.parameter_count:>10}"
            for m in _METRIC_NAMES:
                mean, std = row.stats[m]
                line += f" {mean:>14.4f} +- {std:.4f}"
            buf.write(line + "\n")
        return buf.getvalue()


def _config_for(base_config, axis, value):
    if axis == "satse_count":
        return base_config.with_satse_count(int(value))
    if axis == "fixed_phi":
        return replace(base_config, fixed_phi=float(value))
    if axis == "depth":
        return replace(base_config, backbone=str(value))
    raise ValueError(f"unknown ablation axis {axis!r}; choose from {ABLATION_AXES}")


def run_ablation(base_config, axis, values, dataset, hyper, repeats=1,
                 eval_split="test"):
    """Train one model per (value, repeat) and tabulate mean +- std metrics.

    All values share the same seed sequence: repeat r uses hyper.seed + r,
    so rows differ only in the configuration under study.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    rows = []
    for value in values:
        config = _config_for(base_config, axis, value)
        metrics = {m: [] for m in _METRIC_NAMES}
        param_count = None
        for r in range(repeats):
            run_hyper = replace(hyper, seed=hyper.seed + r)
            model = build_model(config, seed=run_hyper.seed)
            param_count = model.parameter_count()
            train(model, dataset, run_hyper)
            report = evaluate(model, dataset, eval_split)
            for m in _METRIC_NAMES:
                metrics[m].append(getattr(report, m))
        stats = {
            m: (float(np.mean(vals)), float(np.std(vals)))
            for m, vals in metrics.items()
        }
        rows.append(AblationRow(value, stats, param_count, repeats))
    return AblationTable(axis, rows)


# -- timing --------------------------------------------------------------------


@dataclass
class InferenceBenchmark:
    mean_seconds_per_batch: float
    std_seconds_per_batch: float
    per_repeat: list  # one mean-seconds-per-batch entry per repeat


def benchmark_inference(model, dataset, repeats=3, split="test", batch_size=32,
                        warmup=1):
    """Eval-mode wall time per batch over `repeats` passes, warmup excluded.

    Like `predict`, the forward passes run under ``no_grad``.
    """
    if batch_size < 1 or repeats < 1:
        raise ValueError(f"batch_size {batch_size} and repeats {repeats} must "
                         "be at least 1")
    records = dataset.records_in(split)
    if not records:
        raise ValueError(f"split {split!r} is empty")
    dtype = model.config.dtype
    batches = [
        _batch_array(records[s : s + batch_size], dtype)
        for s in range(0, len(records), batch_size)
    ]
    times = []
    with no_grad():
        for _ in range(warmup):
            for xb in batches:
                model.forward(Tensor(xb), "eval")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for xb in batches:
                model.forward(Tensor(xb), "eval")
            times.append((time.perf_counter() - t0) / len(batches))
    return InferenceBenchmark(
        float(np.mean(times)), float(np.std(times)), times
    )
