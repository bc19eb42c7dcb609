"""Training loop, Adam optimizer, trace logging, macro-averaged evaluation
and ablation sweeps.

Training is bit-reproducible at 64-bit precision for a fixed seed: batch
shuffling, parameter init, and every update are seeded and run in a fixed
order. The per-epoch trace snapshots spectral-block parameters *before*
the epoch's first update, so row 0 always shows the initial values.
"""

import ctypes
import io
import json
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .autodiff import Tensor, no_grad
from .layers import cross_entropy, softmax
from .model import _read_fields, build_model

__all__ = [
    "Hyperparams",
    "AdamState",
    "TraceLog",
    "MetricsReport",
    "AblationTable",
    "TrainingAbort",
    "adam_step",
    "lr_at_epoch",
    "train",
    "evaluate",
    "run_ablation",
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

    # Adam's moment decay rates and denominator guard: constants, not fields
    adam_beta1 = 0.9
    adam_beta2 = 0.999
    adam_eps = 1e-8

    def __post_init__(self):
        _read_fields(self)
        inf = np.inf
        rules = (
            ("epochs", self.epochs >= 1, "at least 1"),
            ("batch_size", self.batch_size >= 2,
             "at least 2 (train-mode batch normalization needs two records)"),
            ("lr", 0 < self.lr < inf, "positive and finite"),
            ("weight_decay", 0 <= self.weight_decay < inf, "non-negative and finite"),
            ("lr_drop_epoch", self.lr_drop_epoch >= 0, "non-negative"),
            ("lr_drop_factor", 0 < self.lr_drop_factor < inf, "positive and finite"),
            ("seed", self.seed >= 0, "non-negative"),
        )
        for name, holds, rule in rules:
            if not holds:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")


def lr_at_epoch(hyper, epoch):
    """Base rate until lr_drop_epoch, divided by the drop factor afterwards;
    a run that ends before lr_drop_epoch never drops the rate."""
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
              beta1=Hyperparams.adam_beta1, beta2=Hyperparams.adam_beta2,
              eps=Hyperparams.adam_eps):
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


def _batch_array(records, dtype):
    return np.stack([rec.leads for rec in records], dtype=dtype)


def _batch_labels(records):
    return np.array([rec.label for rec in records], dtype=np.int64)


def _loss_of(model, x, labels, mode, update_running=None):
    """Cross-entropy of the model's logits for the input Tensor `x`."""
    logits = model.forward(x, mode, update_running)
    if model.config.double_softmax:
        logits = softmax(logits)
    return cross_entropy(logits, labels)


_LIBC = ctypes.CDLL(None) if os.name == "posix" else None  # for glibc's mallopt
_heap_kept = False


def _keep_freed_memory_in_heap():
    """Once per process, have glibc serve arrays of up to 32 MiB (its own
    dynamic ceiling) from the heap and never trim the heap's top, so each
    forward reuses the pages that the last step's graph freed. Setting
    either threshold switches off glibc's dynamic ones, so both are set."""
    global _heap_kept
    mallopt = getattr(_LIBC, "mallopt", None)
    if mallopt is not None and not _heap_kept:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int] * 2, ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 2**31 - 1)  # M_TRIM_THRESHOLD, at the largest int
    _heap_kept = True


def _check_lengths(model, records, what):
    """Refuse records of mixed lengths, and, for a model with SATSE blocks
    (each built for one length), records not of the model's input length."""
    lengths = sorted({rec.length for rec in records})
    if len(lengths) > 1:
        raise ValueError(f"{what} have mixed lengths ({lengths[0]} to "
                         f"{lengths[-1]}); pad to max first")
    expected = model.config.input_length
    if lengths and lengths[0] != expected and any(model.satse):
        raise ValueError(f"{what} have length {lengths[0]}, but the model's "
                         f"spectral blocks are built for length {expected}")


def _split_records(dataset, split, fewest=1):
    """The records of `split`; fewer than `fewest` raises ValueError."""
    records = dataset.records_in(split)
    if len(records) < fewest:
        state = "too small" if records else "empty"
        raise ValueError(f"split {split!r} is {state}: it has {len(records)} "
                         f"records, at least {fewest} needed")
    return records


def _train_records(dataset, *eval_splits):
    """The train split's records, which train-mode batch normalization needs
    two of, after checking that each of `eval_splits` has one."""
    for split in eval_splits:
        _split_records(dataset, split)
    return _split_records(dataset, "train", 2)


def _check_class_count(model, dataset):
    if len(dataset.class_names) != model.config.n_classes:
        raise ValueError(
            f"dataset has {len(dataset.class_names)} classes, model expects "
            f"{model.config.n_classes}"
        )


def train(model, dataset, hyper, trace_callback=None):
    """Run the full optimization schedule; returns the TraceLog.

    The model is updated in place. Each epoch shuffles the train split with
    a seeded generator, steps Adam per batch (weight decay skips batchnorm
    affine parameters and the spectral scalars), clamps the spectral
    thresholds, and drops a trailing batch of one sample, which batch
    normalization cannot process.
    """
    records = _train_records(dataset)
    _check_class_count(model, dataset)
    _check_lengths(model, records, "train records")
    dtype = model.config.dtype
    params = model.trainable_parameters()
    state = AdamState()
    log = TraceLog()
    n = len(records)
    _keep_freed_memory_in_heap()
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
            # Freed here, the graph stays in the heap for the next forward.
            loss.backward()
            del loss
            grads = {k: p.grad for k, p in params.items()}
            adam_step(params, grads, state, lr, weight_decay=hyper.weight_decay,
                      decay_exempt=model.weight_decay_exempt)
            model.clamp_satse()
            total += value * len(chosen)
            count += len(chosen)
        row = TraceRow(epoch, total / max(count, 1), lr, *zip(*snap))
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

    def to_json(self):
        """The report's fields as one JSON object, `confusion` as nested
        lists; a non-finite value raises ValueError."""
        doc = asdict(self)
        doc["confusion"] = self.confusion.tolist()
        return json.dumps(doc, indent=2, allow_nan=False)


def metrics_from_confusion(confusion):
    """Macro metrics from a (true, predicted) count matrix.

    Per-class precision TP/(TP+FP) and recall TP/(TP+FN); classes whose
    denominator is zero contribute 0 and are flagged.
    """
    confusion = np.asarray(confusion, dtype=np.int64)
    total = confusion.sum()
    accuracy = float(np.trace(confusion) / total) if total else 0.0
    tp = np.diag(confusion)
    predicted, support = confusion.sum(axis=0), confusion.sum(axis=1)

    def ratio(num, den):
        return np.divide(num, den, out=np.zeros(len(num)), where=den != 0)

    precision, recall = ratio(tp, predicted), ratio(tp, support)
    f1 = ratio(2 * precision * recall, precision + recall)
    return MetricsReport(
        accuracy=accuracy,
        macro_precision=float(np.mean(precision)),
        macro_recall=float(np.mean(recall)),
        macro_f1=float(np.mean(f1)),
        per_class=[ClassMetrics(*row) for row in zip(
            precision.tolist(), recall.tolist(), f1.tolist(), support.tolist())],
        confusion=confusion,
        zero_division_classes=tuple(
            np.flatnonzero((predicted == 0) | (support == 0)).tolist()),
    )


def predict(model, records, batch_size=64):
    """Eval-mode argmax class per record; ties resolve to the lowest index.

    The records must share one length (see ``data.pad_to_max``), the model's
    input length if it has SATSE blocks. The forward passes run under
    ``no_grad``, so no graph is recorded.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    _check_lengths(model, records, "records")
    preds = []
    dtype = model.config.dtype
    with no_grad():
        for start in range(0, len(records), batch_size):
            chunk = records[start : start + batch_size]
            logits = model.forward(Tensor(_batch_array(chunk, dtype)), "eval")
            preds.extend(np.argmax(logits.data, axis=1).tolist())
    return np.array(preds, dtype=np.int64)


def evaluate(model, dataset, split="test", batch_size=64):
    _check_class_count(model, dataset)
    records = _split_records(dataset, split)
    preds = predict(model, records, batch_size)
    labels = _batch_labels(records)
    n = model.config.n_classes
    confusion = np.zeros((n, n), dtype=np.int64)
    np.add.at(confusion, (labels, preds), 1)
    return metrics_from_confusion(confusion)


# -- ablations -----------------------------------------------------------------

# ablation axis -> the ModelConfig field it sweeps
ABLATION_AXES = {"satse_count": "satse_blocks", "fixed_phi": "fixed_phi",
                 "depth": "backbone"}

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


def run_ablation(base_config, axis, values, dataset, hyper, repeats=1):
    """Train one model per (value, repeat) and tabulate mean +- std test
    metrics.

    All values share the same seed sequence: repeat r uses hyper.seed + r,
    so rows differ only in the configuration under study. Each value is
    set as the field that ABLATION_AXES names for `axis`, as given.
    """
    if axis not in ABLATION_AXES:
        raise ValueError(f"unknown ablation axis {axis!r}; "
                         f"choose from {list(ABLATION_AXES)}")
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    configs = [(value, replace(base_config, **{ABLATION_AXES[axis]: value}))
               for value in values]
    _train_records(dataset, "test")
    rows = []
    for value, config in configs:
        metrics = {m: [] for m in _METRIC_NAMES}
        param_count = None
        for r in range(repeats):
            run_hyper = replace(hyper, seed=hyper.seed + r)
            model = build_model(config, seed=run_hyper.seed)
            param_count = model.parameter_count()
            train(model, dataset, run_hyper)
            report = evaluate(model, dataset, "test")
            for m in _METRIC_NAMES:
                metrics[m].append(getattr(report, m))
        stats = {
            m: (float(np.mean(vals)), float(np.std(vals)))
            for m, vals in metrics.items()
        }
        rows.append(AblationRow(value, stats, param_count, repeats))
    return AblationTable(axis, rows)
