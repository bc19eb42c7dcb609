"""The three benchmark workloads: inputs, set-up, timed phases and output checks.

Every workload is a closed loop with one client: the next training step or
inference batch starts only when the previous one has finished, because
training and batch classification are offline jobs with no arrival process.
All of them use batch 32, 12 leads, resnet18 with stage widths
16,32,64,128 and float64. The system is driven only through public
functions of the ``scdnn`` package.
"""

import math
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from scdnn.autodiff import Tensor
from scdnn.data import (
    EcgDataset,
    EcgRecord,
    pad_to_max,
    read_ecgb,
    stratified_split,
    synth_generate,
    write_ecgb,
)
from scdnn.layers import cross_entropy, softmax
from scdnn.model import ModelConfig, build_model, load_model, save_model
from scdnn.training import Hyperparams, evaluate, predict, train

BATCH = 32
WIDTHS = (16, 32, 64, 128)
N_CLASSES = 4
# 40 records per class split 24/8/8: the train split is exactly three full
# batches and the test split exactly one, so every timed step or inference
# batch does the same amount of work.
PER_CLASS = 40
FRACTIONS = (0.6, 0.2, 0.2)
SETUP_PASSES = 5
# Training always runs at least this many epochs, so the loss checked
# against the reference is taken at the same point whatever the run length.
CHECK_EPOCHS = 8
MAX_EPOCHS = 100_000
MIN_INFER_BATCHES = 20
DEFAULT_SEED = 1

# Reference outputs for DEFAULT_SEED. The tolerance admits rounding-level
# changes (a different FFT, a fused op) and rejects a wrong result, which
# moves these values by far more than one part in a million.
REFERENCE_RTOL = 1e-6
REFERENCE = {
    "train-L1000": 0.14742800198951897,  # loss at epoch CHECK_EPOCHS
    "train-L512-plain": 0.14207899875349914,
    "infer-L512": [-7.070940022710491, 1.111698567646083,  # logits_digest
                   -27.95743209460432],
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "infer"
    length: int
    satse_count: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-L1000", "train", 1000, 4),
        Workload("train-L512-plain", "train", 512, 0),
        Workload("infer-L512", "infer", 512, 4),
    )
}


@contextmanager
def timed(timings, name):
    """Append the wall time of the block to ``timings[name]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        timings.setdefault(name, []).append(time.perf_counter() - start)


def batch_arrays(records, dtype):
    x = np.stack([rec.leads for rec in records]).astype(dtype)
    y = np.array([rec.label for rec in records], dtype=np.int64)
    return x, y


def loss_of(model, x, labels, mode, update_running=None):
    logits = model.forward(Tensor(x), mode, update_running)
    if model.config.double_softmax:
        logits = softmax(logits)
    return cross_entropy(logits, labels)


def _vary_lengths(dataset, length, seed):
    """Cut records to seeded lengths in [3L/4, L]; the first keeps length L."""
    rng = np.random.default_rng([seed, 7])
    cuts = rng.integers(3 * length // 4, length + 1, size=len(dataset.records))
    cuts[0] = length
    records = [
        EcgRecord(rec.leads[:, :n], rec.label, rec.record_id)
        for rec, n in zip(dataset.records, cuts)
    ]
    return EcgDataset(records, list(dataset.class_names), dataset.n_leads)


def model_config(workload):
    return ModelConfig(
        n_classes=N_CLASSES, input_length=workload.length, stage_widths=WIDTHS,
    ).with_satse_count(workload.satse_count)


def set_up(workload, seed, workdir, timings):
    """One set-up pass, from synthesis to a warmed-up model.

    Returns the dataset read back from its ECGB file, the model loaded back
    from its model file, and the path of that file.
    """
    with timed(timings, "data.synth"):
        dataset = synth_generate(PER_CLASS, N_CLASSES, length=workload.length,
                                 seed=seed)
        if workload.kind == "infer":
            dataset = _vary_lengths(dataset, workload.length, seed)
    with timed(timings, "data.split"):
        dataset = stratified_split(dataset, FRACTIONS, seed=seed)
    with timed(timings, "data.pad"):
        dataset = pad_to_max(dataset)
    data_path = os.path.join(workdir, "data.ecgb")
    with timed(timings, "data.ecgb_write"):
        write_ecgb(dataset, data_path)
    with timed(timings, "data.ecgb_read"):
        dataset = read_ecgb(data_path)
    with timed(timings, "model.build"):
        model = build_model(model_config(workload), seed=seed)
    if workload.kind == "infer":
        # SATSE gains start at 0, which would make the logits blind to the
        # spectral path; non-zero gains stand in for a trained model.
        for name, p in model.named_parameters().items():
            if name.endswith(".lambda_low"):
                p.data[...] = 0.5
            elif name.endswith(".lambda_high"):
                p.data[...] = -0.25
    model_path = os.path.join(workdir, "model.scdn")
    with timed(timings, "model.save"):
        save_model(model, model_path)
    with timed(timings, "model.load"):
        model = load_model(model_path)
    # The warm-up fills lazy caches (FFT plans) and leaves the model as
    # loaded: no running-statistics update, no parameter update.
    with timed(timings, "warmup"):
        if workload.kind == "train":
            x, y = batch_arrays(dataset.records_in("train")[:BATCH],
                                model.config.dtype)
            loss_of(model, x, y, "train", update_running=False).backward()
            model.zero_grad()
        else:
            evaluate(model, dataset, "test", batch_size=BATCH)
    return dataset, model, model_path


def set_up_repeatedly(workload, seed, workdir):
    """SETUP_PASSES full set-ups; the last one's dataset and model are kept."""
    timings = {}
    for _ in range(SETUP_PASSES):
        start = time.perf_counter()
        dataset, model, model_path = set_up(workload, seed, workdir, timings)
        timings.setdefault("setup", []).append(time.perf_counter() - start)
    return dataset, model, model_path, timings


class _TimeUp(Exception):
    """Raised at the end of a step to stop train() once time is up."""


def hyperparams(seed):
    return Hyperparams(epochs=MAX_EPOCHS, seed=seed)


def run_training(model, dataset, seed, seconds):
    """Run train() for `seconds` and at least CHECK_EPOCHS epochs.

    Steps are timed from outside: the model's clamp_satse, which train()
    calls once at the end of every step, is wrapped to stamp the time and
    to stop train() after the step that crosses the deadline.
    Returns (step times, per-epoch losses, error message or None).
    """
    ends, losses = [], []
    clamp = model.clamp_satse

    def clamp_and_stamp():
        clamp()
        ends.append(time.perf_counter())
        if len(losses) >= CHECK_EPOCHS and ends[-1] >= deadline:
            raise _TimeUp

    model.clamp_satse = clamp_and_stamp
    error = None
    start = time.perf_counter()
    deadline = start + seconds
    try:
        train(model, dataset, hyperparams(seed),
              trace_callback=lambda row: losses.append(row.loss))
    except _TimeUp:
        pass
    except Exception as exc:  # a failed step is counted, not raised
        error = f"{type(exc).__name__}: {exc}"
    finally:
        del model.clamp_satse
    return np.diff([start] + ends), losses, error


def check_training(workload, seed, losses, error):
    """Output checks of a training run; returns (checks made, problems)."""
    problems = [error] if error else []
    if len(losses) < CHECK_EPOCHS:
        problems.append(f"only {len(losses)} of {CHECK_EPOCHS} epochs ran")
        return 1, problems
    checked = losses[:CHECK_EPOCHS]
    final = checked[-1]
    if not all(math.isfinite(v) for v in checked):
        problems.append(f"non-finite epoch loss in {checked}")
    if not final < checked[0]:
        problems.append(f"loss did not fall: {checked[0]!r} -> {final!r}")
    checks = 2
    expected = REFERENCE[workload.name] if seed == DEFAULT_SEED else None
    if expected is not None:
        checks += 1
        if not math.isclose(final, expected, rel_tol=REFERENCE_RTOL):
            problems.append(f"epoch-{CHECK_EPOCHS} loss {final!r} != "
                            f"reference {expected!r}")
    return checks, problems


def logits_digest(logits):
    """Three order-sensitive sums that stand in for the whole logits array."""
    weights = np.arange(logits.size).reshape(logits.shape) % 7 + 1
    return [float(logits.sum()), float((logits ** 2).sum()),
            float((logits * weights).sum())]


def check_inference(workload, seed, model, dataset):
    """Checks the test-split logits once; returns (checks, problems, confusion)."""
    records = dataset.records_in("test")
    x, labels = batch_arrays(records, model.config.dtype)
    logits = model.forward(Tensor(x), "eval").data
    preds = predict(model, records, batch_size=BATCH)
    problems = []
    if not np.all(np.isfinite(logits)):
        problems.append("non-finite logits")
    if not np.array_equal(np.argmax(logits, axis=1), preds):
        problems.append("argmax(logits) differs from training.predict")
    checks = 2
    expected = REFERENCE[workload.name] if seed == DEFAULT_SEED else None
    if expected is not None:
        checks += 1
        digest = logits_digest(logits)
        if not all(math.isclose(a, b, rel_tol=REFERENCE_RTOL)
                   for a, b in zip(digest, expected)):
            problems.append(f"logits digest {digest} != reference {expected}")
    confusion = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    np.add.at(confusion, (labels, preds), 1)
    return checks, problems, confusion


def run_inference(model, dataset, seconds, expected_confusion):
    """evaluate() the one-batch test split for `seconds` and at least
    MIN_INFER_BATCHES times; returns (batch times, mismatching batches)."""
    times, mismatches = [], 0
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_INFER_BATCHES or time.perf_counter() < deadline:
        start = time.perf_counter()
        report = evaluate(model, dataset, "test", batch_size=BATCH)
        times.append(time.perf_counter() - start)
        if not np.array_equal(report.confusion, expected_confusion):
            mismatches += 1
    return np.array(times), mismatches


def median(values):
    return statistics.median(values) if len(values) else 0.0
