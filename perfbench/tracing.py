"""The traced run: per-layer timings taken from outside the package.

A traced run first trains (or classifies) untraced for part of its time, as
the untraced benchmark does, and records each batch and each loss that
train() produced. It then replays those batches with a training step built
from public functions, cut into segments at every layer boundary:

    stem -> stage1 -> [satse1] -> ... -> stage4 -> [satse4] -> head + loss

Each segment starts from a fresh leaf tensor holding the previous segment's
output, so its forward time is its own. The backward pass runs from the
head down: the head's loss first, then for every earlier segment the
surrogate ``sum(out * upstream_grad)``, each with ``Tensor.backward``.

Spans (name, start, end, parent, step) are kept in memory and written out
when the run ends; self time is a span's duration minus its children's.
Convolution and batch-norm layers are timed by wrappers put on their
instance methods, spectral transforms by a wrapper on the module's single
transform routine.

Self-checks, each of which fails the run when it does not hold:
  * the segmented backward gives the same parameter gradients as one
    whole-graph backward on the same batch;
  * the replayed steps reproduce train()'s loss at every step;
  * traced classification gives the same classes as training.predict.
"""

import json
import math
import resource
import time
from contextlib import contextmanager

import numpy as np

from scdnn import spectral
from scdnn.autodiff import Tensor
from scdnn.layers import (
    BatchNorm1d,
    Conv1d,
    cross_entropy,
    max_pool1d,
    pooled_features,
    relu,
    softmax,
)
from scdnn.model import load_model
from scdnn.training import AdamState, adam_step, lr_at_epoch, predict

from workloads import (
    BATCH,
    batch_arrays,
    check_inference,
    check_training,
    hyperparams,
    loss_of,
    median,
    run_inference,
    run_training,
    set_up_repeatedly,
)

# Share of the run spent untraced, as the baseline of the tracing overhead.
UNTRACED_SHARE = 0.4
MIN_TRACED_STEPS = 10
SPECTRAL_REPEATS = 5
# Segmented and whole-graph gradients run the same arithmetic in the same
# order, so they agree to the last bits; the bound only absorbs summation
# order inside numpy.
GRAD_RTOL = 1e-12
LOSS_RTOL = 1e-12


class Spans:
    """In-memory span recorder; ``with spans("name"):`` opens a span."""

    def __init__(self):
        self.rows = []  # [name, start, end, parent index, step]
        self.counts = []  # per step: {counter name: total}
        self.step = -1
        self._open = []

    def begin_step(self):
        self.step += 1
        self.counts.append({})

    def add(self, name, value):
        if self.step >= 0:
            counts = self.counts[self.step]
            counts[name] = counts.get(name, 0) + value

    @contextmanager
    def __call__(self, name):
        row = [name, time.perf_counter(), 0.0,
               self._open[-1] if self._open else -1, self.step]
        self._open.append(len(self.rows))
        self.rows.append(row)
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            self._open.pop()

    def durations(self):
        """Per step, total duration and total self time of each span name."""
        total = [dict() for _ in self.counts]
        self_time = [dict() for _ in self.counts]
        child = [0.0] * len(self.rows)
        for name, start, end, parent, step in self.rows:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, step) in enumerate(self.rows):
            if step < 0:
                continue
            total[step][name] = total[step].get(name, 0.0) + end - start
            self_time[step][name] = (self_time[step].get(name, 0.0)
                                     + end - start - child[i])
        return total, self_time

    def write(self, path, header):
        t0 = self.rows[0][1] if self.rows else 0.0
        total, self_time = self.durations()
        names = sorted({name for step in total for name in step})
        doc = dict(header)
        doc["median_per_step_s"] = {
            n: {"total": median([s.get(n, 0.0) for s in total]),
                "self": median([s.get(n, 0.0) for s in self_time])}
            for n in names
        }
        doc["columns"] = ["name", "start_s", "end_s", "parent", "step"]
        doc["spans"] = [[n, s - t0, e - t0, p, k]
                        for n, s, e, p, k in self.rows]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# -- instrumentation ------------------------------------------------------------


def _layers(model):
    yield model.stem_conv
    yield model.stem_bn
    for blocks in model.stages:
        for block in blocks:
            yield from block.named_layers().values()


def instrument_layers(model, spans):
    """Time every conv and batch-norm forward; count conv work."""
    for layer in _layers(model):
        forward = layer.forward
        if isinstance(layer, Conv1d):
            def timed(x, forward=forward, conv=layer):
                b, c_in, length = x.data.shape
                c_out, _, k = conv.weight.data.shape
                l_out = (length + 2 * conv.padding - k) // conv.stride + 1
                spans.add("layers.conv.flops", 2 * b * l_out * c_out * c_in * k)
                spans.add("layers.conv.im2col_bytes",
                          b * l_out * c_in * k * x.data.itemsize)
                with spans("layers.conv.fwd"):
                    return forward(x)
        elif isinstance(layer, BatchNorm1d):
            def timed(*args, forward=forward):
                with spans("layers.bn.fwd"):
                    return forward(*args)
        else:
            continue
        layer.forward = timed


@contextmanager
def spectral_hook(spans):
    """Count and time every transform inside the block.

    All public transforms (dft, idft, dft_t, idft_t and their backward
    closures) call ``spectral._transform``; it is looked up at call time,
    so replacing the module attribute catches every one of them.
    """
    transform = getattr(spectral, "_transform", None)
    if transform is None:
        yield
        return

    def counted(*args, **kwargs):
        spans.add("spectral.transforms_per_step", 1)
        with spans("spectral.transform"):
            return transform(*args, **kwargs)

    spectral._transform = counted
    try:
        yield
    finally:
        spectral._transform = transform


# -- the segmented step -----------------------------------------------------------


def _minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _cut(t):
    return Tensor(t.data, requires_grad=True)


def segmented_forward(model, x, labels, mode, update_running, spans):
    """The model's forward pass as [(segment name, input leaf, output)].

    The last segment ends in the loss when `labels` are given, else in the
    logits.
    """
    segments = []
    with spans("model.stem.fwd"):
        h = relu(model.stem_bn.forward(model.stem_conv.forward(x), mode,
                                       update_running))
        if model.config.stem_maxpool:
            with spans("layers.pool.fwd"):
                h = max_pool1d(h, 3, 2, 1)
    segments.append(("model.stem", x, h))
    for s, (blocks, sat) in enumerate(zip(model.stages, model.satse), 1):
        inp = h = _cut(h)
        with spans(f"model.stage{s}.fwd"):
            for block in blocks:
                h = block.forward(h, mode, update_running)
        segments.append((f"model.stage{s}", inp, h))
        if sat is not None:
            inp = _cut(h)
            with spans(f"satse.s{s}.fwd"):
                h = sat.forward(inp)
            segments.append((f"satse.s{s}", inp, h))
        if not np.all(np.isfinite(h.data)):
            raise FloatingPointError(f"non-finite activations after stage {s}")
    inp = _cut(h)
    with spans("model.head_loss.fwd"):
        with spans("layers.pool.fwd"):
            features = pooled_features(inp)
        out = model.head.forward(features)
        if labels is not None:
            if model.config.double_softmax:
                out = softmax(out)
            out = cross_entropy(out, labels)
    segments.append(("model.head_loss", inp, out))
    return segments


def segmented_backward(segments, spans):
    """Backpropagate segment by segment, from the head down."""
    upstream = None
    for name, inp, out in reversed(segments):
        with spans(f"{name}.bwd"):
            root = out if upstream is None else (out * Tensor(upstream)).sum()
            with spans("autodiff.backward"):
                root.backward()
        upstream = inp.grad
        if upstream is None:
            break


def traced_train_step(model, records, epoch, hyper, state, spans):
    """One training step as train() takes it, from public functions."""
    params = model.trainable_parameters()
    spans.begin_step()
    faults = _minor_faults()
    with spans("step"):
        with spans("training.batch"):
            x, y = batch_arrays(records, model.config.dtype)
            x = Tensor(x)
        with spans("training.forward"):
            segments = segmented_forward(model, x, y, "train", True, spans)
        loss = float(segments[-1][2].data)
        if not math.isfinite(loss):
            raise FloatingPointError(f"non-finite loss {loss}")
        with spans("training.backward"):
            model.zero_grad()
            segmented_backward(segments, spans)
        with spans("training.adam"):
            adam_step(params, {k: p.grad for k, p in params.items()}, state,
                      lr_at_epoch(hyper, epoch),
                      weight_decay=hyper.weight_decay,
                      decay_exempt=model.weight_decay_exempt,
                      beta1=hyper.adam_beta1, beta2=hyper.adam_beta2,
                      eps=hyper.adam_eps)
        with spans("training.clamp"):
            model.clamp_satse()
    spans.add("process.minor_faults_per_step", _minor_faults() - faults)
    return loss, segments


def traced_infer_batch(model, records, spans):
    """One inference batch, as evaluate() classifies it."""
    spans.begin_step()
    faults = _minor_faults()
    with spans("step"):
        with spans("training.batch"):
            x, _ = batch_arrays(records, model.config.dtype)
            x = Tensor(x)
        with spans("training.forward"):
            segments = segmented_forward(model, x, None, "eval", False, spans)
            preds = np.argmax(segments[-1][2].data, axis=1)
    spans.add("process.minor_faults_per_step", _minor_faults() - faults)
    return preds, segments


# -- self-checks and counts ------------------------------------------------------


def graph_stats(root):
    """Nodes reachable from `root` and the bytes held by its interior nodes.

    Walks the parent links each recorded operation keeps (``_parents``).
    """
    seen, stack, tape_bytes = {id(root)}, [root], 0
    while stack:
        node = stack.pop()
        if node._parents:
            tape_bytes += node.data.nbytes
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen), tape_bytes


def gradient_mismatch(model, records):
    """Largest relative difference between segmented and whole-graph
    gradients over all parameters, and the whole graph's node and byte
    counts. Running statistics are left untouched."""
    x, y = batch_arrays(records, model.config.dtype)
    params = model.trainable_parameters()
    model.zero_grad()
    loss = loss_of(model, x, y, "train", update_running=False)
    loss.backward()
    whole = {k: p.grad.copy() for k, p in params.items()}
    nodes, tape_bytes = graph_stats(loss)
    model.zero_grad()
    segments = segmented_forward(model, Tensor(x), y, "train", False, Spans())
    segmented_backward(segments, Spans())
    worst = 0.0
    for k, p in params.items():
        scale = max(float(np.abs(whole[k]).max()), 1e-300)
        worst = max(worst, float(np.abs(p.grad - whole[k]).max()) / scale)
    model.zero_grad()
    return worst, nodes, tape_bytes


def time_transforms(segments):
    """Median dft and idft times on each SATSE block's input shape."""
    out = {}
    for name, inp, _ in segments:
        if not name.startswith("satse."):
            continue
        stage = name.split(".")[1]
        times = {"dft": [], "idft": []}
        for _ in range(SPECTRAL_REPEATS):
            start = time.perf_counter()
            spec = spectral.dft(inp.data)
            mid = time.perf_counter()
            spectral.idft(spec)
            times["dft"].append(mid - start)
            times["idft"].append(time.perf_counter() - mid)
        for kind, values in times.items():
            out[f"spectral.{kind}.{stage}_s"] = median(values)
    return out


# -- the traced run ---------------------------------------------------------------


@contextmanager
def recording(model):
    """Record, from outside, the batch inputs and losses of train() steps
    run inside the block; yields the two lists."""
    inputs, losses = [], []
    forward, backward = model.forward, Tensor.backward

    def recording_forward(x, mode="eval", update_running=None):
        inputs.append(x.data)
        return forward(x, mode, update_running)

    def recording_backward(tensor):
        losses.append(float(tensor.data))
        return backward(tensor)

    model.forward = recording_forward
    Tensor.backward = recording_backward
    try:
        yield inputs, losses
    finally:
        Tensor.backward = backward
        del model.forward


def _replay_train(workload, seed, seconds, dataset, model, model_path,
                  deadline, spans, notes):
    """Untraced train(), then the traced replay; returns (untraced step
    times, steps, problems, checks, last step's segments)."""
    with recording(model) as (inputs, recorded_losses):
        step_times, losses, error = run_training(model, dataset, seed, seconds)
    checks, problems = check_training(workload, seed, losses, error)
    train_records = dataset.records_in("train")
    by_leads = {rec.leads.tobytes(): rec for rec in train_records}
    per_epoch = len(range(0, len(train_records), BATCH))
    hyper = hyperparams(seed)
    state = AdamState()
    traced = load_model(model_path)
    instrument_layers(traced, spans)
    segments = []
    diverged = 0
    with spectral_hook(spans):
        for i, (x, expected) in enumerate(zip(inputs, recorded_losses)):
            if i >= MIN_TRACED_STEPS and time.perf_counter() >= deadline:
                break
            records = [by_leads[row.astype(np.float32).tobytes()] for row in x]
            loss, segments = traced_train_step(traced, records, i // per_epoch,
                                               hyper, state, spans)
            if not math.isclose(loss, expected, rel_tol=LOSS_RTOL):
                diverged += 1
                problems.append(f"traced step {i}: loss {loss!r} != train() "
                                f"loss {expected!r}")
    notes.append(f"traced replay: {spans.step + 1} of {len(inputs)} "
                 f"train() steps, {diverged} losses differ from train()")
    return step_times, spans.step + 1, problems, checks, segments


def _replay_infer(workload, seed, seconds, dataset, model, deadline, spans,
                  notes):
    checks, problems, confusion = check_inference(workload, seed, model,
                                                  dataset)
    step_times, mismatches = run_inference(model, dataset, seconds, confusion)
    problems += ["untraced batch confusion differs"] * mismatches
    records = dataset.records_in("test")
    expected = predict(model, records, batch_size=BATCH)
    instrument_layers(model, spans)
    differ = 0
    segments = []
    with spectral_hook(spans):
        while spans.step + 1 < MIN_TRACED_STEPS or time.perf_counter() < deadline:
            preds, segments = traced_infer_batch(model, records, spans)
            if not np.array_equal(preds, expected):
                differ += 1
                problems.append(f"traced batch {spans.step}: classes differ "
                                "from training.predict")
    notes.append(f"traced batches: {spans.step + 1}, {differ} with classes "
                 "unlike training.predict")
    return step_times, spans.step + 1, problems, checks, segments


def run_traced(workload, seed, seconds, workdir, spans_path):
    """Per-layer metrics of one workload, sample counts, attempted and
    failed operations, and the report lines."""
    start = time.perf_counter()
    dataset, model, model_path, timings = set_up_repeatedly(workload, seed,
                                                            workdir)
    deadline = time.perf_counter() + seconds
    notes = []
    worst, nodes, tape_bytes = gradient_mismatch(
        load_model(model_path), dataset.records_in("train")[:BATCH])
    if workload.kind == "infer":
        x, _ = batch_arrays(dataset.records_in("test"), model.config.dtype)
        nodes, tape_bytes = graph_stats(model.forward(Tensor(x), "eval"))
    spans = Spans()
    untraced = seconds * UNTRACED_SHARE
    if workload.kind == "train":
        step_times, ops, problems, checks, segments = _replay_train(
            workload, seed, untraced, dataset, model, model_path, deadline,
            spans, notes)
    else:
        step_times, ops, problems, checks, segments = _replay_infer(
            workload, seed, untraced, dataset, model, deadline, spans, notes)
    checks += 1
    notes.append(f"segmented vs whole-graph gradients: largest relative "
                 f"difference {worst:.3g} (bound {GRAD_RTOL:g})")
    if not worst <= GRAD_RTOL:
        problems.append(f"segmented gradients differ by {worst:.3g}")

    total, self_time = spans.durations()
    traced_steps = [t["step"] for t in total]

    def per_step(name, source=total):
        return median([t.get(name, 0.0) for t in source])

    def count(name):
        return median([c.get(name, 0) for c in spans.counts])

    metrics = {f"{k}_s": median(v) for k, v in timings.items()
               if k.startswith(("data.", "model."))}
    for seg in ["stem", "stage1", "stage2", "stage3", "stage4", "head_loss"]:
        for d in ("fwd", "bwd"):
            metrics[f"model.{seg}.{d}_s"] = per_step(f"model.{seg}.{d}")
    for s in range(1, 5):
        for d in ("fwd", "bwd"):
            metrics[f"satse.s{s}.{d}_s"] = per_step(f"satse.s{s}.{d}")
        for kind in ("dft", "idft"):
            metrics[f"spectral.{kind}.s{s}_s"] = 0.0
    metrics.update(time_transforms(segments))
    metrics["spectral.transforms_per_step"] = count("spectral.transforms_per_step")
    metrics["spectral.step_s"] = per_step("spectral.transform")
    metrics["spectral.share"] = median(
        [t.get("spectral.transform", 0.0) / t["step"] for t in total])
    for layer in ("conv", "bn", "pool"):
        metrics[f"layers.{layer}.fwd_s"] = per_step(f"layers.{layer}.fwd")
    metrics["layers.conv.flops"] = count("layers.conv.flops")
    metrics["layers.conv.im2col_bytes"] = count("layers.conv.im2col_bytes")
    metrics["layers.conv.gflops"] = median(
        [c.get("layers.conv.flops", 0) / t["layers.conv.fwd"] / 1e9
         for c, t in zip(spans.counts, total)])
    metrics["autodiff.graph_nodes"] = nodes
    metrics["autodiff.tape_bytes"] = tape_bytes
    metrics["autodiff.backward_s"] = per_step("autodiff.backward")
    for part in ("batch", "forward", "backward", "adam", "clamp"):
        metrics[f"training.{part}_s"] = per_step(f"training.{part}")
    metrics["process.minor_faults_per_step"] = count(
        "process.minor_faults_per_step")
    metrics["trace.step_s.p50"] = median(traced_steps)
    metrics["trace.overhead_ratio"] = (metrics["trace.step_s.p50"]
                                       / median(list(step_times)))

    spans.write(spans_path, {"workload": workload.name, "seed": seed,
                             "steps": len(traced_steps)})
    notes.append(f"{len(traced_steps)} traced steps, {len(step_times)} "
                 f"untraced; run took {time.perf_counter() - start:.1f} s; "
                 f"spans in {spans_path}")
    notes.append("median self time per step (s): " + ", ".join(
        f"{n} {per_step(n, self_time):.4g}"
        for n in sorted({n for t in self_time for n in t})))
    attempted = ops + len(step_times) + checks
    notes += [f"CHECK FAILED: {p}" for p in problems]
    samples = {"traced": len(traced_steps), "untraced": len(step_times),
               "setup_passes": len(timings["setup"])}
    return metrics, samples, attempted, len(problems), notes
