"""Guards for what code outside the package relies on: the public names, and
the benchmark's traced training step."""

import importlib
from pathlib import Path

import numpy as np
import pytest

from scdnn.data import stratified_split, synth_generate
from scdnn.model import build_model, tiny_config
from scdnn.training import Hyperparams, train

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("module", [
    "scdnn", "scdnn.autodiff", "scdnn.cli", "scdnn.data", "scdnn.layers",
    "scdnn.model", "scdnn.satse", "scdnn.spectral", "scdnn.training",
])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


@pytest.fixture
def tracing(monkeypatch):
    """The benchmark's tracing module, imported from the checkout."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_benchmark_segmented_gradients_match_whole_graph(tracing):
    # The benchmark's traced step rebuilds the forward pass from package
    # functions (pooled_features, relu, the Tensor product and sum, the
    # spectral transform hook); this fails when one of them goes missing.
    model = build_model(tiny_config(), seed=5)
    records = synth_generate(2, 3, n_leads=12, length=64, seed=5).records
    worst, nodes, tape_bytes = tracing.gradient_mismatch(model, records)
    assert worst <= tracing.GRAD_RTOL
    assert nodes > len(model.trainable_parameters()) and tape_bytes > 0


def test_benchmark_records_the_steps_of_train(tracing):
    # The benchmark replays train() from the inputs and losses its hooks on
    # model.forward and Tensor.backward record, so train() must hand the
    # model a Tensor.
    ds = stratified_split(synth_generate(4, 3, n_leads=12, length=64, seed=2),
                          (0.5, 0.25, 0.25), seed=2)
    model = build_model(tiny_config(), seed=2)
    with tracing.recording(model) as (inputs, losses):
        log = train(model, ds, Hyperparams(epochs=1, batch_size=3,
                                           lr_drop_epoch=1))
    assert len(inputs) == len(losses) == 2
    assert all(isinstance(x, np.ndarray) and x.shape == (3, 12, 64)
               for x in inputs)
    assert log.rows[0].loss == pytest.approx(np.mean(losses), rel=1e-12)
