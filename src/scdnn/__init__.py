"""Spectral cross-domain network: a self-contained 1-D ResNet classifier
whose stage outputs are enhanced by trainable soft frequency thresholds.
"""

from .autodiff import Tensor, grad_check
from .data import EcgDataset, EcgRecord, read_ecgb, synth_generate, write_ecgb
from .model import ModelConfig, ScdnnModel, build_model, load_model, save_model
from .satse import SatseBlock, hard_mask, soft_mask
from .spectral import dft, idft
from .training import Hyperparams, MetricsReport, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "grad_check",
    "dft",
    "idft",
    "soft_mask",
    "hard_mask",
    "SatseBlock",
    "ModelConfig",
    "ScdnnModel",
    "build_model",
    "save_model",
    "load_model",
    "EcgRecord",
    "EcgDataset",
    "read_ecgb",
    "write_ecgb",
    "synth_generate",
    "Hyperparams",
    "train",
    "evaluate",
    "MetricsReport",
    "__version__",
]
