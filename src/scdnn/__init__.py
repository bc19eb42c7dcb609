"""Spectral cross-domain network: a self-contained 1-D ResNet classifier
whose stage outputs are enhanced by trainable soft frequency thresholds.
Names are imported from their submodules: ``from scdnn.training import train``.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
