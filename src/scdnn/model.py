"""Model assembly: a 1-D ResNet backbone whose stage outputs pass through
spectral enhancement blocks, pooled into a linear classifier head.

Architecture, front to back:

    stem:   conv(k=7, stride=2, pad=3) -> batchnorm+relu
            [-> maxpool(k=3, stride=2, pad=1) when enabled]
    stages: basic or bottleneck residual blocks per backbone depth;
            stages after the first downsample by stride 2 with a 1x1
            projection shortcut
            (a block's last batchnorm+shortcut+relu is one autodiff node,
            see BatchNorm1d; every other batchnorm+relu is one with the
            conv or max-pool it feeds, see bn_relu_then)
    per stage: optional SATSE block on the stage output
    head:   [avg-pool, max-pool] over length, one autodiff node
            (see pooled_features) -> linear -> logits

Binary model files: magic "SCDN", version u16 LE, u32-length-prefixed
UTF-8 config (key=value lines), u32 entry count, then per entry a
u16-length-prefixed name, dtype u8 (0 = f64, 1 = f32), rank u8, dims u32
each, and the raw little-endian values. Entry names are unique and no
bytes follow the last entry. Entries cover both trainable parameters and
batchnorm running statistics, so a round trip is bitwise.
"""

import math
import struct
from dataclasses import MISSING, dataclass, fields, replace
from typing import get_args, get_origin

import numpy as np

from .autodiff import ShapeError, Tensor
from .data import _Cursor, _u16_text, _write_whole
from .layers import (
    BatchNorm1d,
    Conv1d,
    Linear,
    bn_relu_then,
    max_pool1d,
    pooled_features,
)
from .satse import SatseBlock, _check_settings

__all__ = [
    "ModelConfig",
    "ScdnnModel",
    "ModelIOError",
    "BACKBONES",
    "MIN_INPUT_LENGTH",
    "PRECISIONS",
    "build_model",
    "save_model",
    "load_model",
    "tiny_config",
]

MODEL_MAGIC = b"SCDN"
MODEL_VERSION = 1

# backbone name -> (residual block kind, blocks per stage)
BACKBONES = {
    "resnet18": ("basic", (2, 2, 2, 2)),
    "resnet34": ("basic", (3, 4, 6, 3)),
    "resnet50": ("bottleneck", (3, 4, 6, 3)),
}

MIN_INPUT_LENGTH = 8

# config precision -> parameter and activation dtype
PRECISIONS = {"real64": np.float64, "real32": np.float32}

# layer type -> the attributes it registers, as <prefix>.<attribute>, in order
_LAYER_PARAMS = {
    Conv1d: ("weight",),
    BatchNorm1d: ("scale", "shift"),
    Linear: ("weight", "bias"),
    SatseBlock: ("phi", "gamma", "weight_re", "weight_im"),
}
_LAYER_BUFFERS = {BatchNorm1d: ("running_mean", "running_var")}

# Attributes that weight decay skips: batchnorm affine and the SATSE scalars.
_DECAY_EXEMPT = frozenset({"scale", "shift", "phi", "gamma", "lambda_low",
                           "lambda_high"})


class ModelIOError(IOError):
    """Raised for malformed or truncated model files."""


_BOOL_TEXT = {"1": True, "True": True, "true": True,
              "0": False, "False": False, "false": False}


def _convert(key, kind, text):
    if kind is bool:
        if text not in _BOOL_TEXT:
            raise ValueError(f"config key {key}: {text!r} is not a boolean "
                             f"(expected one of {', '.join(_BOOL_TEXT)})")
        return _BOOL_TEXT[text]
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"config key {key}: {text!r} is not "
                         f"{kind.__name__}") from None


def _parse_field(f, text):
    """Config text to the value type of dataclass field `f`'s annotation:
    `None` only where it admits None, a tuple as a comma list."""
    kind = f.type
    if type(None) in get_args(kind):
        if text == "None":
            return None
        kind = get_args(kind)[0]
    if get_origin(kind) is tuple:
        item = get_args(kind)[0]
        return tuple(_convert(f.name, item, v)
                     for v in (text.split(",") if text else ()))
    return _convert(f.name, kind, text)


def _field_text(value):
    """A field value as config text: a tuple or list as a comma list."""
    if isinstance(value, (tuple, list)):
        return ",".join(map(str, value))
    return str(value)


def _read_fields(obj):
    """Set each field of dataclass `obj` to what its config text reads as."""
    for f in fields(obj):
        setattr(obj, f.name, _parse_field(f, _field_text(getattr(obj, f.name))))


@dataclass
class ModelConfig:
    """Complete architecture description; serializable as key=value lines.

    `stage_widths` holds one width per stage, so its length is the stage
    count (1 to 4). SATSE blocks sit on the outputs of the first
    `satse_blocks` stages; a count past the last stage builds no more.
    `precision` "real32" keeps the model in float32, spectral blocks
    included: they transform in complex64.
    """

    n_classes: int
    n_leads: int = 12
    backbone: str = "resnet18"
    satse_blocks: int = 4
    fixed_phi: float | None = None
    mask_index_mode: str = "symmetric"
    double_softmax: bool = False
    stem_maxpool: bool = True
    precision: str = "real64"
    input_length: int | None = None
    stage_widths: tuple[int, ...] = (64, 128, 256, 512)
    phi_init: float = 0.4
    gamma_init: float = 0.5

    def __post_init__(self):
        _read_fields(self)
        if self.n_classes < 1:
            raise ValueError("at least one class is required")
        if self.n_leads < 1:
            raise ValueError("n_leads must be positive")
        if self.backbone not in BACKBONES:
            raise ValueError(
                f"unsupported backbone {self.backbone!r}; "
                f"choose from {sorted(BACKBONES)}"
            )
        _check_settings(self.phi_init, self.gamma_init, self.mask_index_mode)
        if self.fixed_phi is not None:  # checked as the start it replaces
            _check_settings(self.fixed_phi, self.gamma_init,
                            self.mask_index_mode, "fixed_phi")
        if self.precision not in PRECISIONS:
            raise ValueError(f"precision must be one of {sorted(PRECISIONS)}")
        if not 0 <= self.satse_blocks <= 4:
            raise ValueError(f"satse block count must be 0..4, got "
                             f"{self.satse_blocks}")
        if not 1 <= len(self.stage_widths) <= 4:
            raise ValueError(f"stage_widths must list 1 to 4 stages, got "
                             f"{self.stage_widths}")
        if min(self.stage_widths) < 1:
            raise ValueError(f"stage widths must be at least 1, got "
                             f"{self.stage_widths}")
        if self.input_length is not None and self.input_length < MIN_INPUT_LENGTH:
            raise ValueError(f"input_length must be at least {MIN_INPUT_LENGTH}")

    @property
    def initial_phi(self):
        """The threshold ratio every SATSE block starts from."""
        return self.phi_init if self.fixed_phi is None else self.fixed_phi

    @property
    def dtype(self):
        return PRECISIONS[self.precision]

    def to_text(self):
        return "".join(f"{f.name}={_field_text(getattr(self, f.name))}\n"
                       for f in fields(self))

    @classmethod
    def from_text(cls, text):
        """Parse key=value lines; anything malformed raises ValueError."""
        raw, where = {}, {}
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno} is not key=value: {line!r}")
            k, v = (part.strip() for part in line.split("=", 1))
            if k in raw:
                raise ValueError(
                    f"config key {k!r} repeated on lines {where[k]} and {lineno}"
                )
            raw[k], where[k] = v, lineno
        for f in fields(cls):
            if f.default is MISSING and f.name not in raw:
                raise ValueError(f"config key {f.name!r} is missing")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    def with_satse_count(self, count):
        """This config with SATSE blocks on the first `count` stages."""
        return replace(self, satse_blocks=count)


def tiny_config(n_classes=3, n_leads=12, input_length=64, widths=(4, 8),
                **overrides):
    """A two-stage configuration small enough for exhaustive gradient checks."""
    return ModelConfig(n_classes=n_classes, n_leads=n_leads,
                       input_length=input_length, stage_widths=widths, **overrides)


def _conv_out_len(length, kernel, stride, padding):
    return (length + 2 * padding - kernel) // stride + 1


class _ResidualBlock:
    """Conv/batchnorm pairs plus a shortcut, summed and passed through relu.

    "basic" is conv3-bn-relu-conv3-bn with the stride on the first conv;
    "bottleneck" is a 1x1 reduce, a strided 3x3 and a 1x1 expand to
    4 * width. Each batchnorm+relu is one node with the next conv
    (bn_relu_then) but the last, which adds the shortcut first, so k pairs
    are 1 conv, k - 1 fused batchnorm-conv and 1 fused batchnorm node. A 1x1
    projection with batchnorm (no relu) replaces the identity shortcut when
    the stride or the channel count changes.
    """

    def __init__(self, kind, c_in, width, stride, rng, dtype):
        if kind == "basic":
            specs = ((width, 3, stride), (width, 3, 1))
        else:
            specs = ((width, 1, 1), (width, 3, stride), (4 * width, 1, 1))
        self.pairs = []
        c = c_in
        for c_out, kernel, s in specs:
            conv = Conv1d(c, c_out, kernel, s, kernel // 2, rng=rng, dtype=dtype)
            self.pairs.append((conv, BatchNorm1d(c_out, dtype=dtype)))
            c = c_out
        self.c_out = c
        self.proj = None
        if stride != 1 or c_in != c:
            self.proj = (Conv1d(c_in, c, 1, stride, 0, rng=rng, dtype=dtype),
                         BatchNorm1d(c, dtype=dtype))

    def forward(self, x, mode, update_running):
        shortcut = x
        if self.proj is not None:
            conv, bn = self.proj
            shortcut = bn.forward(conv.forward(x), mode, update_running)
        h = self.pairs[0][0].forward(x)
        for (_, bn), (conv, _) in zip(self.pairs, self.pairs[1:]):
            h = bn_relu_then(h, bn, conv.forward, mode, update_running)
        # Positional, so that wrappers forwarding *args pass them on.
        return self.pairs[-1][1].forward(h, mode, update_running, shortcut,
                                         True)

    def named_layers(self):
        out = {}
        for i, (conv, bn) in enumerate(self.pairs, 1):
            out[f"conv{i}"], out[f"bn{i}"] = conv, bn
        if self.proj is not None:
            out["proj"], out["proj_bn"] = self.proj
        return out


class ScdnnModel:
    """Backbone + spectral enhancement + classifier with a stable name registry."""

    def __init__(self, config, seed=0):
        if config.input_length is None:
            raise ValueError("config.input_length must be set before building")
        self.config = config
        dtype = config.dtype
        rng = np.random.default_rng(seed)
        kind, blocks_per_stage = BACKBONES[config.backbone]
        widths = config.stage_widths

        self.stem_conv = Conv1d(config.n_leads, widths[0], 7, 2, 3, rng=rng,
                                dtype=dtype)
        self.stem_bn = BatchNorm1d(widths[0], dtype=dtype)

        length = _conv_out_len(config.input_length, 7, 2, 3)
        if config.stem_maxpool:
            length = _conv_out_len(length, 3, 2, 1)

        self.stages = []
        self.satse = []
        self.stage_shapes = []
        c_in = widths[0]
        for s, width in enumerate(widths):
            stride = 1 if s == 0 else 2
            blocks = []
            for b in range(blocks_per_stage[s]):
                blocks.append(_ResidualBlock(kind, c_in, width,
                                             stride if b == 0 else 1, rng, dtype))
                c_in = blocks[-1].c_out
            length = _conv_out_len(length, 3, stride, 1)
            self.stages.append(blocks)
            self.stage_shapes.append((c_in, length))
            if s < config.satse_blocks:
                self.satse.append(
                    SatseBlock(
                        c_in,
                        length,
                        phi_init=config.initial_phi,
                        gamma_init=config.gamma_init,
                        mask_index_mode=config.mask_index_mode,
                        train_phi=config.fixed_phi is None,
                        dtype=dtype,
                    )
                )
            else:
                self.satse.append(None)

        self.head = Linear(2 * c_in, config.n_classes, rng=rng, dtype=dtype)
        self._build_registry()

    # -- registry --------------------------------------------------------

    def _build_registry(self):
        params = {}
        buffers = []

        def add(prefix, layer, attrs=None):
            for attr in attrs or _LAYER_PARAMS[type(layer)]:
                params[f"{prefix}.{attr}"] = getattr(layer, attr)
            for attr in _LAYER_BUFFERS.get(type(layer), ()):
                buffers.append((f"{prefix}.{attr}", layer, attr))

        add("stem.conv", self.stem_conv)
        add("stem.bn", self.stem_bn)
        for s, (blocks, sat) in enumerate(zip(self.stages, self.satse), 1):
            for b, block in enumerate(blocks, 1):
                for lname, layer in block.named_layers().items():
                    add(f"stage{s}.block{b}.{lname}", layer)
            if sat is not None:
                add(f"satse{s}", sat)
        for s, sat in enumerate(self.satse, 1):  # gains follow all stages
            if sat is not None:
                add(f"satse{s}", sat, ("lambda_low", "lambda_high"))
        add("head.fc", self.head)

        self._params = params
        self._buffers = buffers
        self.weight_decay_exempt = frozenset(
            name for name in params if name.rsplit(".", 1)[1] in _DECAY_EXEMPT)

    def named_parameters(self):
        """All leaf tensors, including frozen ones, keyed by stable names."""
        return dict(self._params)

    def trainable_parameters(self):
        return {k: v for k, v in self._params.items() if v.requires_grad}

    def named_buffers(self):
        """Live views of non-trainable state (batchnorm running statistics)."""
        return {name: getattr(obj, attr) for name, obj, attr in self._buffers}

    def parameter_count(self):
        return sum(p.data.size for p in self._params.values())

    # -- forward ---------------------------------------------------------

    def forward(self, x, mode="eval", update_running=None):
        """Run (B, n_leads, L) input to (B, n_classes) logits."""
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=self.config.dtype))
        if x.data.ndim != 3 or x.data.shape[1] != self.config.n_leads:
            raise ShapeError(
                f"expected input with {self.config.n_leads} leads "
                f"(B, {self.config.n_leads}, L), got {x.data.shape}"
            )
        h = self.stem_conv.forward(x)
        if self.config.stem_maxpool:
            h = bn_relu_then(h, self.stem_bn, lambda t: max_pool1d(t, 3, 2, 1),
                             mode, update_running)
        else:
            h = self.stem_bn.forward(h, mode, update_running, None, True)
        for s, blocks in enumerate(self.stages):
            for block in blocks:
                h = block.forward(h, mode, update_running)
            if self.satse[s] is not None:
                h = self.satse[s].forward(h)
            if not np.all(np.isfinite(h.data)):
                raise FloatingPointError(
                    f"non-finite activations after stage {s + 1}"
                )
        return self.head.forward(pooled_features(h))

    # -- parameter maintenance --------------------------------------------

    def clamp_satse(self):
        for sat in self.satse:
            if sat is not None:
                sat.clamp()

    def satse_snapshot(self):
        """Per-stage (phi, gamma, lambda_low, lambda_high), padded to 4 stages.

        Disabled or absent blocks report the configured initial values so the
        trace keeps a fixed column layout.
        """
        rows = []
        for s in range(4):
            sat = self.satse[s] if s < len(self.satse) else None
            if sat is None:
                rows.append((self.config.initial_phi, self.config.gamma_init,
                             0.0, 0.0))
            else:
                r = sat.report()
                rows.append((r["phi"], r["gamma"], r["lambda_low"],
                             r["lambda_high"]))
        return rows

    def zero_grad(self):
        for p in self._params.values():
            p.grad = None


def build_model(config, seed=0):
    """Deterministic construction: identical seeds give identical parameters."""
    return ScdnnModel(config, seed)


# -- persistence --------------------------------------------------------------

_DTYPE_CODES = {np.dtype(np.float64): 0, np.dtype(np.float32): 1}
_CODE_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<f4")}


def _entries(model):
    for name, p in model._params.items():
        yield name, p.data
    yield from sorted(model.named_buffers().items())


def save_model(model, path):
    """Write every parameter and running statistic, bitwise recoverable."""
    chunks = [MODEL_MAGIC, struct.pack("<H", MODEL_VERSION)]
    cfg = model.config.to_text().encode("utf-8")
    chunks.append(struct.pack("<I", len(cfg)))
    chunks.append(cfg)
    entries = list(_entries(model))
    chunks.append(struct.pack("<I", len(entries)))
    for name, arr in entries:
        chunks.append(_u16_text(name, "entry name"))
        code = _DTYPE_CODES[arr.dtype]
        chunks.append(struct.pack("<BB", code, arr.ndim))
        for d in arr.shape:
            chunks.append(struct.pack("<I", d))
        chunks.append(np.ascontiguousarray(arr, dtype=_CODE_DTYPES[code]).tobytes())
    _write_whole(path, b"".join(chunks))


def _file_error(offset, message):
    return ModelIOError(f"{message} at offset {offset}")


def _read_entries(r):
    """Parse every entry into {name: array}, checking the file's structure:
    truncation, UTF-8 names, dtype codes, ranks, repeated names, non-finite
    values and trailing bytes."""
    entries = {}
    for _ in range(r.u32("entry count")):
        name = r.text("entry name")
        if name in entries:
            raise ModelIOError(f"repeated entry {name!r} in model file")
        code, rank = r.u8("dtype code"), r.u8("rank")
        if code not in _CODE_DTYPES:
            raise ModelIOError(f"unknown dtype code {code} for entry {name!r}")
        if rank > 32:  # the format's bound, below numpy's own limit of 64
            raise ModelIOError(f"entry {name!r} has rank {rank} at offset "
                               f"{r.offset - 1}; the limit is 32")
        shape = tuple(r.u32("dim") for _ in range(rank))
        count = math.prod(shape)  # a Python int: no int64 wrap-around
        dtype = _CODE_DTYPES[code]
        raw = r.take(count * dtype.itemsize, f"values of {name!r}")
        values = np.frombuffer(raw, dtype=dtype)
        finite = np.isfinite(values)
        if not finite.all():
            raise ModelIOError(
                f"entry {name!r} holds a non-finite value at offset "
                f"{r.offset - len(raw) + dtype.itemsize * int(finite.argmin())}")
        try:
            entries[name] = values.reshape(shape)
        except ValueError:  # a zero-size shape whose other dimensions overflow
            raise ModelIOError(f"entry {name!r} has shape {shape}, which numpy "
                               f"cannot hold") from None
    if r.offset != len(r.data):
        raise ModelIOError(
            f"{len(r.data) - r.offset} trailing bytes after the last entry at "
            f"offset {r.offset}"
        )
    return entries


def load_model(path):
    """Rebuild a model from disk; any structural mismatch raises ModelIOError.

    The whole file is parsed and its structure checked before the model is
    built, so a truncated or malformed file fails without drawing an
    initialisation. Entry names and shapes depend on the architecture, so
    they are checked against the built model.
    """
    with open(path, "rb") as fh:
        r = _Cursor(fh.read(), _file_error)
    if r.take(4, "magic") != MODEL_MAGIC:
        raise ModelIOError(f"bad magic: not a model file ({path})")
    version = r.u16("version")
    if version != MODEL_VERSION:
        raise ModelIOError(f"unsupported model format version {version}")
    cfg = r.take(r.u32("config length"), "config")
    entries = _read_entries(r)
    try:  # a config that does not decode, parse or build
        model = build_model(ModelConfig.from_text(cfg.decode("utf-8")), seed=0)
    except ValueError as exc:
        raise ModelIOError(f"invalid embedded config: {exc}") from exc
    targets = dict(_entries(model))
    for name, arr in entries.items():
        if name not in targets:
            raise ModelIOError(f"unexpected entry {name!r} in model file")
        if arr.shape != targets[name].shape:
            raise ModelIOError(
                f"entry {name!r} has shape {arr.shape}, model expects "
                f"{targets[name].shape}"
            )
        targets[name][...] = arr  # into the model's own arrays, cast to its dtype
    missing = set(targets) - set(entries)
    if missing:
        raise ModelIOError(f"model file is missing entries: {sorted(missing)[:5]}")
    return model
