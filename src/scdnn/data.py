"""Dataset container, padding, stratified splitting, and a synthetic
multi-lead signal generator for reproducible desk-scale experiments; also
the whole-file writer and the bounds-checked reader that the package's
binary formats share.

ECGB file layout (all integers little-endian):

    magic "ECGB"
    version          u16  (= 1)
    n_classes        u16
    per class:       u16 name length, UTF-8 name bytes
    n_leads          u16
    n_records        u32
    per record:
        record_id    u16 length, UTF-8 bytes (unique within the file)
        label        u16
        split        u8   (0 train, 1 val, 2 test, 255 unassigned)
        length       u32
        values       n_leads * length float32, lead-major

Lead values are stored as float32 (lossless for ADC-derived sources);
compute may upcast. No normalization is applied anywhere in this module:
consumers receive raw amplitudes.
"""

import contextlib
import os
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EcgRecord",
    "EcgDataset",
    "EcgbFormatError",
    "SPLIT_NAMES",
    "write_ecgb",
    "read_ecgb",
    "pad_to_max",
    "synth_generate",
    "stratified_split",
]

ECGB_MAGIC = b"ECGB"
ECGB_VERSION = 1
ECGB_U16_MAX = 0xFFFF  # class and lead counts, name and id bytes: u16 fields

SPLIT_NAMES = ("train", "val", "test")
_SPLIT_CODES = {"train": 0, "val": 1, "test": 2, None: 255}
_CODE_SPLITS = {v: k for k, v in _SPLIT_CODES.items()}

# Hard ceiling on generated amplitudes, in signal units; synthetic records
# are clipped here so downstream numerics see bounded inputs.
SYNTH_AMPLITUDE_CAP = 10.0


class EcgbFormatError(IOError):
    """Malformed container data; carries the byte offset of the problem."""

    def __init__(self, offset, message):
        super().__init__(f"ECGB error at byte {offset}: {message}")
        self.offset = offset


@dataclass
class EcgRecord:
    leads: np.ndarray  # (n_leads, length) float32
    label: int
    record_id: str

    def __post_init__(self):
        self.leads = np.asarray(self.leads, dtype=np.float32)
        if self.leads.ndim != 2 or self.leads.shape[1] < 1:
            raise ValueError(f"record {self.record_id!r}: bad shape "
                             f"{self.leads.shape}")
        if not np.all(np.isfinite(self.leads)):
            raise ValueError(f"record {self.record_id!r}: non-finite samples")

    @property
    def length(self):
        return self.leads.shape[1]


@dataclass
class EcgDataset:
    records: list
    class_names: list
    n_leads: int
    splits: dict = field(default_factory=dict)  # record_id -> split name or None

    def __post_init__(self):
        n = len(self.class_names)
        seen = set()
        for rec in self.records:
            if rec.record_id in seen:
                raise ValueError(f"record id {rec.record_id!r} is repeated")
            seen.add(rec.record_id)
            if not 0 <= rec.label < n:
                raise ValueError(
                    f"record {rec.record_id!r} labelled {rec.label}, but only "
                    f"{n} classes are declared"
                )
            if rec.leads.shape[0] != self.n_leads:
                raise ValueError(
                    f"record {rec.record_id!r} has {rec.leads.shape[0]} leads, "
                    f"dataset declares {self.n_leads}"
                )
        for rid, split in self.splits.items():
            if split not in _SPLIT_CODES:
                raise ValueError(f"record {rid!r} has unknown split {split!r}")
            if rid not in seen:
                raise ValueError(f"split given for unknown record {rid!r}")

    @property
    def max_length(self):
        return max(rec.length for rec in self.records)

    def records_in(self, split):
        if split not in SPLIT_NAMES:
            raise ValueError(f"unknown split {split!r}")
        return [r for r in self.records if self.splits.get(r.record_id) == split]


def _u16(value, field):
    if not 0 <= value <= ECGB_U16_MAX:
        raise ValueError(f"ECGB {field} must be at most {ECGB_U16_MAX}, "
                         f"got {value}")
    return struct.pack("<H", value)


def _u16_text(text, field):
    raw = text.encode("utf-8")
    return _u16(len(raw), f"{field} length in bytes") + raw


def write_ecgb(dataset, path):
    """Write `dataset` to `path`; a count, name or id that does not fit its
    u16 field raises ValueError naming the field, before anything is written."""
    chunks = [ECGB_MAGIC, struct.pack("<H", ECGB_VERSION)]
    chunks.append(_u16(len(dataset.class_names), "n_classes"))
    for c, name in enumerate(dataset.class_names):
        chunks.append(_u16_text(name, f"class {c} name"))
    chunks.append(_u16(dataset.n_leads, "n_leads"))
    chunks.append(struct.pack("<I", len(dataset.records)))
    for i, rec in enumerate(dataset.records):
        chunks.append(_u16_text(rec.record_id, f"record {i} record_id"))
        chunks.append(struct.pack("<H", rec.label))
        chunks.append(struct.pack("<B", _SPLIT_CODES[dataset.splits.get(rec.record_id)]))
        chunks.append(struct.pack("<I", rec.length))
        chunks.append(np.ascontiguousarray(rec.leads, dtype="<f4").tobytes())
    _write_whole(path, b"".join(chunks))


def _write_whole(path, content):
    """Write `content`, bytes or text (as UTF-8), to `<path>.tmp`, then rename
    that over `path`, so `path` holds its old bytes or all the new ones. If
    anything fails, the temporary file is removed and the error raised."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(content.encode("utf-8") if isinstance(content, str)
                     else content)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


class _Cursor:
    """Bounds-checked little-endian reads from `data`; `error(offset,
    message)` makes the exception for a truncated read or non-UTF-8 text."""

    def __init__(self, data, error=EcgbFormatError):
        self.data = data
        self.offset = 0
        self.error = error

    def take(self, n, what):
        if self.offset + n > len(self.data):
            raise self.error(self.offset, f"truncated while reading {what}")
        out = self.data[self.offset : self.offset + n]
        self.offset += n
        return out

    def u8(self, what):
        return self.take(1, what)[0]

    def u16(self, what):
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]

    def text(self, what):
        raw = self.take(self.u16(f"{what} length"), what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise self.error(self.offset - len(raw),
                             f"{what} is not UTF-8") from None


def read_ecgb(path):
    with open(path, "rb") as fh:
        cur = _Cursor(fh.read())
    magic = cur.take(4, "magic")
    if magic != ECGB_MAGIC:
        raise EcgbFormatError(0, f"bad magic {magic!r}")
    version = cur.u16("version")
    if version != ECGB_VERSION:
        raise EcgbFormatError(4, f"unsupported version {version}")
    class_names = [cur.text("class name") for _ in range(cur.u16("class count"))]
    n_leads = cur.u16("lead count")
    n_records = cur.u32("record count")
    records = []
    splits = {}
    for _ in range(n_records):
        start = cur.offset
        rid = cur.text("record id")
        if rid in splits:
            raise EcgbFormatError(start, f"repeated record id {rid!r}")
        label = cur.u16("label")
        if label >= len(class_names):
            raise EcgbFormatError(cur.offset - 2, f"label {label} names no class")
        split_code = cur.u8("split code")
        if split_code not in _CODE_SPLITS:
            raise EcgbFormatError(cur.offset - 1, f"bad split code {split_code}")
        length = cur.u32("record length")
        raw = cur.take(n_leads * length * 4, f"samples of {rid!r}")
        leads = np.frombuffer(raw, dtype="<f4").reshape(n_leads, length).copy()
        try:
            records.append(EcgRecord(leads, label, rid))
        except ValueError as exc:  # no samples, or a non-finite one
            raise EcgbFormatError(cur.offset - len(raw), str(exc)) from None
        splits[rid] = _CODE_SPLITS[split_code]
    if cur.offset != len(cur.data):
        raise EcgbFormatError(cur.offset, "trailing bytes after last record")
    return EcgDataset(records, class_names, n_leads, splits)


def pad_to_max(dataset):
    """Zero-pad every record at the tail to the dataset maximum length."""
    target = dataset.max_length
    records = []
    for rec in dataset.records:
        if rec.length == target:
            records.append(rec)
            continue
        leads = np.zeros((dataset.n_leads, target), dtype=np.float32)
        leads[:, : rec.length] = rec.leads
        records.append(EcgRecord(leads, rec.label, rec.record_id))
    return EcgDataset(records, list(dataset.class_names), dataset.n_leads,
                      dict(dataset.splits))


# -- synthetic generator ------------------------------------------------------


def _gauss_bump(t, center, width, amplitude):
    return amplitude * np.exp(-0.5 * ((t - center) / width) ** 2)


def _class_template(cls, length, n_leads):
    """Deterministic per-class waveform: three bump groups per beat.

    Class morphology rules (all deterministic in the class index):
      * beat period: length // (4 + 2 * cls) samples, so spectra peak at
        well separated bins;
      * sharp-complex width grows ~35% per class;
      * the wide late bump flips sign on odd classes;
      * a small plateau offset after the sharp complex grows with class;
      * per-lead gains taper linearly and alternate sign every third lead.
    """
    beats = 4 + 2 * cls
    period = max(16, length // beats)
    qrs_width = 0.012 * period * (1.0 + 0.35 * cls)
    t_sign = -1.0 if cls % 2 else 1.0
    st_offset = 0.08 * cls

    t = np.arange(period, dtype=np.float64)
    beat = np.zeros(period)
    # P-like bump, sharp central complex, wide trailing bump
    beat += _gauss_bump(t, 0.18 * period, 0.035 * period, 0.25)
    beat += _gauss_bump(t, 0.30 * period, qrs_width, 2.2)
    beat -= _gauss_bump(t, 0.30 * period + 2.2 * qrs_width, qrs_width, 0.6)
    beat += _gauss_bump(t, 0.55 * period, 0.08 * period, t_sign * 0.6)
    plateau = (t > 0.34 * period) & (t < 0.5 * period)
    beat += st_offset * plateau

    reps = int(np.ceil(length / period))
    base = np.tile(beat, reps)[:length]

    lead_idx = np.arange(n_leads, dtype=np.float64)
    gains = 0.6 + 0.8 * lead_idx / max(n_leads - 1, 1)
    gains *= np.where(lead_idx % 3 == 2, -1.0, 1.0)
    return gains[:, None] * base[None, :]


def synth_generate(n_per_class, n_classes, n_leads=12, length=512,
                   noise_std=0.05, seed=0):
    """Seeded synthetic dataset; classes differ by deterministic morphology.

    `n_per_class` is one count for all classes or a per-class sequence.
    With noise_std=0 every record equals its class template exactly
    (periodic in the class beat interval). Otherwise each record gets
    additive white noise scaled by noise_std plus a per-record circular
    beat-phase shift; both are seeded per record. Output is clipped to
    SYNTH_AMPLITUDE_CAP.
    """
    if n_classes < 2:
        raise ValueError("at least two classes are required")
    if not 0 <= noise_std < np.inf:
        raise ValueError(f"noise_std must be finite and at least 0, got "
                         f"{noise_std}")
    if np.isscalar(n_per_class):
        counts = [int(n_per_class)] * n_classes
    else:
        counts = [int(c) for c in n_per_class]
        if len(counts) != n_classes:
            raise ValueError(f"n_per_class sequence must have one entry per "
                             f"class, got {len(counts)} for {n_classes} classes")
    records = []
    for cls in range(n_classes):
        template = _class_template(cls, length, n_leads)
        for i in range(counts[cls]):
            rng = np.random.default_rng([seed, cls, i])
            leads = template
            if noise_std > 0:
                shift = int(rng.integers(0, max(1, length // 16)))
                leads = np.roll(template, shift, axis=1)
                leads = leads + rng.normal(0.0, noise_std, size=leads.shape)
            leads = np.clip(leads, -SYNTH_AMPLITUDE_CAP, SYNTH_AMPLITUDE_CAP)
            records.append(
                EcgRecord(leads.astype(np.float32), cls, f"synth-{cls:02d}-{i:05d}")
            )
    class_names = [f"class{c}" for c in range(n_classes)]
    return EcgDataset(records, class_names, n_leads)


# -- splitting ---------------------------------------------------------------


def _largest_remainder(n, fractions):
    """Integer allocation of n items proportional to fractions, within +-1."""
    targets = [n * f for f in fractions]
    alloc = [int(np.floor(t)) for t in targets]
    remainder = n - sum(alloc)
    order = sorted(range(len(fractions)),
                   key=lambda i: (-(targets[i] - alloc[i]), i))
    for i in order[:remainder]:
        alloc[i] += 1
    return alloc


def stratified_split(dataset, fractions=(0.8, 0.1, 0.1), seed=0):
    """Assign train/val/test per class with a seeded shuffle.

    Classes with fewer records than split buckets go entirely to train
    (with a warning); otherwise every class lands in train whenever it has
    any records at all.
    """
    if len(fractions) != 3:
        raise ValueError("fractions must be (train, val, test)")
    for name, share in zip(SPLIT_NAMES, fractions):
        if not 0 <= share < np.inf:
            raise ValueError(f"the {name} fraction must be finite and at least "
                             f"0, got {share}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")
    by_class = {}
    for rec in dataset.records:
        by_class.setdefault(rec.label, []).append(rec.record_id)
    splits = {}
    for cls in sorted(by_class):
        ids = by_class[cls]
        order = np.random.default_rng([seed, cls]).permutation(len(ids))
        shuffled = [ids[i] for i in order]
        if len(ids) < len(SPLIT_NAMES):
            warnings.warn(
                f"class {cls} has only {len(ids)} records; assigning all to train"
            )
            alloc = [len(ids), 0, 0]
        else:
            alloc = _largest_remainder(len(ids), fractions)
            if alloc[0] == 0 and fractions[0] > 0:
                donor = int(np.argmax(alloc))
                alloc[donor] -= 1
                alloc[0] += 1
        pos = 0
        for split, count in zip(SPLIT_NAMES, alloc):
            for rid in shuffled[pos : pos + count]:
                splits[rid] = split
            pos += count
    return EcgDataset(dataset.records, list(dataset.class_names),
                      dataset.n_leads, splits)
