import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from byte_edits import edited
from scdnn.data import (
    EcgDataset,
    EcgRecord,
    EcgbFormatError,
    SYNTH_AMPLITUDE_CAP,
    pad_to_max,
    read_ecgb,
    stratified_split,
    synth_generate,
    write_ecgb,
)


def small_dataset(seed=0):
    rng = np.random.default_rng(seed)
    records = [
        EcgRecord(rng.normal(size=(3, 40)).astype(np.float32), i % 2, f"rec{i}")
        for i in range(10)
    ]
    splits = {f"rec{i}": ("train", "val", "test")[i % 3] for i in range(10)}
    return EcgDataset(records, ["a", "b"], 3, splits)


class TestContainer:
    def test_roundtrip_bitwise(self, tmp_path):
        ds = small_dataset()
        # named disease classes, more than the labels use
        ds = EcgDataset(ds.records, ["NORM", "MI", "STTC", "CD", "HYP"],
                        ds.n_leads, ds.splits)
        path = tmp_path / "d.ecgb"
        write_ecgb(ds, path)
        back = read_ecgb(path)
        assert back.class_names == ds.class_names
        assert back.n_leads == ds.n_leads
        assert back.splits == ds.splits
        for a, b in zip(ds.records, back.records):
            assert a.record_id == b.record_id
            assert a.label == b.label
            np.testing.assert_array_equal(a.leads, b.leads)

    def test_write_is_deterministic(self, tmp_path):
        ds = small_dataset()
        p1, p2 = tmp_path / "a.ecgb", tmp_path / "b.ecgb"
        write_ecgb(ds, p1)
        write_ecgb(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.ecgb"
        path.write_bytes(b"XXXX" + bytes(32))
        with pytest.raises(EcgbFormatError, match="magic") as err:
            read_ecgb(path)
        assert err.value.offset == 0

    def test_truncation_reports_offset(self, tmp_path):
        path = tmp_path / "d.ecgb"
        write_ecgb(small_dataset(), path)
        raw = path.read_bytes()
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(EcgbFormatError, match="byte") as err:
                read_ecgb(path)
            assert err.value.offset <= cut

    def test_trailing_garbage_rejected(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "d.ecgb"
        write_ecgb(ds, path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(EcgbFormatError, match="trailing"):
            read_ecgb(path)

    def test_repeated_record_id_rejected_by_dataset(self):
        records = [EcgRecord(np.zeros((1, 4), np.float32), 0, rid)
                   for rid in ("a", "b", "a")]
        with pytest.raises(ValueError, match="record id 'a' is repeated"):
            EcgDataset(records, ["x", "y"], 1)

    def test_repeated_record_id_in_file_reports_offset(self, tmp_path):
        # two records with id "a", the first in train and the second in test:
        # read back as one dataset, both would land in test
        def record(split_code):
            fields = struct.pack("<HBI", 0, split_code, 2)  # label, split, length
            return struct.pack("<H", 1) + b"a" + fields + bytes(8)

        head = b"ECGB" + struct.pack("<HH", 1, 2) + b"".join(
            struct.pack("<H", 1) + name for name in (b"x", b"y")
        ) + struct.pack("<HI", 1, 2)
        first = head + record(0)
        path = tmp_path / "dup.ecgb"
        path.write_bytes(first + record(2))
        with pytest.raises(EcgbFormatError, match="repeated record id 'a'") as err:
            read_ecgb(path)
        assert err.value.offset == len(first)

    def test_unknown_split_name_rejected(self):
        records = [EcgRecord(np.zeros((1, 4), np.float32), 0, "a")]
        with pytest.raises(ValueError, match="record 'a' has unknown split 'trian'"):
            EcgDataset(records, ["x", "y"], 1, {"a": "trian"})

    def test_split_of_unknown_record_rejected(self):
        records = [EcgRecord(np.zeros((1, 4), np.float32), 0, "a")]
        with pytest.raises(ValueError, match="unknown record 'b'"):
            EcgDataset(records, ["x", "y"], 1, {"a": "train", "b": "test"})

    @pytest.mark.parametrize("n_leads, label, message", [
        (1, 2, "record 'a' labelled 2, but only 2 classes are declared"),
        (2, 0, "record 'a' has 2 leads, dataset declares 1"),
    ], ids=["label", "leads"])
    def test_record_that_does_not_fit_the_dataset_rejected(self, n_leads, label,
                                                           message):
        records = [EcgRecord(np.zeros((n_leads, 4), np.float32), label, "a")]
        with pytest.raises(ValueError, match=f"^{message}$"):
            EcgDataset(records, ["x", "y"], 1)

    def test_records_in_unknown_split_rejected(self):
        with pytest.raises(ValueError, match="^unknown split 'trian'$"):
            small_dataset().records_in("trian")

    @pytest.mark.parametrize("what", ["class name", "record id"])
    def test_text_not_utf8_reports_offset(self, tmp_path, what):
        path = tmp_path / "d.ecgb"
        write_ecgb(small_dataset(), path)
        raw = bytearray(path.read_bytes())
        # magic 4, version 2, class count 2, then each class as u16 length
        # and name ("a" at byte 10, "b" at 13), lead count 2, record count 4,
        # and the first record's u16 length and id "rec0" at byte 22
        text_at, text = {"class name": (10, b"a"), "record id": (22, b"rec0")}[what]
        assert raw[text_at : text_at + len(text)] == text
        raw[text_at] = 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(EcgbFormatError, match=f"{what} is not UTF-8") as err:
            read_ecgb(path)
        assert err.value.offset == text_at

    # In small_dataset's file the first record's label sits at byte 26 (see
    # above), its split code at 28, its length at 29 and its samples at 33.
    @pytest.mark.parametrize("bad", ["nan", "inf", "empty"])
    def test_bad_samples_report_offset(self, tmp_path, bad):
        path = tmp_path / "d.ecgb"
        write_ecgb(small_dataset(), path)
        raw = bytearray(path.read_bytes())
        if bad == "empty":
            raw[29:33] = struct.pack("<I", 0)
            message = r"bad shape \(3, 0\)"
        else:
            raw[33 + 4 * 7 : 33 + 4 * 8] = struct.pack("<f", float(bad))
            message = "non-finite samples"
        path.write_bytes(bytes(raw))
        with pytest.raises(EcgbFormatError,
                           match=f"byte 33: record 'rec0': {message}") as err:
            read_ecgb(path)
        assert err.value.offset == 33

    def test_label_without_class_reports_offset(self, tmp_path):
        path = tmp_path / "d.ecgb"
        write_ecgb(small_dataset(), path)
        raw = bytearray(path.read_bytes())
        assert struct.unpack_from("<H", raw, 26)[0] == 0
        raw[26:28] = struct.pack("<H", 2)  # two classes: labels 0 and 1
        path.write_bytes(bytes(raw))
        with pytest.raises(EcgbFormatError, match="label 2 names no class") as err:
            read_ecgb(path)
        assert err.value.offset == 26

    def test_bad_split_code_reports_offset(self, tmp_path):
        path = tmp_path / "d.ecgb"
        write_ecgb(small_dataset(), path)
        raw = bytearray(path.read_bytes())
        assert raw[28] == 0  # rec0 is in train
        raw[28] = 3
        path.write_bytes(bytes(raw))
        with pytest.raises(EcgbFormatError, match="bad split code 3") as err:
            read_ecgb(path)
        assert err.value.offset == 28

    @pytest.mark.parametrize("field, names, n_leads, record_id", [
        ("n_classes", [str(c) for c in range(65536)], 1, "a"),
        ("class 1 name length in bytes", ["x", "y" * 65536], 1, "a"),
        ("n_leads", ["x", "y"], 65536, "a"),
        ("record 0 record_id length in bytes", ["x", "y"], 1, "é" * 32768),
    ], ids=["n_classes", "class_name", "n_leads", "record_id"])
    def test_value_past_its_u16_field_is_refused_writing_no_file(
            self, tmp_path, field, names, n_leads, record_id):
        record = EcgRecord(np.zeros((n_leads, 4), np.float32), 0, record_id)
        path = tmp_path / "d.ecgb"
        with pytest.raises(ValueError, match=f"^ECGB {field} must be at most "
                                             f"65535, got 65536$"):
            write_ecgb(EcgDataset([record], names, n_leads), path)
        assert not path.exists()

    def test_text_at_its_u16_limit_round_trips(self, tmp_path):
        name, rid = "x" * 65535, "é" * 32767 + "r"
        path = tmp_path / "d.ecgb"
        write_ecgb(EcgDataset([EcgRecord(np.zeros((1, 4), np.float32), 0,
                                         rid)], [name, "y"], 1), path)
        back = read_ecgb(path)
        assert back.class_names[0] == name and back.records[0].record_id == rid


@pytest.fixture(scope="module")
def tiny_ecgb(tmp_path_factory):
    """A valid file of four short two-lead records, and a path to overwrite."""
    workdir = tmp_path_factory.mktemp("mutants")
    write_ecgb(synth_generate(2, 2, n_leads=2, length=8, seed=0),
               workdir / "valid.ecgb")
    return (workdir / "valid.ecgb").read_bytes(), workdir / "mutant.ecgb"


class TestMalformedFiles:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_loads_or_raises_format_error(self, tiny_ecgb, data):
        raw, path = tiny_ecgb
        path.write_bytes(data.draw(edited(raw)))
        try:
            read_ecgb(path)
        except EcgbFormatError:
            pass


class TestPadding:
    def test_pads_to_max_with_trailing_zeros(self):
        r1 = EcgRecord(np.ones((2, 3000), dtype=np.float32), 0, "a")
        r2 = EcgRecord(np.ones((2, 5000), dtype=np.float32), 0, "b")
        ds = pad_to_max(EcgDataset([r1, r2], ["x", "y"], 2))
        assert all(r.length == 5000 for r in ds.records)
        np.testing.assert_array_equal(ds.records[0].leads[:, 3000:], 0.0)

    def test_prefix_preserved_exactly(self):
        rng = np.random.default_rng(2)
        leads = rng.normal(size=(2, 37)).astype(np.float32)
        ds = EcgDataset(
            [EcgRecord(leads.copy(), 0, "a"),
             EcgRecord(np.zeros((2, 50), dtype=np.float32), 1, "b")],
            ["x", "y"], 2,
        )
        padded = pad_to_max(ds)
        np.testing.assert_array_equal(padded.records[0].leads[:, :37], leads)

    def test_uniform_dataset_unchanged(self):
        ds = small_dataset()
        padded = pad_to_max(ds)
        for a, b in zip(ds.records, padded.records):
            assert a is b


class TestSynth:
    def test_deterministic(self):
        a = synth_generate(5, 3, length=128, seed=42)
        b = synth_generate(5, 3, length=128, seed=42)
        for ra, rb in zip(a.records, b.records):
            np.testing.assert_array_equal(ra.leads, rb.leads)
        c = synth_generate(5, 3, length=128, seed=43)
        assert not np.array_equal(a.records[0].leads, c.records[0].leads)

    def test_noise_zero_gives_exact_class_templates(self):
        ds = synth_generate(3, 3, length=512, noise_std=0.0, seed=9)
        for rec in ds.records:
            period = max(16, 512 // (4 + 2 * rec.label))
            np.testing.assert_array_equal(rec.leads[:, : 512 - period],
                                          rec.leads[:, period:])
        by_class = {}
        for rec in ds.records:
            by_class.setdefault(rec.label, []).append(rec)
        for recs in by_class.values():
            for other in recs[1:]:
                np.testing.assert_array_equal(recs[0].leads, other.leads)

    def test_bounded_and_finite(self):
        ds = synth_generate(4, 2, length=256, noise_std=2.0, seed=3)
        for rec in ds.records:
            assert np.all(np.isfinite(rec.leads))
            assert np.abs(rec.leads).max() <= SYNTH_AMPLITUDE_CAP

    def test_bandpower_features_linearly_separate_class_0_and_1(self):
        # simple-feature oracle: 8 log-bandpowers + least-squares classifier
        ds = synth_generate(100, 2, n_leads=12, length=512, noise_std=0.05,
                            seed=11)
        feats, labels = [], []
        for rec in ds.records:
            spec = np.abs(np.fft.rfft(rec.leads.astype(np.float64), axis=1)) ** 2
            bands = np.array_split(spec, 8, axis=1)
            feats.append([np.log1p(b.sum()) for b in bands])
            labels.append(rec.label)
        feats = np.asarray(feats)
        labels = np.asarray(labels)
        design = np.hstack([feats, np.ones((len(feats), 1))])
        w, *_ = np.linalg.lstsq(design, 2.0 * labels - 1.0, rcond=None)
        accuracy = ((design @ w > 0).astype(int) == labels).mean()
        assert accuracy > 0.95

    def test_per_class_counts(self):
        ds = synth_generate([7, 3, 5], 3, length=64, seed=0)
        labels = [rec.label for rec in ds.records]
        assert [labels.count(c) for c in range(3)] == [7, 3, 5]
        with pytest.raises(ValueError):
            synth_generate([7, 3], 3, length=64)

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            synth_generate(5, 1, length=64)

    @pytest.mark.parametrize("noise", [-1.0, float("nan"), float("inf")])
    def test_negative_or_non_finite_noise_rejected(self, noise):
        with pytest.raises(ValueError, match=f"noise_std must be finite and "
                                             f"at least 0, got {noise}"):
            synth_generate(2, 2, length=32, noise_std=noise)


class TestStratifiedSplit:
    def test_balanced_100_records(self):
        ds = synth_generate(50, 2, length=32, seed=1)
        out = stratified_split(ds, (0.8, 0.1, 0.1), seed=0)
        for cls in (0, 1):
            ids = [r.record_id for r in out.records if r.label == cls]
            train = sum(out.splits[i] == "train" for i in ids)
            assert train == 40

    def test_deterministic(self):
        ds = synth_generate(20, 2, length=32, seed=1)
        a = stratified_split(ds, (0.8, 0.1, 0.1), seed=5).splits
        b = stratified_split(ds, (0.8, 0.1, 0.1), seed=5).splits
        assert a == b

    def test_partition_disjoint_and_exhaustive(self):
        ds = synth_generate([13, 29, 17], 3, length=32, seed=2)
        out = stratified_split(ds, (0.8, 0.1, 0.1), seed=3)
        assigned = [out.splits[r.record_id] for r in out.records]
        assert all(s in ("train", "val", "test") for s in assigned)
        assert len(out.splits) == len(ds.records)

    def test_per_class_train_fraction_within_one_record(self):
        # exhaustive over class sizes 1..50; sizes below 3 go wholly to train
        for size in range(1, 51):
            ds = synth_generate([size, 3], 2, length=32, seed=size)
            if size < 3:
                with pytest.warns(UserWarning, match="assigning all to train"):
                    out = stratified_split(ds, (0.8, 0.1, 0.1), seed=0)
                ids = [r.record_id for r in out.records if r.label == 0]
                assert all(out.splits[i] == "train" for i in ids)
                continue
            out = stratified_split(ds, (0.8, 0.1, 0.1), seed=0)
            ids = [r.record_id for r in out.records if r.label == 0]
            train = sum(out.splits[i] == "train" for i in ids)
            assert abs(train - 0.8 * size) <= 1.0
            assert train >= 1

    def test_class_left_without_train_gets_one_from_the_largest_split(self):
        # largest remainder splits each class of 3 records (0, 2, 1) at
        # these fractions; one record moves from val into train
        ds = synth_generate(3, 2, length=32, seed=1)
        out = stratified_split(ds, (0.1, 0.45, 0.45), seed=0)
        for cls in (0, 1):
            split_of = sorted(out.splits[r.record_id] for r in out.records
                              if r.label == cls)
            assert split_of == ["test", "train", "val"]

    def test_fractions_must_sum_to_one(self):
        ds = synth_generate(5, 2, length=32, seed=1)
        with pytest.raises(ValueError, match="sum to 1"):
            stratified_split(ds, (0.5, 0.2, 0.2))

    @pytest.mark.parametrize("fractions, name", [
        ((-1.0, 1.0, 1.0), "train"), ((0.5, float("nan"), 0.5), "val"),
        ((0.0, 0.0, float("inf")), "test"),
    ])
    def test_negative_or_non_finite_fraction_rejected_naming_it(self, fractions,
                                                                name):
        ds = synth_generate(5, 2, length=32, seed=1)
        with pytest.raises(ValueError, match=f"the {name} fraction must be "
                                             f"finite and at least 0"):
            stratified_split(ds, fractions)
