"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with -s to see them inline).
"""

import time

import numpy as np
import pytest

from scdnn.autodiff import Tensor, grad_check
from scdnn.cli import _randomize_for_gradcheck, gradcheck_loss, main
from scdnn.data import (
    read_ecgb,
    stratified_split,
    synth_generate,
    write_ecgb,
)
from scdnn.model import (
    ModelConfig,
    ModelIOError,
    build_model,
    load_model,
    save_model,
    tiny_config,
)
from scdnn.satse import SatseBlock, hard_mask, soft_mask
from scdnn.spectral import dft, idft
from scdnn.training import (
    Hyperparams,
    evaluate,
    metrics_from_confusion,
    run_ablation,
    train,
)


def direct_dft_oracle(x):
    """Direct-summation reference, built from the definition each call."""
    length = len(x)
    n = np.arange(length)
    return np.asarray(x, complex) @ np.exp(-2j * np.pi * np.outer(n, n) / length)


def test_c01_spectral_correctness():
    start = time.time()
    rng = np.random.default_rng(1001)
    lengths = list(range(1, 65)) + [97, 128, 500, 1000]
    worst_fwd, worst_rt, worst_pars = 0.0, 0.0, 0.0
    for case in range(200):
        length = int(rng.choice(lengths))
        x = rng.normal(size=length) + 1j * rng.normal(size=length)
        spec = dft(x)
        ref = direct_dft_oracle(x)
        scale = max(np.abs(ref).max(), 1e-300)
        worst_fwd = max(worst_fwd, np.abs(spec - ref).max() / scale)
        worst_rt = max(worst_rt, np.abs(idft(spec) - x).max())
        lhs = np.sum(np.abs(x) ** 2)
        rhs = np.sum(np.abs(spec) ** 2) / length
        worst_pars = max(worst_pars, abs(lhs - rhs) / lhs)
    elapsed = time.time() - start
    assert worst_fwd < 1e-8
    assert worst_rt < 1e-10
    assert worst_pars < 1e-9
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 1 spectral correctness: PASS "
          f"(forward {worst_fwd:.2e}, roundtrip {worst_rt:.2e}, "
          f"parseval {worst_pars:.2e}, {elapsed:.1f}s)")


def test_c02_mask_algebra():
    start = time.time()
    rng = np.random.default_rng(1002)
    n = 100_000
    lengths = rng.integers(2, 4096, size=n).astype(float)
    x = rng.uniform(-1, 2, size=n) * lengths
    phi = rng.uniform(0.001, 0.999, size=n)
    gamma = rng.uniform(1e-3, 100.0, size=n)

    high = soft_mask(x, phi, gamma, lengths, "high")
    low = soft_mask(x, phi, gamma, lengths, "low")
    complement_err = np.abs(low + high - 1.0).max()
    assert complement_err <= 1e-15

    # scalar surface: complement and the half-value at the cutoff
    for _ in range(200):
        length = int(rng.integers(2, 2000))
        p = float(rng.uniform(0.01, 0.99))
        g = float(rng.uniform(0.01, 50.0))
        xx = float(rng.uniform(0, length))
        sl = soft_mask(xx, p, g, length, "low")
        sh = soft_mask(xx, p, g, length, "high")
        assert abs(sl + sh - 1.0) <= 1e-15
        assert abs(soft_mask(p * length, p, g, length, "high") - 0.5) \
            <= 1e-12

    # steep-slope limit agrees with the hard cutoff away from the boundary
    for _ in range(50):
        length = int(rng.integers(4, 500))
        p = float(rng.uniform(0.05, 0.95))
        j = np.arange(length)
        keep = np.abs(j - p * length) >= 1.0
        for side in ("low", "high"):
            soft = soft_mask(j, p, 1e4, length, side)
            hard = hard_mask(j, p, length, side)
            assert np.array_equal(np.round(soft[keep]), hard[keep])
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 2 mask algebra: PASS "
          f"(complement {complement_err:.2e}, {elapsed:.1f}s)")


def test_c03_satse_identities():
    start = time.time()
    rng = np.random.default_rng(1003)
    worst_identity, worst_recon = 0.0, 0.0
    for mode in ("symmetric", "literal"):
        for _ in range(12):
            b = int(rng.integers(1, 5))
            c = int(rng.integers(1, 9))
            length = int(rng.integers(2, 65))
            phi = float(rng.uniform(0.02, 0.98))
            gamma = float(rng.uniform(0.05, 30.0))
            x = rng.normal(size=(b, c, length))

            block = SatseBlock(c, length, phi_init=phi, gamma_init=gamma,
                               mask_index_mode=mode)
            worst_identity = max(
                worst_identity,
                np.abs(block.forward(Tensor(x)).data - x).max(),
            )

            block2 = SatseBlock(c, length, phi_init=phi, gamma_init=gamma,
                                lambda_init=1.0, mask_index_mode=mode)
            worst_recon = max(
                worst_recon,
                np.abs(block2.forward(Tensor(x)).data - 2 * x).max(),
            )

    elapsed = time.time() - start
    assert worst_identity < 1e-12
    assert worst_recon < 1e-8
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 3 spectral-block identities: PASS "
          f"(identity {worst_identity:.2e}, reconstruction {worst_recon:.2e}, "
          f"{elapsed:.1f}s)")


def test_c04_full_model_differentiability():
    start = time.time()
    config = tiny_config(n_classes=3, n_leads=12, input_length=64,
                         widths=(4, 8))
    model = build_model(config, seed=1004)
    _randomize_for_gradcheck(model, 1004)
    rng = np.random.default_rng(1004)
    batch = rng.normal(size=(2, 12, 64))
    labels = rng.integers(0, 3, size=2)
    params = model.trainable_parameters()

    names = set(params)
    for needed in ("satse1.phi", "satse1.gamma", "satse1.lambda_low",
                   "satse1.lambda_high", "satse1.weight_re",
                   "satse1.weight_im", "satse2.weight_re", "stem.conv.weight",
                   "head.fc.weight"):
        assert needed in names, f"missing parameter {needed}"

    report = grad_check(gradcheck_loss(model, batch, labels), params,
                        epsilon=1e-6, tolerance=1e-4)
    elapsed = time.time() - start
    worst_name, worst_err = report.worst(1)[0]
    assert report.passed, report.worst()
    assert elapsed < 600.0
    n_comp = sum(p.data.size for p in params.values())
    print(f"\nACCEPTANCE 4 differentiability: PASS "
          f"({len(params)} tensors / {n_comp} components, worst "
          f"{worst_name}={worst_err:.2e} < 1e-4, {elapsed:.0f}s)")


def test_c05_end_to_end_learning():
    start = time.time()
    seed = 2024
    dataset = synth_generate([320, 240, 240], 3, n_leads=12, length=512,
                             noise_std=0.05, seed=seed)
    dataset = stratified_split(dataset, (0.75, 0.125, 0.125), seed=seed)
    sizes = {s: len(dataset.records_in(s)) for s in ("train", "val", "test")}
    assert sizes == {"train": 600, "val": 100, "test": 100}

    config = ModelConfig(n_classes=3, input_length=512,
                         stage_widths=(16, 32, 64, 128))
    hyper = Hyperparams(epochs=20, seed=seed)  # reference defaults otherwise
    assert (hyper.batch_size, hyper.lr, hyper.weight_decay) == (32, 1e-4, 2e-5)

    model = build_model(config, seed=seed)
    log = train(model, dataset, hyper)
    report = evaluate(model, dataset, "test")
    assert report.macro_f1 >= 0.90

    # determinism: a fresh 3-epoch run reproduces the trace prefix bitwise
    model2 = build_model(config, seed=seed)
    log2 = train(model2, dataset, Hyperparams(epochs=3, lr_drop_epoch=3,
                                              seed=seed))
    for a, b in zip(log.rows[:3], log2.rows[:3]):
        assert a.to_csv() == b.to_csv()

    elapsed = time.time() - start
    assert elapsed < 900.0
    print(f"\nACCEPTANCE 5 end-to-end learning: PASS "
          f"(test macro-F1 {report.macro_f1:.3f} >= 0.90, accuracy "
          f"{report.accuracy:.3f}, deterministic prefix, {elapsed:.0f}s)")


def test_c06_reference_parameter_fidelity(tmp_path, capsys):
    hyper = Hyperparams()
    assert hyper.epochs == 50
    assert hyper.batch_size == 32
    assert hyper.lr == 1e-4
    assert hyper.weight_decay == 2e-5
    assert hyper.lr_drop_epoch == 20 and hyper.lr_drop_factor == 10.0

    cfg = ModelConfig(n_classes=3, input_length=64)
    assert cfg.phi_init == 0.4 and cfg.gamma_init == 0.5

    data_path = tmp_path / "micro.ecgb"
    ds = stratified_split(
        synth_generate(8, 3, length=64, noise_std=0.05, seed=6),
        (0.5, 0.25, 0.25), seed=6,
    )
    write_ecgb(ds, data_path)
    out_dir = tmp_path / "run"
    rc = main(["train", "--data", str(data_path), "--out-dir", str(out_dir),
               "--stage-widths", "2,4", "--seed", "6"])  # default hyper
    assert rc == 0
    echoed = {}
    for line in capsys.readouterr().out.splitlines():
        line = line.strip()
        if "=" in line:
            k, v = line.split("=", 1)
            echoed.setdefault(k, v)
    assert int(echoed["epochs"]) == 50
    assert int(echoed["batch_size"]) == 32
    assert float(echoed["lr"]) == 1e-4
    assert float(echoed["weight_decay"]) == 2e-5

    trace = (out_dir / "trace.csv").read_text().splitlines()
    assert len(trace) == 51
    row0 = trace[1].split(",")
    assert float(row0[2]) == 1e-4
    assert [float(v) for v in row0[3:7]] == [0.4] * 4
    assert [float(v) for v in row0[7:11]] == [0.5] * 4
    assert [float(v) for v in row0[11:19]] == [0.0] * 8
    assert float(trace[21].split(",")[2]) == pytest.approx(1e-5)
    print("\nACCEPTANCE 6 reference-parameter fidelity: PASS "
          "(epochs 50, batch 32, lr 1e-4, wd 2e-5, drop /10 @ epoch 20, "
          "phi 0.4, gamma 0.5, lambda 0 in trace row 0)")


def test_c07_trace_behavior_across_phi_inits():
    start = time.time()
    ds = stratified_split(
        synth_generate(16, 3, length=64, noise_std=0.05, seed=7),
        (0.75, 0.125, 0.125), seed=7,
    )
    hyper = Hyperparams(epochs=8, batch_size=16, lr=3e-3, lr_drop_epoch=6,
                        seed=7)
    for phi0 in (0.1, 0.25, 0.4):
        model = build_model(tiny_config(phi_init=phi0), seed=7)
        log = train(model, ds, hyper)  # raises on any numerical abort
        assert len(log.rows) == hyper.epochs
        assert log.rows[0].phi == (phi0,) * 4
        for row in log.rows:
            assert all(1e-3 <= v <= 0.999 for v in row.phi)
            assert all(np.isfinite(v) for v in row.lam_low + row.lam_high)
            assert np.isfinite(row.loss)
    elapsed = time.time() - start
    print(f"\nACCEPTANCE 7 trace behavior: PASS "
          f"(phi inits 0.1/0.25/0.4 all complete inside clamp bounds, "
          f"{elapsed:.0f}s)")


def test_c08_metrics_oracle():
    rep = metrics_from_confusion([[2, 0], [1, 1]])
    assert abs(rep.accuracy - 0.75) <= 1e-12
    assert abs(rep.macro_precision - 5 / 6) <= 1e-12
    assert abs(rep.macro_recall - 0.75) <= 1e-12
    assert abs(rep.macro_f1 - 11 / 15) <= 1e-12

    rep2 = metrics_from_confusion([[50, 0], [50, 0]])
    assert abs(rep2.accuracy - 0.5) <= 1e-12
    assert abs(rep2.macro_f1 - 1 / 3) <= 1e-12

    perfect = metrics_from_confusion(np.diag([7, 3, 4]))
    assert (perfect.accuracy, perfect.macro_precision, perfect.macro_recall,
            perfect.macro_f1) == (1.0, 1.0, 1.0, 1.0)
    print("\nACCEPTANCE 8 metrics oracle: PASS (hand-computed confusion "
          "examples exact, perfect predictions give 1.0)")


def test_c09_ablation_harness():
    start = time.time()
    ds = stratified_split(
        synth_generate(8, 3, length=64, noise_std=0.05, seed=9),
        (0.5, 0.25, 0.25), seed=9,
    )
    base = tiny_config()
    hyper = Hyperparams(epochs=1, batch_size=8, lr_drop_epoch=1, seed=9)

    t1 = run_ablation(base, "satse_count", [0, 1, 2, 3, 4], ds, hyper)
    assert [r.value for r in t1.rows] == [0, 1, 2, 3, 4]
    t2 = run_ablation(base, "fixed_phi", [0.1, 0.2, 0.3, 0.4], ds, hyper)
    assert [r.value for r in t2.rows] == [0.1, 0.2, 0.3, 0.4]
    t3 = run_ablation(base, "depth", ["resnet18", "resnet34", "resnet50"],
                      ds, hyper)
    assert [r.value for r in t3.rows] == ["resnet18", "resnet34", "resnet50"]
    for table in (t1, t2, t3):
        for row in table.rows:
            for metric in ("accuracy", "macro_precision", "macro_recall",
                           "macro_f1"):
                mean, std = row.stats[metric]
                assert 0.0 <= mean <= 1.0 and std >= 0.0
        assert table.to_text().count("\n") == len(table.rows) + 2

    # the zero-block row equals a plain backbone at init, bit for bit
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 12, 64))
    zero_blocks = build_model(base.with_satse_count(0), seed=9)
    plain = build_model(tiny_config(satse_blocks=0), seed=9)
    assert np.array_equal(zero_blocks.forward(x, "eval").data,
                          plain.forward(x, "eval").data)
    elapsed = time.time() - start
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 9 ablation harness: PASS (3 axes complete, "
          f"zero-block row matches plain backbone bitwise, {elapsed:.0f}s)")


def test_c10_persistence(tmp_path):
    rng = np.random.default_rng(10)

    model = build_model(tiny_config(), seed=10)
    model.forward(rng.normal(size=(4, 12, 64)), "train")
    mpath = tmp_path / "model.scdn"
    save_model(model, mpath)
    save_model(model, tmp_path / "model2.scdn")
    assert mpath.read_bytes() == (tmp_path / "model2.scdn").read_bytes()
    loaded = load_model(mpath)
    x = rng.normal(size=(2, 12, 64))
    assert np.array_equal(loaded.forward(x, "eval").data,
                          model.forward(x, "eval").data)

    ds = stratified_split(synth_generate(6, 3, length=48, seed=10),
                          (0.5, 0.25, 0.25), seed=10)
    dpath = tmp_path / "data.ecgb"
    write_ecgb(ds, dpath)
    back = read_ecgb(dpath)
    for a, b in zip(ds.records, back.records):
        assert np.array_equal(a.leads, b.leads)
    assert back.splits == ds.splits

    raw = mpath.read_bytes()
    failures = []
    for cut in (2, 8, 40, len(raw) - 3):
        (tmp_path / "cut.scdn").write_bytes(raw[:cut])
        try:
            load_model(tmp_path / "cut.scdn")
            failures.append(cut)
        except ModelIOError:
            pass
    assert not failures

    draw = dpath.read_bytes()
    (tmp_path / "cut.ecgb").write_bytes(draw[: len(draw) - 7])
    with pytest.raises(Exception, match="ECGB"):
        read_ecgb(tmp_path / "cut.ecgb")
    (tmp_path / "badmagic.ecgb").write_bytes(b"XXXX" + draw[4:])
    with pytest.raises(Exception, match="magic"):
        read_ecgb(tmp_path / "badmagic.ecgb")
    print("\nACCEPTANCE 10 persistence: PASS (model and dataset round trips "
          "bitwise, corrupted files rejected)")
