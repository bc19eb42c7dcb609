import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scdnn import training
from scdnn.cli import (
    _HYPER_FLAGS,
    _MODEL_FLAGS,
    _randomize_for_gradcheck,
    main,
    write_manifest,
)
from scdnn.data import EcgDataset, read_ecgb, write_ecgb
from scdnn.model import (
    ModelConfig,
    build_model,
    load_model,
    save_model,
    tiny_config,
)
from scdnn.training import Hyperparams


@pytest.fixture(scope="module")
def micro_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "micro.ecgb"
    rc = main([
        "synth", "--classes", "3", "--n", "12", "--length", "64",
        "--noise", "0.05", "--seed", "7", "--fractions", "0.5,0.25,0.25",
        "--out", str(path),
    ])
    assert rc == 0
    return str(path)


@pytest.fixture(scope="module")
def micro_model(micro_dataset, tmp_path_factory):
    run = tmp_path_factory.mktemp("run")
    rc = main(["train", "--data", micro_dataset, "--out-dir", str(run),
               "--epochs", "1", "--batch", "8", "--stage-widths", "4,8"])
    assert rc == 0
    return str(run / "model.scdn")


class TestSynth:
    def test_record_count(self, tmp_path, capsys):
        out = tmp_path / "d.ecgb"
        assert main(["synth", "--classes", "3", "--n", "20", "--length", "64",
                     "--out", str(out)]) == 0
        assert "wrote 60 records" in capsys.readouterr().out
        assert len(read_ecgb(out).records) == 60

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.ecgb", tmp_path / "b.ecgb"
        args = ["synth", "--classes", "2", "--n", "8", "--length", "32",
                "--seed", "3"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_single_class_is_argument_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--classes", "1", "--n", "5",
                  "--out", str(tmp_path / "x.ecgb")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag, value", [
        ("--fractions", "0.5,x"), ("--n", "4,x"), ("--n", ""),
        ("--classes", "x"), ("--classes", "1"), ("--n", "0"), ("--n", "3,0"),
        ("--n", "-2"), ("--leads", "0"), ("--leads", "x"), ("--length", "0"),
        ("--length", "3"), ("--length", "x"), ("--noise", "-1"),
        ("--noise", "nan"), ("--noise", "inf"), ("--noise", "x"),
        ("--n", "4,5"),  # not one count per class
        ("--leads", "65536"), ("--classes", "65536"),  # past the ECGB u16
    ])
    def test_malformed_flag_is_argument_error_naming_it(self, tmp_path,
                                                        capsys, flag, value):
        args = {"--classes": "3", "--n": "4", "--fractions": "0.5,0.25,0.25"}
        args[flag] = value
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", str(tmp_path / "x.ecgb"),
                  *(s for kv in args.items() for s in kv)])
        assert exc.value.code == 2
        assert f"argument {flag}: {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "x.ecgb").exists()

    @pytest.mark.parametrize("value, message", [
        ("-1,1,1", "the train fraction must be finite and at least 0, got -1.0"),
        ("nan,0.5,0.5", "the train fraction must be finite and at least 0, "
                        "got nan"),
        ("0.5,0.5", "fractions must be (train, val, test)"),
    ])
    def test_bad_fractions_are_a_usage_error_writing_no_file(self, tmp_path,
                                                             capsys, value,
                                                             message):
        out = tmp_path / "x.ecgb"
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--classes", "2", "--n", "6", "--length", "16",
                  f"--fractions={value}", "--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"scdnn synth: error: argument --fractions: {value!r}: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("n, counts", [("5", [5, 5, 5]),
                                           ("3,4,5", [3, 4, 5])])
    def test_records_per_class(self, tmp_path, n, counts):
        out = tmp_path / "d.ecgb"
        assert main(["synth", "--classes", "3", "--n", n, "--length", "32",
                     "--fractions", "1,0,0", "--out", str(out)]) == 0
        labels = [rec.label for rec in read_ecgb(out).records]
        assert [labels.count(c) for c in range(3)] == counts


class TestTrain:
    def test_artifacts_and_manifest(self, micro_dataset, tmp_path, capsys):
        out_dir = tmp_path / "run"
        rc = main([
            "train", "--data", micro_dataset, "--out-dir", str(out_dir),
            "--epochs", "2", "--batch", "8", "--stage-widths", "4,8",
            "--seed", "5",
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "effective hyperparameters" in stdout
        for name in ("model.scdn", "trace.csv", "run.manifest",
                     "metrics_val.txt", "metrics_val.json"):
            assert (out_dir / name).exists()
        manifest = json.loads((out_dir / "run.manifest").read_text())
        assert manifest["hyper.epochs"] == "2"
        assert "dataset_sha256" in manifest and "split_sha256" in manifest
        assert "finished_unix" in manifest
        trace = (out_dir / "trace.csv").read_text().splitlines()
        assert len(trace) == 3  # header + 2 epochs

    def test_default_hyper_echo_shows_reference_values(self, micro_dataset,
                                                       tmp_path, capsys):
        out_dir = tmp_path / "run_default"
        rc = main([
            "train", "--data", micro_dataset, "--out-dir", str(out_dir),
            "--stage-widths", "2,4", "--seed", "1",
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        echoed = {}
        for line in stdout.splitlines():
            line = line.strip()
            if "=" in line and not line.startswith("config"):
                k, v = line.split("=", 1)
                echoed[k] = v
        assert echoed["epochs"] == "50"
        assert echoed["batch_size"] == "32"
        assert float(echoed["lr"]) == 1e-4
        assert float(echoed["weight_decay"]) == 2e-5
        assert echoed["lr_drop_epoch"] == "20"
        trace = (out_dir / "trace.csv").read_text().splitlines()
        assert len(trace) == 51
        row0 = trace[1].split(",")
        assert float(row0[2]) == 1e-4          # lr
        assert all(float(v) == 0.4 for v in row0[3:7])    # phi
        assert all(float(v) == 0.5 for v in row0[7:11])   # gamma
        assert all(float(v) == 0.0 for v in row0[11:19])  # lambdas
        # ten-fold drop visible at epoch 20
        assert float(trace[21].split(",")[2]) == 1e-5

    def test_rerun_reproduces_artifacts_bitwise(self, micro_dataset, tmp_path):
        for precision in ("real64", "real32"):
            args = lambda d: [
                "train", "--data", micro_dataset, "--out-dir", d,
                "--epochs", "2", "--batch", "8", "--stage-widths", "4,8",
                "--seed", "9", "--precision", precision,
            ]
            d1, d2 = tmp_path / f"{precision}-1", tmp_path / f"{precision}-2"
            assert main(args(str(d1))) == 0
            assert main(args(str(d2))) == 0
            for name in ("model.scdn", "trace.csv", "metrics_val.json",
                         "metrics_val.txt"):
                assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_run_shorter_than_drop_epoch_keeps_the_base_rate(self, micro_dataset,
                                                             tmp_path, capsys):
        d = tmp_path / "short"
        assert main(["train", "--data", micro_dataset, "--out-dir", str(d),
                     "--epochs", "2", "--batch", "8", "--stage-widths", "4,8",
                     "--lr", "0.002"]) == 0
        assert "  lr_drop_epoch=20\n" in capsys.readouterr().out
        manifest = json.loads((d / "run.manifest").read_text())
        assert manifest["hyper.lr_drop_epoch"] == "20"
        rows = (d / "trace.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[2]) for row in rows] == [0.002, 0.002]

    def test_fixed_phi_constant_in_trace(self, micro_dataset, tmp_path):
        out_dir = tmp_path / "fixed"
        rc = main([
            "train", "--data", micro_dataset, "--out-dir", str(out_dir),
            "--epochs", "3", "--batch", "8", "--stage-widths", "4,8",
            "--fixed-phi", "0.2", "--lr", "0.003", "--seed", "2",
        ])
        assert rc == 0
        for line in (out_dir / "trace.csv").read_text().splitlines()[1:]:
            assert [float(v) for v in line.split(",")[3:7]] == [0.2] * 4

    def test_satse_block_count_changes_parameter_count(self, micro_dataset,
                                                       tmp_path):
        counts = {}
        for n in (0, 2):
            d = tmp_path / f"sb{n}"
            main(["train", "--data", micro_dataset, "--out-dir", str(d),
                  "--epochs", "1", "--batch", "8", "--stage-widths", "4,8",
                  "--satse-blocks", str(n), "--seed", "1"])
            manifest = json.loads((d / "run.manifest").read_text())
            counts[n] = int(manifest["parameter_count"])
        assert counts[2] > counts[0]

    def test_config_file_overridden_by_flags(self, micro_dataset, tmp_path):
        cfg = tmp_path / "model.cfg"
        cfg.write_text("n_classes=3\nphi_init=0.25\nstage_widths=4,8\n"
                       "input_length=64\n")
        d = tmp_path / "cfgrun"
        rc = main(["train", "--data", micro_dataset, "--out-dir", str(d),
                   "--epochs", "1", "--batch", "8", "--config", str(cfg),
                   "--phi-init", "0.3", "--seed", "1"])
        assert rc == 0
        manifest = json.loads((d / "run.manifest").read_text())
        assert manifest["config.phi_init"] == "0.3"
        model = load_model(d / "model.scdn")
        assert model.config.phi_init == 0.3

    def test_config_file_with_a_retired_key_is_refused_naming_it(
            self, micro_dataset, tmp_path, capsys):
        # the per-stage switches that the block count replaced
        cfg = tmp_path / "model.cfg"
        cfg.write_text("n_classes=3\nsatse_blocks_enabled=1,1,1,1\n")
        d = tmp_path / "cfgrun"
        assert main(["train", "--data", micro_dataset, "--out-dir", str(d),
                     "--epochs", "1", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "error: unknown config keys: ['satse_blocks_enabled']\n")
        assert not d.exists()

    def test_config_file_of_class_count_and_widths_trains(self, micro_dataset,
                                                          tmp_path):
        # the widths alone give the stage count
        cfg = tmp_path / "model.cfg"
        cfg.write_text("n_classes=3\nstage_widths=4,8\n")
        d = tmp_path / "cfgrun"
        assert main(["train", "--data", micro_dataset, "--out-dir", str(d),
                     "--epochs", "1", "--batch", "8", "--config", str(cfg)]) == 0
        assert load_model(d / "model.scdn").config.stage_widths == (4, 8)

    def test_input_length_comes_from_the_dataset(self, micro_dataset,
                                                 tmp_path):
        cfg = tmp_path / "model.cfg"
        cfg.write_text("n_classes=3\nstage_widths=4,8\ninput_length=100\n")
        d = tmp_path / "cfgrun"
        assert main(["train", "--data", micro_dataset, "--out-dir", str(d),
                     "--epochs", "1", "--batch", "8",
                     "--config", str(cfg)]) == 0
        manifest = json.loads((d / "run.manifest").read_text())
        assert manifest["config.input_length"] == "64"
        assert load_model(d / "model.scdn").config.input_length == 64

    def test_input_length_flag_is_not_accepted(self, micro_dataset, tmp_path,
                                               capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", micro_dataset, "--out-dir",
                  str(tmp_path / "o"), "--input-length", "64"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --input-length 64" in (
            capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_lead_count_comes_from_the_dataset(self, tmp_path, capsys):
        data = tmp_path / "six.ecgb"
        assert main(["synth", "--classes", "2", "--n", "8", "--leads", "6",
                     "--length", "64", "--out", str(data)]) == 0
        cfg = tmp_path / "model.cfg"
        cfg.write_text("n_classes=2\nn_leads=12\nstage_widths=2,4\n")
        for extra in ([], ["--config", str(cfg)]):
            run = tmp_path / f"run{len(extra)}"
            assert main(["train", "--data", str(data), "--out-dir", str(run),
                         "--epochs", "1", "--batch", "4",
                         "--stage-widths", "2,4", *extra]) == 0
            manifest = json.loads((run / "run.manifest").read_text())
            assert manifest["config.n_leads"] == "6"
            assert main(["eval", "--model", str(run / "model.scdn"),
                         "--data", str(data)]) == 0
        assert main(["ablate", "--axis", "satse-count", "--values", "1",
                     "--data", str(data), "--epochs", "1", "--batch", "4",
                     "--stage-widths", "2,4"]) == 0

    def test_every_flag_sets_its_field(self, micro_dataset, tmp_path):
        d = tmp_path / "flags"
        assert main([
            "train", "--data", micro_dataset, "--out-dir", str(d),
            "--epochs", "2", "--batch", "6", "--lr", "0.002", "--wd", "0.001",
            "--lr-drop-epoch", "1", "--lr-drop-factor", "5", "--seed", "4",
            "--backbone", "resnet34", "--satse-blocks", "2",
            "--fixed-phi", "0.3", "--phi-init", "0.35", "--gamma-init", "0.7",
            "--mask-mode", "literal", "--double-softmax", "--no-stem-maxpool",
            "--stage-widths", "2,4", "--precision", "real32",
        ]) == 0
        manifest = json.loads((d / "run.manifest").read_text())
        assert {k: v for k, v in manifest.items()
                if k.startswith(("hyper.", "config."))} == {
            "hyper.epochs": "2", "hyper.batch_size": "6", "hyper.lr": "0.002",
            "hyper.weight_decay": "0.001", "hyper.lr_drop_epoch": "1",
            "hyper.lr_drop_factor": "5.0", "hyper.seed": "4",
            "config.n_classes": "3", "config.n_leads": "12",
            "config.backbone": "resnet34",
            "config.satse_blocks": "2",
            "config.fixed_phi": "0.3", "config.mask_index_mode": "literal",
            "config.double_softmax": "True", "config.stem_maxpool": "False",
            "config.precision": "real32", "config.input_length": "64",
            "config.stage_widths": "2,4",
            "config.phi_init": "0.35", "config.gamma_init": "0.7",
        }


class TestEval:
    def test_eval_twice_identical(self, micro_dataset, tmp_path, capsys):
        run = tmp_path / "run"
        main(["train", "--data", micro_dataset, "--out-dir", str(run),
              "--epochs", "1", "--batch", "8", "--stage-widths", "4,8",
              "--seed", "3"])
        capsys.readouterr()
        assert main(["eval", "--model", str(run / "model.scdn"),
                     "--data", micro_dataset, "--split", "val"]) == 0
        first = capsys.readouterr().out
        assert main(["eval", "--model", str(run / "model.scdn"),
                     "--data", micro_dataset, "--split", "val"]) == 0
        assert capsys.readouterr().out == first
        assert "macro f1" in first and "confusion" in first
        assert "accuracy" in first and "macro precision" in first
        assert "macro recall" in first

    def test_eval_writes_files(self, micro_dataset, tmp_path, capsys):
        run = tmp_path / "run"
        main(["train", "--data", micro_dataset, "--out-dir", str(run),
              "--epochs", "1", "--batch", "8", "--stage-widths", "4,8",
              "--seed", "3"])
        out = tmp_path / "metrics.txt"
        assert main(["eval", "--model", str(run / "model.scdn"),
                     "--data", micro_dataset, "--split", "val",
                     "--out", str(out)]) == 0
        assert out.exists()
        assert "macro_f1" in json.loads((tmp_path / "metrics.txt.json").read_text())

    def test_out_ending_in_json_keeps_both_reports(self, micro_dataset,
                                                   tmp_path, capsys):
        run = tmp_path / "run"
        main(["train", "--data", micro_dataset, "--out-dir", str(run),
              "--epochs", "1", "--batch", "8", "--stage-widths", "4,8",
              "--seed", "3"])
        capsys.readouterr()
        out = tmp_path / "report.json"
        assert main(["eval", "--model", str(run / "model.scdn"),
                     "--data", micro_dataset, "--out", str(out)]) == 0
        text = out.read_text()
        assert text + "\n" == capsys.readouterr().out
        assert "macro f1" in text and "macro_f1" not in text
        doc = json.loads((tmp_path / "report.json.json").read_text())
        assert "accuracy" in doc and "macro f1" not in str(doc)


class TestGradcheck:
    def test_default_tiny_passes(self, capsys):
        rc = main(["gradcheck", "--widths", "2,4", "--length", "32",
                   "--classes", "2", "--seed", "1"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_impossible_tolerance_fails_with_report(self, capsys):
        rc = main(["gradcheck", "--widths", "2", "--length", "16",
                   "--classes", "2", "--tolerance", "1e-12", "--seed", "1"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "max rel error" in out

    def test_param_filter(self, capsys):
        rc = main(["gradcheck", "--widths", "2,4", "--length", "32",
                   "--classes", "2", "--param", "phi", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "satse1.phi" in out
        assert "head.fc" not in out

    def test_phi_at_length_8_passes(self, capsys):
        # satse1.phi's gradient here is about 5e-9, below the scale at which
        # the loss's rounding noise lets a central difference resolve 1e-4
        rc = main(["gradcheck", "--length", "8", "--batch", "2", "--classes",
                   "2", "--widths", "2,4", "--param", "phi"])
        assert rc == 0, capsys.readouterr().out

    @pytest.mark.parametrize("backbone", ["resnet18", "resnet50"])
    def test_every_batch_norm_moves_off_its_init(self, backbone):
        model = build_model(tiny_config(widths=(2, 4), backbone=backbone))
        _randomize_for_gradcheck(model, 0)
        params = model.named_parameters()
        names = [n for n in params if n.endswith((".scale", ".shift"))]
        assert "stage2.block1.proj_bn.scale" in names
        for name in names:
            init = 1.0 if name.endswith(".scale") else 0.0
            assert np.all(params[name].data != init), name

    def test_unknown_param_filter_errors(self, capsys):
        rc = main(["gradcheck", "--param", "nonexistent"])
        assert rc == 1

    def test_refusal_is_one_error_line_on_stderr(self, capsys):
        assert main(["gradcheck", "--param", "nonexistent"]) == 1
        assert capsys.readouterr() == (
            "", "error: no parameter name contains 'nonexistent'\n")

    @pytest.mark.parametrize("flag, value", [
        ("--batch", "1"), ("--batch", "0"), ("--classes", "1"),
        ("--length", "7"), ("--length", "x"), ("--tolerance", "nan"),
        ("--tolerance", "-1"), ("--epsilon", "1e-3"), ("--epsilon", "inf"),
        ("--widths", "0,4"), ("--widths", "4,4,4,4,4"), ("--mask-mode", "x"),
    ])
    def test_malformed_flag_is_argument_error_before_any_work(self, capsys,
                                                             flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", flag, value])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"argument {flag}: {value!r}" in err

    def test_component_limit_counts_the_selected_parameters(self, capsys):
        # the whole 32,64 model has 63435 components, its two phi scalars 2
        assert main(["gradcheck", "--widths", "32,64", "--param", "phi"]) == 0
        out = capsys.readouterr().out
        assert "(2 components)" in out and "PASS" in out
        assert main(["gradcheck", "--widths", "32,64"]) == 1
        assert capsys.readouterr().err == (
            "error: configuration has 63435 parameter components; gradient "
            "checking is limited to 50000 to bound runtime\n")


class TestAblate:
    def test_fixed_phi_axis_four_rows(self, micro_dataset, tmp_path, capsys):
        out = tmp_path / "table.txt"
        rc = main(["ablate", "--axis", "fixed-phi",
                   "--values", "0.1,0.2,0.3,0.4",
                   "--data", micro_dataset, "--epochs", "1", "--batch", "8",
                   "--stage-widths", "4,8", "--seed", "0", "--out", str(out)])
        assert rc == 0
        table = out.read_text().splitlines()
        assert len(table) == 6  # axis line + header + 4 rows
        assert "0.1" in table[2] and "0.4" in table[5]

    def test_satse_count_axis_five_rows(self, micro_dataset, capsys):
        rc = main(["ablate", "--axis", "satse-count", "--values", "0,1,2,3,4",
                   "--data", micro_dataset, "--epochs", "1", "--batch", "8",
                   "--stage-widths", "4,8", "--seed", "0"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        data_rows = [l for l in lines if l.strip() and l.strip()[0].isdigit()]
        assert len(data_rows) == 5

    def test_fixed_phi_axis_takes_none_for_a_trained_phi(self, micro_dataset,
                                                         capsys):
        rc = main(["ablate", "--axis", "fixed-phi", "--values", "None,0.3",
                   "--data", micro_dataset, "--epochs", "1", "--batch", "8",
                   "--stage-widths", "4,8", "--seed", "0"])
        assert rc == 0
        rows = capsys.readouterr().out.splitlines()[2:4]
        assert [row.split()[0] for row in rows] == ["None", "0.3"]

    @pytest.mark.parametrize("axis, values", [
        ("satse-count", "x"), ("satse-count", "0,1.5"), ("fixed-phi", "0.2,y"),
        ("fixed-phi", "1.5"), ("satse-count", "5"), ("depth", "resnet99"),
    ])
    def test_values_of_another_type_are_a_usage_error_before_reading_data(
            self, tmp_path, capsys, axis, values):
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--axis", axis, "--values", values,
                  "--data", str(tmp_path / "none.ecgb")])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"argument --values: {values!r}" in err

    def test_depth_axis_three_rows(self, micro_dataset, capsys):
        rc = main(["ablate", "--axis", "depth",
                   "--values", "resnet18,resnet34,resnet50",
                   "--data", micro_dataset, "--epochs", "1", "--batch", "8",
                   "--stage-widths", "4,4", "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("resnet18", "resnet34", "resnet50"):
            assert name in out


def _run_argv(argv):
    """main(argv) as (exit status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _flag_values(data, flags):
    """Draw each flag's value, valid or bad; returns argv and the bad flags."""
    bad = data.draw(st.sets(st.sampled_from(sorted(flags)), max_size=2),
                    label="bad flags")
    argv = []
    for flag, (valid, invalid) in flags.items():
        value = data.draw(st.sampled_from(invalid) if flag in bad
                          else valid.map(str), label=flag)
        argv.append(f"{flag}={value}")
    return argv, bad


def _check_outcome(rc, err, bad, expect_error):
    """Exit 2 with a usage line naming a bad flag, exit 1 with one error
    line, or success."""
    if bad:
        assert rc == 2 and err.startswith("usage: scdnn ")
        named = err.splitlines()[-1].split("argument ", 1)[1].split(":")[0]
        assert named in bad, err
    elif expect_error:
        assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1
    else:
        assert (rc, err) == (0, "")


_COUNT_BAD = ["", "x", "nan", "1.5", "-1", "0"]
_SEED_BAD = ["", "x", "1.5", "-1"]


# Each train flag that takes its field's text, and the field it sets;
# the switches take no text.
_TRAIN_FIELD_FLAGS = {
    **{flag: (Hyperparams, name) for flag, name in _HYPER_FLAGS.items()},
    **{flag: (ModelConfig, name) for flag, name in _MODEL_FLAGS.items()},
}

# Values with no surrounding space or line break: a config file strips
# those as part of its line syntax, while a flag takes its text as given.
_FIELD_TEXT = (
    st.sampled_from(["", "x", "None", "nan", "inf", "-inf", "0", "1", "2",
                     "-1", "1.5", "0.3", "1e-3", "True", "4,8", "0,4", "4,,8",
                     "4,8,16,32,64", "resnet34", "literal", "real32"])
    | st.integers(-3, 64).map(str) | st.floats().map(repr)
    | st.text(st.characters(blacklist_categories=("Z", "C")), max_size=6)
)


class TestArgvProperty:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_synth_argv(self, tmp_path_factory, data):
        argv, bad = _flag_values(data, {
            "--classes": (st.integers(2, 4), _COUNT_BAD + ["1"]),
            "--n": (st.integers(3, 5), _COUNT_BAD + ["3,3,3,3,3"]),
            "--leads": (st.integers(1, 3), _COUNT_BAD),
            "--length": (st.integers(8, 40), _COUNT_BAD + ["7"]),
            "--noise": (st.floats(0.0, 1.0),
                        ["", "x", "nan", "inf", "-inf", "-0.1"]),
            "--seed": (st.integers(0, 5), _SEED_BAD),
            "--fractions": (st.sampled_from(["0.5,0.25,0.25", "1,0,0"]),
                            ["", "x", "0.5,0.5", "-1,1,1", "nan,0.5,0.5",
                             "0.5,inf,0.5", "0.5,0.2,0.2"]),
        })
        unwritable = data.draw(st.booleans(), label="unwritable --out")
        out = tmp_path_factory.mktemp("synth") / ("no/x.ecgb" if unwritable
                                                  else "x.ecgb")
        rc, _, err = _run_argv(["synth", *argv, f"--out={out}"])
        _check_outcome(rc, err, bad, unwritable)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_gradcheck_argv(self, data):
        argv, bad = _flag_values(data, {
            "--length": (st.integers(8, 64), _COUNT_BAD + ["7"]),
            "--batch": (st.integers(2, 4), _COUNT_BAD + ["1"]),
            "--classes": (st.integers(2, 4), _COUNT_BAD + ["1"]),
            "--widths": (st.sampled_from(["2,4", "4"]),
                         ["", "x", "2,x", "0,4", "4,4,4,4,4"]),
            "--seed": (st.integers(0, 5), _SEED_BAD),
        })
        unknown = data.draw(st.booleans(), label="unknown --param")
        param = "nonexistent" if unknown else "phi"
        rc, _, err = _run_argv(["gradcheck", *argv, f"--param={param}"])
        _check_outcome(rc, err, bad, unknown)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_eval_argv(self, micro_model, micro_dataset, tmp_path_factory,
                       data):
        argv, bad = _flag_values(data, {
            "--split": (st.sampled_from(["train", "val", "test"]),
                        ["", "x", "Test"]),
        })
        paths = {"--model": micro_model, "--data": micro_dataset,
                 "--out": tmp_path_factory.mktemp("eval") / "report.txt"}
        missing = data.draw(st.sampled_from([None, *sorted(paths)]),
                            label="missing path")
        if missing:
            paths[missing] = tmp_path_factory.mktemp("eval") / "no" / "x"
        rc, _, err = _run_argv(["eval", *argv,
                                *(f"{k}={v}" for k, v in paths.items())])
        _check_outcome(rc, err, bad, missing is not None)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_train_argv(self, micro_dataset, tmp_path_factory, data):
        argv, bad = _flag_values(data, {
            "--epochs": (st.just(1), ["", "x", "1.5", "0", "-1"]),
            "--batch": (st.integers(4, 8), ["", "x", "1.5", "1"]),
            "--lr": (st.sampled_from([1e-3, 1e-2]), ["", "x", "nan", "inf", "0"]),
            "--wd": (st.sampled_from([0.0, 1e-4]), ["", "x", "-1", "nan"]),
            "--lr-drop-epoch": (st.integers(0, 2), ["", "x", "1.5", "-1"]),
            "--lr-drop-factor": (st.sampled_from([2.0, 10.0]),
                                 ["", "x", "0", "inf", "nan"]),
            "--seed": (st.integers(0, 3), _SEED_BAD),
            "--backbone": (st.sampled_from(["resnet18", "resnet34"]),
                           ["", "x", "ResNet18"]),
            "--satse-blocks": (st.integers(0, 4), ["", "x", "5", "-1"]),
            "--stage-widths": (st.sampled_from(["4,8", "4"]),
                               ["", "x", "4,x", "0,4", "4,4,4,4,4"]),
            "--phi-init": (st.sampled_from([0.2, 0.5]),
                           ["", "x", "0", "1", "nan"]),
            "--gamma-init": (st.sampled_from([0.5, 2.0]),
                             ["", "x", "0", "nan", "inf"]),
            "--fixed-phi": (st.sampled_from([None, 0.3]), ["", "x", "1.5"]),
            "--mask-mode": (st.sampled_from(["literal", "symmetric"]),
                            ["", "x"]),
            "--precision": (st.sampled_from(["real32", "real64"]), ["", "x"]),
        })
        missing = data.draw(st.booleans(), label="missing --data")
        root = tmp_path_factory.mktemp("train")
        path = root / "none.ecgb" if missing else micro_dataset
        out = root / "run"
        rc, _, err = _run_argv(["train", *argv, f"--data={path}",
                                f"--out-dir={out}"])
        _check_outcome(rc, err, bad, missing)
        assert out.exists() == (rc == 0)  # no run directory from a refusal

    @settings(max_examples=150, deadline=None)
    @given(flag=st.sampled_from(sorted(_TRAIN_FIELD_FLAGS)), text=_FIELD_TEXT)
    def test_train_field_flag_refused_exactly_as_its_config_key(
            self, tmp_path_factory, flag, text):
        cls, name = _TRAIN_FIELD_FLAGS[flag]
        refusal = _key_refusal(cls, name, text)
        out = tmp_path_factory.mktemp("train") / "run"
        missing = out.parent / "none.ecgb"
        rc, _, err = _run_argv(["train", f"{flag}={text}", f"--data={missing}",
                                f"--out-dir={out}"])
        if refusal is None:  # the flag passes; the missing dataset stops it
            assert rc == 1 and err.startswith("error: "), err
        else:
            assert rc == 2 and err.splitlines()[-1] == (
                f"scdnn train: error: argument {flag}: {text!r}: {refusal}")
        assert not out.exists()

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_ablate_argv(self, micro_dataset, tmp_path_factory, data):
        axis = data.draw(st.sampled_from(sorted(_ABLATION_VALUES)), label="axis")
        argv, bad = _flag_values(data, {
            "--axis": (st.just(axis), ["", "x", "satse_count"]),
            "--values": _ABLATION_VALUES[axis],
            "--repeats": (st.just(1), _COUNT_BAD),
            "--epochs": (st.just(1), ["", "x", "1.5", "0"]),
            "--batch": (st.integers(4, 8), ["", "x", "1.5", "1"]),
            "--stage-widths": (st.sampled_from(["4,8", "4"]),
                               ["", "x", "4,x", "0,4"]),
            "--seed": (st.integers(0, 3), _SEED_BAD),
        })
        missing = data.draw(st.booleans(), label="missing --data")
        path = (tmp_path_factory.mktemp("ablate") / "none.ecgb" if missing
                else micro_dataset)
        rc, _, err = _run_argv(["ablate", *argv, f"--data={path}"])
        _check_outcome(rc, err, bad, missing)


def _key_refusal(cls, name, text):
    """The message refusing `text` as field `name` of `cls`, read as a config
    file reads it, or None if it is accepted. Hyperparams has no file, so its
    constructor is given the text, which it reads by the same rule."""
    try:
        if cls is ModelConfig:
            ModelConfig.from_text(f"n_classes=3\n{name}={text}\n")
        else:
            cls(**{name: text})
    except ValueError as exc:
        return str(exc)
    return None


_ABLATION_VALUES = {
    "satse-count": (st.sampled_from(["0", "1", "1,0"]),
                    ["", "x", "1.5", "0,x", "0,", "5", "-1", "0,5"]),
    "fixed-phi": (st.sampled_from(["0.2", "0.3,0.2", "None,0.2"]),
                  ["", "x", "0.2,y", "1.5", "0", "1", "nan", "0.2,-1"]),
}


class TestWholeFileWrites:
    def test_every_command_runs_with_encoding_warnings_as_errors(self,
                                                                 tmp_path):
        # each text file must be written as UTF-8 by name, not in the
        # locale's encoding
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(training.__file__)))
        data, run = tmp_path / "micro.ecgb", tmp_path / "run"
        report, table = tmp_path / "report.txt", tmp_path / "table.txt"
        small = ["--epochs", "1", "--stage-widths", "4,8"]
        for argv in (
            ["synth", "--classes", "3", "--n", "12", "--length", "64",
             "--out", str(data)],
            ["train", "--data", str(data), "--out-dir", str(run), *small],
            ["eval", "--model", str(run / "model.scdn"), "--data", str(data),
             "--out", str(report)],
            ["ablate", "--axis", "satse-count", "--values", "0,1", "--data",
             str(data), "--out", str(table), *small],
        ):
            done = subprocess.run(
                [sys.executable, "-X", "warn_default_encoding", "-W",
                 "error::EncodingWarning", "-m", "scdnn.cli", *argv],
                env=env, capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
        for name in ("model.scdn", "trace.csv", "run.manifest",
                     "metrics_val.txt", "metrics_val.json"):
            assert (run / name).stat().st_size > 0, name
        assert "finished_unix" in json.loads((run / "run.manifest").read_text())
        for path in (data, report, tmp_path / "report.txt.json", table):
            assert path.stat().st_size > 0, path
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("write", [
        lambda path, seed: write_ecgb(
            EcgDataset([], [f"class{seed}", "b"], 1), path),
        lambda path, seed: save_model(
            build_model(tiny_config(n_classes=2 + seed), seed=seed), path),
        lambda path, seed: write_manifest(path, {"seed": seed}),
    ], ids=["ecgb", "model", "manifest"])
    def test_failed_rename_keeps_the_old_file_and_no_temporary(
            self, tmp_path, monkeypatch, write):
        path = tmp_path / "artifact"
        write(path, 0)
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("no room")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="no room"):
            write(path, 1)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["artifact"]


class TestManifest:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "m.manifest"
        entries = {"a": "1", "b": "x=y", "seed": "42", " c ": "  spaced \r",
                   "empty": "", "text": "\u00e9\u2028x",
                   "dataset": "/tmp/a\nseed=9", "b\nc": "2", "": "1",
                   "a=b": "1"}
        write_manifest(path, entries)
        assert json.loads(path.read_text()) == entries

    def test_length_prefix_validated(self, tmp_path):
        # a manifest cut short has lost its closing brace
        path = tmp_path / "m.manifest"
        write_manifest(path, {"a": "1"})
        raw = path.read_bytes()
        for cut in range(len(raw)):
            with pytest.raises(json.JSONDecodeError):
                json.loads(raw[:cut])

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        path = tmp_path / "m.manifest"
        write_manifest(path, {"a": "1"})
        assert not os.path.exists(str(path) + ".tmp")


class TestErrors:
    def test_missing_dataset_reports_error(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "none.ecgb"),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_eval_class_count_mismatch_reports_error(self, micro_dataset,
                                                     tmp_path, capsys):
        two = tmp_path / "two.ecgb"
        assert main(["synth", "--classes", "2", "--n", "4", "--length", "64",
                     "--out", str(two)]) == 0
        run = tmp_path / "run"
        assert main(["train", "--data", micro_dataset, "--out-dir", str(run),
                     "--epochs", "1", "--batch", "8", "--stage-widths", "4,8",
                     "--seed", "3"]) == 0
        capsys.readouterr()
        rc = main(["eval", "--model", str(run / "model.scdn"),
                   "--data", str(two)])
        assert rc == 1
        assert "dataset has 2 classes, model expects 3" in capsys.readouterr().err

    def test_dataset_without_records_names_the_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.ecgb"
        write_ecgb(EcgDataset([], ["a", "b"], 12), empty)
        model = tmp_path / "model.scdn"
        save_model(build_model(tiny_config(n_classes=2, input_length=64,
                                           widths=(4, 8))), model)
        for args in (["train", "--out-dir", str(tmp_path / "o")],
                     ["eval", "--model", str(model)]):
            assert main(args + ["--data", str(empty)]) == 1
            assert f"{empty} holds no records" in capsys.readouterr().err

    def test_empty_split_refused_before_any_work(self, tmp_path, capsys,
                                                 monkeypatch):
        data = tmp_path / "train_only.ecgb"
        assert main(["synth", "--classes", "2", "--n", "4", "--length", "32",
                     "--fractions", "1,0,0", "--out", str(data)]) == 0
        out_dir = tmp_path / "o"
        assert main(["train", "--data", str(data),
                     "--out-dir", str(out_dir)]) == 1
        assert "split 'val' is empty" in capsys.readouterr().err
        assert not out_dir.exists()

        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(training, "train", no_training)
        data = tmp_path / "four.ecgb"
        assert main(["synth", "--classes", "2", "--n", "4", "--length", "32",
                     "--out", str(data)]) == 0
        capsys.readouterr()
        assert main(["ablate", "--axis", "satse-count", "--values", "0",
                     "--data", str(data)]) == 1
        assert capsys.readouterr() == (
            "", "error: split 'test' is empty: it has 0 records, at least 1 "
                "needed\n")

    @pytest.mark.parametrize("flag, value, message", [
        ("--phi-init", "2", "phi_init must lie in (0, 1), got 2.0"),
        ("--fixed-phi", "0", "fixed_phi must lie in (0, 1), got 0.0"),
        ("--gamma-init", "0", "gamma_init must be at least 0.001, got 0.0"),
        ("--gamma-init", "inf", "gamma_init must be finite, got inf"),
    ])
    def test_bad_initial_value_refused_before_the_manifest(
            self, micro_dataset, tmp_path, capsys, flag, value, message):
        out_dir = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", micro_dataset, "--out-dir", str(out_dir),
                  flag, value])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument {flag}: {value!r}: {message}\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", [
        ["synth", "--classes", "2", "--out", "{tmp}/x.ecgb"],
        ["train", "--data", "{data}", "--out-dir", "{tmp}/o"],
        ["ablate", "--axis", "depth", "--values", "resnet18", "--data", "{data}"],
        ["gradcheck"],
    ])
    def test_negative_seed_is_argument_error(self, micro_dataset, tmp_path,
                                             capsys, command):
        argv = [a.format(tmp=tmp_path, data=micro_dataset) for a in command]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "-1"])
        assert exc.value.code == 2
        assert "argument --seed: '-1': seed must be non-negative, got -1" in (
            capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value, message", [
        ("--lr", "nan", "lr must be positive and finite, got nan"),
        ("--wd", "inf", "weight_decay must be non-negative and finite, got inf"),
        ("--lr-drop-factor", "0", "lr_drop_factor must be positive and finite, "
                                  "got 0.0"),
    ])
    def test_bad_hyperparameter_refused_before_the_data_is_read(
            self, tmp_path, capsys, flag, value, message):
        missing = str(tmp_path / "none.ecgb")
        for command in (["train", "--out-dir", str(tmp_path / "o")],
                        ["ablate", "--axis", "depth", "--values", "resnet18"]):
            with pytest.raises(SystemExit) as exc:
                main(command + ["--data", missing, flag, value])
            assert exc.value.code == 2
            assert capsys.readouterr().err.endswith(
                f"error: argument {flag}: {value!r}: {message}\n")
        assert list(tmp_path.iterdir()) == []

    def test_eval_at_another_length_names_both_lengths(self, micro_model,
                                                       tmp_path, capsys):
        data = tmp_path / "sixty.ecgb"
        assert main(["synth", "--classes", "3", "--n", "4", "--length", "60",
                     "--fractions", "0.5,0.25,0.25", "--out", str(data)]) == 0
        capsys.readouterr()
        assert main(["eval", "--model", micro_model, "--data", str(data)]) == 1
        assert capsys.readouterr().err == (
            "error: records have length 60, but the model's spectral blocks "
            "are built for length 64\n")

    def test_satse_block_count_out_of_range_is_argument_error(
            self, micro_dataset, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", micro_dataset, "--out-dir",
                  str(tmp_path / "o"), "--satse-blocks", "5"])
        assert exc.value.code == 2
        assert ("argument --satse-blocks: '5': satse block count must be 0..4, "
                "got 5") in capsys.readouterr().err

    def test_batch_of_one_rejected(self, micro_dataset, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", micro_dataset, "--out-dir",
                  str(tmp_path / "o"), "--epochs", "2", "--batch", "1",
                  "--stage-widths", "4,8"])
        assert exc.value.code == 2
        assert "argument --batch: '1': batch_size must be at least 2" in (
            capsys.readouterr().err)
        assert not (tmp_path / "o").exists()
