"""Command-line surface: data synthesis, training, evaluation, gradient
checking, and ablation sweeps.

All configuration arrives through flags or a key=value config file
(precedence: built-in defaults < config file < flags), except the class
count, lead count and input length, which come from the dataset; no
environment variables are consulted. Every training run writes a manifest,
`run.manifest`, sufficient to reproduce it exactly: one JSON object whose
values are strings, read back with `json.load`. It records start and finish
times; `model.scdn`, `trace.csv` and `metrics_val.{json,txt}` contain no
timestamps, so reruns with identical inputs reproduce them byte for byte.
Every file is written whole: to `<path>.tmp`, then renamed over `path`.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import fields, replace

import numpy as np

from .autodiff import _EPSILON_RANGE, Tensor, grad_check
from .data import (
    ECGB_U16_MAX,
    SPLIT_NAMES,
    EcgDataset,
    _write_whole,
    pad_to_max,
    read_ecgb,
    stratified_split,
    synth_generate,
    write_ecgb,
)
from .model import (
    MIN_INPUT_LENGTH,
    ModelConfig,
    _field_text,
    build_model,
    load_model,
    save_model,
    tiny_config,
)
from .training import (
    ABLATION_AXES,
    Hyperparams,
    _loss_of,
    _train_records,
    evaluate,
    run_ablation,
    train,
)

__all__ = ["main", "write_manifest"]

_GRADCHECK_MAX_COMPONENTS = 50_000


# -- manifest ------------------------------------------------------------------


def write_manifest(path, entries):
    """Write `entries` as one JSON object of their values' text, ending in
    its closing brace, so a truncated file fails to parse."""
    _write_whole(path, json.dumps({k: str(v) for k, v in entries.items()},
                                  indent=2))


def _sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _split_hash(dataset):
    h = hashlib.sha256()
    for rid in sorted(dataset.splits):
        h.update(f"{rid}:{dataset.splits[rid]}\n".encode("utf-8"))
    return h.hexdigest()


# -- shared argument groups ------------------------------------------------


def _checked(parse, check=lambda value: None):
    """An argparse type: `parse` the text, then `check` the value; a failure
    of either is a usage error quoting the text."""
    def convert(text):
        try:
            value = parse(text)
            check(value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None
        return value
    return convert


def _comma_list(kind, check=lambda values: None):
    """An argparse type: comma-separated text to a tuple of `kind` values,
    refused if `check` refuses it."""
    return _checked(lambda text: tuple(kind(v) for v in text.split(",")), check)


def _at_least(minimum, kind=int, maximum=np.inf):
    """An argparse type: a finite `kind` value in [`minimum`, `maximum`]."""
    def check(value):
        if not (minimum <= value <= maximum and value < np.inf):
            raise ValueError(
                f"not a finite {kind.__name__} of at least {minimum}"
                + ("" if maximum == np.inf else f" and at most {maximum}"))
    return _checked(kind, check)


def _field_type(cls, name):
    """An argparse type for field `name` of dataclass `cls`: the value the
    field takes in `cls` built from the text alone (with, for ModelConfig, the
    class count it requires), so the text is read and checked as a config
    file's is."""
    required = {"n_classes": 1} if cls is ModelConfig else {}
    return _checked(lambda text: getattr(cls(**required, **{name: text}), name))


# flag -> the field it sets, for each flag that takes its field's text
_HYPER_FLAGS = {"--epochs": "epochs", "--batch": "batch_size", "--lr": "lr",
                "--wd": "weight_decay", "--lr-drop-epoch": "lr_drop_epoch",
                "--lr-drop-factor": "lr_drop_factor", "--seed": "seed"}
_MODEL_FLAGS = {"--backbone": "backbone", "--satse-blocks": "satse_blocks",
                "--fixed-phi": "fixed_phi", "--phi-init": "phi_init",
                "--gamma-init": "gamma_init", "--mask-mode": "mask_index_mode",
                "--stage-widths": "stage_widths", "--precision": "precision"}


def _add_field_args(p):
    """The model and hyperparameter flags; each sets its field when given."""
    for cls, flags in ((Hyperparams, _HYPER_FLAGS), (ModelConfig, _MODEL_FLAGS)):
        for flag, name in flags.items():
            p.add_argument(flag, dest=name, type=_field_type(cls, name),
                           default=argparse.SUPPRESS)
    p.add_argument("--double-softmax", action="store_true",
                   default=argparse.SUPPRESS)
    p.add_argument("--no-stem-maxpool", dest="stem_maxpool",
                   action="store_false", default=argparse.SUPPRESS)
    p.add_argument("--config", help="key=value model config file")


def _flags_for(args, cls):
    """The fields of dataclass `cls` that flags set, with their values."""
    return {f.name: getattr(args, f.name) for f in fields(cls)
            if hasattr(args, f.name)}


def _config_from_args(args, dataset):
    """The config file's keys, then the flags, over defaults; the class and
    lead counts and the input length are always the dataset's."""
    counts = {"n_classes": len(dataset.class_names), "n_leads": dataset.n_leads,
              "input_length": dataset.max_length}
    config = ModelConfig(**counts)
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = replace(ModelConfig.from_text(fh.read()), **counts)
    return replace(config, **_flags_for(args, ModelConfig))


def _read_dataset(path):
    """Read an ECGB file, padding its records to the longest when lengths differ."""
    dataset = read_ecgb(path)
    if not dataset.records:
        raise ValueError(f"{path} holds no records")
    lengths = {rec.length for rec in dataset.records}
    if len(lengths) != 1:
        dataset = pad_to_max(dataset)
        print(f"padded {len(lengths)} distinct record lengths to "
              f"{dataset.max_length}")
    return dataset


# -- commands -----------------------------------------------------------------


def cmd_synth(args):
    try:  # a count list meets synth_generate's rule, on no records
        counts = _comma_list(_at_least(1), lambda n: len(n) == 1 or
                             synth_generate([0] * len(n), args.classes))(args.n)
    except argparse.ArgumentTypeError as exc:
        args.usage_error(f"argument --n: {exc}")
    counts = counts * args.classes if len(counts) == 1 else counts
    dataset = synth_generate(counts, args.classes, args.leads, args.length,
                             args.noise, args.seed)
    dataset = stratified_split(dataset, args.fractions, args.seed)
    write_ecgb(dataset, args.out)
    print(f"wrote {len(dataset.records)} records "
          f"({args.classes} classes, {args.leads} leads, length {args.length}) "
          f"to {args.out}")
    return 0


def cmd_train(args):
    hyper = Hyperparams(**_flags_for(args, Hyperparams))
    dataset = _read_dataset(args.data)
    _train_records(dataset, "val")
    config = _config_from_args(args, dataset)
    print("effective hyperparameters:")
    for k, v in vars(hyper).items():
        print(f"  {k}={v}")
    print("effective config:")
    for line in config.to_text().strip().splitlines():
        print(f"  {line}")

    os.makedirs(args.out_dir, exist_ok=True)
    model_path = os.path.join(args.out_dir, "model.scdn")
    trace_path = os.path.join(args.out_dir, "trace.csv")
    manifest_path = os.path.join(args.out_dir, "run.manifest")

    manifest = {
        "command": "train",
        "seed": hyper.seed,
        "dataset": os.path.abspath(args.data),
        "dataset_sha256": _sha256_file(args.data),
        "split_sha256": _split_hash(dataset),
        "started_unix": f"{time.time():.3f}",
        "model_path": os.path.abspath(model_path),
        "trace_path": os.path.abspath(trace_path),
    }
    for prefix, obj in (("hyper", hyper), ("config", config)):
        for k, v in vars(obj).items():
            manifest[f"{prefix}.{k}"] = _field_text(v)
    write_manifest(manifest_path, manifest)

    model = build_model(config, seed=hyper.seed)
    print(f"model parameters: {model.parameter_count()}")
    manifest["parameter_count"] = model.parameter_count()

    log = train(model, dataset, hyper)
    save_model(model, model_path)
    _write_whole(trace_path, log.to_csv())

    report = evaluate(model, dataset, "val")
    text = report.to_text(dataset.class_names)
    print(text)
    _write_whole(os.path.join(args.out_dir, "metrics_val.txt"), text)
    _write_whole(os.path.join(args.out_dir, "metrics_val.json"), report.to_json())

    manifest["finished_unix"] = f"{time.time():.3f}"
    manifest["final_train_loss"] = repr(log.rows[-1].loss)
    manifest["val_macro_f1"] = repr(report.macro_f1)
    write_manifest(manifest_path, manifest)
    print(f"artifacts in {args.out_dir}")
    return 0


def cmd_eval(args):
    model = load_model(args.model)
    dataset = _read_dataset(args.data)
    report = evaluate(model, dataset, args.split)
    text = report.to_text(dataset.class_names)
    print(text)
    if args.out:
        _write_whole(args.out, text)
        _write_whole(args.out + ".json", report.to_json())
    return 0


def _randomize_for_gradcheck(model, seed):
    """Move parameters off their symmetric init so no gradient is exactly zero.

    At the fresh init the branch gains are 0 and the spectral weights are
    exactly 1, which zeroes several true gradients; finite differences of a
    flat direction measure only rounding noise.
    """
    rng = np.random.default_rng([seed, 77])
    for sat in model.satse:
        if sat is None:
            continue
        sat.lambda_low.data[...] = rng.uniform(0.3, 0.7)
        sat.lambda_high.data[...] = rng.uniform(0.3, 0.7)
        sat.weight_re.data += rng.normal(0, 0.05, sat.weight_re.data.shape)
        sat.weight_im.data += rng.normal(0, 0.05, sat.weight_im.data.shape)
        if sat.phi.requires_grad:
            sat.phi.data[...] = rng.uniform(0.25, 0.55)
        sat.gamma.data[...] = rng.uniform(0.5, 1.5)
    for name, p in model.named_parameters().items():
        attr = name.rsplit(".", 1)[1]
        if attr == "scale":
            p.data += rng.uniform(-0.2, 0.2, p.data.shape)
        elif attr == "shift":
            p.data += rng.normal(0, 0.1, p.data.shape)


def gradcheck_loss(model, batch, labels):
    """Zero-argument loss closure over a fixed batch, for ``grad_check``.

    Runs train-mode statistics with running-average updates disabled, so
    repeated evaluations stay pure.
    """
    x = Tensor(batch)
    return lambda: _loss_of(model, x, labels, "train", False)


def cmd_gradcheck(args):
    config = tiny_config(n_classes=args.classes, input_length=args.length,
                         widths=args.widths, mask_index_mode=args.mask_mode)
    model = build_model(config, seed=args.seed)
    params = {k: v for k, v in model.trainable_parameters().items()
              if args.param in k}
    if not params:
        raise ValueError(f"no parameter name contains {args.param!r}")
    n_comp = sum(p.data.size for p in params.values())
    if n_comp > _GRADCHECK_MAX_COMPONENTS:
        raise ValueError(f"configuration has {n_comp} parameter components; "
                         f"gradient checking is limited to "
                         f"{_GRADCHECK_MAX_COMPONENTS} to bound runtime")
    _randomize_for_gradcheck(model, args.seed)
    rng = np.random.default_rng([args.seed, 3])
    batch = rng.normal(size=(args.batch, config.n_leads, args.length))
    labels = rng.integers(0, config.n_classes, size=args.batch)
    print(f"checking {len(params)} parameters "
          f"({n_comp} components) at tolerance {args.tolerance:g}")
    report = grad_check(gradcheck_loss(model, batch, labels), params,
                        epsilon=args.epsilon, tolerance=args.tolerance)
    print(f"{'parameter':<32} {'max rel error':>14}")
    for name, err in sorted(report.max_rel_error.items(), key=lambda kv: -kv[1]):
        mark = "" if err < args.tolerance else "  <-- FAIL"
        print(f"{name:<32} {err:>14.3e}{mark}")
    if report.nonfinite:
        print(f"non-finite gradients or losses for: {sorted(report.nonfinite)}")
    print("gradient check:", "PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def cmd_ablate(args):
    axis = args.axis.replace("-", "_")
    try:  # each item by its field's rule, as the field's flag reads it
        values = _comma_list(_field_type(ModelConfig, ABLATION_AXES[axis]))(
            args.values)
    except argparse.ArgumentTypeError as exc:
        args.usage_error(f"argument --values: {exc}")
    hyper = Hyperparams(**_flags_for(args, Hyperparams))
    dataset = _read_dataset(args.data)
    config = _config_from_args(args, dataset)
    table = run_ablation(config, axis, values, dataset, hyper,
                         repeats=args.repeats)
    text = table.to_text()
    print(text)
    if args.out:
        _write_whole(args.out, text)
    return 0


# -- entry point -----------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="scdnn",
        description="spectral cross-domain network: synthesize data, train, "
                    "evaluate, check gradients, run ablations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic ECGB dataset")
    p.add_argument("--n", default="200",
                   help="records per class: one count, or a comma list with "
                        "one per class")
    p.add_argument("--classes", type=_at_least(2, maximum=ECGB_U16_MAX),
                   required=True, help="number of classes, at least 2")
    p.add_argument("--leads", type=_at_least(1, maximum=ECGB_U16_MAX),
                   default=12)
    p.add_argument("--length", type=_at_least(MIN_INPUT_LENGTH), default=512)
    p.add_argument("--noise", type=_at_least(0.0, float), default=0.05)
    p.add_argument("--seed", type=_field_type(Hyperparams, "seed"), default=0)
    # checked by stratified_split's own rule, on a dataset of no records
    p.add_argument("--fractions", default="0.8,0.1,0.1",
                   type=_comma_list(float, lambda f: stratified_split(
                       EcgDataset([], [], 1), f)),
                   help="train,val,test shares")
    p.add_argument("--out", required=True)
    # --n is converted once --classes is parsed
    p.set_defaults(func=cmd_synth, usage_error=p.error)

    p = sub.add_parser("train", help="train a model on an ECGB dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", required=True)
    _add_field_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=SPLIT_NAMES, default="test")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check on a small model")
    p.add_argument("--seed", type=_field_type(Hyperparams, "seed"), default=0)
    p.add_argument("--tolerance", type=_at_least(0.0, float), default=1e-4)
    p.add_argument("--epsilon", type=_at_least(_EPSILON_RANGE[0], float,
                                               _EPSILON_RANGE[1]), default=1e-6)
    p.add_argument("--param", default="",
                   help="restrict to parameter names containing this")
    p.add_argument("--widths", type=_field_type(ModelConfig, "stage_widths"),
                   default="4,8")
    p.add_argument("--length", type=_at_least(MIN_INPUT_LENGTH), default=64)
    p.add_argument("--batch", type=_at_least(2), default=2)
    p.add_argument("--classes", type=_at_least(2), default=3)
    p.add_argument("--mask-mode", default="symmetric",
                   type=_field_type(ModelConfig, "mask_index_mode"))
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablate", help="sweep one configuration axis")
    p.add_argument("--axis", required=True,
                   choices=[axis.replace("_", "-") for axis in ABLATION_AXES])
    p.add_argument("--values", required=True,
                   help="comma-separated values of the axis's field")
    p.add_argument("--data", required=True)
    p.add_argument("--repeats", type=_at_least(1), default=1)
    p.add_argument("--out")
    _add_field_args(p)
    # --values is converted by --axis's field once both are parsed
    p.set_defaults(func=cmd_ablate, usage_error=p.error)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface module failures with context
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
