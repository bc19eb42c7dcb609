"""Benchmark of the scdnn package.

One workload, untraced (end-to-end metrics) or traced (per-layer metrics):

    python3 perfbench/run.py --workload train-L1000 --seed 1 --seconds 35 --trace 0

Every workload, each untraced and then traced in its own fresh process, with
a summary table and a results file under perfbench/out/:

    python3 perfbench/run.py --seed 1 --seconds 35

A single-workload run prints a readable report, then one line with the
environment, and last one JSON object with the keys correct, attempted,
failed and metrics. Metric names and units come from BENCHMARK.json at the
root of the checkout. The package is imported from the checkout's src/
directory and from nowhere else.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def _import_package():
    if not (SRC / "scdnn" / "__init__.py").is_file():
        sys.exit(f"perfbench: no scdnn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import scdnn

    if Path(scdnn.__file__).resolve().parent != SRC / "scdnn":
        sys.exit(f"perfbench: imported scdnn from {scdnn.__file__}, not {SRC}")


# -- environment ---------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count reported by the OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.split()[-1]})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(workload, seed, trace, samples):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "samples": samples,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
            "threads": _blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        },
        "commit": _git_commit(),
    }


# -- one workload --------------------------------------------------------------


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload, seed, seconds, workdir):
    """End-to-end metrics of one workload, sample counts, attempted and
    failed operations, and the report lines."""
    from workloads import (
        BATCH,
        check_inference,
        check_training,
        median,
        run_inference,
        run_training,
        set_up_repeatedly,
    )

    dataset, model, _, timings = set_up_repeatedly(workload, seed, workdir)
    if workload.kind == "train":
        op_times, losses, error = run_training(model, dataset, seed, seconds)
        checks, problems = check_training(workload, seed, losses, error)
        attempted = len(op_times) + (error is not None) + checks
        failed = len(problems)
        unit = "steps"
        notes = [f"epoch losses: first {losses[0]!r}, last {losses[-1]!r}"
                 if losses else "no epoch finished"]
    else:
        checks, problems, confusion = check_inference(workload, seed, model,
                                                      dataset)
        op_times, mismatches = run_inference(model, dataset, seconds, confusion)
        attempted = len(op_times) + checks
        failed = len(problems) + mismatches
        unit = "batches"
        notes = [f"{mismatches} batches with a confusion matrix unlike the first"]
    n = len(op_times)
    p50, p90 = np.percentile(op_times, [50, 90]) if n else (0.0, 0.0)
    metrics = {
        "setup_s": median(timings["setup"]),
        "step_s.p50": float(p50),
        "step_s.p90": float(p90),
        "samples_per_s": BATCH * n / float(np.sum(op_times)) if n else 0.0,
        "peak_rss_mb": _peak_rss_mb(),
        "success_rate": 1.0 - failed / attempted,
    }
    notes += [
        f"{n} timed {unit} of {BATCH} records, {int(np.sum(op_times > p90))} "
        f"beyond p90; {len(timings['setup'])} set-up passes",
        f"error_rate {failed / attempted!r} ({failed} failed of {attempted} "
        f"attempted: {len(op_times)} {unit} plus {checks} output checks)",
    ]
    notes += [f"CHECK FAILED: {p}" for p in problems]
    samples = {"timed": n, "setup_passes": len(timings["setup"])}
    return metrics, samples, attempted, failed, notes


def run_one(args):
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT)
    try:
        if args.trace:
            import tracing

            spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
            metrics, samples, attempted, failed, notes = tracing.run_traced(
                workload, args.seed, args.seconds, workdir, spans_path)
        else:
            metrics, samples, attempted, failed, notes = run_untraced(
                workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = {m["name"] for m in listed} - set(metrics)
    if missing:
        sys.exit(f"perfbench: no value for metrics {sorted(missing)}")
    for line in notes:
        print(line)
    for m in listed:
        print(f"{m['name']:<32} {metrics[m['name']]:>16.6g} {m['unit']}")
    print(json.dumps({"environment": environment(workload.name, args.seed,
                                                 args.trace, samples)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0 if failed == 0 else 1


# -- every workload --------------------------------------------------------------


def run_all(args):
    """Each workload untraced, then traced, each in a fresh process."""
    from workloads import WORKLOADS

    results = {}
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT, timeout=900)
            lines = proc.stdout.strip().splitlines()
            finished = bool(lines) and lines[-1].startswith('{"correct"')
            if proc.returncode or not finished:
                status = 1
                print(f"{name} trace={trace}: exit {proc.returncode}\n"
                      f"{proc.stdout}{proc.stderr}")
            if not finished:
                continue
            results[f"{name}/trace{trace}"] = {
                "result": json.loads(lines[-1]),
                "environment": json.loads(lines[-2])["environment"],
                "report": lines[:-2],
            }
            print(f"== {name} trace={trace}")
            print("\n".join(lines[:-2]))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"results-seed{args.seed}.json"
    path.write_text(json.dumps(results, indent=1))
    print(f"results written to {path}")
    return status


def main(argv=None):
    _import_package()
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
