"""mixpretrain benchmark.

    python3 perfbench/run.py --workload train_mix8 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` of that checkout and nowhere else.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A failed output check
makes the exit code 1; a checkout without the package exits 2 and prints no
result.  Results, spans and scratch run directories go under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

# One BLAS thread: on the 2-core machine the baseline was taken on, one
# thread ran the criterion-8 step ~15% faster than two, and varied less.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# End-to-end metrics of the result line, the same names on every workload
# (README.md says what each means per workload).  The tail latency is printed
# and saved but left out: its spread over ten seeds reached 27%, wider than
# any bound the benchmark may set.
END_TO_END = (
    ("setup_s", "s"),
    ("run_wall_s", "s"),
    ("items_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
)


def import_package():
    """Import mixpretrain from this checkout's ``src/``, or exit 2."""
    init = os.path.join(SRC, "mixpretrain", "__init__.py")
    if not os.path.isfile(init):
        print(f"perfbench: no mixpretrain package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import mixpretrain

    if os.path.realpath(mixpretrain.__file__) != os.path.realpath(init):
        print(f"perfbench: mixpretrain imported from {mixpretrain.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return mixpretrain


def environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def _git_commit():
    """HEAD of the checkout, or None when the checkout is not a git work tree
    of its own (a checkout nested in another repository reads None too)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "mixpretrain")
    for base, dirs, files in sorted(os.walk(pkg)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".tsv")):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def _blas_threads():
    """Threads OpenBLAS reports, or the environment setting if it cannot be asked."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return f"{os.environ['OPENBLAS_NUM_THREADS']} (env)"


# ---------------------------------------------------------------------------
# metrics

def end_to_end(passes, peak_rss_mb):
    import tracing as tr

    plain = [p for p in passes if not p["traced"]]
    ops = [v for p in plain for v in p["op_ms"]]
    return {
        "setup_s": statistics.median(v for p in plain for v in p["setup_samples"]),
        "run_wall_s": statistics.median(p["wall_s"] for p in plain),
        "items_per_s": sum(p["items"] for p in plain) / sum(p["items_s"] for p in plain),
        "op_ms_p50": tr.percentile(ops, 50),
        "op_ms_tail": tr.percentile(ops, tr.tail_percentile(len(ops))),
        "peak_rss_mb": peak_rss_mb,
    }, len(ops)


def named_metrics(workload, passes, e2e, n_ops, error_rate):
    """The workload's metrics under the names a reader of the code uses,
    with their units; printed and saved beside the contract metrics."""
    import tracing as tr

    plain = [p for p in passes if not p["traced"]]
    tail = tr.tail_percentile(n_ops)
    tail_name = f"p{tail:g}".replace(".", "_")
    first = plain[0]
    common = {"setup_s": (e2e["setup_s"], "s"),
              "setup_samples": (sum(len(p["setup_samples"]) for p in plain), "count"),
              "peak_rss_mb": (e2e["peak_rss_mb"], "MB"),
              "error_rate": (error_rate, "ratio")}
    if workload == "train_mix8":
        return {
            **common,
            "run_wall_s": (e2e["run_wall_s"], "s"),
            "train_steps_per_s": (e2e["items_per_s"], "1/s"),
            "train_step_ms_p50": (e2e["op_ms_p50"], "ms"),
            f"train_step_ms_tail_{tail_name}": (e2e["op_ms_tail"], "ms"),
            "train_steps_timed": (n_ops, "count"),
            "final_loss": (first["final_loss"], "nats"),
            "heldout_em": (first["heldout_em"], "ratio"),
        }
    if workload == "eval_decode":
        return {
            **common,
            "run_wall_s": (e2e["run_wall_s"], "s"),
            "eval_items_per_s": (e2e["items_per_s"], "1/s"),
            "eval_batch_ms_p50": (e2e["op_ms_p50"], "ms"),
            f"eval_batch_ms_tail_{tail_name}": (e2e["op_ms_tail"], "ms"),
            "eval_batches_timed": (n_ops, "count"),
            "heldout_em": (first["heldout_em"], "ratio"),
            "caption_cider": (first["caption_cider"], "score"),
        }
    return {
        **common,
        "data_wall_s": (e2e["run_wall_s"], "s"),
        "synth_examples_per_s": (e2e["items_per_s"], "1/s"),
        "score_items_per_s": (sum(p["score_items"] for p in plain)
                              / sum(p["score_s"] for p in plain), "1/s"),
        "make_batch_ms_p50": (e2e["op_ms_p50"], "ms"),
        f"make_batch_ms_tail_{tail_name}": (e2e["op_ms_tail"], "ms"),
        "make_batch_calls_timed": (n_ops, "count"),
        "offline_exact_match": (first["exact_match"], "ratio"),
        "offline_caption_cider": (first["caption_cider"], "score"),
    }


# ---------------------------------------------------------------------------
# output

def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def emit(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def run_one(args):
    import per_layer
    import workloads

    env = environment(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(OUT, "work", f"{tag}-pid{os.getpid()}")
    wl = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    error = None
    try:
        passes, full = wl.run(args.seconds, traced=bool(args.trace))
    except Exception as e:  # a failed operation: report it as a failure, not a traceback
        import traceback

        traceback.print_exc(file=sys.stderr)
        error = f"{type(e).__name__}: {e}"
        passes, full = [], None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed_checks = [c for c in wl.checks if not c["ok"]]
    attempted = max(wl.operations, 1)
    failed = len(failed_checks) + (wl.operations if error else 0)
    correct = error is None and not failed_checks
    error_rate = failed / attempted

    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds} s, trace {args.trace}, "
          f"{len(passes)} passes, set-up fixture {wl.fixture_s:.2f} s")
    print(f"  environment: {json.dumps(env, sort_keys=True)}")
    for c in wl.checks:
        print(f"  check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}"
              + ("" if c["ok"] else f" ({c['detail']})"))
    if error:
        print(f"  FAILED: {error}")

    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "fixture_s": wl.fixture_s,
              "checks": wl.checks, "error": error, "attempted": attempted, "failed": failed,
              "passes": [{k: v for k, v in p.items() if k != "op_ms"} for p in passes]}
    metrics = {}
    if passes:
        e2e, n_ops = end_to_end(passes, peak_rss_mb)
        named = named_metrics(args.workload, passes, e2e, n_ops, error_rate)
        result["end_to_end"] = e2e
        result["named"] = named
        print("  end-to-end (untraced passes):")
        for k, (v, unit) in named.items():
            print(f"    {k:28s} {fmt(v):>14s} {unit}")
        if args.trace:
            layers, absent, notes = per_layer.compute(wl, passes, full)
            result["per_layer"], result["absent"], result["trace_notes"] = layers, absent, notes
            print("  per layer (traced; self time per step, per eval batch or per call):")
            for k, (v, unit) in layers.items():
                print(f"    {k:36s} {fmt(v):>14s} {unit}")
            for k, reason in absent.items():
                print(f"    {k:36s} {'absent':>14s}  ({reason})")
            for k, v in notes.items():
                print(f"  {k}: {fmt(v)}")
            spans_dir = os.path.join(OUT, "spans")
            os.makedirs(spans_dir, exist_ok=True)
            full.save(os.path.join(spans_dir, f"{tag}.npz"))
            metrics = {k: layers[k] for k in per_layer.REPORTED if k in layers}
            for k in per_layer.REPORTED:
                if k not in layers:
                    print(f"perfbench: per-layer metric {k} absent: {absent[k]}", file=sys.stderr)
        else:
            metrics = {k: (e2e[k], unit) for k, unit in END_TO_END}

    results_dir = os.path.join(OUT, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{tag}.json"), "w") as f:
        json.dump(result, f, indent=2, sort_keys=True, default=str)
    emit(correct, attempted, failed, metrics)
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own process, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("train_mix8", "eval_decode", "data_pipeline"):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 1
        last = json.loads(lines[-1])
        total["correct"] &= last["correct"]
        total["attempted"] += last["attempted"]
        total["failed"] += last["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train_mix8", "eval_decode", "data_pipeline", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
