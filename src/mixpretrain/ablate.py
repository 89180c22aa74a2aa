"""Ablation grids: train one model per (mixture variant, seed), score every
variant against the same held-out probe questions, aggregate mean +/- std.

Variants of a grid differ only in which task kinds are mixed into training
and in the negative-sampling policy; corpus, model size, step budget, and
the probe set are shared.  Completed runs are detected by their echoed
config and reused, so a finished grid can be re-aggregated without
retraining.
"""

from __future__ import annotations

import contextlib
import csv
import json
import multiprocessing
import os
import statistics
import traceback

from . import atomic_write, tasksynth
from .config import derive_config
from .runner import load_run_report, run_complete, run_training
from .tasksynth import EASY, HARD, KIND_NAMES, TaskKind

# kind-name lists in TaskKind order: the object-aware list task is split from
# the three object questions because the paper's grids treat them apart
CM_KINDS = [k.value for k in tasksynth.CM_KINDS]
OA_LIST = [TaskKind.OA_LIST.value]
OA_QUESTIONS = [k.value for k in tasksynth.OA_KINDS if k is not TaskKind.OA_LIST]

# mixture-composition grid: one row per training recipe
TABLE1 = [
    ("caption_only", [TaskKind.CAPTION.value], EASY),
    ("mlm_only", [TaskKind.MLM.value], EASY),
    ("cm_mix", CM_KINDS, EASY),
    ("cm_mix_hard", CM_KINDS, HARD),
    ("cm_mix_oa_list", CM_KINDS + OA_LIST, EASY),
    ("oa_234", OA_QUESTIONS, EASY),
    ("cm_mix_oa_234", CM_KINDS + OA_QUESTIONS, EASY),
    ("cm_mix_oa_mix", KIND_NAMES, EASY),
    ("cm_mix_hard_oa_mix", KIND_NAMES, HARD),
]

# negative-policy grid: each object question trained alone, easy vs hard
TABLE2 = [(f"{kind}_{policy}", [kind], policy)
          for kind in OA_QUESTIONS for policy in (EASY, HARD)]

GRIDS = {"paper-table1": TABLE1, "paper-table2": TABLE2}

ERROR_FILE = "error.txt"  # a failed cell's traceback, in its run directory


def variant_config(base, name, kinds, policy, seed, out_root, eval_kinds):
    return derive_config(base, seed=seed, out=os.path.join(out_root, name, f"seed{seed}"),
                         tasks={**base.tasks, "kinds": list(kinds), "policy": policy},
                         weights=[], train={**base.train, "eval_kinds": list(eval_kinds)})


def variant_metrics(report):
    """Flat metric dict from a stored eval report."""
    per = report["per_task"]
    out = {"overall_em": report["overall"]["exact_match"]}
    for kind, row in per.items():
        out[f"em.{kind}"] = row["exact_match"]
    cm = [per[k]["exact_match"] for k in CM_KINDS if k != TaskKind.CAPTION and k in per]
    oa = [per[k]["exact_match"] for k in OA_LIST + OA_QUESTIONS if k in per]
    if cm:
        out["cm_em"] = sum(cm) / len(cm)
    if oa:
        out["oa_em"] = sum(oa) / len(oa)
    caption = per.get(TaskKind.CAPTION, {})
    if "cider" in caption:
        out["caption_cider"] = caption["cider"]
    return out


def _run_one(job):
    """Worker for one (variant, seed) cell; never raises, marks failures.
    A failed cell leaves its traceback in ``error.txt`` in its run
    directory; a completed cell removes one left by an earlier attempt."""
    name, seed, cfg = job
    error_path = os.path.join(cfg.out, ERROR_FILE)
    try:
        if not run_complete(cfg.out, cfg.source_text):
            run_training(cfg)
        metrics = variant_metrics(load_run_report(cfg.out))
    except Exception as e:  # a failed cell must not sink the grid
        with contextlib.suppress(OSError):
            os.makedirs(cfg.out, exist_ok=True)
            with atomic_write(error_path) as f:
                f.write(traceback.format_exc())
        return name, seed, f"{type(e).__name__}: {e}", None
    with contextlib.suppress(FileNotFoundError):
        os.remove(error_path)
    return name, seed, None, metrics


def run_grid(grid, base, out_root, seeds=(0, 1, 2), jobs=1, eval_kinds=None, log=None):
    """Execute a grid spec [(name, kinds, policy), ...].  Returns the summary
    structure that also lands in summary.json / summary.csv."""
    say = log or (lambda msg: None)
    if isinstance(grid, str):
        grid = GRIDS[grid]
    eval_kinds = list(eval_kinds) if eval_kinds else KIND_NAMES
    os.makedirs(out_root, exist_ok=True)

    jobs_list = [
        (name, seed, variant_config(base, name, kinds, policy, seed, out_root, eval_kinds))
        for name, kinds, policy in grid for seed in seeds
    ]
    say(f"{len(grid)} variants x {len(seeds)} seeds = {len(jobs_list)} runs, jobs={jobs}")
    results = []
    with contextlib.ExitStack() as stack:
        run = stack.enter_context(multiprocessing.Pool(jobs)).imap if jobs > 1 else map
        for result in run(_run_one, jobs_list):  # grid order on both paths
            results.append(result)
            name, seed, err, _ = result
            say(f"  {name} seed{seed}: {'FAILED ' + err if err else 'done'}")

    variants = {}
    for (name, kinds, policy) in grid:
        variants[name] = {"kinds": list(kinds), "policy": policy,
                          "seeds": {}, "status": "ok", "aggregate": {}}
    for name, seed, err, metrics in results:
        variants[name]["seeds"][str(seed)] = {"error": err} if err else metrics
        if err:
            variants[name]["status"] = "failed"
    for name, v in variants.items():
        rows = [m for m in v["seeds"].values() if "error" not in m]
        keys = sorted({k for m in rows for k in m})
        for k in keys:
            vals = [m[k] for m in rows if k in m]
            v["aggregate"][k] = {"mean": statistics.fmean(vals),
                                 "std": statistics.pstdev(vals) if len(vals) > 1 else 0.0}

    summary = {"grid": [[n, v["kinds"], v["policy"]] for n, v in variants.items()],
               "seeds": list(seeds), "eval_kinds": eval_kinds, "variants": variants}
    with atomic_write(os.path.join(out_root, "summary.json")) as f:
        json.dump(summary, f, sort_keys=True, indent=2)
    _write_csv(grid, variants, out_root)
    return summary


_T1_COLUMNS = ["overall_em", "cm_em", "oa_em", "caption_cider"]


def _write_csv(grid, variants, out_root):
    path = os.path.join(out_root, "summary.csv")
    with atomic_write(path, newline="") as f:
        w = csv.writer(f)
        w.writerow(["variant", "kinds", "policy", "status"]
                   + [f"{c}_{s}" for c in _T1_COLUMNS for s in ("mean", "std")])
        for name, _, _ in grid:
            v = variants[name]
            row = [name, "+".join(v["kinds"]), v["policy"], v["status"]]
            for c in _T1_COLUMNS:
                agg = v["aggregate"].get(c)
                row += ["", ""] if agg is None else [f"{agg['mean']:.4f}", f"{agg['std']:.4f}"]
            w.writerow(row)


def easy_hard_matrix(variants):
    """Fold <task>_<policy> variants into rows: task -> policy -> own-task EM."""
    matrix = {}
    for name, v in variants.items():
        for policy in (EASY, HARD):
            if name.endswith("_" + policy):
                task = name[: -len(policy) - 1]
                agg = v["aggregate"].get(f"em.{task}")
                matrix.setdefault(task, {})[policy] = {
                    "mean": agg["mean"] if agg else None,
                    "std": agg["std"] if agg else None,
                    "status": v["status"],
                }
    return matrix


def write_easy_hard_csv(matrix, out_root):
    path = os.path.join(out_root, "easy_hard.csv")
    with atomic_write(path, newline="") as f:
        w = csv.writer(f)
        w.writerow(["task", "easy_mean", "easy_std", "hard_mean", "hard_std", "status"])
        for task in sorted(matrix):
            cells = matrix[task]
            status = "ok" if all(c["status"] == "ok" for c in cells.values()) else "failed"
            row = [task]
            for policy in (EASY, HARD):
                c = cells.get(policy)
                if c and c["mean"] is not None:
                    row += [f"{c['mean']:.4f}", f"{c['std']:.4f}"]
                else:
                    row += ["", ""]
            w.writerow(row + [status])
    return path
