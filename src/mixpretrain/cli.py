"""Command-line front end.

Verbs, and the shared-name flags each one reads:

  ingest       annotation files -> corpus dir            --out
  synth        corpus -> task JSONL                      --seed --out
  train        config -> run dir                         --seed --out --config
  eval         re-score a run directory                  (none)
  score        offline predictions vs ground truth       --out
  gradcheck    kernel + model gradient audit             --seed
  ablate       mixture grids                             --out --jobs --config
  init-config  write a starter run config                --seed --out

A verb rejects any flag it does not read.  Exit codes: 0 ok, 2 input/config
error (an InputError or OSError), 3 runtime training error.  Any other
exception is a bug and ends with its traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import InputError, __version__, load_bundled_lexicon
from .ablate import GRIDS, OA_QUESTIONS, easy_hard_matrix, run_grid, write_easy_hard_csv
from .config import (
    default_config_text,
    derive_config,
    load_run_config,
    parse_kinds,
    parse_run_config,
)
from .corpus import (
    ConfigError,
    build_corpus,
    build_lexicon,
    load_corpus,
    parse_class_descriptions,
    parse_image_labels,
    parse_localized_narratives,
    read_input,
    save_corpus,
)
from .evalkit import score_files
from .gradcheck import TOLERANCE, gradcheck_suite
from .model import TrainingError, Vocab, load_checkpoint, restore_model
from .nnkernel import OptimizerError
from .runner import (
    CHECKPOINT,
    _load_or_synth_corpus,
    check_checkpoint,
    evaluate_run,
    run_training,
    split_image_ids,
)
from .tasksynth import EASY, HARD, SynthConfig, TaskKind, write_task_files

RUNTIME_FAULTS = (TrainingError, OptimizerError)  # exit 3
INPUT_FAULTS = (InputError, OSError)  # exit 2; OSError covers missing paths


def data_root():
    return os.environ.get("MIXPRETRAIN_DATA", ".")


def _under_root(path, default_name):
    return path if path else os.path.join(data_root(), default_name)


# ---------------------------------------------------------------------------
# verbs

def cmd_ingest(args):
    def parsed(parser, path):
        return () if path is None else read_input(path, parser)
    classes = parsed(parse_class_descriptions, args.classes)
    labels = parsed(parse_image_labels, args.labels)
    captions = parsed(parse_localized_narratives, args.captions)
    lexicon = parsed(build_lexicon, args.lexicon) or None
    corpus = build_corpus(classes, labels=labels, captions=captions)
    out = _under_root(args.out, "corpus")
    save_corpus(corpus, out, lexicon=lexicon)
    n_labels = sum(len(v) for v in corpus.labels.values())
    print(f"corpus: {len(corpus.image_ids())} images, {len(corpus.classes)} classes, "
          f"{n_labels} labels, {corpus.n_captions()} captions, "
          f"{corpus.dropped_records} dropped -> {out}")
    return 0


def _parse_kinds(text):
    if not text or text == "all":
        return list(TaskKind)
    return parse_kinds(text.replace(",", " ").split())


def cmd_synth(args):
    corpus, lexicon = load_corpus(args.corpus)
    if lexicon is None:
        lexicon = load_bundled_lexicon()
    kinds = _parse_kinds(args.kinds)
    cfg = SynthConfig(seed=args.seed, policy=args.policy)
    out = _under_root(args.out, "tasks")
    paths = write_task_files(corpus, kinds, args.count, cfg, out, lexicon=lexicon)
    with open(os.path.join(out, "synth_manifest.json")) as f:
        counts = json.load(f)["counts"]
    for kind in kinds:
        print(f"{counts[kind.value]:6d}  {paths[kind]}")
    return 0


def _load_config_with_overrides(args):
    if args.config:
        cfg = load_run_config(args.config)
    else:
        cfg = parse_run_config(default_config_text())
    changes = {}
    if args.seed is not None:
        changes["seed"] = args.seed
    if args.out:
        changes["out"] = args.out
    return derive_config(cfg, **changes) if changes else cfg


def cmd_train(args):
    cfg = _load_config_with_overrides(args)
    summary = run_training(cfg, resume=args.resume, log=print)
    print(f"run complete -> {cfg.out} (final loss {summary['final_loss']})")
    return 0


def cmd_eval(args):
    run_dir = args.run
    cfg = load_run_config(os.path.join(run_dir, "config.ini"))
    state = load_checkpoint(os.path.join(run_dir, CHECKPOINT))
    vocab = Vocab.load(os.path.join(run_dir, "vocab.json"))
    corpus, _ = _load_or_synth_corpus(cfg)
    check_checkpoint(state, cfg, corpus, vocab)
    model, _ = restore_model(state)
    _, eval_ids = split_image_ids(corpus.image_ids(), cfg.eval_split, cfg.seed)
    if not eval_ids:
        raise ConfigError(f"{run_dir}: run has no eval split ([run] eval_split = 0)")
    report = evaluate_run(model, vocab, cfg, corpus.subset(eval_ids), run_dir)
    print(f"eval: {len(report.items)} items, exact match {report.overall_exact_match:.3f}, "
          f"hidden penalties {report.hidden_penalties} -> {run_dir}/eval.json")
    return 0


def cmd_score(args):
    report = score_files(args.predictions, args.truth)
    text = report.to_json()
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    for kind, row in sorted(report.per_task.items()):
        extra = f", cider {row['cider']:.3f}" if "cider" in row else ""
        print(f"{kind:12s} n={row['n']:<5d} exact match {row['exact_match']:.3f}{extra}")
    print(f"overall exact match {report.overall_exact_match:.3f}, "
          f"hidden penalties {report.hidden_penalties}")
    return 0


def cmd_gradcheck(args):
    seeds = tuple(range(args.seed, args.seed + 5))
    worst = gradcheck_suite(seeds=seeds)
    bad = False
    for name in sorted(worst):
        ok = worst[name] < TOLERANCE
        bad = bad or not ok
        print(f"{name:26s} max rel err {worst[name]:.3e}  {'ok' if ok else 'FAIL'}")
    return 3 if bad else 0


def cmd_ablate(args):
    if args.grid not in GRIDS:
        raise ConfigError(f"unknown grid {args.grid!r}; choose from {sorted(GRIDS)}")
    if args.config:
        base = load_run_config(args.config)
    else:
        base = parse_run_config(default_config_text())
    out = _under_root(args.out, os.path.join("ablate", args.grid))
    seeds = tuple(range(args.seeds))
    eval_kinds = OA_QUESTIONS if args.grid == "paper-table2" else None
    summary = run_grid(args.grid, base, out, seeds=seeds, jobs=args.jobs,
                       eval_kinds=eval_kinds, log=print)
    failed = [n for n, v in summary["variants"].items() if v["status"] != "ok"]
    for name, v in summary["variants"].items():
        agg = v["aggregate"].get("oa_em") or v["aggregate"].get("overall_em")
        cell = f"{agg['mean']:.3f} +/- {agg['std']:.3f}" if agg else "n/a"
        print(f"{name:22s} {v['status']:7s} {cell}")
    if args.grid == "paper-table2":
        path = write_easy_hard_csv(easy_hard_matrix(summary["variants"]), out)
        print(f"easy/hard matrix -> {path}")
    print(f"summary -> {out}/summary.csv")
    return 3 if failed else 0


def cmd_init_config(args):
    text = default_config_text(out=args.out or os.path.join(data_root(), "runs", "demo"),
                               seed=args.seed)
    if args.path == "-":
        sys.stdout.write(text)
    else:
        with open(args.path, "w") as f:
            f.write(text)
        print(f"wrote {args.path}")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing

def _int_at_least(lo):
    """An argparse type: an int of at least ``lo``."""
    def parse(text):
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def build_parser():
    p = argparse.ArgumentParser(prog="mixpretrain",
                                description="object-aware task-mixture pretraining workbench")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="verb", required=True)
    # no prefix matching, so "ablate --seed 7" is rejected, not read as "--seeds 7"
    verb = functools.partial(sub.add_parser, allow_abbrev=False)

    sp = verb("ingest", help="validate annotation files into a corpus directory")
    sp.add_argument("--classes", required=True, help="class descriptions CSV")
    sp.add_argument("--labels", help="image-level labels CSV")
    sp.add_argument("--captions", help="narrative captions JSONL")
    sp.add_argument("--lexicon", help="noun relatedness TSV")
    sp.add_argument("--out", help="corpus output directory")
    sp.set_defaults(fn=cmd_ingest)

    sp = verb("synth", help="synthesize task JSONL files from a corpus")
    sp.add_argument("--corpus", required=True, help="corpus directory")
    sp.add_argument("--kinds", default="all", help="comma list of task kinds, or 'all'")
    sp.add_argument("--policy", choices=(EASY, HARD), default=EASY)
    sp.add_argument("--count", type=_int_at_least(1), default=400, help="examples per kind")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="task output directory")
    sp.set_defaults(fn=cmd_synth)

    sp = verb("train", help="train one run from a config file")
    sp.add_argument("--resume", action="store_true", help="continue from the run checkpoint")
    sp.add_argument("--seed", type=int, help="run seed (overrides config)")
    sp.add_argument("--out", help="run directory (overrides config)")
    sp.add_argument("--config", help="run config INI")
    sp.set_defaults(fn=cmd_train)

    sp = verb("eval", help="re-evaluate a finished run directory")
    sp.add_argument("--run", required=True, help="run directory")
    sp.set_defaults(fn=cmd_eval)

    sp = verb("score", help="score a predictions file against ground truth")
    sp.add_argument("--predictions", required=True, help="JSONL of {id, prediction}")
    sp.add_argument("--truth", required=True, help="JSONL of {id, answers, kind, hidden?}")
    sp.add_argument("--out", help="report JSON path")
    sp.set_defaults(fn=cmd_score)

    sp = verb("gradcheck", help="finite-difference audit of kernels and model")
    sp.add_argument("--seed", type=_int_at_least(0), default=0, help="first of five seeds")
    sp.set_defaults(fn=cmd_gradcheck)

    sp = verb("ablate", help="run a mixture/policy ablation grid")
    sp.add_argument("--grid", required=True, help="|".join(sorted(GRIDS)))
    sp.add_argument("--seeds", type=_int_at_least(1), default=3, help="number of seeds per variant")
    sp.add_argument("--out", help="grid output directory")
    sp.add_argument("--jobs", type=_int_at_least(1), default=1, help="worker processes")
    sp.add_argument("--config", help="base run config INI")
    sp.set_defaults(fn=cmd_ablate)

    sp = verb("init-config", help="write a starter run config")
    sp.add_argument("path", nargs="?", default="run.ini", help="file path, or - for stdout")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="run directory named in the config")
    sp.set_defaults(fn=cmd_init_config)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except RUNTIME_FAULTS as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except INPUT_FAULTS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
