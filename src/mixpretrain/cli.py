"""Command-line front end.

Verbs: ingest (annotation files -> corpus dir), synth (corpus -> task JSONL),
train (config -> run dir), eval (re-score a run), score (offline predictions
vs ground truth), gradcheck (kernel + model gradient audit), ablate (mixture
grids).  Exit codes: 0 ok, 2 input/config error, 3 runtime training error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__, load_bundled_lexicon
from .ablate import GRIDS, OA_QUESTIONS, easy_hard_matrix, run_grid, write_easy_hard_csv
from .config import default_config_text, load_run_config, parse_run_config, render_config
from .corpus import (
    BuildError,
    ConfigError,
    ParseError,
    ValidationError,
    build_corpus,
    build_lexicon,
    load_corpus,
    parse_box_labels,
    parse_class_descriptions,
    parse_image_labels,
    parse_localized_narratives,
    save_corpus,
)
from .evalkit import FingerprintError, score_files
from .mixture import ScheduleError
from .model import CheckpointError, TrainingError, Vocab, load_checkpoint, restore_model
from .nnkernel import OptimizerError, ShapeError
from .runner import (
    CHECKPOINT,
    _load_or_synth_corpus,
    evaluate_run,
    gradcheck_suite,
    run_training,
    split_image_ids,
)
from .tasksynth import EASY, HARD, SynthConfig, SynthesisError, TaskKind, write_task_files

RUNTIME_FAULTS = (TrainingError, OptimizerError)
CONFIG_FAULTS = (ConfigError, ParseError, ValidationError, BuildError, ScheduleError,
                 SynthesisError, FingerprintError, CheckpointError, ShapeError,
                 ValueError, OSError)


def data_root():
    return os.environ.get("MIXPRETRAIN_DATA", ".")


def _under_root(path, default_name):
    return path if path else os.path.join(data_root(), default_name)


# ---------------------------------------------------------------------------
# verbs

def cmd_ingest(args):
    def parsed(parser, path):
        if path is None:
            return ()
        try:
            with open(path) as f:
                return parser(f)
        except ParseError as e:
            raise ParseError(f"{path}: {e}") from None
    classes = parsed(parse_class_descriptions, args.classes)
    labels = parsed(parse_image_labels, args.labels)
    boxes = parsed(parse_box_labels, args.boxes)
    captions = parsed(parse_localized_narratives, args.captions)
    lexicon = parsed(build_lexicon, args.lexicon) or None
    corpus = build_corpus(classes, labels=labels, boxes=boxes, captions=captions)
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
    out = []
    for part in text.replace(",", " ").split():
        try:
            out.append(TaskKind(part))
        except ValueError:
            raise ConfigError(f"unknown task kind {part!r}") from None
    return out


def cmd_synth(args):
    corpus, lexicon = load_corpus(args.corpus)
    if lexicon is None:
        lexicon = load_bundled_lexicon()
    kinds = _parse_kinds(args.kinds)
    cfg = SynthConfig(seed=args.seed if args.seed is not None else 0, policy=args.policy)
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
    changed = False
    if args.seed is not None:
        cfg.seed = args.seed
        changed = True
    if args.out:
        cfg.out = args.out
        changed = True
    if changed:
        cfg.source_text = render_config(cfg)
    return cfg


def cmd_train(args):
    cfg = _load_config_with_overrides(args)
    summary = run_training(cfg, resume=args.resume, log=print)
    print(f"run complete -> {cfg.out} (final loss {summary['final_loss']})")
    return 0


def cmd_eval(args):
    run_dir = args.run
    cfg = load_run_config(os.path.join(run_dir, "config.ini"))
    cfg.out = run_dir  # the stored config may name a different original out dir
    state = load_checkpoint(os.path.join(run_dir, CHECKPOINT))
    model, _ = restore_model(state)
    vocab = Vocab.load(os.path.join(run_dir, "vocab.json"))
    if state.vocab_fingerprint and state.vocab_fingerprint != vocab.fingerprint():
        raise FingerprintError("stored vocab does not match the checkpoint")
    corpus, _ = _load_or_synth_corpus(cfg)
    if state.corpus_fingerprint and state.corpus_fingerprint != corpus.fingerprint():
        raise FingerprintError("reconstructed corpus does not match the checkpoint")
    _, eval_ids = split_image_ids(corpus.image_ids(), cfg.eval_split, cfg.seed)
    if not eval_ids:
        raise ConfigError("run has no eval split (eval_split = 0)")
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
        ok = worst[name] < 1e-4
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
                               seed=args.seed or 0)
    if args.path == "-":
        sys.stdout.write(text)
    else:
        with open(args.path, "w") as f:
            f.write(text)
        print(f"wrote {args.path}")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing

def build_parser():
    p = argparse.ArgumentParser(prog="mixpretrain",
                                description="object-aware task-mixture pretraining workbench")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, out_help="output location"):
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None, help=out_help)
        sp.add_argument("--jobs", type=int, default=1)
        sp.add_argument("--config", default=None, help="run config INI")

    sp = sub.add_parser("ingest", help="validate annotation files into a corpus directory")
    sp.add_argument("--classes", required=True, help="class descriptions CSV")
    sp.add_argument("--labels", help="image-level labels CSV")
    sp.add_argument("--boxes", help="box labels CSV")
    sp.add_argument("--captions", help="narrative captions JSONL")
    sp.add_argument("--lexicon", help="noun relatedness TSV")
    common(sp, "corpus output directory")
    sp.set_defaults(fn=cmd_ingest)

    sp = sub.add_parser("synth", help="synthesize task JSONL files from a corpus")
    sp.add_argument("--corpus", required=True, help="corpus directory")
    sp.add_argument("--kinds", default="all", help="comma list of task kinds, or 'all'")
    sp.add_argument("--policy", choices=(EASY, HARD), default=EASY)
    sp.add_argument("--count", type=int, default=400, help="examples per kind")
    common(sp, "task output directory")
    sp.set_defaults(fn=cmd_synth)

    sp = sub.add_parser("train", help="train one run from a config file")
    sp.add_argument("--resume", action="store_true", help="continue from the run checkpoint")
    common(sp, "run directory (overrides config)")
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("eval", help="re-evaluate a finished run directory")
    sp.add_argument("--run", required=True, help="run directory")
    common(sp)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("score", help="score a predictions file against ground truth")
    sp.add_argument("--predictions", required=True, help="JSONL of {id, prediction}")
    sp.add_argument("--truth", required=True, help="JSONL of {id, answers, kind, hidden?}")
    common(sp, "report JSON path")
    sp.set_defaults(fn=cmd_score)

    sp = sub.add_parser("gradcheck", help="finite-difference audit of kernels and model")
    common(sp)
    sp.set_defaults(fn=cmd_gradcheck)

    sp = sub.add_parser("ablate", help="run a mixture/policy ablation grid")
    sp.add_argument("--grid", required=True, help="|".join(sorted(GRIDS)))
    sp.add_argument("--seeds", type=int, default=3, help="number of seeds per variant")
    common(sp, "grid output directory")
    sp.set_defaults(fn=cmd_ablate)

    sp = sub.add_parser("init-config", help="write a starter run config")
    sp.add_argument("path", nargs="?", default="run.ini", help="file path, or - for stdout")
    common(sp)
    sp.set_defaults(fn=cmd_init_config)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.fn is cmd_gradcheck and args.seed is None:
        args.seed = 0
    try:
        return args.fn(args)
    except RUNTIME_FAULTS as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except CONFIG_FAULTS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
