"""Single-run pipeline: corpus -> task synthesis -> schedule -> training ->
held-out evaluation, all inside one run directory.

The split is at image level so no eval image contributes training examples.
Eval questions are always synthesized with the easy policy: the training
policy is the experimental variable, the probe stays fixed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import random
import time

from . import atomic_write, load_bundled_lexicon, staged_dir
from .config import RunConfig
from .corpus import ConfigError, load_corpus, synth_corpus
from .evalkit import evaluate, write_predictions
from .mixture import build_schedule
from .model import (
    AdamState,
    CheckpointError,
    Model,
    build_vocab,
    load_checkpoint,
    read_metrics,
    restore_model,
    train,
)
from .tasksynth import EASY, TaskKind, load_task_file, synth_dataset, write_task_files

CHECKPOINT = "checkpoint.mpt"
EVAL_REPORT = "eval.json"
PREDICTIONS = "predictions.jsonl"
RUN_REPORT = "run.json"
CONFIG_ECHO = "config.ini"
METRICS = "metrics.jsonl"


def split_image_ids(ids, fraction, seed):
    """Deterministic image-level split -> (train_ids, eval_ids)."""
    ids = sorted(ids)
    n_eval = int(round(len(ids) * fraction))
    if fraction > 0.0:
        n_eval = max(1, min(len(ids) - 1, n_eval))
    rng = random.Random(f"split|{seed}")
    eval_ids = set(rng.sample(ids, n_eval))
    return [i for i in ids if i not in eval_ids], sorted(eval_ids)


def _load_or_synth_corpus(cfg):
    c = cfg.corpus
    if c["source"] == "dir":
        corpus, lexicon = load_corpus(c["dir"])
        missing = sum(rec is None for rec in corpus.images.values())
        if missing:
            # ingest stores annotations only; reject before any synthesis runs
            raise ConfigError(f"corpus {c['dir']}: {missing} of {len(corpus.images)} images "
                              "have no pixels, and training and evaluation need them")
        expected = (cfg.image_size, cfg.image_size, 3)
        for rec in corpus.images.values():
            if rec.pixels.shape != expected:
                raise ConfigError(f"corpus {c['dir']}: image {rec.image_id} has pixels "
                                  f"{rec.pixels.shape}, but [corpus] grid*cell makes the model "
                                  f"expect {expected}")
        if lexicon is None:
            lexicon = load_bundled_lexicon()
        return corpus, lexicon
    corpus = synth_corpus(seed=cfg.seed, n_images=c["n_images"], grid=c["grid"],
                          hidden_rate=c["hidden_rate"], cell=c["cell"])
    return corpus, load_bundled_lexicon()


def check_checkpoint(state, cfg, corpus, vocab):
    """Refuse a checkpoint written under another vocab, corpus or model
    config than the run ``cfg`` rebuilds; the error names what differs.
    ``train --resume`` calls it once the task files are staged and the vocab
    is built, before anything else in the run directory changes; ``eval``
    calls it with the run's stored vocab."""
    diffs = []
    if state.vocab_fingerprint != vocab.fingerprint():
        diffs.append("vocab")
    if state.corpus_fingerprint != corpus.fingerprint():
        diffs.append("corpus")
    mcfg = cfg.model_config(len(vocab))
    changed = [f"{f.name} {getattr(state.config, f.name)} -> {getattr(mcfg, f.name)}"
               for f in dataclasses.fields(mcfg)
               if getattr(state.config, f.name) != getattr(mcfg, f.name)]
    if changed:
        diffs.append(f"model config ({', '.join(changed)})")
    if diffs:
        raise CheckpointError(f"checkpoint does not match this run: {'; '.join(diffs)} differ")


def run_complete(run_dir, config_text):
    """True when the directory holds a finished run of exactly this config."""
    echo = os.path.join(run_dir, CONFIG_ECHO)
    done = os.path.join(run_dir, EVAL_REPORT)
    if not (os.path.exists(echo) and os.path.exists(done)):
        return False
    with open(echo) as f:
        return f.read() == config_text


def run_training(cfg: RunConfig, resume=False, log=None):
    """Execute one configured run.  Returns a summary dict (also written to
    run.json).  With ``resume``, continues from the run's checkpoint."""
    say = log or (lambda msg: None)
    run_dir = cfg.out
    t0 = time.perf_counter()
    stage_ends = []  # (stage, seconds since t0) as each stage finishes

    def stage_done(name):
        stage_ends.append((name, time.perf_counter() - t0))

    corpus, lexicon = _load_or_synth_corpus(cfg)
    train_ids, eval_ids = split_image_ids(corpus.image_ids(), cfg.eval_split, cfg.seed)
    train_corpus = corpus.subset(train_ids)
    eval_corpus = corpus.subset(eval_ids) if eval_ids else None
    say(f"corpus: {len(train_ids)} train / {len(eval_ids)} eval images")
    stage_done("corpus")

    kinds = [TaskKind(k) for k in cfg.kinds]
    scfg = cfg.synth_config(cfg.tasks["policy"])
    ckpt_path = os.path.join(run_dir, CHECKPOINT)
    # build, read and check first, so a refused or failed set-up leaves the run
    # directory as it was; staging creates it, and tasks/ ends up holding
    # only this run's kinds
    with staged_dir(os.path.join(run_dir, "tasks")) as staging:
        paths = write_task_files(train_corpus, kinds, cfg.tasks["count_per_kind"], scfg,
                                 staging, lexicon=lexicon)
        datasets = {kind.value: load_task_file(paths[kind]) for kind in kinds}
        all_train = [ex for exs in datasets.values() for ex in exs]
        say(f"tasks: {len(all_train)} examples over {len(kinds)} kinds")
        stage_done("tasks")

        vocab = build_vocab(all_train)
        restored, start_step, logged = None, 0, []
        if resume and os.path.exists(ckpt_path):
            state = load_checkpoint(ckpt_path)
            check_checkpoint(state, cfg, corpus, vocab)
            restored = restore_model(state)
            start_step = state.step
            logged = read_metrics(os.path.join(run_dir, METRICS), start_step)

        # results of an earlier run must not pass for results of this config
        for name in (EVAL_REPORT, PREDICTIONS, RUN_REPORT):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(run_dir, name))
        with atomic_write(os.path.join(run_dir, CONFIG_ECHO)) as f:
            f.write(cfg.source_text)
    vocab.save(os.path.join(run_dir, "vocab.json"))
    say(f"vocab: {len(vocab)} tokens")
    stage_done("vocab")

    if restored:
        model, opt = restored
        say(f"resumed at step {start_step}")
    else:
        model = Model(cfg.model_config(len(vocab)), seed=cfg.seed)
        opt = AdamState(lr=cfg.train["lr"])

    sizes = {k: len(v) for k, v in datasets.items()}
    schedule = build_schedule(cfg.mixture(), cfg.schedule_config(), sizes)

    images = {i: corpus.images[i].pixels for i in train_ids}
    history = train(
        model, schedule, datasets, vocab, opt, images=images, start_step=start_step,
        metrics_path=os.path.join(run_dir, METRICS), logged=logged,
        checkpoint_path=ckpt_path, checkpoint_every=cfg.train["checkpoint_every"],
        vocab_fingerprint=vocab.fingerprint(), corpus_fingerprint=corpus.fingerprint(),
    )
    last = history or logged  # a resume of a finished run trains no step
    final_loss = last[-1]["loss"] if last else None
    say(f"trained {len(history)} steps, final loss {final_loss}")
    stage_done("train")

    summary = {
        "steps": cfg.schedule["total_steps"],
        "final_loss": final_loss,
        "n_train_images": len(train_ids),
        "n_eval_images": len(eval_ids),
        "kinds": cfg.kinds,
        "policy": cfg.tasks["policy"],
        "seed": cfg.seed,
        # timings, filled below; excluded from idempotency checks
        "wall_seconds": None,
        "stage_seconds": None,
        "steps_per_second": None,
    }

    if eval_corpus is not None:
        report = evaluate_run(model, vocab, cfg, eval_corpus, run_dir)
        summary["eval"] = {
            "overall_exact_match": report.overall_exact_match,
            "per_task": report.per_task,
            "hidden_penalties": report.hidden_penalties,
        }
        say(f"eval exact match {report.overall_exact_match:.3f}")
    stage_done("eval")

    summary["wall_seconds"] = round(time.perf_counter() - t0, 3)
    summary["stage_seconds"] = _stage_seconds(stage_ends)
    train_s = summary["stage_seconds"]["train"]
    summary["steps_per_second"] = round(len(history) / train_s, 3) if train_s else None
    with atomic_write(os.path.join(run_dir, RUN_REPORT)) as f:
        json.dump(summary, f, sort_keys=True, indent=2)
    return summary


def _stage_seconds(stage_ends):
    """Stage durations from stage end times.  Each end is rounded before it is
    differenced, so the durations add up to the rounded last end and never
    to more than ``wall_seconds``."""
    out, prev = {}, 0.0
    for name, end in stage_ends:
        end = round(end, 3)
        out[name] = round(end - prev, 3)
        prev = end
    return out


def eval_questions(cfg, eval_corpus):
    """Probe set on eval images, easy policy.  ``eval_kinds`` makes the probe
    independent of the training mixture, so ablation variants trained on
    different kinds still answer the same questions."""
    kinds = [TaskKind(k) for k in (cfg.train["eval_kinds"] or cfg.kinds)]
    return list(synth_dataset(eval_corpus, kinds, cfg.train["eval_count_per_kind"],
                              cfg.synth_config(EASY)))


def evaluate_run(model, vocab, cfg, eval_corpus, run_dir):
    examples = eval_questions(cfg, eval_corpus)
    images = {i: eval_corpus.images[i].pixels for i in eval_corpus.image_ids()}
    report = evaluate(model, vocab, examples, images, corpus=eval_corpus,
                      batch_size=cfg.train["eval_batch"])
    with atomic_write(os.path.join(run_dir, EVAL_REPORT)) as f:
        f.write(report.to_json())
    write_predictions(os.path.join(run_dir, PREDICTIONS),
                      [it["id"] for it in report.items],
                      [it["prediction"] for it in report.items])
    return report


def load_run_report(run_dir):
    with open(os.path.join(run_dir, EVAL_REPORT)) as f:
        return json.load(f)

