"""Single-run pipeline: corpus -> task synthesis -> schedule -> training ->
held-out evaluation, all inside one run directory; and the one place that
rebuilds a run from that directory, for ``--resume`` and ``eval`` alike.

This module owns every file of a run directory.  ``model.train`` only runs
the steps; the runner writes the metrics log, one line per step from the
step hook, and the checkpoints: every ``checkpoint_every``-th step from the
hook, and the final one once training returns.

The split is at image level so no eval image contributes training examples.
Set-up builds the eval probe once, right after the split, so a probe the
eval images cannot supply is refused before the run directory changes; every
scorer reads the probe it is handed.  Eval questions are always synthesized
with the easy policy: the training policy is the experimental variable, the
probe stays fixed.  A resume refuses a config that trains differently from
the echoed one, and ``eval`` a checkpoint not at ``total_steps``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import random
import time

from . import atomic_write, load_bundled_lexicon, staged_dir
from .config import RunConfig, changed_keys, load_run_config
from .corpus import ConfigError, ParseError, load_corpus, read_input, read_json, synth_corpus
from .evalkit import evaluate, write_predictions
from .mixture import build_schedule
from .model import (
    AdamState,
    CheckpointError,
    Model,
    Vocab,
    build_vocab,
    checkpoint_state,
    load_checkpoint,
    restore_model,
    save_checkpoint,
    train,
)
from .tasksynth import (
    EASY,
    SynthesisError,
    TaskKind,
    load_task_file,
    synth_dataset,
    write_task_files,
)

CHECKPOINT = "checkpoint.mpt"
EVAL_REPORT = "eval.json"
PREDICTIONS = "predictions.jsonl"
RUN_REPORT = "run.json"
CONFIG_ECHO = "config.ini"
VOCAB = "vocab.json"
METRICS = "metrics.jsonl"

# the keys a resume may change: where the run lives, how far it goes (never
# below the checkpoint's step), how often it saves, and the probe, which
# reads the trained model but feeds nothing back into training
RESUMABLE_KEYS = {"[run] out", "[schedule] total_steps", "[train] checkpoint_every",
                  "[train] eval_kinds", "[train] eval_count_per_kind", "[train] eval_batch"}


def split_image_ids(ids, fraction, seed):
    """Deterministic image-level split -> (train_ids, eval_ids).  A split
    above 0 gives eval at least one image and training at least one, so a
    corpus of one image cannot be split: that is a ConfigError."""
    ids = sorted(ids)
    n_eval = int(round(len(ids) * fraction))
    if fraction > 0.0:
        if len(ids) < 2:
            raise ConfigError(f"[run] eval_split = {fraction} leaves no training image in "
                              f"a corpus of {len(ids)} image{'' if len(ids) == 1 else 's'}")
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


def load_split(cfg):
    """(corpus, lexicon, train_ids, eval_corpus, probe) of a run: the corpus
    split at image level, and the eval probe on the eval images.  Without an
    eval split, ``eval_corpus`` and ``probe`` are None."""
    corpus, lexicon = _load_or_synth_corpus(cfg)
    train_ids, eval_ids = split_image_ids(corpus.image_ids(), cfg.eval_split, cfg.seed)
    if not eval_ids:
        return corpus, lexicon, train_ids, None, None
    eval_corpus = corpus.subset(eval_ids)
    return corpus, lexicon, train_ids, eval_corpus, eval_questions(cfg, eval_corpus)


def require_eval_split(cfg, what):
    """Refuse, from the config alone, a run that holds no eval images.
    `split_image_ids` gives every non-empty corpus an eval image exactly when
    ``eval_split`` is above 0, so no file needs to be read to tell."""
    if cfg.eval_split <= 0:
        raise ConfigError(f"{what} has no eval split ([run] eval_split = 0)")


def restore_checkpoint(state, cfg, corpus, vocab):
    """(Model, AdamState) from a loaded checkpoint ``state``, or a
    CheckpointError naming what differs when it was written under another
    vocab, corpus or model config than the run ``cfg`` rebuilds."""
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
    return restore_model(state)


def run_complete(run_dir, config_text):
    """True when the directory holds a finished run of exactly this config:
    its config echo is ``config_text`` and it holds ``run.json``, the file
    ``run_training`` writes last."""
    echo = os.path.join(run_dir, CONFIG_ECHO)
    done = os.path.join(run_dir, RUN_REPORT)
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

    corpus, lexicon, train_ids, eval_corpus, probe = load_split(cfg)
    train_corpus = corpus.subset(train_ids)
    n_eval = len(eval_corpus.image_ids()) if eval_corpus else 0
    say(f"corpus: {len(train_ids)} train / {n_eval} eval images")
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
            restored = restore_checkpoint(state, cfg, corpus, vocab)
            start_step = state.step
            if start_step > cfg.schedule["total_steps"]:
                raise ConfigError(f"[schedule] total_steps = {cfg.schedule['total_steps']} is "
                                  f"below step {start_step} of the checkpoint {ckpt_path}")
            echo = os.path.join(run_dir, CONFIG_ECHO)
            changed = [k for k in changed_keys(load_run_config(echo), cfg)
                       if k not in RESUMABLE_KEYS]
            if changed:
                raise ConfigError(f"{', '.join(changed)}: differ from {echo}, the config "
                                  "that trained the checkpoint; a resume continues a run "
                                  "under its own config")
            logged = read_metrics(os.path.join(run_dir, METRICS), start_step)

        # results of an earlier run must not pass for results of this config
        for name in (EVAL_REPORT, PREDICTIONS, RUN_REPORT):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(run_dir, name))
        with atomic_write(os.path.join(run_dir, CONFIG_ECHO)) as f:
            f.write(cfg.source_text)
    vocab.save(os.path.join(run_dir, VOCAB))
    say(f"vocab: {len(vocab)} tokens")
    stage_done("vocab")

    if restored:
        model, opt = restored
        say(f"resumed at step {start_step}")
    else:
        model = Model(cfg.model_config(len(vocab)), seed=cfg.seed)
        opt = AdamState(lr=cfg.train["lr"])

    sizes = {k: len(v) for k, v in datasets.items()}
    schedule = build_schedule(cfg.mixture_spec(), cfg.schedule_config(), sizes)

    images = {i: corpus.images[i].pixels for i in train_ids}
    fingerprints = (vocab.fingerprint(), corpus.fingerprint())
    every = cfg.train["checkpoint_every"]

    def save(step):
        # the state carries the Adam moments, so a resumed run is bitwise
        # identical to an uninterrupted one
        save_checkpoint(checkpoint_state(model, opt, step, *fingerprints), ckpt_path)

    with open(os.path.join(run_dir, METRICS), "w") as metrics:
        metrics.writelines(json.dumps(rec) + "\n" for rec in logged)

        def after_step(rec):
            metrics.write(json.dumps(rec) + "\n")
            if every and (rec["step"] + 1) % every == 0:
                save(rec["step"] + 1)

        history = train(model, schedule[start_step:], datasets, vocab, opt, images, after_step)
    save(len(schedule))
    last = history or logged  # a resume of a finished run trains no step
    final_loss = last[-1]["loss"] if last else None
    say(f"trained {len(history)} steps, final loss {final_loss}")
    stage_done("train")

    task_steps = dict.fromkeys(cfg.kinds, 0)
    for entry in schedule:
        task_steps[entry.component] += 1
    summary = {
        "steps": cfg.schedule["total_steps"],
        "task_steps": task_steps,
        "final_loss": final_loss,
        "n_train_images": len(train_ids),
        "n_eval_images": n_eval,
        "kinds": cfg.kinds,
        "policy": cfg.tasks["policy"],
        "seed": cfg.seed,
        # timings, filled below; excluded from idempotency checks
        "wall_seconds": None,
        "stage_seconds": None,
        "steps_per_second": None,
    }

    if probe is not None:
        report = evaluate_run(model, vocab, probe, eval_corpus, cfg.train["eval_batch"],
                              run_dir)
        summary["eval"] = _eval_summary(report)
        say(f"eval exact match {report.overall_exact_match:.3f}")
    stage_done("eval")

    summary["wall_seconds"] = round(time.perf_counter() - t0, 3)
    summary["stage_seconds"] = _stage_seconds(stage_ends)
    train_s = summary["stage_seconds"]["train"]
    summary["steps_per_second"] = round(len(history) / train_s, 3) if train_s else None
    _write_run_report(run_dir, summary)
    return summary


def _write_run_report(run_dir, summary):
    with atomic_write(os.path.join(run_dir, RUN_REPORT)) as f:
        json.dump(summary, f, sort_keys=True, indent=2)


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


def _eval_summary(report):
    """The ``eval`` block of run.json."""
    return {
        "overall_exact_match": report.overall_exact_match,
        "per_task": report.per_task,
        "hidden_penalties": report.hidden_penalties,
    }


def eval_questions(cfg, eval_corpus):
    """The eval probe: questions on the eval images, easy policy.
    ``eval_kinds`` makes the probe independent of the training mixture, so
    ablation variants trained on different kinds still answer the same
    questions.  A kind the eval images cannot supply is a ConfigError that
    names the probe."""
    kinds = [TaskKind(k) for k in (cfg.train["eval_kinds"] or cfg.kinds)]
    try:
        return list(synth_dataset(eval_corpus, kinds, cfg.train["eval_count_per_kind"],
                                  cfg.synth_config(EASY)))
    except SynthesisError as e:
        n = len(eval_corpus.image_ids())
        raise ConfigError(f"eval probe on {n} eval image{'' if n == 1 else 's'}: {e}") from None


def evaluate_run(model, vocab, probe, eval_corpus, batch_size, run_dir):
    """Score ``probe`` on the images of ``eval_corpus``, write eval.json and
    predictions.jsonl into ``run_dir``, and return the EvalReport."""
    images = {i: eval_corpus.images[i].pixels for i in eval_corpus.image_ids()}
    report = evaluate(model, vocab, probe, images, corpus=eval_corpus, batch_size=batch_size)
    with atomic_write(os.path.join(run_dir, EVAL_REPORT)) as f:
        f.write(report.to_json())
    write_predictions(os.path.join(run_dir, PREDICTIONS),
                      [it["id"] for it in report.items],
                      [it["prediction"] for it in report.items])
    return report


def evaluate_saved_run(run_dir):
    """Re-score a finished run from its directory alone: the echoed config,
    the checkpoint's parameters (no Adam moments) and the stored vocab.
    A checkpoint not at the run's ``total_steps`` is refused: its scores
    are not those of the echoed config.  Rewrites eval.json and
    predictions.jsonl, and the ``eval`` block of run.json when the run has
    one (its presence marks a finished run, so it is never created here),
    and returns the EvalReport."""
    cfg = load_run_config(os.path.join(run_dir, CONFIG_ECHO))
    require_eval_split(cfg, f"run {run_dir}")
    ckpt_path = os.path.join(run_dir, CHECKPOINT)
    state = load_checkpoint(ckpt_path, optimizer=False)
    total = cfg.schedule["total_steps"]
    if state.step != total:
        raise CheckpointError(f"checkpoint {ckpt_path} is at step {state.step}, but the run's "
                              f"[schedule] total_steps = {total}; finish the run with "
                              "train --resume before eval")
    vocab = Vocab.load(os.path.join(run_dir, VOCAB))
    run_report = os.path.join(run_dir, RUN_REPORT)
    summary = None
    if os.path.exists(run_report):
        summary = read_input(run_report, read_json)
        if not isinstance(summary, dict):
            raise ParseError(f"{run_report}: not a JSON object")
    corpus, _, _, eval_corpus, probe = load_split(cfg)
    model, _ = restore_checkpoint(state, cfg, corpus, vocab)
    # the model holds the parameters and the probe reads only the eval
    # images, so neither the state nor the training images stay alive
    del state, corpus
    report = evaluate_run(model, vocab, probe, eval_corpus, cfg.train["eval_batch"], run_dir)
    if summary is not None:
        summary["eval"] = _eval_summary(report)
        _write_run_report(run_dir, summary)
    return report


def read_metrics(path, before_step):
    """The records of the metrics log at ``path`` for steps before
    ``before_step``, in file order, so that a resumed run does not log a
    step twice; none if there is no log.  A partial last line, left by a
    killed run, is dropped.  A complete line that is not a step record is a
    ParseError naming ``path`` and the line."""
    if not os.path.exists(path):
        return []
    kept = []
    with open(path, "rb") as f:
        for n, line in enumerate(f, 1):
            if not line.endswith(b"\n"):
                break
            try:
                rec = json.loads(line)
                ok = isinstance(rec["step"], int) and isinstance(rec["loss"], (int, float))
            except (ValueError, TypeError, KeyError):
                ok = False
            if not ok:
                raise ParseError(f"{path}:{n}: not a step record")
            if rec["step"] < before_step:
                kept.append(rec)
    return kept


def load_run_report(run_dir):
    with open(os.path.join(run_dir, EVAL_REPORT)) as f:
        return json.load(f)

