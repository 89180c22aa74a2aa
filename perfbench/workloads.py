"""The three benchmark workloads.

Each workload runs in this one process as a closed loop of passes: a pass
starts only after the previous one finished, and passes repeat until the
time budget is spent.  Every pass of a run uses the run's seed, so every pass
must produce the same numbers; that is one of the output checks.

- ``train_mix8``: one ``runner.run_training`` call of the acceptance-criterion-8
  config per pass (all 8 kinds, d_model 64, 2+2 layers, batch 16, periodic
  checkpoints).  Nearly all of it is tape work: forward, backward, Adam.
- ``eval_decode``: ``mixpretrain eval`` on a run directory that set-up trained
  once.  The probe covers all 8 kinds, so one-word yes/no answers sit beside
  long captions.  No backward, no Adam: no-grad forward and greedy decode.
  A traced run trains that run directory under the tracer, so that its
  per-layer metrics cover the training layers too.
- ``data_pipeline``: the pure-Python side with no tape work: corpus synthesis,
  corpus save/load, hard-policy task files written and read back, vocab,
  schedule, batch assembly over the schedule and offline scoring of a
  caption-heavy prediction file.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
from time import perf_counter

import tracing as tr

ALL_KINDS = ("caption", "completion", "itm", "mlm", "oa_list", "oa_exists", "oa_andor", "oa_which")
OA_KINDS = ("oa_list", "oa_exists", "oa_andor", "oa_which")

# train_mix8: the criterion-8 config; steps per pass are the benchmark's choice.
TRAIN_STEPS = 200
CHECKPOINT_EVERY = 25

# eval_decode: set-up trains a full criterion-8 run (1200 steps).  Shorter
# runs answer every question with one word ("yes"), which would make the
# share of wasted decode positions unrepresentative.  The probe then asks
# EVAL_PER_KIND questions of each of the 8 kinds.
FIXTURE_STEPS = 1200
EVAL_PER_KIND = 150

# data_pipeline: about 4x the criterion-8 corpus.
DATA_IMAGES = 2000
DATA_HIDDEN_RATE = 0.15
DATA_PER_KIND = 1500
DATA_SCHEDULE_STEPS = 1000
BATCH = 16
LIMITS = (20, 16)  # max_prompt, max_target of the criterion-8 config

# Set-up is timed once in every untraced pass and SETUP_SAMPLES more times
# after it, by running the workload's entry point up to the call that ends
# set-up and stopping there; setup_s is the median of all of them.  Every
# pass and sample starts with a full garbage collection, so that none pays
# for the garbage of the one before: on a 2-vCPU machine this halved the
# spread of set-up times.
SETUP_SAMPLES = 3

RUN_INI = """
[run]
seed = {seed}
out = {out}
eval_split = 0.2
[corpus]
n_images = 500
grid = 3
cell = 8
[tasks]
kinds = {kinds}
count_per_kind = 600
[schedule]
total_steps = {steps}
batch_size = 16
[model]
d_model = 64
n_heads = 4
n_encoder_layers = 2
n_decoder_layers = 2
d_ff = 256
patch = 8
max_prompt = 20
max_target = 16
[train]
lr = 0.002
checkpoint_every = {checkpoint_every}
eval_kinds = {eval_kinds}
eval_count_per_kind = {eval_per_kind}
"""


def run_config_text(seed, out, steps, checkpoint_every, eval_kinds, eval_per_kind):
    return RUN_INI.format(seed=seed, out=out, kinds=" ".join(ALL_KINDS), steps=steps,
                          checkpoint_every=checkpoint_every, eval_kinds=" ".join(eval_kinds),
                          eval_per_kind=eval_per_kind)


def _sha256(blob):
    return hashlib.sha256(blob).hexdigest()


def _file_sha256(path):
    with open(path, "rb") as f:
        return _sha256(f.read())


def corpus_digest(corpus):
    """Annotation fingerprint plus the bytes of every image."""
    h = hashlib.sha256(corpus.fingerprint().encode())
    for image_id in corpus.image_ids():
        h.update(image_id.encode())
        h.update(corpus.images[image_id].pixels.tobytes())
    return h.hexdigest()


class Workload:
    """Shared pass loop.  Subclasses set ``probes`` and supply ``one_pass``,
    which returns a record with at least ``wall_s``, ``setup_s``, ``op_ms``
    (the latencies of the workload's repeated operation), ``items`` and
    ``items_s`` (work done and the time it took).  Those with ``setup_end``
    also supply ``entry``, the call that set-up samples stop early."""

    name = ""
    probes = ()  # spans recorded when tracing is off
    deterministic_keys = ()  # record keys every pass must reproduce exactly
    min_passes = 2  # so that reproduction is checked at least once
    setup_end = None  # span whose first call ends set-up inside ``entry``

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work_dir = work_dir
        self.checks = []
        self.operations = 0  # what error_rate divides by
        self.fixture_s = 0.0
        self.tracer = None

    def check(self, name, ok, detail=""):
        self.checks.append({"name": name, "ok": bool(ok), "detail": str(detail)})

    def setup_run(self, tracer):
        """One-off preparation outside every pass.  ``tracer`` is the traced
        passes' tracer, or None when the run is untraced."""

    def entry(self, out):
        """The user-facing call a pass measures, writing under ``out``."""
        raise NotImplementedError

    def one_pass(self, index):
        raise NotImplementedError

    def after_pass(self, index, record):
        """Output checks that call into the package, made once the pass's
        tracer is uninstalled so that they stay out of the spans."""

    def time_setup(self, index):
        """Seconds ``entry`` takes to reach ``setup_end``, which is not run."""
        out = self.pass_dir(f"{index}-setup")
        gc.collect()
        with tr.stop_at(self.setup_end):
            t0 = perf_counter()
            try:
                self.entry(out)
            except tr.Stopped:
                return perf_counter() - t0
            finally:
                shutil.rmtree(out, ignore_errors=True)
        raise RuntimeError(f"{self.name}: set-up never reached {self.setup_end}")

    def spans(self, name):
        """(start, end) of each ``name`` span of the pass under way."""
        t = self.tracer
        i = t._name_ids.get(name)
        if i is None:
            return []
        return [(t.start[k], t.end[k]) for k in range(self.pass_lo, len(t.start))
                if t.name_id[k] == i]

    def run(self, seconds, traced):
        """Passes until ``seconds`` are spent, at least ``min_passes``.  With
        ``traced``, passes alternate untraced and traced, starting untraced.
        Returns (pass records, the tracer of the traced passes or None)."""
        full = tr.Tracer() if traced else None
        t0 = perf_counter()
        self.setup_run(full)
        self.fixture_s = perf_counter() - t0
        passes = []
        start = perf_counter()
        while True:
            lap = perf_counter()
            index = len(passes)
            use_full = traced and index % 2 == 1
            self.tracer = full if use_full else tr.Tracer()
            self.tracer.pass_index = index
            self.pass_lo = len(self.tracer.start)
            self.tracer.install(list(tr.TARGETS) if use_full else self.probes)
            gc.collect()
            try:
                record = self.one_pass(index)
            finally:
                self.tracer.uninstall()
            self.after_pass(index, record)
            record["setup_samples"] = [record["setup_s"]]
            if self.setup_end and not use_full:
                record["setup_samples"] += [self.time_setup(index) for _ in range(SETUP_SAMPLES)]
            record.update(index=index, traced=use_full)
            passes.append(record)
            now = perf_counter()
            if len(passes) >= self.min_passes and (now - start) + (now - lap) > seconds:
                break
        for key in self.deterministic_keys:
            values = sorted({json.dumps(p[key]) for p in passes})
            self.check(f"{key} identical in every pass", len(values) == 1, values)
        return passes, full

    def pass_dir(self, index):
        return os.path.join(self.work_dir, f"pass{index}")


# ---------------------------------------------------------------------------

class TrainMix8(Workload):
    name = "train_mix8"
    probes = ("model.train", "mixture.make_batch")
    deterministic_keys = ("final_loss", "heldout_em", "losses_sha256")
    setup_end = "model.train"

    def entry(self, out):
        import mixpretrain.config as config
        import mixpretrain.runner as runner

        return runner.run_training(config.parse_run_config(run_config_text(
            self.seed, out, TRAIN_STEPS, CHECKPOINT_EVERY, OA_KINDS, 40)))

    def one_pass(self, index):
        out = self.pass_dir(index)
        self.operations += TRAIN_STEPS
        t0 = perf_counter()
        summary = self.entry(out)
        t1 = perf_counter()

        # a step runs from its make_batch call to the next one, or to the
        # end of model.train for the last step
        (train_start, train_end), = self.spans("model.train")
        steps = [s for s, _ in self.spans("mixture.make_batch") if train_start <= s <= train_end]
        step_ms = [1000 * (b - a) for a, b in zip(steps, steps[1:] + [train_end])]

        with open(os.path.join(out, "metrics.jsonl")) as f:
            losses = [json.loads(line)["loss"] for line in f if line.strip()]
        self.check(f"pass {index}: {TRAIN_STEPS} losses logged, all finite",
                   len(losses) == TRAIN_STEPS and all(math.isfinite(v) for v in losses),
                   f"{len(losses)} logged")
        return {
            "wall_s": t1 - t0,
            "setup_s": train_start - t0,
            "op_ms": step_ms,
            "items": len(step_ms),
            "items_s": train_end - steps[0],
            "final_loss": summary["final_loss"],
            "heldout_em": summary["eval"]["overall_exact_match"],
            "losses_sha256": _sha256(json.dumps(losses).encode()),
        }

    def after_pass(self, index, record):
        import mixpretrain.model as model
        import mixpretrain.runner as runner

        try:
            state = model.load_checkpoint(os.path.join(self.pass_dir(index), runner.CHECKPOINT))
            ok, detail = state.step == TRAIN_STEPS, f"checkpoint at step {state.step}"
        except model.CheckpointError as e:
            ok, detail = False, e
        self.check(f"pass {index}: final checkpoint passes the digest check", ok, detail)


class EvalDecode(Workload):
    name = "eval_decode"
    probes = ("model.generate_batch", "evalkit.evaluate")
    deterministic_keys = ("heldout_em", "caption_cider", "predictions_sha256")
    setup_end = "evalkit.evaluate"

    def setup_run(self, tracer):
        """Train the run directory that every pass re-evaluates: in a child
        process, so that its memory stays out of this one's peak, or under
        ``tracer`` in this process when the run is traced."""
        import mixpretrain
        import mixpretrain.cli as cli
        import mixpretrain.runner as runner

        self.run_dir = os.path.join(self.work_dir, "run")
        os.makedirs(self.work_dir, exist_ok=True)
        # train with a one-question-per-kind probe, then widen the probe for
        # the measured re-evaluations
        fixture = os.path.join(self.work_dir, "fixture.ini")
        with open(fixture, "w") as f:
            f.write(run_config_text(self.seed, self.run_dir, FIXTURE_STEPS, 0, ALL_KINDS, 1))
        train = ["train", "--config", fixture, "--out", self.run_dir]
        if tracer is None:
            src = os.path.dirname(os.path.dirname(os.path.abspath(mixpretrain.__file__)))
            subprocess.run(
                [sys.executable, "-c", "import sys; from mixpretrain.cli import main; "
                 "sys.exit(main(sys.argv[1:]))", *train],
                env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.DEVNULL, check=True,
                timeout=600)
        else:
            tracer.install(list(tr.TARGETS))
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(train)
            finally:
                tracer.uninstall()
            if code != 0:
                raise RuntimeError(f"mixpretrain train exited {code}")
        with open(os.path.join(self.run_dir, runner.CONFIG_ECHO), "w") as f:
            f.write(run_config_text(self.seed, self.run_dir, FIXTURE_STEPS, 0, ALL_KINDS,
                                    EVAL_PER_KIND))
        self.expected_items = len(ALL_KINDS) * EVAL_PER_KIND
        self.check_decode_repeats()

    def check_decode_repeats(self):
        """Decode one batch of the probe twice and compare the ids."""
        import mixpretrain.config as config
        import mixpretrain.corpus as corpus_mod
        import mixpretrain.mixture as mixture
        import mixpretrain.model as model
        import mixpretrain.runner as runner

        cfg = config.load_run_config(os.path.join(self.run_dir, runner.CONFIG_ECHO))
        net, _ = model.restore_model(model.load_checkpoint(
            os.path.join(self.run_dir, runner.CHECKPOINT)))
        vocab = model.Vocab.load(os.path.join(self.run_dir, "vocab.json"))
        c = cfg.corpus
        pool = corpus_mod.synth_corpus(seed=cfg.seed, n_images=c["n_images"], grid=c["grid"],
                                       hidden_rate=c["hidden_rate"], cell=c["cell"])
        _, eval_ids = runner.split_image_ids(pool.image_ids(), cfg.eval_split, cfg.seed)
        probe = runner.eval_questions(cfg, pool.subset(eval_ids))
        size = cfg.train["eval_batch"]
        batch = mixture.make_batch(probe[::max(1, len(probe) // size)][:size], vocab, LIMITS,
                                   images={i: pool.images[i].pixels for i in eval_ids})
        ids = [net.generate_batch(batch.images, batch.prompt_ids, prompt_mask=batch.prompt_mask)
               for _ in range(2)]
        self.check("decoding one probe batch twice gives identical ids", ids[0] == ids[1],
                   f"{len(ids[0])} rows")

    def entry(self, out):
        import mixpretrain.cli as cli

        with contextlib.redirect_stdout(io.StringIO()):  # keep the result line last
            return cli.main(["eval", "--run", self.run_dir])

    def one_pass(self, index):
        import mixpretrain.runner as runner

        self.operations += self.expected_items
        t0 = perf_counter()
        code = self.entry(self.run_dir)
        t1 = perf_counter()
        self.check(f"pass {index}: mixpretrain eval exit code 0", code == 0, code)

        batches = self.spans("model.generate_batch")
        (eval_start, eval_end), = self.spans("evalkit.evaluate")
        report = runner.load_run_report(self.run_dir)
        with open(os.path.join(self.run_dir, "predictions.jsonl"), "rb") as f:
            blob = f.read()
        n_pred = sum(1 for line in blob.splitlines() if line.strip())
        n_items = report["overall"]["n_items"]
        self.check(f"pass {index}: one prediction per probe item",
                   n_pred == n_items == self.expected_items,
                   f"{n_pred} predictions, {n_items} items, {self.expected_items} asked")

        return {
            "wall_s": t1 - t0,
            "setup_s": eval_start - t0,
            "op_ms": [1000 * (b - a) for a, b in batches],
            "items": n_items,
            "items_s": eval_end - eval_start,
            "heldout_em": report["overall"]["exact_match"],
            "caption_cider": report["per_task"]["caption"]["cider"],
            "predictions_sha256": _sha256(blob),
        }


class DataPipeline(Workload):
    name = "data_pipeline"
    deterministic_keys = ("task_digests", "score_digest")

    def setup_run(self, tracer):
        """Synthesize the corpus once as the reference for the repeat check,
        and write the caption-heavy prediction file scored in every pass."""
        import mixpretrain.corpus as corpus_mod
        import mixpretrain.evalkit as evalkit

        corpus = corpus_mod.synth_corpus(self.seed, DATA_IMAGES, grid=3, cell=8,
                                         hidden_rate=DATA_HIDDEN_RATE)
        self.reference_digest = corpus_digest(corpus)
        rows, preds = scoring_fixture(corpus, self.seed)
        os.makedirs(self.work_dir, exist_ok=True)
        self.truth_path = os.path.join(self.work_dir, "truth.jsonl")
        self.pred_path = os.path.join(self.work_dir, "predictions.jsonl")
        evalkit.write_ground_truth(self.truth_path, rows)
        evalkit.write_predictions(self.pred_path, [r[0] for r in rows], preds)
        self.n_scored = len(rows)

    def one_pass(self, index):
        import mixpretrain
        import mixpretrain.corpus as corpus_mod
        import mixpretrain.evalkit as evalkit
        import mixpretrain.mixture as mixture
        import mixpretrain.model as model
        import mixpretrain.tasksynth as tasksynth

        out = self.pass_dir(index)
        kinds = [tasksynth.TaskKind(k) for k in ALL_KINDS]
        lexicon = mixpretrain.load_bundled_lexicon()
        self.operations += 6 + DATA_SCHEDULE_STEPS

        t0 = perf_counter()
        corpus = corpus_mod.synth_corpus(self.seed, DATA_IMAGES, grid=3, cell=8,
                                         hidden_rate=DATA_HIDDEN_RATE)
        t1 = perf_counter()
        corpus_mod.save_corpus(corpus, os.path.join(out, "corpus"), lexicon=lexicon)
        loaded, _ = corpus_mod.load_corpus(os.path.join(out, "corpus"))
        t2 = perf_counter()
        scfg = tasksynth.SynthConfig(seed=self.seed, policy=tasksynth.HARD)
        paths = tasksynth.write_task_files(loaded, kinds, DATA_PER_KIND, scfg,
                                           os.path.join(out, "tasks"), lexicon=lexicon)
        t3 = perf_counter()
        datasets = {k.value: tasksynth.load_task_file(paths[k]) for k in kinds}
        examples = [ex for exs in datasets.values() for ex in exs]
        vocab = model.build_vocab(examples)
        schedule = mixture.build_schedule(
            mixture.MixtureSpec.equal(list(datasets)),
            mixture.ScheduleConfig(total_steps=DATA_SCHEDULE_STEPS, batch_size=BATCH,
                                   seed=self.seed),
            {k: len(v) for k, v in datasets.items()})
        images = {i: loaded.images[i].pixels for i in loaded.image_ids()}
        batch_ms = []
        for entry in schedule:
            b0 = perf_counter()
            mixture.make_batch([datasets[entry.component][i] for i in entry.example_ids],
                               vocab, LIMITS, images=images)
            batch_ms.append(1000 * (perf_counter() - b0))
        t4 = perf_counter()
        report = evalkit.score_files(self.pred_path, self.truth_path)
        t5 = perf_counter()

        with open(os.path.join(out, "tasks", "synth_manifest.json")) as f:
            counts = json.load(f)["counts"]
        self.check(f"pass {index}: manifest counts equal the requested counts",
                   counts == {k: DATA_PER_KIND for k in ALL_KINDS}, counts)
        digest = corpus_digest(corpus)
        self.check(f"pass {index}: corpus fingerprint survives save/load",
                   loaded.fingerprint() == corpus.fingerprint() and corpus_digest(loaded) == digest)
        self.check(f"pass {index}: corpus synthesis repeats byte for byte",
                   digest == self.reference_digest)
        self.check(f"pass {index}: every prediction scored",
                   len(report.items) == self.n_scored, len(report.items))

        return {
            "wall_s": t5 - t0,
            "setup_s": t1 - t0,
            "op_ms": batch_ms,
            "items": len(examples),
            "items_s": t3 - t2,
            "score_items": len(report.items),
            "score_s": t5 - t4,
            "exact_match": report.overall_exact_match,
            "caption_cider": report.per_task["caption"]["cider"],
            "task_digests": {k.value: _file_sha256(paths[k]) for k in kinds},
            "score_digest": _sha256(report.to_json().encode()),
        }


def scoring_fixture(corpus, seed):
    """Ground-truth rows and predictions for offline scoring, made by the
    benchmark from ``seed``: every caption, perturbed in a share of the
    predictions, plus a list question for every image with hidden positives
    (some predictions name a hidden object, which the scorer must count as a
    hidden-label penalty)."""
    rng = random.Random(f"perfbench-scoring|{seed}")
    names = corpus.all_class_names()
    rows, preds = [], []
    for image_id in corpus.image_ids():
        for k, cap in enumerate(corpus.captions.get(image_id, [])):
            words = cap.caption.split()
            r = rng.random()
            if r < 0.35:
                pred = words
            elif r < 0.7 and len(words) > 1:
                pred = words[:]
                del pred[rng.randrange(len(pred))]
            else:
                pred = words[:]
                pred[rng.randrange(len(pred))] = rng.choice(names)
            rows.append((f"cap:{image_id}:{k}", [cap.caption], "caption", ()))
            preds.append(" ".join(pred))
        hidden = sorted(corpus.display_name(c) for c in corpus.hidden_positives.get(image_id, ()))
        positives = sorted(corpus.positive_names(image_id))
        if hidden and positives:
            truth = ", ".join(positives)
            rows.append((f"list:{image_id}", [truth], "oa_list", tuple(hidden)))
            r = rng.random()
            preds.append(truth if r < 0.4 else
                         ", ".join(sorted(positives + hidden[:1])) if r < 0.8 else
                         ", ".join(sorted(rng.sample(names, 2))))
    return rows, preds


WORKLOADS = {w.name: w for w in (TrainMix8, EvalDecode, DataPipeline)}
