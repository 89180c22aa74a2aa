"""Acceptance gate: nine checks, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Each check is deterministic (fixed seeds) and carries its own runtime budget.
"""

import hashlib
import os
import random
import re
import statistics
import string
import time
import warnings

from mixpretrain import load_bundled_lexicon
from mixpretrain.config import parse_run_config
from mixpretrain.corpus import synth_corpus
from mixpretrain.evalkit import (
    EvalItem,
    cider,
    exact_match,
    predict,
    score_items,
)
from mixpretrain.mixture import MixtureSpec, ScheduleConfig, build_schedule, sample_component
from mixpretrain.model import (
    AdamState,
    Model,
    ModelConfig,
    build_vocab,
    checkpoint_state,
    load_checkpoint,
    restore_model,
    save_checkpoint,
    train,
)
from mixpretrain.gradcheck import SEEDS, TOLERANCE, gradcheck_suite
from mixpretrain.runner import run_training
from mixpretrain.tasksynth import (
    HARD,
    SynthConfig,
    TaskKind,
    normalize_caption,
    synth_dataset,
    write_task_files,
)

from test_evalkit import _cider_reference


def _verdict(num, name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# 1. gradient suite

def test_criterion_1_gradient_suite():
    t0 = time.time()
    worst = gradcheck_suite(seeds=SEEDS)
    elapsed = time.time() - t0
    peak = max(worst.values())
    ok = peak < TOLERANCE and elapsed < 60.0
    _verdict(1, "gradient suite", ok,
             f"{len(worst)} cases over {len(SEEDS)} seeds, max rel err {peak:.3e} < {TOLERANCE}, "
             f"{elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# 2. overfit smoke

def test_criterion_2_overfit():
    t0 = time.time()
    corpus = synth_corpus(seed=21, n_images=40, grid=2, cell=4)
    examples = list(synth_dataset(corpus, [TaskKind.CAPTION], 32, SynthConfig(seed=21)))[:32]
    vocab = build_vocab(examples)
    cfg = ModelConfig(vocab_size=len(vocab), d_model=64, n_heads=4, n_encoder_layers=2,
                      n_decoder_layers=2, d_ff=128, patch=4, image_size=8,
                      max_prompt=12, max_target=16)
    model = Model(cfg, seed=21)
    schedule = build_schedule(MixtureSpec.equal(["caption"]),
                              ScheduleConfig(total_steps=300, batch_size=32, seed=21),
                              {"caption": len(examples)})
    images = {i: corpus.images[i].pixels for i in corpus.image_ids()}
    history = train(model, schedule, {"caption": examples}, vocab,
                    AdamState(lr=2e-3), images=images)
    loss = history[-1]["loss"]
    preds = predict(model, vocab, examples, images, batch_size=len(examples))
    em = sum(exact_match(p, [e.target]) for p, e in zip(preds, examples)) / len(examples)
    elapsed = time.time() - t0
    ok = loss < 0.1 and em == 1.0 and elapsed < 180.0
    _verdict(2, "overfit smoke", ok,
             f"32 examples, 300 steps: loss {loss:.4f} < 0.1, train EM {em:.3f} == 1.0, "
             f"{elapsed:.1f}s < 180s")


# ---------------------------------------------------------------------------
# 3. mixture statistics

CHI2_CRIT_DF7_P999 = 24.322  # chi-square upper 0.999 quantile, 7 degrees of freedom


def test_criterion_3_mixture_statistics():
    t0 = time.time()
    names = [k.value for k in TaskKind]
    spec = MixtureSpec.equal(names)
    n_draws, expect = 80_000, 10_000

    rng = random.Random(0)
    counts = [0] * len(names)
    for _ in range(n_draws):
        counts[sample_component(spec, rng)] += 1
    window_ok = all(abs(c - expect) <= 300 for c in counts)

    worst_stat = 0.0
    for seed in range(20):
        rng = random.Random(seed)
        cs = [0] * len(names)
        for _ in range(n_draws):
            cs[sample_component(spec, rng)] += 1
        stat = sum((c - expect) ** 2 / expect for c in cs)
        worst_stat = max(worst_stat, stat)
    elapsed = time.time() - t0
    ok = window_ok and worst_stat < CHI2_CRIT_DF7_P999 and elapsed < 10.0
    _verdict(3, "mixture statistics", ok,
             f"seed-0 counts {counts} all within 10000+/-300: {window_ok}; "
             f"20-seed max chi2 {worst_stat:.2f} < {CHI2_CRIT_DF7_P999} (p > 0.001); "
             f"{elapsed:.1f}s < 10s")


# ---------------------------------------------------------------------------
# 4. synthesis determinism and validity

OA_KINDS = [TaskKind.OA_LIST, TaskKind.OA_EXISTS, TaskKind.OA_ANDOR, TaskKind.OA_WHICH]


def _dir_digests(path):
    out = {}
    for name in sorted(os.listdir(path)):
        if name.endswith(".jsonl"):
            with open(os.path.join(path, name), "rb") as f:
                out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


def _recompute_oa_target(ex, positives):
    """Brute-force truth from the prompt text and the label table alone."""
    if ex.kind == TaskKind.OA_LIST:
        return ", ".join(sorted(positives))
    if ex.kind == TaskKind.OA_EXISTS:
        name = re.fullmatch(r"does (.+) exist\?", ex.prompt).group(1)
        return "yes" if name in positives else "no"
    if ex.kind == TaskKind.OA_ANDOR:
        body = re.fullmatch(r"does (.+) exist\?", ex.prompt).group(1)
        conj = " or " if " or " in body else " and "
        head, tail = body.rsplit(conj, 1)
        names = head.split(", ") + [tail]
        hit = [n in positives for n in names]
        return ("yes" if any(hit) else "no") if conj == " or " else ("yes" if all(hit) else "no")
    if ex.kind == TaskKind.OA_WHICH:
        body = re.fullmatch(r"which of (.+) exist\?", ex.prompt).group(1)
        head, tail = body.rsplit(" and ", 1)
        names = head.split(", ") + [tail]
        return ", ".join(n for n in names if n in positives)
    raise AssertionError(ex.kind)


def test_criterion_4_synthesis_determinism_and_validity(tmp_path):
    t0 = time.time()
    corpus = synth_corpus(seed=31, n_images=150, grid=3, cell=4)
    cfg = SynthConfig(seed=31)
    lexicon = load_bundled_lexicon()

    kinds = list(TaskKind)
    write_task_files(corpus, kinds, 120, cfg, str(tmp_path / "a"), lexicon=lexicon)
    write_task_files(corpus, kinds, 120, cfg, str(tmp_path / "b"), lexicon=lexicon)
    da, db = _dir_digests(tmp_path / "a"), _dir_digests(tmp_path / "b")
    digest_ok = da == db and len(da) == len(kinds)

    mismatches = 0
    n_checked = 0
    for kind in OA_KINDS:
        for ex in synth_dataset(corpus, [kind], 2500, cfg):
            positives = set(corpus.positive_names(ex.image_id))
            if _recompute_oa_target(ex, positives) != ex.target:
                mismatches += 1
            n_checked += 1
    elapsed = time.time() - t0
    ok = digest_ok and mismatches == 0 and n_checked == 10_000 and elapsed < 60.0
    _verdict(4, "synthesis determinism and validity", ok,
             f"rerun digests identical over {len(da)} files: {digest_ok}; "
             f"{n_checked} OA examples recomputed, {mismatches} mismatches; {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# 5. hard-negative validity

def test_criterion_5_hard_negative_validity():
    t0 = time.time()
    corpus = synth_corpus(seed=33, n_images=300, grid=3, cell=4)
    lexicon = load_bundled_lexicon()
    cfg = SynthConfig(seed=33, policy=HARD)

    punct = string.punctuation

    def one_token_swap_ok(cand, image_id):
        # valid against any true caption of the image: same length, exactly one
        # position changed, punctuation around the token intact, and the
        # replacement noun drawn from the original noun's related set
        for rec in corpus.captions[image_id]:
            src = normalize_caption(rec.caption).split()
            if len(src) != len(cand):
                continue
            diffs = [i for i, (a, b) in enumerate(zip(src, cand)) if a != b]
            if len(diffs) != 1:
                continue
            a, b = src[diffs[0]], cand[diffs[0]]
            if a.strip(punct) and a.replace(a.strip(punct), b.strip(punct), 1) == b \
                    and b.strip(punct) in lexicon.entries.get(a.strip(punct), ()):
                return True
        return False

    itm_violations = 0
    n_itm = 0
    for ex in synth_dataset(corpus, [TaskKind.ITM], 4000, cfg, lexicon=lexicon):
        if ex.target != "no" or ex.meta.get("fallback"):
            continue
        cand = ex.prompt.split("? ", 1)[1].split()
        if not one_token_swap_ok(cand, ex.image_id):
            itm_violations += 1
        n_itm += 1
        if n_itm == 1000:
            break

    class_of = {e.display_name: e.class_id for e in corpus.classes.values()}
    exists_violations = 0
    n_exists = 0
    for ex in synth_dataset(corpus, [TaskKind.OA_EXISTS], 4000, cfg):
        if ex.target != "no":
            continue
        name = re.fullmatch(r"does (.+) exist\?", ex.prompt).group(1)
        if class_of[name] not in corpus.verified_negative_class_ids(ex.image_id):
            exists_violations += 1
        n_exists += 1
        if n_exists == 1000:
            break

    elapsed = time.time() - t0
    ok = (n_itm == 1000 and n_exists == 1000
          and itm_violations == 0 and exists_violations == 0)
    _verdict(5, "hard-negative validity", ok,
             f"{n_itm} hard ITM negatives, {itm_violations} violations; "
             f"{n_exists} hard exists negatives, {exists_violations} violations; "
             f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. scorer oracles

def _naive_norm(s):
    t = " ".join(s.lower().split())
    if t.endswith("."):  # only the terminal period is stripped
        t = t[:-1].rstrip()
    return t


def _random_answer(rng):
    words = ["dog", "cat", "tree", "a", "photo", "yes", "no", "ball", "Cup", "BOAT"]
    n = rng.randint(1, 5)
    body = " ".join(rng.choice(words) for _ in range(n))
    if rng.random() < 0.3:
        body = body.replace(" ", "   ", 1)
    if rng.random() < 0.3:
        body = "  " + body + " "
    if rng.random() < 0.3:
        body += "."
    return body


def test_criterion_6_scorer_oracles():
    t0 = time.time()
    rng = random.Random(6)
    disagreements = 0
    for _ in range(10_000):
        pred = _random_answer(rng)
        gts = [_random_answer(rng) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            gts[rng.randrange(len(gts))] = pred.upper() + "  "
        want = int(any(_naive_norm(pred) == _naive_norm(g) for g in gts))
        if exact_match(pred, gts) != want:
            disagreements += 1

    worst_gap = 0.0
    rng = random.Random(60)
    letters = "abcdefgh"
    for _ in range(100):
        refsets = [[" ".join(rng.choice(letters) for _ in range(rng.randint(1, 9)))
                    for _ in range(rng.randint(1, 3))]
                   for _ in range(rng.randint(2, 6))]
        cands = [refs[0] if rng.random() < 0.5 else
                 " ".join(rng.choice(letters) for _ in range(rng.randint(1, 9)))
                 for refs in refsets]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got, _ = cider(cands, refsets)
        want = _cider_reference(cands, refsets)
        worst_gap = max(worst_gap, max(abs(g - w) for g, w in zip(got, want)))

    scores, _ = cider(["a b c d", "e f g h"], [["a b c d"], ["e f g h"]])
    ten_ok = abs(scores[0] - 10.0) < 1e-9 and abs(scores[1] - 10.0) < 1e-9

    elapsed = time.time() - t0
    ok = disagreements == 0 and worst_gap < 1e-9 and ten_ok
    _verdict(6, "scorer oracles", ok,
             f"exact_match vs naive oracle: {disagreements}/10000 disagreements; "
             f"cider vs brute force over 100 corpora: max gap {worst_gap:.2e} < 1e-9; "
             f"unique-n-gram identity scores 10: {ten_ok}; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. hidden-positive penalization diagnostic

def test_criterion_7_penalty_diagnostic():
    t0 = time.time()
    corpus = synth_corpus(seed=41, n_images=250, grid=3, cell=4, hidden_rate=0.3)
    examples = list(synth_dataset(corpus, [TaskKind.OA_LIST], 400, SynthConfig(seed=41)))

    def hidden_names(image_id):
        return sorted(corpus.display_name(c) for c in corpus.hidden_positives.get(image_id, ()))

    rendered_items, labeled_items, expected_flips = [], [], 0
    for i, ex in enumerate(examples):
        labeled = ex.target.split(", ")
        hidden = hidden_names(ex.image_id)
        rendered_pred = ", ".join(sorted(labeled + hidden))
        rendered_items.append(EvalItem(
            example_id=str(i), prediction=rendered_pred, ground_truths=[ex.target],
            kind="oa_list", hidden_names=tuple(hidden)))
        labeled_items.append(EvalItem(
            example_id=str(i), prediction=ex.target, ground_truths=[ex.target],
            kind="oa_list", hidden_names=tuple(hidden)))
        if hidden:  # naming any hidden object breaks the match, deleting them repairs it
            expected_flips += 1

    rep_rendered = score_items(rendered_items)
    rep_labeled = score_items(labeled_items)
    elapsed = time.time() - t0
    ok = (rep_rendered.overall_exact_match < rep_labeled.overall_exact_match
          and rep_labeled.overall_exact_match == 1.0
          and rep_rendered.hidden_penalties == expected_flips
          and expected_flips > 0
          and elapsed < 30.0)
    _verdict(7, "hidden-positive penalty diagnostic", ok,
             f"rendered-objects oracle EM {rep_rendered.overall_exact_match:.3f} < "
             f"labeled-objects oracle EM {rep_labeled.overall_exact_match:.3f}; "
             f"penalty counter {rep_rendered.hidden_penalties} == verdict flips {expected_flips}; "
             f"{elapsed:.1f}s < 30s")


# ---------------------------------------------------------------------------
# 8. directional mixture effect

_DIRECTIONAL_INI = """
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
total_steps = 1200
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
eval_kinds = oa_list oa_exists oa_andor oa_which
eval_count_per_kind = 40
"""

ALL8 = "caption completion itm mlm oa_list oa_exists oa_andor oa_which"


def test_criterion_8_directional_mixture(tmp_path):
    t0 = time.time()
    scores = {"mixture": [], "caption_only": []}
    for seed in (0, 1, 2):
        for label, kinds in (("mixture", ALL8), ("caption_only", "caption")):
            cfg = parse_run_config(_DIRECTIONAL_INI.format(
                seed=seed, out=str(tmp_path / f"{label}_s{seed}"), kinds=kinds))
            summary = run_training(cfg)
            scores[label].append(summary["eval"]["overall_exact_match"])
    med_mix = statistics.median(scores["mixture"])
    med_cap = statistics.median(scores["caption_only"])
    elapsed = time.time() - t0
    ok = med_mix >= med_cap and elapsed < 45 * 60
    _verdict(8, "directional mixture effect", ok,
             f"held-out OA exact match, median over 3 seeds: 8-task mixture {med_mix:.3f} "
             f"(runs {[f'{s:.3f}' for s in scores['mixture']]}) >= caption-only {med_cap:.3f} "
             f"(runs {[f'{s:.3f}' for s in scores['caption_only']]}); "
             f"{elapsed / 60:.1f} min < 45 min")


# ---------------------------------------------------------------------------
# 9. checkpoint integrity

def _ckpt_setup(seed):
    corpus = synth_corpus(seed=seed, n_images=24, grid=2, cell=4)
    examples = list(synth_dataset(
        corpus, [TaskKind.CAPTION, TaskKind.OA_EXISTS], 20, SynthConfig(seed=seed)))
    vocab = build_vocab(examples)
    cfg = ModelConfig(vocab_size=len(vocab), d_model=16, n_heads=2, n_encoder_layers=1,
                      n_decoder_layers=1, d_ff=32, patch=4, image_size=8,
                      max_prompt=16, max_target=8)
    datasets = {"caption": [e for e in examples if e.kind == TaskKind.CAPTION],
                "oa_exists": [e for e in examples if e.kind == TaskKind.OA_EXISTS]}
    schedule = build_schedule(MixtureSpec.equal(list(datasets)),
                              ScheduleConfig(total_steps=8, batch_size=4, seed=seed),
                              {k: len(v) for k, v in datasets.items()})
    images = {i: corpus.images[i].pixels for i in corpus.image_ids()}
    return vocab, cfg, datasets, schedule, images


def test_criterion_9_checkpoint_integrity(tmp_path):
    t0 = time.time()
    roundtrip_ok = resume_ok = True
    for seed in (0, 1, 2):
        vocab, cfg, datasets, schedule, images = _ckpt_setup(seed)

        full = Model(cfg, seed=seed)
        opt_full = AdamState(lr=1e-3)
        train(full, schedule, datasets, vocab, opt_full, images=images)

        part = Model(cfg, seed=seed)
        opt_part = AdamState(lr=1e-3)
        mid = str(tmp_path / f"mid_{seed}.mpt")
        train(part, schedule[:4], datasets, vocab, opt_part, images=images)
        save_checkpoint(checkpoint_state(part, opt_part, 4, vocab.fingerprint(), "c"), mid)
        model2, opt2 = restore_model(load_checkpoint(mid))
        train(model2, schedule[4:], datasets, vocab, opt2, images=images)
        for name, p in full.params.items():
            if p.data.tobytes() != model2.params[name].data.tobytes():
                resume_ok = False

        p1 = str(tmp_path / f"a_{seed}.mpt")
        p2 = str(tmp_path / f"b_{seed}.mpt")
        save_checkpoint(checkpoint_state(full, opt_full, 8, vocab.fingerprint(), "c"), p1)
        save_checkpoint(load_checkpoint(p1), p2)
        with open(p1, "rb") as a, open(p2, "rb") as b:
            if a.read() != b.read():
                roundtrip_ok = False
    elapsed = time.time() - t0
    ok = roundtrip_ok and resume_ok
    _verdict(9, "checkpoint integrity", ok,
             f"save->load->save bitwise identical: {roundtrip_ok}; "
             f"resume-at-step-4 == uninterrupted (bitwise params, 3 seeds): {resume_ok}; "
             f"{elapsed:.1f}s")
