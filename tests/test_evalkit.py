import json
import math
import os
import random
import re
import warnings

import numpy as np
import pytest

from mixpretrain.corpus import ParseError, synth_corpus
from mixpretrain.evalkit import (
    EvalItem,
    cider,
    compute_idf,
    evaluate,
    exact_match,
    normalize_answer,
    predict,
    read_ground_truth,
    read_predictions,
    score_files,
    score_items,
    write_ground_truth,
    write_predictions,
)
from mixpretrain.mixture import MixtureSpec, ScheduleConfig, build_schedule, make_batch
from mixpretrain.model import AdamState, Model, ModelConfig, build_vocab, train
from mixpretrain.tasksynth import SynthConfig, TaskKind, synth_dataset


# ---------------------------------------------------------------------------
# normalization / exact match

def test_normalize_basic():
    assert normalize_answer("  A Dog.  ") == "a dog"
    assert normalize_answer("dog,   cat") == "dog, cat"
    assert normalize_answer("YES") == "yes"
    assert normalize_answer("") == ""
    assert normalize_answer(".") == ""


def test_normalize_only_terminal_period():
    assert normalize_answer("a 3.5 mm bolt.") == "a 3.5 mm bolt"
    assert normalize_answer("end ile .") == "end ile"


def test_exact_match_hits_any_reference():
    assert exact_match("a dog", ["a cat", "A DOG. "]) == 1
    assert exact_match("a dog", ["a cat", "a bird"]) == 0


def test_exact_match_order_sensitive():
    assert exact_match("cat, dog", ["dog, cat"]) == 0
    assert exact_match("dog, cat", ["dog, cat"]) == 1


def test_exact_match_empty_refs_rejected():
    with pytest.raises(ValueError):
        exact_match("a dog", [])


# ---------------------------------------------------------------------------
# consensus caption metric: pinned hand-computed cases

def test_cider_identical_unique_grams_is_ten():
    # two docs with disjoint vocabulary: every gram has df=1, idf=ln 2 > 0,
    # candidate equals its reference, lengths match -> exactly 10
    cands = ["a b c d", "e f g h"]
    refs = [["a b c d"], ["e f g h"]]
    scores, mean = cider(cands, refs)
    assert abs(scores[0] - 10.0) < 1e-9
    assert abs(scores[1] - 10.0) < 1e-9
    assert abs(mean - 10.0) < 1e-9


def test_cider_partial_overlap_hand_computed():
    # candidate "e f x h" vs reference "e f g h"; x never occurs -> weight 0.
    # n=1: cos = 3/(sqrt(3)*2); n=2: only "e f" survives -> 1/sqrt(3);
    # n=3, n=4: no surviving candidate grams -> 0.  Equal lengths, penalty 1.
    cands = ["a b c d", "e f x h"]
    refs = [["a b c d"], ["e f g h"]]
    scores, _ = cider(cands, refs)
    expect = 10.0 * (3.0 / (math.sqrt(3.0) * 2.0) + 1.0 / math.sqrt(3.0)) / 4.0
    assert abs(scores[1] - expect) < 1e-9


def test_cider_length_penalty_hand_computed():
    # candidate "a b x" vs reference "a b": cos 1 at n=1 and n=2, length gap 1
    cands = ["a b x", "c d"]
    refs = [["a b"], ["c d"]]
    scores, _ = cider(cands, refs)
    expect = 10.0 * (2.0 / 4.0) * math.exp(-1.0 / 72.0)
    assert abs(scores[0] - expect) < 1e-9


def test_cider_disjoint_candidate_scores_zero():
    scores, _ = cider(["z z z z", "c d"], [["a b"], ["c d"]])
    assert scores[0] == 0.0


def test_cider_empty_candidate_warns_and_zeroes():
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        scores, _ = cider(["", "c d"], [["a b"], ["c d"]])
    assert scores[0] == 0.0
    assert any("empty candidate" in str(x.message) for x in w)


def test_cider_sigma_controls_length_damping():
    cands = ["a b c d e e e", "f g"]
    refs = [["a b c d"], ["f g"]]
    wide, _ = cider(cands, refs, sigma=6.0)
    narrow, _ = cider(cands, refs, sigma=0.5)
    assert narrow[0] < wide[0]
    # matched lengths are sigma-independent
    assert abs(wide[1] - narrow[1]) < 1e-12


def test_cider_multi_reference_average():
    # refs of identical content: averaging over two copies changes nothing
    one, _ = cider(["a b c", "d e f"], [["a b c"], ["d e f"]])
    two, _ = cider(["a b c", "d e f"], [["a b c", "a b c"], ["d e f"]])
    assert abs(one[0] - two[0]) < 1e-9


def test_cider_idf_table_freezes_corpus_stats():
    cands = ["a b c", "d e f"]
    refs = [["a b c"], ["d e f"]]
    table = compute_idf(refs)
    base, _ = cider(cands, refs, idf_table=table)
    dup, _ = cider(cands + cands, refs + refs, idf_table=table)
    assert abs(base[0] - dup[0]) < 1e-12
    assert abs(base[1] - dup[1]) < 1e-12
    # without the frozen table, duplication halves every df... N doubles too,
    # so unique grams keep idf ln2 and scores still match: assert that too
    dup2, _ = cider(cands + cands, refs + refs)
    assert abs(base[0] - dup2[0]) < 1e-9


def test_cider_validation_errors():
    with pytest.raises(ValueError):
        cider([], [])
    with pytest.raises(ValueError):
        cider(["a"], [["a"], ["b"]])
    with pytest.raises(ValueError):
        cider(["a"], [[]])


def _cider_reference(cands, refsets, n_max=4, sigma=6.0):
    """Independent reimplementation: dense vectors over an explicit gram list."""
    def toks(s):
        return normalize_answer(s).split()

    def grams(ts, n):
        return [" ".join(ts[i : i + n]) for i in range(len(ts) - n + 1)]

    N = len(refsets)
    out = []
    for cand, refs in zip(cands, refsets):
        ct = toks(cand)
        if not ct:
            out.append(0.0)
            continue
        acc = 0.0
        for ref in refs:
            rt = toks(ref)
            pen = math.exp(-((len(ct) - len(rt)) ** 2) / (2 * sigma * sigma))
            for n in range(1, n_max + 1):
                universe = sorted(set(grams(ct, n)) | set(grams(rt, n)))
                cv, rv = [], []
                for g in universe:
                    df = sum(
                        1 for rs in refsets
                        if any(g in grams(toks(r), n) for r in rs)
                    )
                    w = math.log(N / df) if df > 0 else 0.0
                    cv.append(grams(ct, n).count(g) * w)
                    rv.append(grams(rt, n).count(g) * w)
                cv, rv = np.array(cv), np.array(rv)
                nc, nr = np.linalg.norm(cv), np.linalg.norm(rv)
                if nc > 0 and nr > 0:
                    acc += float(cv @ rv) / (nc * nr) / n_max * pen
        out.append(10.0 * acc / len(refs))
    return out


def test_cider_matches_bruteforce_on_random_corpora():
    rng = random.Random(41)
    letters = "abcdefgh"
    for _ in range(30):
        n_docs = rng.randint(2, 8)
        refsets = []
        for _ in range(n_docs):
            refsets.append([
                " ".join(rng.choice(letters) for _ in range(rng.randint(1, 9)))
                for _ in range(rng.randint(1, 3))
            ])
        cands = []
        for refs in refsets:
            if rng.random() < 0.5:
                cands.append(refs[0])
            else:
                cands.append(" ".join(rng.choice(letters) for _ in range(rng.randint(0, 9))))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got, _ = cider(cands, refsets)
        want = _cider_reference(cands, refsets)
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-9


def test_cider_self_not_below_mutation():
    rng = random.Random(77)
    for _ in range(20):
        doc = " ".join(rng.choice("abcdef") for _ in range(6))
        other = " ".join(rng.choice("uvwxyz") for _ in range(6))
        refsets = [[doc], [other]]
        mutated = doc.split()
        mutated[rng.randrange(6)] = "q"
        scores, _ = cider([doc, " ".join(mutated)], [refsets[0], refsets[0]],
                          idf_table=compute_idf(refsets))
        assert scores[0] >= scores[1] - 1e-9


# ---------------------------------------------------------------------------
# item scoring and the hidden-positive penalty

def _item(pred, answers, kind="oa_list", hidden=()):
    return EvalItem(example_id="x", prediction=pred, ground_truths=list(answers),
                    kind=kind, hidden_names=tuple(hidden))


def test_penalty_counted_when_hidden_name_is_sole_error():
    rep = score_items([_item("car, cat, dog", ["car, dog"], hidden=["cat"])])
    assert rep.overall_exact_match == 0.0
    assert rep.hidden_penalties == 1
    assert rep.items[0]["hidden_penalty"] == 1


def test_no_penalty_when_still_wrong_after_strip():
    rep = score_items([_item("car, cat", ["car, dog"], hidden=["cat"])])
    assert rep.hidden_penalties == 0
    assert "hidden_penalty" not in rep.items[0]


def test_no_penalty_on_correct_prediction():
    rep = score_items([_item("car, dog", ["car, dog"], hidden=["cat"])])
    assert rep.overall_exact_match == 1.0
    assert rep.hidden_penalties == 0


def test_no_penalty_without_hidden_names():
    rep = score_items([_item("car, cat, dog", ["car, dog"])])
    assert rep.hidden_penalties == 0


def test_no_penalty_for_non_list_kinds():
    rep = score_items([_item("yes", ["no"], kind="oa_exists", hidden=["cat"])])
    assert rep.hidden_penalties == 0


def test_penalty_strip_handles_multiple_hidden():
    rep = score_items([_item("ball, cat, dog, tree", ["ball, dog"], hidden=["cat", "tree"])])
    assert rep.hidden_penalties == 1


def test_all_hidden_prediction_does_not_match_nonempty_truth():
    rep = score_items([_item("cat", ["dog"], hidden=["cat"])])
    assert rep.hidden_penalties == 0


def test_per_task_aggregates():
    items = [
        _item("yes", ["yes"], kind="oa_exists"),
        _item("no", ["yes"], kind="oa_exists"),
        _item("a dog runs far", ["a dog runs far"], kind="caption"),
        _item("b c d e", ["x y z w"], kind="caption"),
    ]
    rep = score_items(items)
    assert rep.per_task["oa_exists"]["exact_match"] == 0.5
    assert rep.per_task["oa_exists"]["n"] == 2
    assert rep.per_task["caption"]["exact_match"] == 0.5
    assert "cider" in rep.per_task["caption"]
    assert rep.overall_exact_match == 0.5


def test_caption_cider_in_report_items():
    items = [
        _item("a b c d", ["a b c d"], kind="caption"),
        _item("e f g h", ["e f g h"], kind="caption"),
    ]
    rep = score_items(items)
    assert abs(rep.items[0]["cider"] - 10.0) < 1e-6
    assert abs(rep.per_task["caption"]["cider"] - 10.0) < 1e-6


def test_report_json_deterministic():
    items = [_item("yes", ["yes"], kind="oa_exists"),
             _item("a b c d", ["a b c e"], kind="caption")]
    a = score_items(items, fingerprints={"vocab": "f" * 64}).to_json()
    b = score_items(items, fingerprints={"vocab": "f" * 64}).to_json()
    assert a == b
    parsed = json.loads(a)
    assert parsed["fingerprints"]["vocab"] == "f" * 64


def test_empty_ground_truth_item_rejected():
    with pytest.raises(ValueError):
        EvalItem(example_id="x", prediction="y", ground_truths=[], kind="caption")


# ---------------------------------------------------------------------------
# model-in-the-loop evaluation

@pytest.fixture(scope="module")
def eval_setup():
    corpus = synth_corpus(seed=5, n_images=12, grid=2, cell=4)
    cfg = SynthConfig(seed=5)
    examples = list(synth_dataset(
        corpus, [TaskKind.CAPTION, TaskKind.OA_EXISTS, TaskKind.OA_LIST], 8, cfg))
    vocab = build_vocab(examples)
    mcfg = ModelConfig(vocab_size=len(vocab), d_model=16, n_heads=2,
                       n_encoder_layers=1, n_decoder_layers=1, d_ff=32,
                       patch=4, image_size=8, max_prompt=16, max_target=8)
    model = Model(mcfg, seed=3)
    images = {i: corpus.images[i].pixels for i in corpus.image_ids()}
    return corpus, examples, vocab, model, images


def test_evaluate_report_structure(eval_setup):
    corpus, examples, vocab, model, images = eval_setup
    rep = evaluate(model, vocab, examples, images, corpus=corpus, batch_size=8)
    assert len(rep.items) == len(examples)
    assert set(rep.per_task) == {"caption", "oa_exists", "oa_list"}
    assert rep.fingerprints["vocab"] == vocab.fingerprint()
    assert rep.fingerprints["corpus"] == corpus.fingerprint()
    assert 0.0 <= rep.overall_exact_match <= 1.0


def test_evaluate_deterministic_bytes(eval_setup):
    corpus, examples, vocab, model, images = eval_setup
    a = evaluate(model, vocab, examples, images, corpus=corpus, batch_size=8).to_json()
    b = evaluate(model, vocab, examples, images, corpus=corpus, batch_size=8).to_json()
    assert a == b


def test_evaluate_caption_uses_corpus_references(eval_setup):
    corpus, examples, vocab, model, images = eval_setup
    caption_ex = next(e for e in examples if e.kind == TaskKind.CAPTION)
    rep = evaluate(model, vocab, [caption_ex], {caption_ex.image_id: images[caption_ex.image_id]},
                   corpus=corpus, batch_size=8)
    assert rep.per_task["caption"]["n"] == 1


def _predict_every_item(model, vocab, examples, images, batch_size):
    """Reference: every example decoded, in input-order batches."""
    preds = []
    limits = (model.cfg.max_prompt, model.cfg.max_target)
    for lo in range(0, len(examples), batch_size):
        batch = make_batch(examples[lo : lo + batch_size], vocab, limits, images=images)
        for ids in model.generate_batch(batch.images, batch.prompt_ids, prompt_mask=batch.prompt_mask):
            preds.append(vocab.decode(ids))
    return preds


def _decoded_rows(monkeypatch):
    """Spy on Model.generate_batch: each call appends its rows, one
    (pixel bytes, prompt ids) key per row."""
    calls = []
    real = Model.generate_batch

    def spy(self, images, prompt_ids, prompt_mask=None):
        calls.append([(np.asarray(img, dtype=np.float32).tobytes(),
                       tuple(int(i) for i, m in zip(ids, mask) if m))
                      for img, ids, mask in zip(images, prompt_ids, prompt_mask)])
        return real(self, images, prompt_ids, prompt_mask=prompt_mask)

    monkeypatch.setattr(Model, "generate_batch", spy)
    return calls


def _pair_key(ex, vocab, model, images):
    prompt = vocab.encode(ex.prompt)[: model.cfg.max_prompt]
    return np.asarray(images[ex.image_id], dtype=np.float32).tobytes(), tuple(prompt)


@pytest.fixture(scope="module")
def trained_model(eval_setup):
    """The fixture's model after 300 steps on its examples: unlike the random
    model, it gives different images and questions different answers."""
    corpus, examples, vocab, model, images = eval_setup
    trained = Model(model.cfg, seed=3)
    schedule = build_schedule(MixtureSpec.equal(["all"]),
                              ScheduleConfig(total_steps=300, batch_size=8, seed=5),
                              {"all": len(examples)})
    train(trained, schedule, {"all": examples}, vocab, AdamState(lr=1e-2), images=images)
    return trained


def test_predict_batching_invariant(eval_setup, trained_model, monkeypatch):
    corpus, examples, vocab, _, images = eval_setup
    model = trained_model
    subset = examples[:10]
    one = predict(model, vocab, subset, images, batch_size=3)
    two = predict(model, vocab, subset, images, batch_size=10)
    assert one == two

    # 20 per kind on 12 images: caption and oa_list repeat their one prompt
    # per image; the tail repeats caption items after the other kinds
    kinds = [TaskKind.CAPTION, TaskKind.OA_EXISTS, TaskKind.OA_LIST]
    probe = list(synth_dataset(corpus, kinds, 20, SynthConfig(seed=5)))
    probe += probe[3:9]
    keys = [_pair_key(ex, vocab, model, images) for ex in probe]
    assert len(set(keys)) < len(keys)
    calls = _decoded_rows(monkeypatch)
    for batch_size in (1, 5, 64):
        calls.clear()
        preds = predict(model, vocab, probe, images, batch_size=batch_size)
        rows = [row for call in calls for row in call]
        assert sorted(rows) == sorted(set(keys))  # each distinct pair, once
        assert max(len(call) for call in calls) <= batch_size
        assert preds == _predict_every_item(model, vocab, probe, images, batch_size)
    assert len(set(preds)) > 5

    # a probe without repeats decodes every item exactly once
    assert len({_pair_key(ex, vocab, model, images) for ex in examples}) == len(examples)
    calls.clear()
    predict(model, vocab, examples, images, batch_size=7)
    rows = [row for call in calls for row in call]
    assert sorted(rows) == sorted(_pair_key(ex, vocab, model, images) for ex in examples)


# ---------------------------------------------------------------------------
# offline scoring files

def test_score_files_round_trip(tmp_path):
    pred_path = tmp_path / "pred.jsonl"
    gt_path = tmp_path / "gt.jsonl"
    write_predictions(pred_path, ["e0", "e1", "e2"], ["yes", "car, cat, dog", "a b"])
    write_ground_truth(gt_path, [
        ("e0", ["yes"], "oa_exists", ()),
        ("e1", ["car, dog"], "oa_list", ("cat",)),
        ("e2", ["a b"], "caption", ()),
    ])
    rep = score_files(pred_path, gt_path)
    assert rep.per_task["oa_exists"]["exact_match"] == 1.0
    assert rep.hidden_penalties == 1
    assert rep.per_task["caption"]["n"] == 1

    assert read_predictions(pred_path)["e1"] == "car, cat, dog"
    rows = read_ground_truth(gt_path)
    assert rows[1][3] == ("cat",)


def test_failed_predictions_write_keeps_previous(tmp_path):
    path = tmp_path / "pred.jsonl"
    write_predictions(path, ["e0"], ["yes"])
    before = path.read_bytes()

    def predictions():
        yield "no"
        raise OSError(28, "No space left on device")

    with pytest.raises(OSError, match="No space"):
        write_predictions(path, ["e0", "e1"], predictions())
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["pred.jsonl"]


def test_score_files_refuses_a_repeated_truth_id(tmp_path, capsys):
    from mixpretrain.cli import main

    pred_path = tmp_path / "pred.jsonl"
    gt_path = tmp_path / "gt.jsonl"
    write_predictions(pred_path, ["a"], ["yes"])
    write_ground_truth(gt_path, [("a", ["yes"], "oa_exists", ()),
                                 ("a", ["no"], "oa_exists", ())])
    with pytest.raises(ParseError, match=f"^{re.escape(str(gt_path))}:2: repeated id 'a'$"):
        score_files(pred_path, gt_path)
    assert main(["score", "--predictions", str(pred_path), "--truth", str(gt_path)]) == 2
    assert capsys.readouterr().err == f"error: {gt_path}:2: repeated id 'a'\n"


def test_score_files_missing_prediction(tmp_path):
    pred_path = tmp_path / "pred.jsonl"
    gt_path = tmp_path / "gt.jsonl"
    write_predictions(pred_path, ["e0"], ["yes"])
    write_ground_truth(gt_path, [("e0", ["yes"], "oa_exists", ()),
                                 ("e1", ["no"], "oa_exists", ())])
    with pytest.raises(ValueError, match="e1"):
        score_files(pred_path, gt_path)
