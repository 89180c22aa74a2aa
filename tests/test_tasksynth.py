"""Task generators: prompt surfaces, negative policies, deterministic streams."""

import collections
import hashlib
import json
import random

import numpy as np
import pytest

from mixpretrain.corpus import (
    CaptionRecord,
    ClassEntry,
    ImageLabel,
    ImageRecord,
    build_corpus,
    build_lexicon,
    lines,
)
from mixpretrain import tasksynth as T
from mixpretrain.tasksynth import (
    CM_KINDS,
    OA_KINDS,
    NoNounFound,
    SynthConfig,
    SynthesisError,
    TaskExample,
    TaskKind,
    caption_pool,
    eligible_images,
    make_hard_negative_caption,
    normalize_caption,
    synth_caption,
    synth_completion,
    synth_dataset,
    synth_itm,
    synth_mlm,
    synth_oa_andor,
    synth_oa_exists,
    synth_oa_list,
    synth_oa_which,
    task_source,
)


class FakeRng:
    """Scripted rng: pops pre-chosen values per method, sample/shuffle are identity."""

    def __init__(self, uniforms=(), randoms=(), randranges=(), randints=()):
        self.uniforms = list(uniforms)
        self.randoms = list(randoms)
        self.randranges = list(randranges)
        self.randints = list(randints)

    def uniform(self, lo, hi):
        return self.uniforms.pop(0)

    def random(self):
        return self.randoms.pop(0)

    def randrange(self, n):
        return self.randranges.pop(0) % n

    def randint(self, a, b):
        v = self.randints.pop(0)
        assert a <= v <= b
        return v

    def sample(self, seq, k):
        return list(seq)[:k]

    def shuffle(self, x):
        pass


def _mini_corpus():
    classes = {
        "/c/dog": ClassEntry("/c/dog", "dog"),
        "/c/cat": ClassEntry("/c/cat", "cat"),
        "/c/ball": ClassEntry("/c/ball", "ball"),
        "/c/tree": ClassEntry("/c/tree", "tree"),
    }
    labels = [
        ImageLabel("img1", "/c/dog", "positive", "human"),
        ImageLabel("img1", "/c/ball", "positive", "human"),
        ImageLabel("img1", "/c/cat", "negative", "human"),
        ImageLabel("img2", "/c/cat", "positive", "human"),
        ImageLabel("img2", "/c/tree", "negative", "machine"),
    ]
    captions = [
        CaptionRecord("img1", "A Dog plays with a ball"),
        CaptionRecord("img2", "a cat sits under the tree"),
    ]
    return build_corpus(classes, labels=labels, captions=captions)


def _mini_lexicon():
    return build_lexicon(lines("dog\tcat\ncat\tdog\nball\tcup\ntree\tbush\n"))


def _excluded(corp, kind, cfg, image_id, eligible):
    """``image_id`` cannot source ``kind``, ``eligible`` are the images that
    can, and synthesis refuses the kind when there are none."""
    assert task_source(kind, corp, image_id, cfg, caption_pool(corp)) is None
    assert eligible_images(corp, kind, cfg) == eligible
    if not eligible:
        with pytest.raises(SynthesisError, match=kind.value):
            list(synth_dataset(corp, [kind], 3, cfg))


# ---------------------------------------------------------------------------
# captioning / completion

def test_caption_prompt_and_normalized_target():
    ex = synth_caption(CaptionRecord("img1", "A  Dog on   the grass"))
    assert ex.kind == TaskKind.CAPTION
    assert ex.prompt == "describe the image."
    assert ex.target == "a dog on the grass"


def test_completion_split_example():
    # 5 tokens, f=0.4 -> split index round(2.0)=2
    ex = synth_completion(CaptionRecord("i", "a dog on the grass"), FakeRng(uniforms=[0.4]))
    assert ex.prompt == "complete: a dog"
    assert ex.target == "on the grass"


def test_completion_skip_short_caption():
    corp = build_corpus({}, captions=[CaptionRecord("i", "a small dog")])
    _excluded(corp, TaskKind.COMPLETION, SynthConfig(), "i", [])
    corp = build_corpus({}, captions=[CaptionRecord("i", "a small dog"),
                                      CaptionRecord("j", "a dog on the grass")])
    _excluded(corp, TaskKind.COMPLETION, SynthConfig(), "i", ["j"])


def test_completion_split_stays_interior():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(4, 12)
        cap = " ".join(f"w{i}" for i in range(n))
        ex = synth_completion(CaptionRecord("i", cap), rng)
        prefix = ex.prompt[len("complete: "):].split()
        suffix = ex.target.split()
        assert len(prefix) >= 1 and len(suffix) >= 1
        assert prefix + suffix == cap.split()


# ---------------------------------------------------------------------------
# image-text matching

def test_itm_positive_branch():
    corp = _mini_corpus()
    rec = corp.captions["img1"][0]
    ex = synth_itm(rec, caption_pool(corp), None, SynthConfig(), FakeRng(randoms=[0.2]))
    assert ex.prompt == "does this text match the image? a dog plays with a ball"
    assert ex.target == "yes"


def test_itm_easy_negative_uses_other_image():
    corp = _mini_corpus()
    rec = corp.captions["img1"][0]
    ex = synth_itm(rec, caption_pool(corp), None, SynthConfig(),
                   FakeRng(randoms=[0.9], randranges=[0]))
    assert ex.target == "no"
    assert ex.prompt == "does this text match the image? a cat sits under the tree"


def test_itm_hard_negative_swaps_one_noun():
    corp = _mini_corpus()
    lex = _mini_lexicon()
    rec = corp.captions["img1"][0]
    cfg = SynthConfig(policy="hard")
    ex = synth_itm(rec, caption_pool(corp), lex, cfg, FakeRng(randoms=[0.9], randranges=[0, 0]))
    assert ex.target == "no"
    assert ex.prompt == "does this text match the image? a cat plays with a ball"
    assert ex.meta["replaced_noun"] == "dog"
    assert ex.meta["replacement"] == "cat"
    assert ex.meta["policy"] == "hard"


def test_itm_hard_falls_back_when_no_noun():
    corp = build_corpus(
        {"/c/dog": ClassEntry("/c/dog", "dog")},
        captions=[CaptionRecord("a", "nothing to swap here"), CaptionRecord("b", "another text")],
    )
    lex = _mini_lexicon()
    ex = synth_itm(corp.captions["a"][0], caption_pool(corp), lex, SynthConfig(policy="hard"),
                   FakeRng(randoms=[0.9], randranges=[0]))
    assert ex.target == "no"
    assert ex.meta == {"policy": "easy", "fallback": True}


def test_itm_easy_negative_requires_second_caption():
    corp = build_corpus({}, captions=[CaptionRecord("only", "just one caption here")])
    _excluded(corp, TaskKind.ITM, SynthConfig(), "only", [])


def _other_captions(corpus, image_id):
    """Reference: the per-image list the easy ITM draw used to build."""
    pool = []
    for other_id in sorted(corpus.captions):
        if other_id == image_id:
            continue
        pool.extend(corpus.captions[other_id])
    return pool


def _uneven_caption_corpus():
    """Images with 2, 0, 1, 2, 0 and 1 captions; the first and last have some."""
    counts = {"a0": 2, "b1": 0, "c2": 1, "d3": 2, "e4": 0, "f5": 1}
    images = [ImageRecord(i, np.zeros((2, 2, 3), dtype=np.float32)) for i in counts]
    captions = [CaptionRecord(i, f"caption {k} of image {i}")
                for i, n in counts.items() for k in range(n)]
    return build_corpus({}, captions=captions, images=images)


def test_caption_pool_draw_matches_reference_list():
    corp = _uneven_caption_corpus()
    pool = caption_pool(corp)
    for image_id in corp.image_ids():
        ref = _other_captions(corp, image_id)
        assert pool.n_others(image_id) == len(ref)
        assert [pool.other(image_id, i) for i in range(len(ref))] == ref
        for seed in range(8):
            old, new = random.Random(seed), random.Random(seed)
            assert pool.other(image_id, new.randrange(pool.n_others(image_id))) \
                == ref[old.randrange(len(ref))]
            assert new.getstate() == old.getstate()


def test_itm_easy_negative_matches_reference_draw():
    corp = _uneven_caption_corpus()
    pool = caption_pool(corp)
    cfg = SynthConfig(yes_no_balance=0.01)  # every seed below takes the negative branch
    for image_id, records in corp.captions.items():
        ref = _other_captions(corp, image_id)
        for record in records:
            for seed in range(8):
                old, new = random.Random(seed), random.Random(seed)
                assert old.random() >= cfg.yes_no_balance
                want = normalize_caption(ref[old.randrange(len(ref))].caption)
                ex = synth_itm(record, pool, None, cfg, new)
                assert ex.target == "no"
                assert ex.prompt == "does this text match the image? " + want
                assert new.getstate() == old.getstate()


def test_itm_eligibility_needs_a_caption_of_another_image():
    cfg = SynthConfig()
    corp = _uneven_caption_corpus()
    assert eligible_images(corp, TaskKind.ITM, cfg) == ["a0", "c2", "d3", "f5"]
    assert eligible_images(corp, TaskKind.ITM, cfg, caption_pool(corp)) == ["a0", "c2", "d3", "f5"]
    # one image holds every caption: no image has a negative to draw
    alone = corp.subset(["a0", "b1"])
    assert eligible_images(alone, TaskKind.ITM, cfg, caption_pool(alone)) == []
    with pytest.raises(SynthesisError, match="itm"):
        list(synth_dataset(alone, [TaskKind.ITM], 3, cfg))


def test_make_hard_negative_pinned():
    lex = _mini_lexicon()
    new, noun, repl = make_hard_negative_caption("a dog on the grass", lex, FakeRng(randranges=[0, 0]))
    assert (new, noun, repl) == ("a cat on the grass", "dog", "cat")


def test_make_hard_negative_single_token_difference(lexicon):
    rng = random.Random(7)
    caps = ["a photo of a dog and a cat", "the ball near a cup", "a boat, a car and a key"]
    for _ in range(300):
        cap = caps[rng.randrange(len(caps))]
        new, noun, repl = make_hard_negative_caption(cap, lexicon, rng)
        a, b = cap.split(), new.split()
        assert len(a) == len(b)
        diffs = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
        assert len(diffs) == 1
        assert repl in lexicon.related(noun)
        assert repl != noun


def test_make_hard_negative_no_noun():
    with pytest.raises(NoNounFound):
        make_hard_negative_caption("nothing matches at all", _mini_lexicon(), random.Random(0))


# ---------------------------------------------------------------------------
# span corruption

def _invert_mlm(prompt, target):
    """Reconstruct the original token list from a span-corruption pair."""
    fills = {}
    cur = None
    for tok in target.split():
        if tok.startswith("<extra_"):
            cur = tok
            fills[cur] = []
        else:
            fills[cur].append(tok)
    out = []
    for tok in prompt.split():
        if tok.startswith("<extra_"):
            out.extend(fills[tok])
        else:
            out.append(tok)
    return out


def test_mlm_round_trip_and_rate():
    rng = random.Random(3)
    cfg = SynthConfig()
    for i in range(300):
        n = rng.randint(4, 40)
        cap = " ".join(f"tok{j}" for j in range(n))
        ex = synth_mlm(CaptionRecord("i", cap), cfg, rng)
        assert _invert_mlm(ex.prompt, ex.target) == cap.split()
        masked = sum(1 for t in ex.target.split() if not t.startswith("<extra_"))
        goal = max(1, round(cfg.mlm_mask_rate * n))
        assert 1 <= masked <= goal


def test_mlm_sentinels_ordered_and_bounded():
    rng = random.Random(9)
    cfg = SynthConfig(mlm_mask_rate=0.5, mlm_mean_span=1.0)
    for _ in range(100):
        n = rng.randint(10, 60)
        cap = " ".join(f"t{j}" for j in range(n))
        ex = synth_mlm(CaptionRecord("i", cap), cfg, rng)
        prompt_sent = [t for t in ex.prompt.split() if t.startswith("<extra_")]
        target_sent = [t for t in ex.target.split() if t.startswith("<extra_")]
        assert prompt_sent == [f"<extra_{k}>" for k in range(len(prompt_sent))]
        assert target_sent == prompt_sent
        assert len(prompt_sent) <= 16
        # spans are separated by at least one kept token
        toks = ex.prompt.split()
        for a, b in zip(toks, toks[1:]):
            assert not (a.startswith("<extra_") and b.startswith("<extra_"))


def test_mlm_skip_and_minimum_one_span():
    cfg = SynthConfig(mlm_mask_rate=0.01)
    corp = build_corpus({}, captions=[CaptionRecord("i", "too few here"),
                                      CaptionRecord("j", "one two three four")])
    _excluded(corp, TaskKind.MLM, cfg, "i", ["j"])
    ex = synth_mlm(CaptionRecord("i", "one two three four five"), cfg, random.Random(0))
    assert sum(1 for t in ex.target.split() if not t.startswith("<extra_")) == 1


# ---------------------------------------------------------------------------
# object-aware generators

def test_oa_list_sorted_names():
    corp = _mini_corpus()
    ex = synth_oa_list("img1", task_source(TaskKind.OA_LIST, corp, "img1", SynthConfig(), None))
    assert ex.prompt == "list all objects"
    assert ex.target == "ball, dog"
    assert ex.image_id == "img1"


def test_oa_list_skip_without_positives():
    corp = _mini_corpus()
    labels = [ImageLabel("imgx", "/c/cat", "negative", "human")]
    alone = build_corpus(corp.classes, labels=labels)
    _excluded(alone, TaskKind.OA_LIST, SynthConfig(), "imgx", [])


def test_oa_exists_yes_branch():
    corp = _mini_corpus()
    cfg = SynthConfig()
    ex = synth_oa_exists("img1", *task_source(TaskKind.OA_EXISTS, corp, "img1", cfg, None), cfg,
                         FakeRng(randoms=[0.1], randranges=[1]))
    assert ex.prompt == "does dog exist?"
    assert ex.target == "yes"


def test_oa_exists_easy_no_branch():
    corp = _mini_corpus()
    # easy pool for img1 = all names minus positives = [cat, tree]
    cfg = SynthConfig()
    material = task_source(TaskKind.OA_EXISTS, corp, "img1", cfg, None)
    assert material == (["ball", "dog"], ["cat", "tree"])
    ex = synth_oa_exists("img1", *material, cfg, FakeRng(randoms=[0.9], randranges=[1]))
    assert ex.prompt == "does tree exist?"
    assert ex.target == "no"


def test_oa_exists_hard_no_uses_verified_negative():
    corp = _mini_corpus()
    cfg = SynthConfig(policy="hard")
    ex = synth_oa_exists("img1", *task_source(TaskKind.OA_EXISTS, corp, "img1", cfg, None), cfg,
                         FakeRng(randoms=[0.9], randranges=[0]))
    assert ex.prompt == "does cat exist?"
    assert ex.target == "no"
    assert ex.meta["policy"] == "hard"


def test_oa_exists_hard_unavailable():
    # img2's only negative is machine-sourced
    corp = _mini_corpus()
    _excluded(corp, TaskKind.OA_EXISTS, SynthConfig(policy="hard"), "img2", ["img1"])
    _excluded(corp.subset(["img2"]), TaskKind.OA_EXISTS, SynthConfig(policy="hard"), "img2", [])


def test_oa_exists_easy_unavailable_when_all_positive():
    classes = {"/c/a": ClassEntry("/c/a", "ant")}
    corp = build_corpus(classes, labels=[ImageLabel("i", "/c/a", "positive", "human")])
    _excluded(corp, TaskKind.OA_EXISTS, SynthConfig(), "i", [])


def test_oa_andor_prompt_shapes():
    corp = _mini_corpus()
    cfg = SynthConfig()
    # k=2 (feasible index 0), connective "and", want yes -> sample returns first 2 of union
    ex = synth_oa_andor("img1", *task_source(TaskKind.OA_ANDOR, corp, "img1", cfg, None), cfg,
                        FakeRng(randoms=[0.9], randranges=[0, 0]))
    assert ex.kind == TaskKind.OA_ANDOR
    assert ex.prompt.startswith("does ") and ex.prompt.endswith(" exist?")
    assert ex.meta["connective"] in ("and", "or")


def test_oa_andor_truth_table(small_corpus):
    cfg = SynthConfig(seed=21)
    for ex in synth_dataset(small_corpus, [TaskKind.OA_ANDOR], 400, cfg):
        pos = set(small_corpus.positive_names(ex.image_id))
        cands = ex.meta["candidate_objects"]
        assert len(cands) == len(set(cands))
        assert len(cands) in (2, 3)
        if ex.meta["connective"] == "and":
            want = all(c in pos for c in cands)
        else:
            want = any(c in pos for c in cands)
        assert ex.target == ("yes" if want else "no")
        sep = " and " if ex.meta["connective"] == "and" else " or "
        if len(cands) == 2:
            assert ex.prompt == f"does {cands[0]}{sep}{cands[1]} exist?"
        else:
            assert ex.prompt == f"does {cands[0]}, {cands[1]}{sep}{cands[2]} exist?"


def test_oa_which_target_is_prompt_order_positives(small_corpus):
    cfg = SynthConfig(seed=22)
    for ex in synth_dataset(small_corpus, [TaskKind.OA_WHICH], 400, cfg):
        pos = set(small_corpus.positive_names(ex.image_id))
        cands = ex.meta["candidate_objects"]
        assert len(cands) == 3 and len(set(cands)) == 3
        assert ex.prompt == f"which of {cands[0]}, {cands[1]} and {cands[2]} exist?"
        expect = [c for c in cands if c in pos]
        assert 1 <= len(expect) <= 2
        assert ex.target == ", ".join(expect)


def test_oa_which_from_source_material():
    corp = _mini_corpus()
    cfg = SynthConfig()
    # one positive of [ball, dog], two distractors of [cat, tree]
    ex = synth_oa_which("img1", *task_source(TaskKind.OA_WHICH, corp, "img1", cfg, None), cfg,
                        FakeRng(randints=[1]))
    assert ex.prompt == "which of ball, cat and tree exist?"
    assert ex.target == "ball"


def test_oa_which_skip_when_too_few_names():
    classes = {"/c/a": ClassEntry("/c/a", "ant"), "/c/b": ClassEntry("/c/b", "bee")}
    corp = build_corpus(classes, labels=[
        ImageLabel("i", "/c/a", "positive", "human"),
        ImageLabel("i", "/c/b", "negative", "human"),
    ])
    _excluded(corp, TaskKind.OA_WHICH, SynthConfig(), "i", [])


# ---------------------------------------------------------------------------
# balance

def test_oa_exists_yes_no_balance(small_corpus):
    cfg = SynthConfig(seed=77)
    n = 10_000
    yes = sum(1 for ex in synth_dataset(small_corpus, [TaskKind.OA_EXISTS], n, cfg)
              if ex.target == "yes")
    assert abs(yes / n - 0.5) < 0.02


def test_itm_yes_no_balance(small_corpus):
    cfg = SynthConfig(seed=78)
    n = 10_000
    yes = sum(1 for ex in synth_dataset(small_corpus, [TaskKind.ITM], n, cfg)
              if ex.target == "yes")
    assert abs(yes / n - 0.5) < 0.02


# ---------------------------------------------------------------------------
# dataset-level synthesis

def test_synth_dataset_counts_and_kinds(small_corpus, lexicon):
    kinds = list(TaskKind)
    cfg = SynthConfig(seed=1)
    exs = list(synth_dataset(small_corpus, kinds, 7, cfg, lexicon))
    counts = collections.Counter(e.kind for e in exs)
    assert all(counts[k] == 7 for k in kinds)


def test_synth_dataset_deterministic(small_corpus, lexicon):
    cfg = SynthConfig(seed=5, policy="hard")
    a = [e.to_json() for e in synth_dataset(small_corpus, list(TaskKind), 20, cfg, lexicon)]
    b = [e.to_json() for e in synth_dataset(small_corpus, list(TaskKind), 20, cfg, lexicon)]
    assert a == b


def test_synth_dataset_prefix_stable(small_corpus):
    cfg = SynthConfig(seed=5)
    short = [e.to_json() for e in synth_dataset(small_corpus, [TaskKind.OA_EXISTS], 10, cfg)]
    long = [e.to_json() for e in synth_dataset(small_corpus, [TaskKind.OA_EXISTS], 30, cfg)]
    assert long[:10] == short


def test_synth_dataset_kind_isolation(small_corpus, lexicon):
    # examples of one kind don't depend on which other kinds are in the request
    cfg = SynthConfig(seed=5)
    solo = [e.to_json() for e in synth_dataset(small_corpus, [TaskKind.OA_WHICH], 15, cfg)]
    mixed = [e.to_json() for e in synth_dataset(
        small_corpus, [TaskKind.CAPTION, TaskKind.OA_WHICH], 15, cfg, lexicon)]
    assert [x for x in mixed if json.loads(x)["kind"] == "oa_which"] == solo


def test_synth_dataset_error_when_kind_impossible():
    corp = build_corpus({"/c/a": ClassEntry("/c/a", "ant")},
                        labels=[ImageLabel("i", "/c/a", "positive", "human")])
    with pytest.raises(SynthesisError):
        list(synth_dataset(corp, [TaskKind.CAPTION], 3, SynthConfig(seed=0)))


def test_synth_dataset_hard_itm_needs_lexicon(small_corpus):
    with pytest.raises(SynthesisError, match="lexicon"):
        list(synth_dataset(small_corpus, [TaskKind.ITM], 3, SynthConfig(seed=0, policy="hard")))


def test_hard_policy_contracts(small_corpus, lexicon):
    """No-violation sweep: hard ITM differs by one token; hard exists uses verified negatives."""
    cfg = SynthConfig(seed=17, policy="hard")
    for ex in synth_dataset(small_corpus, [TaskKind.ITM], 300, cfg, lexicon):
        if ex.target == "no" and not ex.meta.get("fallback"):
            shown = ex.prompt[len("does this text match the image? "):].split()
            true_caps = [normalize_caption(c.caption).split()
                         for c in small_corpus.captions[ex.image_id]]
            assert any(len(t) == len(shown) and sum(x != y for x, y in zip(t, shown)) == 1
                       for t in true_caps)
            assert ex.meta["replacement"] in lexicon.related(ex.meta["replaced_noun"])
    for ex in synth_dataset(small_corpus, [TaskKind.OA_EXISTS], 300, cfg, lexicon):
        if ex.target == "no":
            name = ex.prompt[len("does "):-len(" exist?")]
            verified = {small_corpus.display_name(c)
                        for c in small_corpus.verified_negative_class_ids(ex.image_id)}
            assert name in verified


# ---------------------------------------------------------------------------
# pinned stream

def _edge_corpus():
    """Short captions, machine-only negatives and an image with every class
    positive, next to images that can source every kind."""
    names = ("dog", "cat", "ball", "tree")
    classes = {f"/c/{n}": ClassEntry(f"/c/{n}", n) for n in names}
    labels = [ImageLabel("e0", f"/c/{n}", "positive", "human") for n in names] + [
        ImageLabel("e1", "/c/dog", "positive", "human"),
        ImageLabel("e1", "/c/cat", "negative", "machine"),
        ImageLabel("e2", "/c/dog", "positive", "human"),
        ImageLabel("e2", "/c/ball", "positive", "human"),
        ImageLabel("e2", "/c/cat", "negative", "human"),
        ImageLabel("e3", "/c/tree", "positive", "human"),
        ImageLabel("e3", "/c/cat", "negative", "human"),
        ImageLabel("e3", "/c/ball", "negative", "human"),
        ImageLabel("e5", "/c/cat", "positive", "human"),
        ImageLabel("e5", "/c/dog", "negative", "human"),
    ]
    captions = [
        CaptionRecord("e0", "a dog, a cat, a ball and a tree"),
        CaptionRecord("e1", "small dog"),
        CaptionRecord("e1", "a dog here"),
        CaptionRecord("e2", "a dog chases the ball"),
        CaptionRecord("e2", "dog and ball"),
        CaptionRecord("e4", "nothing to swap in this text"),
    ]
    images = [ImageRecord(f"e{k}", np.zeros((2, 2, 3), dtype=np.float32)) for k in range(6)]
    return build_corpus(classes, labels=labels, captions=captions, images=images)


# sha256 over every eligible list and every example (or SynthesisError) of
# the stream below; any change to what synthesis emits changes it
PINNED_STREAM_SHA256 = "fb5a89d80628f3a0591516038ca945b1b4c21dc45f95aee488db48de257862f1"


def test_synthesized_stream_is_pinned(hidden_corpus, lexicon):
    edge = _edge_corpus()
    h = hashlib.sha256()
    # the two-image subset has no ITM source: its stream records the error
    for corp, count in ((hidden_corpus, 40), (edge, 12), (edge.subset(["e0", "e3"]), 4)):
        for policy in ("easy", "hard"):
            cfg = SynthConfig(seed=3, policy=policy)
            for kind in TaskKind:
                h.update(json.dumps([kind.value, policy,
                                     eligible_images(corp, kind, cfg)]).encode())
                try:
                    for ex in synth_dataset(corp, [kind], count, cfg, lexicon):
                        h.update(ex.to_json().encode())
                except SynthesisError as e:
                    h.update(f"SynthesisError: {e}".encode())
    assert h.hexdigest() == PINNED_STREAM_SHA256


# ---------------------------------------------------------------------------
# file output

def test_write_task_files_round_trip(tmp_path, small_corpus, lexicon):
    cfg = SynthConfig(seed=9, policy="easy")
    kinds = [TaskKind.CAPTION, TaskKind.OA_EXISTS]
    paths = T.write_task_files(small_corpus, kinds, 12, cfg, str(tmp_path / "o"), lexicon)
    assert set(paths) == set(kinds)
    assert paths[TaskKind.CAPTION].endswith("caption.easy.jsonl")

    back = T.load_task_file(paths[TaskKind.OA_EXISTS])
    assert len(back) == 12
    assert all(isinstance(e, TaskExample) and e.kind == TaskKind.OA_EXISTS for e in back)

    with open(str(tmp_path / "o" / "synth_manifest.json")) as f:
        man = json.load(f)
    assert man["counts"] == {"caption": 12, "oa_exists": 12}
    assert man["seed"] == 9 and man["policy"] == "easy"

    # rerun writes byte-identical files
    first = {k: open(p, "rb").read() for k, p in paths.items()}
    T.write_task_files(small_corpus, kinds, 12, cfg, str(tmp_path / "o"), lexicon)
    for k, p in paths.items():
        assert open(p, "rb").read() == first[k]


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(mlm_mask_rate=0.0)
    with pytest.raises(ValueError):
        SynthConfig(policy="medium")
