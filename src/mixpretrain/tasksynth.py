"""Task synthesis: compile a corpus into training examples.

Four cross-modal tasks built from captions (captioning, completion, image-text
matching, span-corruption MLM) and four object-aware tasks built from labels
(list-all, exists, and/or-exists, which-of).  Negative sampling follows an
easy/hard policy: easy negatives are random captions / absent class names,
hard negatives are single-noun caption swaps / human-verified negative labels.

`task_source` alone decides whether an image can supply a kind, and hands
over what it supplies: its usable captions, or its positive and distractor
object names.  The generators are pure functions of that material and an
rng, and build an example from any material `task_source` returns.
`synth_dataset` keys each example's rng by (seed, kind, image_id, cycle) so
output is deterministic and independent of generation order.

The task vocabulary is defined here and nowhere else: the span-corruption
sentinels (`MAX_SENTINELS` of them, the k-th spelled ``sentinel(k)``) and
the yes/no answer words `YES` and `NO`.  The model's special tokens and its
vocabulary are built from these names.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from enum import Enum

from . import InputError, keyed_rng


class TaskKind(str, Enum):
    CAPTION = "caption"
    COMPLETION = "completion"
    ITM = "itm"
    MLM = "mlm"
    OA_LIST = "oa_list"
    OA_EXISTS = "oa_exists"
    OA_ANDOR = "oa_andor"
    OA_WHICH = "oa_which"


KIND_NAMES = [k.value for k in TaskKind]
CM_KINDS = (TaskKind.CAPTION, TaskKind.COMPLETION, TaskKind.ITM, TaskKind.MLM)
OA_KINDS = (TaskKind.OA_LIST, TaskKind.OA_EXISTS, TaskKind.OA_ANDOR, TaskKind.OA_WHICH)

EASY = "easy"
HARD = "hard"

MAX_SENTINELS = 16
YES, NO = "yes", "no"
COMPLETION_SPLIT = (0.25, 0.75)  # range of the prefix fraction of a completion
ANDOR_K = (2, 3)  # names in an and/or question


def sentinel(k):
    """The marker of the ``k``-th masked span, as in T5's span corruption."""
    return f"<extra_{k}>"


class NoNounFound(ValueError):
    """Caption contains no lexicon noun to replace."""


class SynthesisError(InputError):
    """A requested task kind cannot be generated from this corpus."""

    def __init__(self, kind, message=""):
        self.kind = kind
        super().__init__(f"{kind.value}: {message or 'no eligible images'}")


def normalize_caption(text):
    return " ".join(text.lower().split())


@dataclass
class TaskExample:
    image_id: str
    kind: TaskKind
    prompt: str
    target: str
    meta: dict = field(default_factory=dict)

    def to_json(self):
        return json.dumps(
            {
                "image_id": self.image_id,
                "kind": self.kind.value,
                "prompt": self.prompt,
                "target": self.target,
                "meta": self.meta,
            },
            ensure_ascii=False,
        )

    @classmethod
    def from_json(cls, line):
        obj = json.loads(line)
        return cls(
            image_id=obj["image_id"],
            kind=TaskKind(obj["kind"]),
            prompt=obj["prompt"],
            target=obj["target"],
            meta=obj.get("meta", {}),
        )


@dataclass
class SynthConfig:
    seed: int = 0
    mlm_mask_rate: float = 0.15
    mlm_mean_span: float = 3.0
    yes_no_balance: float = 0.5
    policy: str = EASY

    def __post_init__(self):
        if not (0.0 < self.mlm_mask_rate < 1.0):
            raise ValueError("mlm_mask_rate must be in (0,1)")
        if self.mlm_mean_span < 1.0:
            raise ValueError("mlm_mean_span must be >= 1")
        if not (0.0 < self.yes_no_balance < 1.0):
            raise ValueError("yes_no_balance must be in (0,1)")
        if self.policy not in (EASY, HARD):
            raise ValueError(f"policy must be {EASY!r} or {HARD!r}")


# ---------------------------------------------------------------------------
# cross-modal generators

def synth_caption(record):
    return TaskExample(
        image_id=record.image_id,
        kind=TaskKind.CAPTION,
        prompt="describe the image.",
        target=normalize_caption(record.caption),
    )


def synth_completion(record, rng):
    """Prefix -> suffix completion of a caption of at least 4 tokens."""
    toks = normalize_caption(record.caption).split()
    lo, hi = COMPLETION_SPLIT
    split = int(round(rng.uniform(lo, hi) * len(toks)))
    split = max(1, min(len(toks) - 1, split))
    return TaskExample(
        image_id=record.image_id,
        kind=TaskKind.COMPLETION,
        prompt="complete: " + " ".join(toks[:split]),
        target=" ".join(toks[split:]),
    )


def make_hard_negative_caption(caption, lexicon, rng):
    """Swap one lexicon noun for a related noun.

    Returns (new_caption, replaced_noun, replacement); the result differs from
    the input at exactly one token.  Raises NoNounFound when no caption token
    is a lexicon key with a non-empty related list.
    """
    from .corpus import _PUNCT, extract_nouns

    occurrences = [(i, w) for i, w in extract_nouns(caption, lexicon) if lexicon.related(w)]
    if not occurrences:
        raise NoNounFound(f"no replaceable noun in {caption!r}")
    tok_index, noun = occurrences[rng.randrange(len(occurrences))]
    related = lexicon.related(noun)
    replacement = related[rng.randrange(len(related))]
    toks = caption.split()
    # splice into the token core so surrounding punctuation ("fish," -> "dog,")
    # survives; overwriting the whole token would leak a mangled-comma tell
    tok = toks[tok_index]
    start = len(tok) - len(tok.lstrip(_PUNCT))
    end = len(tok.rstrip(_PUNCT))
    toks[tok_index] = tok[:start] + replacement + tok[end:]
    return " ".join(toks), noun, replacement


@dataclass(frozen=True)
class CaptionPool:
    """Every caption of a corpus in sorted image-id order, and each image's
    ``[start, end)`` span in it.  An image's easy ITM negatives are the pool
    minus its own span, so drawing one needs no per-image list."""

    captions: list
    spans: dict  # image_id -> (start, end)

    def n_others(self, image_id):
        """Number of captions that belong to other images."""
        start, end = self.spans.get(image_id, (0, 0))
        return len(self.captions) - (end - start)

    def other(self, image_id, index):
        """The ``index``-th caption of the pool with ``image_id``'s own
        captions left out."""
        start, end = self.spans.get(image_id, (0, 0))
        return self.captions[index + (end - start) if index >= start else index]


def caption_pool(corpus):
    captions, spans = [], {}
    for image_id in sorted(corpus.captions):
        start = len(captions)
        captions.extend(corpus.captions[image_id])
        spans[image_id] = (start, len(captions))
    return CaptionPool(captions, spans)


def synth_itm(record, pool, lexicon, cfg, rng):
    """Image-text matching: yes for the true caption, no for a negative.

    Easy negatives are drawn from ``pool`` (the corpus's `caption_pool`),
    which holds a caption of another image.  Hard negatives rewrite one
    noun; when the caption has no lexicon noun the generator falls back to
    an easy negative and records it in meta.
    """
    caption = normalize_caption(record.caption)
    meta = {"policy": cfg.policy}
    if rng.random() < cfg.yes_no_balance:
        text, target = caption, YES
    else:
        target = NO
        text = None
        if cfg.policy == HARD:
            try:
                text, noun, repl = make_hard_negative_caption(caption, lexicon, rng)
                meta["replaced_noun"] = noun
                meta["replacement"] = repl
            except NoNounFound:
                meta["policy"] = EASY
                meta["fallback"] = True
        if text is None:
            n = pool.n_others(record.image_id)
            text = normalize_caption(pool.other(record.image_id, rng.randrange(n)).caption)
    return TaskExample(
        image_id=record.image_id,
        kind=TaskKind.ITM,
        prompt="does this text match the image? " + text,
        target=target,
        meta=meta,
    )


def _geometric(rng, mean):
    """Geometric span length with the given mean, >= 1."""
    p = 1.0 / mean
    if p >= 1.0:
        return 1
    u = rng.random()
    return max(1, int(math.ceil(math.log(1.0 - u) / math.log(1.0 - p))))


def synth_mlm(record, cfg, rng):
    """Span corruption: mask ~mask_rate of tokens with sentinel markers.

    Prompt is the caption with the k-th masked span replaced by
    ``sentinel(k)``; target concatenates the sentinels with the tokens they hid.  The caption has at
    least 4 tokens, so the first span always fits.
    """
    toks = normalize_caption(record.caption).split()
    n = len(toks)
    goal = max(1, int(round(cfg.mlm_mask_rate * n)))
    covered = [False] * n

    def valid_starts(length):
        starts = []
        for s in range(n - length + 1):
            if any(covered[s : s + length]):
                continue
            if s > 0 and covered[s - 1]:
                continue
            if s + length < n and covered[s + length]:
                continue
            starts.append(s)
        return starts

    spans = []
    masked = 0
    while masked < goal and len(spans) < MAX_SENTINELS:
        length = min(_geometric(rng, cfg.mlm_mean_span), goal - masked)
        starts = valid_starts(length)
        while not starts and length > 1:
            length -= 1
            starts = valid_starts(length)
        if not starts:
            break
        s = starts[rng.randrange(len(starts))]
        spans.append((s, length))
        for i in range(s, s + length):
            covered[i] = True
        masked += length

    spans.sort()
    prompt_toks, target_toks = [], []
    cursor = 0
    for k, (s, length) in enumerate(spans):
        prompt_toks.extend(toks[cursor:s])
        prompt_toks.append(sentinel(k))
        target_toks.append(sentinel(k))
        target_toks.extend(toks[s : s + length])
        cursor = s + length
    prompt_toks.extend(toks[cursor:])
    return TaskExample(
        image_id=record.image_id,
        kind=TaskKind.MLM,
        prompt=" ".join(prompt_toks),
        target=" ".join(target_toks),
    )


# ---------------------------------------------------------------------------
# object-aware generators

def synth_oa_list(image_id, positives):
    """'list all objects' -> the sorted positive display names."""
    return TaskExample(
        image_id=image_id,
        kind=TaskKind.OA_LIST,
        prompt="list all objects",
        target=", ".join(positives),
    )


def distractor_names(corpus, image_id, policy):
    """Policy-dependent pool of absent-object names for an image, sorted.

    Easy: any class name not positively labeled.  Hard: classes with a
    human-verified negative label.
    """
    if policy == EASY:
        positive = set(corpus.positive_names(image_id))
        return [n for n in corpus.all_class_names() if n not in positive]
    return sorted(corpus.display_name(c) for c in corpus.verified_negative_class_ids(image_id))


def synth_oa_exists(image_id, positives, distractors, cfg, rng):
    """'does X exist?' with a positive or a policy-drawn absent object."""
    if rng.random() < cfg.yes_no_balance:
        name, target = positives[rng.randrange(len(positives))], YES
    else:
        name, target = distractors[rng.randrange(len(distractors))], NO
    return TaskExample(
        image_id=image_id,
        kind=TaskKind.OA_EXISTS,
        prompt=f"does {name} exist?",
        target=target,
        meta={"policy": cfg.policy},
    )


_ANDOR_REDRAWS = 20


def _join_candidates(names, connective):
    if len(names) == 2:
        return f"{names[0]} {connective} {names[1]}"
    return f"{', '.join(names[:-1])} {connective} {names[-1]}"


def synth_oa_andor(image_id, positives, distractors, cfg, rng):
    """'does a, b and/or c exist?' with truth-table target.

    The target is balanced toward yes_no_balance by re-drawing the candidate
    composition a bounded number of times, then accepting whatever came up.
    """
    positives = set(positives)
    union = sorted(positives | set(distractors))
    feasible = [k for k in ANDOR_K if k <= len(union)]
    k = feasible[rng.randrange(len(feasible))]
    connective = ("and", "or")[rng.randrange(2)]
    want_yes = rng.random() < cfg.yes_no_balance
    for _ in range(_ANDOR_REDRAWS):
        candidates = rng.sample(union, k)
        if connective == "and":
            truth = all(c in positives for c in candidates)
        else:
            truth = any(c in positives for c in candidates)
        if truth == want_yes:
            break
    return TaskExample(
        image_id=image_id,
        kind=TaskKind.OA_ANDOR,
        prompt=f"does {_join_candidates(candidates, connective)} exist?",
        target=YES if truth else NO,
        meta={"policy": cfg.policy, "connective": connective, "candidate_objects": candidates},
    )


def synth_oa_which(image_id, positives, distractors, cfg, rng):
    """'which of a, b and c exist?' -> positive candidates in prompt order."""
    n_pos = rng.randint(max(1, 3 - len(distractors)), min(2, len(positives)))
    candidates = rng.sample(positives, n_pos) + rng.sample(distractors, 3 - n_pos)
    rng.shuffle(candidates)
    positive_set = set(positives)
    return TaskExample(
        image_id=image_id,
        kind=TaskKind.OA_WHICH,
        prompt=f"which of {candidates[0]}, {candidates[1]} and {candidates[2]} exist?",
        target=", ".join(c for c in candidates if c in positive_set),
        meta={"policy": cfg.policy, "candidate_objects": candidates},
    )


# ---------------------------------------------------------------------------
# dataset-level synthesis

def task_source(kind, corpus, image_id, cfg, pool):
    """What ``image_id`` supplies to build ``kind``, or None when it cannot
    build it.  This is the only test of eligibility.

    Caption kinds get the image's captions: completion and MLM only those of
    at least 4 tokens, and ITM needs a caption of another image in ``pool``
    (the corpus's `caption_pool`).  `oa_list` gets the sorted positive names;
    the object questions get (positives, distractors), the distractors being
    the policy's absent-object names, when together they fill the question.
    """
    if kind in CM_KINDS:
        caps = corpus.captions.get(image_id, [])
        if kind in (TaskKind.COMPLETION, TaskKind.MLM):
            caps = [c for c in caps if len(normalize_caption(c.caption).split()) >= 4]
        elif kind == TaskKind.ITM and not pool.n_others(image_id):
            return None
        return caps or None
    positives = sorted(set(corpus.positive_names(image_id)))
    if not positives:
        return None
    if kind == TaskKind.OA_LIST:
        return positives
    distractors = distractor_names(corpus, image_id, cfg.policy)
    if not distractors:
        return None
    if kind == TaskKind.OA_ANDOR and len(set(positives) | set(distractors)) < min(ANDOR_K):
        return None
    if kind == TaskKind.OA_WHICH and len(positives) + len(distractors) < 3:
        return None
    return positives, distractors


def _sources(corpus, kind, cfg, pool):
    """(image_id, material) of every image that can source ``kind``, in id order."""
    out = []
    for image_id in corpus.image_ids():
        material = task_source(kind, corpus, image_id, cfg, pool)
        if material is not None:
            out.append((image_id, material))
    return out


def eligible_images(corpus, kind, cfg, pool=None):
    """Sorted ids of images that can source ``kind`` (see `task_source`).
    ``pool`` is the corpus's `caption_pool`, built here for ITM when not given."""
    if kind == TaskKind.ITM and pool is None:
        pool = caption_pool(corpus)
    return [image_id for image_id, _ in _sources(corpus, kind, cfg, pool)]


# kind -> generator(image_id, material, cfg, rng, lexicon, pool); a caption
# kind's material is the one record drawn for the example
_GENERATORS = {
    TaskKind.CAPTION: lambda i, rec, cfg, rng, lex, pool: synth_caption(rec),
    TaskKind.COMPLETION: lambda i, rec, cfg, rng, lex, pool: synth_completion(rec, rng),
    TaskKind.ITM: lambda i, rec, cfg, rng, lex, pool: synth_itm(rec, pool, lex, cfg, rng),
    TaskKind.MLM: lambda i, rec, cfg, rng, lex, pool: synth_mlm(rec, cfg, rng),
    TaskKind.OA_LIST: lambda i, pos, cfg, rng, lex, pool: synth_oa_list(i, pos),
    TaskKind.OA_EXISTS: lambda i, m, cfg, rng, lex, pool: synth_oa_exists(i, *m, cfg, rng),
    TaskKind.OA_ANDOR: lambda i, m, cfg, rng, lex, pool: synth_oa_andor(i, *m, cfg, rng),
    TaskKind.OA_WHICH: lambda i, m, cfg, rng, lex, pool: synth_oa_which(i, *m, cfg, rng),
}


def synth_dataset(corpus, kinds, count_per_kind, cfg, lexicon=None):
    """An iterator over `count_per_kind` examples per kind, cycling the
    eligible images in id order.

    Each image's `task_source` material is computed once per kind, for every
    kind before the first example is made: a SynthesisError for a kind with
    no eligible image at all is raised by this call, not by the iterator.
    Each example's rng is keyed by (seed, kind, image_id, cycle), so the
    stream is reproducible and insensitive to evaluation order.
    """
    hard_itm = cfg.policy == HARD and TaskKind.ITM in kinds
    if hard_itm and lexicon is None:
        raise SynthesisError(TaskKind.ITM, "hard policy needs a lexicon")
    pool = caption_pool(corpus) if TaskKind.ITM in kinds else None
    plan = [(kind, _sources(corpus, kind, cfg, pool)) for kind in kinds]
    for kind, sources in plan:
        if not sources:
            raise SynthesisError(kind)
    return _examples(plan, count_per_kind, cfg, lexicon, pool)


def _examples(plan, count_per_kind, cfg, lexicon, pool):
    for kind, sources in plan:
        generate = _GENERATORS[kind]
        for n in range(count_per_kind):
            image_id, material = sources[n % len(sources)]
            rng = keyed_rng(cfg.seed, kind.value, image_id, n // len(sources))
            if kind in CM_KINDS:  # draw the example's caption
                k = 0 if len(material) == 1 else rng.randrange(len(material))
                material = material[k]
            yield generate(image_id, material, cfg, rng, lexicon, pool)


def write_task_files(corpus, kinds, count_per_kind, cfg, out_dir, lexicon=None):
    """Write one `<kind>.<policy>.jsonl` per kind plus synth_manifest.json.
    A kind that cannot be synthesized is refused before the first file is
    written, so a refusal leaves ``out_dir`` as it was."""
    stream = synth_dataset(corpus, kinds, count_per_kind, cfg, lexicon)
    os.makedirs(out_dir, exist_ok=True)
    counts = {}
    fallbacks = {}
    paths = {}
    for kind in kinds:
        path = os.path.join(out_dir, f"{kind.value}.{cfg.policy}.jsonl")
        n = 0
        n_fallback = 0
        with open(path, "w") as f:
            for ex in itertools.islice(stream, count_per_kind):
                f.write(ex.to_json() + "\n")
                n += 1
                if ex.meta.get("fallback"):
                    n_fallback += 1
        counts[kind.value] = n
        if n_fallback:
            fallbacks[kind.value] = n_fallback
        paths[kind] = path
    manifest = {
        "seed": cfg.seed,
        "policy": cfg.policy,
        "count_per_kind": count_per_kind,
        "config": {
            "mlm_mask_rate": cfg.mlm_mask_rate,
            "mlm_mean_span": cfg.mlm_mean_span,
            "completion_split": list(COMPLETION_SPLIT),
            "andor_k": list(ANDOR_K),
            "yes_no_balance": cfg.yes_no_balance,
        },
        "counts": counts,
        "fallbacks": fallbacks,
    }
    with open(os.path.join(out_dir, "synth_manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    return paths


def load_task_file(path):
    with open(path) as f:
        return [TaskExample.from_json(line) for line in f if line.strip()]
