"""Task synthesis: compile a corpus into training examples.

Four cross-modal tasks built from captions (captioning, completion, image-text
matching, span-corruption MLM) and four object-aware tasks built from labels
(list-all, exists, and/or-exists, which-of).  Negative sampling follows an
easy/hard policy: easy negatives are random captions / absent class names,
hard negatives are single-noun caption swaps / human-verified negative labels.

All generators are pure functions of (inputs, rng); `synth_dataset` keys each
example's rng by (seed, kind, image_id, cycle) so output is deterministic and
independent of generation order.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from enum import Enum


class TaskKind(str, Enum):
    CAPTION = "caption"
    COMPLETION = "completion"
    ITM = "itm"
    MLM = "mlm"
    OA_LIST = "oa_list"
    OA_EXISTS = "oa_exists"
    OA_ANDOR = "oa_andor"
    OA_WHICH = "oa_which"


CM_KINDS = (TaskKind.CAPTION, TaskKind.COMPLETION, TaskKind.ITM, TaskKind.MLM)
OA_KINDS = (TaskKind.OA_LIST, TaskKind.OA_EXISTS, TaskKind.OA_ANDOR, TaskKind.OA_WHICH)

EASY = "easy"
HARD = "hard"

MAX_SENTINELS = 16


class NoNounFound(ValueError):
    """Caption contains no lexicon noun to replace."""


class PolicyUnavailable(ValueError):
    """The negative pool required by the active policy is empty."""


class SynthesisError(ValueError):
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
    completion_split: tuple = (0.25, 0.75)
    andor_k: tuple = (2, 3)
    yes_no_balance: float = 0.5
    policy: str = EASY

    def __post_init__(self):
        if not (0.0 < self.mlm_mask_rate < 1.0):
            raise ValueError("mlm_mask_rate must be in (0,1)")
        if self.mlm_mean_span < 1.0:
            raise ValueError("mlm_mean_span must be >= 1")
        lo, hi = self.completion_split
        if not (0.0 < lo <= hi < 1.0):
            raise ValueError("completion_split must satisfy 0 < lo <= hi < 1")
        ks = tuple(sorted(set(int(k) for k in self.andor_k)))
        if not ks or not set(ks) <= {2, 3}:
            raise ValueError("andor_k must be a non-empty subset of {2,3}")
        self.andor_k = ks
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


def synth_completion(record, cfg, rng):
    """Prefix -> suffix completion.  Returns None (skip) on captions < 4 tokens."""
    toks = normalize_caption(record.caption).split()
    if len(toks) < 4:
        return None
    lo, hi = cfg.completion_split
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

    Easy negatives are drawn from ``pool`` (the corpus's `caption_pool`).
    Hard negatives rewrite one noun; when the caption has no lexicon noun the
    generator falls back to an easy negative and records it in meta.
    """
    caption = normalize_caption(record.caption)
    meta = {"policy": cfg.policy}
    if rng.random() < cfg.yes_no_balance:
        text, target = caption, "yes"
    else:
        target = "no"
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
            if not n:
                raise PolicyUnavailable("easy ITM negative needs a caption from another image")
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

    Prompt is the caption with each masked span replaced by <extra_k>; target
    concatenates the sentinels with the tokens they hid.  Skips (<4 tokens).
    """
    toks = normalize_caption(record.caption).split()
    n = len(toks)
    if n < 4:
        return None
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
    if not spans:
        return None

    spans.sort()
    prompt_toks, target_toks = [], []
    cursor = 0
    for k, (s, length) in enumerate(spans):
        prompt_toks.extend(toks[cursor:s])
        sentinel = f"<extra_{k}>"
        prompt_toks.append(sentinel)
        target_toks.append(sentinel)
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

def synth_oa_list(image_labels, class_table):
    """'list all objects' -> lexicographically sorted positive display names."""
    positives = sorted(
        {class_table[l.class_id].display_name for l in image_labels if l.presence == "positive"}
    )
    if not positives:
        return None
    return TaskExample(
        image_id=image_labels[0].image_id,
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


def synth_oa_exists(image_id, corpus, cfg, rng):
    """'does X exist?' with a positive or a policy-drawn absent object."""
    positives = sorted(set(corpus.positive_names(image_id)))
    if not positives:
        return None
    pool = distractor_names(corpus, image_id, cfg.policy)
    if not pool:
        raise PolicyUnavailable(f"{cfg.policy} negatives unavailable for {image_id}")
    if rng.random() < cfg.yes_no_balance:
        name, target = positives[rng.randrange(len(positives))], "yes"
    else:
        name, target = pool[rng.randrange(len(pool))], "no"
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


def synth_oa_andor(image_id, corpus, cfg, rng):
    """'does a, b and/or c exist?' with truth-table target.

    The target is balanced toward yes_no_balance by re-drawing the candidate
    composition a bounded number of times, then accepting whatever came up.
    """
    positives = set(corpus.positive_names(image_id))
    if not positives:
        return None
    pool = distractor_names(corpus, image_id, cfg.policy)
    if not pool:
        raise PolicyUnavailable(f"{cfg.policy} negatives unavailable for {image_id}")
    union = sorted(positives | set(pool))
    feasible = [k for k in cfg.andor_k if k <= len(union)]
    if not feasible:
        return None

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
        target="yes" if truth else "no",
        meta={"policy": cfg.policy, "connective": connective, "candidate_objects": candidates},
    )


def synth_oa_which(image_id, corpus, cfg, rng):
    """'which of a, b and c exist?' -> positive candidates in prompt order."""
    positives = sorted(set(corpus.positive_names(image_id)))
    if not positives:
        return None
    pool = distractor_names(corpus, image_id, cfg.policy)
    if not pool:
        raise PolicyUnavailable(f"{cfg.policy} negatives unavailable for {image_id}")
    lo = max(1, 3 - len(pool))
    hi = min(2, len(positives))
    if lo > hi or len(positives) + len(pool) < 3:
        return None
    n_pos = rng.randint(lo, hi)
    candidates = rng.sample(positives, n_pos) + rng.sample(pool, 3 - n_pos)
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

def example_rng(seed, kind, image_id, cycle):
    """Deterministic per-example rng, independent of generation order."""
    key = f"{seed}|{kind.value}|{image_id}|{cycle}".encode()
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


def _long_captions(corpus, image_id):
    return [c for c in corpus.captions.get(image_id, []) if len(normalize_caption(c.caption).split()) >= 4]


def eligible_images(corpus, kind, cfg, pool=None):
    """Sorted ids of images whose annotations can source the given kind.
    ``pool`` is the corpus's `caption_pool`, built here for ITM when not given."""
    if kind == TaskKind.ITM and pool is None:
        pool = caption_pool(corpus)
    out = []
    for image_id in corpus.image_ids():
        caps = corpus.captions.get(image_id, [])
        if kind == TaskKind.CAPTION:
            ok = bool(caps)
        elif kind in (TaskKind.COMPLETION, TaskKind.MLM):
            ok = bool(_long_captions(corpus, image_id))
        elif kind == TaskKind.ITM:
            ok = bool(caps) and pool.n_others(image_id) > 0
        else:
            positives = set(corpus.positive_names(image_id))
            if not positives:
                ok = False
            elif kind == TaskKind.OA_LIST:
                ok = True
            else:
                pool = distractor_names(corpus, image_id, cfg.policy)
                if not pool:
                    ok = False
                elif kind == TaskKind.OA_EXISTS:
                    ok = True
                elif kind == TaskKind.OA_ANDOR:
                    ok = len(positives) + len(set(pool) - positives) >= min(cfg.andor_k)
                else:  # OA_WHICH
                    ok = (
                        len(positives) + len(pool) >= 3
                        and max(1, 3 - len(pool)) <= min(2, len(positives))
                    )
        if ok:
            out.append(image_id)
    return out


def _generate_one(kind, corpus, image_id, cfg, rng, lexicon, pool):
    if kind in (TaskKind.CAPTION, TaskKind.ITM):
        caps = corpus.captions.get(image_id, [])
    elif kind in (TaskKind.COMPLETION, TaskKind.MLM):
        caps = _long_captions(corpus, image_id)
    else:
        caps = None

    if caps is not None:
        if not caps:
            return None
        record = caps[0] if len(caps) == 1 else caps[rng.randrange(len(caps))]
        if kind == TaskKind.CAPTION:
            return synth_caption(record)
        if kind == TaskKind.COMPLETION:
            return synth_completion(record, cfg, rng)
        if kind == TaskKind.ITM:
            return synth_itm(record, pool, lexicon, cfg, rng)
        return synth_mlm(record, cfg, rng)

    if kind == TaskKind.OA_LIST:
        return synth_oa_list(corpus.labels.get(image_id, []), corpus.classes)
    if kind == TaskKind.OA_EXISTS:
        return synth_oa_exists(image_id, corpus, cfg, rng)
    if kind == TaskKind.OA_ANDOR:
        return synth_oa_andor(image_id, corpus, cfg, rng)
    if kind == TaskKind.OA_WHICH:
        return synth_oa_which(image_id, corpus, cfg, rng)
    raise ValueError(f"unknown kind {kind!r}")


def synth_dataset(corpus, kinds, count_per_kind, cfg, lexicon=None):
    """Yield `count_per_kind` examples per kind, cycling images in id order.

    Each example's rng is keyed by (seed, kind, image_id, cycle), so the stream
    is reproducible and insensitive to evaluation order.  Skip signals hand the
    slot to the next eligible image.  Raises SynthesisError when a kind has no
    eligible image at all.
    """
    hard_itm = cfg.policy == HARD and TaskKind.ITM in kinds
    if hard_itm and lexicon is None:
        raise SynthesisError(TaskKind.ITM, "hard policy needs a lexicon")
    pool = caption_pool(corpus) if TaskKind.ITM in kinds else None
    for kind in kinds:
        eligible = eligible_images(corpus, kind, cfg, pool)
        if not eligible:
            raise SynthesisError(kind)
        uses = {}
        produced = 0
        position = 0
        consecutive_skips = 0
        while produced < count_per_kind:
            image_id = eligible[position % len(eligible)]
            position += 1
            cycle = uses.get(image_id, 0)
            uses[image_id] = cycle + 1
            rng = example_rng(cfg.seed, kind, image_id, cycle)
            example = _generate_one(kind, corpus, image_id, cfg, rng, lexicon, pool)
            if example is None:
                consecutive_skips += 1
                if consecutive_skips > len(eligible):
                    raise SynthesisError(kind, "every eligible image produced a skip")
                continue
            consecutive_skips = 0
            produced += 1
            yield example


def write_task_files(corpus, kinds, count_per_kind, cfg, out_dir, lexicon=None):
    """Write one `<kind>.<policy>.jsonl` per kind plus synth_manifest.json."""
    os.makedirs(out_dir, exist_ok=True)
    counts = {}
    fallbacks = {}
    paths = {}
    for kind in kinds:
        path = os.path.join(out_dir, f"{kind.value}.{cfg.policy}.jsonl")
        n = 0
        n_fallback = 0
        with open(path, "w") as f:
            for ex in synth_dataset(corpus, [kind], count_per_kind, cfg, lexicon):
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
            "completion_split": list(cfg.completion_split),
            "andor_k": list(cfg.andor_k),
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
