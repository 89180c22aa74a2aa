"""Open-vocabulary scoring and aggregate reporting.

Exact match is a pure string comparison after minimal normalization (case,
whitespace, terminal period): no partial credit, order-sensitive for list
answers.  Captions are scored with a TF-IDF n-gram consensus metric with a
Gaussian length penalty.  When a corpus exposes hidden positives, list-task
items that fail *only* because the prediction names a hidden object are
counted separately: the model saw the object in pixels, the labels did not.
"""

from __future__ import annotations

import json
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field

from . import atomic_write
from .corpus import ParseError
from .mixture import make_batch
from .tasksynth import TaskKind


def normalize_answer(text):
    """Lowercase, trim, collapse internal whitespace, strip terminal period."""
    t = " ".join(text.lower().split())
    if t.endswith("."):
        t = t[:-1].rstrip()
    return t


def exact_match(prediction, ground_truths):
    """1 iff normalized prediction equals any normalized ground truth."""
    gts = list(ground_truths)
    if not gts:
        raise ValueError("exact_match: empty ground-truth list")
    p = normalize_answer(prediction)
    return int(any(p == normalize_answer(g) for g in gts))


# ---------------------------------------------------------------------------
# consensus captioning metric

def _ngrams(tokens, n):
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def compute_idf(reference_sets, n_max=4):
    """idf[n][gram] = ln(N / df) over the reference corpus.

    df counts reference *sets* (documents) containing the n-gram in at least
    one of their references.  Grams present in every document get idf 0.
    """
    N = len(reference_sets)
    idf = {n: {} for n in range(1, n_max + 1)}
    for n in range(1, n_max + 1):
        df = Counter()
        for refs in reference_sets:
            seen = set()
            for ref in refs:
                seen.update(_ngrams(normalize_answer(ref).split(), n))
            df.update(seen)
        for gram, d in df.items():
            idf[n][gram] = math.log(N / d)
    return idf


def _tfidf_vector(tokens, n, idf_n):
    vec = {}
    for gram, count in Counter(_ngrams(tokens, n)).items():
        w = idf_n.get(gram, 0.0)  # unseen or everywhere-present grams carry no weight
        if w > 0.0:
            vec[gram] = count * w
    return vec


def _cosine(a, b):
    na = math.sqrt(sum(v * v for v in a.values()))
    nb = math.sqrt(sum(v * v for v in b.values()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    dot = sum(v * b[g] for g, v in a.items() if g in b)
    return dot / (na * nb)


def cider(candidates, reference_sets, n_max=4, sigma=6.0, idf_table=None):
    """Consensus score per candidate plus the mean, each in [0, 10].

    For each n in 1..n_max: cosine of TF-IDF n-gram vectors between candidate
    and each reference, damped by exp(-(len_c - len_r)^2 / (2 sigma^2)),
    averaged over references and n, times 10.  ``idf_table`` (from
    compute_idf) freezes document frequencies; by default they come from
    ``reference_sets`` itself.
    """
    if not candidates:
        raise ValueError("cider: no candidates")
    if len(candidates) != len(reference_sets):
        raise ValueError("cider: candidates and reference_sets differ in length")
    for refs in reference_sets:
        if not refs:
            raise ValueError("cider: empty reference set")
    if idf_table is None:
        idf_table = compute_idf(reference_sets, n_max)

    scores = []
    for cand, refs in zip(candidates, reference_sets):
        ctoks = normalize_answer(cand).split()
        if not ctoks:
            warnings.warn("cider: empty candidate scored 0")
            scores.append(0.0)
            continue
        total = 0.0
        for ref in refs:
            rtoks = normalize_answer(ref).split()
            penalty = math.exp(-((len(ctoks) - len(rtoks)) ** 2) / (2.0 * sigma**2))
            sim = 0.0
            for n in range(1, n_max + 1):
                cvec = _tfidf_vector(ctoks, n, idf_table[n])
                rvec = _tfidf_vector(rtoks, n, idf_table[n])
                sim += _cosine(cvec, rvec)
            total += (sim / n_max) * penalty
        scores.append(10.0 * total / len(refs))
    return scores, sum(scores) / len(scores)


# ---------------------------------------------------------------------------
# reports

@dataclass
class EvalItem:
    example_id: str
    prediction: str
    ground_truths: list
    kind: str
    hidden_names: tuple = ()

    def __post_init__(self):
        if not self.ground_truths:
            raise ValueError(f"item {self.example_id}: empty ground-truth list")


@dataclass
class EvalReport:
    settings: dict
    per_task: dict
    items: list
    overall_exact_match: float
    hidden_penalties: int = 0
    fingerprints: dict = field(default_factory=dict)

    def to_json(self):
        return json.dumps(
            {
                "settings": self.settings,
                "overall": {"exact_match": self.overall_exact_match, "n_items": len(self.items)},
                "per_task": self.per_task,
                "oa_list_hidden_penalties": self.hidden_penalties,
                "fingerprints": self.fingerprints,
                "items": self.items,
            },
            sort_keys=True,
            indent=2,
        )


def _strip_hidden(prediction, hidden_names):
    parts = [p for p in normalize_answer(prediction).split(", ") if p]
    kept = [p for p in parts if p not in hidden_names]
    return ", ".join(kept)


def score_items(items, n_max=4, sigma=6.0, fingerprints=None):
    """Score a list of EvalItems into a deterministic EvalReport.

    Exact match everywhere; caption items additionally get the consensus
    metric (idf over their own reference sets).  A list-task miss flips into
    the penalty counter when deleting hidden-positive names from the
    prediction makes it an exact match.
    """
    verdicts = []
    penalties = 0
    out_items = []
    by_kind = {}
    for it in items:
        em = exact_match(it.prediction, it.ground_truths)
        row = {"id": it.example_id, "kind": it.kind, "prediction": it.prediction, "exact_match": em}
        if em == 0 and it.kind == TaskKind.OA_LIST and it.hidden_names:
            stripped = _strip_hidden(it.prediction, set(it.hidden_names))
            if stripped and exact_match(stripped, it.ground_truths) == 1:
                penalties += 1
                row["hidden_penalty"] = 1
        verdicts.append(em)
        out_items.append(row)
        by_kind.setdefault(it.kind, []).append((it, row))

    per_task = {}
    for kind, pairs in sorted(by_kind.items()):
        ems = [r["exact_match"] for _, r in pairs]
        per_task[kind] = {"n": len(pairs), "exact_match": sum(ems) / len(ems)}
        if kind == TaskKind.CAPTION:
            cands = [it.prediction for it, _ in pairs]
            refs = [it.ground_truths for it, _ in pairs]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                scores, mean = cider(cands, refs, n_max=n_max, sigma=sigma)
            for (_, row), s in zip(pairs, scores):
                row["cider"] = round(s, 10)
            per_task[kind]["cider"] = mean

    settings = {
        "normalization": "lowercase, trim, collapse whitespace, strip terminal period",
        "metric": "exact_match",
        "caption_metric": {"name": "cider", "n_max": n_max, "sigma": sigma},
    }
    return EvalReport(
        settings=settings,
        per_task=per_task,
        items=out_items,
        overall_exact_match=sum(verdicts) / len(verdicts) if verdicts else 0.0,
        hidden_penalties=penalties,
        fingerprints=dict(fingerprints or {}),
    )


# ---------------------------------------------------------------------------
# model-in-the-loop evaluation

def _hidden_display_names(corpus, image_id):
    hid = corpus.hidden_positives.get(image_id, set())
    return tuple(sorted(corpus.display_name(c) for c in hid))


def predict(model, vocab, examples, images, batch_size=64):
    """Greedy predictions for task examples, in order.  Deterministic."""
    preds = []
    limits = (model.cfg.max_prompt, model.cfg.max_target)
    for lo in range(0, len(examples), batch_size):
        batch = make_batch(examples[lo : lo + batch_size], vocab, limits, images=images)
        for ids in model.generate_batch(batch.images, batch.prompt_ids, prompt_mask=batch.prompt_mask):
            preds.append(vocab.decode(ids))
    return preds


def evaluate(model, vocab, examples, images, corpus=None, batch_size=64):
    """Generate + score.  ``corpus`` supplies caption references and hidden
    positives."""
    preds = predict(model, vocab, examples, images, batch_size=batch_size)
    items = []
    for i, (ex, pred) in enumerate(zip(examples, preds)):
        gts = [ex.target]
        hidden = ()
        if corpus is not None:
            if ex.kind == TaskKind.CAPTION and corpus.captions.get(ex.image_id):
                gts = [c.caption for c in corpus.captions[ex.image_id]]
            if ex.kind == TaskKind.OA_LIST:
                hidden = _hidden_display_names(corpus, ex.image_id)
        items.append(EvalItem(
            example_id=f"{i:06d}:{ex.image_id}",
            prediction=pred,
            ground_truths=gts,
            kind=ex.kind.value,
            hidden_names=hidden,
        ))
    fingerprints = {"vocab": vocab.fingerprint()}
    if corpus is not None:
        fingerprints["corpus"] = corpus.fingerprint()
    return score_items(items, fingerprints=fingerprints)


# ---------------------------------------------------------------------------
# offline scoring files

def write_predictions(path, ids, predictions):
    with atomic_write(path) as f:
        for i, p in zip(ids, predictions):
            f.write(json.dumps({"id": i, "prediction": p}) + "\n")


_STRING_FIELDS = ("id", "prediction", "kind")
_LIST_FIELDS = ("answers", "hidden")  # lists of strings


def _jsonl_rows(path, keys):
    """Yield (line number, object) for each non-blank line of a JSONL file.
    A line that is not a JSON object holding every one of ``keys``, or that
    holds a field of a predictions or ground-truth line with a value of
    another type, raises ParseError naming the path and line."""
    with open(path, "rb") as f:
        for n, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(f"{path}:{n}: not JSON ({e.msg})") from None
            except UnicodeDecodeError:
                raise ParseError(f"{path}:{n}: not UTF-8 text") from None
            if not isinstance(obj, dict):
                raise ParseError(f"{path}:{n}: not a JSON object")
            missing = [k for k in keys if k not in obj]
            if missing:
                raise ParseError(f"{path}:{n}: missing {', '.join(missing)}")
            for key in _STRING_FIELDS:
                if key in obj and not isinstance(obj[key], str):
                    raise ParseError(f"{path}:{n}: {key} is not a string")
            for key in _LIST_FIELDS:
                if key in obj and not (isinstance(obj[key], list)
                                       and all(isinstance(v, str) for v in obj[key])):
                    raise ParseError(f"{path}:{n}: {key} is not a list of strings")
            yield n, obj


def read_predictions(path):
    preds = {}
    for n, obj in _jsonl_rows(path, ("id", "prediction")):
        if obj["id"] in preds:
            raise ParseError(f"{path}:{n}: repeated id {obj['id']!r}")
        preds[obj["id"]] = obj["prediction"]
    return preds


def write_ground_truth(path, items):
    """items: iterable of (id, answers list, kind, hidden names)."""
    with open(path, "w") as f:
        for i, answers, kind, hidden in items:
            rec = {"id": i, "answers": list(answers), "kind": kind}
            if hidden:
                rec["hidden"] = list(hidden)
            f.write(json.dumps(rec) + "\n")


def _ground_truth_rows(path):
    """Yield (line number, (id, answers, kind, hidden names)) per row."""
    for n, obj in _jsonl_rows(path, ("id", "answers")):
        if not obj["answers"]:
            raise ParseError(f"{path}:{n}: answers is empty")
        yield n, (obj["id"], obj["answers"], obj.get("kind", "unknown"),
                  tuple(obj.get("hidden", ())))


def read_ground_truth(path):
    return [row for _, row in _ground_truth_rows(path)]


def score_files(pred_path, gt_path):
    """Offline scorer: predictions JSONL x ground-truth JSONL -> EvalReport.
    Every ground-truth row needs a prediction."""
    preds = read_predictions(pred_path)
    items = []
    for n, (gid, answers, kind, hidden) in _ground_truth_rows(gt_path):
        if gid not in preds:
            raise ParseError(f"{gt_path}:{n}: no prediction for id {gid!r} in {pred_path}")
        items.append(EvalItem(
            example_id=gid, prediction=preds[gid], ground_truths=answers,
            kind=kind, hidden_names=hidden,
        ))
    if not items:
        raise ParseError(f"{gt_path}: no ground-truth rows")
    return score_items(items)
