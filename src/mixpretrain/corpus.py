"""Corpus ingestion and synthesis.

Readers for OpenImages-style annotation files (class descriptions and
image-level labels) and Localized-Narratives-style caption JSONL, a deterministic
synthetic corpus generator (colored glyphs on a grid), and the noun lexicon used
for hard-negative caption construction.  A corpus is immutable after build and
serializes to a directory that round-trips through the same parsers.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import os
import random
import string
from dataclasses import dataclass, field

import numpy as np

from . import InputError

CORPUS_FORMAT_VERSION = "2"


class ParseError(InputError):
    """Malformed input row/line.  Message carries the 1-based line number."""


class BuildError(InputError):
    """Referential-integrity failure while joining annotation sources."""


class ConfigError(InputError):
    """Bad run config, flag or synthesis parameters."""


def read_input(path, parser, mode="r"):
    """``parser`` applied to the open file at ``path``.  A ParseError, a CSV
    error or text that cannot be decoded is raised as a ParseError that
    names ``path``."""
    with open(path, mode) as f:
        try:
            return parser(f)
        except (ParseError, csv.Error, UnicodeDecodeError) as e:
            raise ParseError(f"{path}: {e}") from None


def read_json(f):
    """The JSON document in the open file ``f``; a ParseError if it is not JSON."""
    try:
        return json.load(f)
    except json.JSONDecodeError as e:
        raise ParseError(f"not JSON ({e.msg})") from None


# ---------------------------------------------------------------------------
# record types

@dataclass(frozen=True)
class ClassEntry:
    class_id: str
    display_name: str


@dataclass
class ImageRecord:
    image_id: str
    pixels: np.ndarray  # (H, W, 3) float32 in [0, 1]

    def __eq__(self, other):
        if not isinstance(other, ImageRecord):
            return NotImplemented
        return (
            self.image_id == other.image_id
            and self.pixels.shape == other.pixels.shape
            and np.array_equal(self.pixels, other.pixels)
        )


@dataclass(frozen=True)
class ImageLabel:
    image_id: str
    class_id: str
    presence: str  # "positive" | "negative"
    verification: str  # "machine" | "human"


@dataclass(frozen=True)
class CaptionRecord:
    image_id: str
    caption: str


@dataclass
class Lexicon:
    """Noun -> ordered list of related nouns (hard-negative replacement candidates)."""

    entries: dict = field(default_factory=dict)

    def __contains__(self, noun):
        return noun in self.entries

    def related(self, noun):
        return self.entries[noun]


@dataclass
class Corpus:
    """Joined view over classes, images, image-level labels and captions.

    ``images`` maps every known image id to its pixel record, or None when the
    corpus was built without pixel data (label-only experiments).
    ``hidden_positives`` records objects rendered into synthetic pixels but
    deliberately left unlabeled, modeling non-exhaustive annotation.
    """

    classes: dict = field(default_factory=dict)  # class_id -> ClassEntry
    images: dict = field(default_factory=dict)  # image_id -> ImageRecord | None
    labels: dict = field(default_factory=dict)  # image_id -> [ImageLabel]
    captions: dict = field(default_factory=dict)  # image_id -> [CaptionRecord]
    hidden_positives: dict = field(default_factory=dict)  # image_id -> set(class_id)
    dropped_records: int = 0
    meta: dict = field(default_factory=dict)

    def image_ids(self):
        return sorted(self.images.keys())

    def display_name(self, class_id):
        return self.classes[class_id].display_name

    def positive_class_ids(self, image_id):
        return [l.class_id for l in self.labels.get(image_id, []) if l.presence == "positive"]

    def positive_names(self, image_id):
        return [self.display_name(c) for c in self.positive_class_ids(image_id)]

    def verified_negative_class_ids(self, image_id):
        pos = set(self.positive_class_ids(image_id))
        return [
            l.class_id
            for l in self.labels.get(image_id, [])
            if l.presence == "negative" and l.verification == "human" and l.class_id not in pos
        ]

    def all_class_names(self):
        return sorted(e.display_name for e in self.classes.values())

    def n_captions(self):
        return sum(len(v) for v in self.captions.values())

    def fingerprint(self):
        """Stable hex digest of the annotation content (pixels excluded)."""
        import hashlib

        view = {
            "images": self.image_ids(),
            "classes": sorted((e.class_id, e.display_name) for e in self.classes.values()),
            "labels": {
                i: [(l.class_id, l.presence, l.verification) for l in v]
                for i, v in sorted(self.labels.items())
            },
            "captions": {i: [c.caption for c in v] for i, v in sorted(self.captions.items())},
            "hidden": {i: sorted(v) for i, v in sorted(self.hidden_positives.items()) if v},
            "meta": {k: self.meta[k] for k in sorted(self.meta)},
        }
        blob = json.dumps(view, sort_keys=True, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()

    def subset(self, image_ids):
        """Corpus restricted to ``image_ids`` (classes kept whole)."""
        keep = set(image_ids)
        return Corpus(
            classes=self.classes,
            images={i: r for i, r in self.images.items() if i in keep},
            labels={i: v for i, v in self.labels.items() if i in keep},
            captions={i: v for i, v in self.captions.items() if i in keep},
            hidden_positives={i: v for i, v in self.hidden_positives.items() if i in keep},
            dropped_records=0,
            meta=dict(self.meta),
        )


# ---------------------------------------------------------------------------
# parsers

def _rows(stream):
    """Yield (line_number, row) from a CSV text stream, skipping blank lines."""
    if isinstance(stream, (str, bytes)):
        raise TypeError("pass an iterable of lines or an open text file, not a path/blob")
    for lineno, row in enumerate(csv.reader(stream), start=1):
        if not row:
            continue
        yield lineno, row


def parse_class_descriptions(stream):
    """CSV `class_id,display_name` (no header) -> ordered class table dict."""
    table = {}
    for lineno, row in _rows(stream):
        if len(row) != 2:
            raise ParseError(f"line {lineno}: expected 2 columns, got {len(row)}")
        class_id, name = row[0].strip(), row[1].strip().lower()
        if not class_id or not name:
            raise ParseError(f"line {lineno}: empty class_id or display_name")
        if class_id in table:
            raise ParseError(f"line {lineno}: duplicate class_id {class_id!r}")
        table[class_id] = ClassEntry(class_id=class_id, display_name=name)
    return table


def parse_image_labels(stream):
    """CSV `image_id,source,class_id,confidence` -> list of ImageLabel.

    Confidence must be binary: 1 -> positive, 0 -> negative.  A source string
    containing "verification" marks the label human-verified.  An optional
    header row is detected by a leading "ImageID" field.
    """
    out = []
    for lineno, row in _rows(stream):
        if lineno == 1 and row and row[0].strip() == "ImageID":
            continue
        if len(row) != 4:
            raise ParseError(f"line {lineno}: expected 4 columns, got {len(row)}")
        image_id, source, class_id, conf_s = (c.strip() for c in row)
        try:
            conf = float(conf_s)
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric confidence {conf_s!r}") from None
        if conf not in (0.0, 1.0):
            raise ParseError(f"line {lineno}: non-binary confidence {conf_s!r}")
        out.append(
            ImageLabel(
                image_id=image_id,
                class_id=class_id,
                presence="positive" if conf == 1.0 else "negative",
                verification="human" if "verification" in source else "machine",
            )
        )
    return out


def parse_localized_narratives(stream):
    """JSONL with at least `image_id` and `caption` keys -> list of CaptionRecord."""
    out = []
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            raise ParseError(f"line {lineno}: not valid JSON") from None
        if not isinstance(obj, dict) or "image_id" not in obj or "caption" not in obj:
            raise ParseError(f"line {lineno}: need a JSON object with image_id and caption")
        caption = str(obj["caption"])
        if not caption.split():
            raise ParseError(f"line {lineno}: empty caption")
        out.append(CaptionRecord(image_id=str(obj["image_id"]), caption=caption))
    return out


def build_lexicon(stream):
    """TSV `noun<TAB>comma,separated,relatives` -> Lexicon.

    Self-references are dropped; a repeated noun key is a parse error.
    """
    entries = {}
    for lineno, line in enumerate(stream, start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        if "\t" not in line:
            raise ParseError(f"line {lineno}: expected noun<TAB>relatives")
        noun, rest = line.split("\t", 1)
        noun = noun.strip().lower()
        if not noun:
            raise ParseError(f"line {lineno}: empty noun")
        if noun in entries:
            raise ParseError(f"line {lineno}: duplicate noun {noun!r}")
        related = []
        for r in rest.split(","):
            r = r.strip().lower()
            if r and r != noun and r not in related:
                related.append(r)
        entries[noun] = related
    return Lexicon(entries=entries)


_PUNCT = string.punctuation


def extract_nouns(caption, lexicon):
    """All caption tokens that are lexicon keys, as (token_index, noun) pairs.

    Tokens are lowercased and stripped of surrounding punctuation before lookup.
    """
    hits = []
    for i, tok in enumerate(caption.split()):
        w = tok.lower().strip(_PUNCT)
        if w and w in lexicon:
            hits.append((i, w))
    return hits


# ---------------------------------------------------------------------------
# corpus assembly

def build_corpus(classes, labels=(), captions=(), images=(), hidden_positives=None, meta=None):
    """Join parsed annotation sources into a Corpus with referential integrity.

    The known-image universe is taken from `images` when pixel records exist,
    else from caption ids, else from label ids (label-only corpora).
    Labels/captions referencing unknown images are dropped and counted;
    a class_id missing from the class table is fatal.
    """
    images = list(images)
    labels = list(labels)
    captions = list(captions)

    if images:
        known = {r.image_id for r in images}
    elif captions:
        known = {c.image_id for c in captions}
    else:
        known = {l.image_id for l in labels}

    dropped = 0
    kept_labels, kept_captions = [], []
    for l in labels:
        if l.image_id in known:
            kept_labels.append(l)
        else:
            dropped += 1
    for c in captions:
        if c.image_id in known:
            kept_captions.append(c)
        else:
            dropped += 1

    missing = sorted({r.class_id for r in kept_labels if r.class_id not in classes})
    if missing:
        raise BuildError(f"class ids not in class table: {', '.join(missing)}")

    image_map = {i: None for i in sorted(known)}
    for r in images:
        image_map[r.image_id] = r

    corpus = Corpus(
        classes=dict(classes),
        images=image_map,
        labels=_group(kept_labels),
        captions=_group(kept_captions),
        hidden_positives={k: set(v) for k, v in (hidden_positives or {}).items() if k in known},
        dropped_records=dropped,
        meta=dict(meta or {}),
    )
    _check_hidden(corpus)
    return corpus


def _group(records):
    out = {}
    for r in records:
        out.setdefault(r.image_id, []).append(r)
    return out


def _check_hidden(corpus):
    for image_id, hidden in corpus.hidden_positives.items():
        overlap = hidden & set(corpus.positive_class_ids(image_id))
        if overlap:
            raise BuildError(f"hidden positives overlap labeled positives for {image_id}: {sorted(overlap)}")


# ---------------------------------------------------------------------------
# synthetic corpus

SHAPES = ("square", "circle", "triangle", "diamond", "cross", "ring")

_PALETTE = (
    (0.85, 0.10, 0.10),  # red
    (0.10, 0.60, 0.15),  # green
    (0.15, 0.25, 0.85),  # blue
    (0.90, 0.80, 0.10),  # yellow
    (0.80, 0.15, 0.80),  # magenta
    (0.10, 0.75, 0.80),  # cyan
    (0.95, 0.55, 0.10),  # orange
    (0.50, 0.20, 0.70),  # purple
    (0.10, 0.50, 0.45),  # teal
    (0.55, 0.35, 0.15),  # brown
    (0.95, 0.60, 0.70),  # pink
    (0.60, 0.85, 0.20),  # lime
)

_DEFAULT_NAMES = (
    "dog", "cat", "car", "tree", "ball", "cup",
    "fish", "bird", "star", "boat", "lamp", "key",
)


def default_object_vocab(n=12):
    """First ``n`` built-in object names mapped to distinct (shape, color) glyphs."""
    if not (1 <= n <= len(_DEFAULT_NAMES)):
        raise ConfigError(f"n must be in 1..{len(_DEFAULT_NAMES)}")
    return {
        name: (SHAPES[i % len(SHAPES)], _PALETTE[i])
        for i, name in enumerate(_DEFAULT_NAMES[:n])
    }


@functools.lru_cache(maxsize=64)
def _glyph_mask(shape, cell):
    """Boolean (cell, cell) mask for one glyph, drawn with ~10% margin.

    Cached, because every placement of a shape at one cell size draws the
    same mask; the returned array is read-only since callers share it.
    """
    m = max(1, cell // 8)
    y, x = np.ogrid[0:cell, 0:cell]
    c = (cell - 1) / 2.0
    r = cell / 2.0 - m
    if shape == "square":
        mask = (x >= m) & (x < cell - m) & (y >= m) & (y < cell - m)
    elif shape == "circle":
        mask = (x - c) ** 2 + (y - c) ** 2 <= r**2
    elif shape == "triangle":
        # apex at top, base at bottom
        h = cell - 2 * m
        width = (y - m + 1) / max(h, 1) * (cell / 2.0 - m)
        mask = (y >= m) & (y < cell - m) & (np.abs(x - c) <= width)
    elif shape == "diamond":
        mask = np.abs(x - c) + np.abs(y - c) <= r
    elif shape == "cross":
        bar = max(1, cell // 4)
        v = (np.abs(x - c) <= bar / 2) & (y >= m) & (y < cell - m)
        hz = (np.abs(y - c) <= bar / 2) & (x >= m) & (x < cell - m)
        mask = v | hz
    elif shape == "ring":
        d2 = (x - c) ** 2 + (y - c) ** 2
        mask = (d2 <= r**2) & (d2 >= (r * 0.45) ** 2)
    else:
        raise ConfigError(f"unknown glyph shape {shape!r}")
    mask.flags.writeable = False
    return mask


_BACKGROUND = 0.92


def render_image(placements, object_vocab, grid, cell):
    """Render placed objects onto a (grid*cell, grid*cell, 3) float32 canvas.

    ``placements`` is a list of (name, cell_row, cell_col).
    """
    size = grid * cell
    img = np.full((size, size, 3), _BACKGROUND, dtype=np.float32)
    for name, row, col in placements:
        shape, color = object_vocab[name]
        mask = _glyph_mask(shape, cell)
        view = img[row * cell : (row + 1) * cell, col * cell : (col + 1) * cell]
        view[mask] = np.asarray(color, dtype=np.float32)
    return img


def caption_for(names):
    """Template caption mentioning ``names`` in order."""
    if not names:
        return "a photo"
    items = [f"a {n}" for n in names]
    if len(items) == 1:
        return f"a photo of {items[0]}"
    return f"a photo of {', '.join(items[:-1])} and {items[-1]}"


def synth_class_id(name):
    return f"/syn/{name}"


def check_synth_args(n_images, grid, hidden_rate):
    """Refuse the `synth_corpus` arguments it cannot draw a corpus from."""
    if grid < 2:
        raise ConfigError("grid must be at least 2x2")
    if not (0.0 <= hidden_rate <= 1.0):
        raise ConfigError("hidden_rate must be in [0,1]")
    if n_images < 1:
        raise ConfigError("n_images must be positive")


def synth_corpus(seed, n_images, object_vocab=None, grid=4, hidden_rate=0.0, cell=8):
    """Deterministic synthetic corpus of glyph-grid images.

    Each image places 1..4 distinct objects on grid cells; a placed object is
    labeled positive with probability (1 - hidden_rate), otherwise it goes to
    hidden_positives.  The caption mentions labeled positives only, in
    placement order.  Two human-verified negative labels are drawn from objects
    absent from the image, so they are true negatives even under hiding.
    """
    if object_vocab is None:
        object_vocab = default_object_vocab()
    if len(object_vocab) < 4:
        raise ConfigError("object_vocab needs at least 4 entries")
    check_synth_args(n_images, grid, hidden_rate)

    names = sorted(object_vocab)
    # cap placements so two absent objects always remain for negatives
    max_objects = min(4, len(names) - 2)
    all_cells = [(r, c) for r in range(grid) for c in range(grid)]

    rng = random.Random(seed)
    classes = {synth_class_id(n): ClassEntry(synth_class_id(n), n) for n in names}
    images, labels, captions = [], [], []
    hidden = {}

    for i in range(n_images):
        image_id = f"syn{i:05d}"
        n_obj = rng.randint(1, max_objects)
        placed = rng.sample(names, n_obj)
        cells = rng.sample(all_cells, n_obj)
        placements = list(zip(placed, (c[0] for c in cells), (c[1] for c in cells)))

        labeled = []
        for name in placed:
            cid = synth_class_id(name)
            if rng.random() < hidden_rate:
                hidden.setdefault(image_id, set()).add(cid)
                continue
            labeled.append(name)
            labels.append(ImageLabel(image_id, cid, "positive", "human"))
        for name in rng.sample([n for n in names if n not in placed], 2):
            labels.append(ImageLabel(image_id, synth_class_id(name), "negative", "human"))

        captions.append(CaptionRecord(image_id, caption_for(labeled)))
        images.append(ImageRecord(image_id, render_image(placements, object_vocab, grid, cell)))

    return build_corpus(
        classes,
        labels=labels,
        captions=captions,
        images=images,
        hidden_positives=hidden,
        meta={"seed": seed, "source": "synthetic", "grid": grid, "cell": cell, "hidden_rate": hidden_rate},
    )


# ---------------------------------------------------------------------------
# directory serialization

def save_corpus(corpus, path, lexicon=None):
    """Write a corpus directory: manifest + annotation files + raw f32 pixels."""
    os.makedirs(path, exist_ok=True)
    os.makedirs(os.path.join(path, "pixels"), exist_ok=True)

    with open(os.path.join(path, "class_descriptions.csv"), "w", newline="") as f:
        w = csv.writer(f)
        for e in corpus.classes.values():
            w.writerow([e.class_id, e.display_name])

    with open(os.path.join(path, "image_labels.csv"), "w", newline="") as f:
        w = csv.writer(f)
        for image_id in corpus.image_ids():
            for l in corpus.labels.get(image_id, []):
                source = "verification" if l.verification == "human" else "machine"
                w.writerow([l.image_id, source, l.class_id, 1 if l.presence == "positive" else 0])

    with open(os.path.join(path, "captions.jsonl"), "w") as f:
        for image_id in corpus.image_ids():
            for c in corpus.captions.get(image_id, []):
                f.write(json.dumps({"image_id": c.image_id, "caption": c.caption}) + "\n")

    if lexicon is not None:
        with open(os.path.join(path, "lexicon.tsv"), "w") as f:
            for noun, related in lexicon.entries.items():
                f.write(f"{noun}\t{','.join(related)}\n")

    if corpus.hidden_positives:
        with open(os.path.join(path, "hidden_positives.json"), "w") as f:
            json.dump(
                {k: sorted(v) for k, v in sorted(corpus.hidden_positives.items())},
                f, indent=0, sort_keys=True,
            )

    n_pixels = 0
    for image_id in corpus.image_ids():
        rec = corpus.images[image_id]
        if rec is None:
            continue
        n_pixels += 1
        with open(os.path.join(path, "pixels", f"{image_id}.f32"), "wb") as f:
            h, w_, c = rec.pixels.shape
            f.write(np.asarray([h, w_, c], dtype="<u4").tobytes())
            f.write(np.ascontiguousarray(rec.pixels, dtype="<f4").tobytes())

    manifest = {
        "format_version": CORPUS_FORMAT_VERSION,
        "seed": corpus.meta.get("seed"),
        "meta": corpus.meta,
        "counts": {
            "classes": len(corpus.classes),
            "images": len(corpus.images),
            "pixel_images": n_pixels,
            "labels": sum(len(v) for v in corpus.labels.values()),
            "captions": corpus.n_captions(),
            "hidden_positives": sum(len(v) for v in corpus.hidden_positives.values()),
        },
    }
    with open(os.path.join(path, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)


def _read_pixels(fp):
    header = fp.read(12)
    if len(header) != 12:
        raise ParseError("truncated pixel file header")
    h, w, c = (int(v) for v in np.frombuffer(header, dtype="<u4"))
    blob = fp.read()
    if len(blob) != h * w * c * 4:
        raise ParseError(f"pixel data of {len(blob)} bytes, header says {h}x{w}x{c} float32")
    data = np.frombuffer(blob, dtype="<f4")
    return data.reshape(h, w, c).copy()


def _read_hidden_positives(f):
    hidden = read_json(f)
    if not (isinstance(hidden, dict)
            and all(isinstance(v, list) and all(isinstance(c, str) for c in v)
                    for v in hidden.values())):
        raise ParseError("expected an object of image id -> list of class ids")
    return {k: set(v) for k, v in hidden.items()}


def load_corpus(path):
    """Read a corpus directory back.  Returns (corpus, lexicon_or_None).  A
    malformed file is a ParseError that names it."""
    def file(name):
        return os.path.join(path, name)

    manifest = read_input(file("manifest.json"), read_json)
    if not (isinstance(manifest, dict) and isinstance(manifest.get("meta", {}), dict)):
        raise ParseError(f"{file('manifest.json')}: not a corpus manifest")
    if manifest.get("format_version") != CORPUS_FORMAT_VERSION:
        raise ParseError(f"{file('manifest.json')}: corpus format version "
                         f"{manifest.get('format_version')!r}, expected {CORPUS_FORMAT_VERSION!r}")

    classes = read_input(file("class_descriptions.csv"), parse_class_descriptions)
    labels = read_input(file("image_labels.csv"), parse_image_labels)
    captions = read_input(file("captions.jsonl"), parse_localized_narratives)

    hidden = {}
    if os.path.exists(file("hidden_positives.json")):
        hidden = read_input(file("hidden_positives.json"), _read_hidden_positives)

    images = []
    pixel_dir = file("pixels")
    if os.path.isdir(pixel_dir):
        for fname in sorted(os.listdir(pixel_dir)):
            if not fname.endswith(".f32"):
                continue
            image_id = fname[: -len(".f32")]
            pixels = read_input(os.path.join(pixel_dir, fname), _read_pixels, "rb")
            images.append(ImageRecord(image_id, pixels))

    lexicon = None
    if os.path.exists(file("lexicon.tsv")):
        lexicon = read_input(file("lexicon.tsv"), build_lexicon)

    corpus = build_corpus(
        classes,
        labels=labels,
        captions=captions,
        images=images,
        hidden_positives=hidden,
        meta=manifest.get("meta", {}),
    )
    return corpus, lexicon


def lines(text):
    """Line iterator over an in-memory string (test/CLI convenience)."""
    return io.StringIO(text)
