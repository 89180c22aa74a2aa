"""Parsers, corpus assembly, synthetic rendering, directory round-trip."""

import hashlib
import json
import os
import random

import numpy as np
import pytest

from mixpretrain import corpus as C
from mixpretrain.corpus import (
    BuildError,
    CaptionRecord,
    ClassEntry,
    ConfigError,
    ImageLabel,
    ImageRecord,
    ParseError,
    build_corpus,
    build_lexicon,
    extract_nouns,
    lines,
    parse_class_descriptions,
    parse_image_labels,
    parse_localized_narratives,
)


# ---------------------------------------------------------------------------
# class descriptions

def test_class_descriptions_basic():
    table = parse_class_descriptions(lines("/m/0bt9lr,Dog\n/m/01yrx,Cat\n"))
    assert table["/m/0bt9lr"] == ClassEntry("/m/0bt9lr", "dog")
    assert table["/m/01yrx"].display_name == "cat"
    assert list(table) == ["/m/0bt9lr", "/m/01yrx"]


def test_class_descriptions_lowercases_and_trims():
    table = parse_class_descriptions(lines("/m/x,  Fire Hydrant \n"))
    assert table["/m/x"].display_name == "fire hydrant"


def test_class_descriptions_column_count():
    with pytest.raises(ParseError, match="line 1"):
        parse_class_descriptions(lines("/m/x,Dog,extra\n"))


def test_class_descriptions_duplicate_id():
    with pytest.raises(ParseError, match="duplicate"):
        parse_class_descriptions(lines("/m/x,Dog\n/m/x,Cat\n"))


def test_class_descriptions_quoted_comma():
    # csv quoting keeps an embedded comma inside the display name
    table = parse_class_descriptions(lines('/m/x,"Bowl, fruit"\n'))
    assert table["/m/x"].display_name == "bowl, fruit"


# ---------------------------------------------------------------------------
# image labels

def test_image_labels_positive_human():
    (lab,) = parse_image_labels(lines("img1,verification,/m/0bt9lr,1\n"))
    assert lab == ImageLabel("img1", "/m/0bt9lr", "positive", "human")


def test_image_labels_negative_machine():
    (lab,) = parse_image_labels(lines("img1,machine,/m/0bt9lr,0\n"))
    assert lab.presence == "negative"
    assert lab.verification == "machine"


def test_image_labels_source_substring_rule():
    (lab,) = parse_image_labels(lines("img1,crowdsource-verification,/m/x,1\n"))
    assert lab.verification == "human"


def test_image_labels_header_skipped():
    labs = parse_image_labels(lines("ImageID,Source,LabelName,Confidence\nimg1,machine,/m/x,1\n"))
    assert len(labs) == 1 and labs[0].image_id == "img1"


def test_image_labels_fractional_confidence_rejected():
    with pytest.raises(ParseError, match="confidence"):
        parse_image_labels(lines("img1,machine,/m/x,0.7\n"))


def test_image_labels_non_numeric_confidence_rejected():
    with pytest.raises(ParseError, match="line 1"):
        parse_image_labels(lines("img1,machine,/m/x,maybe\n"))


def test_image_labels_column_count():
    with pytest.raises(ParseError, match="4 columns"):
        parse_image_labels(lines("img1,machine,/m/x\n"))


# ---------------------------------------------------------------------------
# captions

def test_narratives_basic():
    recs = parse_localized_narratives(
        lines('{"image_id": "img1", "caption": "A dog.", "annotator": 3}\n')
    )
    assert recs == [CaptionRecord("img1", "A dog.")]


def test_narratives_blank_lines_skipped():
    recs = parse_localized_narratives(lines('\n{"image_id": "a", "caption": "x y"}\n\n'))
    assert len(recs) == 1


def test_narratives_missing_key():
    with pytest.raises(ParseError, match="line 2"):
        parse_localized_narratives(lines('{"image_id": "a", "caption": "ok"}\n{"image_id": "b"}\n'))


def test_narratives_invalid_json():
    with pytest.raises(ParseError, match="line 1"):
        parse_localized_narratives(lines("not json\n"))


def test_narratives_empty_caption():
    with pytest.raises(ParseError, match="empty caption"):
        parse_localized_narratives(lines('{"image_id": "a", "caption": "   "}\n'))


# ---------------------------------------------------------------------------
# lexicon

def test_lexicon_basic():
    lex = build_lexicon(lines("dog\tcat,puppy\ncat\tdog\n"))
    assert "dog" in lex
    assert lex.related("dog") == ["cat", "puppy"]
    assert lex.related("cat") == ["dog"]


def test_lexicon_drops_self_reference():
    lex = build_lexicon(lines("dog\tdog,cat\n"))
    assert lex.related("dog") == ["cat"]


def test_lexicon_duplicate_key():
    with pytest.raises(ParseError, match="duplicate"):
        build_lexicon(lines("dog\tcat\ndog\tpuppy\n"))


def test_lexicon_missing_tab():
    with pytest.raises(ParseError, match="line 1"):
        build_lexicon(lines("dog cat\n"))


def test_extract_nouns_positions_and_case():
    lex = build_lexicon(lines("dog\tcat\ngrass\ttree\n"))
    assert extract_nouns("A Dog on the grass.", lex) == [(1, "dog"), (4, "grass")]


def test_extract_nouns_strips_punctuation():
    lex = build_lexicon(lines("dog\tcat\n"))
    assert extract_nouns("a dog, sleeping", lex) == [(1, "dog")]


def test_extract_nouns_none_found():
    lex = build_lexicon(lines("dog\tcat\n"))
    assert extract_nouns("nothing here", lex) == []


# ---------------------------------------------------------------------------
# assembly

CLASSES = {"/c/d": ClassEntry("/c/d", "dog"), "/c/c": ClassEntry("/c/c", "cat")}


def test_build_corpus_caption_anchor_drops_strays():
    corp = build_corpus(
        CLASSES,
        labels=[ImageLabel("img1", "/c/d", "positive", "human"),
                ImageLabel("ghost", "/c/c", "positive", "human")],
        captions=[CaptionRecord("img1", "a dog")],
    )
    assert corp.image_ids() == ["img1"]
    assert corp.dropped_records == 1
    assert corp.positive_names("img1") == ["dog"]


def test_build_corpus_label_only_anchor():
    corp = build_corpus(CLASSES, labels=[ImageLabel("img9", "/c/d", "positive", "human")])
    assert corp.image_ids() == ["img9"]
    assert corp.images["img9"] is None


def test_build_corpus_missing_class_fatal():
    with pytest.raises(BuildError, match="/c/unknown"):
        build_corpus(
            CLASSES,
            labels=[ImageLabel("img1", "/c/unknown", "positive", "human")],
            captions=[CaptionRecord("img1", "x")],
        )


def test_build_corpus_hidden_overlap_fatal():
    with pytest.raises(BuildError, match="hidden"):
        build_corpus(
            CLASSES,
            labels=[ImageLabel("img1", "/c/d", "positive", "human")],
            captions=[CaptionRecord("img1", "x")],
            hidden_positives={"img1": {"/c/d"}},
        )


def test_verified_negative_excludes_positively_labeled():
    corp = build_corpus(
        CLASSES,
        labels=[
            ImageLabel("img1", "/c/d", "positive", "human"),
            ImageLabel("img1", "/c/d", "negative", "human"),
            ImageLabel("img1", "/c/c", "negative", "human"),
        ],
    )
    assert corp.verified_negative_class_ids("img1") == ["/c/c"]


def test_subset_restricts_images():
    corp = build_corpus(
        CLASSES,
        captions=[CaptionRecord("a", "x"), CaptionRecord("b", "y")],
    )
    sub = corp.subset(["b"])
    assert sub.image_ids() == ["b"]
    assert sub.classes is corp.classes


# ---------------------------------------------------------------------------
# synthetic corpus

def test_synth_corpus_deterministic():
    a = C.synth_corpus(seed=5, n_images=12, hidden_rate=0.2)
    b = C.synth_corpus(seed=5, n_images=12, hidden_rate=0.2)
    assert a.labels == b.labels
    assert a.captions == b.captions
    assert a.hidden_positives == b.hidden_positives
    for i in a.image_ids():
        assert a.images[i] == b.images[i]


def test_synth_corpus_seed_sensitivity():
    a = C.synth_corpus(seed=5, n_images=12)
    b = C.synth_corpus(seed=6, n_images=12)
    assert a.labels != b.labels or a.captions != b.captions


def test_synth_corpus_no_hiding_by_default(small_corpus):
    assert all(not v for v in small_corpus.hidden_positives.values())


def test_synth_corpus_hidden_disjoint_from_positives(hidden_corpus):
    for i in hidden_corpus.image_ids():
        hid = hidden_corpus.hidden_positives.get(i, set())
        assert not hid & set(hidden_corpus.positive_class_ids(i))


def test_synth_corpus_hidden_rate_one():
    corp = C.synth_corpus(seed=3, n_images=10, hidden_rate=1.0)
    for i in corp.image_ids():
        assert corp.positive_class_ids(i) == []
        assert corp.hidden_positives.get(i)
        assert corp.captions[i][0].caption == "a photo"


def test_synth_caption_mentions_exactly_labeled_positives(small_corpus):
    lex_names = set(C._DEFAULT_NAMES)
    for i in small_corpus.image_ids():
        cap = small_corpus.captions[i][0].caption
        mentioned = [w for w in cap.replace(",", " ").split() if w in lex_names]
        assert mentioned == small_corpus.positive_names(i)


def test_synth_two_true_negatives_per_image(hidden_corpus):
    for i in hidden_corpus.image_ids():
        negs = [l for l in hidden_corpus.labels[i] if l.presence == "negative"]
        assert len(negs) == 2
        assert all(l.verification == "human" for l in negs)
        present = set(hidden_corpus.positive_class_ids(i)) | hidden_corpus.hidden_positives.get(i, set())
        assert not {l.class_id for l in negs} & present


def test_synth_pixels_shape_and_range(small_corpus):
    grid, cell = small_corpus.meta["grid"], small_corpus.meta["cell"]
    rec = small_corpus.images[small_corpus.image_ids()[0]]
    assert rec.pixels.shape == (grid * cell, grid * cell, 3)
    assert rec.pixels.dtype == np.float32
    assert float(rec.pixels.min()) >= 0.0 and float(rec.pixels.max()) <= 1.0


def test_cached_glyph_masks_are_read_only_and_equal_a_fresh_draw():
    for shape in C.SHAPES:
        for cell in (4, 5, 8, 16):
            mask = C._glyph_mask(shape, cell)
            assert C._glyph_mask(shape, cell) is mask
            assert not mask.flags.writeable
            with pytest.raises(ValueError):
                mask[0, 0] = not mask[0, 0]
            fresh = C._glyph_mask.__wrapped__(shape, cell)
            assert fresh is not mask
            assert mask.shape == (cell, cell) and mask.dtype == bool
            assert np.array_equal(mask, fresh)
    with pytest.raises(ConfigError, match="hexagon"):
        C._glyph_mask("hexagon", 8)


def test_hidden_objects_are_rendered(hidden_corpus):
    # distinct non-background colors == labeled + hidden object count
    checked = 0
    for i in hidden_corpus.image_ids():
        hid = hidden_corpus.hidden_positives.get(i, set())
        if not hid:
            continue
        px = hidden_corpus.images[i].pixels
        flat = px.reshape(-1, 3)
        fg = flat[~np.all(flat == np.float32(0.92), axis=1)]
        n_colors = len({tuple(row) for row in fg})
        assert n_colors == len(hidden_corpus.positive_class_ids(i)) + len(hid)
        checked += 1
    assert checked > 0


def test_synth_corpus_config_errors():
    with pytest.raises(ConfigError):
        C.synth_corpus(seed=0, n_images=0)
    with pytest.raises(ConfigError):
        C.synth_corpus(seed=0, n_images=1, hidden_rate=1.5)
    with pytest.raises(ConfigError):
        C.synth_corpus(seed=0, n_images=1, grid=1)
    with pytest.raises(ConfigError):
        C.synth_corpus(seed=0, n_images=1, object_vocab={"a": ("square", (1, 0, 0))})


# ---------------------------------------------------------------------------
# directory round-trip

def _dir_digest(path):
    h = hashlib.sha256()
    for root, dirs, files in os.walk(path):
        dirs.sort()
        for fname in sorted(files):
            rel = os.path.relpath(os.path.join(root, fname), path)
            h.update(rel.encode())
            with open(os.path.join(root, fname), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def test_save_load_round_trip(tmp_path, hidden_corpus, lexicon):
    d1 = tmp_path / "c1"
    C.save_corpus(hidden_corpus, str(d1), lexicon=lexicon)
    loaded, lex2 = C.load_corpus(str(d1))

    assert sorted(os.listdir(d1)) == [
        "captions.jsonl", "class_descriptions.csv", "hidden_positives.json",
        "image_labels.csv", "lexicon.tsv", "manifest.json", "pixels"]
    manifest = json.loads((d1 / "manifest.json").read_text())
    assert manifest["format_version"] == "2"
    assert sorted(manifest["counts"]) == [
        "captions", "classes", "hidden_positives", "images", "labels", "pixel_images"]
    assert loaded.classes == hidden_corpus.classes
    assert loaded.labels == hidden_corpus.labels
    assert loaded.captions == hidden_corpus.captions
    assert loaded.hidden_positives == hidden_corpus.hidden_positives
    assert loaded.meta == hidden_corpus.meta
    for i in hidden_corpus.image_ids():
        assert loaded.images[i] == hidden_corpus.images[i]
    assert lex2.entries == lexicon.entries

    # a second save of the loaded corpus is byte-identical
    d2 = tmp_path / "c2"
    C.save_corpus(loaded, str(d2), lexicon=lex2)
    assert _dir_digest(str(d1)) == _dir_digest(str(d2))


def test_a_corpus_saved_over_another_reads_back_as_itself(tmp_path, lexicon):
    d = tmp_path / "c"
    synthetic = C.synth_corpus(seed=13, n_images=6, hidden_rate=0.5)
    assert synthetic.hidden_positives
    C.save_corpus(synthetic, str(d), lexicon=lexicon)
    (d / "notes.txt").write_text("not a corpus file")
    annotated = build_corpus(
        CLASSES, labels=[ImageLabel(f"img{i}", "/c/d", "positive", "human") for i in range(3)])
    C.save_corpus(annotated, str(d))

    loaded, lex = C.load_corpus(str(d))
    assert lex is None
    assert loaded.image_ids() == annotated.image_ids()
    assert all(loaded.images[i] is None for i in loaded.image_ids())
    assert loaded.hidden_positives == {}
    assert loaded.fingerprint() == annotated.fingerprint()
    # the earlier corpus's files are gone; a file that is not a corpus's stays
    assert sorted(os.listdir(d)) == [
        "captions.jsonl", "class_descriptions.csv", "image_labels.csv", "manifest.json",
        "notes.txt", "pixels"]
    assert os.listdir(d / "pixels") == []

    # and the synthetic corpus saved back over it reads back whole
    C.save_corpus(synthetic, str(d), lexicon=lexicon)
    loaded, lex = C.load_corpus(str(d))
    assert lex.entries == lexicon.entries
    assert loaded.fingerprint() == synthetic.fingerprint()
    assert all(loaded.images[i] == synthetic.images[i] for i in synthetic.image_ids())


def test_load_rejects_future_format(tmp_path, small_corpus):
    # "1" is the retired format that still carried box_labels.csv
    d = tmp_path / "c"
    C.save_corpus(small_corpus, str(d))
    mpath = d / "manifest.json"
    manifest = json.loads(mpath.read_text())
    for version in ("99", "1"):
        manifest["format_version"] = version
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(ParseError, match=f"version '{version}'"):
            C.load_corpus(str(d))


def test_pixel_file_layout(tmp_path, small_corpus):
    d = tmp_path / "c"
    C.save_corpus(small_corpus, str(d))
    image_id = small_corpus.image_ids()[0]
    raw = (d / "pixels" / f"{image_id}.f32").read_bytes()
    h, w, c = np.frombuffer(raw[:12], dtype="<u4")
    assert (h, w, c) == small_corpus.images[image_id].pixels.shape
    data = np.frombuffer(raw[12:], dtype="<f4").reshape(h, w, c)
    assert np.array_equal(data, small_corpus.images[image_id].pixels)


@pytest.mark.parametrize("name, text", [
    ("manifest.json", "{not json"),
    ("manifest.json", "[]"),
    ("class_descriptions.csv", "only-one-column\n"),
    ("image_labels.csv", "img,src,/c/x,0.5\n"),
    ("captions.jsonl", "not json\n"),
    ("hidden_positives.json", '{"img": 3}'),
    ("lexicon.tsv", "no tab here\n"),
], ids=["manifest-broken", "manifest-array", "classes", "labels", "captions", "hidden",
        "lexicon"])
def test_load_corpus_names_the_malformed_file(tmp_path, small_corpus, name, text):
    d = tmp_path / "c"
    C.save_corpus(small_corpus, str(d), lexicon=build_lexicon(lines("dog\tcat\n")))
    (d / name).write_text(text)
    with pytest.raises(ParseError) as e:
        C.load_corpus(str(d))
    assert str(e.value).startswith(f"{d / name}: ")


def test_load_corpus_names_a_short_pixel_file(tmp_path, small_corpus):
    d = tmp_path / "c"
    C.save_corpus(small_corpus, str(d))
    path = d / "pixels" / f"{small_corpus.image_ids()[0]}.f32"
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(ParseError, match="pixel data of"):
        C.load_corpus(str(d))
