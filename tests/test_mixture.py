"""Schedule construction and batch assembly."""

import collections
import csv
import random

import numpy as np
import pytest

from mixpretrain.mixture import (
    Batch,
    MixtureSpec,
    ScheduleConfig,
    ScheduleError,
    build_schedule,
    make_batch,
    sample_component,
)


class StubTok:
    pad_id = 0
    eos_id = 1

    def encode(self, text):
        return [2 + i for i, _ in enumerate(text.split())]


class Ex:
    def __init__(self, prompt, target, image_id="img"):
        self.prompt, self.target, self.image_id = prompt, target, image_id


# ---------------------------------------------------------------------------
# component sampling

def test_single_component_always_zero():
    spec = MixtureSpec.equal(["only"])
    rng = random.Random(0)
    assert all(sample_component(spec, rng) == 0 for _ in range(100))


def test_equal_eight_way_counts():
    spec = MixtureSpec.equal([f"c{i}" for i in range(8)])
    rng = random.Random(123)
    counts = collections.Counter(sample_component(spec, rng) for _ in range(80_000))
    for i in range(8):
        assert abs(counts[i] - 10_000) <= 300


def test_weighted_sampling():
    spec = MixtureSpec(names=["a", "b"], weights=[1.0, 3.0])
    rng = random.Random(7)
    n = 10_000
    hits = sum(sample_component(spec, rng) == 1 for _ in range(n))
    assert abs(hits / n - 0.75) < 0.02


def test_spec_validation():
    with pytest.raises(ScheduleError):
        MixtureSpec(names=[], weights=[])
    with pytest.raises(ScheduleError):
        MixtureSpec(names=["a"], weights=[0.0])
    with pytest.raises(ScheduleError):
        MixtureSpec(names=["a", "a"], weights=[1, 1])


# ---------------------------------------------------------------------------
# schedules

def test_schedule_length_and_batch_width():
    spec = MixtureSpec.equal(["a", "b"])
    cfg = ScheduleConfig(total_steps=100, batch_size=4, seed=0)
    sizes = {"a": 10, "b": 20}
    sched = build_schedule(spec, cfg, sizes)
    assert len(sched) == 100
    assert all(len(e.example_ids) == 4 for e in sched)
    assert all(0 <= i < sizes[e.component] for e in sched for i in e.example_ids)
    assert [e.step for e in sched] == list(range(100))
    assert {e.component for e in sched} == {"a", "b"}


def test_schedule_epochs_wrap_without_repeat():
    # dataset of 3, batch 4: ids stream must be whole shuffled epochs of {0,1,2}
    spec = MixtureSpec.equal(["a"])
    cfg = ScheduleConfig(total_steps=9, batch_size=4, seed=3)
    sched = build_schedule(spec, cfg, {"a": 3})
    stream = [i for e in sched for i in e.example_ids]
    assert len(stream) == 36
    for k in range(0, 36, 3):
        assert sorted(stream[k : k + 3]) == [0, 1, 2]


def test_schedule_deterministic():
    spec = MixtureSpec.equal(["a", "b", "c"])
    cfg = ScheduleConfig(total_steps=50, batch_size=2, seed=9)
    sizes = {"a": 7, "b": 5, "c": 11}
    assert build_schedule(spec, cfg, sizes) == build_schedule(spec, cfg, sizes)


def test_schedule_component_stream_stable_under_mixture_change():
    # per-component id order depends only on (seed, name), not on the rest of the mix
    cfg = ScheduleConfig(total_steps=60, batch_size=2, seed=4)
    solo = build_schedule(MixtureSpec.equal(["a"]), cfg, {"a": 9})
    duo = build_schedule(MixtureSpec.equal(["a", "b"]), cfg, {"a": 9, "b": 6})
    solo_stream = [i for e in solo for i in e.example_ids]
    duo_stream = [i for e in duo if e.component == "a" for i in e.example_ids]
    assert duo_stream == solo_stream[: len(duo_stream)]


def test_schedule_fixed_budget_across_component_counts():
    cfg = ScheduleConfig(total_steps=300, batch_size=1, seed=1)
    for names in (["a"], ["a", "b"], [f"t{i}" for i in range(8)]):
        sched = build_schedule(MixtureSpec.equal(names), cfg, {n: 5 for n in names})
        assert len(sched) == 300


def test_schedule_empty_component_error():
    spec = MixtureSpec.equal(["a", "b"])
    cfg = ScheduleConfig(total_steps=10, batch_size=2, seed=0)
    with pytest.raises(ScheduleError, match="'b'"):
        build_schedule(spec, cfg, {"a": 5, "b": 0})


def test_schedule_chi_square_across_seeds():
    scipy_stats = pytest.importorskip("scipy.stats")
    spec = MixtureSpec.equal([f"c{i}" for i in range(8)])
    for seed in range(5):
        cfg = ScheduleConfig(total_steps=10_000, batch_size=1, seed=seed)
        sched = build_schedule(spec, cfg, {n: 4 for n in spec.names})
        counts = collections.Counter(e.component for e in sched)
        obs = [counts[n] for n in spec.names]
        _, p = scipy_stats.chisquare(obs)
        assert p > 0.001


def test_schedule_csv_dump(tmp_path):
    # a schedule entry flattens to one CSV row: step, component, example ids
    spec = MixtureSpec.equal(["a"])
    sched = build_schedule(spec, ScheduleConfig(total_steps=3, batch_size=2, seed=0), {"a": 4})
    path = tmp_path / "sched.csv"
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows([e.step, e.component, *e.example_ids] for e in sched)
    rows = [line.split(",") for line in path.read_text().strip().splitlines()]
    assert len(rows) == 3
    assert rows[0][1] == "a" and len(rows[0]) == 4


# ---------------------------------------------------------------------------
# batches

def test_make_batch_pads_to_longest():
    tok = StubTok()
    b = make_batch([Ex("a b c", "x"), Ex("a b c d e", "x y")], tok, (8, 8))
    assert b.prompt_ids.shape == (2, 5)
    assert b.prompt_mask.sum() == 8.0
    assert b.prompt_ids[0, 3] == tok.pad_id and b.prompt_ids[0, 4] == tok.pad_id


def test_make_batch_target_eos_and_truncation():
    tok = StubTok()
    long_target = " ".join(["w"] * 12)
    b = make_batch([Ex("p", long_target)], tok, (8, 8))
    assert b.target_ids.shape == (1, 8)
    assert b.target_ids[0, 7] == tok.eos_id
    assert b.truncated == 1


def test_make_batch_loss_mask_counts_eos():
    tok = StubTok()
    b = make_batch([Ex("p", "a b"), Ex("p", "a b c d")], tok, (8, 8))
    # unpadded target lengths including eos: 3 and 5
    assert b.loss_mask.sum() == 8.0
    assert b.loss_mask[0, 2] == 1.0 and b.loss_mask[0, 3] == 0.0
    assert b.target_ids[0, 2] == tok.eos_id


def test_make_batch_no_truncation_when_within_limits():
    b = make_batch([Ex("a b", "c")], StubTok(), (8, 8))
    assert b.truncated == 0
    assert b.images is None


def test_make_batch_empty_error():
    with pytest.raises(ValueError):
        make_batch([], StubTok(), (8, 8))


def test_make_batch_image_stacking():
    imgs = {"i1": np.zeros((4, 4, 3)), "i2": np.ones((4, 4, 3))}
    b = make_batch([Ex("p", "t", "i1"), Ex("p", "t", "i2")], StubTok(), (8, 8), images=imgs)
    assert b.images.shape == (2, 4, 4, 3)
    assert b.images.dtype == np.float32
    assert b.image_ids == ["i1", "i2"]
    assert float(b.images[1].min()) == 1.0
