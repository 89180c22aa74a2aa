"""Tests of the benchmark's own arithmetic and wrapping.

    python3 -m pytest perfbench -q
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracing as tr  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # root 0..10 holds a 1..4 and b 5..9; b holds c 6..8
    durations = [10.0, 3.0, 4.0, 2.0]
    parents = [-1, 0, 0, 2]
    assert tr.self_times(durations, parents).tolist() == [3.0, 3.0, 2.0, 2.0]


def test_self_times_of_a_recorded_tree_sum_to_the_root():
    t = tr.Tracer()
    root = t.open("root")
    for _ in range(3):
        child = t.open("child")
        t.close(t.open("leaf"))
        t.close(child)
    t.close(root)
    a = t.arrays()
    assert a["parent"].tolist() == [-1, 0, 1, 0, 3, 0, 5]
    own = tr.self_times(a["end"] - a["start"], a["parent"])
    assert (own >= 0).all()
    assert own.sum() == pytest.approx(a["end"][0] - a["start"][0])


@pytest.mark.parametrize("n, expected", [
    (10000, 99.9), (1000, 99.0), (999, 98.0), (500, 98.0), (499, 95.0), (200, 95.0),
    (199, 90.0), (100, 90.0), (40, 75.0), (39, 50.0), (5, 50.0),
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tr.tail_percentile(n) == expected


def test_percentile_interpolates_between_ranks():
    assert tr.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert tr.percentile(list(range(101)), 99) == 99.0


def test_decode_useful_frac_counts_tokens_and_their_eos():
    # 16 decode calls over 4 rows: two words + eos, one word + eos, an empty
    # answer (eos only) and a row that never emitted eos
    predictions = [[7, 8], [5], [], list(range(3, 19))]
    assert tr.useful_positions(predictions, 16) == 3 + 2 + 1 + 16
    assert tr.decode_useful_frac(predictions, 16) == 22 / 64
    assert tr.decode_useful_frac([], 16) == 0.0


def _tiny_model_step():
    from mixpretrain import nnkernel as nk
    from mixpretrain.model import Model, ModelConfig

    cfg = ModelConfig(vocab_size=24, d_model=8, n_heads=2, d_ff=16, patch=4, image_size=8,
                      max_prompt=6, max_target=5)
    model = Model(cfg, seed=3)
    rng = np.random.default_rng(3)
    images = rng.uniform(size=(2, 8, 8, 3))
    prompts = rng.integers(3, 24, size=(2, 6))
    targets = rng.integers(3, 24, size=(2, 5))
    _, loss = model.forward(images, prompts, targets)
    nk.backward(loss)
    grads = {n: p.grad.copy() for n, p in model.params.items()}
    return loss.item(), grads, model.generate_batch(images, prompts)


def test_tracing_leaves_numerics_alone_and_uninstalls():
    from mixpretrain import model, nnkernel

    originals = (nnkernel.matmul, model.matmul, model.Model.decode, model.make_batch)
    loss, grads, ids = _tiny_model_step()
    t = tr.Tracer().install(list(tr.TARGETS))
    try:
        assert model.matmul is not originals[1] and nnkernel.matmul is model.matmul
        traced_loss, traced_grads, traced_ids = _tiny_model_step()
    finally:
        t.uninstall()
    assert (nnkernel.matmul, model.matmul, model.Model.decode, model.make_batch) == originals
    assert traced_loss == loss and traced_ids == ids
    assert all(np.array_equal(grads[n], traced_grads[n]) for n in grads)
    names = {t.names[i] for i in t.arrays()["name_id"]}
    assert {"nnkernel.op.matmul.fwd", "nnkernel.op.matmul.bwd", "nnkernel.backward",
            "model.generate_batch", "model.decode"} <= names
    assert not t.absent


def test_a_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.setitem(tr.TARGETS, "model.gone", ("model", "no_such_function"))
    t = tr.Tracer().install(["model.gone", "model.build_vocab"])
    t.uninstall()
    assert t.absent == {"model.gone"}


def test_stop_at_ends_an_entry_point_at_the_named_call_and_restores_it():
    from mixpretrain import model, runner

    original = model.train
    with tr.stop_at("model.train"):
        assert runner.train is not original and model.train is runner.train
        with pytest.raises(tr.Stopped):
            runner.train(None, [], {}, None, None)
    assert runner.train is original and model.train is original


def _spans_of(tracer):
    import per_layer

    class Plain:
        name = "toy"

    passes = [{"traced": False, "wall_s": 1.0}, {"traced": True, "wall_s": 1.5}]
    return per_layer.compute(Plain(), passes, tracer)


def test_a_layer_never_called_is_absent_not_zero():
    from types import SimpleNamespace

    from mixpretrain import model

    t = tr.Tracer().install(list(tr.TARGETS))
    try:
        model.build_vocab([SimpleNamespace(prompt="is there a cat", target="yes")])
    finally:
        t.uninstall()
    metrics, absent, _ = _spans_of(t)
    assert metrics["model.build_vocab_ms"][0] > 0
    assert "nnkernel.backward_ms" not in metrics
    assert absent["nnkernel.backward_ms"] == "nnkernel.backward: not called on toy"
    assert "composite" in absent["nnkernel.op.attention.bwd_ms"]
    assert metrics["trace.overhead_s"] == (0.5, "s")
    assert all(v != 0 for v, _ in metrics.values())


def test_ms_metrics_are_self_time_per_unit_or_per_call():
    t = tr.Tracer()
    t.begin_unit("eval_batch")
    g = t.open("model.generate_batch")
    t.close(t.open("model.decode"))
    t.close(g)
    t.begin_unit("step")  # a training step's teacher-forced decode
    t.close(t.open("model.decode"))
    t.current_unit = -1
    for _ in range(2):
        t.close(t.open("model.build_vocab"))
    # generate_batch 0..10 s holds a decode 1..3 s; then a 4 s decode and
    # build_vocab calls of 1 s and 3 s
    for i, (a, b) in enumerate([(0, 10), (1, 3), (20, 24), (30, 31), (40, 43)]):
        t.start[i], t.end[i] = a, b
    metrics, _, _ = _spans_of(t)
    assert metrics["model.generate_batch_ms"] == (8000.0, "ms")
    assert metrics["model.decode_ms"] == (2000.0, "ms")
    assert metrics["model.build_vocab_ms"] == (2000.0, "ms")


def test_claim_rule_verdicts():
    import claim

    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [v * 0.8 for v in parent]
    assert claim.verdict(parent, faster, "lower", 0.1) == ("gain", 10)
    assert claim.verdict(parent, faster, "higher", 0.1) == ("regression", 0)
    same = parent[1:] + parent[:1]
    assert claim.verdict(parent, same, "lower", 0.1)[0] == "no regression"
    noisy = [5.0, 15.0, 6.0, 14.0, 10.0, 10.0, 7.0, 13.0, 10.0, 10.0]
    assert claim.verdict(noisy, [v + 0.5 for v in noisy], "lower", 0.1) == ("unresolved", 0)


def test_the_result_line_carries_the_manifest_metrics():
    import json

    import per_layer
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        manifest = json.load(f)
    assert [(m["name"], m["unit"]) for m in manifest["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in manifest["per_layer"]] == list(per_layer.REPORTED)
