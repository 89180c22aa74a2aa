"""Tokenizer, transformer forward/generate, training loop, checkpoints."""

import dataclasses
import json
import math
import os

import numpy as np
import pytest

from mixpretrain import corpus as C
from mixpretrain import tasksynth as T
from mixpretrain.mixture import MixtureSpec, ScheduleConfig, build_schedule, make_batch
from mixpretrain.model import (
    CheckpointState,
    IntegrityError,
    Model,
    ModelConfig,
    TrainingError,
    VersionError,
    Vocab,
    build_vocab,
    checkpoint_state,
    load_checkpoint,
    restore_model,
    save_checkpoint,
    train,
)
from mixpretrain.nnkernel import AdamState, ShapeError, finite_difference_check, no_grad
from mixpretrain.tasksynth import SynthConfig, TaskExample, TaskKind, synth_dataset


def _ex(prompt, target, image_id="img"):
    return TaskExample(image_id=image_id, kind=TaskKind.CAPTION, prompt=prompt, target=target)


# ---------------------------------------------------------------------------
# vocabulary

def test_vocab_special_layout():
    v = build_vocab([_ex("a b", "c")])
    assert v.id_to_token[0] == "<pad>" and v.pad_id == 0
    assert v.id_to_token[1] == "<eos>" and v.eos_id == 1
    assert v.id_to_token[2] == "<unk>" and v.unk_id == 2
    assert v.id_to_token[3] == "<extra_0>" and v.id_to_token[18] == "<extra_15>"


def test_vocab_frequency_then_lexicographic():
    v = build_vocab([_ex("dog cat", "dog"), _ex("apple", "banana")])
    # dog appears twice; apple/banana/cat once each, tie-broken lexicographically
    words = v.id_to_token[19:]
    assert words[0] == "dog"
    rest = [w for w in words if w not in ("dog", "yes", "no")]
    assert rest == sorted(rest)


def test_vocab_forces_yes_no():
    v = build_vocab([_ex("a b", "c d")])
    assert "yes" in v.token_to_id and "no" in v.token_to_id


def test_vocab_deterministic():
    exs = [_ex("x y z", "w"), _ex("y", "x")]
    assert build_vocab(exs).id_to_token == build_vocab(exs).id_to_token


def test_vocab_empty_stream():
    with pytest.raises(ValueError, match="empty"):
        build_vocab([])


def test_vocab_encode_decode():
    v = build_vocab([_ex("the dog runs", "yes")])
    ids = v.encode("the dog jumps")
    assert ids[-1] == v.unk_id  # "jumps" unseen
    assert v.decode(v.encode("the dog runs")) == "the dog runs"
    assert v.decode([v.pad_id, *v.encode("dog"), v.eos_id, *v.encode("runs")]) == "dog"


def test_vocab_min_count():
    v = build_vocab([_ex("rare common", "common")], min_count=2)
    assert "common" in v.token_to_id
    assert "rare" not in v.token_to_id


def test_vocab_save_load_fingerprint(tmp_path):
    v = build_vocab([_ex("a b c", "d")])
    p = str(tmp_path / "vocab.json")
    v.save(p)
    v2 = Vocab.load(p)
    assert v2.id_to_token == v.id_to_token
    assert v2.fingerprint() == v.fingerprint()
    assert build_vocab([_ex("zz", "qq")]).fingerprint() != v.fingerprint()


def test_config_validation():
    with pytest.raises(ShapeError):
        ModelConfig(vocab_size=30, d_model=30, n_heads=4)
    with pytest.raises(ShapeError):
        ModelConfig(vocab_size=30, image_size=30, patch=4)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=10)
    assert ModelConfig(vocab_size=30, image_size=32, patch=4).n_vision == 64


# ---------------------------------------------------------------------------
# fixtures: a tiny model over a tiny synthetic corpus

def _tiny_setup(seed=0, n_images=8, dtype=np.float32):
    corp = C.synth_corpus(seed=2, n_images=n_images, grid=2, cell=4)  # 8x8 images
    cfg_s = SynthConfig(seed=3)
    exs = list(synth_dataset(corp, [TaskKind.CAPTION, TaskKind.OA_EXISTS], n_images, cfg_s))
    vocab = build_vocab(exs)
    mcfg = ModelConfig(
        vocab_size=len(vocab), d_model=16, n_heads=2, n_encoder_layers=1,
        n_decoder_layers=1, d_ff=32, patch=4, image_size=8, max_prompt=16, max_target=8,
    )
    model = Model(mcfg, seed=seed, dtype=dtype)
    images = {i: corp.images[i].pixels for i in corp.image_ids()}
    return corp, exs, vocab, model, images


def _batch_of(exs, vocab, model, images):
    return make_batch(exs, vocab, (model.cfg.max_prompt, model.cfg.max_target), images=images)


def test_forward_smoke_and_init_loss():
    corp, exs, vocab, model, images = _tiny_setup()
    batch = _batch_of(exs[:4], vocab, model, images)
    logits, loss = model.forward_batch(batch)
    assert logits.data.shape == (4, batch.target_ids.shape[1], len(vocab))
    value = loss.item()
    assert np.isfinite(value)
    # small init keeps logits near uniform
    assert abs(value - math.log(len(vocab))) / math.log(len(vocab)) < 0.15


def test_forward_batch_permutation():
    corp, exs, vocab, model, images = _tiny_setup()
    batch = _batch_of(exs[:3], vocab, model, images)
    logits, loss = model.forward_batch(batch)
    perm = [2, 0, 1]
    batch2 = _batch_of([exs[i] for i in perm], vocab, model, images)
    logits2, loss2 = model.forward_batch(batch2)
    assert np.allclose(logits2.data, logits.data[perm], atol=1e-5)
    assert abs(loss.item() - loss2.item()) < 1e-5


def test_decoder_causality_exact():
    corp, exs, vocab, model, images = _tiny_setup()
    batch = _batch_of(exs[:2], vocab, model, images)
    if batch.target_ids.shape[1] < 4:
        pytest.skip("targets too short to probe")
    logits, _ = model.forward_batch(batch)
    tgt2 = batch.target_ids.copy()
    tgt2[:, 2] = (tgt2[:, 2] + 5) % len(vocab)
    logits2, _ = model.forward(batch.images, batch.prompt_ids, tgt2,
                               prompt_mask=batch.prompt_mask, loss_mask=batch.loss_mask)
    # dec input = shifted target: change at t=2 can only reach logits from t=3 on
    assert np.array_equal(logits.data[:, :3], logits2.data[:, :3])
    assert not np.array_equal(logits.data[:, 3:], logits2.data[:, 3:])


def test_prompt_padding_is_inert():
    corp, exs, vocab, model, images = _tiny_setup()
    ex = exs[0]
    pids = np.array([vocab.encode(ex.prompt)])
    tids = np.array([vocab.encode(ex.target) + [vocab.eos_id]])
    img = images[ex.image_id][None]
    logits, _ = model.forward(img, pids, tids)
    padded = np.concatenate([pids, np.full((1, 3), vocab.pad_id)], axis=1)
    mask = np.concatenate([np.ones_like(pids, dtype=np.float32),
                           np.zeros((1, 3), dtype=np.float32)], axis=1)
    logits2, _ = model.forward(img, padded, tids, prompt_mask=mask)
    assert np.allclose(logits.data, logits2.data, atol=1e-6)


def test_vision_input_reaches_logits():
    corp, exs, vocab, model, images = _tiny_setup()
    ids = corp.image_ids()
    ex = exs[0]
    pids = np.array([vocab.encode(ex.prompt)])
    tids = np.array([vocab.encode(ex.target) + [vocab.eos_id]])
    a, _ = model.forward(images[ids[0]][None], pids, tids)
    b, _ = model.forward(images[ids[1]][None], pids, tids)
    assert not np.allclose(a.data, b.data)


def test_generate_deterministic_no_pad():
    corp, exs, vocab, model, images = _tiny_setup()
    ex = exs[0]
    pids = np.array(vocab.encode(ex.prompt))
    out1 = model.generate(images[ex.image_id], pids)
    out2 = model.generate(images[ex.image_id], pids)
    assert out1 == out2
    assert vocab.pad_id not in out1
    assert len(out1) <= model.cfg.max_target


def test_generate_max_len_guard():
    corp, exs, vocab, model, images = _tiny_setup()
    with pytest.raises(ShapeError):
        model.generate(images[exs[0].image_id], np.array(vocab.encode("x")), max_len=99)


def _count_decode_calls(model):
    calls = []
    inner = model.decode

    def counted(*args, **kwargs):
        calls.append(args[2].shape[1])
        return inner(*args, **kwargs)

    model.decode = counted
    return calls


def _reference_greedy(model, images, prompt_ids, prompt_mask):
    """Full-prefix greedy loop without cache or early stop."""
    with no_grad():
        memory, mem_mask = model.encode(images, prompt_ids, prompt_mask)
        out = np.full((len(prompt_ids), 1), Vocab.pad_id, dtype=np.int64)
        for _ in range(model.cfg.max_target):
            logits = model.decode(memory, mem_mask, out).data[:, -1, :]
            logits[:, Vocab.pad_id] = -np.inf
            out = np.concatenate([out, logits.argmax(axis=-1)[:, None]], axis=1)
    return [list(row[1:]) for row in out]


def test_cached_decode_matches_full_prefix():
    corp, exs, vocab, small, images = _tiny_setup()
    cfg = dataclasses.replace(small.cfg, n_decoder_layers=2)
    model = Model(cfg, seed=4, dtype=np.float64)
    batch = _batch_of(exs[:3], vocab, model, images)
    ids = np.random.default_rng(0).integers(0, len(vocab), size=(3, cfg.max_target))
    with no_grad():
        memory, mem_mask = model.encode(batch.images.astype(np.float64), batch.prompt_ids,
                                        batch.prompt_mask)
        cache = {}
        for t in range(cfg.max_target):
            step = model.decode(memory, mem_mask, ids[:, t : t + 1], cache=cache, start=t)
            full = model.decode(memory, mem_mask, ids[:, : t + 1])
            assert step.data.shape == (3, 1, len(vocab))
            np.testing.assert_allclose(step.data[:, 0], full.data[:, -1], rtol=0, atol=1e-10)


def test_generate_stops_per_row_like_reference_loop():
    corp, exs, vocab, model, images = _tiny_setup()
    img = corp.image_ids()[0]
    data = [_ex("one word please", "cat", img), _ex("three words please", "a red dog", img),
            _ex("five words now please", "a b c d e", img)]
    vocab = build_vocab(data + exs)
    model = Model(dataclasses.replace(model.cfg, vocab_size=len(vocab)), seed=0)
    sched = build_schedule(MixtureSpec.equal(["caption"]),
                           ScheduleConfig(total_steps=100, batch_size=3, seed=0), {"caption": 3})
    train(model, sched, {"caption": data}, vocab, AdamState(lr=1e-2), images=images)
    batch = _batch_of(data, vocab, model, images)

    expected = []
    for row in _reference_greedy(model, batch.images, batch.prompt_ids, batch.prompt_mask):
        expected.append(row[: row.index(Vocab.eos_id)] if Vocab.eos_id in row else row)
    calls = _count_decode_calls(model)
    got = model.generate_batch(batch.images, batch.prompt_ids, prompt_mask=batch.prompt_mask)
    assert got == expected
    assert [len(ids) for ids in got] == [1, 3, 5]
    # one token per call, and the last row's eos ends the loop early
    assert calls == [1] * 6


def test_generate_all_eos_first_decodes_once():
    corp, exs, vocab, model, images = _tiny_setup()
    tok = model.params["embed.tok"].data
    tok[Vocab.eos_id] *= 10
    # final features equal the eos embedding, so eos wins every argmax
    model.params["dec.ln_f.g"].data[:] = 0
    model.params["dec.ln_f.b"].data[:] = tok[Vocab.eos_id]
    batch = _batch_of(exs[:4], vocab, model, images)
    calls = _count_decode_calls(model)
    out = model.generate_batch(batch.images, batch.prompt_ids, prompt_mask=batch.prompt_mask)
    assert out == [[]] * 4
    assert calls == [1]


def test_decode_rejects_positions_past_max_target():
    corp, exs, vocab, model, images = _tiny_setup()
    batch = _batch_of(exs[:2], vocab, model, images)
    T = model.cfg.max_target
    memory, mem_mask = model.encode(batch.images, batch.prompt_ids, batch.prompt_mask)
    with pytest.raises(ShapeError):
        model.decode(memory, mem_mask, np.zeros((2, T + 1), dtype=np.int64))
    with pytest.raises(ShapeError):
        model.decode(memory, mem_mask, np.zeros((2, 1), dtype=np.int64), cache={}, start=T)


def test_end_to_end_gradient_check():
    corp, exs, vocab, model, images = _tiny_setup(dtype=np.float64)
    batch = _batch_of(exs[:2], vocab, model, images)
    imgs64 = batch.images.astype(np.float64)

    def make_loss():
        _, loss = model.forward(imgs64, batch.prompt_ids, batch.target_ids,
                                prompt_mask=batch.prompt_mask, loss_mask=batch.loss_mask)
        return loss

    probe = ["embed.tok", "patch.kernel", "embed.type", "enc0.attn.wq", "enc0.ff.w1",
             "enc0.ln1.g", "dec0.self.wv", "dec0.cross.wk", "dec0.ff.b2", "dec.ln_f.b"]
    leaves = [model.params[n].value for n in probe]
    err = finite_difference_check(make_loss, leaves, n_samples=4, seed=0)
    assert err < 1e-4, f"rel err {err:.3e}"


# ---------------------------------------------------------------------------
# training

def _train_setup(total_steps, seed=0):
    corp, exs, vocab, model, images = _tiny_setup(seed=seed)
    datasets = {"caption": [e for e in exs if e.kind == TaskKind.CAPTION]}
    spec = MixtureSpec.equal(["caption"])
    sched = build_schedule(spec, ScheduleConfig(total_steps=total_steps, batch_size=4, seed=1),
                           {"caption": len(datasets["caption"])})
    return corp, datasets, sched, vocab, model, images


def test_train_history_and_metrics_file(tmp_path):
    corp, datasets, sched, vocab, model, images = _train_setup(12)
    mpath = str(tmp_path / "metrics.jsonl")
    hist = train(model, sched, datasets, vocab, AdamState(lr=1e-3), images=images,
                 metrics_path=mpath)
    assert len(hist) == 12
    assert [h["step"] for h in hist] == list(range(12))
    assert all(h["task"] == "caption" and np.isfinite(h["loss"]) for h in hist)
    lines = open(mpath).read().strip().splitlines()
    assert len(lines) == 12
    assert json.loads(lines[3]) == hist[3]


def test_train_overfits_single_example():
    corp, exs, vocab, model, images = _tiny_setup()
    ex = exs[0]
    datasets = {"caption": [ex]}
    sched = build_schedule(MixtureSpec.equal(["caption"]),
                           ScheduleConfig(total_steps=150, batch_size=2, seed=0),
                           {"caption": 1})
    hist = train(model, sched, datasets, vocab, AdamState(lr=1e-2), images=images)
    assert hist[-1]["loss"] < 0.05
    out = model.generate(images[ex.image_id], np.array(vocab.encode(ex.prompt)))
    assert vocab.decode(out) == ex.target


def test_train_aborts_on_nonfinite():
    corp, datasets, sched, vocab, model, images = _train_setup(4)
    model.params["embed.tok"].data[0, 0] = np.nan
    with pytest.raises(TrainingError, match="step 0.*caption"):
        train(model, sched, datasets, vocab, AdamState(lr=1e-3), images=images)


def test_train_resume_bitwise(tmp_path):
    n, k = 8, 4
    ck = str(tmp_path / "ck.mpt")

    corp, datasets, sched, vocab, model_a, images = _train_setup(n, seed=5)
    train(model_a, sched, datasets, vocab, AdamState(lr=1e-3), images=images)

    corp, datasets, sched, vocab, model_b, images = _train_setup(n, seed=5)
    train(model_b, sched[:k], datasets, vocab, AdamState(lr=1e-3), images=images,
          checkpoint_path=ck)
    state = load_checkpoint(ck)
    assert state.step == k
    model_c, opt_c = restore_model(state)
    train(model_c, sched, datasets, vocab, opt_c, images=images, start_step=state.step)

    for name in model_a.params:
        assert model_a.params[name].data.tobytes() == model_c.params[name].data.tobytes(), name


# ---------------------------------------------------------------------------
# checkpoint format

def test_checkpoint_round_trip_bitwise(tmp_path):
    corp, datasets, sched, vocab, model, images = _train_setup(3)
    opt = AdamState(lr=1e-3)
    train(model, sched, datasets, vocab, opt, images=images)
    p1, p2 = str(tmp_path / "a.mpt"), str(tmp_path / "b.mpt")
    save_checkpoint(checkpoint_state(model, opt, 3, vocab.fingerprint(), corp.fingerprint()), p1)
    state = load_checkpoint(p1)
    save_checkpoint(state, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()
    assert state.vocab_fingerprint == vocab.fingerprint()
    assert state.corpus_fingerprint == corp.fingerprint()


def test_checkpoint_truncated(tmp_path):
    corp, datasets, sched, vocab, model, images = _train_setup(1)
    p = str(tmp_path / "ck.mpt")
    save_checkpoint(checkpoint_state(model, AdamState(lr=1e-3), 0), p)
    blob = open(p, "rb").read()
    open(p, "wb").write(blob[: len(blob) - 50])
    with pytest.raises(IntegrityError):
        load_checkpoint(p)


def test_checkpoint_corrupted_payload(tmp_path):
    corp, datasets, sched, vocab, model, images = _train_setup(1)
    p = str(tmp_path / "ck.mpt")
    save_checkpoint(checkpoint_state(model, AdamState(lr=1e-3), 0), p)
    blob = bytearray(open(p, "rb").read())
    blob[-3] ^= 0xFF
    open(p, "wb").write(bytes(blob))
    with pytest.raises(IntegrityError, match="digest"):
        load_checkpoint(p)


def test_checkpoint_version_gate(tmp_path):
    import struct as _struct

    corp, datasets, sched, vocab, model, images = _train_setup(1)
    p = str(tmp_path / "ck.mpt")
    save_checkpoint(checkpoint_state(model, AdamState(lr=1e-3), 0), p)
    blob = open(p, "rb").read()
    (hlen,) = _struct.unpack("<I", blob[4:8])
    header = json.loads(blob[8 : 8 + hlen])
    header["version"] = "0"
    hb = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    open(p, "wb").write(b"MPT1" + _struct.pack("<I", len(hb)) + hb + blob[8 + hlen :])
    with pytest.raises(VersionError, match="'0'"):
        load_checkpoint(p)


def test_restore_model_rejects_missing_array(tmp_path):
    corp, datasets, sched, vocab, model, images = _train_setup(1)
    st = checkpoint_state(model, AdamState(lr=1e-3), 0)
    del st.arrays["embed.tok"]
    with pytest.raises(IntegrityError, match="embed.tok"):
        restore_model(st)
