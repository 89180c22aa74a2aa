"""Tokenizer, transformer forward/generate, training loop, checkpoints."""

import dataclasses
import json
import math
import os
import weakref

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
from mixpretrain.nnkernel import AdamState, ShapeError, adam_step, no_grad
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
    out1 = model.generate_batch(images[ex.image_id][None], pids[None])[0]
    out2 = model.generate_batch(images[ex.image_id][None], pids[None])[0]
    assert out1 == out2
    assert vocab.pad_id not in out1
    assert len(out1) <= model.cfg.max_target


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


# Every tape op a training step calls.  The composites build their output
# from other ops, so the closure on it belongs to an inner op.
TAPE_OPS = ("add", "scale", "matmul", "relu", "embedding", "reshape", "transpose", "concat",
            "softmax", "layer_norm", "attention", "conv_patchify", "cross_entropy_masked")
COMPOSITE_OPS = ("attention", "conv_patchify")
TAPE_NODES_PER_STEP = 153  # two encoder and two decoder layers, as in criterion 8


def test_training_step_tape_contract(monkeypatch):
    # the benchmark times these ops by wrapping them where the package looks
    # them up; a step that stops calling one, or builds more or fewer tape
    # nodes, changes what the benchmark reports
    from mixpretrain import model as M
    from mixpretrain import nnkernel as K

    calls = dict.fromkeys(TAPE_OPS, 0)
    nodes = dict.fromkeys(TAPE_OPS, 0)
    seen = set()

    def wrap(op, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls[op] += 1
            if out._backward is not None and out._backward not in seen:
                seen.add(out._backward)
                nodes[op] += 1
            return out
        return wrapper

    for op in TAPE_OPS:
        wrapped = wrap(op, getattr(K, op))
        for mod in (K, M):
            if hasattr(mod, op):
                monkeypatch.setattr(mod, op, wrapped)

    corp, exs, vocab, small, images = _tiny_setup()
    model = Model(dataclasses.replace(small.cfg, n_encoder_layers=2, n_decoder_layers=2))
    datasets = {"caption": [e for e in exs if e.kind == TaskKind.CAPTION]}
    sched = build_schedule(MixtureSpec.equal(["caption"]),
                           ScheduleConfig(total_steps=1, batch_size=4, seed=1),
                           {"caption": len(datasets["caption"])})
    train(model, sched, datasets, vocab, AdamState(lr=1e-3), images=images)

    assert [op for op in TAPE_OPS if not calls[op]] == []
    assert [op for op in TAPE_OPS if op not in COMPOSITE_OPS and not nodes[op]] == []
    assert [op for op in COMPOSITE_OPS if nodes[op]] == []
    assert sum(nodes.values()) == TAPE_NODES_PER_STEP, nodes


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


def test_train_frees_each_steps_tape(monkeypatch):
    # a step's loss and logits hold its whole tape; ``train`` must drop them
    # before the next forward pass.  Tensor takes no weak reference, so the
    # arrays it alone holds stand in for it.
    corp, datasets, sched, vocab, model, images = _train_setup(4)
    real = Model.forward_batch
    previous, alive_at_call = [], []

    def recording(self, batch):
        alive_at_call.append([ref() is not None for ref in previous])
        logits, loss = real(self, batch)
        previous[:] = [weakref.ref(logits.data), weakref.ref(loss.data)]
        return logits, loss

    monkeypatch.setattr(Model, "forward_batch", recording)
    train(model, sched, datasets, vocab, AdamState(lr=1e-3), images=images)
    assert alive_at_call == [[]] + [[False, False]] * 3
    assert [ref() for ref in previous] == [None, None]


def test_train_overfits_single_example():
    corp, exs, vocab, model, images = _tiny_setup()
    ex = exs[0]
    datasets = {"caption": [ex]}
    sched = build_schedule(MixtureSpec.equal(["caption"]),
                           ScheduleConfig(total_steps=150, batch_size=2, seed=0),
                           {"caption": 1})
    hist = train(model, sched, datasets, vocab, AdamState(lr=1e-2), images=images)
    assert hist[-1]["loss"] < 0.05
    out, = model.generate_batch(images[ex.image_id][None], np.array([vocab.encode(ex.prompt)]))
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


def test_flat_adam_matches_per_parameter_reference(tmp_path):
    # criterion-8 shapes; gradients drawn at random, so no tape is needed
    from test_nnkernel import _adam_reference

    cfg = ModelConfig(vocab_size=300, d_model=64, n_heads=4, n_encoder_layers=2,
                      n_decoder_layers=2, d_ff=256, patch=8, image_size=24,
                      max_prompt=20, max_target=16)
    model, opt = Model(cfg, seed=0), AdamState(lr=2e-3)
    ref = {name: p.data.copy() for name, p in model.params.items()}
    ref_m, ref_v = {}, {}
    rng = np.random.default_rng(0)
    ck = str(tmp_path / "ck.mpt")
    for step in range(1, 51):
        grads = {name: (rng.normal(size=p.data.shape) * 0.01).astype(np.float32)
                 for name, p in model.params.items()}
        for name, p in model.params.items():
            p.grad = grads[name]
        adam_step(model.parameters(), opt)
        _adam_reference(ref, grads, ref_m, ref_v, step, 2e-3)
        if step == 10:  # a rebound parameter and moment are adopted again
            model.params["enc0.ff.w1"].data = model.params["enc0.ff.w1"].data.copy()
            opt.m["dec1.cross.wq"] = opt.m["dec1.cross.wq"].copy()
        if step == 25:
            save_checkpoint(checkpoint_state(model, opt, step), ck)
            model, opt = restore_model(load_checkpoint(ck))
    assert opt.step == 50
    for name, p in model.params.items():
        assert p.data.tobytes() == ref[name].tobytes(), name
        assert opt.m[name].tobytes() == ref_m[name].tobytes(), name
        assert opt.v[name].tobytes() == ref_v[name].tobytes(), name


# ---------------------------------------------------------------------------
# checkpoint format

class _DiskFull:
    """A file whose third write fails, as on a full disk."""

    def __init__(self, f):
        self.f, self.writes = f, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, blob):
        self.writes += 1
        if self.writes > 2:
            raise OSError(28, "No space left on device")
        return self.f.write(blob)


def test_failed_checkpoint_write_keeps_previous(tmp_path, monkeypatch):
    import mixpretrain

    corp, datasets, sched, vocab, model, images = _train_setup(2)
    opt = AdamState(lr=1e-3)
    p = str(tmp_path / "ck.mpt")
    save_checkpoint(checkpoint_state(model, opt, 0), p)
    before = open(p, "rb").read()
    train(model, sched, datasets, vocab, opt, images=images)
    with monkeypatch.context() as mp:
        # the package's atomic_write opens the temp file
        mp.setattr(mixpretrain, "open", lambda *a, **k: _DiskFull(open(*a, **k)), raising=False)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(checkpoint_state(model, opt, 2), p)
    assert open(p, "rb").read() == before
    assert load_checkpoint(p).step == 0
    assert os.listdir(tmp_path) == ["ck.mpt"]


def test_failed_vocab_write_keeps_previous(tmp_path, monkeypatch):
    import mixpretrain

    p = str(tmp_path / "vocab.json")
    build_vocab([_ex("a b c", "d")]).save(p)
    before = open(p, "rb").read()
    with monkeypatch.context() as mp:
        mp.setattr(mixpretrain, "open", lambda *a, **k: _DiskFull(open(*a, **k)), raising=False)
        with pytest.raises(OSError, match="No space"):
            build_vocab([_ex("zz", "qq")]).save(p)
    assert open(p, "rb").read() == before
    assert os.listdir(tmp_path) == ["vocab.json"]


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
    # headers written before rng_state was dropped carry "rng_state": null and still load
    import struct as _struct

    corp, datasets, sched, vocab, model, images = _train_setup(1)
    p = str(tmp_path / "ck.mpt")
    save_checkpoint(checkpoint_state(model, AdamState(lr=1e-3), 0), p)
    blob = open(p, "rb").read()
    (hlen,) = _struct.unpack("<I", blob[4:8])
    header = json.loads(blob[8 : 8 + hlen])
    assert "rng_state" not in header

    def rewrite(**edit):
        hb = json.dumps({**header, **edit}, sort_keys=True, separators=(",", ":")).encode()
        open(p, "wb").write(b"MPT1" + _struct.pack("<I", len(hb)) + hb + blob[8 + hlen :])

    rewrite(version="0")
    with pytest.raises(VersionError, match="'0'"):
        load_checkpoint(p)
    rewrite(rng_state=None)
    restored, _ = restore_model(load_checkpoint(p))
    for name, param in model.params.items():
        assert np.array_equal(restored.params[name].data, param.data), name


def test_restore_model_rejects_missing_array(tmp_path):
    corp, datasets, sched, vocab, model, images = _train_setup(1)
    st = checkpoint_state(model, AdamState(lr=1e-3), 0)
    del st.arrays["embed.tok"]
    with pytest.raises(IntegrityError, match="embed.tok"):
        restore_model(st)
