"""Miniature image-language encoder-decoder.

Word-level tokenizer, a pre-LN transformer whose encoder consumes vision
patch tokens concatenated with prompt tokens (modality-type embeddings tell
them apart), a causal decoder with cross-attention, greedy generation (one
token per step over cached decoder K/V, stopping once every row has emitted
eos), a fixed-schedule training loop, and a binary checkpoint format with an
integrity digest.  Weight tying: the decoder output projection is the token
embedding transposed.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import InputError, atomic_write
from . import nnkernel as nk
from .corpus import ParseError, read_input, read_json
from .mixture import make_batch
from .nnkernel import (
    AdamState,
    Parameter,
    ShapeError,
    Tensor,
    adam_step,
    attention,
    backward,
    concat,
    conv_patchify,
    cross_entropy_masked,
    embedding,
    layer_norm,
    matmul,
    no_grad,
    relu,
    reshape,
    transpose,
)


class TrainingError(RuntimeError):
    pass


class CheckpointError(InputError):
    pass


class IntegrityError(CheckpointError):
    pass


class VersionError(CheckpointError):
    pass


# ---------------------------------------------------------------------------
# vocabulary

PAD, EOS, UNK = "<pad>", "<eos>", "<unk>"
N_SENTINELS = 16
MIN_VOCAB_SIZE = 3 + N_SENTINELS  # the special tokens alone


def sentinel(k):
    return f"<extra_{k}>"


_SPECIALS = [PAD, EOS, UNK] + [sentinel(k) for k in range(N_SENTINELS)]


@dataclass
class Vocab:
    """Word-level token table.  pad=0, eos=1, unk=2, sentinels 3..18."""

    id_to_token: list

    def __post_init__(self):
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}

    pad_id = 0
    eos_id = 1
    unk_id = 2

    def __len__(self):
        return len(self.id_to_token)

    def encode(self, text):
        unk = self.unk_id
        return [self.token_to_id.get(w, unk) for w in text.split()]

    def decode(self, ids):
        toks = []
        for i in ids:
            if i == self.pad_id:
                continue
            if i == self.eos_id:
                break
            toks.append(self.id_to_token[i])
        return " ".join(toks)

    def fingerprint(self):
        blob = json.dumps(self.id_to_token, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()

    def save(self, path):
        with atomic_write(path) as f:
            json.dump(self.id_to_token, f, indent=0)

    @classmethod
    def load(cls, path):
        """The vocab saved at ``path``; a ParseError naming it unless the file
        is a JSON list of distinct strings that starts with the special
        tokens."""
        tokens = read_input(path, read_json)
        if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)):
            raise ParseError(f"{path}: not a JSON list of strings")
        if tokens[:MIN_VOCAB_SIZE] != _SPECIALS:
            raise ParseError(f"{path}: does not start with the {MIN_VOCAB_SIZE} special tokens")
        vocab = cls(tokens)
        if len(vocab.token_to_id) != len(tokens):
            raise ParseError(f"{path}: a token is repeated")
        return vocab


def build_vocab(examples):
    """Frequency-ordered vocabulary over prompt+target words of a task stream.

    Ties break lexicographically; "yes"/"no" are force-included so yes/no
    tasks can always be answered.
    """
    counts = collections.Counter()
    n = 0
    for ex in examples:
        n += 1
        counts.update(ex.prompt.split())
        counts.update(ex.target.split())
    if n == 0:
        raise ValueError("build_vocab: empty example stream")
    for w in ("yes", "no"):
        if w not in counts:
            counts[w] = 0
    words = sorted(
        (w for w in counts if w not in _SPECIALS),
        key=lambda w: (-counts[w], w),
    )
    return Vocab(_SPECIALS + words)


# ---------------------------------------------------------------------------
# configuration

@dataclass
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    n_encoder_layers: int = 2
    n_decoder_layers: int = 2
    d_ff: int = 256
    patch: int = 4
    image_size: int = 32
    max_prompt: int = 32
    max_target: int = 16
    init_scale: float = 0.02

    def __post_init__(self):
        if self.d_model % self.n_heads:
            raise ShapeError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.image_size % self.patch:
            raise ShapeError(f"image_size {self.image_size} not divisible by patch {self.patch}")
        if self.vocab_size < MIN_VOCAB_SIZE:
            raise ValueError("vocab_size must cover the special tokens")

    @property
    def n_vision(self):
        return (self.image_size // self.patch) ** 2

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


# ---------------------------------------------------------------------------
# model

def _causal_mask(n, dtype, start=0):
    """Additive mask for n queries at positions start.. over start+n keys."""
    m = np.zeros((1, 1, n, start + n), dtype=dtype)
    rows, cols = np.triu_indices(n, k=start + 1, m=start + n)
    m[..., rows, cols] = nk.MASK_NEG
    return m


class Model:
    """Parameter container + forward/generate.  Single tape, single thread."""

    def __init__(self, cfg, seed=0, dtype=np.float32):
        self.cfg = cfg
        self.dtype = dtype
        self.params = {}
        rng = np.random.default_rng(seed)

        def w(name, shape):
            self.params[name] = Parameter(
                name, (rng.normal(size=shape) * cfg.init_scale).astype(dtype)
            )

        def ln(name, dim):
            self.params[name + ".g"] = Parameter(name + ".g", np.ones(dim, dtype=dtype))
            self.params[name + ".b"] = Parameter(name + ".b", np.zeros(dim, dtype=dtype))

        d, ff = cfg.d_model, cfg.d_ff
        w("embed.tok", (cfg.vocab_size, d))
        w("embed.vis_pos", (cfg.n_vision, d))
        w("embed.txt_pos", (cfg.max_prompt, d))
        w("embed.dec_pos", (cfg.max_target, d))
        w("embed.type", (2, d))  # row 0 vision, row 1 text
        w("patch.kernel", (cfg.patch * cfg.patch * 3, d))

        def attn_block(prefix):
            for nm in ("wq", "wk", "wv", "wo"):
                w(f"{prefix}.{nm}", (d, d))

        def ff_block(prefix):
            w(f"{prefix}.w1", (d, ff))
            self.params[f"{prefix}.b1"] = Parameter(f"{prefix}.b1", np.zeros(ff, dtype=dtype))
            w(f"{prefix}.w2", (ff, d))
            self.params[f"{prefix}.b2"] = Parameter(f"{prefix}.b2", np.zeros(d, dtype=dtype))

        for i in range(cfg.n_encoder_layers):
            ln(f"enc{i}.ln1", d)
            attn_block(f"enc{i}.attn")
            ln(f"enc{i}.ln2", d)
            ff_block(f"enc{i}.ff")
        ln("enc.ln_f", d)
        for i in range(cfg.n_decoder_layers):
            ln(f"dec{i}.ln1", d)
            attn_block(f"dec{i}.self")
            ln(f"dec{i}.ln2", d)
            attn_block(f"dec{i}.cross")
            ln(f"dec{i}.ln3", d)
            ff_block(f"dec{i}.ff")
        ln("dec.ln_f", d)

    # -- helpers ----------------------------------------------------------

    def zero_grads(self):
        for p in self.params.values():
            p.zero_grad()

    def parameters(self):
        return list(self.params.values())

    def _split_heads(self, x):
        B, T, _ = x.data.shape
        h, dh = self.cfg.n_heads, self.cfg.d_model // self.cfg.n_heads
        return transpose(reshape(x, (B, T, h, dh)), (0, 2, 1, 3))

    def _merge_heads(self, x):
        B, h, T, dh = x.data.shape
        return reshape(transpose(x, (0, 2, 1, 3)), (B, T, h * dh))

    def _mha(self, prefix, xq, xkv, mask, cache=None):
        """Multi-head attention.  With a ``cache`` dict, keys/values live under
        ``prefix``: those projected from ``xkv`` are appended to the cached
        ones, and ``xkv=None`` reuses the cached ones as they are."""
        q = self._split_heads(matmul(xq, self.params[f"{prefix}.wq"]))
        if xkv is None:
            k, v = cache[prefix]
        else:
            k = self._split_heads(matmul(xkv, self.params[f"{prefix}.wk"]))
            v = self._split_heads(matmul(xkv, self.params[f"{prefix}.wv"]))
            if cache is not None:
                if prefix in cache:
                    k = concat([cache[prefix][0], k], axis=2)
                    v = concat([cache[prefix][1], v], axis=2)
                cache[prefix] = (k, v)
        out = self._merge_heads(attention(q, k, v, mask=mask))
        return matmul(out, self.params[f"{prefix}.wo"])

    def _ff(self, prefix, x):
        p = self.params
        h = relu(matmul(x, p[f"{prefix}.w1"], p[f"{prefix}.b1"]))
        return matmul(h, p[f"{prefix}.w2"], p[f"{prefix}.b2"])

    def _ln(self, prefix, x):
        return layer_norm(x, self.params[f"{prefix}.g"], self.params[f"{prefix}.b"])

    # -- encoder / decoder -------------------------------------------------

    def encode(self, images, prompt_ids, prompt_mask):
        """Joint encoder over [vision ‖ prompt].  Returns (memory, key_mask)."""
        cfg = self.cfg
        B, H, W, C = np.asarray(images).shape
        if H != cfg.image_size or W != cfg.image_size or C != 3:
            raise ShapeError(f"images {(H, W, C)}, expected {(cfg.image_size, cfg.image_size, 3)}")
        P = prompt_ids.shape[1]
        if P > cfg.max_prompt:
            raise ShapeError(f"prompt length {P} > max {cfg.max_prompt}")

        vis = conv_patchify(Tensor(np.asarray(images, dtype=self.dtype)), self.params["patch.kernel"], cfg.patch)
        # position and type rows are looked up as (1, T, d) and (1, 1, d)
        vis = vis + embedding(self.params["embed.vis_pos"], np.arange(cfg.n_vision)[None])
        vis = vis + embedding(self.params["embed.type"], np.array([[0]]))

        txt = embedding(self.params["embed.tok"], prompt_ids)
        txt = txt + embedding(self.params["embed.txt_pos"], np.arange(P)[None])
        txt = txt + embedding(self.params["embed.type"], np.array([[1]]))

        x = concat([vis, txt], axis=1)

        # additive key-pad mask over [vision ‖ prompt]; vision keys always valid
        key_valid = np.concatenate(
            [np.ones((B, cfg.n_vision), dtype=self.dtype), np.asarray(prompt_mask, dtype=self.dtype)],
            axis=1,
        )
        key_mask = ((1.0 - key_valid) * nk.MASK_NEG)[:, None, None, :]

        for i in range(self.cfg.n_encoder_layers):
            h = self._ln(f"enc{i}.ln1", x)
            x = x + self._mha(f"enc{i}.attn", h, h, key_mask)
            x = x + self._ff(f"enc{i}.ff", self._ln(f"enc{i}.ln2", x))
        return self._ln("enc.ln_f", x), key_mask

    def decode(self, memory, mem_mask, dec_ids, cache=None, start=0):
        """Causal decoder with cross-attention; returns logits (B,T,V).

        ``dec_ids`` holds positions ``start..start+T-1``.  For incremental
        decoding the caller passes the same ``cache`` dict (empty at first)
        to every call, with ``start`` the number of positions already fed:
        each layer's self-attention K/V grow by the new positions, and the
        cross-attention K/V over ``memory`` are computed once and reused.
        """
        cfg = self.cfg
        T = dec_ids.shape[1]
        if start + T > cfg.max_target:
            raise ShapeError(f"target length {start + T} > max {cfg.max_target}")
        x = embedding(self.params["embed.tok"], dec_ids)
        x = x + embedding(self.params["embed.dec_pos"], np.arange(start, start + T)[None])
        causal = _causal_mask(T, self.dtype, start)
        for i in range(cfg.n_decoder_layers):
            cross = f"dec{i}.cross"
            h = self._ln(f"dec{i}.ln1", x)
            x = x + self._mha(f"dec{i}.self", h, h, causal, cache)
            kv_src = None if cache and cross in cache else memory
            x = x + self._mha(cross, self._ln(f"dec{i}.ln2", x), kv_src, mem_mask, cache)
            x = x + self._ff(f"dec{i}.ff", self._ln(f"dec{i}.ln3", x))
        x = self._ln("dec.ln_f", x)
        # tied output projection
        return matmul(x, transpose(self.params["embed.tok"], (1, 0)))

    def forward(self, images, prompt_ids, target_ids, prompt_mask=None, loss_mask=None):
        """Teacher-forced step.  Returns (logits, loss)."""
        prompt_ids = np.asarray(prompt_ids)
        target_ids = np.asarray(target_ids)
        if prompt_mask is None:
            prompt_mask = (prompt_ids != Vocab.pad_id).astype(self.dtype)
        if loss_mask is None:
            loss_mask = (target_ids != Vocab.pad_id).astype(self.dtype)
        memory, mem_mask = self.encode(images, prompt_ids, prompt_mask)
        B, T = target_ids.shape
        dec_in = np.concatenate(
            [np.full((B, 1), Vocab.pad_id, dtype=target_ids.dtype), target_ids[:, :-1]], axis=1
        )
        logits = self.decode(memory, mem_mask, dec_in)
        loss = cross_entropy_masked(logits, target_ids, loss_mask)
        return logits, loss

    def forward_batch(self, batch):
        return self.forward(
            batch.images, batch.prompt_ids, batch.target_ids,
            prompt_mask=batch.prompt_mask, loss_mask=batch.loss_mask,
        )

    # -- generation --------------------------------------------------------

    def generate_batch(self, images, prompt_ids, prompt_mask=None):
        """Greedy decode of up to ``max_target`` tokens.  Returns list of id
        lists (no pad, stop at eos).

        Feeds one token per step through a decoder K/V cache and stops once
        every row has emitted eos.
        """
        max_len = self.cfg.max_target
        prompt_ids = np.asarray(prompt_ids)
        if prompt_mask is None:
            prompt_mask = (prompt_ids != Vocab.pad_id).astype(self.dtype)
        B = prompt_ids.shape[0]
        # columns left unfilled by the early stop lie after every row's eos
        out = np.full((B, max_len), Vocab.eos_id, dtype=np.int64)
        done = np.zeros(B, dtype=bool)
        with no_grad():
            memory, mem_mask = self.encode(images, prompt_ids, prompt_mask)
            cache = {}
            nxt = np.full((B, 1), Vocab.pad_id, dtype=np.int64)  # BOS = pad
            for t in range(max_len):
                logits = self.decode(memory, mem_mask, nxt, cache=cache, start=t).data[:, -1, :]
                logits[:, Vocab.pad_id] = -np.inf  # never emit pad
                nxt = logits.argmax(axis=-1)[:, None]
                out[:, t] = nxt[:, 0]
                done |= nxt[:, 0] == Vocab.eos_id
                if done.all():
                    break
        results = []
        for row in out:
            ids = []
            for i in row:
                if i == Vocab.eos_id:
                    break
                ids.append(int(i))
            results.append(ids)
        return results


# ---------------------------------------------------------------------------
# training loop

def train(model, schedule, datasets, vocab, opt, images=None, start_step=0,
          metrics_path=None, checkpoint_path=None, checkpoint_every=0,
          vocab_fingerprint=None, corpus_fingerprint=None, logged=()):
    """Run schedule entries [start_step:] in order.  Returns metrics history:
    per step its loss, the global gradient norm and the number of truncated
    sequences in its batch.  The file at ``metrics_path`` is rewritten to
    hold the records ``logged`` of earlier steps (see `read_metrics`), then
    one line per step this call trains.

    ``datasets`` maps component name -> list of TaskExample; ``images`` maps
    image_id -> pixel array (None for text-only models is unsupported here:
    every task in this workbench is image-conditioned).  Periodic and final
    checkpoints carry optimizer state so a resumed run is bitwise identical
    to an uninterrupted one.
    """
    limits = (model.cfg.max_prompt, model.cfg.max_target)
    history = []
    mfile = open(metrics_path, "w") if metrics_path else None
    try:
        if mfile:
            mfile.writelines(json.dumps(rec) + "\n" for rec in logged)
        for entry in schedule:
            if entry.step < start_step:
                continue
            examples = [datasets[entry.component][i] for i in entry.example_ids]
            batch = make_batch(examples, vocab, limits, images=images)
            model.zero_grads()
            loss = model.forward_batch(batch)[1]
            value = loss.item()
            if not np.isfinite(value):
                raise TrainingError(f"non-finite loss at step {entry.step} on task {entry.component}")
            backward(loss)
            # the loss holds the step's whole tape: free it before the update
            # and the next forward pass, so that one tape is alive at a time
            del loss
            grad_norm = adam_step(model.parameters(), opt)
            rec = {"step": entry.step, "task": entry.component, "loss": value,
                   "grad_norm": grad_norm, "truncated": batch.truncated}
            history.append(rec)
            if mfile:
                mfile.write(json.dumps(rec) + "\n")
            if checkpoint_path and checkpoint_every and (entry.step + 1) % checkpoint_every == 0:
                save_checkpoint(checkpoint_state(model, opt, entry.step + 1,
                                                 vocab_fingerprint, corpus_fingerprint),
                                checkpoint_path)
    finally:
        if mfile:
            mfile.close()
    if checkpoint_path:
        last = schedule[-1].step + 1 if schedule else start_step
        save_checkpoint(checkpoint_state(model, opt, last, vocab_fingerprint, corpus_fingerprint),
                        checkpoint_path)
    return history


def read_metrics(path, before_step):
    """The records of the metrics log at ``path`` for steps before
    ``before_step``, in file order, so that a resumed run does not log a
    step twice; none if there is no log.  A partial last line, left by a
    killed run, is dropped.  A complete line that is not a step record is a
    ParseError naming ``path`` and the line."""
    if not os.path.exists(path):
        return []
    kept = []
    with open(path, "rb") as f:
        for n, line in enumerate(f, 1):
            if not line.endswith(b"\n"):
                break
            try:
                rec = json.loads(line)
                ok = isinstance(rec["step"], int) and isinstance(rec["loss"], (int, float))
            except (ValueError, TypeError, KeyError):
                ok = False
            if not ok:
                raise ParseError(f"{path}:{n}: not a step record")
            if rec["step"] < before_step:
                kept.append(rec)
    return kept


# ---------------------------------------------------------------------------
# checkpoints

CKPT_MAGIC = b"MPT1"
CKPT_VERSION = "1"


@dataclass
class CheckpointState:
    config: ModelConfig
    arrays: dict  # name -> float32 ndarray (params and adam moments)
    opt: dict  # lr/beta1/beta2/eps/step
    step: int
    vocab_fingerprint: str = ""
    corpus_fingerprint: str = ""


def checkpoint_state(model, opt, step, vocab_fingerprint=None, corpus_fingerprint=None):
    arrays = {name: p.data for name, p in model.params.items()}
    for name in model.params:
        if name in opt.m:
            arrays[f"adam.m.{name}"] = opt.m[name]
            arrays[f"adam.v.{name}"] = opt.v[name]
    return CheckpointState(
        config=model.cfg,
        arrays=arrays,
        opt={"lr": opt.lr, "beta1": opt.beta1, "beta2": opt.beta2, "eps": opt.eps, "step": opt.step},
        step=step,
        vocab_fingerprint=vocab_fingerprint or "",
        corpus_fingerprint=corpus_fingerprint or "",
    )


def save_checkpoint(state, path):
    """magic + uint32 header length + canonical-JSON header + f32 payload."""
    names = sorted(state.arrays)
    payload = b"".join(
        np.ascontiguousarray(state.arrays[n], dtype="<f4").tobytes() for n in names
    )
    header = {
        "version": CKPT_VERSION,
        "config": state.config.to_dict(),
        "arrays": [{"name": n, "shape": list(state.arrays[n].shape)} for n in names],
        "optimizer": state.opt,
        "step": state.step,
        "vocab_fingerprint": state.vocab_fingerprint,
        "corpus_fingerprint": state.corpus_fingerprint,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    hb = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with atomic_write(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<I", len(hb)))
        f.write(hb)
        f.write(payload)


def load_checkpoint(path):
    """The checkpoint at ``path``.  The payload digest covers the arrays
    only, so every header field is checked too: a file that is not a whole
    checkpoint is an IntegrityError naming ``path``."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != CKPT_MAGIC:
        raise IntegrityError(f"bad magic in {path}")
    try:
        (hlen,) = struct.unpack("<I", blob[4:8])
        header = json.loads(blob[8 : 8 + hlen])
    except (struct.error, ValueError):
        header = None
    if not isinstance(header, dict):
        raise IntegrityError(f"unreadable header in {path}")
    version = header.get("version")
    if version != CKPT_VERSION:
        raise VersionError(f"checkpoint version {version!r} in {path}, expected {CKPT_VERSION!r}")
    payload = blob[8 + hlen :]
    if hashlib.sha256(payload).hexdigest() != header.get("payload_sha256"):
        raise IntegrityError(f"payload digest mismatch in {path}")
    try:
        return _state_from_header(header, payload)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise IntegrityError(f"bad header in {path}: {type(e).__name__}: {e}") from None


def _state_from_header(header, payload):
    sizes = [4 * int(np.prod(spec["shape"], dtype=np.int64)) for spec in header["arrays"]]
    if min(sizes, default=0) < 0 or sum(sizes) != len(payload):
        raise ValueError("array shapes do not match the payload")
    arrays, off = {}, 0
    for spec, size in zip(header["arrays"], sizes):
        arrays[spec["name"]] = np.frombuffer(
            payload[off : off + size], dtype="<f4").reshape(spec["shape"]).copy()
        off += size
    o = header["optimizer"]
    return CheckpointState(
        config=ModelConfig.from_dict(header["config"]),
        arrays=arrays,
        opt={"lr": float(o["lr"]), "beta1": float(o["beta1"]), "beta2": float(o["beta2"]),
             "eps": float(o["eps"]), "step": int(o["step"])},
        step=int(header["step"]),
        vocab_fingerprint=header["vocab_fingerprint"],
        corpus_fingerprint=header["corpus_fingerprint"],
    )


def restore_model(state):
    """Model + AdamState rebuilt from a loaded checkpoint.  Each array must be
    a parameter of the model or one of its two Adam moments, in the
    parameter's shape; a parameter has both moments or none."""
    model = Model(state.config, seed=0)
    known, with_moments = set(), []
    for name, p in model.params.items():
        keys = (name, f"adam.m.{name}", f"adam.v.{name}")
        known.update(keys)
        held = [k for k in keys if k in state.arrays]
        if name not in held or len(held) == 2:
            missing = next(k for k in keys if k not in state.arrays)
            raise IntegrityError(f"checkpoint missing array {missing}")
        for k in held:
            if state.arrays[k].shape != p.data.shape:
                raise IntegrityError(f"shape mismatch for {k}")
        if len(held) == 3:
            with_moments.append(name)
    extra = sorted(set(state.arrays) - known)
    if extra:
        raise IntegrityError(f"checkpoint array {extra[0]} is not in the model")
    # parameters first, then moments, so the parameters lie together in memory
    for name, p in model.params.items():
        p.data = state.arrays[name].copy()
    opt = AdamState(
        lr=state.opt["lr"], beta1=state.opt["beta1"], beta2=state.opt["beta2"],
        eps=state.opt["eps"], step=state.opt["step"],
    )
    for name in with_moments:
        opt.m[name] = state.arrays[f"adam.m.{name}"].copy()
        opt.v[name] = state.arrays[f"adam.v.{name}"].copy()
    return model, opt
