"""Mixture scheduling and batch assembly.

A schedule is a fixed-length sequence of (step, component, example ids): each
step trains on one batch from one task dataset, with components drawn by
weight (equal by default) and examples drawn per-component in shuffled epochs
without replacement.  Total step count never depends on component count.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

import numpy as np

from . import InputError


class ScheduleError(InputError):
    pass


@dataclass
class MixtureSpec:
    names: list
    weights: list

    def __post_init__(self):
        if not self.names:
            raise ScheduleError("mixture needs at least one component")
        if len(self.names) != len(self.weights):
            raise ScheduleError("names and weights differ in length")
        if len(set(self.names)) != len(self.names):
            raise ScheduleError("duplicate component names")
        for n, w in zip(self.names, self.weights):
            if not (w > 0):
                raise ScheduleError(f"component {n!r} has non-positive weight {w}")

    @classmethod
    def equal(cls, names):
        names = list(names)
        return cls(names=names, weights=[1.0] * len(names))


@dataclass
class ScheduleConfig:
    total_steps: int
    batch_size: int
    seed: int = 0

    def __post_init__(self):
        if self.total_steps < 1 or self.batch_size < 1:
            raise ScheduleError("total_steps and batch_size must be positive")


def sample_component(spec, rng):
    """Index i with probability weight_i / sum(weights)."""
    r = rng.random() * sum(spec.weights)
    acc = 0.0
    for i, w in enumerate(spec.weights):
        acc += w
        if r < acc:
            return i
    return len(spec.weights) - 1  # guard against fp roundoff on the last edge


def _component_rng(seed, name):
    digest = hashlib.blake2b(f"{seed}|{name}".encode(), digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


class _EpochSampler:
    """Without-replacement id stream; reshuffles on exhaustion."""

    def __init__(self, size, rng):
        self.size = size
        self.rng = rng
        self.order = []
        self.pos = 0

    def take(self, k):
        out = []
        while len(out) < k:
            if self.pos >= len(self.order):
                self.order = list(range(self.size))
                self.rng.shuffle(self.order)
                self.pos = 0
            out.append(self.order[self.pos])
            self.pos += 1
        return out


@dataclass(frozen=True)
class ScheduleEntry:
    step: int
    component: str
    example_ids: tuple


def build_schedule(spec, cfg, sizes):
    """Deterministic fixed-budget schedule over the mixture.

    ``sizes`` maps component name -> dataset size.  Epoch shufflers are keyed
    by (cfg.seed, component), so a component's example order is stable under
    changes to the rest of the mixture.
    """
    for name in spec.names:
        if sizes.get(name, 0) < 1:
            raise ScheduleError(f"component {name!r} has an empty dataset")
    pick_rng = random.Random(cfg.seed)
    samplers = {n: _EpochSampler(sizes[n], _component_rng(cfg.seed, n)) for n in spec.names}
    entries = []
    for step in range(cfg.total_steps):
        name = spec.names[sample_component(spec, pick_rng)]
        ids = samplers[name].take(cfg.batch_size)
        entries.append(ScheduleEntry(step=step, component=name, example_ids=tuple(ids)))
    return entries


# ---------------------------------------------------------------------------
# batch assembly

@dataclass
class Batch:
    """Padded token batch; ``images`` is None for text-only pipelines."""

    images: object  # (B, H, W, 3) float32 array or None
    prompt_ids: np.ndarray  # (B, P) int64
    prompt_mask: np.ndarray  # (B, P) float32, 1 on real tokens
    target_ids: np.ndarray  # (B, T) int64, each row ends with eos before padding
    loss_mask: np.ndarray  # (B, T) float32, 1 on real target tokens incl. eos
    truncated: int = 0
    image_ids: list = field(default_factory=list)


def make_batch(examples, tokenizer, limits, images=None):
    """Tokenize and right-pad a list of task examples.

    ``limits`` = (max_prompt, max_target).  Prompts longer than max_prompt are
    clipped; targets are clipped to max_target-1 so the eos always fits.  The
    number of clipped sequences is reported on the batch.  ``images`` is an
    optional mapping image_id -> pixel array.
    """
    if not examples:
        raise ValueError("make_batch needs at least one example")
    max_prompt, max_target = limits
    pad, eos = tokenizer.pad_id, tokenizer.eos_id

    truncated = 0
    prompts, targets = [], []
    for ex in examples:
        p = tokenizer.encode(ex.prompt)
        if len(p) > max_prompt:
            p = p[:max_prompt]
            truncated += 1
        t = tokenizer.encode(ex.target)
        if len(t) > max_target - 1:
            t = t[: max_target - 1]
            truncated += 1
        targets.append(t + [eos])
        prompts.append(p)

    plen = max(len(p) for p in prompts)
    tlen = max(len(t) for t in targets)
    B = len(examples)
    prompt_ids = np.full((B, plen), pad, dtype=np.int64)
    prompt_mask = np.zeros((B, plen), dtype=np.float32)
    target_ids = np.full((B, tlen), pad, dtype=np.int64)
    loss_mask = np.zeros((B, tlen), dtype=np.float32)
    for i, (p, t) in enumerate(zip(prompts, targets)):
        prompt_ids[i, : len(p)] = p
        prompt_mask[i, : len(p)] = 1.0
        target_ids[i, : len(t)] = t
        loss_mask[i, : len(t)] = 1.0

    image_batch = None
    image_ids = [ex.image_id for ex in examples]
    if images is not None:
        image_batch = np.stack([np.asarray(images[i], dtype=np.float32) for i in image_ids])

    return Batch(
        images=image_batch,
        prompt_ids=prompt_ids,
        prompt_mask=prompt_mask,
        target_ids=target_ids,
        loss_mask=loss_mask,
        truncated=truncated,
        image_ids=image_ids,
    )
