"""Finite-difference audit of the tape: one table of cases, run by
``mixpretrain gradcheck``, the acceptance suite and the kernel tests.

Each case builds float64 leaves from a seeded generator and a scalar loss
over them; ``finite_difference_check`` compares the taped gradients of a few
elements per leaf with central differences.  A case passes when its relative
error stays below ``TOLERANCE`` on every seed.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from . import nnkernel as K
from .model import Model, ModelConfig, Vocab

TOLERANCE = 1e-4
SEEDS = (0, 1, 2, 3, 4)

FD_STEP = 1e-5
# keeps the relative error meaningful where the true gradient sits below the
# cancellation noise of the difference quotient (~eps * |loss| / FD_STEP)
DENOM_FLOOR = 1e-6
# elements whose error exceeds this are re-probed at the case's h_fallback
FALLBACK_THRESHOLD = 1e-4


def finite_difference_check(make_loss, tensors, *, n_samples=8, seed=0, h_fallback=None):
    """Max relative error of taped grads vs central differences.

    ``make_loss()`` rebuilds the graph from the current contents of
    ``tensors`` (float64 leaf Tensors with requires_grad).  ``n_samples``
    elements per tensor are probed; sampling is seeded.

    ``h_fallback``: when a forward pass happens to place a relu input within
    +/- FD_STEP of zero, the two evaluations straddle the kink and the
    quotient no longer estimates the derivative.  Elements whose error exceeds
    ``FALLBACK_THRESHOLD`` are then re-probed at this smaller step, which
    shrinks the kink window; a genuinely wrong gradient keeps its error at
    every step size, so bugs still fail.
    """
    rng = np.random.default_rng(seed)
    for t in tensors:
        t.zero_grad()
    K.backward(make_loss())
    worst = 0.0
    for t in tensors:
        flat = t.data.reshape(-1)
        gflat = np.zeros_like(flat) if t.grad is None else t.grad.reshape(-1)
        idx = rng.choice(flat.size, size=min(n_samples, flat.size), replace=False)
        for i in idx:
            keep = flat[i]

            def quotient(step):
                flat[i] = keep + step
                up = make_loss().item()
                flat[i] = keep - step
                down = make_loss().item()
                flat[i] = keep
                return (up - down) / (2.0 * step)

            analytic = float(gflat[i])

            def rel(numeric):
                return abs(analytic - numeric) / max(abs(analytic), abs(numeric), DENOM_FLOOR)

            err = rel(quotient(FD_STEP))
            if h_fallback is not None and err > FALLBACK_THRESHOLD:
                err = min(err, rel(quotient(h_fallback)))
            worst = max(worst, err)
    return worst


def project(out):
    """Fixed random projection of an output of any shape to a scalar loss."""
    w = np.random.default_rng(999).normal(size=(out.data.size, 1))
    return K.matmul(K.reshape(out, (1, out.data.size)), K.Tensor(w))


def _leaf(rng, *shape):
    return K.Tensor(rng.normal(size=shape), requires_grad=True)


# ---------------------------------------------------------------------------
# cases: rng -> (make_loss, leaves)

def _add(rng):
    a, b, row = _leaf(rng, 3, 4), _leaf(rng, 3, 4), _leaf(rng, 4)  # row broadcasts
    return (lambda: project(K.add(K.add(a, b), row))), [a, b, row]


def _mul(rng):
    a, b = _leaf(rng, 3, 4), _leaf(rng, 3, 4)
    return (lambda: project(K.mul(a, b))), [a, b]


def _scale(rng):
    # the add -> mul -> scale chain
    a, row = _leaf(rng, 3, 4), _leaf(rng, 4)
    return (lambda: project(K.scale(K.mul(K.add(a, row), a), -1.7))), [a, row]


def _matmul(rng):
    # batched by batched; 3-D and 4-D rows against a weight with a bias, and
    # against a transposed weight view
    a, b, w = _leaf(rng, 2, 3, 4), _leaf(rng, 2, 4, 5), _leaf(rng, 4, 5)
    c, e, bias = _leaf(rng, 2, 2, 3, 4), _leaf(rng, 6, 5), _leaf(rng, 5)

    def make_loss():
        batched = K.add(project(K.matmul(a, b)), project(K.matmul(a, w, bias)))
        return K.add(batched, project(K.matmul(K.matmul(c, w), K.transpose(e, (1, 0)))))

    return make_loss, [a, b, w, c, e, bias]


def _relu(rng):
    x = _leaf(rng, 4, 6)
    x.data += 0.1 * np.sign(x.data)  # keep pre-activations off the kink
    return (lambda: project(K.relu(x))), [x]


def _softmax(rng):
    # with an additive mask that broadcasts over rows, as a key-pad mask does
    x = _leaf(rng, 3, 7)
    mask = np.zeros((1, 7))
    mask[0, [2, 6]] = K.MASK_NEG
    return (lambda: K.add(project(K.softmax(x)), project(K.softmax(x, mask)))), [x]


def _layer_norm(rng):
    x, gain, bias = _leaf(rng, 4, 8), _leaf(rng, 8), _leaf(rng, 8)
    return (lambda: project(K.layer_norm(x, gain, bias))), [x, gain, bias]


def _attention(rng):
    q, k, v = _leaf(rng, 2, 5, 8), _leaf(rng, 2, 5, 8), _leaf(rng, 2, 5, 8)
    causal = np.zeros((5, 5))
    causal[np.triu_indices(5, k=1)] = K.MASK_NEG
    return (lambda: project(K.attention(q, k, v, mask=causal))), [q, k, v]


def _conv_patchify(rng):
    img = K.Tensor(rng.uniform(size=(2, 8, 8, 3)), requires_grad=True)
    kern = _leaf(rng, 48, 6)
    return (lambda: project(K.conv_patchify(img, kern, 4))), [img, kern]


def _embedding(rng):
    table = _leaf(rng, 9, 5)
    ids = rng.integers(0, 9, size=(2, 6))
    return (lambda: project(K.embedding(table, ids))), [table]


def _concat_transpose_reshape(rng):
    a, b = _leaf(rng, 2, 3, 4), _leaf(rng, 2, 2, 4)
    return (lambda: project(
        K.reshape(K.transpose(K.concat([a, b], axis=1), (0, 2, 1)), (2, 20)))), [a, b]


def _cross_entropy(rng):
    logits = _leaf(rng, 2, 4, 7)
    targets = rng.integers(0, 7, size=(2, 4))
    mask = np.ones((2, 4))
    mask[0, 3] = 0.0
    return (lambda: K.cross_entropy_masked(logits, targets, mask)), [logits]


def _padded(rng, lengths, width, vocab_size, eos=False):
    """Right-padded id rows and their 0/1 mask, laid out as ``make_batch``
    lays out a batch; with ``eos`` each row ends in the eos token."""
    ids = rng.integers(Vocab.unk_id + 1, vocab_size, size=(len(lengths), width))
    mask = np.arange(width) < np.asarray(lengths)[:, None]
    if eos:
        ids[np.arange(len(lengths)), np.asarray(lengths) - 1] = Vocab.eos_id
    return np.where(mask, ids, Vocab.pad_id), mask.astype(np.float64)


def _model_d8(rng):
    # a full encoder-decoder over a padded batch: every parameter is a leaf
    cfg = ModelConfig(vocab_size=24, d_model=8, n_heads=2, n_encoder_layers=2,
                      n_decoder_layers=2, d_ff=16, patch=4, image_size=8,
                      max_prompt=6, max_target=5)
    model = Model(cfg, seed=int(rng.integers(2**31)), dtype=np.float64)
    images = rng.uniform(size=(2, 8, 8, 3))
    prompts, prompt_mask = _padded(rng, (6, 3), 6, cfg.vocab_size)
    targets, loss_mask = _padded(rng, (5, 2), 5, cfg.vocab_size, eos=True)

    def make_loss():
        return model.forward(images, prompts, targets, prompt_mask=prompt_mask,
                             loss_mask=loss_mask)[1]

    return make_loss, model.parameters()


class Case(NamedTuple):
    build: Callable  # rng -> (make_loss, leaves)
    n_samples: int = 8
    h_fallback: float | None = None  # smaller step for elements near a relu kink


CASES = {
    "add": Case(_add),
    "mul": Case(_mul),
    "scale": Case(_scale),
    "matmul": Case(_matmul),
    "relu": Case(_relu),
    "softmax": Case(_softmax),
    "layer_norm": Case(_layer_norm),
    "attention": Case(_attention),
    "conv_patchify": Case(_conv_patchify),
    "embedding": Case(_embedding),
    "concat_transpose_reshape": Case(_concat_transpose_reshape),
    "cross_entropy": Case(_cross_entropy),
    "model_d8": Case(_model_d8, n_samples=4, h_fallback=1e-7),
}


def check_case(name, seed):
    """Worst relative error of case ``name`` on one seed."""
    case = CASES[name]
    make_loss, leaves = case.build(np.random.default_rng(seed))
    return finite_difference_check(make_loss, leaves, n_samples=case.n_samples, seed=seed,
                                   h_fallback=case.h_fallback)


def gradcheck_suite(seeds=SEEDS):
    """{case: worst relative error over ``seeds``}, in table order."""
    return {name: max(check_case(name, seed) for seed in seeds) for name in CASES}
