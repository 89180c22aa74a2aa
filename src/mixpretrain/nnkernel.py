"""Dense-tensor engine with reverse-mode differentiation and Adam.

A dynamic tape over numpy arrays, micrograd-style: every op records its
parents and a closure that pushes gradients back to them.  Training runs in
float32; gradient checks run the same graph in float64 (ops inherit the dtype
of their inputs).  Single-threaded per tape; no in-place mutation of produced
values outside the optimizer.

``adam_step`` keeps parameters, moments and gradients in one flat buffer each.
From the first step on, every ``Parameter.data`` and ``AdamState.m``/``v``
entry it updates is a view into those buffers; a binding that is replaced
(``restore_model`` builds fresh arrays) is copied into new buffers on the
next step.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np


class ShapeError(ValueError):
    pass


class OptimizerError(ValueError):
    pass


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        self.requires_grad = requires_grad and _grad_enabled
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return self.data.item()

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"

    # operator sugar; canonical entry points are the module-level functions
    def __add__(self, other):
        return add(self, other)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def _accum(t, g):
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def _make(data, parents, backward):
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g, shape):
    """Sum gradient ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# primitive ops

def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), backward)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), backward)


def scale(x, c):
    x = _as_tensor(x)
    c = x.data.dtype.type(c)
    out_data = x.data * c

    def backward(g):
        _accum(x, g * c)

    return _make(out_data, (x,), backward)


def matmul(a, b):
    """``a @ b``.  With a 2-D ``b`` (a weight), the leading axes of ``a`` are
    flattened into rows, so the forward pass and both gradients are single
    2-D GEMMs; the weight gradient needs no batched product summed away."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: {a.data.shape} @ {b.data.shape}")
    if b.data.ndim == 2:
        d, e = b.data.shape
        a2 = a.data.reshape(-1, d)
        out_data = (a2 @ b.data).reshape(a.data.shape[:-1] + (e,))

        def backward(g):
            g2 = g.reshape(-1, e)
            if a.requires_grad:
                _accum(a, (g2 @ b.data.T).reshape(a.data.shape))
            if b.requires_grad:
                _accum(b, a2.T @ g2)

        return _make(out_data, (a, b), backward)

    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _make(out_data, (a, b), backward)


def relu(x):
    x = _as_tensor(x)
    out_data = np.maximum(x.data, 0)

    def backward(g):
        _accum(x, g * (x.data > 0))

    return _make(out_data, (x,), backward)


def embedding(table, ids):
    """Row lookup.  ``ids`` is a plain integer array; gradients scatter-add."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ShapeError("embedding ids must be integers")
    out_data = table.data[ids]

    def backward(g):
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            np.add.at(gt, ids, g)
            _accum(table, gt)

    return _make(out_data, (table,), backward)


def reshape(x, shape):
    x = _as_tensor(x)
    out_data = x.data.reshape(shape)

    def backward(g):
        _accum(x, g.reshape(x.data.shape))

    return _make(out_data, (x,), backward)


def transpose(x, axes):
    x = _as_tensor(x)
    out_data = np.transpose(x.data, axes)
    inverse = np.argsort(axes)

    def backward(g):
        _accum(x, np.transpose(g, inverse))

    return _make(out_data, (x,), backward)


def concat(tensors, axis):
    tensors = [_as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accum(t, piece)

    return _make(out_data, tuple(tensors), backward)


def _row_max(x):
    """``x.max(-1, keepdims=True)``, bitwise: one elementwise maximum over the
    rows of a transposed contiguous copy, which numpy runs several times
    faster than its row-by-row reduction of a short last axis."""
    return np.maximum.reduce(np.ascontiguousarray(np.moveaxis(x, -1, 0)), axis=0)[..., None]


def softmax(x):
    """Softmax over the last axis."""
    x = _as_tensor(x)
    shifted = x.data - _row_max(x.data)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        # dL/dx = y * (g - sum(g*y))
        inner = (g * out_data).sum(axis=-1, keepdims=True)
        _accum(x, out_data * (g - inner))

    return _make(out_data, (x,), backward)


LN_EPS = 1e-6


def layer_norm(x, gain, bias, eps=LN_EPS):
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    centred = x.data - x.data.mean(axis=-1, keepdims=True)
    var = (centred * centred).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centred * inv
    out_data = xhat * gain.data + bias.data

    def backward(g):
        if x.requires_grad:
            n = x.data.shape[-1]
            gx_hat = g * gain.data
            # d xhat / dx folded analytically
            _accum(x, inv / n * (n * gx_hat - gx_hat.sum(-1, keepdims=True)
                                 - xhat * (gx_hat * xhat).sum(-1, keepdims=True)))
        if gain.requires_grad:
            _accum(gain, _unbroadcast(g * xhat, gain.data.shape))
        if bias.requires_grad:
            _accum(bias, _unbroadcast(g, bias.data.shape))

    return _make(out_data, (x, gain, bias), backward)


MASK_NEG = -1e9


def attention(q, k, v, mask=None):
    """softmax(q kᵀ / √d + mask) · v.

    Composite of taped primitives, so the backward pass needs no extra code.
    ``mask`` is a plain array of {0, MASK_NEG}; MASK_NEG underflows to exactly
    zero attention weight, which is what makes causal masking airtight.
    """
    if q.data.shape[-1] != k.data.shape[-1]:
        raise ShapeError(f"attention head dims: q {q.data.shape} vs k {k.data.shape}")
    if k.data.shape[-2] != v.data.shape[-2]:
        raise ShapeError(f"attention lengths: k {k.data.shape} vs v {v.data.shape}")
    d = q.data.shape[-1]
    scores = scale(matmul(q, _swap_last(k)), 1.0 / math.sqrt(d))
    if mask is not None:
        scores = add(scores, Tensor(np.asarray(mask, dtype=q.data.dtype)))
    return matmul(softmax(scores), v)


def _swap_last(t):
    axes = list(range(t.data.ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return transpose(t, tuple(axes))


def conv_patchify(image, kernel, patch):
    """Non-overlapping patch embedding via reshape + matmul.

    ``image`` (B,H,W,C), ``kernel`` (patch*patch*C, d).  Equivalent to a conv
    with kernel size = stride = patch; implemented as unfold-then-linear so the
    tape primitives carry the backward pass.
    """
    B, H, W, C = image.data.shape
    if H % patch or W % patch:
        raise ShapeError(f"image {H}x{W} not divisible by patch {patch}")
    if kernel.data.shape[0] != patch * patch * C:
        raise ShapeError(f"kernel rows {kernel.data.shape[0]} != patch*patch*C {patch * patch * C}")
    gh, gw = H // patch, W // patch
    x = reshape(image, (B, gh, patch, gw, patch, C))
    x = transpose(x, (0, 1, 3, 2, 4, 5))
    x = reshape(x, (B, gh * gw, patch * patch * C))
    return matmul(x, kernel)


def cross_entropy_masked(logits, targets, loss_mask):
    """Mean NLL over mask=1 positions; fused softmax backward.

    ``logits`` (..., V) taped; ``targets`` and ``loss_mask`` plain arrays of
    the leading shape.
    """
    targets = np.asarray(targets)
    loss_mask = np.asarray(loss_mask, dtype=logits.data.dtype)
    if targets.shape != logits.data.shape[:-1] or loss_mask.shape != targets.shape:
        raise ShapeError(
            f"cross_entropy: logits {logits.data.shape}, targets {targets.shape}, mask {loss_mask.shape}"
        )
    denom = loss_mask.sum()
    if denom == 0:
        raise ValueError("cross_entropy_masked: loss mask is all zero")

    z = logits.data - _row_max(logits.data)
    logsumexp = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    logp = z - logsumexp
    picked = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    out_data = -(picked * loss_mask).sum() / denom

    def backward(g):
        soft = np.exp(logp)
        onehot = np.zeros_like(soft)
        np.put_along_axis(onehot, targets[..., None], 1.0, axis=-1)
        _accum(logits, g * (soft - onehot) * (loss_mask[..., None] / denom))

    return _make(np.asarray(out_data), (logits,), backward)


# ---------------------------------------------------------------------------
# backward pass

def backward(loss):
    """Reverse-mode sweep from a scalar loss.

    Each call propagates exactly one unit of output gradient; grads already
    sitting on tensors are kept aside during the sweep and re-added after, so
    repeated backward accumulates instead of double-counting stale values.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar, got shape {loss.data.shape}")
    order = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    stash = [(node, node.grad) for node in order]
    for node, _ in stash:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
    for node, old in stash:
        if old is not None:
            node.grad = old if node.grad is None else node.grad + old


# ---------------------------------------------------------------------------
# parameters and optimizer

class Parameter(Tensor):
    """A named leaf tensor that requires a gradient."""

    __slots__ = ("name",)

    def __init__(self, name, data):
        super().__init__(data, requires_grad=True)
        self.name = name


@dataclass
class AdamState:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    flat: "_FlatAdam | None" = field(default=None, repr=False, compare=False)


class _FlatAdam:
    """Parameters, moments and gradients of one fixed parameter list, each in
    one flat buffer, plus two scratch buffers for the update.

    Built from copies of the current arrays; ``bind`` then makes every
    ``p.data`` and moment a view into the buffers, so one in-place update
    moves them all."""

    def __init__(self, params, state):
        dtype = params[0].data.dtype
        if any(p.data.dtype != dtype for p in params):
            raise OptimizerError("adam_step: parameters of mixed dtypes")
        self.params = params
        sizes = [p.data.size for p in params]
        ends = np.cumsum(sizes).tolist()
        self.spans = list(zip([0] + ends[:-1], ends))
        n = ends[-1]

        def gather(arrays):
            return np.concatenate([np.asarray(a, dtype=dtype).reshape(-1) for a in arrays])

        self.w = gather(p.data for p in params)
        self.m = gather(state.m.get(p.name, np.zeros(p.data.size, dtype)) for p in params)
        self.v = gather(state.v.get(p.name, np.zeros(p.data.size, dtype)) for p in params)
        self.g = np.empty(n, dtype)
        self.s1 = np.empty(n, dtype)
        self.s2 = np.empty(n, dtype)
        self.finite = np.empty(n, bool)
        self.views = [tuple(buf[lo:hi].reshape(p.data.shape) for buf in (self.w, self.m, self.v))
                      for p, (lo, hi) in zip(params, self.spans)]

    def bound(self, params, state):
        """True when ``params`` is this list and each binding is still its view."""
        return len(params) == len(self.params) and all(
            p is q and p.data is w and state.m.get(p.name) is m and state.v.get(p.name) is v
            for p, q, (w, m, v) in zip(params, self.params, self.views))

    def bind(self, state):
        for p, (w, m, v) in zip(self.params, self.views):
            p.data, state.m[p.name], state.v[p.name] = w, m, v


def adam_step(params, state):
    """Bias-corrected adaptive-moment update over named parameters.

    Parameters whose grad is None are skipped.  The others are updated
    together in flat buffers (see ``_FlatAdam``); a non-finite gradient
    raises before anything is changed.
    """
    live = [p for p in params if p.grad is not None]
    if not live:
        state.step += 1
        return
    flat = state.flat
    fresh = flat is None or not flat.bound(live, state)
    if fresh:
        flat = state.flat = _FlatAdam(live, state)
    g, m, v, s1, s2 = flat.g, flat.m, flat.v, flat.s1, flat.s2
    np.concatenate([p.grad.reshape(-1) for p in live], out=g)
    if not np.isfinite(g, out=flat.finite).all():
        bad = next(p for p, (lo, hi) in zip(live, flat.spans) if not flat.finite[lo:hi].all())
        raise OptimizerError(f"non-finite gradient in {bad.name}")
    if fresh:
        flat.bind(state)
    state.step += 1
    t = state.step
    # m += (1 - beta1) * (g - m)
    np.subtract(g, m, out=s1)
    s1 *= 1.0 - state.beta1
    m += s1
    # v += (1 - beta2) * (g * g - v)
    np.multiply(g, g, out=s1)
    s1 -= v
    s1 *= 1.0 - state.beta2
    v += s1
    # w -= lr * mhat / (sqrt(vhat) + eps)
    np.divide(m, 1.0 - state.beta1**t, out=s1)
    s1 *= state.lr
    np.divide(v, 1.0 - state.beta2**t, out=s2)
    np.sqrt(s2, out=s2)
    s2 += state.eps
    s1 /= s2
    flat.w -= s1

