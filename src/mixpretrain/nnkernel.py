"""Dense-tensor engine with reverse-mode differentiation and Adam.

A dynamic tape over numpy arrays, micrograd-style: every op records its
parents and a closure that pushes gradients back to them.  Training runs in
float32; gradient checks run the same graph in float64 (ops inherit the dtype
of their inputs).  Single-threaded per tape; no in-place mutation of produced
values outside the optimizer.  ``backward`` leaves gradients on the leaves
only: an inner node's gradient is freed once pushed to its parents.

numpy reduces a short last axis row by row, so the row sums of ``softmax``,
``cross_entropy_masked`` and ``layer_norm``'s backward pass, and the bias and
position-table gradients in ``_unbroadcast``, run as one BLAS GEMV against a
ones vector instead.  They add up in another order than ``ndarray.sum``.
``layer_norm``'s forward statistics keep numpy's own pairwise sum, bit for bit.

``adam_step`` keeps parameters, moments and gradients in one flat buffer each.
From the first step on, every ``Parameter.data`` and ``AdamState.m``/``v``
entry it updates is a view into those buffers; a binding that is replaced
(``restore_model`` builds fresh arrays) is copied into new buffers on the
next step.  The update runs block by block (``ADAM_BLOCK`` elements), each
block through the same ufunc sequence, so the result does not depend on the
blocking.
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
    # built field by field: Tensor() would pass ``data`` through np.asarray
    out = Tensor.__new__(Tensor)
    out.data = data if type(data) is np.ndarray else np.asarray(data)
    out.grad = None
    out.requires_grad = False
    out._parents = ()
    out._backward = None
    if _grad_enabled:
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = parents
                out._backward = backward
                break
    return out


def _unbroadcast(g, shape):
    """Sum gradient ``g`` down to ``shape`` (inverse of numpy broadcasting).

    When the summed axes lead (a bias ``(d,)``, a position table
    ``(1, T, d)``), the sum is one GEMV of a ones vector against ``g``."""
    if g.shape == shape:
        return g
    full = (1,) * (g.ndim - len(shape)) + tuple(shape)
    k = g.ndim
    while k and full[k - 1] == g.shape[k - 1]:
        k -= 1
    if g.size and all(s == 1 for s in full[:k]):
        rows = g.reshape(-1, math.prod(g.shape[k:]))
        return (_ones(rows.shape[0], g.dtype) @ rows).reshape(shape)
    axes = tuple(i for i, s in enumerate(full) if s == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True).reshape(shape)


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


def matmul(a, b, bias=None):
    """``a @ b``, plus ``bias`` over the last axis when given.  With a 2-D
    ``b`` (a weight), the leading axes of ``a`` are flattened into rows, so
    the forward pass and both gradients are single 2-D GEMMs; the weight
    gradient needs no batched product summed away.  The bias is added in
    place on the GEMM output and its gradient is one GEMV over the rows of
    the output gradient, bit for bit ``add(matmul(a, b), bias)``."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: {a.data.shape} @ {b.data.shape}")
    if b.data.ndim == 2:
        d, e = b.data.shape
        if bias is not None:
            bias = _as_tensor(bias)
            if bias.data.shape != (e,):
                raise ShapeError(f"matmul: bias {bias.data.shape} for {b.data.shape} weight")
        a2 = a.data.reshape(-1, d)
        out2 = a2 @ b.data
        if bias is not None:
            out2 += bias.data
        out_data = out2.reshape(a.data.shape[:-1] + (e,))

        def backward(g):
            g2 = g.reshape(-1, e)
            if a.requires_grad:
                _accum(a, (g2 @ b.data.T).reshape(a.data.shape))
            if b.requires_grad:
                _accum(b, a2.T @ g2)
            if bias is not None and bias.requires_grad:
                _accum(bias, _ones(g2.shape[0], g2.dtype) @ g2)

        return _make(out_data, (a, b) if bias is None else (a, b, bias), backward)
    if bias is not None:
        raise ShapeError(f"matmul: a bias needs a 2-D weight, got {b.data.shape}")

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
    """Row lookup.  ``ids`` is a plain integer array; gradients scatter-add.

    Strictly increasing ids (positions, type rows) take their gradient rows
    in one write.  Repeated ids are scatter-added element by element into
    the flattened table, which numpy runs in its fast 1-D indexed loop; a
    row-wise ``np.add.at`` is about twice as slow, and so are a bincount or
    a sort-and-``reduceat`` segment sum at these sizes."""
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu":
        raise ShapeError("embedding ids must be integers")
    out_data = table.data[ids]

    def backward(g):
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            flat = ids.reshape(-1).astype(np.intp, copy=False)  # no wrap in small dtypes
            d = math.prod(gt.shape[1:])
            if flat.size < 2 or (flat[0] >= 0 and (flat[1:] > flat[:-1]).all()):
                gt[flat] = g.reshape((flat.size,) + gt.shape[1:])
            else:
                cells = (flat[:, None] * d + np.arange(d)).reshape(-1)
                np.add.at(gt.reshape(-1), cells, g.reshape(-1))
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
    out_data = x.data.transpose(axes)
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))

    def backward(g):
        _accum(x, g.transpose(inverse))

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


_ONES = {}


def _ones(n, dtype):
    """A cached read-only vector of ``n`` ones."""
    key = (n, dtype)
    ones = _ONES.get(key)
    if ones is None:
        ones = _ONES[key] = np.ones(n, dtype)
        ones.flags.writeable = False
    return ones


def _row_sum(x):
    """``x.sum(-1, keepdims=True)`` as one GEMV against a ones vector.  numpy
    reduces a short last axis row by row; BLAS takes all rows in one call.
    The sum runs in another order, so results differ in the last bits."""
    d = x.shape[-1]
    return (x.reshape(-1, d) @ _ones(d, x.dtype)).reshape(x.shape[:-1] + (1,))


def softmax(x, mask=None):
    """Softmax over the last axis of ``x + mask``.

    ``mask`` is a plain additive array (such as {0, MASK_NEG}) that
    broadcasts to ``x``'s shape; it is added into the softmax's own buffer,
    bit for bit ``softmax(add(x, Tensor(mask)))`` with one array fewer."""
    x = _as_tensor(x)
    if mask is None:
        out_data = x.data - _row_max(x.data)
    else:
        out_data = x.data + np.asarray(mask, dtype=x.data.dtype)
        if out_data.shape != x.data.shape:
            raise ShapeError(f"softmax: mask broadcasts {x.data.shape} to {out_data.shape}")
        out_data -= _row_max(out_data)
    np.exp(out_data, out=out_data)
    out_data /= _row_sum(out_data)

    def backward(g):
        # dL/dx = y * (g - sum(g*y))
        gx = g * out_data
        inner = _row_sum(gx)
        np.subtract(g, inner, out=gx)
        gx *= out_data
        _accum(x, gx)

    return _make(out_data, (x,), backward)


LN_EPS = 1e-6


def layer_norm(x, gain, bias, eps=LN_EPS):
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    n = x.data.shape[-1]
    # the statistics are numpy's mean and var bit for bit: the same pairwise
    # add.reduce, without ndarray.mean's Python wrapper
    mean = np.add.reduce(x.data, axis=-1, keepdims=True)
    mean /= n
    xhat = x.data - mean
    out_data = xhat * xhat
    inv = np.add.reduce(out_data, axis=-1, keepdims=True)
    inv /= n
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(xhat, gain.data, out=out_data)
    out_data += bias.data

    def backward(g):
        if x.requires_grad:
            gx = g * gain.data
            proj = gx * xhat
            # d xhat / dx folded analytically:
            # inv / n * (n * gx - sum(gx) - xhat * sum(gx * xhat))
            np.multiply(xhat, _row_sum(proj), out=proj)
            sums = _row_sum(gx)
            gx *= n
            gx -= sums
            gx -= proj
            gx *= inv / n
            _accum(x, gx)
        if gain.requires_grad:
            _accum(gain, _unbroadcast(g * xhat, gain.data.shape))
        if bias.requires_grad:
            _accum(bias, _unbroadcast(g, bias.data.shape))

    return _make(out_data, (x, gain, bias), backward)


MASK_NEG = -1e9


def attention(q, k, v, mask=None):
    """softmax((q / √d) kᵀ + mask) · v.

    Composite of taped primitives, so the backward pass needs no extra code.
    The queries are scaled rather than the scores: the array is smaller, and
    where 1/√d is a power of two (head dim 4, 16, 64, ...) every value and
    gradient equals the scale-on-scores form bit for bit.  ``mask`` is a
    plain array of {0, MASK_NEG}, added inside ``softmax``; MASK_NEG
    underflows to exactly zero attention weight, which is what makes causal
    masking airtight.
    """
    if q.data.shape[-1] != k.data.shape[-1]:
        raise ShapeError(f"attention head dims: q {q.data.shape} vs k {k.data.shape}")
    if k.data.shape[-2] != v.data.shape[-2]:
        raise ShapeError(f"attention lengths: k {k.data.shape} vs v {v.data.shape}")
    d = q.data.shape[-1]
    scores = matmul(scale(q, 1.0 / math.sqrt(d)), _swap_last(k))
    return matmul(softmax(scores, mask), v)


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

    logp = logits.data - _row_max(logits.data)
    logp -= np.log(_row_sum(np.exp(logp)))
    rows = np.arange(targets.size)
    cols = targets.reshape(-1)
    picked = logp.reshape(-1, logp.shape[-1])[rows, cols].reshape(targets.shape)
    out_data = -(picked * loss_mask).sum() / denom

    def backward(g):
        # g * (softmax - onehot(targets)) * mask / denom
        grad = np.exp(logp)
        grad.reshape(-1, grad.shape[-1])[rows, cols] -= 1.0
        grad *= g
        grad *= loss_mask[..., None] / denom
        _accum(logits, grad)

    return _make(np.asarray(out_data), (logits,), backward)


# ---------------------------------------------------------------------------
# backward pass

def backward(loss):
    """Reverse-mode sweep from a scalar loss.

    Each call propagates exactly one unit of output gradient into the leaves
    (tensors without a backward closure: parameters and inputs).  An inner
    node's gradient is dropped once it has been pushed to the node's parents,
    so the sweep frees gradients as it goes.  Grads already sitting on
    tensors are kept aside during the sweep and re-added after, so repeated
    backward accumulates instead of double-counting stale values.
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
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node._parents:
            # a parent that needs no gradient receives none
            if p.requires_grad and p not in seen:
                stack.append((p, False))

    stash = [(node, node.grad) for node in order if node.grad is not None]
    for node, _ in stash:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = None
    for node, old in stash:
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


# Elements per block of the Adam update: the update's ufuncs run block by
# block, so that the buffers they stream through stay in cache.
ADAM_BLOCK = 1 << 14


class _FlatAdam:
    """Parameters, moments and gradients of one fixed parameter list, each in
    one flat buffer, plus two block-sized scratch buffers for the update.

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
        scratch = np.empty((2, min(n, ADAM_BLOCK)), dtype)
        self.blocks = []  # (g, m, v, w, s1, s2) views of each block
        for lo in range(0, n, ADAM_BLOCK):
            hi = min(lo + ADAM_BLOCK, n)
            self.blocks.append((self.g[lo:hi], self.m[lo:hi], self.v[lo:hi], self.w[lo:hi],
                                scratch[0, :hi - lo], scratch[1, :hi - lo]))
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
    """Bias-corrected adaptive-moment update over named parameters.  Returns
    the global L2 norm of the gradients it applied (0.0 when none).

    Parameters whose grad is None are skipped.  The others are updated
    together in flat buffers (see ``_FlatAdam``), block by block; a
    non-finite gradient raises before anything is changed.
    """
    live = [p for p in params if p.grad is not None]
    if not live:
        state.step += 1
        return 0.0
    flat = state.flat
    fresh = flat is None or not flat.bound(live, state)
    if fresh:
        flat = state.flat = _FlatAdam(live, state)
    g = flat.g
    np.concatenate([p.grad.reshape(-1) for p in live], out=g)
    # a NaN or inf anywhere makes the dot non-finite; so can finite
    # gradients whose squares overflow, and the exact scan tells them apart
    with np.errstate(over="ignore"):
        sq = float(np.dot(g, g))
    if not math.isfinite(sq):
        finite = np.isfinite(g)
        bad = next((p for p, (lo, hi) in zip(live, flat.spans) if not finite[lo:hi].all()), None)
        if bad is not None:
            raise OptimizerError(f"non-finite gradient in {bad.name}")
        g64 = g.astype(np.float64)
        sq = float(np.dot(g64, g64))
    if fresh:
        flat.bind(state)
    state.step += 1
    t = state.step
    c1, c2 = 1.0 - state.beta1**t, 1.0 - state.beta2**t
    for g, m, v, w, s1, s2 in flat.blocks:
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
        np.divide(m, c1, out=s1)
        s1 *= state.lr
        np.divide(v, c2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += state.eps
        s1 /= s2
        w -= s1
    return math.sqrt(sq)

