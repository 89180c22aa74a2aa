"""Tape ops, hand-computed oracles, finite-difference gradient checks, Adam."""

import ctypes
import glob
import math
import os

import numpy as np
import pytest

from mixpretrain import nnkernel as K
from mixpretrain.gradcheck import CASES, SEEDS, TOLERANCE, check_case, project
from mixpretrain.nnkernel import (
    AdamState,
    OptimizerError,
    Parameter,
    ShapeError,
    Tensor,
    adam_step,
    add,
    attention,
    backward,
    concat,
    conv_patchify,
    cross_entropy_masked,
    embedding,
    layer_norm,
    matmul,
    mul,
    no_grad,
    relu,
    reshape,
    scale,
    softmax,
    transpose,
)


def t64(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


# ---------------------------------------------------------------------------
# forward oracles

def test_matmul_hand_example():
    out = matmul(t64([[1, 2], [3, 4]]), t64([[5, 6], [7, 8]]))
    assert np.array_equal(out.data, [[19, 22], [43, 50]])


def test_matmul_identity():
    a = np.random.default_rng(0).normal(size=(4, 4))
    out = matmul(t64(np.eye(4)), t64(a))
    assert np.allclose(out.data, a)


def test_matmul_shape_error():
    with pytest.raises(ShapeError, match=r"\(2, 3\)"):
        matmul(t64(np.zeros((2, 3))), t64(np.zeros((4, 2))))


def test_softmax_symmetry_and_stability():
    assert np.allclose(softmax(t64([0.0, 0.0])).data, [0.5, 0.5])
    out = softmax(t64([1000.0, 0.0])).data
    assert np.all(np.isfinite(out))
    assert abs(out[0] - 1.0) < 1e-6 and abs(out[1]) < 1e-6


def test_softmax_shift_invariance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 7))
    a = softmax(t64(x)).data
    b = softmax(t64(x + 13.7)).data
    assert np.allclose(a, b, atol=1e-6)
    assert np.allclose(a.sum(-1), 1.0, atol=1e-6)


def test_row_max_equals_max_over_last_axis():
    x = np.random.default_rng(5).normal(size=(3, 4, 6))
    x[0, 0, 2] = K.MASK_NEG
    x[0, 1] = K.MASK_NEG
    x[1, 2, 3] = -np.inf
    x[1, 3] = -np.inf
    x[2, 0, 5] = np.nan
    for arr in (x, x.astype(np.float32), x[:, :, ::-1], x[1, 2], x[2, 0]):
        expect = arr.max(-1, keepdims=True)
        got = K._row_max(arr)
        assert got.dtype == expect.dtype and got.shape == expect.shape
        assert np.array_equal(got, expect, equal_nan=True)


def _sum_to(g, shape):
    """numpy's own reduction of ``g`` to a broadcast ``shape``."""
    lead = g.ndim - len(shape)
    full = (1,) * lead + tuple(shape)
    axes = tuple(i for i, n in enumerate(full) if n == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True).reshape(shape)


def test_row_sum_matches_numpy_on_noncontiguous_input():
    x = np.random.default_rng(15).normal(size=(5, 6, 7))
    for arr in (x, x[:, ::2], x.transpose(1, 0, 2), x[..., ::-1], x[2, 3]):
        expect = arr.sum(-1, keepdims=True)
        got = K._row_sum(arr)
        assert got.shape == expect.shape and got.dtype == expect.dtype
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", [(7,), (1, 5, 7), (1, 1, 7), (4, 5, 7), (4, 1, 7), (1, 1, 1), ()])
def test_unbroadcast_matches_numpy_sum(shape):
    # leading-axis targets take the GEMV, the others numpy's sum; both on a
    # non-contiguous gradient
    g = np.random.default_rng(16).normal(size=(5, 4, 7)).transpose(1, 0, 2)
    got = K._unbroadcast(g, shape)
    assert got.shape == shape
    np.testing.assert_allclose(got, _sum_to(g, shape), rtol=0, atol=1e-12)


def test_layer_norm_hand_example():
    out = layer_norm(t64([[1.0, 3.0]]), t64([1.0, 1.0]), t64([0.0, 0.0]))
    assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-5)


def test_layer_norm_constant_row():
    out = layer_norm(t64([[4.0, 4.0, 4.0]]), t64(np.ones(3)), t64(np.zeros(3)))
    assert np.allclose(out.data, 0.0, atol=1e-5)


def test_layer_norm_mean_is_bias():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5, 8))
    out = layer_norm(t64(x), t64(np.full(8, 2.0)), t64(np.full(8, 0.7)))
    assert np.allclose(out.data.mean(-1), 0.7, atol=1e-5)


def test_attention_single_position():
    v = np.array([[[3.0, -1.0, 2.0]]])
    out = attention(t64(np.ones((1, 1, 4))), t64(np.ones((1, 1, 4))), t64(v))
    assert np.allclose(out.data, v)


def test_attention_uniform_scores_average():
    rng = np.random.default_rng(3)
    v = rng.normal(size=(1, 5, 6))
    out = attention(t64(np.zeros((1, 5, 4))), t64(np.zeros((1, 5, 4))), t64(v))
    assert np.allclose(out.data, v.mean(axis=1, keepdims=True), atol=1e-6)


def _causal_mask(n, dtype=np.float64):
    m = np.zeros((n, n), dtype=dtype)
    m[np.triu_indices(n, k=1)] = K.MASK_NEG
    return m


def test_attention_causal_mask_exact():
    rng = np.random.default_rng(4)
    q = rng.normal(size=(1, 6, 8))
    k = rng.normal(size=(1, 6, 8))
    v = rng.normal(size=(1, 6, 8))
    base = attention(t64(q), t64(k), t64(v), mask=_causal_mask(6)).data.copy()
    k2, v2 = k.copy(), v.copy()
    k2[0, 4:] += 100.0
    v2[0, 4:] -= 50.0
    pert = attention(t64(q), t64(k2), t64(v2), mask=_causal_mask(6)).data
    # positions 0..3 attend only to 0..3: exact equality, not approximate
    assert np.array_equal(base[0, :4], pert[0, :4])


def test_attention_shape_errors():
    with pytest.raises(ShapeError):
        attention(t64(np.zeros((1, 2, 4))), t64(np.zeros((1, 2, 5))), t64(np.zeros((1, 2, 5))))
    with pytest.raises(ShapeError):
        attention(t64(np.zeros((1, 2, 4))), t64(np.zeros((1, 3, 4))), t64(np.zeros((1, 2, 4))))


def test_conv_patchify_token_count():
    img = t64(np.random.default_rng(5).normal(size=(1, 8, 8, 3)))
    kern = t64(np.random.default_rng(6).normal(size=(4 * 4 * 3, 7)))
    out = conv_patchify(img, kern, 4)
    assert out.data.shape == (1, 4, 7)


def test_conv_patchify_matches_loop_oracle():
    # independent per-patch unfold: slice, flatten row-major, dot
    rng = np.random.default_rng(7)
    img = rng.normal(size=(2, 8, 12, 3))
    kern = rng.normal(size=(4 * 4 * 3, 5))
    out = conv_patchify(t64(img), t64(kern), 4).data
    for b in range(2):
        n = 0
        for gy in range(2):
            for gx in range(3):
                patch = img[b, gy * 4 : gy * 4 + 4, gx * 4 : gx * 4 + 4, :].reshape(-1)
                assert np.allclose(out[b, n], patch @ kern, atol=1e-5)
                n += 1


def test_conv_patchify_divisibility():
    with pytest.raises(ShapeError, match="divisible"):
        conv_patchify(t64(np.zeros((1, 7, 8, 3))), t64(np.zeros((48, 4))), 4)


def test_cross_entropy_analytic_values():
    V = 11
    logits = t64(np.zeros((2, 3, V)))
    targets = np.zeros((2, 3), dtype=np.int64)
    mask = np.ones((2, 3))
    loss = cross_entropy_masked(logits, targets, mask)
    assert abs(loss.item() - math.log(V)) < 1e-6

    big = np.full((1, 1, V), -100.0)
    big[0, 0, 4] = 100.0
    loss2 = cross_entropy_masked(t64(big), np.array([[4]]), np.ones((1, 1)))
    assert loss2.item() < 1e-6


def test_cross_entropy_masked_positions_inert():
    rng = np.random.default_rng(8)
    logits = rng.normal(size=(2, 4, 9))
    targets = rng.integers(0, 9, size=(2, 4))
    mask = np.array([[1, 1, 0, 0], [1, 0, 0, 0]], dtype=np.float64)
    base = cross_entropy_masked(t64(logits), targets, mask).item()
    pert = logits.copy()
    pert[:, 2:, :] += 1000.0
    assert cross_entropy_masked(t64(pert), targets, mask).item() == base


def test_cross_entropy_all_zero_mask():
    with pytest.raises(ValueError, match="mask"):
        cross_entropy_masked(t64(np.zeros((1, 2, 5))), np.zeros((1, 2), dtype=int), np.zeros((1, 2)))


def test_stability_large_magnitudes():
    x = t64(np.array([[1e4, -1e4, 0.0]]))
    assert np.all(np.isfinite(softmax(x).data))
    loss = cross_entropy_masked(t64(np.array([[[1e4, -1e4, 0.0]]])), np.array([[2]]), np.ones((1, 1)))
    assert np.isfinite(loss.item())
    backward(loss)


# ---------------------------------------------------------------------------
# backward mechanics

def test_scalar_product_rule():
    x, y = t64(3.0), t64(4.0)
    backward(mul(x, y))
    assert x.grad == 4.0 and y.grad == 3.0


def test_backward_requires_scalar():
    with pytest.raises(ValueError, match="scalar"):
        backward(mul(t64([1.0, 2.0]), t64([3.0, 4.0])))


def test_repeated_backward_accumulates():
    x = t64(2.0)
    loss = scale(x, 5.0)
    backward(loss)
    assert x.grad == 5.0
    x2 = t64(2.0)
    l2 = scale(x2, 5.0)
    backward(l2)
    backward(l2)
    assert x2.grad == 10.0


def test_backward_keeps_gradients_on_leaves_only():
    x = t64(np.ones(3))
    h = scale(x, 2.0)
    loss = matmul(reshape(h, (1, 3)), Tensor(np.ones((3, 1))))
    backward(loss)
    assert h.grad is None and loss.grad is None
    np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])
    backward(loss)  # the tape is intact: a second sweep accumulates
    np.testing.assert_array_equal(x.grad, [4.0, 4.0, 4.0])


def test_diamond_graph_accumulation():
    # y = x*x + x: dy/dx = 2x + 1
    x = t64(3.0)
    y = mul(x, x) + x
    backward(y)
    assert abs(float(x.grad) - 7.0) < 1e-12


def test_zero_masked_targets_get_zero_grad():
    rng = np.random.default_rng(9)
    logits = t64(rng.normal(size=(1, 3, 6)))
    targets = np.array([[1, 2, 3]])
    mask = np.array([[1.0, 0.0, 1.0]])
    backward(cross_entropy_masked(logits, targets, mask))
    assert np.all(logits.grad[0, 1] == 0.0)
    assert np.any(logits.grad[0, 0] != 0.0)


def test_no_grad_suppresses_tape():
    with no_grad():
        x = Tensor(np.ones(3), requires_grad=True)
        y = mul(x, x)
    assert not x.requires_grad and not y.requires_grad
    assert y._backward is None


def test_broadcast_add_gradient():
    a = t64(np.ones((3, 4)))
    b = t64(np.ones(4))
    out = a + b
    backward(cross_entropy_masked(reshape(out, (1, 3, 4)), np.zeros((1, 3), int), np.ones((1, 3))))
    assert b.grad.shape == (4,)
    assert a.grad.shape == (3, 4)


def test_embedding_scatter_add():
    table = t64(np.zeros((5, 2)))
    ids = np.array([1, 1, 3])
    out = embedding(table, ids)
    backward(matmul(reshape(out, (1, 6)), Tensor(np.ones((6, 1)))))
    assert np.allclose(table.grad[1], [2.0, 2.0])  # two lookups accumulate
    assert np.allclose(table.grad[3], [1.0, 1.0])
    assert np.allclose(table.grad[0], 0.0)


def test_matmul_weight_path_matches_batched_reference():
    # rows of a 3-D operand times a 2-D weight: forward and both gradients
    # against the batched product, the weight gradient summed over the batch
    rng = np.random.default_rng(10)
    a, b = t64(rng.normal(size=(4, 7, 5))), t64(rng.normal(size=(5, 3)))
    g = rng.normal(size=(4, 7, 3))
    out = matmul(a, b)
    out._backward(g)
    np.testing.assert_allclose(out.data, np.einsum("btd,de->bte", a.data, b.data), rtol=0, atol=1e-12)
    np.testing.assert_allclose(a.grad, g @ b.data.T, rtol=0, atol=1e-12)
    np.testing.assert_allclose(b.grad, (np.swapaxes(a.data, 1, 2) @ g).sum(axis=0), rtol=0, atol=1e-12)


# The fused forms must equal the compositions they replaced bit for bit in
# float32, or a trained run's artifacts change.

def _f32(rng, *shape):
    return rng.normal(size=shape).astype(np.float32)


def _forward_backward(build, arrays, g):
    """Output of ``build`` over fresh float32 leaves holding ``arrays``, then
    each leaf's gradient under the upstream gradient ``g``."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(*leaves)
    backward(matmul(reshape(out, (1, g.size)), Tensor(g.reshape(-1, 1))))
    return [out.data] + [t.grad for t in leaves]


def _assert_bitwise(got, want):
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert x.dtype == y.dtype == np.float32 and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


def test_matmul_bias_is_bitwise_add_after_matmul():
    rng = np.random.default_rng(12)
    arrays = [_f32(rng, 4, 7, 5), _f32(rng, 5, 3), _f32(rng, 3)]
    g = _f32(rng, 4, 7, 3)
    _assert_bitwise(_forward_backward(lambda x, w, b: matmul(x, w, b), arrays, g),
                    _forward_backward(lambda x, w, b: add(matmul(x, w), b), arrays, g))


def _pad_and_causal_mask(batch, n, pad_from):
    """Float32 {0, MASK_NEG} mask: causal, and keys from ``pad_from`` on
    masked in the last row of the batch."""
    pad = np.zeros((batch, 1, 1, n), dtype=np.float32)
    pad[-1, ..., pad_from:] = K.MASK_NEG
    return pad + _causal_mask(n, np.float32)


def test_softmax_mask_is_bitwise_add_before_softmax():
    rng = np.random.default_rng(13)
    mask = _pad_and_causal_mask(2, 6, 4)
    arrays = [_f32(rng, 2, 3, 6, 6)]
    g = _f32(rng, 2, 3, 6, 6)
    _assert_bitwise(_forward_backward(lambda x: softmax(x, mask), arrays, g),
                    _forward_backward(lambda x: softmax(add(x, Tensor(mask))), arrays, g))


def test_attention_at_head_dim_16_is_bitwise_scale_on_scores():
    # 1/sqrt(16) is a power of two, so scaling the queries is exact
    def scaled_scores(q, k, v, mask):
        scores = scale(matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(q.data.shape[-1]))
        return matmul(softmax(add(scores, Tensor(mask))), v)

    rng = np.random.default_rng(14)
    mask = _pad_and_causal_mask(2, 6, 3)
    arrays = [_f32(rng, 2, 4, 6, 16) for _ in range(3)]
    g = _f32(rng, 2, 4, 6, 16)
    _assert_bitwise(_forward_backward(lambda q, k, v: attention(q, k, v, mask), arrays, g),
                    _forward_backward(lambda q, k, v: scaled_scores(q, k, v, mask), arrays, g))


def test_fused_operand_shape_errors():
    x = t64(np.zeros((2, 3, 4)))
    with pytest.raises(ShapeError):
        matmul(x, t64(np.zeros((4, 5))), t64(np.zeros(4)))
    with pytest.raises(ShapeError):
        matmul(x, t64(np.zeros((2, 4, 5))), t64(np.zeros(5)))
    with pytest.raises(ShapeError):
        softmax(x, np.zeros((5, 1, 1, 4)))  # would broadcast x to a larger shape


def test_operands_without_grad_get_none():
    rng = np.random.default_rng(11)
    img = t64(rng.normal(size=(2, 8, 8, 3)), grad=False)
    kern = t64(rng.normal(size=(48, 6)))
    backward(project(conv_patchify(img, kern, 4)))
    assert img.grad is None and kern.grad.shape == (48, 6)

    scores = t64(rng.normal(size=(2, 5, 5)))
    mask = Tensor(_causal_mask(5))
    backward(project(add(scores, mask)))
    assert mask.grad is None and scores.grad.shape == (2, 5, 5)

    x, w = t64(rng.normal(size=(3, 4)), grad=False), t64(rng.normal(size=(4, 2)))
    gain, bias = t64(np.ones(4)), t64(np.zeros(4), grad=False)
    backward(project(matmul(layer_norm(x, gain, bias), w)))
    assert x.grad is None and bias.grad is None
    assert gain.grad.shape == (4,) and w.grad.shape == (4, 2)


def test_layer_norm_forward_matches_two_pass_statistics():
    x = np.random.default_rng(12).normal(size=(4, 9, 16)).astype(np.float32)
    mu = x.mean(-1, keepdims=True)
    expect = (x - mu) * (1.0 / np.sqrt(x.var(-1, keepdims=True) + K.LN_EPS))
    out = layer_norm(Tensor(x), Tensor(np.ones(16, np.float32)), Tensor(np.zeros(16, np.float32)))
    assert np.array_equal(out.data, expect)


@pytest.mark.parametrize("rows, ids", [
    (6, np.array([3, 1, 3, 0, 3, 1])),        # repeated
    (9, np.array([2, 4, 5, 8])),              # strictly increasing: one write
    (7, np.array([[1, 6, 1], [0, 6, 2]])),    # 2-D, repeated across rows
    (4, np.array([2])),                       # a single id
    (4, np.array(3)),                         # a scalar id
    (4, np.array([-1, 0, 3])),                # negative, repeats row 3
    (300, np.array([250, 5, 250], np.uint8)), # uint8: the cell index must not wrap
    (5000, np.random.default_rng(17).integers(0, 5000, size=(16, 27))),
])
def test_embedding_gradient_matches_add_at(rows, ids):
    rng = np.random.default_rng(18)
    table = t64(rng.normal(size=(rows, 5)))
    out = embedding(table, ids)
    g = rng.normal(size=out.data.shape)
    out._backward(g)
    expect = np.zeros_like(table.data)
    np.add.at(expect, ids, g)
    np.testing.assert_allclose(table.grad, expect, rtol=0, atol=1e-12)


def test_embedding_rejects_float_ids():
    with pytest.raises(ShapeError):
        embedding(t64(np.zeros((4, 2))), np.array([0.5, 1.5]))


# ---------------------------------------------------------------------------
# finite-difference audit: every case of the table, every seed

@pytest.mark.parametrize("name", list(CASES))
def test_gradient_case(name):
    for seed in SEEDS:
        err = check_case(name, seed)
        assert err < TOLERANCE, f"{name} seed {seed}: rel err {err:.3e}"


# ---------------------------------------------------------------------------
# BLAS threads

def _openblas_threads():
    """Threads of the OpenBLAS that numpy bundles and has loaded, or None."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)  # the loaded library: dlopen hands back its handle
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            get = getattr(lib, name, None)
            if get is not None:
                return get()
    return None


def test_blas_thread_pin_took_effect():
    # conftest.py sets the thread count before numpy loads OpenBLAS; set
    # any later, it would be ignored without a word
    threads = _openblas_threads()
    if threads is None:
        pytest.skip("numpy here does not bundle OpenBLAS")
    assert threads == int(os.environ["OPENBLAS_NUM_THREADS"])


# ---------------------------------------------------------------------------
# optimizer

def test_adam_zero_grad_no_move():
    p = Parameter("w", np.ones(4, dtype=np.float64))
    before = p.data.copy()
    p.grad = np.zeros_like(p.data)
    adam_step([p], AdamState(lr=0.1))
    assert np.array_equal(p.data, before)


def test_adam_first_step_hand_value():
    # constant grad 1: bias-corrected mhat=vhat=1, delta = -lr/(1+eps)
    p = Parameter("w", np.array([0.5], dtype=np.float64))
    p.grad = np.array([1.0])
    st = AdamState(lr=0.1)
    adam_step([p], st)
    assert abs(p.data[0] - (0.5 - 0.1)) < 1e-6
    assert st.step == 1


def test_adam_identical_params_update_identically():
    a = Parameter("a", np.array([1.0, 2.0]))
    b = Parameter("b", np.array([1.0, 2.0]))
    a.grad = np.array([0.3, -0.7])
    b.grad = np.array([0.3, -0.7])
    adam_step([a, b], AdamState(lr=0.01))
    assert np.array_equal(a.data, b.data)


def test_adam_nonfinite_grad_names_parameter():
    p = Parameter("encoder.layer0.w_q", np.ones(2))
    p.grad = np.array([1.0, np.nan])
    with pytest.raises(OptimizerError, match="encoder.layer0.w_q"):
        adam_step([p], AdamState(lr=0.1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adam_nonfinite_float32_grad_named_among_several(bad):
    ok = Parameter("decoder.out", np.ones(3, np.float32))
    p = Parameter("encoder.layer0.w_q", np.ones(2, np.float32))
    ok.grad = np.ones(3, np.float32)
    p.grad = np.array([1.0, bad], np.float32)
    with pytest.raises(OptimizerError, match="encoder.layer0.w_q"):
        adam_step([ok, p], AdamState(lr=0.1))


def test_adam_overflowing_norm_is_not_a_nonfinite_gradient():
    # 1e20 is finite in float32, its square is not: the dot overflows, and
    # the exact scan finds every gradient finite
    p = Parameter("w", np.ones(8, np.float32))
    p.grad = np.full(8, 1e20, np.float32)
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.dot(p.grad, p.grad))
        norm = adam_step([p], AdamState(lr=0.1))
    assert math.isclose(norm, 1e20 * math.sqrt(8), rel_tol=1e-6)
    assert np.all(np.isfinite(p.data))


def test_adam_returns_global_gradient_norm():
    rng = np.random.default_rng(19)
    params = [Parameter(n, rng.normal(size=s).astype(np.float32)) for n, s in (("a", (3, 4)), ("b", 5))]
    for p in params:
        p.grad = rng.normal(size=p.data.shape).astype(np.float32)
    expect = math.sqrt(sum(float(np.sum(p.grad.astype(np.float64) ** 2)) for p in params))
    assert math.isclose(adam_step(params, AdamState(lr=0.01)), expect, rel_tol=1e-6)
    assert adam_step([Parameter("idle", np.ones(2))], AdamState(lr=0.01)) == 0.0


def _adam_reference(arrays, grads, m, v, step, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The per-parameter loop that adam_step replaced, on plain dicts."""
    for name, g in grads.items():
        if g is None:
            continue
        if name not in m:
            m[name] = np.zeros_like(arrays[name])
            v[name] = np.zeros_like(arrays[name])
        m[name] += (1.0 - b1) * (g - m[name])
        v[name] += (1.0 - b2) * (g * g - v[name])
        mhat = m[name] / (1.0 - b1**step)
        vhat = v[name] / (1.0 - b2**step)
        arrays[name] -= (lr * mhat / (np.sqrt(vhat) + eps)).astype(arrays[name].dtype, copy=False)


def test_adam_skips_parameter_without_grad():
    rng = np.random.default_rng(13)
    a = Parameter("a", rng.normal(size=(3, 2)).astype(np.float32))
    b = Parameter("b", rng.normal(size=4).astype(np.float32))
    ref = {"a": a.data.copy(), "b": b.data.copy()}
    ref_m, ref_v = {}, {}
    st = AdamState(lr=0.01)
    b_before = b.data
    a.grad = rng.normal(size=(3, 2)).astype(np.float32)
    adam_step([a, b], st)
    _adam_reference(ref, {"a": a.grad, "b": None}, ref_m, ref_v, 1, 0.01)
    assert b.data is b_before and np.array_equal(b.data, ref["b"])
    assert "b" not in st.m and "b" not in st.v
    # once it has a grad, its moments start from zero as in the reference
    for step in (2, 3):
        a.grad = rng.normal(size=(3, 2)).astype(np.float32)
        b.grad = rng.normal(size=4).astype(np.float32)
        adam_step([a, b], st)
        _adam_reference(ref, {"a": a.grad, "b": b.grad}, ref_m, ref_v, step, 0.01)
    for name, p in (("a", a), ("b", b)):
        assert p.data.tobytes() == ref[name].tobytes()
        assert st.m[name].tobytes() == ref_m[name].tobytes()
        assert st.v[name].tobytes() == ref_v[name].tobytes()


def test_blocked_adam_matches_reference_across_block_boundaries():
    # parameters that straddle block ends, so every block holds pieces of
    # two of them; bitwise against the per-parameter loop
    rng = np.random.default_rng(20)
    sizes = {"first": K.ADAM_BLOCK - 3, "second": 10, "third": K.ADAM_BLOCK + 5}
    params = [Parameter(n, rng.normal(size=k).astype(np.float32)) for n, k in sizes.items()]
    ref = {p.name: p.data.copy() for p in params}
    ref_m, ref_v = {}, {}
    st = AdamState(lr=0.01)
    assert sum(sizes.values()) > 2 * K.ADAM_BLOCK
    for step in range(1, 4):
        for p in params:
            p.grad = rng.normal(size=p.data.shape).astype(np.float32)
        adam_step(params, st)
        _adam_reference(ref, {p.name: p.grad for p in params}, ref_m, ref_v, step, 0.01)
    assert len(st.flat.blocks) == 3
    for p in params:
        assert p.data.tobytes() == ref[p.name].tobytes(), p.name
        assert st.m[p.name].tobytes() == ref_m[p.name].tobytes(), p.name
        assert st.v[p.name].tobytes() == ref_v[p.name].tobytes(), p.name


def test_adam_nonfinite_grad_changes_nothing():
    rng = np.random.default_rng(14)
    params = [Parameter(n, rng.normal(size=(4, 3)).astype(np.float32)) for n in ("first", "second", "third")]
    st = AdamState(lr=0.01)
    for p in params:
        p.grad = rng.normal(size=(4, 3)).astype(np.float32)
    adam_step(params, st)
    before = {p.name: (p.data.copy(), st.m[p.name].copy(), st.v[p.name].copy()) for p in params}
    params[1].grad = params[1].grad.copy()
    params[1].grad[2, 1] = np.inf
    with pytest.raises(OptimizerError, match="second"):
        adam_step(params, st)
    assert st.step == 1
    for p in params:
        w, m, v = before[p.name]
        assert np.array_equal(p.data, w) and np.array_equal(st.m[p.name], m)
        assert np.array_equal(st.v[p.name], v)

    # a first step that fails leaves no moments behind
    fresh = AdamState(lr=0.01)
    with pytest.raises(OptimizerError, match="second"):
        adam_step(params, fresh)
    assert fresh.m == {} and fresh.v == {} and fresh.step == 0


def test_adam_trajectory_matches_reference():
    # scalar quadratic f(w)=w^2/2, grad=w; hand-rolled reference loop
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    w_ref = 1.0
    m = v = 0.0
    p = Parameter("w", np.array([1.0], dtype=np.float64))
    st = AdamState(lr=lr)
    for t in range(1, 21):
        g = w_ref
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w_ref -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
        p.grad = p.data.copy()
        adam_step([p], st)
    assert abs(p.data[0] - w_ref) < 1e-12


def test_training_determinism_bitwise():
    def run():
        rng = np.random.default_rng(42)
        w1 = Parameter("w1", rng.normal(size=(6, 8)).astype(np.float32))
        w2 = Parameter("w2", rng.normal(size=(8, 3)).astype(np.float32))
        x = rng.normal(size=(4, 6)).astype(np.float32)
        targets = rng.integers(0, 3, size=(4,))
        st = AdamState(lr=1e-3)
        for _ in range(10):
            w1.zero_grad()
            w2.zero_grad()
            h = relu(matmul(Tensor(x), w1))
            logits = reshape(matmul(h, w2), (1, 4, 3))
            loss = cross_entropy_masked(logits, targets[None, :], np.ones((1, 4)))
            backward(loss)
            adam_step([w1, w2], st)
        return w1.data.tobytes(), w2.data.tobytes()

    assert run() == run()
