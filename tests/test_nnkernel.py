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
