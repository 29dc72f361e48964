import weakref

import numpy as np
import pytest

from subflow import diffcore as dc
from subflow.diffcore.optim import BETA1, BETA2, EPSILON
from subflow.errors import FormatError, NumericsError, ShapeError, StateError

from gradcheck import finite_diff_check, finite_diff_max_rel_error


def test_matmul_hand_value():
    out = dc.matmul(dc.Tensor([[1, 2], [3, 4]]), dc.Tensor([[1], [1]]))
    assert np.array_equal(out.data, [[3], [7]])


def test_relu_definition():
    out = dc.relu(dc.Tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_conv2d_all_ones_no_padding():
    out = dc.conv2d(dc.Tensor(np.ones((1, 3, 3))), dc.Tensor(np.ones((1, 1, 3, 3))),
                    dc.Tensor(np.zeros(1)))
    assert out.data.shape == (1, 1, 1)
    assert out.data[0, 0, 0] == pytest.approx(9.0)


def test_matmul_shape_mismatch_names_op():
    with pytest.raises(ShapeError, match="matmul"):
        dc.matmul(dc.Tensor(np.ones((2, 3))), dc.Tensor(np.ones((2, 3))))


def test_conv2d_kernel_does_not_fit():
    with pytest.raises(ShapeError, match="conv2d"):
        dc.conv2d(dc.Tensor(np.ones((1, 2, 2))), dc.Tensor(np.ones((1, 1, 3, 3))),
                  dc.Tensor(np.zeros(1)))


def test_forward_is_deterministic():
    x = dc.named_stream(3, "det").standard_normal((5, 5)).astype(np.float32)
    a = dc.tanh(dc.matmul(dc.Tensor(x), dc.Tensor(x))).data
    b = dc.tanh(dc.matmul(dc.Tensor(x), dc.Tensor(x))).data
    assert np.array_equal(a, b)


def test_nonfinite_forward_raises():
    with pytest.raises(NumericsError, match="log"):
        dc.log(dc.Tensor([0.0]))


def test_backward_square():
    x = dc.Tensor(3.0, requires_grad=True)
    (gx,) = dc.mul(x, x).backward([x])
    assert gx == pytest.approx(6.0)


def test_backward_relu_subgradient_zero_at_zero():
    x = dc.Tensor([-1.0, 2.0], requires_grad=True)
    (gx,) = dc.tsum(dc.relu(x)).backward([x])
    assert np.array_equal(gx, [0.0, 1.0])
    z = dc.Tensor([0.0], requires_grad=True)
    (gz,) = dc.tsum(dc.relu(z)).backward([z])
    assert gz[0] == 0.0


def test_backward_requires_scalar():
    x = dc.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ShapeError, match="scalar"):
        dc.mul(x, x).backward([x])


def test_backward_terminates_on_deep_chains():
    # tape walk is iterative; thousands of chained ops must not hit recursion limits
    x = dc.Tensor(1.0, requires_grad=True)
    y = x
    for _ in range(5000):
        y = dc.mul(y, 1.0001)
    (gx,) = y.backward([x])
    assert gx is not None and np.isfinite(gx)


def test_backward_returns_gradients_and_stores_none():
    x = dc.Tensor(2.0, requires_grad=True)
    unreached = dc.Tensor(1.0, requires_grad=True)
    loss = dc.mul(x, x)
    first = loss.backward([x, unreached])
    second = loss.backward([x, unreached])
    assert float(first[0]) == 4.0
    assert np.array_equal(first[0], second[0]) and first[0] is not second[0]
    assert first[1] is None and second[1] is None
    dc.Adam([x], lr=0.1).step(loss)
    assert not any(hasattr(t, "grad") for t in (x, unreached, loss))


def test_dense_net_gradients_match_finite_differences():
    net = dc.DenseNet((3, 8, 8, 8, 2), "tanh", seed=5)
    x = dc.named_stream(1, "gc-input").standard_normal((4, 3))
    assert finite_diff_check(net, x, 1e-3) < 1e-3


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", [1, 37])
def test_dense_infer_matches_tape_bits(activation, dtype, rows):
    net = dc.DenseNet((5, 16, 16, 3), activation, seed=7)
    x = (3.0 * dc.named_stream(rows, "infer-rows").standard_normal((rows, 5))).astype(dtype)
    want = net(dc.Tensor(x)).data
    got = net.infer(x)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_dense_net_from_params_holds_them():
    widths = (4, 6, 2)
    rng = dc.named_stream(3, "dense-params")
    arrays = [rng.standard_normal(s).astype(np.float32) for s in dc.dense_shapes(widths)]
    assert dc.dense_shapes(widths) == [(4, 6), (6,), (6, 2), (2,)]
    net = dc.DenseNet(widths, "tanh", params=arrays)
    assert all(p.data is a and p.requires_grad for p, a in zip(net.parameters(), arrays))


@pytest.mark.parametrize("activation, layer, weight, bias, x, op", [
    pytest.param("relu", 0, 3e38, 0.0, np.float32(1), "matmul", id="3e+38-0.0-matmul"),
    pytest.param("relu", 0, 1e38, 3e38, np.float32(1), "add", id="1e+38-3e+38-add"),
    # tanh maps the overflow to 1, so the net's output is finite
    pytest.param("tanh", 0, 3e38, 0.0, np.float32(1), "matmul", id="tanh-hidden-matmul"),
    pytest.param("relu", 1, 3e38, 0.0, np.float32(1), "matmul", id="last-layer-matmul"),
    pytest.param("relu", 0, 1e10, 0.0, np.float64(1e300), "matmul", id="float64-matmul"),
])
def test_dense_infer_names_overflowing_op(activation, layer, weight, bias, x, op):
    # every other weight is 1 and every other bias 0: rows of x make the
    # first pre-activation 3 * x * weight, then + bias
    net = dc.DenseNet((3, 4, 2), activation, seed=1)
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        w.data = np.full_like(w.data, weight if i == layer else 1.0)
        b.data = np.full_like(b.data, bias if i == layer else 0.0)
    rows = np.full((2, 3), x)
    with np.errstate(over="ignore"):
        for forward in (net.infer, lambda rows: net(dc.Tensor(rows))):
            with pytest.raises(NumericsError, match=f"op '{op}'"):
                forward(rows)


def test_conv_stack_gradients_match_finite_differences():
    layers = [
        dc.Conv2dLayer(2, 3, 3, stride=2, padding=1, seed=9, name="c0"),
        dc.Conv2dLayer(3, 2, 2, stride=1, padding=0, seed=9, name="c1"),
    ]
    x = dc.Tensor(dc.named_stream(2, "gc-conv").uniform(0.1, 1.0, size=(2, 6, 6)))
    params = layers[0].parameters() + layers[1].parameters()
    loss_fn = lambda: dc.tsum(dc.relu(layers[1](dc.relu(layers[0](x)))))
    assert finite_diff_max_rel_error(params, loss_fn, 1e-3) < 1e-3


def test_conv2d_input_gradient():
    # dx path checked against central differences on the input image
    layer = dc.Conv2dLayer(1, 2, 3, stride=2, padding=1, seed=4, name="cx")
    x0 = dc.named_stream(7, "gc-dx").standard_normal((1, 5, 5))
    xt = dc.Tensor(x0.astype(np.float64), requires_grad=True)
    (analytic,) = dc.tsum(layer(xt)).backward([xt])
    h = 1e-4
    for idx in [(0, 0, 0), (0, 2, 3), (0, 4, 4), (0, 1, 2)]:
        bumped = x0.copy()
        bumped[idx] += h
        up = dc.tsum(layer(dc.Tensor(bumped))).item()
        bumped[idx] -= 2 * h
        dn = dc.tsum(layer(dc.Tensor(bumped))).item()
        numeric = (up - dn) / (2 * h)
        assert analytic[idx] == pytest.approx(numeric, rel=1e-3, abs=1e-5)


def test_adam_first_step_hand_value():
    p = dc.Tensor(1.0, requires_grad=True)
    opt = dc.Adam([p], lr=0.1)
    opt.step(dc.mul(p, 1.0))    # gradient 1
    # bias correction at step 1 gives m_hat = g, v_hat = g^2, update = lr * g/(|g|+eps)
    assert float(p.data) == pytest.approx(0.9, abs=1e-6)


def test_adam_zero_grad_leaves_params_unchanged():
    p = dc.Tensor([1.0, -2.0], requires_grad=True)
    before = p.data.copy()
    dc.Adam([p], lr=0.5).step(dc.tsum(dc.mul(p, 0.0)))    # gradient 0
    assert np.array_equal(p.data, before)


def test_adam_step_count_increments():
    p = dc.Tensor(1.0, requires_grad=True)
    opt = dc.Adam([p], lr=0.1)
    for _ in range(2):
        opt.step(dc.mul(p, 1.0))
    assert opt.step_count == 2


def test_adam_missing_grad_raises():
    p = dc.Tensor(1.0, requires_grad=True)
    q = dc.Tensor(1.0, requires_grad=True)
    with pytest.raises(StateError, match="grad"):
        dc.Adam([p, q]).step(dc.mul(p, 2.0))    # the loss does not reach q


def test_adam_keeps_no_graph_after_its_step():
    # once the caller drops its loss, the step's graph is freed; the loss
    # tensor has no weakref slot, its data does
    p = dc.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    opt = dc.Adam([p], lr=0.1)
    loss = dc.tsum(dc.mul(p, p))
    held = weakref.ref(loss.data)
    opt.step(loss)
    del loss
    assert held() is None


def test_finite_diff_linear_net_is_exact():
    net = dc.DenseNet((1, 1), "relu", seed=0)
    net.weights[0].data = np.array([[2.0]], dtype=np.float32)
    assert finite_diff_check(net, np.array([[3.0]]), 1e-3) < 1e-6


def test_finite_diff_rejects_nonpositive_h():
    net = dc.DenseNet((1, 1), "relu", seed=0)
    with pytest.raises(ValueError, match="positive"):
        finite_diff_check(net, np.array([[1.0]]), 0.0)


def test_training_determinism_bit_identical():
    def run():
        net = dc.DenseNet((4, 6, 2), "relu", seed=11)
        opt = dc.Adam(net.parameters(), lr=1e-2)
        x = dc.named_stream(11, "train-x").standard_normal((8, 4)).astype(np.float32)
        y = dc.named_stream(11, "train-y").standard_normal((8, 2)).astype(np.float32)
        for _ in range(25):
            d = dc.sub(net(dc.Tensor(x)), dc.Tensor(y))
            opt.step(dc.tmean(dc.mul(d, d)))
        return [p.data.copy() for p in net.parameters()]

    a, b = run(), run()
    assert all(np.array_equal(p, q) for p, q in zip(a, b))


def test_seeded_init_reproducible():
    w1 = dc.glorot_uniform(42, "layer.w", 8, 4, (8, 4))
    w2 = dc.glorot_uniform(42, "layer.w", 8, 4, (8, 4))
    w3 = dc.glorot_uniform(43, "layer.w", 8, 4, (8, 4))
    assert np.array_equal(w1, w2)
    assert not np.array_equal(w1, w3)
    bound = np.sqrt(6.0 / 12.0)
    assert np.all(np.abs(w1) <= bound)


def test_prms_round_trip(tmp_path):
    path = tmp_path / "ck.prms"
    tensors = [np.arange(6, dtype=np.float32).reshape(2, 3),
               np.array(5.0, dtype=np.float32),
               np.linspace(-1, 1, 7, dtype=np.float32)]
    dc.save_params(path, tensors)
    loaded = dc.load_params(path)
    assert len(loaded) == 3
    for a, b in zip(tensors, loaded):
        assert a.shape == b.shape
        assert np.array_equal(a, b)


def test_prms_bad_magic(tmp_path):
    path = tmp_path / "bad.prms"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(Exception, match="magic"):
        dc.load_params(path)


def test_prms_truncated(tmp_path):
    path = tmp_path / "trunc.prms"
    dc.save_params(path, [np.ones((4, 4), dtype=np.float32)])
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(Exception, match="truncated"):
        dc.load_params(path)


@pytest.mark.parametrize("size", [4, 8, 11])
def test_prms_short_header_names_file(tmp_path, size):
    path = tmp_path / "short.prms"
    path.write_bytes((b"PRMS" + b"\x01" * 8)[:size])
    with pytest.raises(FormatError, match="short.prms.*truncated header"):
        dc.load_params(path)


def test_conv2d_matches_naive_reference():
    rng = dc.named_stream(5, "conv-ref")
    x = rng.standard_normal((3, 7, 6)).astype(np.float32)
    w = rng.standard_normal((4, 3, 3, 2)).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    stride, pad = 2, 1
    out = dc.conv2d(dc.Tensor(x), dc.Tensor(w), dc.Tensor(b), stride=stride, padding=pad).data

    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    hout = (xp.shape[1] - 3) // stride + 1
    wout = (xp.shape[2] - 2) // stride + 1
    ref = np.zeros((4, hout, wout), dtype=np.float64)
    for o in range(4):
        for i in range(hout):
            for j in range(wout):
                patch = xp[:, i * stride:i * stride + 3, j * stride:j * stride + 2]
                ref[o, i, j] = (patch * w[o]).sum() + b[o]
    assert np.allclose(out, ref, atol=1e-5)


def _conv2d_reference(x, w, b, g, stride, padding):
    """conv2d's earlier formula (np.pad, sliding_window_view, one slice-add
    per kernel offset): out and the gradients dx, dw, db for output grad g."""
    cout, cin, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding))) if padding else x
    hp, wp = xp.shape[1:]
    hout, wout = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    windows = windows[:, ::stride, ::stride]
    col = windows.transpose(1, 2, 0, 3, 4).reshape(hout * wout, cin * kh * kw)
    wmat = w.reshape(cout, cin * kh * kw)
    out = np.ascontiguousarray((col @ wmat.T).T).reshape(cout, hout, wout) + b[:, None, None]
    dcol = g.reshape(cout, hout * wout).T @ wmat
    dxp = np.zeros((cin, hp, wp), dtype=g.dtype)
    dcol = dcol.reshape(hout, wout, cin, kh, kw).transpose(2, 0, 1, 3, 4)
    for i in range(kh):
        for j in range(kw):
            dxp[:, i:i + stride * hout:stride, j:j + stride * wout:stride] += dcol[:, :, :, i, j]
    dx = dxp[:, padding:hp - padding, padding:wp - padding] if padding else dxp
    dw = (g.reshape(cout, hout * wout) @ col).reshape(w.shape)
    return out, dx, dw, g.sum(axis=(1, 2))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_conv2d_bits_match_reference_formula(k, stride, padding, dtype):
    # sides 8 and 7: with stride == k on the odd side the windows leave the
    # last row and column uncovered
    rng = dc.named_stream(17, f"conv-bits.{k}.{stride}.{padding}")
    for side in (8, 7):
        x = rng.standard_normal((3, side, side)).astype(dtype)
        w = rng.standard_normal((4, 3, k, k)).astype(dtype)
        b = rng.standard_normal(4).astype(dtype)
        xt, wt, bt = (dc.Tensor(a, requires_grad=True) for a in (x, w, b))
        out = dc.conv2d(xt, wt, bt, stride=stride, padding=padding)
        g = rng.standard_normal(out.data.shape).astype(dtype)
        grads = dc.tsum(dc.mul(out, dc.Tensor(g))).backward([xt, wt, bt])
        want = _conv2d_reference(x, w, b, g, stride, padding)
        for got, ref in zip((out.data, *grads), want):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


def test_pool_and_upsample_shapes_and_values():
    x = dc.Tensor(np.arange(16, dtype=np.float32).reshape(1, 4, 4))
    pooled = dc.avg_pool2d(x)
    assert pooled.data.shape == (1, 2, 2)
    assert pooled.data[0, 0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4)
    up = dc.upsample2x(pooled)
    assert up.data.shape == (1, 4, 4)
    assert np.all(up.data[0, :2, :2] == pooled.data[0, 0, 0])


def test_constant_operand_gradient_is_never_formed():
    # the tape skips the (4096, 2000) gradient of the constant weight matrix
    import tracemalloc
    w = dc.Tensor(np.ones((4096, 2000), dtype=np.float32))
    x = dc.Tensor(np.ones((2000, 3), dtype=np.float32), requires_grad=True)
    out = dc.matmul(w, x)
    loss = dc.tsum(out)
    tracemalloc.start()
    try:
        (gx,) = loss.backward([x])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert np.array_equal(gx, np.full((2000, 3), 4096.0, dtype=np.float32))


def test_backward_forms_only_the_requested_gradients():
    # one graph reaches groups A (a1, a2) and B (b1, b2); B's (2048, 2000)
    # weight gradient is never formed when only A is requested
    import tracemalloc
    rng = dc.named_stream(4, "wrt")
    a1 = dc.Tensor(rng.standard_normal((3, 4)).astype(np.float32), requires_grad=True)
    a2 = dc.Tensor(rng.standard_normal((4, 3)).astype(np.float32), requires_grad=True)
    b1 = dc.Tensor(np.ones((2048, 2000), dtype=np.float32), requires_grad=True)
    b2 = dc.Tensor(np.ones((2048, 1), dtype=np.float32), requires_grad=True)
    x = dc.Tensor(np.ones((2000, 3), dtype=np.float32))

    def loss():
        a = dc.tsum(dc.tanh(dc.matmul(a1, a2)))
        b = dc.tmean(dc.add(dc.matmul(b1, x), b2))
        return dc.add(dc.mul(a, b), a)

    want = loss().backward([a1, a2, b1, b2])
    assert want[2] is not None and want[3] is not None
    part = loss()
    tracemalloc.start()
    try:
        got = part.backward([a1, a2])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_python_number_keeps_a_float32_graph_float32():
    # at float64 the weight matmul's vjp would cast the constant (4096, 2000)
    # float32 matrix to float64 (62.6 MiB) to multiply it by the gradient
    import tracemalloc
    w = dc.Tensor(np.ones((4096, 2000), dtype=np.float32))
    x = dc.Tensor(np.ones((2000, 3), dtype=np.float32), requires_grad=True)
    loss = dc.mul(dc.tmean(dc.matmul(w, x)), 0.2)
    assert loss.data.dtype == np.float32
    tracemalloc.start()
    try:
        loss.backward([x])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert dc.sub(1.0, x).data.dtype == np.float32
    assert dc.add(dc.Tensor(np.ones(2)), 1e-12).data.dtype == np.float64


def _uniform(seed, shape, lo=-1.0, hi=1.0):
    return dc.named_stream(seed, "op-grad").uniform(lo, hi, size=shape)


# op name -> (op over tensors, operand arrays)
_OPS = {
    "add": (dc.add, lambda: [_uniform(1, (3, 4)), _uniform(2, (1, 4))]),
    "sub": (dc.sub, lambda: [_uniform(1, (3, 4)), _uniform(2, (4,))]),
    "mul": (dc.mul, lambda: [_uniform(1, (2, 3, 4)), _uniform(2, (3, 1))]),
    "matmul": (dc.matmul, lambda: [_uniform(1, (3, 4)), _uniform(2, (4, 2))]),
    "transpose": (dc.transpose, lambda: [_uniform(1, (3, 4))]),
    "relu": (dc.relu, lambda: [_uniform(1, (3, 4), 0.1, 1.0) * [1, -1, -1, 1]]),
    "tanh": (dc.tanh, lambda: [_uniform(1, (3, 4))]),
    "sigmoid": (dc.sigmoid, lambda: [_uniform(1, (3, 4), -3.0, 3.0)]),
    "log": (dc.log, lambda: [_uniform(1, (3, 4), 0.5, 2.0)]),
    "sqrt": (dc.sqrt, lambda: [_uniform(1, (3, 4), 0.5, 2.0)]),
    "clamp": (lambda a: dc.clamp(a, -0.5, 0.5),   # two interior columns, two clipped
              lambda: [_uniform(1, (3, 4), 0.3, 0.45) * [1, -1, 2, -2]]),
    "tsum": (dc.tsum, lambda: [_uniform(1, (3, 4))]),
    "tmean": (lambda a: dc.tmean(a, axis=0, keepdims=True), lambda: [_uniform(1, (3, 4))]),
    "mse": (dc.mse, lambda: [_uniform(1, (3, 4)), _uniform(2, (3, 4))]),
    "reshape": (lambda a: dc.reshape(a, (4, 3)), lambda: [_uniform(1, (3, 4))]),
    "concat": (lambda *ts: dc.concat(ts),
               lambda: [_uniform(1, (2, 3)), _uniform(2, (1, 3)), _uniform(3, (2, 3))]),
    "conv2d": (lambda x, w, b: dc.conv2d(x, w, b, stride=2, padding=1),
               lambda: [_uniform(1, (2, 5, 5)), _uniform(2, (3, 2, 3, 3)), _uniform(3, (3,))]),
    "avg_pool2d": (dc.avg_pool2d, lambda: [_uniform(1, (2, 4, 4))]),
    "upsample2x": (dc.upsample2x, lambda: [_uniform(1, (2, 3, 3))]),
    # rows 1 and 3 of the (5, 4) weight matrix are empty; column 2 is unused
    "tile_matmul": (lambda x: dc.tile_matmul(
        [(np.array([0, 2]), np.array([3, 1, 0]), _uniform(4, (2, 3)).astype(np.float32)),
         (np.array([4]), np.array([1]), np.full((1, 1), 0.5, dtype=np.float32))], 5, x),
        lambda: [_uniform(1, (4, 2))]),
}
_OP_CASES = [(name, k) for name, (_, make) in _OPS.items()
             for n in [len(make())] for k in (range(n) if n > 1 else [None])]


@pytest.mark.parametrize("name, const", _OP_CASES,
                         ids=[n if k is None else f"{n}-const{k}" for n, k in _OP_CASES])
def test_op_gradients_with_each_operand_constant(name, const):
    op, make = _OPS[name]
    operands = [dc.Tensor(a, requires_grad=i != const) for i, a in enumerate(make())]
    weight = dc.Tensor(_uniform(9, op(*operands).data.shape))
    params = [t for t in operands if t.requires_grad]
    err = finite_diff_max_rel_error(params, lambda: dc.tsum(dc.mul(op(*operands), weight)),
                                    1e-4)
    assert err < 1e-5


# -- the flat Adam update and the one-pass backward against their old forms --

class _AdamReference:
    """`Adam` as it was: one moment array per parameter, updated in a loop."""

    def __init__(self, params, lr):
        self.params = list(params)
        self.learning_rate = lr
        self.step_count = 0
        self.first_moment = [np.zeros_like(p.data) for p in self.params]
        self.second_moment = [np.zeros_like(p.data) for p in self.params]

    def step(self, loss):
        grads = _backward_reference(loss, self.params)
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        m, v = self.first_moment, self.second_moment
        for i, (p, g) in enumerate(zip(self.params, grads)):
            m[i] = BETA1 * m[i] + (1.0 - BETA1) * g
            v[i] = BETA2 * v[i] + (1.0 - BETA2) * (g * g)
            m_hat = m[i] / bc1
            v_hat = v[i] / bc2
            p.data = p.data - (self.learning_rate * m_hat / (np.sqrt(v_hat) + EPSILON)).astype(p.data.dtype)


def _backward_reference(loss, wrt):
    """`Tensor.backward` as it was: a DFS, then a forward pass marking the
    nodes that reach `wrt`, then the reverse pass, all keyed on `id()`; each
    gradient is a zeroed buffer plus the gradient that reaches its leaf."""
    wanted = {id(leaf) for leaf in wrt}
    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for operand, _ in node._vjps:
            if id(operand) not in seen:
                stack.append((operand, False))
    reaches = set(wanted)
    for node in topo:
        if any(id(operand) in reaches for operand, _ in node._vjps):
            reaches.add(id(node))
    found = {}
    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        if id(node) not in reaches:
            continue
        g = grads.pop(id(node))
        if id(node) in wanted:
            found[id(node)] = np.zeros_like(node.data)
            found[id(node)] += g.astype(node.data.dtype, copy=False)
        for operand, vjp in node._vjps:
            if id(operand) not in reaches:
                continue
            pg = vjp(g)
            acc = grads.get(id(operand))
            if acc is None:
                grads[id(operand)] = pg if pg.base is None else np.array(pg)
            else:
                grads[id(operand)] = np.add(acc, pg, out=np.empty_like(acc))
    return [found.get(id(leaf)) for leaf in wrt]


def _adam_model(dtype):
    """A DenseNet, a conv layer and a 0-d scale; the loss over all three."""
    net = dc.DenseNet((6, 8, 3), "tanh", seed=5)
    conv = dc.Conv2dLayer(2, 3, 3, padding=1, seed=5)
    scale = dc.Tensor(np.array(0.7, dtype=dtype), requires_grad=True)
    params = net.parameters() + conv.parameters() + [scale]
    for p in params:
        p.data = p.data.astype(dtype)
    rng = dc.named_stream(5, "adam-bits")
    x = dc.Tensor(rng.standard_normal((10, 6)).astype(dtype))
    y = dc.Tensor(rng.standard_normal((10, 3)).astype(dtype))
    img = dc.Tensor(rng.standard_normal((2, 6, 6)).astype(dtype))

    def loss():
        d = dc.sub(dc.mul(net(x), scale), y)
        c = dc.conv2d(img, conv.weight, conv.bias, padding=1)
        return dc.add(dc.tmean(dc.mul(d, d)), dc.mul(dc.tmean(dc.mul(c, c)), scale))
    return params, loss


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_matches_reference_bits(dtype):
    params, loss = _adam_model(dtype)
    ref_params, ref_loss = _adam_model(dtype)
    opt, ref = dc.Adam(params, lr=0.05), _AdamReference(ref_params, lr=0.05)
    for _ in range(25):
        opt.step(loss())
        ref.step(ref_loss())
    assert all(_same_bits(p.data, q.data) for p, q in zip(params, ref_params))
    for flat, parts in ((opt.first_moment, ref.first_moment),
                        (opt.second_moment, ref.second_moment)):
        assert _same_bits(flat, np.concatenate([m.reshape(-1) for m in parts]))


def test_adam_refuses_mixed_dtypes():
    with pytest.raises(ShapeError, match="dtype"):
        dc.Adam([dc.Tensor(np.ones(2, dtype=np.float32), requires_grad=True),
                 dc.Tensor(1.0, requires_grad=True)])


def test_adam_reads_rebound_params():
    # a checkpoint restored between steps is what the next step updates
    params, loss = _adam_model(np.float32)
    ref_params, ref_loss = _adam_model(np.float32)
    opt, ref = dc.Adam(params, lr=0.05), _AdamReference(ref_params, lr=0.05)
    for _ in range(3):
        opt.step(loss())
        ref.step(ref_loss())
    rng = dc.named_stream(6, "restore")
    arrays = [rng.standard_normal(p.data.shape).astype(np.float32) for p in params]
    for p, q, a in zip(params, ref_params, arrays):
        p.data, q.data = a.copy(), a.copy()
    opt.step(loss())
    ref.step(ref_loss())
    assert all(_same_bits(p.data, q.data) for p, q in zip(params, ref_params))
    assert not any(np.array_equal(p.data, a) for p, a in zip(params, arrays))


def test_backward_matches_reference_bits():
    rng = dc.named_stream(7, "backward-bits")
    a = dc.Tensor(rng.standard_normal((4, 5)).astype(np.float32), requires_grad=True)
    w = dc.Tensor(rng.standard_normal((5, 3)).astype(np.float32), requires_grad=True)
    b = dc.Tensor(rng.standard_normal(3).astype(np.float32), requires_grad=True)
    out = dc.Tensor(rng.standard_normal((4, 3)).astype(np.float32), requires_grad=True)
    # relu passes -1 * 0 = -0.0 to r's negative entries; r's gradient holds +0.0
    r = dc.Tensor(np.array([-1.0, 2.0, -3.0], dtype=np.float32), requires_grad=True)

    # h's gradient sums terms of 1e4 and 1 that cancel, so it depends on the
    # order in which its consumers' vjps run
    big = rng.standard_normal((4, 3)).astype(np.float32) * 1e4
    small = rng.standard_normal((4, 3)).astype(np.float32)

    def loss():
        h = dc.tanh(dc.add(dc.matmul(a, w), b))             # shared subexpression
        sq = dc.mul(h, h)                                   # the same operand twice
        up = dc.add(dc.tsum(dc.mul(h, big)), dc.tsum(dc.mul(sq, out)))
        down = dc.add(dc.tmean(dc.sigmoid(h)), dc.tsum(dc.mul(h, small - big)))
        rest = dc.add(dc.tsum(dc.mul(dc.concat([h, sq]), 0.5)),
                      dc.tsum(dc.mul(dc.relu(r), -1.0)))
        return dc.add(dc.add(up, down), rest)

    wrt = [a, w, b, r]
    got = loss().backward(wrt)
    want = _backward_reference(loss(), wrt)
    assert all(_same_bits(g, ref) for g, ref in zip(got, want))
    assert _same_bits(got[3], np.array([0.0, -1.0, 0.0], dtype=np.float32))
