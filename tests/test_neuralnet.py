import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unchunked
from barkspace import neuralnet as nn
from gradcheck import draw_checkable_case, max_gradient_error, random_small_spec

TINY = nn.NetSpec((1, 6, 5), (nn.Conv2d(2, 3, 3), nn.Relu(), nn.Flatten(), nn.Dense(1)))


def test_init_is_deterministic_and_shaped():
    a = nn.init_params(TINY, 123)
    b = nn.init_params(TINY, 123)
    c = nn.init_params(TINY, 124)
    assert a.layers[0]["w"].shape == (2, 1, 3, 3)
    assert a.layers[0]["b"].shape == (2,)
    assert a.layers[3]["w"].shape == (1, 2 * 4 * 3)
    assert a.layers[3]["b"].shape == (1,)
    for (n1, t1), (n2, t2) in zip(a.tensors(), b.tensors()):
        assert n1 == n2 and np.array_equal(t1, t2)
    assert any(not np.array_equal(t1, t2)
               for (_, t1), (_, t2) in zip(a.tensors(), c.tensors()))


def test_init_zero_biases_and_fan_in_bound():
    p = nn.init_params(TINY, 5)
    assert np.all(p.layers[0]["b"] == 0.0)
    assert np.all(p.layers[3]["b"] == 0.0)
    assert np.abs(p.layers[0]["w"]).max() <= 1 / np.sqrt(9)
    assert np.abs(p.layers[3]["w"]).max() <= 1 / np.sqrt(24)


def test_init_rejects_inconsistent_spec():
    bad = nn.NetSpec((1, 2, 2), (nn.Conv2d(1, 3, 3),))
    with pytest.raises(ValueError):
        nn.init_params(bad, 0)


def test_forward_zero_weights_zero_input():
    p = nn.init_params(TINY, 0)
    for entry in p.layers:
        if entry:
            entry["w"][:] = 0.0
    y, _ = nn.forward(TINY, p, np.zeros((1, 6, 5)))
    assert y.shape == (1,)
    assert y[0] == 0.0


def test_forward_1x1_conv_closed_form():
    spec = nn.NetSpec((1, 3, 3), (nn.Conv2d(1, 1, 1),))
    p = nn.init_params(spec, 0)
    p.layers[0]["w"][:] = 0.75
    y, _ = nn.forward(spec, p, np.full((1, 3, 3), 2.0))
    assert y.shape == (1, 3, 3)
    assert np.all(y == 1.5)


def test_maxpool_value_and_truncation():
    spec = nn.NetSpec((1, 2, 2), (nn.MaxPool2x2(),))
    p = nn.init_params(spec, 0)
    y, _ = nn.forward(spec, p, np.array([[[1.0, 2.0], [3.0, 4.0]]]))
    assert y.shape == (1, 1, 1)
    assert y[0, 0, 0] == 4.0
    spec = nn.NetSpec((1, 3, 5), (nn.MaxPool2x2(),))
    y, _ = nn.forward(spec, nn.init_params(spec, 0), np.arange(15.0).reshape(1, 3, 5))
    assert y.shape == (1, 1, 2)  # odd row/col truncated


def test_forward_shape_mismatch():
    p = nn.init_params(TINY, 0)
    with pytest.raises(ValueError):
        nn.forward(TINY, p, np.zeros((1, 5, 5)))


def test_dense_grad_closed_form():
    spec = nn.NetSpec((1, 1, 4), (nn.Flatten(), nn.Dense(1)))
    p = nn.init_params(spec, 3)
    x = np.array([[[0.5, -1.0, 2.0, 0.25]]])
    y, tape = nn.forward(spec, p, x)
    grads, dx = nn.backward(spec, p, tape, np.ones_like(y))
    assert np.array_equal(grads[1]["w"], x.reshape(1, 4))
    assert np.array_equal(grads[1]["b"], np.array([1.0]))
    assert np.array_equal(dx, p.layers[1]["w"].reshape(1, 1, 4))


def test_relu_blocks_gradient_at_negative_preactivation():
    spec = nn.NetSpec((1, 1, 2), (nn.Flatten(), nn.Dense(1), nn.Relu()))
    p = nn.init_params(spec, 1)
    p.layers[1]["w"][:] = 1.0
    x = np.array([[[-2.0, -3.0]]])  # pre-activation -5 < 0
    y, tape = nn.forward(spec, p, x)
    assert y[0] == 0.0
    grads, dx = nn.backward(spec, p, tape, np.ones_like(y))
    assert np.all(grads[1]["w"] == 0.0)
    assert np.all(dx == 0.0)


def test_maxpool_gradient_goes_to_first_argmax_on_tie():
    spec = nn.NetSpec((1, 2, 2), (nn.MaxPool2x2(),))
    p = nn.init_params(spec, 0)
    x = np.array([[[7.0, 7.0], [7.0, 7.0]]])
    y, tape = nn.forward(spec, p, x)
    _, dx = nn.backward(spec, p, tape, np.ones_like(y))
    assert np.array_equal(dx, np.array([[[1.0, 0.0], [0.0, 0.0]]]))


def test_dense_is_linear_without_bias():
    spec = nn.NetSpec((1, 1, 6), (nn.Flatten(), nn.Dense(3)))
    p = nn.init_params(spec, 8)
    rng = np.random.default_rng(2)
    x, y = rng.standard_normal((2, 1, 1, 6))
    a, b = 1.7, -0.3
    lhs, _ = nn.forward(spec, p, a * x + b * y)
    fx, _ = nn.forward(spec, p, x)
    fy, _ = nn.forward(spec, p, y)
    assert np.allclose(lhs, a * fx + b * fy, atol=1e-12)


LAYERWISE_SPECS = [
    nn.NetSpec((2, 5, 4), (nn.Conv2d(3, 2, 2),)),
    nn.NetSpec((1, 4, 3), (nn.Relu(),)),
    nn.NetSpec((1, 5, 4), (nn.MaxPool2x2(),)),
    nn.NetSpec((2, 3, 3), (nn.Flatten(), nn.Dense(2))),
    nn.NetSpec((1, 6, 5), (nn.Conv2d(2, 3, 3), nn.Relu(), nn.MaxPool2x2(),
                           nn.Flatten(), nn.Dense(4), nn.Relu(), nn.Dense(1))),
]


@pytest.mark.parametrize("spec", LAYERWISE_SPECS, ids=lambda s: "-".join(
    type(l).__name__ for l in s.layers))
def test_gradients_match_finite_differences(spec):
    rng = np.random.default_rng(hash(spec.layers) % (2**32))
    params, x = draw_checkable_case(spec, rng)
    assert max_gradient_error(spec, params, x, rng) < 1e-4


def test_backward_rejects_mismatched_tape():
    p = nn.init_params(TINY, 0)
    _, tape = nn.forward(TINY, p, np.zeros((1, 6, 5)))
    other = nn.NetSpec((1, 6, 5), (nn.Conv2d(2, 3, 3), nn.Relu(), nn.Flatten(),
                                   nn.Dense(2), nn.Dense(1)))
    with pytest.raises(ValueError):
        nn.backward(other, nn.init_params(other, 0), tape, np.zeros(1))


def test_adam_zero_gradient_keeps_params():
    p = nn.init_params(TINY, 11)
    before = [t.copy() for _, t in p.tensors()]
    state = nn.init_adam(p)
    zero = [None if e is None else {k: np.zeros_like(a) for k, a in e.items()}
            for e in p.layers]
    for _ in range(3):
        nn.adam_step(p, zero, state, lr=0.1)
    for (_, after), orig in zip(p.tensors(), before):
        assert np.array_equal(after, orig)


def test_adam_first_step_is_signed_lr():
    p = nn.init_params(TINY, 11)
    before = [t.copy() for _, t in p.tensors()]
    state = nn.init_adam(p)
    rng = np.random.default_rng(4)
    grads = [None if e is None else {k: rng.standard_normal(a.shape) for k, a in e.items()}
             for e in p.layers]
    nn.adam_step(p, grads, state, lr=1e-3)
    i = 0
    for layer_i, e in enumerate(p.layers):
        if e is None:
            continue
        for k in ("w", "b"):
            step = e[k] - before[i if k == "w" else i + 1]
            expect = -1e-3 * np.sign(grads[layer_i][k])
            assert np.allclose(step, expect, atol=1e-6)
        i += 2


def test_adam_trajectories_bit_identical():
    def run():
        p = nn.init_params(TINY, 21)
        state = nn.init_adam(p)
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(4, 1, 6, 5))
        for step in range(5):
            y, tape = nn.forward(TINY, p, x)
            grads, _ = nn.backward(TINY, p, tape, np.ones_like(y))
            nn.adam_step(p, grads, state, lr=1e-2)
        return [t.copy() for _, t in p.tensors()]

    for a, b in zip(run(), run()):
        assert np.array_equal(a, b)


def test_adam_shape_mismatch_rejected():
    p = nn.init_params(TINY, 0)
    state = nn.init_adam(p)
    bad = [None if e is None else {k: np.zeros(3) for k in e} for e in p.layers]
    with pytest.raises(ValueError):
        nn.adam_step(p, bad, state, lr=0.1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # g * g overflows
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e30], ids=["nan", "inf", "square-overflows"])
def test_adam_rejects_non_finite_moments(bad):
    p = nn.init_params(TINY, 0, dtype=np.float32)
    state = nn.init_adam(p)
    grads = [None if e is None else {k: np.zeros_like(a) for k, a in e.items()}
             for e in p.layers]
    nn.adam_step(p, grads, state, lr=0.1)
    grads[3]["w"][0, 5] = bad
    with pytest.raises(ValueError, match="layer 3 w .*Adam step 2"):
        nn.adam_step(p, grads, state, lr=0.1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_is_batch_invariant(dtype):
    """A batch's output is bit-equal to the concatenated outputs of any split."""
    spec = nn.default_net_spec()
    params = nn.init_params(spec, 5, dtype=dtype)
    rng = np.random.default_rng(12)
    for _ in range(8):
        b = int(rng.integers(2, 80))
        x = rng.uniform(0, 1, size=(b, *spec.input_shape)).astype(dtype)
        whole, _ = nn.forward(spec, params, x)
        n_cuts = int(rng.integers(1, min(4, b - 1) + 1))
        cuts = np.sort(rng.choice(np.arange(1, b), size=n_cuts, replace=False))
        parts = [nn.forward(spec, params, part)[0] for part in np.split(x, cuts)]
        assert np.array_equal(whole, np.concatenate(parts)), (b, cuts)
        k = int(rng.integers(0, b))
        assert np.array_equal(whole[k], nn.forward(spec, params, x[k])[0])


def naive_pool(x, d):
    """Per-window loop oracle: the first maximum in tl, tr, bl, br order wins
    the window and takes its gradient; odd last rows/columns are dropped."""
    b, c, h, w = x.shape
    y = np.zeros((b, c, h // 2, w // 2), dtype=x.dtype)
    dx = np.zeros_like(x)
    for n in range(b):
        for ch in range(c):
            for i in range(h // 2):
                for j in range(w // 2):
                    cells = [(2 * i, 2 * j), (2 * i, 2 * j + 1),
                             (2 * i + 1, 2 * j), (2 * i + 1, 2 * j + 1)]
                    vals = [x[n, ch, r, s] for r, s in cells]
                    k = int(np.argmax(vals))
                    y[n, ch, i, j] = vals[k]
                    dx[n, ch][cells[k]] = d[n, ch, i, j]
    return y, dx


def _tied_windows(rng, shape):
    b, c, h, w = shape
    base = rng.standard_normal((b, c, h // 2 + 1, w // 2 + 1))
    return np.repeat(np.repeat(base, 2, axis=2), 2, axis=3)[:, :, :h, :w]


POOL_INPUTS = {
    "random": lambda rng, shape: rng.standard_normal(shape),
    "all-tied": _tied_windows,
    "few-levels": lambda rng, shape: rng.integers(-1, 2, size=shape).astype(float),
    "all-negative": lambda rng, shape: -0.1 - np.abs(rng.standard_normal(shape)),
    "relu-zeros": lambda rng, shape: np.maximum(rng.standard_normal(shape), 0.0),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(3, 2, 6, 4), (2, 3, 7, 5), (2, 1, 5, 6), (1, 2, 4, 9)])
@pytest.mark.parametrize("kind", sorted(POOL_INPUTS))
def test_maxpool_matches_per_window_oracle(kind, shape, dtype):
    rng = np.random.default_rng(len(kind) * 100 + shape[2] * 10 + shape[3])
    x = POOL_INPUTS[kind](rng, shape).astype(dtype)
    spec = nn.NetSpec(shape[1:], (nn.MaxPool2x2(),))
    y, tape = nn.forward(spec, nn.init_params(spec, 0), x)
    d = rng.standard_normal(y.shape).astype(dtype)
    _, dx = nn.backward(spec, nn.init_params(spec, 0), tape, d)
    y_ref, dx_ref = naive_pool(x, d)
    assert y.dtype == dtype and dx.dtype == dtype
    assert np.array_equal(y, y_ref)
    assert np.array_equal(dx, dx_ref)
    h2, w2 = shape[2] // 2, shape[3] // 2
    assert np.all(dx[:, :, 2 * h2 :, :] == 0) and np.all(dx[:, :, :, 2 * w2 :] == 0)


def unfused_reference(spec, params, x, upstream):
    """Forward and backward with every Relu -> MaxPool2x2 pair split into
    separate specs, so the Relu runs at full resolution before the pool."""
    shapes = [tuple(spec.input_shape)] + spec.output_shapes()
    layers = spec.layers
    cuts = {0, len(layers)}
    for i in range(len(layers) - 1):
        if isinstance(layers[i], nn.Relu) and isinstance(layers[i + 1], nn.MaxPool2x2):
            cuts |= {i, i + 1}
    bounds = sorted(cuts)
    segments = []
    h = x
    for lo, hi in zip(bounds, bounds[1:]):
        sub = nn.NetSpec(shapes[lo], layers[lo:hi])
        sub_params = nn.Params(layers=params.layers[lo:hi], seed=params.seed)
        h, tape = nn.forward(sub, sub_params, h)
        segments.append((sub, sub_params, tape))
    d = upstream
    grads = []
    for sub, sub_params, tape in reversed(segments):
        g, d = nn.backward(sub, sub_params, tape, d)
        grads = g + grads
    return h, grads, d


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("spec", [
    nn.NetSpec((2, 7, 6), (nn.Relu(), nn.MaxPool2x2())),
    nn.default_net_spec((1, 20, 15)),
], ids=["relu-pool", "default-net"])
def test_relu_after_pool_is_bit_equal_to_relu_first(spec, dtype):
    rng = np.random.default_rng(8)
    params = nn.init_params(spec, 3, dtype=dtype)
    x = rng.standard_normal((4,) + spec.input_shape).astype(dtype)
    x[:, :, :8, :] = 0.0  # flat region: tied windows and exact zeros
    x[1] = np.round(x[1])  # few levels: partial ties
    if isinstance(spec.layers[0], nn.Conv2d):
        # constant input gives conv output == bias: negative, zero and positive ties
        params.layers[0]["b"][:] = np.resize(np.array([-0.5, 0.0, 0.25], dtype=dtype), 8)
    else:
        x[2] = -np.abs(x[2])  # all-negative windows
    y, tape = nn.forward(spec, params, x)
    upstream = rng.standard_normal(y.shape).astype(dtype)
    grads, dx = nn.backward(spec, params, tape, upstream)
    y_ref, grads_ref, dx_ref = unfused_reference(spec, params, x, upstream)
    assert np.array_equal(y, y_ref)
    assert np.array_equal(dx, dx_ref)
    for g, g_ref in zip(grads, grads_ref):
        assert (g is None) == (g_ref is None)
        if g is not None:
            assert np.array_equal(g["w"], g_ref["w"]) and np.array_equal(g["b"], g_ref["b"])


@pytest.mark.parametrize("spec", [
    TINY,
    nn.default_net_spec((1, 20, 15)),
    nn.NetSpec((1, 6, 5), (nn.Relu(), nn.Conv2d(2, 2, 2), nn.Relu(), nn.Flatten(), nn.Dense(1))),
    nn.NetSpec((1, 1, 4), (nn.Flatten(), nn.Dense(2), nn.Relu(), nn.Dense(1))),
], ids=["tiny", "default-net", "relu-first", "dense-only"])
def test_backward_without_input_grad_gives_same_param_grads(spec):
    rng = np.random.default_rng(5)
    params = nn.init_params(spec, 9, dtype=np.float32)
    x = rng.standard_normal((3,) + spec.input_shape).astype(np.float32)
    y, tape = nn.forward(spec, params, x)
    upstream = rng.standard_normal(y.shape).astype(np.float32)
    grads, dx = nn.backward(spec, params, tape, upstream)
    lean, none = nn.backward(spec, params, tape, upstream, input_grad=False)
    assert dx is not None and none is None
    for g, g_lean in zip(grads, lean):
        assert (g is None) == (g_lean is None)
        if g is not None:
            assert np.array_equal(g["w"], g_lean["w"]) and np.array_equal(g["b"], g_lean["b"])


# --- the chunked trunk against the unchunked engine -------------------------

ORACLE_SPECS = [
    nn.default_net_spec(),
    nn.NetSpec((1, 6, 5), (nn.Relu(), nn.Conv2d(2, 2, 2), nn.Relu(), nn.Flatten(), nn.Dense(1))),
    nn.NetSpec((2, 5, 4), (nn.Conv2d(3, 2, 2),)),
    nn.NetSpec((2, 7, 6), (nn.Relu(), nn.MaxPool2x2())),
    nn.NetSpec((1, 1, 4), (nn.Flatten(), nn.Dense(2), nn.Relu(), nn.Dense(1))),
    nn.NetSpec((2, 9, 7), (nn.Conv2d(1, 2, 2), nn.Relu(), nn.MaxPool2x2(), nn.Flatten(),
                           nn.Dense(1))),
]


def assert_same_step(spec, params, x, upstream, input_grad):
    """forward and backward give the bits, dtypes and shapes of the unchunked engine."""
    y, tape = nn.forward(spec, params, x)
    y_ref, tape_ref = unchunked.forward(spec, params, x)
    assert y.dtype == y_ref.dtype and np.array_equal(y, y_ref)
    grads, dx = nn.backward(spec, params, tape, upstream, input_grad=input_grad)
    grads_ref, dx_ref = unchunked.backward(spec, params, tape_ref, upstream,
                                           input_grad=input_grad)
    if input_grad:
        assert dx.dtype == dx_ref.dtype and np.array_equal(dx, dx_ref)
    else:
        assert dx is None and dx_ref is None
    for g, g_ref in zip(grads, grads_ref):
        assert (g is None) == (g_ref is None)
        if g is not None:
            for k in ("w", "b"):
                assert g[k].dtype == g_ref[k].dtype and g[k].shape == g_ref[k].shape
                assert np.array_equal(g[k], g_ref[k])


def tied_batch(rng, spec, b, dtype):
    """Random inputs with flat regions and few-level items: tied pool windows
    and exact zeros through every relu."""
    x = rng.standard_normal((b,) + spec.input_shape).astype(dtype)
    x[:, :, : spec.input_shape[1] // 3] = 0.0
    x[: b // 2] = np.round(x[: b // 2])
    return x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=["default-net", "relu-first", "conv-only",
                                                    "relu-pool", "dense-only",
                                                    "one-channel-conv"])
def test_chunked_engine_is_bit_equal_to_unchunked(spec, dtype):
    rng = np.random.default_rng(31)
    params = nn.init_params(spec, 4, dtype=dtype)
    for b in (1, nn.CHUNK - 1, nn.CHUNK, nn.CHUNK + 1, 40):
        x = tied_batch(rng, spec, b, dtype)
        y, _ = unchunked.forward(spec, params, x)
        upstream = rng.standard_normal(y.shape).astype(dtype)
        for input_grad in (True, False):
            assert_same_step(spec, params, x, upstream, input_grad)
    # an unbatched input runs as a batch of one and comes back squeezed
    assert_same_step(spec, params, x[0], upstream[0], True)


def test_training_batch_is_bit_equal_to_unchunked():
    """The training step's batch of 128 (8 chunks), ties included, input gradient on."""
    spec = nn.default_net_spec()
    params = nn.init_params(spec, 9, dtype=np.float32)
    rng = np.random.default_rng(2)
    x = tied_batch(rng, spec, 128, np.float32)
    # a constant input gives conv output == bias: negative, zero and positive ties
    params.layers[0]["b"][:] = np.resize(np.array([-0.5, 0.0, 0.25], np.float32), 8)
    upstream = rng.standard_normal((128, 1)).astype(np.float32)
    assert_same_step(spec, params, x, upstream, True)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), b=st.integers(1, 3 * nn.CHUNK + 3),
       dtype=st.sampled_from([np.float32, np.float64]), input_grad=st.booleans())
def test_chunked_engine_matches_unchunked_on_random_specs(seed, b, dtype, input_grad):
    rng = np.random.default_rng(seed)
    spec = random_small_spec(rng)
    params = nn.init_params(spec, seed, dtype=dtype)
    x = tied_batch(rng, spec, b, dtype)
    upstream = rng.standard_normal((b, 1)).astype(dtype)
    assert_same_step(spec, params, x, upstream, input_grad)


def test_two_live_tapes_stay_valid():
    """A tape owns its arrays: a second forward and backward in between leave
    the first tape, output and gradients intact."""
    spec = nn.default_net_spec((1, 20, 15))
    params = nn.init_params(spec, 6, dtype=np.float32)
    rng = np.random.default_rng(3)
    xa, xb = (rng.standard_normal((2 * nn.CHUNK + 3,) + spec.input_shape).astype(np.float32)
              for _ in range(2))
    ya, tape_a = nn.forward(spec, params, xa)
    yb, tape_b = nn.forward(spec, params, xb)
    ga, dxa = nn.backward(spec, params, tape_a, np.ones_like(ya))
    gb, dxb = nn.backward(spec, params, tape_b, np.ones_like(yb))
    for x, y, g, dx in ((xa, ya, ga, dxa), (xb, yb, gb, dxb)):
        y_ref, tape_ref = unchunked.forward(spec, params, x)
        g_ref, dx_ref = unchunked.backward(spec, params, tape_ref, np.ones_like(y_ref))
        assert np.array_equal(y, y_ref) and np.array_equal(dx, dx_ref)
        for e, e_ref in zip(g, g_ref):
            if e is not None:
                assert np.array_equal(e["w"], e_ref["w"]) and np.array_equal(e["b"], e_ref["b"])


def test_training_step_memory_is_at_most_half_the_unchunked_step():
    """tracemalloc peak of one 128-item training step."""
    spec = nn.default_net_spec()
    params = nn.init_params(spec, 1, dtype=np.float32)
    rng = np.random.default_rng(0)
    x = rng.random((128,) + spec.input_shape, dtype=np.float32)
    upstream = rng.standard_normal((128, 1)).astype(np.float32)

    def chunked():
        _, tape = nn.forward(spec, params, x)
        nn.backward(spec, params, tape, upstream, input_grad=False)

    def whole():
        _, tape = unchunked.forward(spec, params, x)
        unchunked.backward(spec, params, tape, upstream, input_grad=False)

    def peak(step):
        tracemalloc.start()
        try:
            step()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(chunked) <= peak(whole) / 2


def scalar_uniform(rng, n):
    """The stream drawn one next_u64 call at a time."""
    return np.array([(rng.next_u64() >> 11) * 2.0**-53 for _ in range(n)], dtype=np.float64)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(-(2**63), 2**64 - 1))
def test_uniform_is_the_next_u64_stream(seed):
    fast, slow = nn.XorShift64Star(seed), nn.XorShift64Star(seed)
    for n in (0, 1, 2, 63, 64, 1000, 100352, 5):
        assert np.array_equal(fast.uniform(n, -0.25, 0.75), -0.25 + 1.0 * scalar_uniform(slow, n))
        assert fast._state == slow._state  # the next call continues the stream
    assert fast.next_u64() == slow.next_u64()
