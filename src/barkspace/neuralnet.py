"""Small deterministic CNN engine on plain numpy arrays.

Tensors are row-major numpy arrays; a network is an immutable NetSpec (input
shape plus a layer list) and a Params object holding per-layer weights.
Supported layers: conv2d (valid, stride 1), relu, maxpool2x2 (stride 2,
truncating odd dims), flatten, dense. ``forward`` records a tape of cached
activations, one entry per layer, which ``backward`` replays for exact
reverse-mode gradients. Everything is a pure function of its arrays, so two
runs with the same seed produce bit-identical trajectories.

Execution order differs from the layer order in one place: a relu directly
before a maxpool2x2 runs after the pool, on 4x fewer cells, with its mask
cached at pooled shape in the relu's tape slot. This is exact, ties
included. Where a window's max is > 0, the positive cells keep their values
and order under relu, so the same cell wins and gets the same gradient.
Where it is <= 0, the output is 0 and the gradient is 0 under either order.

Max-pooling copies its input once into four contiguous window planes
(top-left, top-right, bottom-left, bottom-right) and runs a strict ``>``
tournament over them, so ties go to the earliest position; the winning
position is cached as an int8 window index. ``backward(..., input_grad=
False)`` skips the work that only the input gradient needs (the first conv
layer's patch GEMM and col2im) and returns None for it; training uses this,
since nothing reads the gradient of the features.

``forward`` is batch-invariant: each item's output has the same bits at any
batch size and position in the batch, so scoring may chunk a batch freely.
Convolutions already run one GEMM per item through stacked ``matmul``, and
pooling, relu and flatten are elementwise. A dense layer runs as one
(1,K)x(K,N) product per row rather than one (B,K)x(K,N) GEMM, whose
blocking, and so whose rounding, depends on B.
"""

from dataclasses import dataclass, field
from typing import Union

import numpy as np


@dataclass(frozen=True)
class Conv2d:
    out_channels: int
    kernel_h: int
    kernel_w: int


@dataclass(frozen=True)
class Relu:
    pass


@dataclass(frozen=True)
class MaxPool2x2:
    pass


@dataclass(frozen=True)
class Flatten:
    pass


@dataclass(frozen=True)
class Dense:
    out_units: int


Layer = Union[Conv2d, Relu, MaxPool2x2, Flatten, Dense]


@dataclass(frozen=True)
class NetSpec:
    """Input shape (channels, height, width) plus an ordered layer tuple."""

    input_shape: tuple[int, int, int]
    layers: tuple[Layer, ...]

    def output_shapes(self) -> list[tuple]:
        """Shape after each layer; raises ValueError on an inconsistent chain."""
        shape: tuple = tuple(self.input_shape)
        out = []
        for i, layer in enumerate(self.layers):
            if isinstance(layer, Conv2d):
                if len(shape) != 3:
                    raise ValueError(f"layer {i}: conv2d needs a (C,H,W) input, got {shape}")
                c, h, w = shape
                if h < layer.kernel_h or w < layer.kernel_w:
                    raise ValueError(f"layer {i}: kernel larger than input {shape}")
                shape = (layer.out_channels, h - layer.kernel_h + 1, w - layer.kernel_w + 1)
            elif isinstance(layer, MaxPool2x2):
                if len(shape) != 3:
                    raise ValueError(f"layer {i}: maxpool needs a (C,H,W) input, got {shape}")
                c, h, w = shape
                if h < 2 or w < 2:
                    raise ValueError(f"layer {i}: input {shape} too small to pool")
                shape = (c, h // 2, w // 2)
            elif isinstance(layer, Flatten):
                shape = (int(np.prod(shape)),)
            elif isinstance(layer, Dense):
                if len(shape) != 1:
                    raise ValueError(f"layer {i}: dense needs a flat input, got {shape}")
                shape = (layer.out_units,)
            elif isinstance(layer, Relu):
                pass
            else:
                raise ValueError(f"layer {i}: unknown layer {layer!r}")
            out.append(shape)
        return out

    @property
    def output_shape(self) -> tuple:
        return self.output_shapes()[-1]


def default_net_spec(input_shape: tuple[int, int, int] = (1, 64, 37)) -> NetSpec:
    """The regression head used by both models: two conv blocks and two dense."""
    return NetSpec(
        input_shape=input_shape,
        layers=(
            Conv2d(8, 3, 3),
            Relu(),
            MaxPool2x2(),
            Conv2d(16, 3, 3),
            Relu(),
            MaxPool2x2(),
            Flatten(),
            Dense(64),
            Relu(),
            Dense(1),
        ),
    )


_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One splitmix64 step, used only to spread the user seed into a state."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class XorShift64Star:
    """xorshift64* generator (shifts 12/25/27, multiplier 0x2545F4914F6CDD1D).

    The seed is passed through splitmix64 so that 0 and other weak seeds
    still yield a nonzero state. Doubles take the top 53 bits of the output.
    """

    MULT = 0x2545F4914F6CDD1D

    def __init__(self, seed: int):
        state = _splitmix64(int(seed) & _MASK64)
        self._state = state if state != 0 else 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        x = self._state
        x ^= (x >> 12)
        x = (x ^ (x << 25)) & _MASK64
        x ^= (x >> 27)
        self._state = x
        return (x * self.MULT) & _MASK64

    def uniform(self, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        u = np.empty(n, dtype=np.float64)
        for i in range(n):
            u[i] = (self.next_u64() >> 11) * 2.0**-53
        return low + (high - low) * u


@dataclass
class Params:
    """Per-layer weight/bias arrays aligned with a NetSpec's layer tuple.

    ``layers[i]`` is None for parameter-free layers and a {"w","b"} dict for
    conv2d/dense. Reconstructible bit-for-bit from (spec, seed).
    """

    layers: list = field(default_factory=list)
    seed: int = 0

    def tensors(self):
        for i, entry in enumerate(self.layers):
            if entry is not None:
                yield f"layer{i}.weight", entry["w"]
                yield f"layer{i}.bias", entry["b"]


def init_params(spec: NetSpec, seed: int, dtype=np.float64) -> Params:
    """Uniform weights in [-1/sqrt(fan_in), 1/sqrt(fan_in)), zero biases.

    Draws come from XorShift64Star in layer order, weights before bias,
    row-major within each tensor, so the result is a pure function of
    (spec, seed).
    """
    spec.output_shapes()  # validates the chain
    rng = XorShift64Star(seed)
    layers = []
    shape: tuple = tuple(spec.input_shape)
    for layer in spec.layers:
        if isinstance(layer, Conv2d):
            c = shape[0]
            fan_in = c * layer.kernel_h * layer.kernel_w
            bound = 1.0 / np.sqrt(fan_in)
            w = rng.uniform(layer.out_channels * fan_in, -bound, bound).reshape(
                layer.out_channels, c, layer.kernel_h, layer.kernel_w
            )
            layers.append({"w": w.astype(dtype), "b": np.zeros(layer.out_channels, dtype=dtype)})
            shape = (layer.out_channels, shape[1] - layer.kernel_h + 1, shape[2] - layer.kernel_w + 1)
        elif isinstance(layer, Dense):
            fan_in = shape[0]
            bound = 1.0 / np.sqrt(fan_in)
            w = rng.uniform(layer.out_units * fan_in, -bound, bound).reshape(layer.out_units, fan_in)
            layers.append({"w": w.astype(dtype), "b": np.zeros(layer.out_units, dtype=dtype)})
            shape = (layer.out_units,)
        else:
            layers.append(None)
            if isinstance(layer, MaxPool2x2):
                shape = (shape[0], shape[1] // 2, shape[2] // 2)
            elif isinstance(layer, Flatten):
                shape = (int(np.prod(shape)),)
    return Params(layers=layers, seed=int(seed))


@dataclass
class Tape:
    """Cached activations from one forward pass, consumed by backward."""

    caches: list
    batched: bool
    n_layers: int


def _im2col(x, kh, kw):
    """Patch tensor (B, C*kh*kw, H'*W') filled without any axis permutation."""
    b, c, h, w = x.shape
    hh, ww = h - kh + 1, w - kw + 1
    cols = np.empty((b, c, kh, kw, hh, ww), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = x[:, :, i : i + hh, j : j + ww]
    return cols.reshape(b, c * kh * kw, hh * ww), hh, ww


def _conv_forward(x, w, b):
    o, _, kh, kw = w.shape
    cols, hh, ww = _im2col(x, kh, kw)
    y = np.matmul(w.reshape(o, -1), cols).reshape(x.shape[0], o, hh, ww)
    return y + b[None, :, None, None], (x.shape, cols)


def _conv_backward(d, cache, w, input_grad=True):
    """(dx, dw, db); dx is None when ``input_grad`` is False."""
    xshape, cols = cache
    o, c, kh, kw = w.shape
    b, _, hh, ww = d.shape
    dmat = d.reshape(b, o, hh * ww)
    dw = np.matmul(dmat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(o, c, kh, kw)
    db = d.sum(axis=(0, 2, 3))
    if not input_grad:
        return None, dw, db
    # col2im: scatter patch gradients back one kernel offset at a time
    dcols = np.matmul(w.reshape(o, -1).T, dmat).reshape(b, c, kh, kw, hh, ww)
    dx = np.zeros(xshape, dtype=d.dtype)
    for i in range(kh):
        for j in range(kw):
            dx[:, :, i : i + hh, j : j + ww] += dcols[:, :, i, j]
    return dx, dw, db


def _bits(a):
    """Same-width integer view of a float array, for branch-free selection.

    ``np.where`` and ``copyto(where=)`` branch per element and run several
    times slower on the random masks of max-pooling; an AND with a 0/-1 mask
    selects the exact bits instead (dropped elements become +0.0).
    """
    return a.view(np.dtype(f"i{a.itemsize}"))


def _pool_forward(x):
    b, c, h, w = x.shape
    h2, w2 = h // 2, w // 2
    # one contiguous copy, window-major: planes[:, :, p, q] holds the cells
    # (2i+p, 2j+q) of every window, so the tournament reads contiguous planes
    planes = np.ascontiguousarray(
        x[:, :, : 2 * h2, : 2 * w2].reshape(b, c, h2, 2, w2, 2).transpose(0, 1, 3, 5, 2, 4))
    tl, tr, bl, br = planes[:, :, 0, 0], planes[:, :, 0, 1], planes[:, :, 1, 0], planes[:, :, 1, 1]
    # strict > everywhere: ties resolve to the earlier window position
    y = np.maximum(tl, tr)
    bot = np.maximum(bl, br)
    take_bot = bot > y
    right_top = tr > tl
    # right = where(take_bot, br > bl, right_top), as boolean algebra
    right = right_top ^ ((right_top ^ (br > bl)) & take_bot)
    # y = where(take_bot, bot, y): flip the bits in which bot differs from y,
    # on the windows where take_bot
    diff = _bits(bot)
    diff ^= _bits(y)
    diff &= -take_bot.view(np.int8)
    y_bits = _bits(y)
    y_bits ^= diff
    idx = 2 * take_bot.view(np.int8) + right.view(np.int8)
    return y, (idx, x.shape)


def _pool_backward(d, cache):
    idx, xshape = cache
    h2, w2 = xshape[2] // 2, xshape[3] // 2
    dx = np.zeros(xshape, dtype=d.dtype)
    for k in range(4):
        p, q = divmod(k, 2)
        keep = -(idx == k).view(np.int8)  # 0 or -1 (all bits set)
        # dx's window cell k gets d where it won and keeps +0.0 elsewhere
        np.bitwise_and(_bits(d), keep, out=_bits(dx[:, :, p : 2 * h2 : 2, q : 2 * w2 : 2]))
    return dx


def _pool_follows(layers, i) -> bool:
    """True for a Relu at ``i`` directly before a MaxPool2x2; it runs after the pool."""
    return (0 <= i < len(layers) - 1 and isinstance(layers[i], Relu)
            and isinstance(layers[i + 1], MaxPool2x2))


def forward(spec: NetSpec, params: Params, x: np.ndarray):
    """Run the network; returns (output, tape).

    ``x`` may be a single input of spec.input_shape or a batch with a leading
    batch axis. The output of a single input is squeezed accordingly (a
    dense(1) head yields a python-float-compatible 0-d array).
    """
    x = np.asarray(x)
    batched = x.ndim == 4
    if not batched:
        if x.shape != tuple(spec.input_shape):
            raise ValueError(f"input shape {x.shape} does not match spec {spec.input_shape}")
        x = x[None]
    elif x.shape[1:] != tuple(spec.input_shape):
        raise ValueError(f"batch item shape {x.shape[1:]} does not match spec {spec.input_shape}")
    if len(params.layers) != len(spec.layers):
        raise ValueError("params do not match spec layer count")

    caches = []
    for i, layer in enumerate(spec.layers):
        if isinstance(layer, Conv2d):
            x, cache = _conv_forward(x, params.layers[i]["w"], params.layers[i]["b"])
            caches.append(cache)
        elif isinstance(layer, Relu):
            if _pool_follows(spec.layers, i):
                caches.append(None)  # the pool fills in this layer's mask
                continue
            caches.append(x > 0)
            x = np.maximum(x, 0)
        elif isinstance(layer, MaxPool2x2):
            x, cache = _pool_forward(x)
            caches.append(cache)
            if _pool_follows(spec.layers, i - 1):
                caches[i - 1] = x > 0
                x = np.maximum(x, 0)
        elif isinstance(layer, Flatten):
            caches.append(x.shape)
            x = x.reshape(x.shape[0], -1)
        elif isinstance(layer, Dense):
            caches.append(x)
            # one (1,K)x(K,N) product per row: a row's bits do not depend on B
            x = np.matmul(x[:, None, :], params.layers[i]["w"].T)[:, 0] + params.layers[i]["b"]
    y = x if batched else x[0]
    return y, Tape(caches=caches, batched=batched, n_layers=len(spec.layers))


def backward(spec: NetSpec, params: Params, tape: Tape, upstream: np.ndarray,
             *, input_grad: bool = True):
    """Reverse-mode gradients of the forward pass.

    ``upstream`` has the shape of the forward output. Returns (grads, dx)
    where grads mirrors the Params layout and dx is the gradient w.r.t. the
    input (batch axis included iff the forward input had one). With
    ``input_grad=False`` the walk stops at the first layer with parameters,
    skipping the work that only dx needs, and dx is None.
    """
    if tape.n_layers != len(spec.layers) or len(tape.caches) != len(spec.layers):
        raise ValueError("tape does not match spec")
    d = np.asarray(upstream)
    if not tape.batched:
        d = d[None]

    grads = [None] * len(spec.layers)
    stop = 0
    if not input_grad:
        stop = next((i for i, e in enumerate(params.layers) if e is not None), len(spec.layers))
    for i in range(len(spec.layers) - 1, stop - 1, -1):
        layer = spec.layers[i]
        cache = tape.caches[i]
        want_d = input_grad or i > stop
        if isinstance(layer, Conv2d):
            d, dw, db = _conv_backward(d, cache, params.layers[i]["w"], want_d)
            grads[i] = {"w": dw, "b": db}
        elif isinstance(layer, Relu):
            if not _pool_follows(spec.layers, i):
                d = d * cache
        elif isinstance(layer, MaxPool2x2):
            if _pool_follows(spec.layers, i - 1):
                d = d * tape.caches[i - 1]
            d = _pool_backward(d, cache)
        elif isinstance(layer, Flatten):
            d = d.reshape(cache)
        elif isinstance(layer, Dense):
            xin = cache
            grads[i] = {"w": d.T @ xin, "b": d.sum(axis=0)}
            if want_d:
                d = d @ params.layers[i]["w"]
    if not input_grad:
        return grads, None
    return grads, (d if tape.batched else d[0])


@dataclass
class AdamState:
    """First/second moment accumulators plus the step counter."""

    m: list
    v: list
    t: int = 0


def init_adam(params: Params) -> AdamState:
    m = [None if e is None else {k: np.zeros_like(a) for k, a in e.items()} for e in params.layers]
    v = [None if e is None else {k: np.zeros_like(a) for k, a in e.items()} for e in params.layers]
    return AdamState(m=m, v=v, t=0)


def adam_step(params: Params, grads: list, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One bias-corrected adaptive-moment update; mutates params and state.

    Raises ValueError, naming the step, when a moment is not finite: a NaN or
    infinite gradient, or one whose square overflows, would otherwise turn
    the updates into NaN or silently into zero. Returns the (mutated) pair so
    call sites can stay functional in style.
    """
    state.t += 1
    c1 = 1.0 - beta1**state.t
    c2 = 1.0 - beta2**state.t
    for i, entry in enumerate(params.layers):
        if entry is None:
            continue
        if grads[i] is None:
            raise ValueError(f"missing gradient for layer {i}")
        for k in ("w", "b"):
            g = grads[i][k]
            if g.shape != entry[k].shape:
                raise ValueError(f"gradient shape {g.shape} != param shape {entry[k].shape}")
            m = state.m[i][k]
            v = state.v[i][k]
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * (g * g)
            # m carries any NaN/inf in g, v any overflow of g * g
            if not (np.isfinite(m).all() and np.isfinite(v).all()):
                raise ValueError(f"training diverged: the gradient or its moments for "
                                 f"layer {i} {k} are not finite at Adam step {state.t}")
            entry[k] -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    return params, state
