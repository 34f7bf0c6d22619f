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

Both passes split the network into the trunk, the layers before the first
flatten or dense, and the head after it. The trunk runs ``CHUNK`` items at
a time, each chunk through every trunk layer before the next one starts, so
its work arrays stay small and in cache; the head runs on the whole batch,
since its dense GEMMs see the batch. A conv layer caches its input, not its
im2col patch matrix, and backward rebuilds each chunk's patches: compute
traded for memory, as in Chen et al., "Training Deep Nets with Sublinear
Memory Cost" (2016). Conv weight and bias gradients are built per item and
summed over the whole batch once, which gives the bits of an unchunked pass.
The one exception is a one-channel conv's bias: numpy sums its gradient as
one flat pairwise sum, so that layer keeps its whole upstream gradient.

The trunk's work arrays (patches, conv outputs, pool planes, patch, col2im
and pool gradients) are chunk-sized, made as each layer needs them and
freed once the next layer has read them, so a step holds one chunk's work
arrays besides the tape, and the allocator hands the same memory to the
next chunk. The tape holds only whole-batch arrays that the call made, so
any number of tapes stay valid side by side.
"""

import functools
from dataclasses import dataclass, field
from typing import Union

import numpy as np

# items per chunk of the trunk (the layers before the first Flatten or Dense)
# in forward and backward, and grids per forward call when scoring; on a
# 2-vCPU OpenBLAS host 16 scored at 0.22 ms/frame and 128 at 0.40, since a
# chunk's work arrays stay in cache
CHUNK = 16


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


def _xorshift(x: int) -> int:
    """The state step of ``XorShift64Star.next_u64``; linear over GF(2)."""
    x ^= (x >> 12)
    x = (x ^ (x << 25)) & _MASK64
    return x ^ (x >> 27)


def _gf2_tables(images: np.ndarray) -> np.ndarray:
    """Byte lookup tables of the GF(2)-linear map of uint64 words that sends
    bit k to ``images[k]``: table[b][v] is the image of byte value v at byte b."""
    tables = np.zeros((8, 256), dtype=np.uint64)
    by_byte = images.reshape(8, 8)
    for k in range(8):
        tables[:, 1 << k : 2 << k] = tables[:, : 1 << k] ^ by_byte[:, k : k + 1]
    return tables


def _gf2_apply(tables: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The linear map of ``tables`` applied to each word of ``v``."""
    out = tables[0][v & 0xFF]
    for b in range(1, 8):
        out ^= tables[b][(v >> (8 * b)) & 0xFF]
    return out


@functools.lru_cache(maxsize=64)
def _jump_tables(level: int) -> np.ndarray:
    """Read-only lookup tables of 2**level state steps."""
    if level == 0:
        images = np.array([_xorshift(1 << k) for k in range(64)], dtype=np.uint64)
    else:
        half = _jump_tables(level - 1)
        images = _gf2_apply(half, _gf2_apply(half, 1 << np.arange(64, dtype=np.uint64)))
    tables = _gf2_tables(images)
    tables.flags.writeable = False
    return tables


class XorShift64Star:
    """xorshift64* generator (shifts 12/25/27, multiplier 0x2545F4914F6CDD1D).

    The seed is passed through splitmix64 so that 0 and other weak seeds
    still yield a nonzero state. Doubles take the top 53 bits of the output.
    ``next_u64`` is the scalar reference; ``uniform`` makes the same stream
    in numpy, jumping ahead with powers of the step's GF(2) matrix.
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

    def _next_states(self, n: int) -> np.ndarray:
        """The states that n ``next_u64`` calls would step through, in order."""
        states = np.empty(n, dtype=np.uint64)
        if n == 0:
            return states
        states[0] = _xorshift(self._state)
        # with states[:m] filled, the jump of m steps gives states[m : 2m]
        m, level = 1, 0
        while m < n:
            k = min(m, n - m)
            states[m : m + k] = _gf2_apply(_jump_tables(level), states[:k])
            m, level = m + k, level + 1
        self._state = int(states[-1])
        return states

    def uniform(self, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        out = self._next_states(n) * np.uint64(self.MULT)  # wraps mod 2**64
        u = (out >> np.uint64(11)) * 2.0**-53
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
    """Cached activations from one forward pass, consumed by backward.

    A trunk layer's slot holds a whole-batch array: a conv's input, a relu's
    mask or a pool's window index.
    """

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
    """(y, cache); the cache is ``x`` itself, since backward rebuilds the patches."""
    o, _, kh, kw = w.shape
    cols, hh, ww = _im2col(x, kh, kw)
    y = np.matmul(w.reshape(o, -1), cols).reshape(x.shape[0], o, hh, ww)
    return y + b[None, :, None, None], x


def _conv_backward(d, x, w, dw, db, input_grad=True):
    """Fills dw (B, O, C*kh*kw) with per-item weight gradients and db with the
    per-item terms of the bias gradient: d summed over each plane into
    (B, O, 1, 1), or d itself when db has its shape. Returns dx, or None when
    ``input_grad`` is False."""
    o, c, kh, kw = w.shape
    b, _, hh, ww = d.shape
    cols, _, _ = _im2col(x, kh, kw)
    dmat = d.reshape(b, o, hh * ww)
    np.matmul(dmat, cols.transpose(0, 2, 1), out=dw)
    if db.shape == d.shape:
        db[...] = d
    else:
        np.sum(d, axis=(2, 3), keepdims=True, out=db)
    if not input_grad:
        return None
    # col2im: scatter patch gradients back one kernel offset at a time
    dcols = np.matmul(w.reshape(o, -1).T, dmat).reshape(b, c, kh, kw, hh, ww)
    dx = np.zeros(x.shape, dtype=d.dtype)
    for i in range(kh):
        for j in range(kw):
            dx[:, :, i : i + hh, j : j + ww] += dcols[:, :, i, j]
    return dx


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


def _trunk_end(layers) -> int:
    """Index of the first Flatten or Dense; the layers before it form the trunk."""
    return next((i for i, layer in enumerate(layers) if isinstance(layer, (Flatten, Dense))),
                len(layers))


def _chunk_starts(n: int):
    """First item of each chunk; an empty batch still runs one empty chunk."""
    return range(0, n, CHUNK) or (0,)


def _keep(full, part, lo: int, n: int):
    """Copy a chunk's rows into rows lo: of a whole-batch (n, ...) array,
    made when the first chunk arrives."""
    if full is None:
        full = np.empty((n,) + part.shape[1:], part.dtype)
    full[lo : lo + len(part)] = part
    return full


def _trunk_forward(spec: NetSpec, params: Params, x, end: int, caches: list):
    """Run layers [0, end) chunk by chunk; fills their tape slots with
    whole-batch arrays and returns the whole-batch output."""
    layers = spec.layers
    n = len(x)
    out = None
    for lo in _chunk_starts(n):
        h = x[lo : lo + CHUNK]
        for i in range(end):
            layer = layers[i]
            if isinstance(layer, Conv2d):
                caches[i] = _keep(caches[i], h, lo, n)
                h, _ = _conv_forward(h, params.layers[i]["w"], params.layers[i]["b"])
            elif isinstance(layer, Relu):
                if _pool_follows(layers, i):
                    continue  # the pool fills in this layer's mask
                caches[i] = _keep(caches[i], h > 0, lo, n)
                h = np.maximum(h, 0)
            elif isinstance(layer, MaxPool2x2):
                h, (idx, _) = _pool_forward(h)
                caches[i] = _keep(caches[i], idx, lo, n)
                if _pool_follows(layers, i - 1):
                    caches[i - 1] = _keep(caches[i - 1], h > 0, lo, n)
                    h = np.maximum(h, 0)
        out = _keep(out, h, lo, n)
    return out


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

    caches = [None] * len(spec.layers)
    end = _trunk_end(spec.layers)
    if end:
        x = _trunk_forward(spec, params, x, end, caches)
    for i in range(end, len(spec.layers)):
        layer = spec.layers[i]
        if isinstance(layer, Relu):
            caches[i] = x > 0
            x = np.maximum(x, 0)
        elif isinstance(layer, Flatten):
            caches[i] = x.shape
            x = x.reshape(x.shape[0], -1)
        elif isinstance(layer, Dense):
            caches[i] = x
            # one (1,K)x(K,N) product per row: a row's bits do not depend on B
            x = np.matmul(x[:, None, :], params.layers[i]["w"].T)[:, 0] + params.layers[i]["b"]
    y = x if batched else x[0]
    return y, Tape(caches=caches, batched=batched, n_layers=len(spec.layers))


def _trunk_backward(spec: NetSpec, params: Params, caches: list, d, end: int, stop: int,
                    input_grad: bool, grads: list):
    """Walk layers [stop, end) back chunk by chunk, rebuilding each conv's
    patches from its cached input; returns the whole-batch dx, or None when
    ``input_grad`` is False. Conv gradients are built per item and summed
    over the batch once, so the chunking does not change their bits."""
    layers = spec.layers
    in_shapes = [tuple(spec.input_shape)] + spec.output_shapes()
    n = len(d)
    stacks = {}
    dx = None
    for lo in _chunk_starts(n):
        g = d[lo : lo + CHUNK]
        rows = slice(lo, lo + len(g))
        for i in range(end - 1, stop - 1, -1):
            layer = layers[i]
            if isinstance(layer, Conv2d):
                x, w = caches[i][rows], params.layers[i]["w"]
                if i not in stacks:
                    # numpy sums a one-channel d over (0, 2, 3) as one flat
                    # pairwise sum, which no per-item terms reproduce: keep d
                    o = w.shape[0]
                    stacks[i] = (np.empty((n, o, w[0].size), np.result_type(g, x)),
                                 np.empty((n, o, 1, 1) if o > 1 else (n,) + g.shape[1:], g.dtype))
                dw, db = stacks[i]
                g = _conv_backward(g, x, w, dw[rows], db[rows], input_grad or i > stop)
            elif isinstance(layer, Relu):
                if not _pool_follows(layers, i):
                    g = g * caches[i][rows]
            elif isinstance(layer, MaxPool2x2):
                if _pool_follows(layers, i - 1):
                    g = g * caches[i - 1][rows]
                g = _pool_backward(g, (caches[i][rows], (len(g),) + in_shapes[i]))
        if input_grad:
            dx = _keep(dx, g, lo, n)
    for i, (dw, db) in stacks.items():
        grads[i] = {"w": dw.sum(axis=0).reshape(params.layers[i]["w"].shape),
                    "b": db.sum(axis=(0, 2, 3))}
    return dx


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
    end = _trunk_end(spec.layers)
    for i in range(len(spec.layers) - 1, max(end, stop) - 1, -1):
        layer = spec.layers[i]
        cache = tape.caches[i]
        if isinstance(layer, Relu):
            d = d * cache
        elif isinstance(layer, Flatten):
            d = d.reshape(cache)
        elif isinstance(layer, Dense):
            grads[i] = {"w": d.T @ cache, "b": d.sum(axis=0)}
            if input_grad or i > stop:
                d = d @ params.layers[i]["w"]
    if stop < end:
        d = _trunk_backward(spec, params, tape.caches, d, end, stop, input_grad, grads)
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
