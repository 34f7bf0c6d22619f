"""Small deterministic CNN engine on plain numpy arrays.

Tensors are row-major numpy arrays; a network is an immutable NetSpec (input
shape plus a layer list) and a Params object holding per-layer weights.
Supported layers: conv2d (valid, stride 1), relu, maxpool2x2 (stride 2,
truncating odd dims), flatten, dense. ``forward`` takes one input form, a
batch of shape (B, *input_shape), and records a tape: the list of cached
activations, one entry per layer, which ``backward`` replays for exact
reverse-mode gradients. Everything is a pure function of its arrays, so two
runs with the same seed produce bit-identical trajectories.

Layers run in ``_order``: layer order, except that a relu directly before
a maxpool2x2 runs after the pool, on 4x fewer cells, with its mask cached
at pooled shape in the relu's tape slot. This is exact, ties included.
Where a window's max is > 0, the positive cells keep their values and
order under relu, so the same cell wins and gets the same gradient. Where
it is <= 0, the output is 0 and the gradient is 0 under either order.

Max-pooling copies its input once into four contiguous window planes
(top-left, top-right, bottom-left, bottom-right) and runs a strict ``>``
tournament over them, so ties go to the earliest position; the winning
position is cached as an int8 window index. The pooled value is the plain
``np.maximum`` of the top and bottom pairs' maxima, which on a tie of +0.0
with -0.0 keeps the top pair's bits. ``backward(..., input_grad=
False)`` skips the work that only the input gradient needs (the first conv
layer's patch GEMM and col2im) and returns None for it; training uses this,
since nothing reads the gradient of the features.

``forward`` is batch-invariant: each item's output has the same bits at any
batch size and position in the batch, so scoring may chunk a batch freely.
Convolutions already run one GEMM per item through stacked ``matmul``, and
pooling, relu and flatten are elementwise. A dense layer runs as one
(1,K)x(K,N) product per row rather than one (B,K)x(K,N) GEMM, whose
blocking, and so whose rounding, depends on B.

``forward`` walks ``_order``, ``CHUNK`` items at a time, each chunk through
every layer before the next one starts, so its work arrays stay small and
in cache. ``backward`` walks it in reverse through one step per layer
kind: over the head, the layers from the first flatten or dense on, with
the whole batch as one chunk, since a dense weight gradient is one GEMM
over the batch, then over the trunk before it, chunk by chunk. A conv
layer caches its input, not its im2col patch matrix, and backward rebuilds
each chunk's patches: compute traded for memory, as in Chen et al.,
"Training Deep Nets with Sublinear Memory Cost" (2016). Conv weight and bias
gradients are built per item and summed over the whole batch once, which
gives the bits of an unchunked pass. The one exception is a one-channel
conv's bias: numpy sums its gradient as one flat pairwise sum, so that layer
keeps its whole upstream gradient.

The chunk's work arrays (patches, conv outputs, pool planes, patch, col2im
and pool gradients) are made as each layer needs them and freed once the
next layer has read them, so a step holds one chunk's work arrays besides
the tape, and the allocator hands the same memory to the next chunk. The
tape holds whole-batch arrays that the call made, and may reference the
input batch itself, as the first layer's cache: no copy of it is made.
Neither engine call writes the input, so any number of tapes stay valid
side by side while their callers leave their inputs unchanged.
"""

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

# items per chunk in forward, in backward's trunk (the layers before the first
# Flatten or Dense), and grids per forward call when scoring; on a 2-vCPU
# OpenBLAS host 16 scored at 0.22 ms/frame and 128 at 0.40, since a chunk's
# work arrays stay in cache
CHUNK = 16


@dataclass(frozen=True)
class Conv2d:
    out_channels: int
    kernel_h: int
    kernel_w: int

    def __post_init__(self):
        if not min(self.out_channels, self.kernel_h, self.kernel_w) > 0:
            raise ValueError("conv2d out_channels and kernel sizes must be positive")


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

    def __post_init__(self):
        if not self.out_units > 0:
            raise ValueError("dense out_units must be positive")


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
        return ([tuple(self.input_shape)] + self.output_shapes())[-1]


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


def param_shapes(spec: NetSpec) -> dict:
    """{tensor name: shape} of every weight and bias of ``spec``, named and
    ordered as ``Params.tensors`` yields them; raises ValueError on an
    inconsistent chain."""
    shapes = {}
    in_shape = tuple(spec.input_shape)
    for i, (layer, out_shape) in enumerate(zip(spec.layers, spec.output_shapes())):
        if isinstance(layer, Conv2d):
            shapes[f"layer{i}.weight"] = (layer.out_channels, in_shape[0],
                                          layer.kernel_h, layer.kernel_w)
        elif isinstance(layer, Dense):
            shapes[f"layer{i}.weight"] = (layer.out_units, in_shape[0])
        if isinstance(layer, (Conv2d, Dense)):
            shapes[f"layer{i}.bias"] = (out_shape[0],)
        in_shape = out_shape
    return shapes


def init_params(spec: NetSpec, seed: int, dtype=np.float64) -> Params:
    """Uniform weights in [-1/sqrt(fan_in), 1/sqrt(fan_in)), zero biases.

    Weights are drawn in layer order, in float64, from one numpy Generator,
    ``default_rng((seed, 0x1A17))``, whose tag keeps this stream apart from
    the seed's other draws; then cast to ``dtype``. So the result is a pure
    function of (spec, seed), and float32 params are float64 params rounded.
    """
    shapes = param_shapes(spec)
    rng = np.random.default_rng((int(seed), 0x1A17))
    layers = []
    for i in range(len(spec.layers)):
        w_shape = shapes.get(f"layer{i}.weight")
        if w_shape is None:
            layers.append(None)
            continue
        bound = 1.0 / np.sqrt(math.prod(w_shape[1:]))  # a weight row spans the fan-in
        w = rng.uniform(-bound, bound, size=w_shape)
        layers.append({"w": w.astype(dtype), "b": np.zeros(shapes[f"layer{i}.bias"], dtype=dtype)})
    return Params(layers=layers, seed=int(seed))


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
    """Same-width integer view of a float array, for branch-free selection in
    ``_pool_backward``.

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
    # y = where(take_bot, bot, y): np.maximum returns its second operand on a
    # tie, so a +0.0/-0.0 tie keeps y's bits
    np.maximum(bot, y, out=y)
    idx = 2 * take_bot.view(np.int8) + right.view(np.int8)
    return y, idx


def _pool_backward(d, idx, xshape):
    h2, w2 = xshape[2] // 2, xshape[3] // 2
    dx = np.zeros(xshape, dtype=d.dtype)
    for k in range(4):
        p, q = divmod(k, 2)
        keep = -(idx == k).view(np.int8)  # 0 or -1 (all bits set)
        # dx's window cell k gets d where it won and keeps +0.0 elsewhere
        np.bitwise_and(_bits(d), keep, out=_bits(dx[:, :, p : 2 * h2 : 2, q : 2 * w2 : 2]))
    return dx


def _order(layers) -> list:
    """Layer indices in the order they run: layer order, except that a Relu
    directly before a MaxPool2x2 runs after it."""
    order = list(range(len(layers)))
    for i in range(len(layers) - 1):
        if isinstance(layers[i], Relu) and isinstance(layers[i + 1], MaxPool2x2):
            order[i], order[i + 1] = i + 1, i
    return order


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


def forward(spec: NetSpec, params: Params, x: np.ndarray):
    """Run the network on a batch ``x`` of shape (B, *spec.input_shape);
    returns (output, tape).

    The batch runs chunk by chunk through every layer in ``_order``. The
    tape, which ``backward`` consumes, is the list of per-layer caches: a
    whole-batch array for each layer but a flatten, whose slot is None. A
    first conv or dense layer's slot is ``x`` itself, which ``forward``
    never writes; the caller must not change ``x`` while the tape is in use.
    """
    x = np.asarray(x)
    if x.shape[1:] != tuple(spec.input_shape):
        raise ValueError(f"input shape {x.shape} does not match a batch of {spec.input_shape}")
    if len(params.layers) != len(spec.layers):
        raise ValueError("params do not match spec layer count")
    layers = spec.layers
    order = _order(layers)
    caches = [None] * len(layers)
    n = len(x)
    out = None
    for lo in _chunk_starts(n):
        h = x[lo : lo + CHUNK]
        for i in order:
            layer = layers[i]
            if isinstance(layer, Conv2d):
                # the first layer's input is the batch itself: cache x, not a copy
                caches[i] = x if i == 0 else _keep(caches[i], h, lo, n)
                h, _ = _conv_forward(h, params.layers[i]["w"], params.layers[i]["b"])
            elif isinstance(layer, Relu):
                caches[i] = _keep(caches[i], h > 0, lo, n)
                h = np.maximum(h, 0)
            elif isinstance(layer, MaxPool2x2):
                h, idx = _pool_forward(h)
                caches[i] = _keep(caches[i], idx, lo, n)
            elif isinstance(layer, Flatten):
                h = h.reshape(len(h), -1)
            elif isinstance(layer, Dense):
                caches[i] = x if i == 0 else _keep(caches[i], h, lo, n)
                # one (1,K)x(K,N) product per row: a row's bits do not depend on B
                h = np.matmul(h[:, None, :], params.layers[i]["w"].T)[:, 0] + params.layers[i]["b"]
        out = _keep(out, h, lo, n)
    return out, caches


def backward(spec: NetSpec, params: Params, tape: list, upstream: np.ndarray,
             *, input_grad: bool = True):
    """Reverse-mode gradients of the forward pass.

    ``upstream`` has the shape of the forward output. Returns (grads, dx)
    where grads mirrors the Params layout and dx is the gradient w.r.t. the
    input batch. With ``input_grad=False`` the walk stops at the first layer
    with parameters, skipping the work that only dx needs, and dx is None.
    """
    if len(tape) != len(spec.layers):
        raise ValueError("tape does not match spec")
    layers = spec.layers
    in_shapes = [tuple(spec.input_shape)] + spec.output_shapes()
    d = np.asarray(upstream)
    n = len(d)
    grads = [None] * len(layers)
    stacks = {}  # conv layer -> per-item (dw, db) terms of the whole batch
    stop = 0
    if not input_grad:
        stop = next((i for i, e in enumerate(params.layers) if e is not None), len(layers))

    def step(i, g, rows):
        """Layer i's backward on the items ``rows`` of the batch."""
        layer, cache = layers[i], tape[i]
        want_d = input_grad or i > stop
        if isinstance(layer, Conv2d):
            x, w = cache[rows], params.layers[i]["w"]
            if i not in stacks:
                # numpy sums a one-channel d over (0, 2, 3) as one flat
                # pairwise sum, which no per-item terms reproduce: keep d
                o = w.shape[0]
                stacks[i] = (np.empty((n, o, w[0].size), np.result_type(g, x)),
                             np.empty((n, o, 1, 1) if o > 1 else (n,) + g.shape[1:], g.dtype))
            dw, db = stacks[i]
            return _conv_backward(g, x, w, dw[rows], db[rows], want_d)
        if isinstance(layer, Relu):
            return g * cache[rows]
        if isinstance(layer, MaxPool2x2):
            return _pool_backward(g, cache[rows], (len(g),) + in_shapes[i])
        if isinstance(layer, Flatten):
            return g.reshape((len(g),) + in_shapes[i])
        # a dense layer sits in the head, which runs as one chunk: one GEMM over the batch
        grads[i] = {"w": g.T @ cache, "b": g.sum(axis=0)}
        return g @ params.layers[i]["w"] if want_d else None

    end = _trunk_end(layers)
    steps = [i for i in reversed(_order(layers)) if i >= stop]
    head, trunk = [i for i in steps if i >= end], [i for i in steps if i < end]
    for i in head:
        d = step(i, d, slice(0, n))
    if trunk:
        dx = None
        for lo in _chunk_starts(n):
            g = d[lo : lo + CHUNK]
            rows = slice(lo, lo + len(g))
            for i in trunk:
                g = step(i, g, rows)
            if input_grad:
                dx = _keep(dx, g, lo, n)
        d = dx
        for i, (dw, db) in stacks.items():
            grads[i] = {"w": dw.sum(axis=0).reshape(params.layers[i]["w"].shape),
                        "b": db.sum(axis=(0, 2, 3))}
    return grads, (d if input_grad else None)


# Adam's moment decay rates and denominator offset (Kingma & Ba, 2015)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


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


def adam_step(params: Params, grads: list, state: AdamState, lr: float):
    """One bias-corrected adaptive-moment update; mutates params and state.

    Raises ValueError, naming the step, when a moment is not finite: a NaN or
    infinite gradient, or one whose square overflows, would otherwise turn
    the updates into NaN or silently into zero.
    """
    state.t += 1
    c1 = 1.0 - ADAM_BETA1**state.t
    c2 = 1.0 - ADAM_BETA2**state.t
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
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            # m carries any NaN/inf in g, v any overflow of g * g
            if not (np.isfinite(m).all() and np.isfinite(v).all()):
                raise ValueError(f"training diverged: the gradient or its moments for "
                                 f"layer {i} {k} are not finite at Adam step {state.t}")
            entry[k] -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
