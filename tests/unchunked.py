"""The CNN engine's forward and backward as they were before the trunk ran
in chunks: every layer on the whole batch, each conv caching its patch
matrix. Tests use it as the oracle the chunked engine must match bit for bit.
"""

import numpy as np

from barkspace.neuralnet import Conv2d, Dense, Flatten, MaxPool2x2, NetSpec, Params, Relu


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
    """Run the network on a batch (B, *spec.input_shape); returns (output,
    tape), the tape being the list of per-layer caches.
    """
    x = np.asarray(x)
    if x.shape[1:] != tuple(spec.input_shape):
        raise ValueError(f"input shape {x.shape} does not match a batch of {spec.input_shape}")
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
    return x, caches


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
    d = np.asarray(upstream)

    grads = [None] * len(spec.layers)
    stop = 0
    if not input_grad:
        stop = next((i for i, e in enumerate(params.layers) if e is not None), len(spec.layers))
    for i in range(len(spec.layers) - 1, stop - 1, -1):
        layer = spec.layers[i]
        cache = tape[i]
        want_d = input_grad or i > stop
        if isinstance(layer, Conv2d):
            d, dw, db = _conv_backward(d, cache, params.layers[i]["w"], want_d)
            grads[i] = {"w": dw, "b": db}
        elif isinstance(layer, Relu):
            if not _pool_follows(spec.layers, i):
                d = d * cache
        elif isinstance(layer, MaxPool2x2):
            if _pool_follows(spec.layers, i - 1):
                d = d * tape[i - 1]
            d = _pool_backward(d, cache)
        elif isinstance(layer, Flatten):
            d = d.reshape(cache)
        elif isinstance(layer, Dense):
            xin = cache
            grads[i] = {"w": d.T @ xin, "b": d.sum(axis=0)}
            if want_d:
                d = d @ params.layers[i]["w"]
    return grads, (d if input_grad else None)
