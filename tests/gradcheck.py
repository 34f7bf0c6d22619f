"""Finite-difference gradient checking shared by unit and acceptance tests.

The loss is a fixed random projection of the network output, so nets with
non-scalar outputs are checked too. Central differences are exact for a
piecewise-linear network away from relu kinks and pool ties, so candidate
(params, input) draws whose smallest activation margin falls under
MIN_MARGIN are rejected and redrawn: there the true derivative is one-sided
and finite differences measure nothing meaningful.
"""

import numpy as np

from barkspace import neuralnet as nn

H = 1e-5
# a +/-H parameter bump shifts activations by at most a few H here; any
# margin comfortably above that keeps the FD stencil on one linear piece
MIN_MARGIN = 2e-4
REL_FLOOR = 1e-4  # gradients below this magnitude are compared absolutely


def min_activation_margin(spec, params, x):
    """Smallest |relu pre-activation| and pool win margin over the net."""
    h = np.asarray(x)[None]
    margin = np.inf
    for i, layer in enumerate(spec.layers):
        if isinstance(layer, nn.Conv2d):
            h, _ = nn._conv_forward(h, params.layers[i]["w"], params.layers[i]["b"])
        elif isinstance(layer, nn.Relu):
            margin = min(margin, float(np.abs(h).min()))
            h = np.maximum(h, 0)
        elif isinstance(layer, nn.MaxPool2x2):
            b, c, hh, ww = h.shape
            h2, w2 = hh // 2, ww // 2
            v = h[:, :, : 2 * h2, : 2 * w2].reshape(b, c, h2, 2, w2, 2)
            v = v.transpose(0, 1, 2, 4, 3, 5).reshape(b, c, h2, w2, 4)
            top2 = np.sort(v, axis=-1)[..., -2:]
            margin = min(margin, float((top2[..., 1] - top2[..., 0]).min()))
            h, _ = nn._pool_forward(h)
        elif isinstance(layer, nn.Flatten):
            h = h.reshape(h.shape[0], -1)
        elif isinstance(layer, nn.Dense):
            h = h @ params.layers[i]["w"].T + params.layers[i]["b"]
    return margin


def rel_error(a, b):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), REL_FLOOR)


def max_gradient_error(spec, params, x, rng):
    """Worst relative error between analytic and central-FD gradients."""
    x = np.asarray(x)[None]
    y, tape = nn.forward(spec, params, x)
    proj = rng.standard_normal(np.shape(y))
    grads, dx = nn.backward(spec, params, tape, proj)

    def loss():
        out, _ = nn.forward(spec, params, x)
        return float((proj * out).sum())

    worst = 0.0
    for i, entry in enumerate(params.layers):
        if entry is None:
            continue
        for k in ("w", "b"):
            arr = entry[k]
            flat = arr.reshape(-1)
            fd = np.empty_like(flat)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + H
                fp = loss()
                flat[j] = orig - H
                fm = loss()
                flat[j] = orig
                fd[j] = (fp - fm) / (2 * H)
            worst = max(worst, float(rel_error(grads[i][k].reshape(-1), fd).max()))

    xflat = np.asarray(x).reshape(-1)
    fd = np.empty_like(xflat)
    for j in range(xflat.size):
        orig = xflat[j]
        xflat[j] = orig + H
        fp = loss()
        xflat[j] = orig - H
        fm = loss()
        xflat[j] = orig
        fd[j] = (fp - fm) / (2 * H)
    worst = max(worst, float(rel_error(np.asarray(dx).reshape(-1), fd).max()))
    return worst


def draw_checkable_case(spec, rng, max_tries=50):
    """(params, x) with every activation safely away from a kink or tie."""
    for _ in range(max_tries):
        params = nn.init_params(spec, int(rng.integers(0, 2**31)))
        x = rng.uniform(-1.0, 1.0, size=spec.input_shape)
        if min_activation_margin(spec, params, x) > MIN_MARGIN:
            return params, x
    raise RuntimeError("could not draw a well-margined case; net too large?")


def random_small_spec(rng):
    """A random spec covering conv/relu/pool/flatten/dense in varied shapes."""
    for _ in range(50):
        c = int(rng.integers(1, 3))
        hgt = int(rng.integers(6, 11))
        wid = int(rng.integers(5, 10))
        layers = [nn.Conv2d(int(rng.integers(1, 4)), int(rng.integers(2, 4)), int(rng.integers(2, 4))),
                  nn.Relu()]
        if rng.random() < 0.7:
            layers.append(nn.MaxPool2x2())
        if rng.random() < 0.5:
            layers += [nn.Conv2d(int(rng.integers(1, 3)), 2, 2), nn.Relu()]
        layers.append(nn.Flatten())
        layers.append(nn.Dense(int(rng.integers(2, 6))))
        if rng.random() < 0.7:
            layers.append(nn.Relu())
        layers.append(nn.Dense(1))
        spec = nn.NetSpec((c, hgt, wid), tuple(layers))
        try:
            spec.output_shapes()
        except ValueError:
            continue
        return spec
    raise RuntimeError("failed to draw a valid random spec")
