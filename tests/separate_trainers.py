"""The baseline and twin-network trainers as they were before they shared
one training loop: each with its own Adam set-up, epoch loop, shuffle and
loss history. Like the shared loop, each takes the frames' grids and their
labels. Tests use them as the oracle the shared loop must match bit for bit.
"""

import numpy as np

from barkspace import neuralnet as nn
from barkspace.features import FeatureConfig
from barkspace.models import (Checkpoint, TrainResult, _check_loss, _check_training_set,
                              make_pairs)
from barkspace.segmentation import SegmentationConfig


def _stack(grids):
    """(n_mels, n_time) grids as a float32 batch with a channel axis: a copy."""
    return np.stack([np.asarray(g, dtype=np.float32)[None] for g in grids])


def _net_spec_for(features, net_spec):
    spec = net_spec or nn.default_net_spec(input_shape=tuple(features.shape[1:]))
    if spec.output_shape != (1,):
        raise ValueError("regression head must end in dense(1)")
    return spec


def _checkpoint(cfg, spec, params, feature_config, segmentation_config, sample_rate_hz):
    return Checkpoint(
        dimension=cfg.dimension,
        seed=cfg.seed,
        net_spec=spec,
        params=params,
        feature_config=feature_config or FeatureConfig(),
        segmentation_config=segmentation_config or SegmentationConfig(),
        sample_rate_hz=sample_rate_hz,
    )


def train_baseline(grids, labels, cfg, *, net_spec=None, feature_config=None,
                   segmentation_config=None, sample_rate_hz=22050):
    _check_training_set(labels, cfg.dimension)
    x = _stack(grids)
    y = np.asarray([lab.numeric for lab in labels], dtype=np.float32)
    spec = _net_spec_for(x, net_spec)

    params = nn.init_params(spec, cfg.seed, dtype=np.float32)
    state = nn.init_adam(params)
    history = []
    n = len(x)
    for epoch in range(cfg.epochs):
        rng = np.random.default_rng((cfg.seed, epoch, 0x5487FE))
        perm = rng.permutation(n)
        losses = []
        for lo in range(0, n, cfg.batch_size):
            sel = perm[lo : lo + cfg.batch_size]
            out, tape = nn.forward(spec, params, x[sel])
            pred = out[:, 0]
            err = pred - y[sel]
            losses.append(_check_loss(float(np.mean(err * err)), state.t + 1) * len(sel))
            upstream = (2.0 / len(sel)) * err[:, None]
            grads, _ = nn.backward(spec, params, tape, upstream.astype(np.float32),
                                   input_grad=False)
            nn.adam_step(params, grads, state, cfg.learning_rate)
        history.append(sum(losses) / n)

    ckpt = _checkpoint(cfg, spec, params, feature_config, segmentation_config, sample_rate_hz)
    return TrainResult(checkpoint=ckpt, loss_history=history)


def train_siamese(grids, labels, cfg, *, net_spec=None, feature_config=None,
                  segmentation_config=None, sample_rate_hz=22050):
    _check_training_set(labels, cfg.dimension)
    x = _stack(grids)
    spec = _net_spec_for(x, net_spec)

    pairs_per_epoch = cfg.pairs_per_epoch or 4 * len(x)
    params = nn.init_params(spec, cfg.seed, dtype=np.float32)
    state = nn.init_adam(params)
    history = []
    for epoch in range(cfg.epochs):
        pairs = make_pairs(labels, pairs_per_epoch, cfg.seed, epoch)
        rng = np.random.default_rng((cfg.seed, epoch, 0x5487FE))
        perm = rng.permutation(len(pairs))
        ia = np.asarray([pairs[k][0] for k in perm])
        ib = np.asarray([pairs[k][1] for k in perm])
        tg = np.asarray([pairs[k][2] for k in perm], dtype=np.float32)
        losses = []
        for lo in range(0, len(pairs), cfg.batch_size):
            sa, sb = ia[lo : lo + cfg.batch_size], ib[lo : lo + cfg.batch_size]
            t = tg[lo : lo + cfg.batch_size]
            b = len(t)
            stacked = np.concatenate((x[sa], x[sb]))
            out, tape = nn.forward(spec, params, stacked)
            diff = out[:b, 0] - out[b:, 0]
            err = diff - t
            losses.append(_check_loss(float(np.mean(err * err)), state.t + 1) * b)
            g = (2.0 / b) * err
            upstream = np.concatenate((g, -g))[:, None].astype(np.float32)
            grads, _ = nn.backward(spec, params, tape, upstream, input_grad=False)
            nn.adam_step(params, grads, state, cfg.learning_rate)
        history.append(sum(losses) / len(pairs))

    ckpt = _checkpoint(cfg, spec, params, feature_config, segmentation_config, sample_rate_hz)
    return TrainResult(checkpoint=ckpt, loss_history=history)
