"""CNN timings measured from outside the engine.

Each layer of ``default_net_spec()`` is cut out as a sub-``NetSpec`` with its
``Params`` sliced to match, so the timings call only ``neuralnet.forward``
and ``neuralnet.backward``. ``Flatten, Dense, Relu, Dense`` run as one
``head`` block, because ``forward`` treats only 4-D input as a batch.
"""

import time

import numpy as np

from barkspace import models, neuralnet as nn
from barkspace.features import FeatureConfig
from barkspace.segmentation import SegmentationConfig

# (name, first layer index, end layer index) into default_net_spec().layers
BLOCKS = (("conv1", 0, 1), ("relu1", 1, 2), ("pool1", 2, 3), ("conv2", 3, 4),
          ("relu2", 4, 5), ("pool2", 5, 6), ("head", 6, 10))
TRAIN_BATCH = 128  # 64 pairs x 2 branches, the training step's batch
SCORE_BATCHES = (1, 64, 1024)


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * float(np.median(times))


def layer_ms(seed: int, reps: int = 5) -> dict:
    """{"neuralnet.<block>.fwd_ms"/".bwd_ms": median ms at TRAIN_BATCH}."""
    spec = nn.default_net_spec()
    params = nn.init_params(spec, seed, dtype=np.float32)
    shapes = [tuple(spec.input_shape)] + spec.output_shapes()
    rng = np.random.default_rng(seed)
    x = rng.random((TRAIN_BATCH,) + shapes[0], dtype=np.float32)
    out = {}
    for name, lo, hi in BLOCKS:
        sub = nn.NetSpec(input_shape=shapes[lo], layers=spec.layers[lo:hi])
        sub_params = nn.Params(layers=params.layers[lo:hi], seed=params.seed)
        y, tape = nn.forward(sub, sub_params, x)
        upstream = rng.standard_normal(y.shape, dtype=np.float32)
        out[f"neuralnet.{name}.fwd_ms"] = _median_ms(lambda: nn.forward(sub, sub_params, x), reps)
        out[f"neuralnet.{name}.bwd_ms"] = _median_ms(
            lambda: nn.backward(sub, sub_params, tape, upstream), reps)
        x = y
    return out


def predict_many_ms_per_frame(seed: int, frames_per_size: int = 512) -> dict:
    """{"models.predict_many.ms_per_frame.b<B>": median ms per frame}.

    Each batch size scores about ``frames_per_size`` frames in total.
    """
    spec = nn.default_net_spec()
    ckpt = models.Checkpoint(dimension="valence", seed=seed, net_spec=spec,
                             params=nn.init_params(spec, seed, dtype=np.float32),
                             feature_config=FeatureConfig(),
                             segmentation_config=SegmentationConfig(),
                             sample_rate_hz=22050)
    rng = np.random.default_rng(seed)
    out = {}
    for b in SCORE_BATCHES:
        grids = list(rng.random((b,) + tuple(spec.input_shape[1:])))
        reps = max(2, frames_per_size // b)
        out[f"models.predict_many.ms_per_frame.b{b}"] = _median_ms(
            lambda: models.predict_many(ckpt, grids), reps) / b
    return out
