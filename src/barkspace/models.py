"""The two trainable regressors plus pair construction and persistence.

Both models share the same CNN head producing one scalar per input. The
baseline is trained to regress the numeric label value directly. The
adjusted twin-network model instead scores two inputs with the shared head
and is trained so that score(a) - score(b) matches the signed numeric
difference of their ordinal labels; single-input inference then uses the
branch scalar, which is an absolute coordinate up to an additive constant
absorbed later by boundary calibration.

Scoring takes feature grids, never audio: callers featurise each event once
and share the grids between both axes. ``predict_many`` is the one scorer;
it runs the network in fixed chunks, which is exact because ``forward`` is
batch-invariant, so an event scores the same bits alone or inside any batch.

Checkpoints are a self-describing binary container ("BDN1"): JSON metadata,
raw float32 tensors, and a trailing CRC32.
"""

import json
import math
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import neuralnet as nn
from .evaluation import Boundaries, event_score
from .features import FeatureConfig
from .labels import DIMENSIONS, OrdinalLabel, label_from_value
from .segmentation import SegmentationConfig

CHECKPOINT_MAGIC = b"BDN1"
TENSOR_FILE_MAGIC = b"BDF1"
CHECKPOINT_VERSION = 1


class CheckpointError(Exception):
    """Unreadable, corrupt, or mismatched checkpoint file."""


@dataclass(frozen=True)
class TrainConfig:
    dimension: str
    epochs: int = 15
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 42
    pairs_per_epoch: Optional[int] = None  # None -> 4 * n_frames

    def __post_init__(self):
        if self.dimension not in DIMENSIONS:
            raise ValueError(f"dimension must be one of {DIMENSIONS}")
        if self.epochs <= 0 or self.batch_size <= 0 or self.learning_rate <= 0:
            raise ValueError("epochs, batch_size and learning_rate must be positive")
        if self.pairs_per_epoch is not None and self.pairs_per_epoch <= 0:
            raise ValueError("pairs_per_epoch must be positive")


@dataclass
class Checkpoint:
    """Everything needed to reproduce predictions, with no external context."""

    dimension: str
    seed: int
    net_spec: nn.NetSpec
    params: nn.Params
    feature_config: FeatureConfig
    segmentation_config: SegmentationConfig
    sample_rate_hz: int
    boundaries: Optional[Boundaries] = None
    version: int = CHECKPOINT_VERSION


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    loss_history: list = field(default_factory=list)


def _stack_features(features: Sequence[np.ndarray]) -> np.ndarray:
    """Stack (n_mels, n_time) grids into a float32 batch with a channel axis."""
    return np.stack([np.asarray(f, dtype=np.float32)[None] for f in features])


def _check_training_set(values: Sequence[float]):
    if len(values) == 0:
        raise ValueError("training set is empty")
    present = set(float(v) for v in values)
    missing = {-1.0, 0.0, 1.0} - present
    if missing:
        raise ValueError(
            "training set must contain all three label values; missing "
            + ", ".join(str(v) for v in sorted(missing))
        )


def _check_loss(loss: float, step: int) -> float:
    """``loss`` itself if finite; a diverged run must not go on to a checkpoint."""
    if not np.isfinite(loss):
        raise ValueError(f"training diverged: the batch loss is not finite ({loss}) "
                         f"at step {step}")
    return loss


def _net_spec_for(features: np.ndarray, net_spec: Optional[nn.NetSpec]) -> nn.NetSpec:
    spec = net_spec or nn.default_net_spec(input_shape=tuple(features.shape[1:]))
    if spec.output_shape != (1,):
        raise ValueError("regression head must end in dense(1)")
    return spec


def make_pairs(labels: Sequence[OrdinalLabel], pairs_per_epoch: int, seed: int,
               epoch: int) -> list[tuple[int, int, float]]:
    """Sample (index_a, index_b, target) pairs, target = value(a) - value(b).

    Sampling is stratified over the 9 ordered label combinations so the cell
    counts are as uniform as the available labels allow; the remainder cells
    are picked uniformly at random. Pairs with a == b (same index) never
    occur. The stream is a pure function of (seed, epoch).
    """
    if len(labels) < 2:
        raise ValueError("need at least 2 labeled frames to form pairs")
    if pairs_per_epoch <= 0:
        raise ValueError("pairs_per_epoch must be positive")

    rng = np.random.default_rng((int(seed), int(epoch), 0x9A125))
    order = (OrdinalLabel.HIGH, OrdinalLabel.MEDIUM, OrdinalLabel.LOW)
    groups = {lab: np.flatnonzero([l == lab for l in labels]) for lab in order}
    cells = [
        (a, b)
        for a in order
        for b in order
        if len(groups[a]) and len(groups[b]) and not (a == b and len(groups[a]) < 2)
    ]
    if not cells:
        raise ValueError("labels admit no valid pairs")

    base = pairs_per_epoch // len(cells)
    counts = [base] * len(cells)
    for j in rng.choice(len(cells), size=pairs_per_epoch % len(cells), replace=False):
        counts[j] += 1

    pairs = []
    for (a, b), count in zip(cells, counts):
        if count == 0:
            continue
        ga, gb = groups[a], groups[b]
        ia = ga[rng.integers(0, len(ga), size=count)]
        ib = gb[rng.integers(0, len(gb), size=count)]
        if a == b:
            clash = ia == ib
            while clash.any():
                ib[clash] = gb[rng.integers(0, len(gb), size=int(clash.sum()))]
                clash = ia == ib
        target = a.numeric - b.numeric
        pairs.extend((int(i), int(j), target) for i, j in zip(ia, ib))
    return pairs


def train_baseline(train_frames: Sequence[tuple[np.ndarray, float]], cfg: TrainConfig,
                   *, net_spec: Optional[nn.NetSpec] = None,
                   feature_config: Optional[FeatureConfig] = None,
                   segmentation_config: Optional[SegmentationConfig] = None,
                   sample_rate_hz: int = 22050) -> TrainResult:
    """Mean-squared-error regression of the numeric label value.

    Data is reshuffled every epoch by a (seed, epoch)-derived generator;
    the result is a pure function of (data, config, seed).
    """
    feats = [f for f, _ in train_frames]
    values = [v for _, v in train_frames]
    _check_training_set(values)
    x = _stack_features(feats)
    y = np.asarray(values, dtype=np.float32)
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

    ckpt = Checkpoint(
        dimension=cfg.dimension,
        seed=cfg.seed,
        net_spec=spec,
        params=params,
        feature_config=feature_config or FeatureConfig(),
        segmentation_config=segmentation_config or SegmentationConfig(),
        sample_rate_hz=sample_rate_hz,
    )
    return TrainResult(checkpoint=ckpt, loss_history=history)


def train_siamese(train_frames: Sequence[tuple[np.ndarray, float]], cfg: TrainConfig,
                  *, net_spec: Optional[nn.NetSpec] = None,
                  feature_config: Optional[FeatureConfig] = None,
                  segmentation_config: Optional[SegmentationConfig] = None,
                  sample_rate_hz: int = 22050) -> TrainResult:
    """Train the shared head to regress ordered numeric label differences.

    Each pair runs both inputs through the same weights; the loss is the MSE
    between score(a) - score(b) and the pair target, and gradients from both
    branches accumulate into the shared parameters (both branches are part
    of one stacked batch, so accumulation order is fixed).
    """
    feats = [f for f, _ in train_frames]
    values = [v for _, v in train_frames]
    _check_training_set(values)
    labels = [label_from_value(float(v)) for v in values]
    x = _stack_features(feats)
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
            sa, sb, t = ia[lo : lo + cfg.batch_size], ib[lo : lo + cfg.batch_size], tg[lo : lo + cfg.batch_size]
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

    ckpt = Checkpoint(
        dimension=cfg.dimension,
        seed=cfg.seed,
        net_spec=spec,
        params=params,
        feature_config=feature_config or FeatureConfig(),
        segmentation_config=segmentation_config or SegmentationConfig(),
        sample_rate_hz=sample_rate_hz,
    )
    return TrainResult(checkpoint=ckpt, loss_history=history)


def _as_net_input(spec: nn.NetSpec, x: np.ndarray, dtype) -> np.ndarray:
    """Accept a feature grid (n_mels, n_time) or a full (C, H, W) tensor."""
    x = np.asarray(x, dtype=dtype)
    if x.shape == tuple(spec.input_shape):
        return x
    if x.ndim == 2 and (1,) + x.shape == tuple(spec.input_shape):
        return x[None]
    raise ValueError(f"input shape {x.shape} does not fit spec {spec.input_shape}")


def siamese_forward(spec: nn.NetSpec, params: nn.Params, xa: np.ndarray,
                    xb: np.ndarray) -> float:
    """Predicted ordered distance score(xa) - score(xb) under shared weights."""
    dtype = next(params.tensors())[1].dtype
    ya, _ = nn.forward(spec, params, _as_net_input(spec, xa, dtype))
    yb, _ = nn.forward(spec, params, _as_net_input(spec, xb, dtype))
    return float(ya[0]) - float(yb[0])


def predict_many(ckpt: Checkpoint, features: Sequence[np.ndarray]) -> np.ndarray:
    """Single-branch scalar of each feature grid, as float64.

    Grids run through the network ``neuralnet.CHUNK`` at a time; each score
    has the same bits whatever the list's length or the grid's place in it.
    """
    out = np.zeros(len(features))
    for lo in range(0, len(features), nn.CHUNK):
        y, _ = nn.forward(ckpt.net_spec, ckpt.params,
                          _stack_features(features[lo : lo + nn.CHUNK]))
        out[lo : lo + len(y)] = y[:, 0]
    return out


def predict_event(ckpt: Checkpoint, features: Sequence[np.ndarray]) -> float:
    """Event score of one event's feature grids: ``event_score`` of their scores."""
    return event_score(predict_many(ckpt, features))


def _layer_to_dict(layer: nn.Layer) -> dict:
    if isinstance(layer, nn.Conv2d):
        return {"kind": "conv2d", "out_channels": layer.out_channels,
                "kernel_h": layer.kernel_h, "kernel_w": layer.kernel_w}
    if isinstance(layer, nn.Relu):
        return {"kind": "relu"}
    if isinstance(layer, nn.MaxPool2x2):
        return {"kind": "maxpool2x2"}
    if isinstance(layer, nn.Flatten):
        return {"kind": "flatten"}
    if isinstance(layer, nn.Dense):
        return {"kind": "dense", "out_units": layer.out_units}
    raise ValueError(f"unknown layer {layer!r}")


def _layer_from_dict(d: dict) -> nn.Layer:
    if not isinstance(d, dict):
        raise CheckpointError(f"layer entry {d!r} is not an object")
    kind = d.get("kind")
    if kind == "conv2d":
        return nn.Conv2d(d["out_channels"], d["kernel_h"], d["kernel_w"])
    if kind == "relu":
        return nn.Relu()
    if kind == "maxpool2x2":
        return nn.MaxPool2x2()
    if kind == "flatten":
        return nn.Flatten()
    if kind == "dense":
        return nn.Dense(d["out_units"])
    raise CheckpointError(f"unknown layer kind {kind!r}")


def _pack_container(magic: bytes, meta: dict, tensors) -> bytes:
    """Length-prefixed JSON metadata, named float32 tensor blocks, CRC32."""
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [magic, struct.pack("<I", len(meta_bytes)), meta_bytes]
    for name, arr in tensors:
        name_b = name.encode("utf-8")
        a = np.ascontiguousarray(arr, dtype="<f4")
        parts.append(struct.pack("<I", len(name_b)))
        parts.append(name_b)
        parts.append(struct.pack("<I", a.ndim))
        parts.append(struct.pack(f"<{a.ndim}I", *a.shape))
        parts.append(a.tobytes())
    blob = b"".join(parts)
    return blob + struct.pack("<I", zlib.crc32(blob))


def _unpack_container(blob: bytes, magic: bytes, path) -> tuple[dict, dict]:
    if len(blob) < 12:
        raise CheckpointError(f"{path}: truncated file")
    (stored_crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    if zlib.crc32(blob[:-4]) != stored_crc:
        raise CheckpointError(f"{path}: checksum mismatch, file is corrupt")
    if blob[0:4] != magic:
        raise CheckpointError(f"{path}: bad magic, expected {magic!r}")
    (meta_len,) = struct.unpack_from("<I", blob, 4)
    if 8 + meta_len > len(blob) - 4:
        raise CheckpointError(f"{path}: truncated metadata")
    try:
        meta = json.loads(blob[8 : 8 + meta_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad or too deeply nested JSON
        raise CheckpointError(f"{path}: metadata is not UTF-8 JSON: {exc}") from exc

    tensors = {}
    pos = 8 + meta_len
    end = len(blob) - 4
    while pos < end:
        try:
            (name_len,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            name = blob[pos : pos + name_len].decode("utf-8")
            pos += name_len
            (rank,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            shape = struct.unpack_from(f"<{rank}I", blob, pos)
            pos += 4 * rank
            count = math.prod(shape)
            if pos + 4 * count > end:  # numpy raises OverflowError past ssize_t
                raise ValueError("tensor data runs past the end")
            arr = np.frombuffer(blob, dtype="<f4", count=count, offset=pos).reshape(shape)
            pos += 4 * count
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: tensor name is not UTF-8") from exc
        except (struct.error, ValueError) as exc:
            raise CheckpointError(f"{path}: truncated tensor block") from exc
        if name in tensors:
            raise CheckpointError(f"{path}: repeated tensor {name!r}")
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: tensor {name!r} holds NaN or infinite values")
        tensors[name] = arr.astype(np.float32)
    return meta, tensors


def save_tensor_file(path, named_arrays, meta: Optional[dict] = None) -> None:
    """Write named float32 arrays in the checkpoint's block format (BDF1)."""
    full_meta = {"version": CHECKPOINT_VERSION, "kind": "tensors"}
    full_meta.update(meta or {})
    Path(path).write_bytes(_pack_container(TENSOR_FILE_MAGIC, full_meta,
                                           list(named_arrays)))


def load_tensor_file(path) -> tuple[dict, dict]:
    """Read back a BDF1 tensor file as (metadata, {name: float32 array})."""
    return _unpack_container(Path(path).read_bytes(), TENSOR_FILE_MAGIC, path)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write the BDN1 container: JSON metadata, float32 tensors, CRC32."""
    meta = {
        "version": ckpt.version,
        "dimension": ckpt.dimension,
        "seed": ckpt.seed,
        "sample_rate_hz": ckpt.sample_rate_hz,
        "net_spec": {
            "input_shape": list(ckpt.net_spec.input_shape),
            "layers": [_layer_to_dict(l) for l in ckpt.net_spec.layers],
        },
        "feature_config": {
            "n_fft": ckpt.feature_config.n_fft,
            "hop": ckpt.feature_config.hop,
            "n_mels": ckpt.feature_config.n_mels,
            "fmin": ckpt.feature_config.fmin,
            "fmax": ckpt.feature_config.fmax,
            "db_floor": ckpt.feature_config.db_floor,
        },
        "segmentation_config": {
            "top_db": ckpt.segmentation_config.top_db,
            "target_len": ckpt.segmentation_config.target_len,
            "stride": ckpt.segmentation_config.stride,
            "detect_frame_len": ckpt.segmentation_config.detect_frame_len,
            "detect_hop": ckpt.segmentation_config.detect_hop,
        },
        "boundaries": None if ckpt.boundaries is None else
            {"t_low": ckpt.boundaries.t_low, "t_high": ckpt.boundaries.t_high},
    }
    Path(path).write_bytes(
        _pack_container(CHECKPOINT_MAGIC, meta, list(ckpt.params.tensors()))
    )


def _param_shapes(spec: nn.NetSpec) -> dict:
    """{tensor name: shape} for every tensor a checkpoint of ``spec`` holds."""
    shapes = {}
    in_shape = tuple(spec.input_shape)
    for i, (layer, out_shape) in enumerate(zip(spec.layers, spec.output_shapes())):
        if isinstance(layer, nn.Conv2d):
            shapes[f"layer{i}.weight"] = (layer.out_channels, in_shape[0],
                                          layer.kernel_h, layer.kernel_w)
        elif isinstance(layer, nn.Dense):
            shapes[f"layer{i}.weight"] = (layer.out_units, in_shape[0])
        if isinstance(layer, (nn.Conv2d, nn.Dense)):
            shapes[f"layer{i}.bias"] = (out_shape[0],)
        in_shape = out_shape
    return shapes


# float32 activations stay finite while every exact value is at most half the
# float32 maximum: rounding moves a float32 sum of K terms by a relative
# K * 6e-8 at most, far from a factor of 2 for any layer width in use
_ACTIVATION_LIMIT = float(np.finfo(np.float32).max) / 2


def _check_activation_range(layers: list, path):
    """Raise CheckpointError unless the net's activations stay finite for
    every input in [0, 1], the range of the log-mel grids.

    A bound on |activation| after layer i is, over its output units, the
    largest row sum of |weight| times the bound before it, plus |bias|;
    relu, max-pool and flatten never raise the bound.
    """
    bound = 1.0
    for i, entry in enumerate(layers):
        if entry is None:
            continue
        w = np.abs(entry["w"].astype(np.float64))
        rows = w.sum(axis=tuple(range(1, w.ndim)))
        bound = float(np.max(rows * bound + np.abs(entry["b"].astype(np.float64)), initial=0.0))
        if not bound <= _ACTIVATION_LIMIT:
            raise CheckpointError(f"{path}: tensors layer{i}.weight and layer{i}.bias can "
                                  f"drive activations past the float32 range")


def _meta_field(meta: dict, key: str, kind, path):
    """meta[key], which must be present and of type ``kind`` (bool is no int)."""
    value = meta.get(key)
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise CheckpointError(f"{path}: metadata field {key!r} is missing or not "
                              f"{kind.__name__}")
    return value


def load_checkpoint(path, dimension: Optional[str] = None) -> Checkpoint:
    """Read and verify a BDN1 container.

    Raises CheckpointError on a bad magic, version mismatch, truncation,
    checksum failure, missing or mistyped metadata, a missing, unknown,
    misshapen or non-finite tensor, weights that could drive an activation
    past the float32 range, or (when ``dimension`` is given) a dimension-tag
    mismatch.
    """
    meta, tensors = _unpack_container(Path(path).read_bytes(), CHECKPOINT_MAGIC, path)
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: metadata is not a JSON object")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {meta.get('version')!r}")
    tag = _meta_field(meta, "dimension", str, path)
    if tag not in DIMENSIONS:
        raise CheckpointError(f"{path}: unknown dimension tag {tag!r}")
    if dimension is not None and tag != dimension:
        raise CheckpointError(f"{path}: dimension tag is {tag!r}, expected {dimension!r}")
    seed = _meta_field(meta, "seed", int, path)
    sample_rate_hz = _meta_field(meta, "sample_rate_hz", int, path)
    net = _meta_field(meta, "net_spec", dict, path)
    fc = _meta_field(meta, "feature_config", dict, path)
    sc = _meta_field(meta, "segmentation_config", dict, path)
    b = meta.get("boundaries")
    # the dataclass constructors and the spec's shape chain check the values
    try:
        spec = nn.NetSpec(
            input_shape=tuple(_meta_field(net, "input_shape", list, path)),
            layers=tuple(_layer_from_dict(d) for d in _meta_field(net, "layers", list, path)),
        )
        spec.output_shapes()
        feature_config = FeatureConfig(**fc)
        segmentation_config = SegmentationConfig(**sc)
        boundaries = None if b is None else Boundaries(float(b["t_low"]), float(b["t_high"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed metadata: {exc!r}") from exc
    shapes = _param_shapes(spec)
    for name, arr in tensors.items():
        if name not in shapes:
            raise CheckpointError(f"{path}: unknown tensor {name!r}")
        if arr.shape != shapes[name]:
            raise CheckpointError(f"{path}: tensor {name!r} has shape {arr.shape}, "
                                  f"the net spec needs {shapes[name]}")
    for name in shapes:
        if name not in tensors:
            raise CheckpointError(f"{path}: missing tensor {name!r}")
    layers = [{"w": tensors[f"layer{i}.weight"], "b": tensors[f"layer{i}.bias"]}
              if isinstance(layer, (nn.Conv2d, nn.Dense)) else None
              for i, layer in enumerate(spec.layers)]
    _check_activation_range(layers, path)
    return Checkpoint(
        dimension=tag,
        seed=seed,
        net_spec=spec,
        params=nn.Params(layers=layers, seed=seed),
        feature_config=feature_config,
        segmentation_config=segmentation_config,
        sample_rate_hz=sample_rate_hz,
        boundaries=boundaries,
        version=meta["version"],
    )
