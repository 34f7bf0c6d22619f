"""The two trainable regressors plus pair construction and persistence.

Both models share the same CNN head producing one scalar per input, and
one training loop (``_fit``: Adam on a mean squared error). They differ
only in the examples each epoch hands that loop. The baseline's are the
frames themselves, with the numeric label value as target. The adjusted
twin-network model's are ``make_pairs`` label pairs, scored with the shared
head so that score(a) - score(b) is trained to match the signed numeric
difference of their ordinal labels; training and ``siamese_forward`` run
both members of a pair through one stacked batch. Single-input inference
then uses the branch scalar, which is an absolute coordinate up to an
additive constant absorbed later by boundary calibration.

Scoring takes feature grids, never audio: callers featurise each event once
and share the grids between both axes. ``predict_many`` is the one scorer;
it runs the network in fixed chunks, which is exact because ``forward`` is
batch-invariant, so an event scores the same bits alone or inside any batch.

Checkpoints are a self-describing binary container ("BDN1"): JSON metadata
(every ``Checkpoint`` field but ``params``, typed on reading by ``from_json``,
the one typed reader, which also builds ``--config`` sections), raw float32
tensors, and a trailing CRC32. ``_check_checkpoint`` holds every rule of a
valid checkpoint; training, saving and loading all apply it.
"""

import json
import math
import struct
import typing
import zlib
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import neuralnet as nn
from .audio_io import CANONICAL_RATE_HZ
from .evaluation import _AS_IS, Boundaries, event_score
from .features import FeatureConfig
from .labels import DIMENSIONS, OrdinalLabel, label_from_value
from .segmentation import SegmentationConfig

CHECKPOINT_MAGIC = b"BDN1"
TENSOR_FILE_MAGIC = b"BDF1"
CHECKPOINT_VERSION = 1


class CheckpointError(Exception):
    """Unreadable, corrupt, or mismatched checkpoint file."""


def from_json(cls, values, where: str):
    """``cls(**values)`` for a JSON object ``values``, typed by ``cls``'s fields.

    Every key must name a field and every value must fit the field's
    annotation, a class or a union of classes: an int fits a float field and
    is stored as a float, and a bool fits no field. ``cls`` then checks the
    values themselves. Raises ValueError naming ``where`` when any of this
    fails.
    """
    if not isinstance(values, dict):
        raise ValueError(f"{where} must be a JSON object")
    hints = typing.get_type_hints(cls)
    typed = {}
    try:
        for key, value in values.items():
            if key not in hints:
                raise ValueError(f"unknown key {key!r}")
            kinds = typing.get_args(hints[key]) or (hints[key],)
            if float in kinds and type(value) is int:
                value = float(value)  # OverflowError past the float range
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ValueError(f"{key!r} cannot be {value!r}")
            typed[key] = value
        return cls(**typed)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


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
        if not (self.epochs > 0 and self.batch_size > 0 and 0 < self.learning_rate < math.inf):
            raise ValueError("epochs, batch_size and learning_rate must be positive and finite")
        if self.pairs_per_epoch is not None and not (self.pairs_per_epoch > 0):
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


# float32 activations stay finite while every exact value is at most half the
# float32 maximum: rounding moves a float32 sum of K terms by a relative
# K * 6e-8 at most, far from a factor of 2 for any layer width in use
_ACTIVATION_LIMIT = float(np.finfo(np.float32).max) / 2


def _check_checkpoint(ckpt: Checkpoint) -> Checkpoint:
    """``ckpt``, if every command can score with it; else ValueError.

    Rules: a known version, dimension tag and rate (every command featurises
    at ``CANONICAL_RATE_HZ``); finite boundaries; a net input of three ints
    that the two configs make of a frame, one output, and tensors of the
    net's shapes; and weights that keep activations within float32 for every
    input in [0, 1]. The bound after a layer is the largest row sum of
    |weight| times the bound before it, plus |bias| (relu, max-pool and
    flatten never raise it; a NaN or infinite weight fails it).
    """
    if ckpt.version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported version {ckpt.version!r}")
    if ckpt.dimension not in DIMENSIONS:
        raise ValueError(f"unknown dimension tag {ckpt.dimension!r}")
    if ckpt.sample_rate_hz != CANONICAL_RATE_HZ:
        raise ValueError(f"sample_rate_hz is {ckpt.sample_rate_hz}, not {CANONICAL_RATE_HZ}")
    b = ckpt.boundaries
    if b is not None and not (math.isfinite(b.t_low) and math.isfinite(b.t_high)):
        raise ValueError(f"boundaries ({b.t_low}, {b.t_high}) are not finite")
    spec, fc, sc = ckpt.net_spec, ckpt.feature_config, ckpt.segmentation_config
    grid = (1, fc.n_mels, (sc.target_len - fc.n_fft) // fc.hop + 1)
    if not (all(type(n) is int for n in spec.input_shape) and tuple(spec.input_shape) == grid):
        raise ValueError(f"net input shape {list(spec.input_shape)} is not the grid {list(grid)} "
                         "of the feature and segmentation configs")
    if spec.output_shape != (1,):
        raise ValueError("regression head must end in dense(1)")
    shapes = nn.param_shapes(spec)
    have = {name: np.shape(arr) for name, arr in ckpt.params.tensors()}
    for name in sorted(shapes.keys() | have.keys()):
        if have.get(name) != shapes.get(name):
            raise ValueError(f"tensor {name!r} has shape {have.get(name)}, "
                             f"the net spec needs {shapes.get(name)}")
    bound = 1.0
    for i, entry in enumerate(ckpt.params.layers):
        if entry is None:
            continue
        rows = np.abs(entry["w"].astype(np.float64)).reshape(len(entry["w"]), -1).sum(axis=1)
        bound = float(np.max(rows * bound + np.abs(entry["b"].astype(np.float64)), initial=0.0))
        if not bound <= _ACTIVATION_LIMIT:
            raise ValueError(f"tensors layer{i}.weight and layer{i}.bias can drive "
                             "activations past the float32 range")
    return ckpt


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


def _fit(train_frames: Sequence[tuple[np.ndarray, float]], cfg: TrainConfig, examples,
         net_spec: Optional[nn.NetSpec], feature_config: Optional[FeatureConfig],
         segmentation_config: Optional[SegmentationConfig]) -> TrainResult:
    """Adam on the MSE between each example's prediction and its target.

    ``examples(labels, epoch)`` gives frame indices ``first`` and ``second``
    (or None) and float32 targets. The prediction is score(first), or
    score(first) - score(second) with both branches in one stacked batch, so
    their gradients accumulate into the shared weights in a fixed order.
    Examples are reshuffled every epoch by a (seed, epoch)-derived generator;
    the result is a pure function of (data, config, seed).
    """
    values = [v for _, v in train_frames]
    _check_training_set(values)
    labels = [label_from_value(float(v)) for v in values]
    x = _stack_features([f for f, _ in train_frames])
    spec = net_spec or nn.default_net_spec(input_shape=x.shape[1:])
    ckpt = _check_checkpoint(Checkpoint(
        dimension=cfg.dimension, seed=cfg.seed, net_spec=spec,
        params=nn.init_params(spec, cfg.seed, dtype=np.float32),
        feature_config=feature_config or FeatureConfig(),
        segmentation_config=segmentation_config or SegmentationConfig(),
        sample_rate_hz=CANONICAL_RATE_HZ))
    params = ckpt.params
    state = nn.init_adam(params)
    history = []
    for epoch in range(cfg.epochs):
        first, second, target = examples(labels, epoch)
        perm = np.random.default_rng((cfg.seed, epoch, 0x5487FE)).permutation(len(target))
        losses = []
        for lo in range(0, len(perm), cfg.batch_size):
            sel = perm[lo : lo + cfg.batch_size]
            b = len(sel)
            rows = first[sel] if second is None else np.concatenate((first[sel], second[sel]))
            out, tape = nn.forward(spec, params, x[rows])
            pred = out[:b, 0] if second is None else out[:b, 0] - out[b:, 0]
            err = pred - target[sel]
            losses.append(_check_loss(float(np.mean(err * err)), state.t + 1) * b)
            g = (2.0 / b) * err
            upstream = g if second is None else np.concatenate((g, -g))
            grads, _ = nn.backward(spec, params, tape, upstream[:, None].astype(np.float32),
                                   input_grad=False)
            nn.adam_step(params, grads, state, cfg.learning_rate)
        history.append(sum(losses) / len(perm))
    return TrainResult(checkpoint=ckpt, loss_history=history)


def train_baseline(train_frames: Sequence[tuple[np.ndarray, float]], cfg: TrainConfig,
                   *, net_spec: Optional[nn.NetSpec] = None,
                   feature_config: Optional[FeatureConfig] = None,
                   segmentation_config: Optional[SegmentationConfig] = None) -> TrainResult:
    """Mean-squared-error regression of the numeric label value of each frame."""
    def examples(labels, epoch):
        return (np.arange(len(labels)), None,
                np.asarray([l.numeric for l in labels], dtype=np.float32))

    return _fit(train_frames, cfg, examples, net_spec, feature_config, segmentation_config)


def train_siamese(train_frames: Sequence[tuple[np.ndarray, float]], cfg: TrainConfig,
                  *, net_spec: Optional[nn.NetSpec] = None,
                  feature_config: Optional[FeatureConfig] = None,
                  segmentation_config: Optional[SegmentationConfig] = None) -> TrainResult:
    """Train the shared head to regress ordered numeric label differences.

    Each epoch draws ``cfg.pairs_per_epoch`` pairs (4 per frame by default)
    from ``make_pairs``; the loss is the MSE between score(a) - score(b) and
    the pair target.
    """
    def examples(labels, epoch):
        pairs = make_pairs(labels, cfg.pairs_per_epoch or 4 * len(labels), cfg.seed, epoch)
        ia, ib, target = zip(*pairs)
        return np.asarray(ia), np.asarray(ib), np.asarray(target, dtype=np.float32)

    return _fit(train_frames, cfg, examples, net_spec, feature_config, segmentation_config)


def siamese_forward(spec: nn.NetSpec, params: nn.Params, xa: np.ndarray,
                    xb: np.ndarray) -> float:
    """Predicted ordered distance score(xa) - score(xb) under shared weights:
    both inputs, each of ``spec.input_shape``, run as one batch of two."""
    dtype = next(params.tensors())[1].dtype
    y, _ = nn.forward(spec, params, np.stack((xa, xb)).astype(dtype, copy=False))
    return float(y[0, 0]) - float(y[1, 0])


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
    full_meta = {"version": CHECKPOINT_VERSION, "kind": "tensors", **(meta or {})}
    Path(path).write_bytes(_pack_container(TENSOR_FILE_MAGIC, full_meta, list(named_arrays)))


def load_tensor_file(path) -> tuple[dict, dict]:
    """Read back a BDF1 tensor file as (metadata, {name: float32 array})."""
    return _unpack_container(Path(path).read_bytes(), TENSOR_FILE_MAGIC, path)


def _typed(x, where: str) -> dict:
    """``asdict(x)`` as ``from_json`` reads it back: an int in a float field as a float."""
    return asdict(from_json(type(x), asdict(x), where))


def _record_codec(cls, key: str):
    """(writer, reader) of a metadata field that holds a ``cls`` or null."""
    return (lambda x: None if x is None else _typed(x, key),
            lambda d: None if d is None else from_json(cls, d, key))


# a layer's tag in checkpoint metadata is its class name in lower case
_LAYER_KINDS = {cls.__name__.lower(): cls for cls in typing.get_args(nn.Layer)}


def _net_spec_to_json(spec: nn.NetSpec) -> dict:
    return {"input_shape": list(spec.input_shape),
            "layers": [{"kind": type(l).__name__.lower(), **_typed(l, f"net_spec layer {i}")}
                       for i, l in enumerate(spec.layers)]}


def _net_spec_from_json(d) -> nn.NetSpec:
    if not (isinstance(d, dict) and sorted(d) == ["input_shape", "layers"]
            and isinstance(d["input_shape"], list) and isinstance(d["layers"], list)):
        raise ValueError("net_spec must be a JSON object of an input_shape list and a layers list")
    layers = []
    for i, entry in enumerate(d["layers"]):
        kind = entry.get("kind") if isinstance(entry, dict) else None
        if not (isinstance(kind, str) and kind in _LAYER_KINDS):
            raise ValueError(f"net_spec layer {i} is not a JSON object of a known layer kind")
        layers.append(from_json(_LAYER_KINDS[kind], {k: v for k, v in entry.items() if k != "kind"},
                                f"net_spec layer {i}"))
    return nn.NetSpec(input_shape=tuple(d["input_shape"]), layers=tuple(layers))


# the metadata record: every Checkpoint field but params, each written and read
# through its (writer, reader) pair, or as it is when it is a plain JSON value
_META_KEYS = sorted(f.name for f in fields(Checkpoint) if f.name != "params")
_META_CODECS = {"net_spec": (_net_spec_to_json, _net_spec_from_json),
                "feature_config": _record_codec(FeatureConfig, "feature_config"),
                "segmentation_config": _record_codec(SegmentationConfig, "segmentation_config"),
                "boundaries": _record_codec(Boundaries, "boundaries")}


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write the BDN1 container, or raise ValueError and write nothing when a
    field is not of its type or ``_check_checkpoint`` refuses ``ckpt``.
    Records are written as ``from_json`` reads them (an int in a float field
    as a float), so a loaded checkpoint saves the same bytes."""
    _check_checkpoint(from_json(Checkpoint, vars(ckpt), "checkpoint"))
    meta = {key: _META_CODECS.get(key, _AS_IS)[0](getattr(ckpt, key)) for key in _META_KEYS}
    Path(path).write_bytes(_pack_container(CHECKPOINT_MAGIC, meta, list(ckpt.params.tensors())))


def load_checkpoint(path, dimension: Optional[str] = None) -> Checkpoint:
    """Read a BDN1 container; CheckpointError, naming ``path``, on a bad
    container or NaN/inf tensor, metadata that is not the record or that
    ``from_json`` cannot type, a missing or unknown tensor, a checkpoint that
    ``_check_checkpoint`` refuses, or a tag other than ``dimension``."""
    meta, tensors = _unpack_container(Path(path).read_bytes(), CHECKPOINT_MAGIC, path)
    if not (isinstance(meta, dict) and sorted(meta) == _META_KEYS):
        raise CheckpointError(f"{path}: metadata must be a JSON object with the keys "
                              + ", ".join(_META_KEYS))
    try:
        ckpt = from_json(Checkpoint, {**{key: _META_CODECS.get(key, _AS_IS)[1](value)
                                         for key, value in meta.items()},
                                      "params": nn.Params()}, "checkpoint")
    except ValueError as exc:
        raise CheckpointError(f"{path}: malformed metadata: {exc}") from exc
    if dimension is not None and ckpt.dimension != dimension:
        raise CheckpointError(f"{path}: dimension tag is {ckpt.dimension!r}, "
                              f"expected {dimension!r}")
    try:
        ckpt.params = nn.Params(layers=[
            {"w": tensors.pop(f"layer{i}.weight"), "b": tensors.pop(f"layer{i}.bias")}
            if isinstance(layer, (nn.Conv2d, nn.Dense)) else None
            for i, layer in enumerate(ckpt.net_spec.layers)], seed=ckpt.seed)
    except KeyError as exc:
        raise CheckpointError(f"{path}: missing tensor {exc.args[0]!r}") from None
    if tensors:
        raise CheckpointError(f"{path}: unknown tensor {min(tensors)!r}")
    try:
        return _check_checkpoint(ckpt)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
