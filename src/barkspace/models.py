"""The two trainable regressors plus pair construction and persistence.

Both models share the same CNN head producing one scalar per input, and
one training step (``_fit``: Adam on a mean squared error). They differ
only in the examples each epoch hands it: the baseline's are single frames
with their numeric label values as targets. The adjusted twin-network
model's are ``make_pairs`` label pairs, scored with the shared head so that
score(a) - score(b) is trained to match the signed numeric difference of
their ordinal labels; training and ``siamese_forward`` run both members of
a pair through one stacked batch. Single-input inference
then uses the branch scalar, which is an absolute coordinate up to an
additive constant absorbed later by boundary calibration.

Training takes the training set as one float32 (n_frames, n_mels, n_time)
grid array with one label per frame; ``_fit`` reads its batches from that
array and makes no copy of it. Scoring takes feature grids, never audio:
callers featurise each event once and share the grids between both axes.
``predict_many`` is the one scorer; it runs the network in fixed chunks,
read from a grid array as views, which is exact because ``forward`` is
batch-invariant, so an event scores the same bits alone or inside any batch.
``eval`` and ``project`` score each event with one call. ``Boundaries`` and
``event_score`` live here, so ``evaluation`` imports this module, not the reverse.

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
from .audio_io import CANONICAL_RATE_HZ, open_regular
from .features import FeatureConfig, grid_shape
from .labels import DIMENSIONS, VOCABULARY, OrdinalLabel
from .segmentation import SegmentationConfig

CHECKPOINT_MAGIC = b"BDN1"
TENSOR_FILE_MAGIC = b"BDF1"
CHECKPOINT_VERSION = 1
# an epoch's pairs are all held while they are drawn: make_pairs peaks at 60
# bytes a pair and returns 20, and train_siamese's index array adds 16
# (tracemalloc, 2**18 pairs): under 64 MB at this bound
MAX_PAIRS_PER_EPOCH = 2**20
# the grid values one training step may gather: 256 MB of float32, about
# 28,000 default grids; the step's tape is about 4.7 times its gathered grids
MAX_STEP_ELEMENTS = 2**26


class CheckpointError(ValueError):
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
        if not (self.pairs_per_epoch is None or 0 < self.pairs_per_epoch <= MAX_PAIRS_PER_EPOCH):
            raise ValueError(f"pairs_per_epoch must be in [1, {MAX_PAIRS_PER_EPOCH}]")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class Boundaries:
    """Two decode thresholds; Medium owns the half-open band [t_low, t_high)."""

    t_low: float
    t_high: float

    def __post_init__(self):
        if not (self.t_low <= self.t_high):
            raise ValueError("t_low must be <= t_high")


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
    equal to the ``features.grid_shape`` of its configs, one output, and
    tensors of the net's shapes; and weights that keep activations within
    float32 for every input in [0, 1]. The bound after a layer is the largest
    row sum of |weight| times the bound before it, plus |bias| (relu,
    max-pool and flatten never raise it; a NaN or infinite weight fails it).
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
    grid = (1, *grid_shape(fc, sc.target_len))
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


def _check_training_set(labels: Sequence[OrdinalLabel], dimension: str):
    """Refuse an empty set, or one without all three labels, naming the
    missing ones in ``dimension``'s vocabulary."""
    if len(labels) == 0:
        raise ValueError("training set is empty")
    present = set(labels)
    missing = [VOCABULARY[dimension][lab] for lab in OrdinalLabel if lab not in present]
    if missing:
        raise ValueError("training set must contain all three labels; missing "
                         + ", ".join(missing))


def _check_loss(loss: float, step: int) -> float:
    """``loss`` itself if finite; a diverged run must not go on to a checkpoint."""
    if not np.isfinite(loss):
        raise ValueError(f"training diverged: the batch loss is not finite ({loss}) "
                         f"at step {step}")
    return loss


def make_pairs(labels: Sequence[OrdinalLabel], pairs_per_epoch: int, seed: int,
               epoch: int) -> np.recarray:
    """Sample pairs as one record array that iterates as (a, b, target) triples.

    ``a`` and ``b`` are int64 frame indices, ``target`` is the float32
    value(a) - value(b). Sampling is stratified over the 9 ordered label
    combinations so the cell counts are as uniform as the available labels
    allow; the remainder cells are picked uniformly at random. Pairs with
    a == b (same index) never occur. The stream is a pure function of (seed,
    epoch).
    """
    if len(labels) < 2:
        raise ValueError("need at least 2 labeled frames to form pairs")
    if pairs_per_epoch <= 0:
        raise ValueError("pairs_per_epoch must be positive")

    rng = np.random.default_rng((int(seed), int(epoch), 0x9A125))
    order = (OrdinalLabel.HIGH, OrdinalLabel.MEDIUM, OrdinalLabel.LOW)
    codes = np.asarray(labels)
    groups = {lab: np.flatnonzero(codes == lab) for lab in order}
    cells = [(a, b) for a in order for b in order
             if len(groups[a]) and len(groups[b]) and not (a == b and len(groups[a]) < 2)]
    if not cells:
        raise ValueError("labels admit no valid pairs")

    base = pairs_per_epoch // len(cells)
    counts = [base] * len(cells)
    for j in rng.choice(len(cells), size=pairs_per_epoch % len(cells), replace=False):
        counts[j] += 1

    draws = []
    for (a, b), count in zip(cells, counts):
        ga, gb = groups[a], groups[b]
        ia = ga[rng.integers(0, len(ga), size=count)]
        ib = gb[rng.integers(0, len(gb), size=count)]
        if a == b:
            clash = ia == ib
            while clash.any():
                ib[clash] = gb[rng.integers(0, len(gb), size=int(clash.sum()))]
                clash = ia == ib
        draws.append((ia, ib, np.full(count, a.numeric - b.numeric, np.float32)))
    return np.rec.fromarrays([np.concatenate(column) for column in zip(*draws)],
                             names="a,b,target")


def _fit(grids: np.ndarray, labels: Sequence[OrdinalLabel], cfg: TrainConfig, examples,
         net_spec: Optional[nn.NetSpec], feature_config: FeatureConfig,
         segmentation_config: SegmentationConfig) -> TrainResult:
    """Adam on the MSE between each example's prediction and its target.

    ``grids`` holds one (n_mels, n_time) grid per frame, as an array (a
    float32 one is read in place, never copied) or a list, and ``labels``
    one label per frame. ``examples(labels, epoch)`` gives, from the labels
    alone, ``members``, a (k, n) array of frame indices, and a float32 array
    of n targets (``make_pairs``' ``target`` field, for pairs). An example's
    prediction is the score of its member 0 minus the scores of its other
    members: score(a) for k = 1, score(a) - score(b) for k = 2. A batch runs
    all its members as one stacked batch, so their gradients accumulate into
    the shared weights in a fixed order; a step that would gather more than
    ``MAX_STEP_ELEMENTS`` grid values is refused with a ValueError before
    the epoch's first step. Examples are reshuffled every epoch by a (seed,
    epoch)-derived generator; the result is a pure function of (data,
    config, seed).
    """
    _check_training_set(labels, cfg.dimension)
    if len(grids) != len(labels):
        raise ValueError(f"{len(grids)} grids but {len(labels)} labels")
    x = np.asarray(grids, dtype=np.float32)[:, None]  # the channel axis, as a view
    spec = net_spec or nn.default_net_spec(input_shape=x.shape[1:])
    ckpt = _check_checkpoint(Checkpoint(
        dimension=cfg.dimension, seed=cfg.seed, net_spec=spec,
        params=nn.init_params(spec, cfg.seed, dtype=np.float32),
        feature_config=feature_config, segmentation_config=segmentation_config,
        sample_rate_hz=CANONICAL_RATE_HZ))
    params = ckpt.params
    state = nn.init_adam(params)
    history = []
    for epoch in range(cfg.epochs):
        members, target = examples(labels, epoch)
        step = len(members) * min(cfg.batch_size, len(target))
        if step * x[0].size > MAX_STEP_ELEMENTS:
            raise ValueError(f"batch size {cfg.batch_size} makes a training step of {step} "
                             f"grids of {x[0].size} values, past the bound of "
                             f"{MAX_STEP_ELEMENTS} values")
        sign = np.array((1, -1)[: len(members)], np.float32)  # d pred / d member score
        perm = np.random.default_rng((cfg.seed, epoch, 0x5487FE)).permutation(len(target))
        losses = []
        for lo in range(0, len(perm), cfg.batch_size):
            sel = perm[lo : lo + cfg.batch_size]
            b = len(sel)
            out, tape = nn.forward(spec, params, x[members[:, sel].ravel()])
            score = out[:, 0].reshape(len(members), b)
            err = score[0] - score[1:].sum(axis=0) - target[sel]
            losses.append(_check_loss(float(np.mean(err * err)), state.t + 1) * b)
            upstream = np.outer(sign, (2.0 / b) * err).reshape(-1, 1)
            grads, _ = nn.backward(spec, params, tape, upstream, input_grad=False)
            nn.adam_step(params, grads, state, cfg.learning_rate)
            del out, tape, grads  # so the next step's tape is not built beside this one
        history.append(sum(losses) / len(perm))
    return TrainResult(checkpoint=ckpt, loss_history=history)


def train_baseline(grids: np.ndarray, labels: Sequence[OrdinalLabel], cfg: TrainConfig,
                   *, net_spec: Optional[nn.NetSpec] = None,
                   feature_config: FeatureConfig = FeatureConfig(),
                   segmentation_config: SegmentationConfig = SegmentationConfig()) -> TrainResult:
    """Mean-squared-error regression of the numeric value of each frame's
    label, from the frames' grids (see ``_fit``) and their labels."""
    def examples(labels, epoch):
        return np.arange(len(labels))[None], np.asarray([l.numeric for l in labels], np.float32)

    return _fit(grids, labels, cfg, examples, net_spec, feature_config, segmentation_config)


def train_siamese(grids: np.ndarray, labels: Sequence[OrdinalLabel], cfg: TrainConfig,
                  *, net_spec: Optional[nn.NetSpec] = None,
                  feature_config: FeatureConfig = FeatureConfig(),
                  segmentation_config: SegmentationConfig = SegmentationConfig()) -> TrainResult:
    """Train the shared head to regress ordered numeric label differences,
    from the frames' grids (see ``_fit``) and their labels.

    Each epoch draws ``cfg.pairs_per_epoch`` pairs (4 per frame by default)
    from ``make_pairs``, whose ``a`` and ``b`` fields are the members; the
    loss is the MSE between score(a) - score(b) and the ``target`` field.
    """
    def examples(labels, epoch):
        pairs = make_pairs(labels, cfg.pairs_per_epoch or 4 * len(labels), cfg.seed, epoch)
        return np.array((pairs.a, pairs.b)), pairs.target

    return _fit(grids, labels, cfg, examples, net_spec, feature_config, segmentation_config)


def siamese_forward(spec: nn.NetSpec, params: nn.Params, xa: np.ndarray,
                    xb: np.ndarray) -> float:
    """Predicted ordered distance score(xa) - score(xb) under shared weights:
    both inputs, each of ``spec.input_shape``, run as one batch of two."""
    dtype = next(params.tensors())[1].dtype
    y, _ = nn.forward(spec, params, np.stack((xa, xb)).astype(dtype, copy=False))
    return float(y[0, 0]) - float(y[1, 0])


def predict_many(ckpt: Checkpoint, features: Sequence[np.ndarray]) -> np.ndarray:
    """Single-branch scalar of each feature grid, as float64.

    ``features`` is a list of grids or an array of them. Grids run through
    the network ``neuralnet.CHUNK`` at a time: a chunk of a float32 array is
    a view of it, and a list's chunk is stacked. Each score has the same bits
    whatever the input's length, form or the grid's place in it.
    """
    out = np.zeros(len(features))
    for lo in range(0, len(features), nn.CHUNK):
        y, _ = nn.forward(ckpt.net_spec, ckpt.params,
                          np.asarray(features[lo : lo + nn.CHUNK], np.float32)[:, None])
        out[lo : lo + len(y)] = y[:, 0]
    return out


def event_score(scores: Sequence[float]) -> float:
    """An event's score: the mean of its frame scores, summed in sorted order.

    Sorting makes the sum, and so the score, independent of frame order.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("an event needs at least one frame score")
    return float(np.sort(scores).mean())


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


def _unpack_container(path, magic: bytes) -> tuple[dict, dict]:
    with open_regular(path) as fh:
        blob = fh.read()
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
    return _unpack_container(path, TENSOR_FILE_MAGIC)


def _typed(x, where: str) -> dict:
    """``asdict(x)`` as ``from_json`` reads it back: an int in a float field as a float."""
    return asdict(from_json(type(x), asdict(x), where))


# the (writer, reader) of a record field that is a plain JSON value
_AS_IS = (lambda v: v,) * 2


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


def load_checkpoint(path) -> Checkpoint:
    """Read a BDN1 container; CheckpointError, naming ``path``, on a bad
    container or NaN/inf tensor, metadata that is not the record or that
    ``from_json`` cannot type, a missing or unknown tensor, or a checkpoint
    that ``_check_checkpoint`` refuses. Either axis tag loads."""
    meta, tensors = _unpack_container(path, CHECKPOINT_MAGIC)
    if not (isinstance(meta, dict) and sorted(meta) == _META_KEYS):
        raise CheckpointError(f"{path}: metadata must be a JSON object with the keys "
                              + ", ".join(_META_KEYS))
    try:
        ckpt = from_json(Checkpoint, {**{key: _META_CODECS.get(key, _AS_IS)[1](value)
                                         for key, value in meta.items()},
                                      "params": nn.Params()}, "checkpoint")
    except ValueError as exc:
        raise CheckpointError(f"{path}: malformed metadata: {exc}") from exc
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
