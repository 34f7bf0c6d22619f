"""End-to-end plumbing: manifest rows to features, training, evaluation.

Each manifest row is one vocal event. Its audio is resampled to the
canonical rate, treated as a single event segment spanning the whole file
(continuous recordings should be cut into events with ``detect_nonsilent``
or the segment CLI first), framed, and featurised. ``featurise`` works per
event: the frames that start a whole number of hops apart share one STFT of
the event's samples, blocked to ``features.max_stft_columns`` columns, and
an event's grids are held as one float32 array. Training joins every
event's grids into one float32 array, held once: each event keeps a row
slice of it. The requested model fits that array, and decode boundaries are
calibrated on its own predictions before saving. Scoring needs one event's
grids at a time: ``eval`` and ``project`` featurise each row only when they
reach it and keep just its scores, so their memory does not grow with the
number of events.
"""

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from . import models
from .audio_io import CANONICAL_RATE_HZ, read_wav, resample
from .corpus import ManifestEntry
from .evaluation import calibrate_boundaries
from .features import (FeatureConfig, grid_shape, log_mel, log_mel_from_power,
                       max_stft_columns, stft_power)
from .labels import OrdinalLabel
from .segmentation import EventSegment, Frame, SegmentationConfig, frame_segment


@dataclass
class EventData:
    """One labeled event, a manifest row, with its frames' grids as one float32
    (n_frames, n_mels, n_time) array.

    ``train_dimension`` rebinds ``features`` to the event's rows of the joined
    training array, a view, so the training set is held once.
    """

    event_id: str
    arousal: OrdinalLabel
    valence: OrdinalLabel
    features: np.ndarray

    def label(self, dimension: str) -> OrdinalLabel:
        return self.arousal if dimension == "arousal" else self.valence


def event_of_clip(clip, event_id: str) -> EventSegment:
    """The whole clip, resampled to the canonical rate, as one event."""
    clip = resample(clip, CANONICAL_RATE_HZ)
    if len(clip.samples) == 0:
        raise ValueError(f"event {event_id}: empty audio")
    return EventSegment(event_id, 0, len(clip.samples), clip.samples)


def frames_of_clip(clip, event_id: str,
                   seg_cfg: SegmentationConfig = SegmentationConfig()) -> list[Frame]:
    """Resample to the canonical rate and frame the whole clip as one event."""
    return frame_segment(event_of_clip(clip, event_id), seg_cfg)


def featurise(seg: EventSegment, seg_cfg: SegmentationConfig, feat_cfg: FeatureConfig,
              dtype=np.float32) -> np.ndarray:
    """The ``log_mel`` grid of each of ``frame_segment(seg)``'s frames, in
    order, as one (n_frames, n_mels, n_time) array of ``dtype``.

    Consecutive frames that start a whole number of hops after a block's first
    frame share one ``stft_power`` of the event's samples, of at most
    ``max_stft_columns`` columns; each frame's grid is ``log_mel_from_power``
    of its own rows, with the bits of ``log_mel`` of the frame. A frame that
    shares no STFT (a zero-padded frame, most tail frames) runs ``log_mel``.
    """
    frames = frame_segment(seg, seg_cfg)
    n_mels, n_time = grid_shape(feat_cfg, seg_cfg.target_len)
    hop, max_cols = feat_cfg.hop, max_stft_columns(feat_cfg)
    out = np.empty((len(frames), n_mels, n_time), dtype)
    lo = 0
    while lo < len(frames):
        first = frames[lo].start
        hi = lo + 1
        while (hi < len(frames) and (frames[hi].start - first) % hop == 0
               and (frames[hi].start - first) // hop + n_time <= max_cols):
            hi += 1
        if hi - lo == 1:
            out[lo] = log_mel(frames[lo], feat_cfg, CANONICAL_RATE_HZ)
        else:
            end = frames[hi - 1].start + seg_cfg.target_len
            rows = stft_power(seg.samples[first:end], feat_cfg).T
            for k in range(lo, hi):
                # C-contiguous rows, laid out as a frame's own STFT: the same mel GEMM
                c = (frames[k].start - first) // hop
                out[k] = log_mel_from_power(rows[c : c + n_time].T, feat_cfg, CANONICAL_RATE_HZ)
        lo = hi
    return out


def load_event_features(entries: Sequence[ManifestEntry], base_dir,
                        seg_cfg: SegmentationConfig = SegmentationConfig(),
                        feat_cfg: FeatureConfig = FeatureConfig()) -> list[EventData]:
    """Read, frame, and featurise every manifest row."""
    base_dir = Path(base_dir)
    out = []
    for e in entries:
        wav_path = Path(e.path)
        if not wav_path.is_absolute():
            wav_path = base_dir / wav_path
        grids = featurise(event_of_clip(read_wav(wav_path), e.event_id), seg_cfg, feat_cfg)
        out.append(EventData(e.event_id, e.arousal, e.valence, grids))
    return out


def evaluation_events(events: Iterable[EventData], dimension: str):
    """Shape events for evaluation.evaluate, as a generator: (event_id, label,
    feature grids), each read from ``events`` only when it is reached."""
    return ((ev.event_id, ev.label(dimension), ev.features) for ev in events)


def select_split(entries: Sequence[ManifestEntry], split: Optional[str]) -> list:
    """Manifest entries tagged ``split``.

    When no entry carries that tag, the untagged entries are chosen instead,
    so an unsplit manifest serves every selection.
    """
    if split is None:
        return list(entries)
    chosen = [e for e in entries if e.split == split]
    if chosen:
        return chosen
    return [e for e in entries if e.split is None]


def _join_grids(events: Sequence[EventData], shape: tuple[int, int]) -> np.ndarray:
    """Every event's grids, in order, in one float32 (n_frames, *shape) array.

    Each event's ``features`` becomes its row slice as soon as it is copied,
    so an event's own array is freed then and the grids are never held twice.
    """
    grids = np.empty((sum(len(ev.features) for ev in events), *shape), np.float32)
    lo = 0
    for ev in events:
        if ev.features.shape[1:] != shape:
            raise ValueError(f"event {ev.event_id}: grids of shape {ev.features.shape[1:]}, "
                             f"not the configs' grid {shape}")
        hi = lo + len(ev.features)
        grids[lo:hi] = ev.features
        ev.features = grids[lo:hi]
        lo = hi
    return grids


def train_dimension(events: Sequence[EventData], model_kind: str,
                    cfg: models.TrainConfig,
                    *, seg_cfg: SegmentationConfig = SegmentationConfig(),
                    feat_cfg: FeatureConfig = FeatureConfig()) -> models.TrainResult:
    """Train one dimension model and calibrate its decode boundaries.

    The events' grids are joined into one float32 array first (see
    ``_join_grids``), which both training and calibration read. Boundaries
    come from the trained model's own predictions on the training frames, the
    only absolute reference the twin-network scalar has. Raises
    ValueError when those predictions are not finite or all equal: a
    diverged or collapsed model gets no checkpoint.
    """
    if model_kind not in ("baseline", "siamese"):
        raise ValueError(f"model must be baseline or siamese, got {model_kind!r}")
    grids = _join_grids(events, grid_shape(feat_cfg, seg_cfg.target_len))
    labels = [ev.label(cfg.dimension) for ev in events for _ in range(len(ev.features))]
    trainer = models.train_baseline if model_kind == "baseline" else models.train_siamese
    result = trainer(grids, labels, cfg, feature_config=feat_cfg, segmentation_config=seg_cfg)
    preds = models.predict_many(result.checkpoint, grids)
    result.checkpoint.boundaries = calibrate_boundaries(preds, labels)
    if preds.min() == preds.max():
        raise ValueError(f"training collapsed: every training frame scores {preds[0]}, "
                         "so no boundaries can tell the classes apart")
    return result
