"""End-to-end plumbing: manifest rows to features, training, evaluation.

Each manifest row is one vocal event. Its audio is resampled to the
canonical rate, treated as a single event segment spanning the whole file
(continuous recordings should be cut into events with ``detect_nonsilent``
or the segment CLI first), framed, and featurised. Training assembles frame
sets per dimension, fits the requested model, and calibrates decode
boundaries on the training frames' own predictions before saving.
"""

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import models
from .audio_io import CANONICAL_RATE_HZ, read_wav, resample
from .corpus import ManifestEntry
from .evaluation import calibrate_boundaries
from .features import FeatureConfig, log_mel
from .labels import OrdinalLabel
from .segmentation import EventSegment, Frame, SegmentationConfig, frame_segment


@dataclass
class EventData:
    """One labeled event with its featurised frames."""

    event_id: str
    arousal: OrdinalLabel
    valence: OrdinalLabel
    split: Optional[str] = None
    features: list = field(default_factory=list)

    def label(self, dimension: str) -> OrdinalLabel:
        return self.arousal if dimension == "arousal" else self.valence


def frames_of_clip(clip, event_id: str,
                   seg_cfg: Optional[SegmentationConfig] = None) -> list[Frame]:
    """Resample to the canonical rate and frame the whole clip as one event."""
    seg_cfg = seg_cfg or SegmentationConfig()
    clip = resample(clip, CANONICAL_RATE_HZ)
    if len(clip.samples) == 0:
        raise ValueError(f"event {event_id}: empty audio")
    seg = EventSegment(event_id, 0, len(clip.samples), clip.samples)
    return frame_segment(seg, seg_cfg)


def featurise(frames: Sequence[Frame], feat_cfg: FeatureConfig) -> list[np.ndarray]:
    """Log-mel grid of each canonical-rate frame."""
    return [log_mel(f, feat_cfg, CANONICAL_RATE_HZ) for f in frames]


def load_event_features(entries: Sequence[ManifestEntry], base_dir,
                        seg_cfg: Optional[SegmentationConfig] = None,
                        feat_cfg: Optional[FeatureConfig] = None) -> list[EventData]:
    """Read, frame, and featurise every manifest row."""
    base_dir = Path(base_dir)
    seg_cfg = seg_cfg or SegmentationConfig()
    feat_cfg = feat_cfg or FeatureConfig()
    out = []
    for e in entries:
        wav_path = Path(e.path)
        if not wav_path.is_absolute():
            wav_path = base_dir / wav_path
        clip = read_wav(wav_path)
        grids = featurise(frames_of_clip(clip, e.event_id, seg_cfg), feat_cfg)
        out.append(EventData(e.event_id, e.arousal, e.valence, e.split, grids))
    return out


def training_frames(events: Sequence[EventData], dimension: str) -> list[tuple[np.ndarray, float]]:
    """Flatten events into (feature grid, numeric label value) frame pairs."""
    pairs = []
    for ev in events:
        value = ev.label(dimension).numeric
        pairs.extend((g, value) for g in ev.features)
    return pairs


def evaluation_events(events: Sequence[EventData], dimension: str):
    """Shape events for evaluation.evaluate: (event_id, label, feature grids)."""
    return [(ev.event_id, ev.label(dimension), ev.features) for ev in events]


def select_split(rows: Sequence, split: Optional[str]) -> list:
    """Rows (manifest entries or events) tagged ``split``.

    When no row carries that tag, the untagged rows are chosen instead, so an
    unsplit manifest serves every selection.
    """
    if split is None:
        return list(rows)
    chosen = [row for row in rows if row.split == split]
    if chosen:
        return chosen
    return [row for row in rows if row.split is None]


def train_dimension(events: Sequence[EventData], model_kind: str,
                    cfg: models.TrainConfig,
                    *, seg_cfg: Optional[SegmentationConfig] = None,
                    feat_cfg: Optional[FeatureConfig] = None) -> models.TrainResult:
    """Train one dimension model and calibrate its decode boundaries.

    Boundaries come from the trained model's own predictions on the training
    frames, the only absolute reference the twin-network scalar has. Raises
    ValueError when those predictions are not finite or all equal: a
    diverged or collapsed model gets no checkpoint.
    """
    if model_kind not in ("baseline", "siamese"):
        raise ValueError(f"model must be baseline or siamese, got {model_kind!r}")
    frames = training_frames(events, cfg.dimension)
    trainer = models.train_baseline if model_kind == "baseline" else models.train_siamese
    result = trainer(frames, cfg, feature_config=feat_cfg, segmentation_config=seg_cfg)
    grids = [g for g, _ in frames]
    labels = [ev.label(cfg.dimension) for ev in events for _ in ev.features]
    preds = models.predict_many(result.checkpoint, grids)
    result.checkpoint.boundaries = calibrate_boundaries(preds, labels)
    if preds.min() == preds.max():
        raise ValueError(f"training collapsed: every training frame scores {preds[0]}, "
                         "so no boundaries can tell the classes apart")
    return result
