"""Ordinal decoding, accuracy, the turn-around percentage, and splitting.

Continuous regression outputs are mapped back to the three ordinal labels
with two thresholds fitted on training-set predictions. Turn-around
percentage (TAP) is the share of extreme-class instances misclassified as
the opposite extreme, the ordinal error that plain accuracy fails to weight.

Every per-class score histogram, of frame scores in a report and of event
scores in ``project --hist``, comes from ``class_histograms``. ``Boundaries``
and ``event_score`` are defined in ``models``, beside the checkpoint.
"""

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Iterable, Sequence

import numpy as np

from . import models
from .labels import VOCABULARY, OrdinalLabel
from .models import _AS_IS, Boundaries, event_score

_LABEL_KEYS = VOCABULARY["arousal"]  # a report's class keys, for either dimension
HISTOGRAM_BINS = 50


class UndefinedMetricError(ValueError):
    """Raised when a metric's denominator is empty; never silently 0."""


def decode(v: float, b: Boundaries) -> OrdinalLabel:
    """Low below t_low, Medium in [t_low, t_high), High at or above t_high."""
    if v < b.t_low:
        return OrdinalLabel.LOW
    if v < b.t_high:
        return OrdinalLabel.MEDIUM
    return OrdinalLabel.HIGH


def _candidate_thresholds(sorted_distinct: np.ndarray) -> np.ndarray:
    """Midpoints between consecutive distinct values, plus the first value and
    the next float above the last as finite sentinels.

    A midpoint that rounds onto its left neighbour is bumped to the right
    neighbour so that "predictions below candidate k" is exactly the first k
    distinct values; the candidates are strictly increasing.
    """
    mids = 0.5 * (sorted_distinct[:-1] + sorted_distinct[1:])
    mids = np.where(mids <= sorted_distinct[:-1], sorted_distinct[1:], mids)
    return np.concatenate((sorted_distinct[:1], mids,
                           [np.nextafter(sorted_distinct[-1], np.inf)]))


def calibrate_boundaries(train_predictions: Sequence[float],
                         train_labels: Sequence[OrdinalLabel]) -> Boundaries:
    """Exhaustively pick the threshold pair maximising training accuracy.

    Candidates are ``_candidate_thresholds``: midpoints between consecutive
    distinct predictions plus two finite sentinels, below which no prediction
    and every prediction falls; ties go to the smallest (t_low, then t_high).
    All three label classes must be present and every prediction finite: a
    diverged model yields NaN or infinite scores and must not be given
    boundaries.
    """
    preds = np.asarray(train_predictions, dtype=np.float64)
    labels = list(train_labels)
    if len(preds) == 0 or len(preds) != len(labels):
        raise ValueError("predictions and labels must be aligned and non-empty")
    bad = int(np.count_nonzero(~np.isfinite(preds)))
    if bad:
        raise ValueError(f"cannot calibrate boundaries: {bad} of {len(preds)} predictions "
                         "are not finite (did training diverge?)")
    present = set(labels)
    missing = {OrdinalLabel.LOW, OrdinalLabel.MEDIUM, OrdinalLabel.HIGH} - present
    if missing:
        raise ValueError(
            "cannot calibrate boundaries, missing label class(es): "
            + ", ".join(sorted(m.name for m in missing))
        )

    distinct, inverse = np.unique(preds, return_inverse=True)
    m = len(distinct)
    # per-class multiplicity at each distinct value, then cumulative below
    # candidate k (candidate k sits just above the first k distinct values)
    counts = np.zeros((3, m), dtype=np.int64)
    np.add.at(counts, (np.asarray([int(l) for l in labels]), inverse), 1)
    cum = np.zeros((3, m + 1), dtype=np.int64)
    cum[:, 1:] = np.cumsum(counts, axis=1)
    n_low, n_med, n_high = cum[0], cum[1], cum[2]

    candidates = _candidate_thresholds(distinct)
    # accuracy(i, j) = n_low[i] + (n_med[j]-n_med[i]) + (total_high-n_high[j])
    #               = f(i) + g(j) + total_high  with i <= j
    # The best i for a given j is the first argmax of f[:j+1], and the first
    # occurrences give the smallest (t_low, t_high) among equal accuracies.
    f = n_low - n_med
    g = n_med - n_high
    j = int(np.argmax(np.maximum.accumulate(f) + g))
    i = int(np.argmax(f[: j + 1]))
    return Boundaries(float(candidates[i]), float(candidates[j]))


def accuracy(pred_labels: Sequence[OrdinalLabel],
             true_labels: Sequence[OrdinalLabel]) -> float:
    """Exact-match fraction."""
    if len(pred_labels) != len(true_labels):
        raise ValueError("prediction and truth lists differ in length")
    if len(true_labels) == 0:
        raise ValueError("cannot compute accuracy of an empty list")
    hits = sum(1 for p, t in zip(pred_labels, true_labels) if p == t)
    return hits / len(true_labels)


@dataclass
class ConfusionMatrix:
    """3x3 counts indexed [true][pred] in label order Low, Medium, High."""

    counts: np.ndarray = field(default_factory=lambda: np.zeros((3, 3), dtype=np.int64))

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (3, 3):
            raise ValueError("confusion matrix must be 3x3")
        if (self.counts < 0).any():
            raise ValueError("confusion counts must be nonnegative")

    @classmethod
    def from_labels(cls, true_labels, pred_labels) -> "ConfusionMatrix":
        cm = cls()
        for t, p in zip(true_labels, pred_labels):
            cm.counts[int(t), int(p)] += 1
        return cm

    def to_dict(self) -> dict:
        return {
            tk: {pk: int(self.counts[ti, pi]) for pi, pk in enumerate(_LABEL_KEYS)}
            for ti, tk in enumerate(_LABEL_KEYS)
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ConfusionMatrix":
        counts = np.asarray(
            [[d[tk][pk] for pk in _LABEL_KEYS] for tk in _LABEL_KEYS], dtype=np.int64
        )
        return cls(counts)


def tap(cm: ConfusionMatrix) -> float:
    """Turn-around percentage: extreme-to-opposite-extreme errors over all extremes.

    100 * (N(High->Low) + N(Low->High)) / (N(total High) + N(total Low)),
    totals being true-class row sums. Raises UndefinedMetricError when there
    are no extreme-class instances at all.
    """
    c = cm.counts
    flips = int(c[OrdinalLabel.HIGH, OrdinalLabel.LOW] + c[OrdinalLabel.LOW, OrdinalLabel.HIGH])
    extremes = int(c[OrdinalLabel.HIGH].sum() + c[OrdinalLabel.LOW].sum())
    if extremes == 0:
        raise UndefinedMetricError("TAP is undefined: no High or Low instances")
    return 100.0 * flips / extremes


def event_level_split(event_ids: Sequence[str], train_fraction: float,
                      seed: int) -> tuple[list[str], list[str]]:
    """Shuffle events and put the first round(n * train_fraction) in train.

    The partition is disjoint and exhaustive; every frame of an event
    inherits the event's side, which callers enforce by splitting ids, never
    frames.
    """
    ids = list(event_ids)
    n = len(ids)
    if n < 2:
        raise ValueError("need at least 2 events to split")
    if not (0.0 < train_fraction < 1.0):
        raise ValueError("train_fraction must be in (0, 1)")
    k = int(np.floor(n * train_fraction + 0.5))
    if k == 0 or k == n:
        raise ValueError("split would leave one side empty")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    return [ids[i] for i in perm[:k]], [ids[i] for i in perm[k:]]


@dataclass
class EvalReport:
    """Calibrated boundaries plus metrics at both granularities.

    The headline tap_percent and confusion are event-level; frame-level
    counterparts carry a frame_ prefix. Histograms are ``class_histograms``
    of the frame-level predictions. The JSON form holds one key per field.
    """

    dimension: str
    boundaries: Boundaries
    frame_accuracy: float
    event_accuracy: float
    tap_percent: float
    frame_tap_percent: float
    confusion: ConfusionMatrix
    frame_confusion: ConfusionMatrix
    histograms: dict
    bin_edges: list
    n_events: int
    n_frames: int

    def to_dict(self) -> dict:
        return {f.name: _REPORT_CODECS.get(f.name, _AS_IS)[0](getattr(self, f.name))
                for f in fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False)

    @classmethod
    def from_dict(cls, d: dict) -> "EvalReport":
        return cls(**{f.name: _REPORT_CODECS.get(f.name, _AS_IS)[1](d[f.name])
                      for f in fields(cls)})

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        return cls.from_dict(json.loads(text))


# (writer, reader) of each report field that is not a plain JSON value
_REPORT_CODECS = {"boundaries": (asdict, lambda d: Boundaries(**d)),
                  "confusion": (ConfusionMatrix.to_dict, ConfusionMatrix.from_dict),
                  "frame_confusion": (ConfusionMatrix.to_dict, ConfusionMatrix.from_dict)}


def class_histograms(scores: Sequence[float], labels: Sequence[OrdinalLabel]) -> dict:
    """``bin_edges``: ``HISTOGRAM_BINS`` equal-width bins over all ``scores``;
    ``histograms``: the counts in those bins of each class's scores, keyed
    low/medium/high."""
    scores, labels = np.asarray(scores, dtype=np.float64), np.asarray(labels)
    edges = np.histogram_bin_edges(scores, bins=HISTOGRAM_BINS)
    return {"bin_edges": edges.tolist(),
            "histograms": {key: np.histogram(scores[labels == label], bins=edges)[0].tolist()
                           for key, label in zip(_LABEL_KEYS, OrdinalLabel)}}


def evaluate_scored_events(scored_events: Sequence[tuple[str, OrdinalLabel, Sequence[float]]],
                           boundaries: Boundaries, dimension: str) -> EvalReport:
    """Build an EvalReport from per-frame scores grouped by event.

    ``scored_events`` holds (event_id, true label, frame scores). Event
    scores come from ``event_score``; both granularities are decoded with
    the same boundaries.
    """
    if len(scored_events) == 0:
        raise ValueError("cannot evaluate an empty event set")
    frame_true, frame_scores = [], []
    event_true, event_scores = [], []
    for event_id, label, scores in scored_events:
        scores = np.asarray(scores, dtype=np.float64)
        if scores.size == 0:
            raise ValueError(f"event {event_id} has no frame scores")
        frame_true.extend([label] * scores.size)
        frame_scores.append(scores)
        event_true.append(label)
        event_scores.append(event_score(scores))
    frame_scores = np.concatenate(frame_scores)

    frame_pred = [decode(v, boundaries) for v in frame_scores]
    event_pred = [decode(v, boundaries) for v in event_scores]
    frame_cm = ConfusionMatrix.from_labels(frame_true, frame_pred)
    event_cm = ConfusionMatrix.from_labels(event_true, event_pred)

    return EvalReport(
        dimension=dimension,
        boundaries=boundaries,
        frame_accuracy=accuracy(frame_pred, frame_true),
        event_accuracy=accuracy(event_pred, event_true),
        tap_percent=tap(event_cm),
        frame_tap_percent=tap(frame_cm),
        confusion=event_cm,
        frame_confusion=frame_cm,
        n_events=len(event_true),
        n_frames=int(frame_scores.size),
        **class_histograms(frame_scores, frame_true),
    )


def evaluate(checkpoint, events: Iterable[tuple[str, OrdinalLabel, Sequence[np.ndarray]]]
             ) -> EvalReport:
    """Score featurised events with a checkpoint and report both granularities.

    ``events`` is any iterable of (event_id, true label, the event's feature
    grids), read once, so a generator can featurise each event as it is
    reached. Each event is scored by one ``models.predict_many`` call before
    the next is read, as ``project`` scores it, and only its scores are
    kept. Scores are decoded with the checkpoint's calibrated boundaries.
    """
    if checkpoint.boundaries is None:
        raise ValueError("no boundaries: calibrate before evaluating")
    scored = [(event_id, label, models.predict_many(checkpoint, grids))
              for event_id, label, grids in events]
    return evaluate_scored_events(scored, checkpoint.boundaries, checkpoint.dimension)
