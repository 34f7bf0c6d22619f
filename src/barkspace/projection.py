"""Combine the two dimension models into points in the emotion plane.

Each event gets a (valence, arousal) coordinate. Because the twin-network
scalar is only defined up to an additive constant, each axis is recentered
by the model's own neutral point, the midpoint of its calibrated decode
boundaries, so a perfectly neutral event lands at the origin. Quadrants
follow the circumplex convention: excited, anxious, relaxed, despondent.

Projection takes an event's feature grids, computed once by the caller and
scored by both axes' checkpoints, which must therefore share one front end:
the same feature config, segmentation config and sample rate.
"""

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .evaluation import Boundaries
from .models import Checkpoint, predict_event

QUADRANTS = ("excited", "anxious", "relaxed", "despondent")

_CSV_HEADER = ["event_id", "valence", "arousal", "quadrant", "n_frames"]
_FRONT_END = ("feature_config", "segmentation_config", "sample_rate_hz")


@dataclass
class EmotionPoint:
    event_id: str
    valence: float
    arousal: float
    quadrant: str
    n_frames: int


def neutral_point(b: Boundaries) -> float:
    """Midpoint of the decode boundaries: the model's zero of the axis."""
    return (b.t_low + b.t_high) / 2.0


def quadrant_of(valence: float, arousal: float) -> str:
    """Sign pattern of the recentered coordinates; >= 0 counts as positive."""
    if arousal >= 0.0:
        return "excited" if valence >= 0.0 else "anxious"
    return "relaxed" if valence >= 0.0 else "despondent"


def project_scores(event_id: str, arousal_score: float, valence_score: float,
                   arousal_bounds: Boundaries, valence_bounds: Boundaries,
                   n_frames: int) -> EmotionPoint:
    """Recenter raw axis scores by their neutral points and assign a quadrant."""
    a = arousal_score - neutral_point(arousal_bounds)
    v = valence_score - neutral_point(valence_bounds)
    return EmotionPoint(event_id, v, a, quadrant_of(v, a), n_frames)


def _require(ckpt: Checkpoint, dimension: str) -> Boundaries:
    if ckpt.dimension != dimension:
        raise ValueError(f"checkpoint is tagged {ckpt.dimension!r}, expected {dimension!r}")
    if ckpt.boundaries is None:
        raise ValueError(f"{dimension} checkpoint has no calibrated boundaries")
    return ckpt.boundaries


def check_pair(arousal_ckpt: Checkpoint,
               valence_ckpt: Checkpoint) -> tuple[Boundaries, Boundaries]:
    """Both axes' boundaries, once the two checkpoints are fit to share grids.

    Each must carry its own axis tag and calibrated boundaries, and both the
    same front end, since one set of grids per event feeds both.
    """
    ab = _require(arousal_ckpt, "arousal")
    vb = _require(valence_ckpt, "valence")
    for name in _FRONT_END:
        a, v = getattr(arousal_ckpt, name), getattr(valence_ckpt, name)
        if a != v:
            raise ValueError(f"arousal and valence checkpoints differ in {name}: {a} vs {v}")
    return ab, vb


def project_event(arousal_ckpt: Checkpoint, valence_ckpt: Checkpoint, event_id: str,
                  features: Sequence) -> EmotionPoint:
    """Project one event, given its feature grids, onto the emotion plane."""
    ab, vb = check_pair(arousal_ckpt, valence_ckpt)
    if len(features) == 0:
        raise ValueError("cannot project an event with no frames")
    a_score = predict_event(arousal_ckpt, features)
    v_score = predict_event(valence_ckpt, features)
    return project_scores(event_id, a_score, v_score, ab, vb, len(features))


def export_points(points: Sequence[EmotionPoint], path, fmt: str = "csv") -> None:
    """Write points as CSV (9 significant digits) or a JSON array."""
    path = Path(path)
    if fmt == "csv":
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_HEADER)
            for p in points:
                writer.writerow(
                    [p.event_id, f"{p.valence:.9g}", f"{p.arousal:.9g}", p.quadrant, p.n_frames]
                )
    elif fmt == "json":
        records = [
            {"event_id": p.event_id, "valence": p.valence, "arousal": p.arousal,
             "quadrant": p.quadrant, "n_frames": p.n_frames}
            for p in points
        ]
        path.write_text(json.dumps(records, indent=2))
    else:
        raise ValueError(f"unknown format {fmt!r}")


def load_points(path, fmt: str = "csv") -> list[EmotionPoint]:
    """Read back an export_points file."""
    path = Path(path)
    points = []
    if fmt == "csv":
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header != _CSV_HEADER:
                raise ValueError(f"unexpected CSV header {header!r}")
            for row in reader:
                points.append(
                    EmotionPoint(row[0], float(row[1]), float(row[2]), row[3], int(row[4]))
                )
    elif fmt == "json":
        for rec in json.loads(path.read_text()):
            points.append(EmotionPoint(rec["event_id"], rec["valence"], rec["arousal"],
                                       rec["quadrant"], rec["n_frames"]))
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return points
