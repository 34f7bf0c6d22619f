"""Combine the two dimension models into points in the emotion plane.

Each event gets a (valence, arousal) coordinate. Because the twin-network
scalar is only defined up to an additive constant, each axis is recentered
by the model's own neutral point, the midpoint of its calibrated decode
boundaries, so a perfectly neutral event lands at the origin. Quadrants
follow the circumplex convention: excited, anxious, relaxed, despondent.

Projection takes an event's feature grids, computed once by the caller and
scored by both axes' checkpoints, which must therefore share one front end:
the same feature config, segmentation config and sample rate. It needs no
other event's grids, so a caller can featurise, project and drop one event
at a time, as ``project`` does.

A points file, CSV or JSON, holds one record per event, with the columns of
``_COLUMNS``; CSV writes floats with 9 significant digits.
"""

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .models import Boundaries, Checkpoint, predict_event

QUADRANTS = ("excited", "anxious", "relaxed", "despondent")

# a points file's columns, each with the type it is read back as
_COLUMNS = {"event_id": str, "valence": float, "arousal": float, "quadrant": str,
            "n_frames": int}
_FRONT_END = ("feature_config", "segmentation_config", "sample_rate_hz")


@dataclass
class EmotionPoint:
    """Recentered coordinates of one event.

    ``valence_score``/``arousal_score`` are the raw event scores before
    recentering (adding the neutral point back would not restore their
    bits); they are None for points read back from a file.
    """

    event_id: str
    valence: float
    arousal: float
    quadrant: str
    n_frames: int
    valence_score: Optional[float] = None
    arousal_score: Optional[float] = None


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
    return EmotionPoint(event_id, v, a, quadrant_of(v, a), n_frames,
                        valence_score=valence_score, arousal_score=arousal_score)


def _require(ckpt: Checkpoint, dimension: str) -> Boundaries:
    """``ckpt``'s boundaries, whose neutral point must be finite: an infinite
    boundary would put every event at infinity or NaN on this axis."""
    if ckpt.dimension != dimension:
        raise ValueError(f"{dimension} checkpoint is tagged {ckpt.dimension!r}, not {dimension!r}")
    b = ckpt.boundaries
    if b is None:
        raise ValueError(f"{dimension} checkpoint has no calibrated boundaries")
    if not math.isfinite(neutral_point(b)):
        raise ValueError(f"{dimension} checkpoint's boundaries ({b.t_low}, {b.t_high}) "
                         "have no finite neutral point")
    return b


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
    records = [{name: getattr(p, name) for name in _COLUMNS} for p in points]
    if fmt == "csv":
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_COLUMNS)
            writer.writerows([f"{v:.9g}" if _COLUMNS[name] is float else v
                              for name, v in r.items()] for r in records)
    elif fmt == "json":
        path.write_text(json.dumps(records, indent=2))
    else:
        raise ValueError(f"unknown format {fmt!r}")


def load_points(path, fmt: str = "csv") -> list[EmotionPoint]:
    """Read back an export_points file; a CSV field over ``csv``'s length
    limit raises ValueError naming the file and the line."""
    path = Path(path)
    if fmt == "csv":
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            try:
                header, *rows = reader
            except csv.Error as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        if header != list(_COLUMNS):
            raise ValueError(f"unexpected CSV header {header!r}")
        records = [dict(zip(header, row)) for row in rows]
    elif fmt == "json":
        records = json.loads(path.read_text())
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return [EmotionPoint(**{name: kind(r[name]) for name, kind in _COLUMNS.items()})
            for r in records]
