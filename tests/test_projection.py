import numpy as np
import pytest

from barkspace import neuralnet as nn
from barkspace.evaluation import Boundaries
from barkspace.features import FeatureConfig
from barkspace.models import Checkpoint, predict_event
from barkspace.projection import (EmotionPoint, export_points, load_points,
                                  neutral_point, project_event, project_scores,
                                  quadrant_of)
from barkspace.segmentation import SegmentationConfig


def test_quadrant_rule():
    assert quadrant_of(0.5, 0.7) == "excited"
    assert quadrant_of(-0.6, 0.8) == "anxious"
    assert quadrant_of(0.4, -0.2) == "relaxed"
    assert quadrant_of(-0.4, -0.2) == "despondent"
    assert quadrant_of(0.0, 0.0) == "excited"  # >= 0 counts as positive
    assert quadrant_of(-1e-9, 0.0) == "anxious"
    assert quadrant_of(0.0, -1e-9) == "relaxed"


def test_quadrant_scale_invariance():
    rng = np.random.default_rng(1)
    for _ in range(50):
        v, a = rng.uniform(-2, 2, size=2)
        q = quadrant_of(v, a)
        for s in (0.001, 7.0, 1234.5):
            assert quadrant_of(s * v, s * a) == q


def test_recentering_maps_neutral_to_origin():
    ab = Boundaries(-0.2, 0.8)
    vb = Boundaries(1.0, 3.0)
    p = project_scores("ev", neutral_point(ab), neutral_point(vb), ab, vb, 4)
    assert p.arousal == 0.0
    assert p.valence == 0.0
    assert p.quadrant == "excited"
    assert p.n_frames == 4


def test_project_scores_matches_spec_quadrants():
    ab = Boundaries(0.0, 0.0)
    vb = Boundaries(0.0, 0.0)
    assert project_scores("a", 0.7, 0.5, ab, vb, 1).quadrant == "excited"
    assert project_scores("b", 0.8, -0.6, ab, vb, 1).quadrant == "anxious"


def grids_for(n=2, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.uniform(0, 1, size=(64, 37)) for _ in range(n)]


def make_ckpt(dimension, seed, boundaries):
    spec = nn.default_net_spec()
    return Checkpoint(
        dimension=dimension, seed=seed, net_spec=spec,
        params=nn.init_params(spec, seed, dtype=np.float32),
        feature_config=FeatureConfig(), segmentation_config=SegmentationConfig(),
        sample_rate_hz=22050, boundaries=boundaries,
    )


def test_project_event_end_to_end():
    a_ckpt = make_ckpt("arousal", 1, Boundaries(-0.3, 0.5))
    v_ckpt = make_ckpt("valence", 2, Boundaries(-0.1, 0.1))
    grids = grids_for(n=3)
    p = project_event(a_ckpt, v_ckpt, "ev7", grids)
    assert p.event_id == "ev7"
    assert p.n_frames == 3
    assert p.arousal == predict_event(a_ckpt, grids) - neutral_point(a_ckpt.boundaries)
    assert p.valence == predict_event(v_ckpt, grids) - neutral_point(v_ckpt.boundaries)
    assert p.quadrant == quadrant_of(p.valence, p.arousal)
    # frame order cannot matter
    q = project_event(a_ckpt, v_ckpt, "ev7", grids[::-1])
    assert (q.valence, q.arousal, q.quadrant) == (p.valence, p.arousal, p.quadrant)


def test_project_event_validation():
    a_ckpt = make_ckpt("arousal", 1, Boundaries(0, 0))
    v_ckpt = make_ckpt("valence", 2, Boundaries(0, 0))
    with pytest.raises(ValueError, match="tagged"):
        project_event(v_ckpt, a_ckpt, "x", grids_for())
    with pytest.raises(ValueError, match="no frames"):
        project_event(a_ckpt, v_ckpt, "x", [])
    bare = make_ckpt("arousal", 1, None)
    with pytest.raises(ValueError, match="boundaries"):
        project_event(bare, v_ckpt, "x", grids_for())


@pytest.mark.parametrize("field, value", [
    ("feature_config", FeatureConfig(db_floor=-60.0)),
    ("segmentation_config", SegmentationConfig(top_db=25.0)),
    ("sample_rate_hz", 16000),
])
def test_project_event_needs_one_front_end(field, value):
    """Both axes score the same grids, so their front ends must agree."""
    a_ckpt = make_ckpt("arousal", 1, Boundaries(0, 0))
    v_ckpt = make_ckpt("valence", 2, Boundaries(0, 0))
    setattr(v_ckpt, field, value)
    with pytest.raises(ValueError, match=field):
        project_event(a_ckpt, v_ckpt, "x", grids_for())


def sample_points():
    return [
        EmotionPoint("e1", 0.123456789, -0.5, "relaxed", 3),
        EmotionPoint("e2", -1.25e-4, 2.0, "anxious", 1),
        EmotionPoint("e3", 0.0, 0.0, "excited", 12),
    ]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_export_roundtrip(tmp_path, fmt):
    path = tmp_path / f"points.{fmt}"
    points = sample_points()
    export_points(points, path, fmt=fmt)
    back = load_points(path, fmt=fmt)
    assert [p.event_id for p in back] == ["e1", "e2", "e3"]
    for a, b in zip(points, back):
        assert b.valence == pytest.approx(a.valence, rel=1e-9, abs=1e-15)
        assert b.arousal == pytest.approx(a.arousal, rel=1e-9, abs=1e-15)
        assert b.quadrant == a.quadrant
        assert b.n_frames == a.n_frames


def test_export_empty_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    export_points([], path, fmt="csv")
    lines = path.read_text().strip().splitlines()
    assert lines == ["event_id,valence,arousal,quadrant,n_frames"]


def test_export_line_count(tmp_path):
    path = tmp_path / "three.csv"
    export_points(sample_points(), path, fmt="csv")
    assert len(path.read_text().strip().splitlines()) == 4


def test_export_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        export_points([], tmp_path / "x.bin", fmt="bin")
