import itertools

import numpy as np
import pytest

from barkspace import neuralnet as nn
from barkspace.evaluation import (Boundaries, ConfusionMatrix, EvalReport,
                                  UndefinedMetricError, _candidate_thresholds, accuracy,
                                  calibrate_boundaries, decode, evaluate,
                                  evaluate_scored_events, event_level_split,
                                  event_score, tap)
from barkspace.features import FeatureConfig
from barkspace.labels import OrdinalLabel
from barkspace.models import Checkpoint, predict_many
from barkspace.segmentation import SegmentationConfig

H, M, L = OrdinalLabel.HIGH, OrdinalLabel.MEDIUM, OrdinalLabel.LOW


def brute_force_best_accuracy(preds, labels):
    """Grid oracle: try every candidate pair, count matches via decode()."""
    values = sorted(set(preds))
    cands = [-np.inf] + [(a + b) / 2 for a, b in zip(values, values[1:])] + [np.inf]
    best = -1
    for t_low, t_high in itertools.product(cands, cands):
        if t_low > t_high:
            continue
        b = Boundaries(t_low, t_high)
        acc = sum(1 for v, lab in zip(preds, labels) if decode(v, b) == lab)
        best = max(best, acc)
    return best / len(preds)


def train_accuracy(preds, labels, b):
    return accuracy([decode(v, b) for v in preds], labels)


def test_decode_rules():
    b = Boundaries(-0.5, 0.5)
    assert decode(-0.5, b) == M  # boundary value falls in the half-open band
    assert decode(-0.500001, b) == L
    assert decode(0.5, b) == H
    assert decode(-1e9, b) == L
    assert decode(1e9, b) == H
    assert decode(0.0, Boundaries(0.0, 0.0)) == H


def test_decode_monotone():
    b = Boundaries(-0.3, 0.7)
    vs = np.linspace(-2, 2, 101)
    labs = [decode(v, b) for v in vs]
    assert all(a <= c for a, c in zip(labs, labs[1:]))


def test_boundaries_order_enforced():
    with pytest.raises(ValueError):
        Boundaries(1.0, -1.0)


def test_calibration_spec_example():
    preds = [-1.0, -0.9, 0.0, 0.1, 1.0, 1.1]
    labels = [L, L, M, M, H, H]
    b = calibrate_boundaries(preds, labels)
    assert b == Boundaries(-0.45, 0.55)
    assert train_accuracy(preds, labels, b) == 1.0


@pytest.mark.parametrize("preds, labels, expected", [
    ([0.7] * 6, [L, L, L, M, H, H], L),
    ([0.7] * 6, [M, M, M, L, H, H], M),
    ([0.7] * 6, [H, H, H, L, M, M], H),
    ([0.0, 1.0, 2.0, 3.0], [L, M, M, H], None),
], ids=["all-low", "all-medium", "all-high", "separable"])
def test_calibration_boundaries_are_finite(preds, labels, expected):
    """A threshold that no prediction falls below, or that every one does, is
    the lowest prediction or the next float above the highest, never -inf or
    inf: the sentinels decode as the infinities did."""
    b = calibrate_boundaries(preds, labels)
    assert np.isfinite([b.t_low, b.t_high]).all()
    assert train_accuracy(preds, labels, b) == brute_force_best_accuracy(preds, labels)
    if expected is not None:
        assert {decode(v, b) for v in preds} == {expected}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_calibration_rejects_non_finite_predictions(bad):
    preds = [-1.0, bad, 0.0, 0.1, 1.0, 1.1]
    with pytest.raises(ValueError, match="not finite"):
        calibrate_boundaries(preds, [L, L, M, M, H, H])


def test_calibration_degenerate_identical_predictions():
    preds = [0.7] * 6
    labels = [L, L, L, M, H, H]  # majority Low
    b = calibrate_boundaries(preds, labels)
    decoded = [decode(v, b) for v in preds]
    assert set(decoded) == {L}
    assert train_accuracy(preds, labels, b) == 0.5


def test_calibration_survives_adversarial_model():
    # clusters swapped: Low scores high, High scores low; still no error
    preds = [1.0, 1.1, 0.0, 0.1, -1.0, -1.1]
    labels = [L, L, M, M, H, H]
    b = calibrate_boundaries(preds, labels)
    assert train_accuracy(preds, labels, b) == brute_force_best_accuracy(preds, labels)


def test_calibration_matches_grid_oracle_on_random_sets():
    rng = np.random.default_rng(12)
    for trial in range(25):
        n = int(rng.integers(3, 60))
        labels = [L, M, H] + [OrdinalLabel(int(k)) for k in rng.integers(0, 3, size=n)]
        preds = np.round(rng.normal(0, 1, size=len(labels)), 2).tolist()
        b = calibrate_boundaries(preds, labels)
        assert train_accuracy(preds, labels, b) == pytest.approx(
            brute_force_best_accuracy(preds, labels)), trial


def exhaustive_boundaries(preds, labels) -> Boundaries:
    """Reference search: every candidate pair t_low <= t_high, scored by the
    decode rule; ties go to the smallest (t_low, then t_high)."""
    preds, truth = np.asarray(preds), np.asarray([int(l) for l in labels])
    best = max(
        (int(np.sum(np.where(preds < lo, 0, np.where(preds < hi, 1, 2)) == truth)), -lo, -hi)
        for lo, hi in itertools.combinations_with_replacement(
            _candidate_thresholds(np.unique(preds)), 2))
    return Boundaries(-best[1], -best[2])


@pytest.mark.parametrize("kind", ["normal", "tied-integers", "constant"])
def test_calibration_equals_exhaustive_search(kind):
    """The O(n) search picks the same pair as trying every pair, ties included."""
    rng = np.random.default_rng(["normal", "tied-integers", "constant"].index(kind))
    for trial in range(150):
        n = int(rng.integers(3, 30))
        labels = [L, M, H] + [OrdinalLabel(int(k)) for k in rng.integers(0, 3, size=n - 3)]
        if kind == "normal":
            preds = rng.normal(size=n) + rng.uniform(0, 2) * np.asarray([int(l) for l in labels])
        elif kind == "tied-integers":
            preds = rng.integers(-2, 3, size=n).astype(float)
        else:
            preds = np.full(n, rng.normal())
        assert calibrate_boundaries(preds, labels) == exhaustive_boundaries(preds, labels), trial


def test_calibration_additive_shift_invariance():
    rng = np.random.default_rng(3)
    labels = [L, M, H] * 10
    preds = rng.normal(0, 1, size=30)
    b0 = calibrate_boundaries(preds, labels)
    for shift in (3.25, -17.5, 0.03125):
        b1 = calibrate_boundaries(preds + shift, labels)
        base = [decode(v, b0) for v in preds]
        shifted = [decode(v + shift, b1) for v in preds + shift - shift]
        assert shifted == base


def test_calibration_requires_all_classes():
    with pytest.raises(ValueError, match="missing"):
        calibrate_boundaries([0.0, 1.0], [L, H])
    with pytest.raises(ValueError):
        calibrate_boundaries([], [])


def test_accuracy_counts():
    assert accuracy([H, M, L], [H, M, L]) == 1.0
    assert accuracy([H, H, H], [L, L, L]) == 0.0
    assert accuracy([H, M, L, H], [H, M, L, L]) == 0.75
    with pytest.raises(ValueError):
        accuracy([H], [H, M])
    with pytest.raises(ValueError):
        accuracy([], [])


def cm_from(true, pred):
    return ConfusionMatrix.from_labels(true, pred)


def test_tap_hand_count():
    cm = cm_from([H, H, L, L], [L, H, H, L])
    assert tap(cm) == 50.0


def test_tap_zero_when_no_extreme_flips():
    cm = cm_from([H, M, L, H], [H, L, M, M])  # H->L / L->H never happen
    assert tap(cm) == 0.0


def test_tap_undefined_without_extremes():
    cm = cm_from([M, M, M], [H, M, L])
    with pytest.raises(UndefinedMetricError):
        tap(cm)


def test_tap_ignores_medium_row():
    base = cm_from([H, H, L, L, H], [L, H, H, L, M])
    stuffed = ConfusionMatrix(base.counts.copy())
    stuffed.counts[M] += np.array([40, 7, 13])
    assert tap(base) == tap(stuffed)


def test_tap_matches_recount_formula():
    rng = np.random.default_rng(8)
    for _ in range(50):
        counts = rng.integers(0, 20, size=(3, 3))
        if counts[H].sum() + counts[L].sum() == 0:
            continue
        cm = ConfusionMatrix(counts)
        expect = 100.0 * (counts[H, L] + counts[L, H]) / (counts[H].sum() + counts[L].sum())
        assert tap(cm) == expect


def test_event_split_arithmetic_and_determinism():
    ids = [f"e{i}" for i in range(10)]
    train, test = event_level_split(ids, 0.8, seed=4)
    assert len(train) == 8 and len(test) == 2
    assert set(train) | set(test) == set(ids)
    assert set(train) & set(test) == set()
    again = event_level_split(ids, 0.8, seed=4)
    assert (train, test) == again


def test_event_split_validation():
    ids = ["a", "b", "c"]
    with pytest.raises(ValueError):
        event_level_split(ids, 1.0, seed=0)
    with pytest.raises(ValueError):
        event_level_split(ids, 0.01, seed=0)  # would leave train empty
    with pytest.raises(ValueError):
        event_level_split(["only"], 0.5, seed=0)


def test_event_split_never_leaks():
    rng = np.random.default_rng(0)
    for trial in range(100):
        n = int(rng.integers(2, 40))
        ids = [f"ev{trial}_{i}" for i in range(n)]
        frac = float(rng.uniform(0.2, 0.8))
        k = int(np.floor(n * frac + 0.5))
        if k == 0 or k == n:
            continue
        train, test = event_level_split(ids, frac, seed=trial)
        assert not (set(train) & set(test))
        assert sorted(train + test) == sorted(ids)


def scored_fixture():
    # three events per class; per-frame scores sit in clean clusters
    out = []
    for i, (lab, mu) in enumerate([(L, -1.0), (M, 0.0), (H, 1.0)] * 3):
        out.append((f"ev{i}", lab, [mu - 0.05, mu, mu + 0.05]))
    return out


def test_evaluate_perfect_model():
    report = evaluate_scored_events(scored_fixture(), Boundaries(-0.5, 0.5), "arousal")
    assert report.event_accuracy == 1.0
    assert report.frame_accuracy == 1.0
    assert report.tap_percent == 0.0
    assert report.frame_tap_percent == 0.0
    assert report.n_events == 9
    assert report.n_frames == 27
    assert sum(sum(v) for v in report.histograms.values()) == 27


def test_evaluate_constant_predictions():
    scored = [(f"e{i}", lab, [0.0, 0.0]) for i, lab in enumerate([H, H, M, L])]
    report = evaluate_scored_events(scored, Boundaries(-1.0, 1.0), "valence")
    # everything decodes Medium: only the one Medium event is right
    assert report.event_accuracy == 0.25
    assert report.tap_percent == 0.0


def test_report_json_roundtrip():
    report = evaluate_scored_events(scored_fixture(), Boundaries(-0.5, 0.5), "arousal")
    back = EvalReport.from_json(report.to_json())
    assert back.to_dict() == report.to_dict()
    assert np.array_equal(back.confusion.counts, report.confusion.counts)


def test_evaluate_rejects_empty():
    with pytest.raises(ValueError):
        evaluate_scored_events([], Boundaries(0, 0), "arousal")


def test_event_score_is_an_order_free_mean():
    rng = np.random.default_rng(3)
    scores = rng.normal(size=37) * 1e3
    s = event_score(scores)
    assert s == event_score(scores[::-1]) == event_score(rng.permutation(scores))
    assert s == pytest.approx(scores.mean())
    assert event_score([2.5]) == 2.5
    with pytest.raises(ValueError):
        event_score([])


def test_evaluate_scores_like_predict_many_per_event():
    """One batch over all events, split per event, equals scoring each alone."""
    spec = nn.NetSpec((1, 6, 5), (nn.Conv2d(2, 3, 3), nn.Relu(), nn.Flatten(),
                                  nn.Dense(4), nn.Relu(), nn.Dense(1)))
    ckpt = Checkpoint("arousal", 0, spec, nn.init_params(spec, 0, dtype=np.float32),
                      FeatureConfig(), SegmentationConfig(), 22050, Boundaries(-0.1, 0.1))
    rng = np.random.default_rng(6)
    events = [(f"e{i}", lab, [rng.uniform(0, 1, size=(6, 5)) for _ in range(n)])
              for i, (lab, n) in enumerate(zip([L, M, H, L, H], [1, 17, 3, 40, 2]))]
    alone = [(ev, lab, predict_many(ckpt, grids)) for ev, lab, grids in events]
    assert (evaluate(ckpt, events).to_dict()
            == evaluate_scored_events(alone, ckpt.boundaries, "arousal").to_dict())
