"""Tests of the benchmark's own machinery: seeded inputs and span arithmetic."""

import numpy as np
import pytest

import inputs
import spans
from barkspace import features, pipeline
from barkspace.audio_io import read_wav


def _tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _field_inputs(tmp_path, name, seed):
    manifest = inputs.synth_groups(tmp_path / name / "corpus", seed, (0.2, 0.6), 6)
    planted = inputs.field_recordings(manifest, tmp_path / name / "rec", seed, 2, 16.0)
    return _tree_bytes(tmp_path / name), planted


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    files_a, planted_a = _field_inputs(tmp_path, "a", 7)
    files_b, planted_b = _field_inputs(tmp_path, "b", 7)
    files_c, _ = _field_inputs(tmp_path, "c", 8)
    assert files_a == files_b
    assert planted_a == planted_b
    assert files_a.keys() == files_c.keys() and files_a != files_c


def test_field_recordings_hold_planted_events_between_quiet_gaps(tmp_path):
    manifest = inputs.synth_groups(tmp_path / "corpus", 3, (0.5,), 6)
    planted = inputs.field_recordings(manifest, tmp_path / "rec", 3, 2, 10.0)
    assert len(planted) == 6
    for name in ("rec_00.wav", "rec_01.wav"):
        clip = read_wav(tmp_path / "rec" / name)
        assert (clip.sample_rate_hz, len(clip.samples)) == (44100, 10 * 44100)
        mine = [p for p in planted if p["recording"] == name]
        assert np.abs(clip.samples[: mine[0]["onset"]]).max() < 0.01
        for p in mine:
            assert np.abs(clip.samples[p["onset"] : p["onset"] + p["length"]]).max() > 0.1


def test_stereo_writer_round_trips_through_the_mean_downmix(tmp_path):
    left = np.array([0.5, -0.25, 0.0, 0.125])
    right = np.array([0.25, 0.25, -0.5, 0.125])
    path = tmp_path / "s.wav"
    path.write_bytes(inputs.stereo_pcm16_bytes(left, right, 44100))
    clip = read_wav(path)
    assert clip.sample_rate_hz == 44100
    np.testing.assert_array_equal(clip.samples, (left + right) / 2)


def test_planted_overlap_counts_events_touching_a_segment():
    planted = [{"recording": "r.wav", "onset": 0, "length": 100},
               {"recording": "r.wav", "onset": 1000, "length": 100},
               {"recording": "q.wav", "onset": 0, "length": 100}]
    # spans of the index are at half the planted rate
    index = [{"source_path": "x/r.wav", "start_sample": 40, "end_sample": 60},
             {"source_path": "x/r.wav", "start_sample": 300, "end_sample": 400},
             {"source_path": "x/r.wav", "start_sample": 540, "end_sample": 560}]
    recall, per_event = inputs.planted_overlap(planted, index, inputs.FIELD_RATE_HZ // 2)
    assert recall == pytest.approx(2 / 3)
    assert per_event == pytest.approx(1.0)


def test_self_time_subtracts_the_union_of_child_spans():
    tree = [spans.Span("root", 0.0, 10.0, None),
            spans.Span("a", 1.0, 4.0, 0),
            spans.Span("b", 3.0, 6.0, 0),  # overlaps a: the union counts once
            spans.Span("a.leaf", 2.0, 3.0, 1),
            spans.Span("late", 9.0, 12.0, 0)]  # clipped to its parent's end
    assert spans.self_times(tree) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])


def test_recorder_links_nested_calls_and_sums_self_time():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))
    inner = rec.wrap("inner", lambda: None)
    outer = rec.wrap("outer", lambda: (inner(), inner()))
    outer()  # outer [0, 5], inner [1, 2] and [3, 4]
    assert [(s.name, s.start, s.end, s.parent) for s in rec.spans] == [
        ("outer", 0, 5, None), ("inner", 1, 2, 0), ("inner", 3, 4, 0)]
    summary = rec.summary()
    assert summary["outer"] == {"calls": 1, "ms": 5000.0, "self_ms": 3000.0}
    assert summary["inner"] == {"calls": 2, "ms": 2000.0, "self_ms": 2000.0}


def test_install_rebinds_imported_names_and_restores_them():
    original = features.log_mel
    rec = spans.Recorder()
    bound, restore = spans.install(rec, [(features, "log_mel", "features.log_mel", None)])
    try:
        assert "barkspace.pipeline.log_mel" in bound["features.log_mel"]
        assert pipeline.log_mel is features.log_mel is not original
        pipeline.log_mel(np.zeros(5120))
        assert [s.name for s in rec.spans] == ["features.log_mel"]
    finally:
        restore()
    assert pipeline.log_mel is features.log_mel is original
