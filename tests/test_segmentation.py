import math

import numpy as np
import pytest

from barkspace.audio_io import AudioClip
from barkspace.segmentation import (EventSegment, SegmentationConfig,
                                    detect_nonsilent, frame_segment)

SR = 22050


def tone(n, freq=1000.0, amp=1.0):
    return amp * np.sin(2 * np.pi * freq * np.arange(n) / SR)


def reference_segments(x, cfg):
    """Independent envelope-threshold pass, plain python loops."""
    spans = []
    dbs = []
    offs = list(range(0, len(x), cfg.detect_hop))
    for o in offs:
        w = x[o : o + cfg.detect_frame_len]
        dbs.append(20 * math.log10(math.sqrt(float(np.mean(w * w))) + 1e-10))
    thr = max(dbs) - cfg.top_db
    keep = [d > thr for d in dbs]
    i = 0
    while i < len(keep):
        if keep[i]:
            j = i
            while j + 1 < len(keep) and keep[j + 1]:
                j += 1
            spans.append((offs[i], min(offs[j] + cfg.detect_frame_len, len(x))))
            i = j + 1
        else:
            i += 1
    return spans


def test_all_zero_clip_is_one_full_span_segment():
    clip = AudioClip(np.zeros(8000), SR)
    segs = detect_nonsilent(clip)
    assert len(segs) == 1
    assert (segs[0].start_sample, segs[0].end_sample) == (0, 8000)


def test_empty_clip_rejected():
    with pytest.raises(ValueError):
        detect_nonsilent(AudioClip(np.zeros(0), SR))


def test_single_burst_boundaries():
    cfg = SegmentationConfig()
    x = np.concatenate([np.zeros(8000), tone(4000), np.zeros(8000)])
    segs = detect_nonsilent(AudioClip(x, SR), cfg)
    assert len(segs) == 1
    assert abs(segs[0].start_sample - 8000) <= cfg.detect_frame_len
    assert abs(segs[0].end_sample - 12000) <= cfg.detect_frame_len
    # agrees with the independent implementation exactly
    assert [(s.start_sample, s.end_sample) for s in segs] == reference_segments(x, cfg)


def test_two_bursts_two_segments():
    cfg = SegmentationConfig()
    gap = np.zeros(3 * cfg.detect_frame_len + cfg.detect_hop)
    x = np.concatenate([tone(3000), gap, tone(3000)])
    segs = detect_nonsilent(AudioClip(x, SR), cfg)
    assert len(segs) == 2
    assert [(s.start_sample, s.end_sample) for s in segs] == reference_segments(x, cfg)


def test_detection_is_gain_invariant():
    x = np.concatenate([np.zeros(5000), tone(2500, amp=0.3), np.zeros(5000)])
    base = [(s.start_sample, s.end_sample) for s in detect_nonsilent(AudioClip(x, SR))]
    for gain in (0.001, 0.5, 3.0, 1000.0):
        scaled = [(s.start_sample, s.end_sample)
                  for s in detect_nonsilent(AudioClip(gain * x, SR))]
        assert scaled == base, gain


def test_segment_samples_match_span():
    x = np.concatenate([np.zeros(4000), tone(2000), np.zeros(4000)])
    (seg,) = detect_nonsilent(AudioClip(x, SR))
    assert np.array_equal(seg.samples, x[seg.start_sample : seg.end_sample])


def seg(n, event_id="ev"):
    rng = np.random.default_rng(n)
    return EventSegment(event_id, 0, n, rng.uniform(-1, 1, size=n))


def test_exact_fit_single_frame():
    s = seg(5120)
    frames = frame_segment(s)
    assert len(frames) == 1
    assert np.array_equal(frames[0].samples, s.samples)


def test_framing_10240_three_frames_no_tail():
    s = seg(10240)
    frames = frame_segment(s)
    assert len(frames) == 3
    for k, off in enumerate((0, 2560, 5120)):
        assert np.array_equal(frames[k].samples, s.samples[off : off + 5120])


def test_framing_5000_symmetric_padding():
    s = seg(5000)
    (f,) = frame_segment(s)
    assert len(f.samples) == 5120
    assert np.all(f.samples[:60] == 0.0)
    assert np.all(f.samples[-60:] == 0.0)
    assert np.array_equal(f.samples[60:-60], s.samples)


def test_framing_odd_pad_goes_right():
    s = seg(5119)
    (f,) = frame_segment(s)
    assert np.all(f.samples[:0] == 0.0)  # floor(1/2) = 0 zeros on the left
    assert f.samples[-1] == 0.0
    assert np.array_equal(f.samples[:-1], s.samples)


def test_framing_9000_end_aligned_tail():
    s = seg(9000)
    frames = frame_segment(s)
    assert len(frames) == 3
    assert np.array_equal(frames[0].samples, s.samples[0:5120])
    assert np.array_equal(frames[1].samples, s.samples[2560:7680])
    assert np.array_equal(frames[2].samples, s.samples[3880:9000])


def test_frames_are_read_only_views_at_their_offsets():
    s = seg(9000)
    frames = frame_segment(s)
    assert [f.start for f in frames] == [0, 2560, 3880]
    for f in frames:
        assert np.shares_memory(f.samples, s.samples)
        assert np.array_equal(f.samples, s.samples[f.start : f.start + 5120])
        with pytest.raises(ValueError, match="read-only"):
            f.samples[0] = 1.0
    assert s.samples.flags.writeable


@pytest.mark.parametrize("n, start", [(5000, -60), (5119, 0), (1, -2559)])
def test_padded_frame_is_read_only_and_starts_before_its_event(n, start):
    (f,) = frame_segment(seg(n))
    assert f.start == start  # -floor(d/2) for d = 5120 - n zeros
    assert np.array_equal(f.samples[-start : -start + n], seg(n).samples)
    with pytest.raises(ValueError, match="read-only"):
        f.samples[0] = 1.0


def test_frame_count_formula():
    cfg = SegmentationConfig()
    rng = np.random.default_rng(9)
    for n in rng.integers(cfg.target_len, 60000, size=40):
        n = int(n)
        frames = frame_segment(seg(n), cfg)
        expect = (n - cfg.target_len) // cfg.stride + 1
        if (n - cfg.target_len) % cfg.stride:
            expect += 1
        assert len(frames) == expect, n
        assert all(len(f.samples) == cfg.target_len for f in frames)


def test_empty_segment_rejected():
    s = EventSegment("e", 0, 3, np.zeros(3))
    s.samples = np.zeros(0)
    with pytest.raises(ValueError):
        frame_segment(s)
