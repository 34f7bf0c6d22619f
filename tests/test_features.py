import tracemalloc

import numpy as np
import pytest

from barkspace import features, pipeline
from barkspace.audio_io import AudioClip
from barkspace.features import (FeatureConfig, _hann_memo, grid_shape, hz_to_mel, log_mel,
                                mel_center_frequencies, mel_filterbank, stft_power)
from barkspace.pipeline import featurise
from barkspace.segmentation import (EventSegment, Frame, SegmentationConfig, detect_nonsilent,
                                    frame_segment)

SR = 22050
CFG = FeatureConfig()


def sine_frame(freq, n=5120, amp=1.0):
    return amp * np.sin(2 * np.pi * freq * np.arange(n) / SR)


def test_mel_closed_form():
    assert abs(hz_to_mel(700.0) - 2595.0 * np.log10(2.0)) < 1e-12
    assert abs(hz_to_mel(700.0) - 781.17) < 0.01


def test_stft_shape_and_zero_frame():
    p = stft_power(np.zeros(5120), CFG)
    assert p.shape == (257, 37)
    assert np.all(p == 0.0)


def test_stft_tone_bin():
    p = stft_power(sine_frame(1000.0), CFG)
    expect = round(1000 * 512 / SR)  # = 23
    assert expect == 23
    assert np.all(p.argmax(axis=0) == expect)
    # direct O(N^2) DFT oracle on one column
    w = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(512) / 512)
    col = sine_frame(1000.0)[0:512] * w
    k = np.arange(257)[:, None]
    n = np.arange(512)[None, :]
    dft = (col[None, :] * np.exp(-2j * np.pi * k * n / 512)).sum(axis=1)
    assert np.allclose(np.abs(dft) ** 2, p[:, 0], rtol=1e-9, atol=1e-9)


def test_stft_dc_goes_to_bin_zero():
    p = stft_power(np.ones(5120), CFG)
    assert np.all(p.argmax(axis=0) == 0)


def test_stft_rejects_short_frame():
    with pytest.raises(ValueError):
        stft_power(np.zeros(100), CFG)


def test_filterbank_single_triangle():
    cfg = FeatureConfig(n_mels=1, fmin=100.0, fmax=8000.0)
    fb = mel_filterbank(SR, cfg)
    assert fb.shape == (1, 257)
    assert fb.min() >= 0.0
    center = mel_center_frequencies(SR, cfg)[0]
    bins_hz = np.arange(257) * SR / 512
    assert abs(bins_hz[fb[0].argmax()] - center) <= SR / 512


def test_filterbank_rows_peak_near_centers():
    fb = mel_filterbank(SR, CFG)
    centers = mel_center_frequencies(SR, CFG)
    bins_hz = np.arange(257) * SR / 512
    assert fb.shape == (64, 257)
    assert np.all(fb >= 0.0)
    for row, center in zip(fb, centers):
        assert row.max() > 0.0
        assert abs(bins_hz[row.argmax()] - center) <= SR / 512


def test_filterbank_rows_unimodal():
    fb = mel_filterbank(SR, CFG)
    for row in fb:
        peak = row.argmax()
        assert np.all(np.diff(row[: peak + 1]) >= -1e-12)
        assert np.all(np.diff(row[peak:]) <= 1e-12)


def test_filterbank_memoized():
    assert mel_filterbank(SR, CFG) is mel_filterbank(SR, CFG)
    assert not mel_filterbank(SR, CFG).flags.writeable


def test_log_mel_silent_frame_is_zeros():
    m = log_mel(np.zeros(5120), CFG, SR)
    assert m.shape == (64, 37)
    assert np.all(m == 0.0)


def test_log_mel_range_and_exact_max():
    m = log_mel(sine_frame(1000.0), CFG, SR)
    assert m.shape == (64, 37)
    assert np.all(np.isfinite(m))
    assert m.min() >= 0.0
    assert m.max() == 1.0


def test_log_mel_tone_lands_on_nearest_mel_bin():
    m = log_mel(sine_frame(1000.0), CFG, SR)
    centers = mel_center_frequencies(SR, CFG)
    expect = int(np.argmin(np.abs(centers - 1000.0)))
    got = int(m.mean(axis=1).argmax())
    assert abs(got - expect) <= 1


def test_log_mel_gain_invariance():
    x = sine_frame(750.0, amp=0.4) + 0.05 * sine_frame(3100.0)
    base = log_mel(x, CFG, SR)
    # powers of two scale every float exactly, so the grids are bit-identical
    for alpha in (0.5, 2.0):
        assert np.array_equal(log_mel(alpha * x, CFG, SR), base), alpha
    # 0.1 is not a binary fraction: scaling rounds each input sample, so
    # equality is limited by that input rounding, far below any feature scale
    assert np.max(np.abs(log_mel(0.1 * x, CFG, SR) - base)) < 1e-12


def test_log_mel_n_time_follows_hop():
    cfg = FeatureConfig(n_fft=512, hop=256)
    m = log_mel(sine_frame(500.0), cfg, SR)
    assert m.shape == (64, (5120 - 512) // 256 + 1)


def reference_log_mel(x, cfg, sample_rate_hz):
    """The front end as first written: fresh window, sliding_window_view framing."""
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(cfg.n_fft) / cfg.n_fft)
    cols = np.lib.stride_tricks.sliding_window_view(x, cfg.n_fft)[:: cfg.hop]
    spec = np.fft.rfft(cols * w, axis=1)
    power = (spec.real**2 + spec.imag**2).T
    mel_power = mel_filterbank(sample_rate_hz, cfg) @ power
    peak = mel_power.max()
    if peak <= 0.0:
        return np.zeros_like(mel_power)
    db = 10.0 * np.log10(np.maximum(mel_power / peak, 1e-10))
    return (np.maximum(db, cfg.db_floor) - cfg.db_floor) / -cfg.db_floor


def oracle_frames():
    rng = np.random.default_rng(21)
    yield "zeros", np.zeros(5120)
    for i in range(4):
        yield f"noise{i}", rng.uniform(-1.0, 1.0, 5120) * rng.uniform(1e-4, 1.0)
    yield "tone+noise", sine_frame(1234.5, amp=0.3) + 1e-3 * rng.standard_normal(5120)
    yield "long", rng.standard_normal(7777)
    yield "n_fft-exact", rng.standard_normal(512)
    yield "strided", rng.standard_normal(2 * 5120)[::2]  # non-contiguous input


@pytest.mark.parametrize("cfg", [CFG, FeatureConfig(n_fft=256, hop=64),
                                 FeatureConfig(n_fft=512, hop=500, n_mels=40, fmin=50.0,
                                               fmax=9000.0, db_floor=-60.0)],
                         ids=["default", "nfft256-hop64", "odd-hop"])
def test_log_mel_is_bit_equal_to_reference(cfg):
    for name, x in oracle_frames():
        ours = log_mel(x, cfg, SR)
        ref = reference_log_mel(x, cfg, SR)
        assert ours.shape == ref.shape, name
        assert ours.tobytes() == ref.tobytes(), name
    # the Frame wrapper and a list input take the same path
    x = dict(oracle_frames())["noise0"]
    assert log_mel(Frame(x), cfg, SR).tobytes() == log_mel(list(x), cfg, SR).tobytes()


def test_hann_window_memoized_read_only_and_periodic():
    w = _hann_memo(512)
    assert _hann_memo(512) is w
    assert not w.flags.writeable
    assert w[0] == 0.0 and w[256] == 1.0  # periodic: the peak sits at n_fft/2


def test_stft_rejects_multichannel_frame():
    with pytest.raises(ValueError, match="one-dimensional"):
        stft_power(np.zeros((2, 5120)), CFG)


@pytest.mark.parametrize("cfg, target_len", [(CFG, 5120), (CFG, 512), (CFG, 7777),
                                             (FeatureConfig(n_fft=256, hop=64, n_mels=16), 768),
                                             (FeatureConfig(hop=500, n_mels=40), 5120),
                                             (FeatureConfig(n_fft=1024, hop=1024), 2**20)])
def test_grid_shape_is_the_shape_log_mel_makes(cfg, target_len):
    """The last case's STFT matrix holds exactly the bound, 1024 x 1024."""
    x = np.random.default_rng(target_len).standard_normal(target_len)
    assert grid_shape(cfg, target_len) == log_mel(x, cfg, SR).shape


@pytest.mark.parametrize("cfg, target_len, match", [
    (CFG, 511, "shorter than n_fft"),
    (CFG, 2**20 + 1, "frame of 1048577 elements"),
    (CFG, 2**20, "STFT matrix of 4192768"),
    (FeatureConfig(n_mels=2**20 // 257 + 1), 5120, "mel filterbank of 1048817"),
    (FeatureConfig(n_fft=16, hop=1, n_mels=2**17), 16, "mel filterbank"),
    (FeatureConfig(n_fft=16, hop=1, n_mels=2**14), 128, "grid of 1851392"),
])
def test_grid_shape_refuses_short_frames_and_oversized_arrays(cfg, target_len, match):
    with pytest.raises(ValueError, match=match):
        grid_shape(cfg, target_len)


def random_events(seg_cfg, rng, count):
    """Events of 1-80 000 samples: shorter than, equal to and whole strides past
    target_len, then random lengths (mostly unaligned tails); some carry a zeroed
    stretch long enough to hold a frame with no energy at all."""
    t, s = seg_cfg.target_len, seg_cfg.stride
    lengths = [1, t - 1, t, t + s, t + 3 * s, t + 3 * s + 1]
    lengths += rng.integers(1, 80_001, size=count).tolist()
    for n in lengths:
        x = rng.standard_normal(n) * rng.uniform(1e-4, 1.0)
        if rng.random() < 0.4:
            a = int(rng.integers(0, n))
            x[a : a + 3 * t] = 0.0
        yield EventSegment("e", 0, n, x)


@pytest.mark.parametrize("seg_cfg, feat_cfg", [
    (SegmentationConfig(), CFG),
    (SegmentationConfig(stride=2500), CFG),
    (SegmentationConfig(target_len=2048, stride=1024), FeatureConfig(n_fft=256, hop=64)),
    (SegmentationConfig(stride=5120), FeatureConfig(hop=500, n_mels=40)),
], ids=["default", "stride-off-hop-grid", "nfft256-hop64", "odd-hop"])
def test_featurise_is_byte_identical_to_log_mel_of_each_frame(seg_cfg, feat_cfg):
    rng = np.random.default_rng(17)
    silent = 0
    for seg in random_events(seg_cfg, rng, 25):
        frames = frame_segment(seg, seg_cfg)
        grids = featurise(seg, seg_cfg, feat_cfg)
        exact = featurise(seg, seg_cfg, feat_cfg, np.float64)
        assert grids.dtype == np.float32 and len(grids) == len(exact) == len(frames)
        for frame, grid, exact_grid in zip(frames, grids, exact):
            ref = log_mel(frame, feat_cfg, SR)
            assert exact_grid.tobytes() == ref.tobytes()
            assert grid.tobytes() == ref.astype(np.float32).tobytes()
            silent += not ref.any()
    assert silent > 0


def test_featurise_runs_one_stft_per_block_within_the_element_bound(monkeypatch):
    calls = []

    def counted(x, cfg):
        calls.append(len(x))
        return stft_power(x, cfg)

    monkeypatch.setattr(pipeline, "stft_power", counted)
    rng = np.random.default_rng(4)
    seg_cfg = SegmentationConfig()
    n = 5120 + 10 * 2560 + 7  # 11 hop-aligned frames and an unaligned tail
    seg = EventSegment("e", 0, n, rng.standard_normal(n))
    whole = featurise(seg, seg_cfg, CFG)
    assert calls == [n - 7]  # the tail frame runs log_mel
    calls.clear()
    # 64 STFT columns hold two 37-column frames 20 hops apart: five shared
    # blocks, then the eleventh frame and the tail run log_mel
    monkeypatch.setattr(features, "_MAX_ELEMENTS", 64 * 512)
    blocked = featurise(seg, seg_cfg, CFG)
    assert calls == [5120 + 2560] * 5
    assert blocked.tobytes() == whole.tobytes()


def test_featurise_holds_a_long_event_in_bounded_memory():
    # a recording with no dynamic range is one event, however long
    n = 120 * SR
    clip = AudioClip(0.5 * np.sin(2 * np.pi * 440.0 * np.arange(n) / SR), SR)
    (seg,) = detect_nonsilent(clip)
    tracemalloc.start()
    try:
        grids = featurise(seg, SegmentationConfig(), CFG)
        peak = tracemalloc.get_traced_memory()[1] - grids.nbytes
    finally:
        tracemalloc.stop()
    # one STFT of the whole event would hold about 200 MB
    assert peak < 48e6, peak
