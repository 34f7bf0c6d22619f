import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile
from scipy.signal import resample_poly

import barkspace
from barkspace import neuralnet as nn
from barkspace.audio_io import (CANONICAL_RATE_HZ, MAX_RATE_HZ, MIN_RATE_HZ, AudioClip,
                                UnsupportedWavError, WavFormatError, read_wav, resample,
                                write_wav)
from barkspace.evaluation import Boundaries
from barkspace.features import FeatureConfig
from barkspace.models import Checkpoint, save_checkpoint
from barkspace.projection import load_points
from barkspace.segmentation import SegmentationConfig


def wav_bytes(ints, sample_rate, channels=1, fmt_tag=1, bits=16):
    """Hand-assembled RIFF/WAVE bytes, independent of the package writer."""
    data = struct.pack(f"<{len(ints)}h", *ints)
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", fmt_tag, channels, sample_rate,
                      sample_rate * block, block, bits)
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def write(tmp_path, name, blob):
    p = tmp_path / name
    p.write_bytes(blob)
    return p


def test_zero_signal(tmp_path):
    p = write(tmp_path, "z.wav", wav_bytes([0] * 100, 16000))
    clip = read_wav(p)
    assert clip.sample_rate_hz == 16000
    assert len(clip.samples) == 100
    assert np.all(clip.samples == 0.0)


def test_stereo_symmetric_mean(tmp_path):
    # constant +0.5 / -0.5 channels cancel to exactly zero
    frames = [16384, -16384] * 50
    p = write(tmp_path, "s.wav", wav_bytes(frames, 22050, channels=2))
    clip = read_wav(p)
    assert len(clip.samples) == 50
    assert np.all(clip.samples == 0.0)


def test_pcm16_scale_oracle(tmp_path):
    ints = [-32768, 16384, 32767, -1, 1, 0]
    p = write(tmp_path, "v.wav", wav_bytes(ints, 16000))
    clip = read_wav(p)
    assert clip.samples[0] == -1.0
    assert clip.samples[1] == 0.5
    # reference decoder agreement on random content
    rng = np.random.default_rng(5)
    ints = rng.integers(-32768, 32768, size=500).tolist()
    p = write(tmp_path, "r.wav", wav_bytes(ints, 16000))
    ours = read_wav(p).samples
    _, ref = wavfile.read(p)
    assert np.array_equal(ours, ref.astype(np.float64) / 32768.0)


@pytest.mark.parametrize("channels", [1, 2])
def test_pcm16_extremes_decode_exactly(tmp_path, channels):
    # int16 spans [-1, 32767/32768] after scaling, mono and stereo alike: no clip is needed
    ints = [v for v in (-32768, 32767) for _ in range(channels)]
    p = write(tmp_path, "x.wav", wav_bytes(ints, 16000, channels=channels))
    assert read_wav(p).samples.tolist() == [-1.0, 32767 / 32768]


def test_decode_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    ints = rng.integers(-32768, 32768, size=256).tolist()
    p = write(tmp_path, "d.wav", wav_bytes(ints, 22050))
    assert np.array_equal(read_wav(p).samples, read_wav(p).samples)


def test_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_wav(tmp_path / "nope.wav")


def test_directory_rejected(tmp_path):
    """Only a regular file is read (a FIFO is tested from the CLI, in a process
    of its own, since a read of one could block the test run)."""
    with pytest.raises(WavFormatError, match="not a regular file"):
        read_wav(tmp_path)


def test_non_pcm_rejected(tmp_path):
    p = write(tmp_path, "f.wav", wav_bytes([0] * 10, 16000, fmt_tag=3))
    with pytest.raises(UnsupportedWavError):
        read_wav(p)


def test_wrong_bit_depth_rejected(tmp_path):
    p = write(tmp_path, "b.wav", wav_bytes([0] * 10, 16000, bits=8))
    with pytest.raises(UnsupportedWavError):
        read_wav(p)


def test_malformed_header_rejected(tmp_path):
    p = write(tmp_path, "m.wav", b"RIFX" + b"\x00" * 40)
    with pytest.raises(WavFormatError):
        read_wav(p)
    blob = wav_bytes([0] * 100, 16000)
    p = write(tmp_path, "t.wav", blob[:-60])  # truncated data chunk
    with pytest.raises(WavFormatError):
        read_wav(p)


def test_write_read_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    x = rng.uniform(-0.9, 0.9, size=300)
    write_wav(tmp_path / "w.wav", AudioClip(x, 22050))
    back = read_wav(tmp_path / "w.wav")
    assert back.sample_rate_hz == 22050
    assert np.max(np.abs(back.samples - x)) < 1.0 / 32768.0


def test_resample_identity_is_bitwise():
    rng = np.random.default_rng(3)
    clip = AudioClip(rng.uniform(-1, 1, size=1000), 22050)
    out = resample(clip, 22050)
    assert out.sample_rate_hz == 22050
    assert np.array_equal(out.samples, clip.samples)


# run in a fresh interpreter, since this one has imported scipy already
_NO_SCIPY_CHECK = """
import sys
from barkspace.cli import main
wav, events, arousal, valence, points = sys.argv[1:]
assert main(["segment", "--in", wav, "--out", events]) == 0
assert main(["project", "--arousal-model", arousal, "--valence-model", valence,
             "--in", wav, "--out", points]) == 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""


def test_segment_and_project_at_44100_hz_load_no_scipy(tmp_path):
    """Both commands resample a 44.1 kHz stereo recording with numpy alone."""
    sr = 44100
    t = np.arange(2 * sr) / sr
    burst = (t > 0.5) & (t < 1.2)
    left = np.where(burst, 0.5 * np.sin(2 * np.pi * 440.0 * t), 0.0)
    right = np.where(burst, 0.3 * np.sin(2 * np.pi * 660.0 * t), 0.0)
    ints = np.rint(np.column_stack([left, right]) * 32767).astype(int).reshape(-1)
    wav = write(tmp_path, "field.wav", wav_bytes(ints.tolist(), sr, channels=2))
    spec = nn.default_net_spec()
    ckpts = []
    for seed, dim in enumerate(("arousal", "valence")):
        ckpts.append(tmp_path / f"{dim}.ckpt")
        save_checkpoint(Checkpoint(dim, seed, spec, nn.init_params(spec, seed, dtype=np.float32),
                                   FeatureConfig(), SegmentationConfig(), CANONICAL_RATE_HZ,
                                   boundaries=Boundaries(-0.5, 0.5)), ckpts[-1])
    src = str(Path(barkspace.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    points = tmp_path / "points.csv"
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY_CHECK, str(wav),
                           str(tmp_path / "events"), *map(str, ckpts), str(points)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert len(json.loads((tmp_path / "events" / "index.json").read_text())) == 1
    assert len(load_points(points)) == 1


# (n, src_hz, dst_hz); 3 samples at 2000 -> 1000 Hz and 1 at 44100 -> 22050 Hz
# are exactly half-way (1.5 and 0.5) and round up to 2 and 1
RESAMPLE_LENGTHS = [(22050, 22050, 16000), (100, 22050, 16000), (3, 2000, 1000),
                    (1, 44100, 22050), (5, 44100, 22050), (7, 48000, 22050), (1, 8000, 22050),
                    (1001, 11025, 22050), (999, 16000, 44100), (2, 3000, 1000),
                    (10, 3000, 1000)]


def test_resample_length_arithmetic():
    """round(n * dst / src), rounding half up."""
    for n, src_hz, dst_hz in RESAMPLE_LENGTHS:
        out = resample(AudioClip(np.zeros(n), src_hz), dst_hz).samples
        assert len(out) == (2 * n * dst_hz + src_hz) // (2 * src_hz), (n, src_hz, dst_hz)


# (src_hz, dst_hz): upsampling, common recorder rates, both ends of the
# accepted range, rates that share few factors with 22 050 Hz (1001, 44101 and
# 383999 Hz give up = 3150, 22050 and 3150 with filters of 63 001, 882 021 and
# 1 097 141 taps), and two integer downsamplings
ORACLE_RATES = [(44100, 22050), (22050, 44100), (48000, 22050), (16000, 22050),
                (8000, 22050), (11025, 22050), (96000, 22050), (384000, 22050),
                (1000, 22050), (1001, 22050), (44101, 22050), (383999, 22050),
                (2000, 1000), (3000, 1000)]
# 70 001 samples fill more than one ROW_BLOCK of rows at 44.1 -> 22.05 kHz
ORACLE_LENGTHS = (1, 2, 3, 1001, 70001)


@pytest.mark.parametrize("src_hz, dst_hz", ORACLE_RATES)
def test_resample_matches_scipy_resample_poly(src_hz, dst_hz):
    """scipy's resample_poly, cut to round-half-up length and clipped, within 1e-12."""
    rng = np.random.default_rng(src_hz + dst_hz)
    g = math.gcd(src_hz, dst_hz)
    for n in ORACLE_LENGTHS:
        x = rng.uniform(-1.0, 1.0, size=n)
        n_out = (2 * n * dst_hz + src_hz) // (2 * src_hz)
        want = np.clip(resample_poly(x, dst_hz // g, src_hz // g)[:n_out], -1.0, 1.0)
        got = resample(AudioClip(x, src_hz), dst_hz).samples
        assert len(got) == n_out, n
        assert np.all(np.abs(got) <= 1.0), n
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12, n


def test_resample_long_filter_peak_memory_is_below_scipy():
    """1 s at 383 999 Hz designs a 1.1 M-tap filter; numpy's resampler holds
    it without scipy's filter-sized temporaries."""
    x = np.random.default_rng(4).uniform(-1.0, 1.0, size=383999)
    peaks = []
    for call in (lambda: resample(AudioClip(x, 383999), 22050),
                 lambda: resample_poly(x, 3150, 54857)):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1], peaks


def test_resample_preserves_tone_frequency():
    sr = 22050
    t = np.arange(sr) / sr
    clip = AudioClip(0.8 * np.sin(2 * np.pi * 440.0 * t), sr)
    out = resample(clip, 16000)
    spec = np.abs(np.fft.rfft(out.samples))
    peak_hz = np.argmax(spec) * 16000 / len(out.samples)
    assert abs(peak_hz - 440.0) <= 1.0


def test_resample_dc_constant():
    clip = AudioClip(np.full(8000, 0.25), 22050)
    out = resample(clip, 16000).samples
    interior = out[100:-100]
    assert np.max(np.abs(interior - 0.25)) < 1e-3


def test_resample_rejects_bad_rate():
    clip = AudioClip(np.zeros(10), 22050)
    with pytest.raises(ValueError):
        resample(clip, 0)


def wav_header_bytes(data: bytes, sample_rate, channels=1):
    """wav_bytes for any 32-bit sample rate: the byte-rate field wraps."""
    fmt = struct.pack("<HHIIHH", 1, channels, sample_rate,
                      (sample_rate * 2 * channels) % 2**32, 2 * channels, 16)
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def extreme_int16(rng, n):
    """Random int16 samples that include both ends of the range."""
    ints = rng.integers(-32768, 32768, size=n).astype("<i2")
    ints[:4] = [-32768, 32767, -32768, 32767]
    ints[4:8] = [-32768, -32768, 32767, 32767]
    ints[8:10] = [0, 0]
    return ints


def test_stereo_decode_is_bit_equal_to_the_mean_formula(tmp_path):
    rng = np.random.default_rng(11)
    ints = extreme_int16(rng, 2 * 4001)
    p = write(tmp_path, "st.wav", wav_header_bytes(ints.tobytes(), 44100, channels=2))
    ours = read_wav(p).samples
    ref = np.clip(ints.astype(np.float64).reshape(-1, 2).mean(axis=1) / 32768, -1, 1)
    assert ours.dtype == np.float64
    assert ours.tobytes() == ref.tobytes()
    assert ours[0] == ours[1] == -0.5 / 32768
    assert ours[2] == -1.0 and ours[3] == 32767 / 32768


def test_mono_decode_is_bit_equal_to_the_scale_formula(tmp_path):
    rng = np.random.default_rng(12)
    ints = extreme_int16(rng, 3001)
    p = write(tmp_path, "mo.wav", wav_header_bytes(ints.tobytes(), 22050))
    ours = read_wav(p).samples
    ref = np.clip(ints.astype(np.float64) / 32768, -1, 1)
    assert ours.tobytes() == ref.tobytes()


def test_empty_data_chunk_decodes_to_no_samples(tmp_path):
    for channels in (1, 2):
        p = write(tmp_path, f"e{channels}.wav", wav_header_bytes(b"", 16000, channels))
        assert len(read_wav(p).samples) == 0


@pytest.mark.parametrize("rate", [1, 999, 384_001, 4_294_967_291])
def test_sample_rate_outside_range_rejected(tmp_path, rate):
    p = write(tmp_path, "r.wav", wav_header_bytes(b"\x00\x00" * 8, rate))
    with pytest.raises(UnsupportedWavError, match="sample rate"):
        read_wav(p)


@pytest.mark.parametrize("rate", [MIN_RATE_HZ, MAX_RATE_HZ])
def test_sample_rate_range_is_inclusive(tmp_path, rate):
    p = write(tmp_path, "r.wav", wav_header_bytes(b"\x00\x00" * 8, rate))
    assert read_wav(p).sample_rate_hz == rate


def test_zero_sample_rate_is_a_format_error(tmp_path):
    p = write(tmp_path, "r.wav", wav_header_bytes(b"\x00\x00" * 8, 0))
    with pytest.raises(WavFormatError):
        read_wav(p)


def rarely(draw):
    """True for one value in eight, so most blobs stay close to valid.

    Not 0 or 7: hypothesis favours the ends of a range."""
    return draw(st.integers(0, 7)) == 3


@st.composite
def fmt_bodies(draw):
    def field(valid, near_misses, bits):
        if rarely(draw):
            return draw(st.integers(0, 2**bits - 1))
        return draw(st.sampled_from(near_misses if rarely(draw) else valid))

    fields = struct.pack(
        "<HHIIHH",
        field([1], [3, 0xFFFE], 16),
        field([1, 2], [0, 3], 16),
        field([22050, 44100, 1000, 384_000], [999, 384_001, 0, 1, 4_294_967_291], 32),
        field([0], [0], 32),
        field([0], [0], 16),
        field([16], [8, 24], 16),
    )
    tail = draw(st.binary(max_size=8))
    return fields[: draw(st.integers(0, 15))] if rarely(draw) else fields + tail


@st.composite
def riff_files(draw):
    """RIFF-ish blobs: fmt, data and extra chunks in any order, with bad
    ids, sizes, padding and header fields mixed in, sometimes truncated."""
    data = draw(st.binary(max_size=96))
    layout = [(b"fmt ", draw(fmt_bodies())), (b"data", data)]
    layout += [(draw(st.sampled_from([b"LIST", b"fact", b"data", b"fmt "])
                     | st.binary(min_size=4, max_size=4)), draw(st.binary(max_size=24)))
               for _ in range(draw(st.integers(0, 3)))]
    body = b"WAVX" if rarely(draw) else b"WAVE"
    for chunk_id, chunk in draw(st.permutations(layout)):
        if rarely(draw):
            continue  # drop the chunk
        declared = draw(st.integers(0, 2**32 - 1)) if rarely(draw) else len(chunk)
        body += chunk_id + struct.pack("<I", declared) + chunk
        if len(chunk) & 1 and not rarely(draw):
            body += b"\x00"  # word-alignment pad
    blob = b"RIFF" + struct.pack("<I", len(body)) + body
    return blob[: draw(st.integers(0, len(blob)))] if rarely(draw) else blob


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(blob=riff_files())
def test_fuzzed_riff_layouts_raise_only_wav_errors(blob, tmp_path_factory):
    p = tmp_path_factory.getbasetemp() / "fuzz.wav"
    p.write_bytes(blob)
    try:
        clip = read_wav(p)
    except (WavFormatError, UnsupportedWavError):
        return
    assert MIN_RATE_HZ <= clip.sample_rate_hz <= MAX_RATE_HZ
    assert clip.samples.dtype == np.float64 and clip.samples.ndim == 1
    assert np.all(np.abs(clip.samples) <= 1.0)
