"""WAV decoding, PCM16 writing, and band-limited resampling.

Pipeline audio is mono float64 in [-1, 1]. Only RIFF/WAVE PCM16 input is
supported. Everything is resampled to ``CANONICAL_RATE_HZ`` before
segmentation so a fixed-length frame always denotes the same duration,
whatever the source recorder used.
"""

import math
import os
import stat
import struct
import wave
from dataclasses import dataclass

import numpy as np

CANONICAL_RATE_HZ = 22050

PCM16_SCALE = 32768.0

# Header rates outside this range are refused: resampling from them either
# designs an absurdly long filter or multiplies the length by thousands.
MIN_RATE_HZ = 1_000
MAX_RATE_HZ = 384_000


class WavFormatError(Exception):
    """Malformed or truncated RIFF/WAVE container."""


class UnsupportedWavError(Exception):
    """Well-formed WAV that is not 16-bit PCM with 1 or 2 channels."""


@dataclass
class AudioClip:
    """Mono waveform plus its sample rate."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("AudioClip samples must be one-dimensional (mono)")
        if int(self.sample_rate_hz) <= 0:
            raise ValueError("sample_rate_hz must be positive")
        self.sample_rate_hz = int(self.sample_rate_hz)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz


def read_wav(path) -> AudioClip:
    """Decode a RIFF/WAVE PCM16 file to a mono AudioClip.

    Samples are scaled by 1/32768 into [-1, 1); stereo is collapsed to mono
    by the per-sample arithmetic mean of the two channels. Both are exact:
    mono is ``x * 2**-15`` and stereo ``(l + r) * 2**-16`` in float64, where
    int16 sums and power-of-two scales never round, so the result has the
    bits of ``mean(axis=1) / 32768``.

    Raises:
        OSError: a path that cannot be opened.
        WavFormatError: not a regular file (a FIFO or device is never read),
            not a RIFF/WAVE container, or truncated chunks.
        UnsupportedWavError: non-PCM encoding, bit depth other than 16,
            more than two channels, or a sample rate outside
            [MIN_RATE_HZ, MAX_RATE_HZ].
    """
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)  # returns at once, even on a FIFO
    info = os.fstat(fd)
    if not stat.S_ISREG(info.st_mode):
        os.close(fd)
        raise WavFormatError(f"{path}: not a regular file")
    with open(fd, "rb") as fh:
        raw = fh.read(info.st_size)
    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")

    view = memoryview(raw)  # chunk bodies are views, not copies
    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body = view[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise WavFormatError(f"{path}: truncated {chunk_id!r} chunk")
        if chunk_id == b"fmt ":
            fmt = body
        elif chunk_id == b"data":
            data = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None or len(fmt) < 16:
        raise WavFormatError(f"{path}: missing or short fmt chunk")
    if data is None:
        raise WavFormatError(f"{path}: missing data chunk")

    audio_format, channels, sample_rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if audio_format != 1:
        raise UnsupportedWavError(f"{path}: non-PCM format tag {audio_format}")
    if bits != 16:
        raise UnsupportedWavError(f"{path}: unsupported bit depth {bits}")
    if channels not in (1, 2):
        raise UnsupportedWavError(f"{path}: unsupported channel count {channels}")
    if sample_rate <= 0:
        raise WavFormatError(f"{path}: invalid sample rate {sample_rate}")
    if not MIN_RATE_HZ <= sample_rate <= MAX_RATE_HZ:
        raise UnsupportedWavError(f"{path}: sample rate {sample_rate} Hz is outside "
                                  f"{MIN_RATE_HZ}-{MAX_RATE_HZ} Hz")
    if len(data) % (2 * channels):
        raise WavFormatError(f"{path}: data chunk is not a whole number of frames")

    ints = np.frombuffer(data, dtype="<i2")
    if channels == 2:
        samples = ints[0::2].astype(np.float64)
        samples += ints[1::2]
        samples *= 0.5 / PCM16_SCALE
    else:
        samples = ints.astype(np.float64)
        samples *= 1.0 / PCM16_SCALE
    np.clip(samples, -1.0, 1.0, out=samples)
    return AudioClip(samples, sample_rate)


def write_wav(path, clip: AudioClip) -> None:
    """Write a mono AudioClip as RIFF/WAVE PCM16 little-endian.

    Quantisation mirrors the decode scale: round(x * 32768), clipped to the
    int16 range, so write/read round-trips within half a quantisation step.
    """
    q = np.clip(np.rint(clip.samples * PCM16_SCALE), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(clip.sample_rate_hz)
        w.writeframes(q.tobytes())


def resample(clip: AudioClip, target_hz: int) -> AudioClip:
    """Resample with a Kaiser-windowed polyphase sinc filter.

    Output length is round(len * target_hz / source_hz), rounding half up.
    Resampling to the source rate returns an identical copy.
    """
    target_hz = int(target_hz)
    if target_hz <= 0:
        raise ValueError("target_hz must be positive")
    if target_hz == clip.sample_rate_hz:
        return AudioClip(clip.samples.copy(), target_hz)

    src_hz = clip.sample_rate_hz
    n_in = len(clip.samples)
    n_out = (2 * n_in * target_hz + src_hz) // (2 * src_hz)
    if n_in == 0:
        return AudioClip(np.zeros(0), target_hz)

    # imported here, not at the top: scipy.signal costs about 70 MB of RSS and
    # over a second to import, and 22 050 Hz input never resamples
    from scipy.signal import resample_poly

    g = math.gcd(target_hz, src_hz)
    out = resample_poly(clip.samples, target_hz // g, src_hz // g)
    if len(out) < n_out:
        out = np.pad(out, (0, n_out - len(out)))
    out = np.clip(out[:n_out], -1.0, 1.0)
    return AudioClip(out, target_hz)
