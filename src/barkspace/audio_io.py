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

KAISER_BETA = 5.0
# resampling block sizes: output columns per tap band, rows per GEMM and
# filter taps made per step (see ``resample``)
BAND_COLS = 64
ROW_BLOCK = 256
TAP_CHUNK = 1 << 16


class WavFormatError(ValueError):
    """Malformed or truncated RIFF/WAVE container."""


class UnsupportedWavError(ValueError):
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


def open_regular(path, mode: str = "rb", newline=None, error=ValueError):
    """``open(path, mode, newline=newline)`` for a regular file, else
    ``error("<path>: not a regular file")``. The open returns at once even on
    a FIFO, so a FIFO or device is refused unread."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        os.close(fd)
        raise error(f"{path}: not a regular file")
    return open(fd, mode, newline=newline)


def read_wav(path) -> AudioClip:
    """Decode a RIFF/WAVE PCM16 file to a mono AudioClip.

    Samples are scaled by 1/32768 into [-1, 32767/32768]; stereo is collapsed to mono
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
    with open_regular(path, error=WavFormatError) as fh:
        raw = fh.read()
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


def _lowpass_taps(up: int, down: int) -> np.ndarray:
    """The anti-aliasing filter of an up/down rate change: 2·half + 1 taps, half = 10·max.

    A sinc with cutoff 1/max(up, down) of the Nyquist rate under a Kaiser
    window (beta 5), normalised to sum to ``up``; it is scipy's
    ``firwin(2*half + 1, 1/max, window=('kaiser', 5.0)) * up``, the filter of
    ``resample_poly``, up to the rounding of ``np.i0``. The taps are made
    TAP_CHUNK at a time, so a long filter has no filter-sized temporaries.
    """
    half = 10 * max(up, down)
    fc = 1.0 / max(up, down)
    h = np.empty(2 * half + 1)
    i0_beta = np.i0(KAISER_BETA)
    for a in range(0, len(h), TAP_CHUNK):
        m = np.arange(a, min(a + TAP_CHUNK, len(h))) - float(half)
        window = np.i0(KAISER_BETA * np.sqrt(1 - (m / half) ** 2.0)) / i0_beta
        h[a : a + len(m)] = fc * np.sinc(fc * m) * window
    h /= h.sum()
    h *= up
    return h


def resample(clip: AudioClip, target_hz: int) -> AudioClip:
    """Resample with a Kaiser-windowed polyphase sinc filter.

    Output length is round(len * target_hz / source_hz), rounding half up.
    Resampling to the source rate returns an identical copy.

    With up/down the reduced rate ratio and h the ``_lowpass_taps``, output
    k is ``sum_j x[j] * h[half + k*down - j*up]`` (zeros outside x), clipped
    to [-1, 1]: ``resample_poly``'s output within rounding. It runs as GEMMs
    (Crochiere & Rabiner, *Multirate Digital Signal Processing*, 1983): the
    outputs are cut into rows of ``G*up``, G = max(1, BAND_COLS // up), so
    row r reads the input from ``r*G*down`` on and every row shares one
    banded tap matrix. A row's columns are split into bands of at most
    BAND_COLS outputs, each with its own narrow input window, and the rows
    are taken ROW_BLOCK at a time, so each block's window copy stays in cache.
    """
    target_hz = int(target_hz)
    if target_hz <= 0:
        raise ValueError("target_hz must be positive")
    if target_hz == clip.sample_rate_hz:
        return AudioClip(clip.samples.copy(), target_hz)

    src_hz = clip.sample_rate_hz
    n_in = len(clip.samples)
    n_out = (2 * n_in * target_hz + src_hz) // (2 * src_hz)
    if n_out == 0:
        return AudioClip(np.zeros(0), target_hz)

    g = math.gcd(target_hz, src_hz)
    up, down = target_hz // g, src_hz // g
    h = _lowpass_taps(up, down)
    half = len(h) // 2
    groups = max(1, BAND_COLS // up)
    row_len, row_step = groups * up, groups * down
    n_rows = -(-n_out // row_len)
    # x with zeros either side, so that every row's window lies inside it
    lead = half // up
    end = (n_rows - 1) * row_step + ((row_len - 1) * down + half) // up + 1
    padded = np.zeros(lead + max(end, n_in))
    padded[lead : lead + n_in] = clip.samples
    out = np.empty((n_rows, row_len))
    for q0 in range(0, row_len, BAND_COLS):
        q = np.arange(q0, min(q0 + BAND_COLS, row_len))
        # inputs ceil((q0*down - half) / up) to floor((q[-1]*down + half) / up)
        first = -((half - q0 * down) // up)
        j = np.arange(first, (q[-1] * down + half) // up + 1)
        d = half + q * down - j[:, None] * up
        taps = np.where((d >= 0) & (d <= 2 * half), h[np.clip(d, 0, 2 * half)], 0.0)
        start = lead + first
        windows = np.lib.stride_tricks.sliding_window_view(padded, len(j))[start::row_step]
        for r0 in range(0, n_rows, ROW_BLOCK):
            block = np.ascontiguousarray(windows[r0 : r0 + ROW_BLOCK])
            out[r0 : r0 + ROW_BLOCK, q0 : q0 + len(q)] = block @ taps
    out = out.reshape(-1)[:n_out]
    np.clip(out, -1.0, 1.0, out=out)
    return AudioClip(out, target_hz)
