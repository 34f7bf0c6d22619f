"""WAV decoding, PCM16 writing, and band-limited resampling.

Pipeline audio is mono float64 in [-1, 1]. Only RIFF/WAVE PCM16 input is
supported. Everything is resampled to ``CANONICAL_RATE_HZ`` before
segmentation so a fixed-length frame always denotes the same duration,
whatever the source recorder used.

``read_wav`` keeps the data chunk as PCM16 (a ``PcmClip``), decoded only as
it is read. Every clip has ``stretch(a, b)``, samples ``a`` to ``b`` as
float64 with zeros outside the clip, and ``resample`` reads its input only
through it, a block at a time. So neither holds a recording whole as floats
at its own rate: what they hold at once is its file bytes and its
canonical-rate output. A ``PcmClip``'s ``samples`` decodes the whole clip,
anew on each access.
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

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return len(self) / self.sample_rate_hz

    def stretch(self, a: int, b: int) -> np.ndarray:
        """Samples ``a`` to ``b`` (half-open) as a new float64 array, with zeros
        where the span runs past either end of the clip."""
        out = np.zeros(b - a)
        lo, hi = max(a, 0), min(b, len(self))
        if lo < hi:
            self._decode(lo, hi, out[lo - a : hi - a])
        return out

    def _decode(self, lo: int, hi: int, out: np.ndarray) -> None:
        out[:] = self.samples[lo:hi]


class PcmClip(AudioClip):
    """A PCM16 WAV's data chunk, kept as read, plus its sample rate.

    ``frames`` is an (n, channels) int16 view of the file's bytes, 1 or 2
    channels. ``stretch`` decodes only the samples it is asked for, so a
    reader that takes the clip a stretch at a time never holds it as floats;
    ``samples`` decodes the whole clip, anew on each access.
    """

    def __init__(self, frames: np.ndarray, sample_rate_hz: int):
        self.frames = frames
        self.sample_rate_hz = int(sample_rate_hz)

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def samples(self) -> np.ndarray:
        return self.stretch(0, len(self))

    def _decode(self, lo: int, hi: int, out: np.ndarray) -> None:
        # int16 sums and power-of-two scales never round: mono is x * 2**-15,
        # stereo (l + r) * 2**-16, the bits of mean(axis=1) / 32768
        out[:] = self.frames[lo:hi, 0]
        if self.frames.shape[1] == 2:
            out += self.frames[lo:hi, 1]
            out *= 0.5 / PCM16_SCALE
        else:
            out *= 1.0 / PCM16_SCALE


def open_regular(path, mode: str = "rb", newline=None, error=ValueError):
    """``open(path, mode, newline=newline)`` for a regular file, else
    ``error("<path>: not a regular file")``. The open returns at once even on
    a FIFO, so a FIFO or device is refused unread."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        os.close(fd)
        raise error(f"{path}: not a regular file")
    return open(fd, mode, newline=newline)


def read_wav(path) -> PcmClip:
    """Read a RIFF/WAVE PCM16 file as a mono PcmClip.

    The data chunk stays as read: the clip holds it as PCM16 frames and
    decodes a stretch of samples only when asked (see ``PcmClip``). Samples
    are scaled by 1/32768 into [-1, 32767/32768]; stereo is collapsed to mono
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

    return PcmClip(np.frombuffer(data, dtype="<i2").reshape(-1, channels), sample_rate)


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


def _bands(h: np.ndarray, up: int, down: int, row_len: int):
    """Each band of a row's columns as (first column, first input, taps).

    A band is at most BAND_COLS output columns q; it reads inputs
    ceil((q[0]*down - half) / up) to floor((q[-1]*down + half) / up) of its
    row, and its taps are the banded matrix ``h[half + q*down - j*up]``
    (zero off the filter) over those inputs j.
    """
    half = len(h) // 2
    for q0 in range(0, row_len, BAND_COLS):
        q = np.arange(q0, min(q0 + BAND_COLS, row_len))
        first = -((half - q0 * down) // up)
        j = np.arange(first, (q[-1] * down + half) // up + 1)
        d = half + q * down - j[:, None] * up
        yield q0, first, np.where((d >= 0) & (d <= 2 * half), h[np.clip(d, 0, 2 * half)], 0.0)


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
    banded tap matrix. The rows are taken ROW_BLOCK at a time, each
    block's input read with one ``clip.stretch``, so a ``PcmClip`` is
    decoded a block at a time and never held whole as floats. A row's
    columns are split into bands of at most BAND_COLS outputs (``_bands``),
    each a GEMM of the block's rows over its own narrow input window, which
    stays in cache. The bands' taps are kept only when more than one block
    reads them; then the input or the output outweighs them about threefold.
    """
    target_hz = int(target_hz)
    if target_hz <= 0:
        raise ValueError("target_hz must be positive")
    n_in = len(clip)
    if target_hz == clip.sample_rate_hz:
        return AudioClip(clip.stretch(0, n_in), target_hz)

    src_hz = clip.sample_rate_hz
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
    # a row reads inputs lo to hi - 1, counted from its first
    lo = -(half // up)
    hi = ((row_len - 1) * down + half) // up + 1
    # a lone block makes each band's taps as it reaches them, so a long
    # filter never holds every band's at once
    bands = _bands(h, up, down, row_len)
    if n_rows > ROW_BLOCK:
        bands = list(bands)
    out = np.empty((n_rows, row_len))
    for r0 in range(0, n_rows, ROW_BLOCK):
        rows = min(ROW_BLOCK, n_rows - r0)
        x = clip.stretch(r0 * row_step + lo, (r0 + rows - 1) * row_step + hi)
        for q0, first, taps in bands:
            windows = np.lib.stride_tricks.sliding_window_view(x[first - lo :], len(taps))
            block = np.ascontiguousarray(windows[: (rows - 1) * row_step + 1 : row_step])
            out[r0 : r0 + rows, q0 : q0 + taps.shape[1]] = block @ taps
    out = out.reshape(-1)[:n_out]
    np.clip(out, -1.0, 1.0, out=out)
    return AudioClip(out, target_hz)
