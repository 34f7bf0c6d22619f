"""Log-Mel spectrogram front end.

Each fixed-length frame becomes an n_mels x n_time grid in [0, 1]. The mel
power grid is divided by its own maximum before the log, so the features are
invariant to the gain of the input frame: the whole chain from microphone
distance to recorder trim cancels out, and no training-corpus statistics are
needed at projection time. With the defaults (n_fft 512, hop 128, no
centering) a 5120-sample frame yields 37 time columns.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .segmentation import Frame

_POWER_FLOOR = 1e-10


@dataclass(frozen=True)
class FeatureConfig:
    n_fft: int = 512
    hop: int = 128
    n_mels: int = 64
    fmin: float = 0.0
    fmax: float | None = None  # None -> sample_rate / 2
    db_floor: float = -80.0

    def __post_init__(self):
        if not (0 < self.hop <= self.n_fft):
            raise ValueError("hop must be in (0, n_fft]")
        if self.n_mels < 1:
            raise ValueError("n_mels must be >= 1")
        if self.db_floor >= 0:
            raise ValueError("db_floor must be negative")


def hz_to_mel(f):
    """mel(f) = 2595 * log10(1 + f/700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _frame_samples(frame) -> np.ndarray:
    if isinstance(frame, Frame):
        return frame.samples
    return np.asarray(frame, dtype=np.float64)


def stft_power(frame, cfg: FeatureConfig | None = None) -> np.ndarray:
    """Hann-windowed, non-centered power spectrogram, shape (n_fft//2+1, n_time).

    n_time = floor((len - n_fft)/hop) + 1; the frame must be at least n_fft
    samples long.
    """
    cfg = cfg or FeatureConfig()
    x = _frame_samples(frame)
    n = len(x)
    if n < cfg.n_fft:
        raise ValueError(f"frame of {n} samples is shorter than n_fft={cfg.n_fft}")

    # periodic Hann, the analysis variant
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(cfg.n_fft) / cfg.n_fft)
    cols = np.lib.stride_tricks.sliding_window_view(x, cfg.n_fft)[:: cfg.hop]
    spec = np.fft.rfft(cols * w, axis=1)
    return (spec.real**2 + spec.imag**2).T


@lru_cache(maxsize=16)
def _mel_filterbank_memo(sample_rate_hz: int, cfg: FeatureConfig) -> np.ndarray:
    fmax = cfg.fmax if cfg.fmax is not None else sample_rate_hz / 2.0
    if not (0 <= cfg.fmin < fmax <= sample_rate_hz / 2.0):
        raise ValueError("need 0 <= fmin < fmax <= sample_rate/2")

    n_bins = cfg.n_fft // 2 + 1
    bin_hz = np.arange(n_bins) * sample_rate_hz / cfg.n_fft
    # n_mels + 2 equally spaced mel points; triangle m spans points m-1..m+1
    edges_hz = mel_to_hz(np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(fmax), cfg.n_mels + 2))
    lower = edges_hz[:-2, None]
    center = edges_hz[1:-1, None]
    upper = edges_hz[2:, None]
    rising = (bin_hz[None, :] - lower) / (center - lower)
    falling = (upper - bin_hz[None, :]) / (upper - center)
    fb = np.maximum(0.0, np.minimum(rising, falling))
    fb.setflags(write=False)
    return fb


def mel_filterbank(sample_rate_hz: int, cfg: FeatureConfig | None = None) -> np.ndarray:
    """Triangular mel filterbank, shape (n_mels, n_fft//2+1), peak weight 1.

    Centers are equally spaced on the mel scale between fmin and fmax and
    adjacent triangles meet at each other's centers. The matrix is memoized
    per (sample_rate, config) and returned read-only.
    """
    return _mel_filterbank_memo(int(sample_rate_hz), cfg or FeatureConfig())


def mel_center_frequencies(sample_rate_hz: int, cfg: FeatureConfig | None = None) -> np.ndarray:
    """Center frequency (Hz) of each mel filter."""
    cfg = cfg or FeatureConfig()
    fmax = cfg.fmax if cfg.fmax is not None else sample_rate_hz / 2.0
    return mel_to_hz(np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(fmax), cfg.n_mels + 2))[1:-1]


def log_mel(frame, cfg: FeatureConfig | None = None,
            sample_rate_hz: int = 22050) -> np.ndarray:
    """Gain-invariant log-mel grid in [0, 1], shape (n_mels, n_time).

    The mel power grid is max-normalised, floored at _POWER_FLOOR, converted
    to dB, clamped db_floor below the (now exactly 0 dB) maximum, and mapped
    affinely so the floor is 0.0 and the maximum exactly 1.0. A frame with no
    energy at all maps to all zeros.
    """
    cfg = cfg or FeatureConfig()
    power = stft_power(frame, cfg)
    mel_power = mel_filterbank(sample_rate_hz, cfg) @ power

    peak = mel_power.max()
    if peak <= 0.0:
        return np.zeros_like(mel_power)
    db = 10.0 * np.log10(np.maximum(mel_power / peak, _POWER_FLOOR))
    floor = cfg.db_floor  # max dB is exactly 0 after normalisation
    return (np.maximum(db, floor) - floor) / -floor
