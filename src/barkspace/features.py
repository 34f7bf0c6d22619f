"""Log-Mel spectrogram front end.

Each fixed-length frame becomes an n_mels x n_time grid in [0, 1]. The mel
power grid is divided by its own maximum before the log, so the features are
invariant to the gain of the input frame: the whole chain from microphone
distance to recorder trim cancels out, and no training-corpus statistics are
needed at projection time. With the defaults (n_fft 512, hop 128, no
centering) a 5120-sample frame yields 37 time columns (``grid_shape``).

``log_mel`` is ``log_mel_from_power`` of ``stft_power``. Column j of an
STFT is the power of the n_fft samples from j * hop, so one ``stft_power``
of a stretch of an event (at most ``max_stft_columns`` columns) serves every
frame that starts a whole number of hops into it: each frame takes its own
``n_time`` columns and gets the bits of its own ``log_mel``.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .audio_io import CANONICAL_RATE_HZ

_POWER_FLOOR = 1e-10

# the most elements any one front-end array may hold, for a frame or for a
# block of an event's STFT: 8 MB of float64
_MAX_ELEMENTS = 2**20


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
        if not (self.n_mels >= 1):
            raise ValueError("n_mels must be >= 1")
        if not (-math.inf < self.db_floor < 0):
            raise ValueError("db_floor must be negative and finite")
        if not (0 <= self.fmin < math.inf):
            raise ValueError("fmin must be non-negative and finite")
        if self.fmax is not None and not (self.fmin < self.fmax < math.inf):
            raise ValueError("fmax must be finite and above fmin")


def grid_shape(cfg: FeatureConfig, target_len: int) -> tuple[int, int]:
    """(n_mels, n_time) of the grid ``log_mel`` makes of a ``target_len``-sample
    frame; ValueError when the frame is shorter than n_fft, or when the frame,
    its windowed STFT matrix, the mel filterbank or the grid would hold more
    than ``_MAX_ELEMENTS`` elements."""
    if target_len < cfg.n_fft:
        raise ValueError(f"frame of {target_len} samples is shorter than n_fft={cfg.n_fft}")
    n_time = (target_len - cfg.n_fft) // cfg.hop + 1
    sizes = {"frame": target_len, "STFT matrix": n_time * cfg.n_fft,
             "mel filterbank": cfg.n_mels * (cfg.n_fft // 2 + 1), "grid": cfg.n_mels * n_time}
    for name, size in sizes.items():
        if size > _MAX_ELEMENTS:
            raise ValueError(f"the feature and segmentation configs make a {name} of {size} "
                             f"elements, more than the front end's bound of {_MAX_ELEMENTS}")
    return cfg.n_mels, n_time


def max_stft_columns(cfg: FeatureConfig) -> int:
    """The most time columns one ``stft_power`` call may make: ``grid_shape``
    bounds both the windowed STFT matrix (n_time * n_fft) and the grid
    (n_mels * n_time) at ``_MAX_ELEMENTS``."""
    return _MAX_ELEMENTS // max(cfg.n_fft, cfg.n_mels)


def hz_to_mel(f):
    """mel(f) = 2595 * log10(1 + f/700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def stft_power(frame, cfg: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """Hann-windowed, non-centered power spectrogram, shape (n_fft//2+1, n_time),
    of a frame's samples (a ``Frame`` or an array) that ``grid_shape`` accepts.
    """
    x = np.asarray(getattr(frame, "samples", frame), dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"frame must be one-dimensional, got shape {x.shape}")
    _, n_time = grid_shape(cfg, len(x))

    # one read-only view of the hop-strided frames; row i is x[i*hop : i*hop+n_fft]
    (step,) = x.strides
    cols = np.lib.stride_tricks.as_strided(x, shape=(n_time, cfg.n_fft),
                                           strides=(cfg.hop * step, step), writeable=False)
    spec = np.fft.rfft(cols * _hann_memo(cfg.n_fft), axis=1)
    return (spec.real**2 + spec.imag**2).T


@lru_cache(maxsize=16)
def _hann_memo(n_fft: int) -> np.ndarray:
    """Periodic Hann window, the analysis variant, memoized and read-only."""
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n_fft) / n_fft)
    w.setflags(write=False)
    return w


def _mel_edges_hz(sample_rate_hz: int, cfg: FeatureConfig) -> np.ndarray:
    """n_mels + 2 points equally spaced in mel from fmin to fmax (by default
    Nyquist); triangle m spans points m..m+2 and peaks at point m+1."""
    fmax = cfg.fmax if cfg.fmax is not None else sample_rate_hz / 2.0
    if not (0 <= cfg.fmin < fmax <= sample_rate_hz / 2.0):
        raise ValueError("need 0 <= fmin < fmax <= sample_rate/2")
    return mel_to_hz(np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(fmax), cfg.n_mels + 2))


@lru_cache(maxsize=16)
def mel_filterbank(sample_rate_hz: int, cfg: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """Triangular mel filterbank, shape (n_mels, n_fft//2+1), peak weight 1.

    Centers are equally spaced on the mel scale between fmin and fmax and
    adjacent triangles meet at each other's centers. The matrix is memoized
    per (sample_rate, config) and returned read-only.
    """
    bin_hz = np.arange(cfg.n_fft // 2 + 1) * sample_rate_hz / cfg.n_fft
    edges_hz = _mel_edges_hz(sample_rate_hz, cfg)
    lower = edges_hz[:-2, None]
    center = edges_hz[1:-1, None]
    upper = edges_hz[2:, None]
    rising = (bin_hz[None, :] - lower) / (center - lower)
    falling = (upper - bin_hz[None, :]) / (upper - center)
    fb = np.maximum(0.0, np.minimum(rising, falling))
    fb.setflags(write=False)
    return fb


def mel_center_frequencies(sample_rate_hz: int,
                           cfg: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """Center frequency (Hz) of each mel filter."""
    return _mel_edges_hz(sample_rate_hz, cfg)[1:-1]


def log_mel(frame, cfg: FeatureConfig = FeatureConfig(),
            sample_rate_hz: int = CANONICAL_RATE_HZ) -> np.ndarray:
    """Gain-invariant log-mel grid in [0, 1], shape (n_mels, n_time):
    ``log_mel_from_power`` of the frame's ``stft_power``."""
    return log_mel_from_power(stft_power(frame, cfg), cfg, sample_rate_hz)


def log_mel_from_power(power: np.ndarray, cfg: FeatureConfig = FeatureConfig(),
                       sample_rate_hz: int = CANONICAL_RATE_HZ) -> np.ndarray:
    """The log-mel grid of one frame's power spectrogram (n_fft//2+1, n_time).

    The mel power grid is max-normalised, floored at _POWER_FLOOR, converted
    to dB, clamped db_floor below the (now exactly 0 dB) maximum, and mapped
    affinely so the floor is 0.0 and the maximum exactly 1.0. A frame with no
    energy at all maps to all zeros.
    """
    mel_power = mel_filterbank(sample_rate_hz, cfg) @ power

    peak = mel_power.max()
    if peak <= 0.0:
        return np.zeros_like(mel_power)
    db = 10.0 * np.log10(np.maximum(mel_power / peak, _POWER_FLOOR))
    floor = cfg.db_floor  # max dB is exactly 0 after normalisation
    return (np.maximum(db, floor) - floor) / -floor
