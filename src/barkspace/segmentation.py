"""Energy-based extraction of vocal events and fixed-length framing.

A recording is scanned with short RMS windows; windows louder than
``top_db`` below the loudest window are non-silent, and consecutive
non-silent windows merge into one event segment. Segments are then
normalised to frames of exactly ``target_len`` samples: short segments are
symmetrically zero-padded, long ones are cut with a sliding window plus one
end-aligned frame for any tail remainder. A frame of a long segment is a
read-only view of the segment's samples that records its offset, so framing
copies nothing and a featuriser can share the work of overlapping frames.
"""

import math
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioClip

_EPS = 1e-10
# samples squared per step of ``detect_nonsilent``'s running sum
ENERGY_BLOCK = 1 << 16


@dataclass(frozen=True)
class SegmentationConfig:
    top_db: float = 20.0
    target_len: int = 5120
    stride: int = 2560
    detect_frame_len: int = 1024
    detect_hop: int = 256

    def __post_init__(self):
        if not (0 < self.top_db < math.inf):
            raise ValueError("top_db must be positive and finite")
        if not (0 < self.stride <= self.target_len):
            raise ValueError("stride must be in (0, target_len]")
        if not (0 < self.detect_hop <= self.detect_frame_len):
            raise ValueError("detect_hop must be in (0, detect_frame_len]")


@dataclass
class EventSegment:
    """One continuous vocal event cut from a source clip (half-open span)."""

    event_id: str
    start_sample: int
    end_sample: int
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.start_sample >= self.end_sample:
            raise ValueError("start_sample must be < end_sample")
        if len(self.samples) != self.end_sample - self.start_sample:
            raise ValueError("sample count does not match the span")


@dataclass
class Frame:
    """Fixed-length model input slice of an event.

    ``start`` is the offset of ``samples[0]`` in the event's samples; it is
    negative for a zero-padded frame, whose first samples are padding.
    """

    samples: np.ndarray
    start: int = 0

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)


def _window_db(x: np.ndarray, offsets: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """20*log10(rms + 1e-10) of each window ``x[offsets[i]:ends[i]]``.

    The running sum of squares is built ENERGY_BLOCK samples at a time, each
    block's first square taking the sum so far, so it has the bits of one
    ``np.cumsum`` of the whole clip without its clip-sized temporaries; it is
    freed on return, before any segment is copied.
    """
    csum = np.empty(len(x) + 1)
    csum[0] = 0.0
    for a in range(0, len(x), ENERGY_BLOCK):
        sq = x[a : a + ENERGY_BLOCK] * x[a : a + ENERGY_BLOCK]
        sq[0] += csum[a]
        np.cumsum(sq, out=csum[a + 1 : a + 1 + len(sq)])
    rms = np.sqrt((csum[ends] - csum[offsets]) / (ends - offsets))
    return 20.0 * np.log10(rms + _EPS)


def detect_nonsilent(clip: AudioClip, cfg: SegmentationConfig = SegmentationConfig(),
                     event_prefix: str = "event") -> list[EventSegment]:
    """Find non-silent segments relative to the loudest detection window.

    Window RMS is converted to dB as 20*log10(rms + 1e-10); a window is kept
    iff its dB exceeds (max window dB - top_db). A clip with zero dynamic
    range (including all-zero audio) therefore comes back as one full-span
    segment: a relative threshold cannot rank equal-energy windows.
    """
    x = clip.samples
    n = len(x)
    if n == 0:
        raise ValueError("cannot detect segments in an empty clip")

    offsets = np.arange(0, n, cfg.detect_hop)
    ends = np.minimum(offsets + cfg.detect_frame_len, n)
    db = _window_db(x, offsets, ends)
    keep = db > (db.max() - cfg.top_db)

    segments = []
    idx = np.flatnonzero(keep)
    if idx.size == 0:
        return segments
    breaks = np.flatnonzero(np.diff(idx) > 1)
    run_starts = np.concatenate(([0], breaks + 1))
    run_ends = np.concatenate((breaks, [idx.size - 1]))
    for k, (a, b) in enumerate(zip(run_starts, run_ends)):
        start = int(offsets[idx[a]])
        end = int(min(offsets[idx[b]] + cfg.detect_frame_len, n))
        segments.append(
            EventSegment(f"{event_prefix}_{k:04d}", start, end, x[start:end].copy())
        )
    return segments


def frame_segment(seg: EventSegment,
                  cfg: SegmentationConfig = SegmentationConfig()) -> list[Frame]:
    """Cut one segment into frames of exactly cfg.target_len samples.

    Shorter segments get floor(d/2) zeros on the left and the rest on the
    right. The others are framed at offsets 0, stride, 2*stride, ... and, if
    the last full frame does not end at the segment end, one extra end-aligned
    frame covers the tail without zero padding. Every frame's samples are
    read-only: a padded copy, or a view of ``seg.samples`` from ``start``.
    """
    x = seg.samples
    n = len(x)
    if n == 0:
        raise ValueError("cannot frame an empty segment")

    t = cfg.target_len
    if n < t:
        d = t - n
        padded = np.concatenate((np.zeros(d // 2), x, np.zeros(d - d // 2)))
        padded.flags.writeable = False
        return [Frame(padded, -(d // 2))]

    starts = list(range(0, n - t + 1, cfg.stride))
    if starts[-1] + t != n:
        starts.append(n - t)
    frames = []
    for start in starts:
        view = x[start : start + t]
        view.flags.writeable = False
        frames.append(Frame(view, start))
    return frames
