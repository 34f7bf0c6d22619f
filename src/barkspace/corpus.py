"""Dataset manifests and a controllable synthetic bark-like corpus.

The manifest is a CSV of path,event_id,arousal,valence[,split] rows, one per
vocal event, with ordinal labels in either vocabulary. Relative paths are
resolved against the manifest's directory by consumers.

The synthetic generator produces harmonic pulse trains whose acoustics track
their labels: arousal sets the pulse repetition rate (and level), valence
sets the fundamental frequency, with negative-valence events overlaid with
low-tilted broadband noise. Every file is a deterministic function of
(seed, n_events), which makes end-to-end training claims testable without
any external data.
"""

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .audio_io import CANONICAL_RATE_HZ, AudioClip, open_regular, write_wav
from .labels import VOCABULARY, OrdinalLabel, parse_label

MANIFEST_COLUMNS = ("path", "event_id", "arousal", "valence")

# pulse repetition rate (Hz) per arousal level, peak level per arousal level
_RATE_BANDS = {OrdinalLabel.LOW: (4.0, 8.0), OrdinalLabel.MEDIUM: (12.0, 18.0),
               OrdinalLabel.HIGH: (25.0, 40.0)}
_LEVELS = {OrdinalLabel.LOW: 0.30, OrdinalLabel.MEDIUM: 0.55, OrdinalLabel.HIGH: 0.85}
# fundamental frequency (Hz) per valence level; negative also gets noise
_F0_BANDS = {OrdinalLabel.NEGATIVE: (150.0, 250.0), OrdinalLabel.NEUTRAL: (350.0, 500.0),
             OrdinalLabel.POSITIVE: (700.0, 1000.0)}
_NOISE_DB = -10.0
_N_HARMONICS = 6
# rendering holds several float64 arrays of an event's length, 8 MB each at
# this bound (47.6 s at 22.05 kHz)
MAX_EVENT_SAMPLES = 2**20

# round-robin order covers every level of both dimensions within 3 events
_COMBO_ORDER = (
    (OrdinalLabel.HIGH, OrdinalLabel.POSITIVE),
    (OrdinalLabel.MEDIUM, OrdinalLabel.NEUTRAL),
    (OrdinalLabel.LOW, OrdinalLabel.NEGATIVE),
    (OrdinalLabel.HIGH, OrdinalLabel.NEGATIVE),
    (OrdinalLabel.MEDIUM, OrdinalLabel.POSITIVE),
    (OrdinalLabel.LOW, OrdinalLabel.NEUTRAL),
    (OrdinalLabel.HIGH, OrdinalLabel.NEUTRAL),
    (OrdinalLabel.MEDIUM, OrdinalLabel.NEGATIVE),
    (OrdinalLabel.LOW, OrdinalLabel.POSITIVE),
)


class ManifestError(ValueError):
    """Malformed manifest: bad header, bad row, bad token, or duplicate id."""


@dataclass
class ManifestEntry:
    path: str
    event_id: str
    arousal: OrdinalLabel
    valence: OrdinalLabel
    split: Optional[str] = None


@dataclass(frozen=True)
class SynthConfig:
    seed: int
    n_events: int
    duration_range: tuple[float, float] = (0.2, 1.5)

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.n_events < 6:
            raise ValueError("n_events must be >= 6 so all label levels appear")
        lo, hi = self.duration_range
        if not (0 < lo <= hi < math.inf):
            raise ValueError("duration_range must be increasing, positive and finite")
        for dur in (lo, hi):  # _render_event makes round(dur * rate) samples
            if not 0.5 < dur * CANONICAL_RATE_HZ <= MAX_EVENT_SAMPLES:
                raise ValueError(f"an event of {dur} s holds fewer than 1 or more than "
                                 f"{MAX_EVENT_SAMPLES} samples at {CANONICAL_RATE_HZ} Hz")


def _csv_rows(reader, path):
    """``reader``'s rows; a row it cannot parse (a field over ``csv``'s
    length limit) raises ManifestError naming ``path`` and the line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ManifestError(f"{path}: line {reader.line_num}: {exc}") from None


def load_manifest(path) -> list[ManifestEntry]:
    """Parse a manifest CSV; errors carry 1-based line numbers."""
    path = Path(path)
    entries: list[ManifestEntry] = []
    seen: dict[str, int] = {}
    with open_regular(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        rows = _csv_rows(reader, path)
        try:
            header = next(rows)
        except StopIteration:
            raise ManifestError(f"{path}: empty file, expected a header row") from None
        header = [h.strip() for h in header]
        if tuple(header[:4]) != MANIFEST_COLUMNS or len(header) > 5 or (
            len(header) == 5 and header[4] != "split"
        ):
            raise ManifestError(
                f"{path}: header must be path,event_id,arousal,valence[,split], got {header}"
            )
        has_split = len(header) == 5
        for row in rows:
            line = reader.line_num
            if len(row) != len(header):
                raise ManifestError(
                    f"{path}: line {line}: expected {len(header)} fields, got {len(row)}"
                )
            wav_path, event_id = row[0].strip(), row[1].strip()
            if not wav_path or not event_id:
                raise ManifestError(f"{path}: line {line}: empty path or event_id")
            if event_id in seen:
                raise ManifestError(
                    f"{path}: duplicate event_id {event_id!r} on lines {seen[event_id]} and {line}"
                )
            seen[event_id] = line
            try:
                arousal = parse_label(row[2])
                valence = parse_label(row[3])
            except ValueError as exc:
                raise ManifestError(f"{path}: line {line}: {exc}") from None
            split = None
            if has_split and row[4].strip():
                split = row[4].strip().lower()
                if split not in ("train", "test"):
                    raise ManifestError(
                        f"{path}: line {line}: split must be train or test, got {row[4]!r}"
                    )
            entries.append(ManifestEntry(wav_path, event_id, arousal, valence, split))
    return entries


def save_manifest(entries: Sequence[ManifestEntry], path) -> None:
    """Write a manifest CSV; the split column appears iff any entry has one."""
    path = Path(path)
    has_split = any(e.split for e in entries)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_COLUMNS + (("split",) if has_split else ()))
        for e in entries:
            row = [e.path, e.event_id, VOCABULARY["arousal"][e.arousal],
                   VOCABULARY["valence"][e.valence]]
            if has_split:
                row.append(e.split or "")
            writer.writerow(row)


def _render_event(rng: np.random.Generator, arousal: OrdinalLabel,
                  valence: OrdinalLabel, cfg: SynthConfig) -> np.ndarray:
    sr = CANONICAL_RATE_HZ
    dur = rng.uniform(*cfg.duration_range)
    n = int(round(dur * sr))
    t = np.arange(n) / sr

    rate = rng.uniform(*_RATE_BANDS[arousal])
    level = _LEVELS[arousal] + rng.uniform(-0.05, 0.05)
    f0 = rng.uniform(*_F0_BANDS[valence])
    phases = rng.uniform(0.0, 2.0 * np.pi, size=_N_HARMONICS)

    # pulse width 0.6 of the period (capped) keeps the train modulated at
    # `rate` while every 5120-sample frame still overlaps at least one pulse
    period = 1.0 / rate
    width = min(0.09, 0.6 * period)
    onset = rng.uniform(0.0, 0.25 * period)
    envelope = np.zeros(n)
    start = onset
    while start < dur:
        i0 = int(round(start * sr))
        i1 = min(n, i0 + int(round(width * sr)))
        if i1 > i0:
            k = i1 - i0
            envelope[i0:i1] = np.maximum(
                envelope[i0:i1], 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(k) / k)
            )
        start += period

    harm = np.zeros(n)
    for k in range(1, _N_HARMONICS + 1):
        harm += 0.7 ** (k - 1) * np.sin(2.0 * np.pi * k * f0 * t + phases[k - 1])
    wave = envelope * harm
    peak = np.abs(wave).max()
    if peak > 0:
        wave *= level / peak
    if valence == OrdinalLabel.NEGATIVE:
        # growl-like rumble: broadband but tilted 1/(f+50) so the noise marks
        # the class without dragging the spectral centroid above the tones
        white = np.fft.rfft(rng.normal(0.0, 1.0, size=n))
        shaped = np.fft.irfft(white / (np.fft.rfftfreq(n, 1.0 / sr) + 50.0), n)
        std = shaped.std()
        if std > 0:  # a 1-sample event's noise has none
            shaped /= std
        wave = wave + level * 10.0 ** (_NOISE_DB / 20.0) * shaped
    return np.clip(wave, -0.999, 0.999)


def synth_corpus(cfg: SynthConfig, out_dir) -> list[ManifestEntry]:
    """Generate WAV files plus manifest.csv; byte-identical for equal configs.

    Labels are assigned round-robin over the 9 (arousal, valence)
    combinations, so n_events=9 yields exactly one event per combination.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)
    entries = []
    for i in range(cfg.n_events):
        arousal, valence = _COMBO_ORDER[i % len(_COMBO_ORDER)]
        wave = _render_event(rng, arousal, valence, cfg)
        event_id = f"synth_{i:04d}"
        filename = f"{event_id}.wav"
        write_wav(out_dir / filename, AudioClip(wave, CANONICAL_RATE_HZ))
        entries.append(ManifestEntry(filename, event_id, arousal, valence))
    save_manifest(entries, out_dir / "manifest.csv")
    return entries
