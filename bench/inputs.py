"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the seed, so the same seed gives
byte-identical files. Event durations are fixed per group rather than drawn
at random, so every seed gives the same number of frames and therefore the
same amount of work; only the content changes with the seed.
"""

import io
import wave
from pathlib import Path

import numpy as np

from barkspace import cli
from barkspace.audio_io import AudioClip, read_wav, resample
from barkspace.corpus import load_manifest, save_manifest

FIELD_RATE_HZ = 44100
FIELD_NOISE_DBFS = -60.0
FIELD_MIN_GAP_S = 1.5
RIGHT_GAIN = 0.7  # the right channel hears the dog more faintly


def setup_cli(argv) -> None:
    """Run one set-up command through the CLI; a failure stops the benchmark."""
    rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise RuntimeError(f"set-up command failed with exit code {rc}: {argv}")


def synth_groups(out_dir, seed: int, durations, n_per_duration: int) -> Path:
    """One ``barkspace synth`` call per event duration, merged into one manifest.

    Group k lives in ``out_dir/d{k}``; its events are renamed ``d{k}_...`` so
    ids stay unique. Returns the merged manifest's path.
    """
    out_dir = Path(out_dir)
    merged = []
    for k, dur in enumerate(durations):
        sub = out_dir / f"d{k}"
        setup_cli(["synth", "--seed", seed * len(durations) + k, "--n-events", n_per_duration,
              "--dur-min", dur, "--dur-max", dur, "--out", sub])
        for e in load_manifest(sub / "manifest.csv"):
            e.path = f"d{k}/{e.path}"
            e.event_id = f"d{k}_{e.event_id}"
            merged.append(e)
    path = out_dir / "manifest.csv"
    save_manifest(merged, path)
    return path


def stereo_pcm16_bytes(left: np.ndarray, right: np.ndarray, rate_hz: int) -> bytes:
    """RIFF/WAVE PCM16 stereo, quantised as round(x * 32768) and clipped."""
    frames = np.stack((left, right), axis=1)
    q = np.clip(np.rint(frames * 32768.0), -32768, 32767).astype("<i2")
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(2)
        w.setsampwidth(2)
        w.setframerate(rate_hz)
        w.writeframes(q.tobytes())
    return buf.getvalue()


def field_recordings(manifest_path, out_dir, seed: int, n_recordings: int,
                     duration_s: float) -> list[dict]:
    """Plant every manifest event, upsampled to 44.1 kHz, into stereo recordings.

    Events are dealt round-robin to the recordings and placed in order, with
    random gaps of at least FIELD_MIN_GAP_S between them. The gaps hold
    independent low-level noise on each channel. Returns one record per
    planted event: recording file name, event id, onset and length in
    FIELD_RATE_HZ samples.
    """
    manifest_path = Path(manifest_path)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng((seed, 0xF1E1D))
    events = [(e.event_id, resample(read_wav(manifest_path.parent / e.path), FIELD_RATE_HZ).samples)
              for e in load_manifest(manifest_path)]
    n_total = int(round(duration_s * FIELD_RATE_HZ))
    min_gap = int(round(FIELD_MIN_GAP_S * FIELD_RATE_HZ))
    sigma = 10.0 ** (FIELD_NOISE_DBFS / 20.0)
    planted = []
    for r in range(n_recordings):
        mine = events[r::n_recordings]
        spare = n_total - sum(len(x) for _, x in mine) - min_gap * (len(mine) + 1)
        if spare < 0:
            raise ValueError(f"recording {r}: {duration_s} s cannot hold its events")
        gaps = min_gap + np.floor(spare * rng.dirichlet(np.ones(len(mine) + 1))).astype(int)
        left = rng.normal(0.0, sigma, n_total)
        right = rng.normal(0.0, sigma, n_total)
        name = f"rec_{r:02d}.wav"
        pos = 0
        for (event_id, x), gap in zip(mine, gaps):
            pos += int(gap)
            left[pos : pos + len(x)] += x
            right[pos : pos + len(x)] += RIGHT_GAIN * x
            planted.append({"recording": name, "event_id": event_id,
                            "onset": pos, "length": len(x)})
            pos += len(x)
        (out_dir / name).write_bytes(stereo_pcm16_bytes(left, right, FIELD_RATE_HZ))
    return planted


def planted_overlap(planted, index, rate_hz: int) -> tuple[float, float]:
    """(share of planted events overlapping a detected segment,
    segments per planted event), from a ``barkspace segment`` index.

    Planted spans are in FIELD_RATE_HZ samples, index spans in ``rate_hz``.
    """
    by_rec = {}
    for seg in index:
        by_rec.setdefault(Path(seg["source_path"]).name, []).append(
            (seg["start_sample"], seg["end_sample"]))
    hits = 0
    for p in planted:
        lo = p["onset"] * rate_hz / FIELD_RATE_HZ
        hi = (p["onset"] + p["length"]) * rate_hz / FIELD_RATE_HZ
        if any(a < hi and lo < b for a, b in by_rec.get(p["recording"], [])):
            hits += 1
    return hits / len(planted), len(index) / len(planted)
