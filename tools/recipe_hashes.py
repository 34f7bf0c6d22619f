"""Print the SHA-256 of every output of the reference recipe.

Usage: ``python tools/recipe_hashes.py`` (no flags). It runs, through
``barkspace.cli.main`` in a temporary directory:

- ``synth --seed 101 --n-events 200``, then ``split --ratio 0.7 --seed 101``;
- valence siamese and baseline models (``--epochs 2 --batch 64
  --pairs-per-epoch 2000 --lr 1e-3 --seed 7``) and an arousal siamese model
  (``--epochs 1 --batch 32 --seed 3``), all on the split manifest;
- ``eval`` of the valence siamese model on the test split, ``project --hist``
  of the split manifest, and ``featurize --format csv`` of ``synth_0007.wav``;
- ``segment`` and ``project`` (arousal and valence siamese models) of a
  seeded 30 s stereo 44.1 kHz recording made here: faint noise with tone
  bursts. This is the recording path: decode, resampling, detection.

It prints one ``name sha256`` line per output; ``events.wav`` hashes the name
and bytes of each event WAV ``segment`` wrote, in name order. The recipe runs
in the temporary directory on relative paths, since ``index.json`` records
its input's path. The bin form of ``featurize`` is left out, since its
metadata records its input path. The hashes depend on numpy, OpenBLAS and
its kernel (set ``OPENBLAS_CORETYPE`` to pick one).
"""

import hashlib
import os
import sys
import tempfile
import wave
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from barkspace.cli import main  # noqa: E402

VALENCE = ("--epochs", "2", "--batch", "64", "--pairs-per-epoch", "2000", "--lr", "1e-3",
           "--seed", "7")
AROUSAL = ("--epochs", "1", "--batch", "32", "--seed", "3")


def write_recording(path: Path) -> None:
    """30 s of stereo 44.1 kHz PCM16 from seed 2026: noise at -50 dBFS plus a
    tone burst of 0.2-0.9 s every 2 s, each at its own pitch and level, the
    right channel a fifth above the left."""
    sr, seconds, rng = 44100, 30, np.random.default_rng(2026)
    x = 0.003 * rng.standard_normal((seconds * sr, 2))
    for start in range(sr // 2, (seconds - 1) * sr, 2 * sr):
        t = np.arange(int(rng.uniform(0.2, 0.9) * sr)) / sr
        f, amp = rng.uniform(300.0, 1200.0), rng.uniform(0.1, 0.6)
        x[start : start + len(t), 0] += amp * np.sin(2 * np.pi * f * t)
        x[start : start + len(t), 1] += 0.7 * amp * np.sin(3 * np.pi * f * t)
    with wave.open(str(path), "wb") as w:
        w.setnchannels(2)
        w.setsampwidth(2)
        w.setframerate(sr)
        w.writeframes(np.rint(x * 32767).astype("<i2").tobytes())


def recipe(d: Path) -> dict:
    """Run the recipe in ``d``; the path of each hashed output, by name."""
    corpus = d / "corpus"
    split = corpus / "split.csv"
    recording = d / "recording.wav"
    out = {name: d / name for name in ("siamese.ckpt", "baseline.ckpt", "arousal.ckpt",
                                       "eval.json", "points.csv", "hist.json",
                                       "featurize.csv", "recording_points.csv")}
    write_recording(recording)
    runs = [
        ("synth", "--seed", "101", "--n-events", "200", "--out", corpus),
        ("split", "--manifest", corpus / "manifest.csv", "--ratio", "0.7", "--seed", "101",
         "--out", split),
        ("train", "--manifest", split, "--dim", "valence", "--model", "siamese", *VALENCE,
         "--out", out["siamese.ckpt"]),
        ("train", "--manifest", split, "--dim", "valence", "--model", "baseline", *VALENCE,
         "--out", out["baseline.ckpt"]),
        ("train", "--manifest", split, "--dim", "arousal", "--model", "siamese", *AROUSAL,
         "--out", out["arousal.ckpt"]),
        ("eval", "--model", out["siamese.ckpt"], "--manifest", split, "--split", "test",
         "--report", out["eval.json"]),
        ("project", "--arousal-model", out["arousal.ckpt"], "--valence-model",
         out["siamese.ckpt"], "--in", split, "--out", out["points.csv"],
         "--hist", out["hist.json"]),
        ("featurize", "--in", corpus / "synth_0007.wav", "--format", "csv",
         "--out", out["featurize.csv"]),
        ("segment", "--in", recording, "--out", d / "events"),
        ("project", "--arousal-model", out["arousal.ckpt"], "--valence-model",
         out["siamese.ckpt"], "--in", recording, "--out", out["recording_points.csv"]),
    ]
    for argv in runs:
        code = main([str(a) for a in argv])
        if code != 0:
            raise SystemExit(f"barkspace {argv[0]} exited {code}")
    return {**out, "events.json": d / "events" / "index.json", "events.wav": d / "events"}


def digest(path: Path) -> str:
    """SHA-256 of a file's bytes, or of the name and bytes of each WAV in a
    directory, in name order."""
    h = hashlib.sha256()
    if path.is_dir():
        for wav in sorted(path.glob("*.wav")):
            h.update(wav.name.encode())
            h.update(wav.read_bytes())
    else:
        h.update(path.read_bytes())
    return h.hexdigest()


def run() -> None:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, path in recipe(Path(".")).items():
                print(name, digest(path))
        finally:
            os.chdir(home)


if __name__ == "__main__":
    run()
