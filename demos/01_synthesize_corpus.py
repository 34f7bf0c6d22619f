"""Generate a labeled synthetic corpus and inspect what the labels sound like.

Each event is a harmonic pulse train. The arousal label drives the pulse
repetition rate (Low 4-8 Hz, Medium 12-18 Hz, High 25-40 Hz) and level; the
valence label drives the fundamental (Negative 150-250 Hz plus a low rumble,
Neutral 350-500 Hz, Positive 700-1000 Hz). Rerunning with the same seed
reproduces every byte.
"""

import tempfile
from pathlib import Path

import numpy as np

from barkspace import SynthConfig, read_wav, synth_corpus
from barkspace.labels import VOCABULARY

out_dir = Path(tempfile.mkdtemp(prefix="barkspace_corpus_"))
entries = synth_corpus(SynthConfig(seed=42, n_events=18), out_dir)

print(f"wrote {len(entries)} events to {out_dir}\n")
print(f"{'event':<12} {'arousal':<8} {'valence':<9} {'dur (s)':>8} {'peak':>6}")
for e in entries:
    clip = read_wav(out_dir / e.path)
    print(f"{e.event_id:<12} {VOCABULARY['arousal'][e.arousal]:<8} "
          f"{VOCABULARY['valence'][e.valence]:<9} "
          f"{clip.duration_s:>8.2f} {np.abs(clip.samples).max():>6.2f}")

print("\nHigh-arousal events have dense pulse trains (loud, fast); "
      "negative-valence ones carry a low fundamental plus broadband rumble.")
print(f"manifest: {out_dir / 'manifest.csv'}")
