"""Combine the two dimension models into points on the emotion plane.

Each event gets a (valence, arousal) coordinate: the per-dimension event
score recentered by that model's neutral point (the midpoint of its decode
boundaries). Quadrants then read off directly: excited (+,+), anxious (-,+),
relaxed (+,-), despondent (-,-) in (valence, arousal) sign order.
"""

import tempfile
from collections import Counter
from pathlib import Path

from barkspace import SynthConfig, TrainConfig, export_points, project_event, synth_corpus
from barkspace import pipeline

out = Path(tempfile.mkdtemp(prefix="barkspace_project_"))
entries = synth_corpus(SynthConfig(seed=11, n_events=54, duration_range=(0.2, 0.8)), out)
events = pipeline.load_event_features(entries, out)

checkpoints = {}
for dim in ("arousal", "valence"):
    cfg = TrainConfig(dimension=dim, epochs=8, batch_size=32,
                      learning_rate=1e-3, seed=11, pairs_per_epoch=700)
    checkpoints[dim] = pipeline.train_dimension(events, "siamese", cfg).checkpoint

# both axes score the grids featurised above; nothing is featurised twice
points = [project_event(checkpoints["arousal"], checkpoints["valence"], ev.event_id, ev.features)
          for ev in events]

csv_path = out / "points.csv"
export_points(points, csv_path)
print(f"projected {len(points)} events -> {csv_path}\n")

VAL_NAME = {"LOW": "negative", "MEDIUM": "neutral", "HIGH": "positive"}
by_label = {}
for e, p in zip(entries, points):
    key = (e.arousal.name.lower(), VAL_NAME[e.valence.name])
    by_label.setdefault(key, []).append(p.quadrant)
print(f"{'true labels (arousal, valence)':<34} {'quadrants assigned'}")
for (a, v), quads in sorted(by_label.items()):
    print(f"({a:<6}, {v:<8}){'':<14} {dict(Counter(quads))}")

print("\nHigh-arousal positive events should cluster 'excited'; high-arousal "
      "negative ones 'anxious'; low-arousal events fall to the bottom half.")
