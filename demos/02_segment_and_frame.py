"""Cut a continuous recording into vocal events, then into model frames.

A recording with two tone bursts separated by silence comes out as two
events; each event is normalised to 5120-sample frames (about 232 ms at
22.05 kHz): short events are symmetrically zero-padded, long ones slide a
50%-overlap window plus one end-aligned frame for the tail.
"""

import numpy as np

from barkspace import (AudioClip, SegmentationConfig, detect_nonsilent,
                       frame_segment)

SR = 22050
cfg = SegmentationConfig()


def burst(seconds, freq):
    t = np.arange(int(seconds * SR)) / SR
    return 0.7 * np.sin(2 * np.pi * freq * t) * np.hanning(len(t))


recording = np.concatenate([
    np.zeros(SR // 2),
    burst(0.15, 900.0),      # a short yip: one padded frame
    np.zeros(SR),
    burst(1.1, 500.0),       # a long bark: several sliding frames
    np.zeros(SR // 2),
])
clip = AudioClip(recording, SR)

events = detect_nonsilent(clip, cfg, event_prefix="demo")
print(f"recording of {clip.duration_s:.2f}s -> {len(events)} events "
      f"(threshold: {cfg.top_db} dB below the loudest window)\n")

for seg in events:
    frames = frame_segment(seg, cfg)
    span = f"[{seg.start_sample}, {seg.end_sample})"
    print(f"{seg.event_id}: span {span}, {len(seg.samples)} samples "
          f"-> {len(frames)} frame(s)")
    for k, f in enumerate(frames):
        pad = int((f.samples == 0.0).sum())
        print(f"   frame {k}: {len(f.samples)} samples, "
              f"{pad} zero samples")
print("\nEvery frame is exactly", cfg.target_len, "samples, whatever the event length.")
