"""barkspace: canine vocalisations on a continuous arousal-valence plane.

The pipeline decodes WAV audio, extracts non-silent vocal events, cuts them
into fixed-length frames, converts each frame to a gain-invariant log-mel
grid, and scores it with two independently trained CNN regressors, one per
affect dimension. The headline model is a twin-network trained to regress
the signed numeric distance between ordinal labels, which preserves the
Low < Medium < High structure far better than direct regression; decode
boundaries calibrated on training predictions map scores back to labels,
and their midpoint recenters each axis for quadrant assignment.

See the demos/ directory for narrative walkthroughs of each capability and
the ``barkspace`` CLI for batch pipelines.
"""

from . import (audio_io, corpus, evaluation, features, labels, models,
               neuralnet, pipeline, projection, segmentation)
from .audio_io import CANONICAL_RATE_HZ, AudioClip, read_wav, resample, write_wav
from .corpus import ManifestEntry, SynthConfig, load_manifest, save_manifest, synth_corpus
from .evaluation import (Boundaries, ConfusionMatrix, EvalReport, UndefinedMetricError,
                         accuracy, calibrate_boundaries, decode, evaluate,
                         event_level_split, tap)
from .features import FeatureConfig, log_mel, mel_filterbank, stft_power
from .labels import OrdinalLabel, parse_label
from .models import (Checkpoint, TrainConfig, TrainResult, load_checkpoint,
                     load_tensor_file, make_pairs, predict_event, save_checkpoint,
                     save_tensor_file, siamese_forward, train_baseline, train_siamese)
from .projection import EmotionPoint, export_points, project_event, quadrant_of
from .segmentation import (EventSegment, Frame, SegmentationConfig,
                           detect_nonsilent, frame_segment)

__version__ = "0.1.0"
