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
from .audio_io import AudioClip, read_wav
from .corpus import SynthConfig, synth_corpus
from .evaluation import evaluate, event_level_split
from .features import FeatureConfig, log_mel
from .models import TrainConfig
from .projection import export_points, project_event
from .segmentation import SegmentationConfig, detect_nonsilent, frame_segment

__version__ = "0.1.0"
