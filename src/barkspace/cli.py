"""Batch command line: segment, featurize, synth, split, train, eval, project.

Exit codes are a stable scripting contract: 0 success, 1 usage error,
2 data error (unreadable or inconsistent inputs), 3 internal invariant
violation. Every subcommand is deterministic given its flags and inputs.
``eval`` and ``project`` featurise, score and drop one event at a time, so
they hold one event's grids, not the corpus's.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import models, pipeline, projection
from .audio_io import CANONICAL_RATE_HZ, AudioClip, open_regular, read_wav, resample, write_wav
from .corpus import SynthConfig, load_manifest, save_manifest, synth_corpus
from .evaluation import class_histograms, evaluate, event_level_split
from .features import FeatureConfig, grid_shape
from .segmentation import SegmentationConfig, detect_nonsilent

USAGE_ERROR = 1
DATA_ERROR = 2
INTERNAL_ERROR = 3

# a missing, unreadable or unopenable input path, or bad data: every data
# error class of the package is a ValueError
_DATA_EXCEPTIONS = (OSError, ValueError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


_CONFIG_SECTIONS = ("features", "segmentation", "train")


def _load_config(path):
    """The JSON object at ``path``; every top-level key must name a section,
    so a misspelt one is refused rather than silently left unread."""
    if path is None:
        return {}
    with open_regular(path, "r") as fh:
        try:
            cfg = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: config is nested too deeply") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    for name in cfg:
        if name not in _CONFIG_SECTIONS:
            raise ValueError(f"{path}: section {name!r} is not one of "
                             + ", ".join(_CONFIG_SECTIONS))
    return cfg


def _section(path, config: dict, name: str, cls, overrides: dict):
    """defaults < config-file section < explicit flags, built by ``models.from_json``.

    Raises ValueError naming the file and the section when the section is
    not an object, holds a key ``cls`` does not have or a value of the wrong
    type, or ``cls`` rejects the merged values.
    """
    where = f"{path}: section {name!r}" if path else f"{name} settings"
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise ValueError(f"{where} must be a JSON object")
    return models.from_json(cls, {**section, **{k: v for k, v in overrides.items()
                                                if v is not None}}, where)


def _seg_config(args, config) -> SegmentationConfig:
    return _section(args.config, config, "segmentation", SegmentationConfig,
                    {"top_db": getattr(args, "top_db", None)})


def _front_end(args, config) -> tuple[SegmentationConfig, FeatureConfig]:
    """The segmentation and feature configs, if ``grid_shape`` accepts them."""
    seg_cfg = _seg_config(args, config)
    feat_cfg = _section(args.config, config, "features", FeatureConfig, {})
    grid_shape(feat_cfg, seg_cfg.target_len)
    return seg_cfg, feat_cfg


def _recording_events(path: Path, seg_cfg) -> list:
    """The non-silent spans of the WAV at ``path`` at the canonical rate; an
    empty recording has none, and a zero-energy span holds nothing to score."""
    clip = resample(read_wav(path), CANONICAL_RATE_HZ)
    if len(clip.samples) == 0:
        return []
    return [seg for seg in detect_nonsilent(clip, seg_cfg, event_prefix=path.stem)
            if np.abs(seg.samples).max() > 0.0]


def cmd_segment(args) -> int:
    config = _load_config(args.config)
    seg_cfg = _seg_config(args, config)
    in_path = Path(args.in_path)
    if in_path.is_dir():
        wavs = sorted(in_path.glob("*.wav"))
    elif in_path.exists():
        wavs = [in_path]
    else:
        raise FileNotFoundError(f"no such file or directory: {in_path}")

    # all or nothing: --out is made just before a file is written into it, and
    # a bad input removes the event WAVs written so far and the --out made here
    out_dir = Path(args.out)
    made_out = not out_dir.exists()
    index, written = [], []
    try:
        for wav in wavs:
            for seg in _recording_events(wav, seg_cfg):
                out_dir.mkdir(parents=True, exist_ok=True)
                written.append(out_dir / f"{seg.event_id}.wav")
                write_wav(written[-1], AudioClip(seg.samples, CANONICAL_RATE_HZ))
                index.append({
                    "event_id": seg.event_id,
                    "start_sample": seg.start_sample,
                    "end_sample": seg.end_sample,
                    "source_path": str(wav),
                })
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        if made_out and out_dir.exists():
            out_dir.rmdir()
        raise
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "index.json").write_text(json.dumps(index, indent=2))
    if args.verbose:
        print(f"wrote {len(index)} event(s) to {out_dir}")
    return 0


def cmd_featurize(args) -> int:
    seg_cfg, feat_cfg = _front_end(args, _load_config(args.config))
    in_path = Path(args.in_path)
    # float64 grids: 6 significant digits of a float32 value differ in some CSV cells
    grids = pipeline.featurise(pipeline.event_of_clip(read_wav(in_path), in_path.stem),
                               seg_cfg, feat_cfg, np.float64)

    if args.format == "bin":
        meta = {"kind": "log_mel", "source": str(in_path), "n_frames": len(grids),
                "n_mels": feat_cfg.n_mels, "sample_rate_hz": CANONICAL_RATE_HZ}
        models.save_tensor_file(args.out, [(f"frame{i:04d}", g) for i, g in enumerate(grids)],
                                meta)
    else:  # argparse's choices allow only bin and csv
        with open(args.out, "w") as fh:
            n_time = grids[0].shape[1]
            fh.write("frame,band," + ",".join(f"t{j}" for j in range(n_time)) + "\n")
            for i, g in enumerate(grids):
                for band in range(g.shape[0]):
                    row = ",".join(f"{v:.6g}" for v in g[band])
                    fh.write(f"{i},{band},{row}\n")
    if args.verbose:
        print(f"featurized {len(grids)} frame(s) from {in_path} -> {args.out}")
    return 0


def cmd_synth(args) -> int:
    cfg = SynthConfig(
        seed=args.seed,
        n_events=args.n_events,
        duration_range=(args.dur_min, args.dur_max),
    )
    entries = synth_corpus(cfg, args.out)
    if args.verbose:
        print(f"wrote {len(entries)} event(s) and manifest.csv to {args.out}")
    return 0


def cmd_split(args) -> int:
    if not (0.0 < args.ratio < 1.0):
        print(f"barkspace split: error: --ratio must be in (0, 1), got {args.ratio}",
              file=sys.stderr)
        return USAGE_ERROR
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    entries = load_manifest(args.manifest)
    train_ids, _ = event_level_split([e.event_id for e in entries], args.ratio, args.seed)
    train_set = set(train_ids)
    for e in entries:
        e.split = "train" if e.event_id in train_set else "test"
    save_manifest(entries, args.out)
    if args.verbose:
        n_train = len(train_set)
        print(f"split {len(entries)} events into {n_train} train / {len(entries) - n_train} test")
    return 0


def _events_from_manifest(manifest_path, seg_cfg, feat_cfg, split, missing=None):
    """The manifest rows that ``pipeline.select_split`` picks, each featurised
    only as the returned generator reaches it, so a reader that drops each
    event holds one event's grids at a time.

    The rows are picked at once: when none is and ``missing`` is given, this
    raises ValueError naming ``missing`` before anything is featurised.
    """
    entries = pipeline.select_split(load_manifest(manifest_path), split)
    if missing is not None and not entries:
        raise ValueError(f"{manifest_path}: {missing}")
    base = Path(manifest_path).parent
    return (ev for e in entries
            for ev in pipeline.load_event_features([e], base, seg_cfg, feat_cfg))


def cmd_train(args) -> int:
    config = _load_config(args.config)
    seg_cfg, feat_cfg = _front_end(args, config)
    cfg = _section(args.config, config, "train", models.TrainConfig, {
        "dimension": args.dim, "epochs": args.epochs, "batch_size": args.batch,
        "learning_rate": args.lr, "seed": args.seed,
        "pairs_per_epoch": args.pairs_per_epoch})

    events = list(_events_from_manifest(args.manifest, seg_cfg, feat_cfg, "train",
                                        missing="no training events"))
    result = pipeline.train_dimension(events, args.model, cfg,
                                      seg_cfg=seg_cfg, feat_cfg=feat_cfg)
    models.save_checkpoint(result.checkpoint, args.out)
    if args.verbose:
        print(f"trained {args.model}/{args.dim} on {len(events)} events; "
              f"final epoch loss {result.loss_history[-1]:.6f}; saved {args.out}")
    return 0


def cmd_eval(args) -> int:
    """Featurise, score and drop one event at a time (see ``evaluate``)."""
    ckpt = models.load_checkpoint(args.model)
    events = _events_from_manifest(args.manifest, ckpt.segmentation_config,
                                   ckpt.feature_config, args.split,
                                   missing=f"no events in split {args.split!r}")
    report = evaluate(ckpt, pipeline.evaluation_events(events, ckpt.dimension))
    Path(args.report).write_text(report.to_json())
    if args.verbose:
        print(f"{ckpt.dimension}: event accuracy {report.event_accuracy:.3f}, "
              f"TAP {report.tap_percent:.2f}%")
    return 0


def cmd_project(args) -> int:
    """Featurise, project and drop one event at a time; both axes score the
    same grids. Only the points, and for ``--hist`` each event's labels, are
    kept until the files are written."""
    arousal_ckpt = models.load_checkpoint(args.arousal_model)
    valence_ckpt = models.load_checkpoint(args.valence_model)
    projection.check_pair(arousal_ckpt, valence_ckpt)
    seg_cfg, feat_cfg = arousal_ckpt.segmentation_config, arousal_ckpt.feature_config

    in_path = Path(args.in_path)
    if in_path.suffix.lower() == ".csv":
        events = ((ev.event_id, ev.features, (ev.arousal, ev.valence))
                  for ev in _events_from_manifest(in_path, seg_cfg, feat_cfg, None))
    elif args.hist:
        raise ValueError("--hist needs a labeled manifest input")
    else:
        events = ((seg.event_id, pipeline.featurise(seg, seg_cfg, feat_cfg), None)
                  for seg in _recording_events(in_path, seg_cfg))

    points, labels = [], []
    for event_id, grids, label in events:
        points.append(projection.project_event(arousal_ckpt, valence_ckpt, event_id, grids))
        labels.append(label)
    projection.export_points(points, args.out, fmt=args.format)
    if args.hist:
        _write_projection_histograms(args.hist, labels, points)
    if args.verbose:
        print(f"projected {len(points)} event(s) to {args.out}")
    return 0


def _write_projection_histograms(path, labels, points):
    """``class_histograms`` of the raw event scores of each dimension.

    ``labels`` holds each event's (arousal, valence) labels, and ``points``
    its point, in the same order; the scores are the ones ``project_event``
    computed for the points.
    """
    out = {dim: class_histograms([getattr(p, f"{dim}_score") for p in points],
                                 [label[k] for label in labels])
           for k, dim in enumerate(("arousal", "valence"))}
    Path(path).write_text(json.dumps(out, indent=2))


def build_parser() -> _Parser:
    parser = _Parser(prog="barkspace", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, func):
        p.add_argument("--verbose", action="store_true")
        p.set_defaults(func=func)

    config_help = "JSON config overriding built-in defaults"

    p = sub.add_parser("segment", help="cut recordings into non-silent event WAVs")
    p.add_argument("--in", dest="in_path", required=True, help="WAV file or directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--top-db", type=float, default=None)
    p.add_argument("--config", default=None, help=config_help)
    common(p, cmd_segment)

    p = sub.add_parser("featurize", help="write a WAV's log-mel frames to a file")
    p.add_argument("--in", dest="in_path", required=True, help="WAV file")
    p.add_argument("--out", required=True, help="output tensor/CSV path")
    p.add_argument("--format", choices=("bin", "csv"), default="bin")
    p.add_argument("--config", default=None, help=config_help)
    common(p, cmd_featurize)

    p = sub.add_parser("synth", help="generate a labeled synthetic corpus")
    p.add_argument("--n-events", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dur-min", type=float, default=0.2)
    p.add_argument("--dur-max", type=float, default=1.5)
    p.add_argument("--seed", type=int, default=42, help="PRNG seed (default 42)")
    common(p, cmd_synth)

    p = sub.add_parser("split", help="add an event-level train/test split column")
    p.add_argument("--manifest", required=True)
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=42, help="PRNG seed (default 42)")
    common(p, cmd_split)

    p = sub.add_parser("train", help="train one dimension model")
    p.add_argument("--manifest", required=True)
    p.add_argument("--dim", choices=("arousal", "valence"), required=True)
    p.add_argument("--model", choices=("baseline", "siamese"), required=True)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--pairs-per-epoch", type=int, default=None)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--seed", type=int, default=None,
                   help="PRNG seed (default: the config file's, else 42)")
    p.add_argument("--config", default=None, help=config_help)
    common(p, cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a manifest split")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("--report", required=True, help="output JSON path")
    common(p, cmd_eval)

    p = sub.add_parser("project", help="project events onto the emotion plane")
    p.add_argument("--arousal-model", required=True)
    p.add_argument("--valence-model", required=True)
    p.add_argument("--in", dest="in_path", required=True, help="WAV file or manifest CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--hist", default=None, help="also write per-class score histogram JSON")
    common(p, cmd_project)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        return args.func(args)
    except _DATA_EXCEPTIONS as exc:
        print(f"barkspace {args.command}: error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except Exception as exc:  # noqa: BLE001 - the exit-code contract needs a catch-all
        print(f"barkspace {args.command}: internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
