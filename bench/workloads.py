"""The benchmark's workloads: set-up, one timed pass, and output checks.

A pass drives ``barkspace.cli.main`` in-process with the argument lists a
user would type. ``cli.main`` is looked up on every call, so the traced run's
wrappers see the same calls as the untraced run. ``check`` also stores what
it reads from the outputs (accuracy, planted recall) in the pass's facts,
where ``layer_metrics`` finds it.
"""

import csv
import io
import json
import math
import re
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from barkspace import cli, models, pipeline
from barkspace.audio_io import CANONICAL_RATE_HZ, read_wav
from barkspace.corpus import load_manifest
from barkspace.features import log_mel
from barkspace.projection import QUADRANTS

import inputs

_FINAL_LOSS = re.compile(r"final epoch loss (\S+);")

# Criterion 6 of the acceptance suite asks this much of a trained twin network.
MIN_EVENT_ACCURACY = 0.80
MAX_TAP_PERCENT = 5.0
MIN_PLANTED_RECALL = 0.9


class Ops:
    """Counts CLI calls and output checks; any failure makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def cli(self, argv) -> tuple[str, float]:
        """Run one CLI command; returns (its stdout, wall seconds)."""
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
        seconds = time.perf_counter() - t0
        self.check(rc == 0, f"barkspace {argv[0]} exited {rc}: {err.getvalue().strip()}")
        return out.getvalue(), seconds


@contextmanager
def _capture_checkpoints(store: dict):
    """Keep each checkpoint the CLI saves, keyed by path, as it was in memory."""
    inner = models.save_checkpoint

    def capture(ckpt, path):
        store[str(path)] = ckpt
        return inner(ckpt, path)

    models.save_checkpoint = capture
    try:
        yield
    finally:
        models.save_checkpoint = inner


def _entry_frames(manifest_path, entries) -> list:
    base = Path(manifest_path).parent
    return [pipeline.frames_of_clip(read_wav(base / e.path), e.event_id) for e in entries]


def _check_report(ops: Ops, path, n_events: int, what: str) -> dict:
    try:
        report = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        ops.check(False, f"{what}: unreadable eval report: {exc}")
        return {}
    acc, tap = report.get("event_accuracy"), report.get("tap_percent")
    ops.check(isinstance(acc, (int, float)) and 0.0 <= acc <= 1.0,
              f"{what}: event accuracy {acc!r} outside [0, 1]")
    ops.check(isinstance(tap, (int, float)) and 0.0 <= tap <= 100.0,
              f"{what}: TAP {tap!r} outside [0, 100]")
    ops.check(report.get("n_events") == n_events,
              f"{what}: report covers {report.get('n_events')} events, expected {n_events}")
    return report


def _check_points(ops: Ops, path, expect_ids, what: str) -> None:
    """One row per expected event, in order, finite coordinates, a valid quadrant."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        ops.check(False, f"{what}: unreadable points file: {exc}")
        return
    ops.check([r["event_id"] for r in rows] == list(expect_ids),
              f"{what}: {len(rows)} rows do not match the {len(expect_ids)} expected events")
    bad = [r["event_id"] for r in rows
           if not (math.isfinite(float(r["valence"])) and math.isfinite(float(r["arousal"]))
                   and r["quadrant"] in QUADRANTS and int(r["n_frames"]) >= 1)]
    ops.check(not bad, f"{what}: invalid points for {bad[:5]}")


class TrainWorkload:
    """Twin-network and baseline training, then eval of the twin network.

    Why: the only workload with backward passes and Adam steps. CNN forward
    and backward take about 90 % of it, so it exposes the CNN step, the
    training loop and the calibration batch (one forward over every
    training frame). Events all last 0.5 s (4 frames), so every seed's
    random split trains on the same number of frames.
    """

    name = "train"
    n_events = 200
    duration_s = 0.5
    dimension = "valence"
    epochs = 1  # criterion 6 trains 15; one keeps a pass under 10 s
    batch = 64
    pairs_per_epoch = 2000
    lr = 1e-3
    required = ("cli.main", "corpus.load_manifest", "pipeline.load_event_features",
                "audio_io.read_wav", "audio_io.resample", "segmentation.frame_segment",
                "features.log_mel", "pipeline.train_dimension", "models.train_siamese",
                "models.train_baseline", "models.make_pairs", "neuralnet.forward",
                "neuralnet.backward", "neuralnet.adam_step", "models.predict_many",
                "evaluation.calibrate_boundaries", "models.save_checkpoint",
                "models.load_checkpoint", "evaluation.evaluate")

    def setup(self, work: Path, seed: int) -> dict:
        corpus = work / "corpus"
        manifest = inputs.synth_groups(corpus, seed, (self.duration_s,), self.n_events)
        split = corpus / "split.csv"
        inputs.setup_cli(["split", "--manifest", manifest, "--ratio", 0.8, "--seed", seed,
                    "--out", split])
        entries = load_manifest(split)
        train = [e for e in entries if e.split == "train"]
        test = [e for e in entries if e.split == "test"]
        probe = [log_mel(f) for frames in _entry_frames(split, test[:4]) for f in frames]
        return {"work": work, "seed": seed, "split": split, "n_test": len(test),
                "n_train_frames": sum(len(f) for f in _entry_frames(split, train)),
                "probe": probe}

    def _train_argv(self, st, model, out):
        return ["train", "--manifest", st["split"], "--dim", self.dimension, "--model", model,
                "--epochs", self.epochs, "--batch", self.batch, "--lr", self.lr,
                "--pairs-per-epoch", self.pairs_per_epoch, "--seed", st["seed"],
                "--out", out, "--verbose"]

    def run_pass(self, st: dict, ops: Ops) -> dict:
        work = st["work"]
        ckpts = {"siamese": work / "siamese.ckpt", "baseline": work / "baseline.ckpt"}
        report = work / "report.json"
        saved = {}
        facts = {"saved": saved}
        with _capture_checkpoints(saved):
            for model, path in ckpts.items():
                stdout, facts[f"{model}_s"] = ops.cli(self._train_argv(st, model, path))
                m = _FINAL_LOSS.search(stdout)
                facts[f"{model}_loss"] = float(m.group(1)) if m else math.nan
        _, facts["eval_s"] = ops.cli(["eval", "--model", ckpts["siamese"], "--manifest",
                                      st["split"], "--split", "test", "--report", report])
        facts["ckpts"], facts["report"] = ckpts, report
        return facts

    def check(self, st: dict, facts: dict, ops: Ops) -> None:
        for model, path in facts["ckpts"].items():
            ops.check(math.isfinite(facts[f"{model}_loss"]),
                      f"{model}: final training loss {facts[f'{model}_loss']} is not finite")
            trained = facts["saved"].get(str(path))
            try:
                loaded = models.load_checkpoint(path)
            except (OSError, models.CheckpointError) as exc:
                ops.check(False, f"{model}: checkpoint does not load: {exc}")
                continue
            same = (trained is not None and loaded.boundaries == trained.boundaries
                    and np.array_equal(models.predict_many(loaded, st["probe"]),
                                       models.predict_many(trained, st["probe"])))
            ops.check(same, f"{model}: reloaded checkpoint scores differ from the trained one")
        report = _check_report(ops, facts["report"], st["n_test"], "eval")
        facts["event_accuracy"] = report.get("event_accuracy", math.nan)
        facts["tap_percent"] = report.get("tap_percent", math.nan)
        ops.check(facts["event_accuracy"] >= MIN_EVENT_ACCURACY
                  and facts["tap_percent"] <= MAX_TAP_PERCENT,
                  f"eval: accuracy {facts['event_accuracy']} / TAP {facts['tap_percent']} "
                  f"misses the quality floor")

    def layer_metrics(self, st: dict, facts: dict) -> dict:
        return {
            "train_siamese_pairs_per_s": self.pairs_per_epoch * self.epochs / facts["siamese_s"],
            "train_baseline_frames_per_s": st["n_train_frames"] * self.epochs / facts["baseline_s"],
            "eval_events_per_s": st["n_test"] / facts["eval_s"],
            "event_accuracy": facts["event_accuracy"],
            "tap_percent": facts["tap_percent"],
            "models.final_loss": facts["siamese_loss"],
        }


def _quick_checkpoints(work: Path, seed: int) -> dict:
    """Two briefly trained twin-network checkpoints, one per axis.

    They train on the corpus's first group, the shortest events, which all
    label combinations appear in, so set-up stays short.
    """
    ckpts = {}
    for dim in ("arousal", "valence"):
        ckpts[dim] = work / f"{dim}.ckpt"
        inputs.setup_cli(["train", "--manifest", work / "corpus" / "d0" / "manifest.csv",
                          "--dim", dim, "--model", "siamese", "--epochs", 1, "--batch", 64,
                          "--pairs-per-epoch", 256, "--seed", seed, "--out", ckpts[dim]])
    return ckpts


class ScoreWorkload:
    """Eval on both axes and ``project --hist`` over a labelled corpus.

    Why: inference only, on short mono 22 050 Hz files where resampling is a
    copy. Forward passes and repeated log-mel dominate (each frame is
    featurised 6 times per pass), and backward does no work. Four fixed
    event lengths cover both zero-padded and slid frames.
    """

    name = "score"
    durations = (0.2, 0.5, 1.0, 1.5)
    per_duration = 30
    required = ("cli.main", "corpus.load_manifest", "pipeline.load_event_features",
                "audio_io.read_wav", "audio_io.resample", "segmentation.frame_segment",
                "features.log_mel", "neuralnet.forward", "models.predict_many",
                "models.load_checkpoint", "evaluation.evaluate", "projection.project_event",
                "models.predict_event", "projection.export_points")

    def setup(self, work: Path, seed: int) -> dict:
        manifest = inputs.synth_groups(work / "corpus", seed, self.durations, self.per_duration)
        ids = [e.event_id for e in load_manifest(manifest)]
        return {"work": work, "manifest": manifest, "ids": ids,
                "ckpts": _quick_checkpoints(work, seed)}

    def run_pass(self, st: dict, ops: Ops) -> dict:
        work, facts = st["work"], {}
        for dim, ckpt in st["ckpts"].items():
            _, facts[f"eval_{dim}_s"] = ops.cli(["eval", "--model", ckpt, "--manifest",
                                                 st["manifest"], "--report",
                                                 work / f"report_{dim}.json"])
        _, facts["project_s"] = ops.cli(
            ["project", "--arousal-model", st["ckpts"]["arousal"], "--valence-model",
             st["ckpts"]["valence"], "--in", st["manifest"], "--out", work / "points.csv",
             "--hist", work / "hist.json"])
        return facts

    def check(self, st: dict, facts: dict, ops: Ops) -> None:
        work, n = st["work"], len(st["ids"])
        for dim in st["ckpts"]:
            _check_report(ops, work / f"report_{dim}.json", n, f"eval {dim}")
        _check_points(ops, work / "points.csv", st["ids"], "project")
        try:
            hist = json.loads((work / "hist.json").read_text())
            counts = {dim: sum(sum(h) for h in hist[dim]["histograms"].values())
                      for dim in ("arousal", "valence")}
        except (OSError, ValueError, KeyError, TypeError) as exc:
            ops.check(False, f"project --hist: unreadable histograms: {exc}")
            return
        ops.check(all(c == n for c in counts.values()),
                  f"project --hist: histograms count {counts}, expected {n} per axis")

    def layer_metrics(self, st: dict, facts: dict) -> dict:
        n = len(st["ids"])
        return {
            "eval_events_per_s": 2 * n / (facts["eval_arousal_s"] + facts["eval_valence_s"]),
            "project_events_per_s": n / facts["project_s"],
        }


class FieldWorkload:
    """``segment`` over a directory of stereo 44.1 kHz recordings, then
    ``project`` on each recording.

    Why: the only workload where stereo downmix, real resampling,
    ``detect_nonsilent`` and ``write_wav`` do the work. Planted events cover
    about a fifth of the audio; the rest is low-level noise, so decode and
    resampling outweigh the CNN.
    """

    name = "field"
    durations = (0.2, 0.5, 1.0, 1.5)
    per_duration = 24
    n_recordings = 8
    recording_s = 45.0
    required = ("cli.main", "audio_io.read_wav", "audio_io.resample",
                "segmentation.detect_nonsilent", "audio_io.write_wav",
                "segmentation.frame_segment", "features.log_mel", "neuralnet.forward",
                "models.predict_many", "models.load_checkpoint", "projection.project_event",
                "models.predict_event", "projection.export_points")

    def setup(self, work: Path, seed: int) -> dict:
        manifest = inputs.synth_groups(work / "corpus", seed, self.durations, self.per_duration)
        recordings = work / "recordings"
        planted = inputs.field_recordings(manifest, recordings, seed, self.n_recordings,
                                          self.recording_s)
        return {"work": work, "recordings": recordings, "planted": planted,
                "names": sorted(p.name for p in recordings.glob("*.wav")),
                "audio_s": self.n_recordings * self.recording_s,
                "ckpts": _quick_checkpoints(work, seed)}

    def run_pass(self, st: dict, ops: Ops) -> dict:
        work, facts = st["work"], {"project_s": 0.0}
        _, facts["segment_s"] = ops.cli(["segment", "--in", st["recordings"],
                                         "--out", work / "events"])
        for name in st["names"]:
            _, seconds = ops.cli(["project", "--arousal-model", st["ckpts"]["arousal"],
                                  "--valence-model", st["ckpts"]["valence"],
                                  "--in", st["recordings"] / name,
                                  "--out", work / f"points_{name}.csv"])
            facts["project_s"] += seconds
        return facts

    def check(self, st: dict, facts: dict, ops: Ops) -> None:
        work = st["work"]
        try:
            index = json.loads((work / "events" / "index.json").read_text())
        except (OSError, ValueError) as exc:
            ops.check(False, f"segment: unreadable index: {exc}")
            return
        missing = [s["event_id"] for s in index
                   if not (work / "events" / f"{s['event_id']}.wav").is_file()]
        ops.check(bool(index) and not missing,
                  f"segment: {len(index)} segments, WAVs missing {missing[:5]}")
        recall, per_event = inputs.planted_overlap(st["planted"], index, CANONICAL_RATE_HZ)
        facts["planted_recall"], facts["segments_per_planted_event"] = recall, per_event
        ops.check(recall >= MIN_PLANTED_RECALL, f"segment: planted recall {recall:.3f}")
        for name in st["names"]:
            ids = [s["event_id"] for s in index if Path(s["source_path"]).name == name]
            _check_points(ops, work / f"points_{name}.csv", ids, f"project {name}")

    def layer_metrics(self, st: dict, facts: dict) -> dict:
        return {
            "segment_audio_s_per_s": st["audio_s"] / facts["segment_s"],
            "field_project_audio_s_per_s": st["audio_s"] / facts["project_s"],
            "segmentation.planted_recall": facts["planted_recall"],
            "segmentation.segments_per_planted_event": facts["segments_per_planted_event"],
        }


WORKLOADS = {w.name: w for w in (TrainWorkload(), ScoreWorkload(), FieldWorkload())}
