import csv
import io
import json
import math
import os
import resource
import shutil
import struct
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import barkspace

from barkspace import cli, evaluation, models, pipeline, projection
from barkspace.audio_io import AudioClip, read_wav, write_wav
from barkspace.cli import main
from barkspace.corpus import load_manifest, save_manifest
from barkspace.evaluation import EvalReport, event_score
from barkspace.features import FeatureConfig
from barkspace.models import (CHECKPOINT_MAGIC, _pack_container, load_checkpoint,
                              save_checkpoint)
from barkspace.projection import load_points, neutral_point
from barkspace.segmentation import SegmentationConfig

SR = 22050


def run(*argv):
    return main(list(argv))


def run_in_process(*argv, **kwargs):
    """The CLI run as ``python -m barkspace.cli`` on this package, under a timeout."""
    src = str(Path(barkspace.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-m", "barkspace.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120, **kwargs)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert run("synth", "--seed", "5", "--n-events", "12", "--out", str(out),
               "--dur-min", "0.2", "--dur-max", "0.5") == 0
    return out


@pytest.fixture(scope="module")
def split_manifest(corpus_dir):
    out = corpus_dir / "split.csv"
    assert run("split", "--manifest", str(corpus_dir / "manifest.csv"),
               "--ratio", "0.75", "--seed", "3", "--out", str(out)) == 0
    return out


@pytest.fixture(scope="module")
def checkpoints(corpus_dir, split_manifest, tmp_path_factory):
    ckpt_dir = tmp_path_factory.mktemp("ckpts")
    paths = {}
    for dim in ("arousal", "valence"):
        p = ckpt_dir / f"{dim}.ckpt"
        assert run("train", "--manifest", str(split_manifest), "--dim", dim,
                   "--model", "siamese", "--epochs", "2", "--batch", "16",
                   "--pairs-per-epoch", "120", "--seed", "7", "--out", str(p)) == 0
        paths[dim] = p
    return paths


def test_synth_writes_manifest_and_wavs(corpus_dir):
    entries = load_manifest(corpus_dir / "manifest.csv")
    assert len(entries) == 12
    for e in entries:
        assert (corpus_dir / e.path).exists()


def test_synth_deterministic_across_runs(corpus_dir, tmp_path):
    assert run("synth", "--seed", "5", "--n-events", "12", "--out", str(tmp_path),
               "--dur-min", "0.2", "--dur-max", "0.5") == 0
    for name in sorted(p.name for p in corpus_dir.iterdir() if p.suffix == ".wav"):
        assert (tmp_path / name).read_bytes() == (corpus_dir / name).read_bytes()
    assert (tmp_path / "manifest.csv").read_text() == (corpus_dir / "manifest.csv").read_text()


def test_split_counts_and_idempotence(corpus_dir, split_manifest, tmp_path):
    entries = load_manifest(split_manifest)
    n_train = sum(1 for e in entries if e.split == "train")
    assert n_train == 9
    assert sum(1 for e in entries if e.split == "test") == 3
    again = tmp_path / "again.csv"
    assert run("split", "--manifest", str(corpus_dir / "manifest.csv"),
               "--ratio", "0.75", "--seed", "3", "--out", str(again)) == 0
    assert again.read_text() == split_manifest.read_text()


def test_split_refuses_bad_ratio(corpus_dir, capsys):
    assert run("split", "--manifest", str(corpus_dir / "manifest.csv"),
               "--ratio", "1.0", "--seed", "1", "--out", "/tmp/never.csv") == 1
    assert "ratio" in capsys.readouterr().err


def test_split_negative_seed_names_the_flag_and_writes_nothing(corpus_dir, tmp_path, capsys):
    out = tmp_path / "split.csv"
    assert run("split", "--manifest", str(corpus_dir / "manifest.csv"),
               "--ratio", "0.75", "--seed", "-1", "--out", str(out)) == 2
    assert "--seed must be non-negative, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_synth_negative_seed_is_data_error_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "neg"
    assert run("synth", "--seed", "-1", "--n-events", "6", "--out", str(out)) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_train_negative_seed_is_refused_before_the_manifest_is_read(tmp_path, capsys):
    """The flag and the config file share one check, which runs before the
    missing WAV of the only row is looked for."""
    manifest = _manifest(tmp_path / "manifest.csv",
                         [["missing.wav", "ev0", "high", "low", "train"]])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"seed": -1}}))
    ckpt = tmp_path / "x.ckpt"
    for seed_args in (("--seed", "-1"), ("--config", str(cfg))):
        assert run("train", "--manifest", str(manifest), "--dim", "arousal",
                   "--model", "baseline", "--out", str(ckpt), *seed_args) == 2
        err = capsys.readouterr().err
        assert "seed must be non-negative, got -1" in err and "missing.wav" not in err
        assert not ckpt.exists()


def test_train_deterministic_checkpoints(split_manifest, tmp_path):
    args = ("train", "--manifest", str(split_manifest), "--dim", "arousal",
            "--model", "baseline", "--epochs", "2", "--batch", "16",
            "--seed", "9")
    assert run(*args, "--out", str(tmp_path / "a.ckpt")) == 0
    assert run(*args, "--out", str(tmp_path / "b.ckpt")) == 0
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
    ckpt = load_checkpoint(tmp_path / "a.ckpt")
    assert ckpt.dimension == "arousal"
    assert ckpt.boundaries is not None


def test_train_missing_class_is_data_error(corpus_dir, tmp_path, capsys):
    """Keep only the top class of an axis: the missing two are named in the
    axis's own labels, and no checkpoint is written."""
    rows = list(csv.DictReader(io.StringIO((corpus_dir / "manifest.csv").read_text())))
    for dim, top, missing in (("arousal", "high", "low, medium"),
                              ("valence", "positive", "negative, neutral")):
        kept = [[corpus_dir / r["path"], r["event_id"], r["arousal"], r["valence"], "train"]
                for r in rows if r[dim] == top]
        bad = _manifest(tmp_path / f"{dim}.csv", kept)
        out = tmp_path / f"{dim}.ckpt"
        code = run("train", "--manifest", str(bad), "--dim", dim,
                   "--model", "baseline", "--epochs", "1", "--out", str(out))
        assert code == 2 and not out.exists()
        assert f"missing {missing}" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow while diverging
def test_diverged_training_is_data_error_and_saves_nothing(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert run("synth", "--seed", "5", "--n-events", "18", "--out", str(corpus)) == 0
    out = tmp_path / "m.ckpt"
    code = run("train", "--manifest", str(corpus / "manifest.csv"), "--dim", "arousal",
               "--model", "baseline", "--epochs", "3", "--lr", "1e4", "--out", str(out))
    assert code == 2
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow while diverging
def test_exploding_training_is_data_error_and_saves_nothing(tmp_path, capsys):
    # at lr 1e3 the loss stays finite (about 3e35) while Adam's second moment
    # overflows and the updates stop; that run must not pass for a model
    corpus = tmp_path / "corpus"
    assert run("synth", "--seed", "5", "--n-events", "18", "--out", str(corpus)) == 0
    out = tmp_path / "m.ckpt"
    code = run("train", "--manifest", str(corpus / "manifest.csv"), "--dim", "arousal",
               "--model", "baseline", "--epochs", "3", "--lr", "1e3", "--out", str(out))
    assert code == 2
    assert "diverged" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow while diverging
@pytest.mark.parametrize("flags, reason", [
    (["--epochs", "1", "--batch", "256", "--lr", "1e8"],
     "tensors layer9.weight and layer9.bias can drive activations past the float32 range"),
    (["--epochs", "3", "--lr", "0.3"], "training collapsed: every training frame scores"),
], ids=["weights-past-float32", "collapsed"])
def test_train_saves_only_what_eval_loads(tmp_path, capsys, flags, reason):
    """Both runs once exited 0: the first saved a file that ``eval`` refused,
    the second infinite boundaries that decoded every event Medium."""
    corpus = tmp_path / "corpus"
    assert run("synth", "--seed", "5", "--n-events", "18", "--out", str(corpus)) == 0
    out = tmp_path / "m.ckpt"
    code = run("train", "--manifest", str(corpus / "manifest.csv"), "--dim", "arousal",
               "--model", "baseline", *flags, "--out", str(out))
    assert code == 2 and not out.exists()
    assert reason in capsys.readouterr().err


def test_missing_manifest_is_data_error(tmp_path):
    assert run("train", "--manifest", str(tmp_path / "none.csv"), "--dim", "arousal",
               "--model", "baseline", "--out", str(tmp_path / "x.ckpt")) == 2


def test_unknown_command_is_usage_error():
    assert run("frobnicate") == 1
    assert run("train") == 1  # missing required flags


def test_eval_report_schema(checkpoints, split_manifest, tmp_path):
    report_path = tmp_path / "report.json"
    assert run("eval", "--model", str(checkpoints["arousal"]),
               "--manifest", str(split_manifest), "--split", "test",
               "--report", str(report_path)) == 0
    data = json.loads(report_path.read_text())
    for key in ("dimension", "boundaries", "frame_accuracy", "event_accuracy",
                "tap_percent", "confusion", "histograms", "bin_edges"):
        assert key in data, key
    assert data["dimension"] == "arousal"
    assert set(data["boundaries"]) == {"t_low", "t_high"}
    # histogram counts sum to the number of test frames
    assert sum(sum(v) for v in data["histograms"].values()) == data["n_frames"]
    EvalReport.from_json(report_path.read_text())  # parses losslessly


def test_eval_featurises_only_its_split(checkpoints, corpus_dir, split_manifest, tmp_path):
    full = tmp_path / "full.json"
    assert run("eval", "--model", str(checkpoints["valence"]), "--manifest",
               str(split_manifest), "--split", "test", "--report", str(full)) == 0
    copy = tmp_path / "corpus"
    shutil.copytree(corpus_dir, copy)
    gone = next(e for e in load_manifest(copy / "split.csv") if e.split == "train")
    (copy / gone.path).unlink()
    pruned = tmp_path / "pruned.json"
    assert run("eval", "--model", str(checkpoints["valence"]), "--manifest",
               str(copy / "split.csv"), "--split", "test", "--report", str(pruned)) == 0
    assert pruned.read_bytes() == full.read_bytes()
    assert run("eval", "--model", str(checkpoints["valence"]), "--manifest",
               str(copy / "split.csv"), "--split", "train", "--report", str(pruned)) == 2


def test_eval_checkpoint_without_metadata_is_data_error(split_manifest, tmp_path, capsys):
    bare = tmp_path / "bare.ckpt"
    bare.write_bytes(_pack_container(CHECKPOINT_MAGIC, {"version": 1}, []))
    code = run("eval", "--model", str(bare), "--manifest", str(split_manifest),
               "--report", str(tmp_path / "r.json"))
    assert code == 2
    assert "internal error" not in capsys.readouterr().err


def _repack(source, bad, mutate):
    """``source``'s checkpoint with its metadata and tensors edited by ``mutate``,
    written to ``bad`` in the BDN1 layout past the checks of ``save_checkpoint``."""
    blob = source.read_bytes()
    meta = json.loads(blob[8 : 8 + int.from_bytes(blob[4:8], "little")])
    tensors = dict(load_checkpoint(source).params.tensors())
    mutate(meta, tensors)
    bad.write_bytes(_pack_container(CHECKPOINT_MAGIC, meta, list(tensors.items())))


def test_eval_misshapen_tensor_is_data_error_before_featurising(checkpoints, tmp_path,
                                                               capsys):
    bad = tmp_path / "bad.ckpt"
    _repack(checkpoints["arousal"], bad, lambda meta, tensors: tensors.update(
        {"layer7.weight": np.zeros((64, 10), np.float32)}))
    # no manifest exists: only a check made before featurising can name the tensor
    code = run("eval", "--model", str(bad), "--manifest", str(tmp_path / "none.csv"),
               "--report", str(tmp_path / "r.json"))
    assert code == 2
    assert "layer7.weight" in capsys.readouterr().err


def _as_float(section, key):
    def mutate(meta, tensors):
        meta[section][key] = float(meta[section][key])
    return mutate


def _relabel_layer(index, **fields):
    def mutate(meta, tensors):
        meta["net_spec"]["layers"][index].update(fields)
    return mutate


def _head_of(width):
    """The default net with a last dense layer of ``width`` outputs, tensors to match."""
    def mutate(meta, tensors):
        meta["net_spec"]["layers"][9]["out_units"] = width
        tensors["layer9.weight"] = np.zeros((width, 64), np.float32)
        tensors["layer9.bias"] = np.zeros(width, np.float32)
    return mutate


@pytest.mark.parametrize("mutate", [
    pytest.param(_as_float("feature_config", "n_fft"), id="n-fft-float"),
    pytest.param(_as_float("feature_config", "n_mels"), id="n-mels-float"),
    pytest.param(_as_float("feature_config", "hop"), id="hop-float"),
    pytest.param(_as_float("segmentation_config", "target_len"), id="target-len-float"),
    pytest.param(_as_float("segmentation_config", "stride"), id="stride-float"),
    pytest.param(_head_of(0), id="dense-0-head"),
    pytest.param(_head_of(2), id="dense-2-head"),
    pytest.param(lambda m, t: m["segmentation_config"].update(top_db=True), id="top-db-true"),
    pytest.param(_relabel_layer(0, stride=1), id="layer-unknown-key"),
    pytest.param(_relabel_layer(0, out_channels=8.0), id="out-channels-float"),
    pytest.param(lambda m, t: m.update(sample_rate_hz=44100), id="sample-rate-44100"),
    pytest.param(lambda m, t: m["feature_config"].update(n_mels=10**6), id="n-mels-1e6"),
    pytest.param(lambda m, t: m["net_spec"].update(input_shape=[1, 64.0, 37]),
                 id="input-shape-float"),
    pytest.param(lambda m, t: m["net_spec"].update(input_shape=[True, 64, 37]),
                 id="input-shape-bool"),
])
def test_eval_malformed_checkpoint_metadata_is_data_error(checkpoints, split_manifest,
                                                          tmp_path, capsys, mutate):
    """Each of these once loaded, and ``eval`` exited 3, or 0 on a wrong model."""
    bad = tmp_path / "bad.ckpt"
    _repack(checkpoints["arousal"], bad, mutate)
    report = tmp_path / "r.json"
    code = run("eval", "--model", str(bad), "--manifest", str(split_manifest),
               "--report", str(report))
    err = capsys.readouterr().err
    assert code == 2 and not report.exists()
    assert err.count(str(bad)) == 1 and "internal error" not in err


def test_eval_and_project_give_bit_equal_event_scores(checkpoints, corpus_dir, tmp_path,
                                                      monkeypatch):
    scored = {}
    inner = evaluation.evaluate_scored_events

    def capture(scored_events, boundaries, dimension, *args):
        scored[dimension] = {ev: event_score(s) for ev, _, s in scored_events}
        return inner(scored_events, boundaries, dimension, *args)

    monkeypatch.setattr(evaluation, "evaluate_scored_events", capture)
    manifest = corpus_dir / "manifest.csv"  # unsplit, so eval covers every event
    for dim, path in checkpoints.items():
        assert run("eval", "--model", str(path), "--manifest", str(manifest),
                   "--report", str(tmp_path / f"{dim}.json")) == 0
    out = tmp_path / "points.json"  # JSON keeps every bit of the coordinates
    assert run("project", "--arousal-model", str(checkpoints["arousal"]),
               "--valence-model", str(checkpoints["valence"]), "--in", str(manifest),
               "--out", str(out), "--format", "json") == 0
    neutral = {dim: neutral_point(load_checkpoint(path).boundaries)
               for dim, path in checkpoints.items()}
    points = load_points(out, fmt="json")
    assert len(points) == len(scored["arousal"]) == len(scored["valence"]) == 12
    for p in points:
        assert p.arousal == scored["arousal"][p.event_id] - neutral["arousal"], p.event_id
        assert p.valence == scored["valence"][p.event_id] - neutral["valence"], p.event_id


def test_project_manifest_roundtrip(checkpoints, corpus_dir, tmp_path):
    out = tmp_path / "points.csv"
    hist = tmp_path / "hist.json"
    assert run("project", "--arousal-model", str(checkpoints["arousal"]),
               "--valence-model", str(checkpoints["valence"]),
               "--in", str(corpus_dir / "manifest.csv"), "--out", str(out),
               "--hist", str(hist)) == 0
    points = load_points(out)
    assert len(points) == 12
    assert all(p.quadrant in ("excited", "anxious", "relaxed", "despondent")
               for p in points)
    hists = json.loads(hist.read_text())
    for dim in ("arousal", "valence"):
        assert sum(sum(v) for v in hists[dim]["histograms"].values()) == 12


def test_project_hist_scores_each_event_once(checkpoints, corpus_dir, tmp_path,
                                             monkeypatch):
    """--hist reuses the projection's raw event scores, bit for bit."""
    calls = []
    real = models.predict_event

    def counted(ckpt, features):
        calls.append(ckpt.dimension)
        return real(ckpt, features)

    monkeypatch.setattr(projection, "predict_event", counted)
    monkeypatch.setattr(models, "predict_event", counted)
    hist = tmp_path / "hist.json"
    manifest = corpus_dir / "manifest.csv"
    assert run("project", "--arousal-model", str(checkpoints["arousal"]),
               "--valence-model", str(checkpoints["valence"]), "--in", str(manifest),
               "--out", str(tmp_path / "p.csv"), "--hist", str(hist)) == 0
    assert sorted(calls) == ["arousal"] * 12 + ["valence"] * 12

    hists = json.loads(hist.read_text())
    for dim, path in checkpoints.items():
        ckpt = load_checkpoint(path)
        events = pipeline.load_event_features(load_manifest(manifest), corpus_dir,
                                              ckpt.segmentation_config, ckpt.feature_config)
        scores = np.asarray([real(ckpt, ev.features) for ev in events])
        edges = np.histogram_bin_edges(scores, bins=50)
        assert hists[dim]["bin_edges"] == edges.tolist(), dim
        for key in ("low", "medium", "high"):
            chosen = [ev.label(dim).name.lower() == key for ev in events]
            expect = np.histogram(scores[chosen], bins=edges)[0].tolist()
            assert hists[dim]["histograms"][key] == expect, (dim, key)


def test_streamed_eval_and_project_write_the_bytes_of_scoring_every_event_at_once(
        checkpoints, corpus_dir, tmp_path):
    """``eval`` and ``project --hist`` featurise and score one event at a time;
    their files equal those written from every event's grids held at once,
    scored by one ``predict_many`` call (eval) or event by event (project)."""
    manifest = corpus_dir / "manifest.csv"
    ckpts = {dim: load_checkpoint(path) for dim, path in checkpoints.items()}
    fc, sc = ckpts["arousal"].feature_config, ckpts["arousal"].segmentation_config
    events = pipeline.load_event_features(load_manifest(manifest), corpus_dir, sc, fc)
    ends = np.cumsum([len(ev.features) for ev in events])
    for dim, path in checkpoints.items():
        report = tmp_path / f"{dim}.json"
        assert run("eval", "--model", str(path), "--manifest", str(manifest),
                   "--report", str(report)) == 0
        scores = models.predict_many(ckpts[dim], [g for ev in events for g in ev.features])
        expected = evaluation.evaluate_scored_events(
            [(ev.event_id, ev.label(dim), s) for ev, s in zip(events, np.split(scores, ends[:-1]))],
            ckpts[dim].boundaries, dim)
        assert report.read_text() == expected.to_json(), dim

    out, hist = tmp_path / "points.csv", tmp_path / "hist.json"
    assert run("project", "--arousal-model", str(checkpoints["arousal"]),
               "--valence-model", str(checkpoints["valence"]), "--in", str(manifest),
               "--out", str(out), "--hist", str(hist)) == 0
    points = [projection.project_event(ckpts["arousal"], ckpts["valence"], ev.event_id,
                                       ev.features) for ev in events]
    projection.export_points(points, tmp_path / "expected.csv")
    assert out.read_bytes() == (tmp_path / "expected.csv").read_bytes()
    expected = {dim: evaluation.class_histograms([getattr(p, f"{dim}_score") for p in points],
                                                 [ev.label(dim) for ev in events])
                for dim in ("arousal", "valence")}
    assert hist.read_text() == json.dumps(expected, indent=2)


def _traced_peak(*argv) -> int:
    """tracemalloc peak of one in-process CLI call above the memory traced at its start."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert run(*argv) == 0
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_eval_and_project_memory_does_not_grow_with_the_corpus(checkpoints, tmp_path):
    """On 4N events, the peak of ``eval`` and of ``project --hist`` exceeds
    their peak on N events by less than one event's grids: each event's grids
    are dropped once it is scored. Events of 1.5 s have 12 frames each."""
    corpus = tmp_path / "corpus"
    assert run("synth", "--seed", "9", "--n-events", "24", "--dur-min", "1.5",
               "--dur-max", "1.5", "--out", str(corpus)) == 0
    entries = load_manifest(corpus / "manifest.csv")
    manifests = {n: corpus / f"first{n}.csv" for n in (6, 24)}
    for n, path in manifests.items():
        save_manifest(entries[:n], path)
    ckpt = load_checkpoint(checkpoints["arousal"])
    one_event = pipeline.load_event_features(entries[:1], corpus, ckpt.segmentation_config,
                                             ckpt.feature_config)[0].features.nbytes

    def commands(manifest):
        return {"eval": ("eval", "--model", str(checkpoints["arousal"]), "--manifest",
                         str(manifest), "--report", str(tmp_path / "report.json")),
                "project": ("project", "--arousal-model", str(checkpoints["arousal"]),
                            "--valence-model", str(checkpoints["valence"]), "--in",
                            str(manifest), "--out", str(tmp_path / "points.csv"),
                            "--hist", str(tmp_path / "hist.json"))}

    for argv in commands(manifests[6]).values():
        assert run(*argv) == 0  # first calls fill the caches
    for name, small in commands(manifests[6]).items():
        growth = _traced_peak(*commands(manifests[24])[name]) - _traced_peak(*small)
        assert growth < one_event, (name, growth, one_event)


def test_project_json_format(checkpoints, corpus_dir, tmp_path):
    out = tmp_path / "points.json"
    assert run("project", "--arousal-model", str(checkpoints["arousal"]),
               "--valence-model", str(checkpoints["valence"]),
               "--in", str(corpus_dir / "manifest.csv"), "--out", str(out),
               "--format", "json") == 0
    assert len(load_points(out, fmt="json")) == 12


def test_project_hist_on_a_recording_is_data_error_and_writes_nothing(checkpoints, corpus_dir,
                                                                      tmp_path, capsys):
    """A recording has no labels to sort its scores by."""
    out, hist = tmp_path / "p.csv", tmp_path / "hist.json"
    code = run("project", "--arousal-model", str(checkpoints["arousal"]),
               "--valence-model", str(checkpoints["valence"]),
               "--in", str(corpus_dir / "synth_0000.wav"), "--out", str(out),
               "--hist", str(hist))
    assert code == 2 and not out.exists() and not hist.exists()
    assert "--hist" in capsys.readouterr().err


def test_project_swapped_models_is_data_error(checkpoints, corpus_dir, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run("project", "--arousal-model", str(checkpoints["valence"]),
               "--valence-model", str(checkpoints["arousal"]),
               "--in", str(corpus_dir / "manifest.csv"), "--out", str(out)) == 2
    assert "arousal checkpoint is tagged 'valence'" in capsys.readouterr().err
    assert not out.exists()


def test_project_mismatched_feature_configs_is_data_error(checkpoints, corpus_dir,
                                                          tmp_path, capsys):
    ckpt = load_checkpoint(checkpoints["valence"])
    ckpt.feature_config = FeatureConfig(db_floor=-60.0)
    other = tmp_path / "valence.ckpt"
    save_checkpoint(ckpt, other)
    out = tmp_path / "x.csv"
    assert run("project", "--arousal-model", str(checkpoints["arousal"]),
               "--valence-model", str(other), "--in", str(corpus_dir / "manifest.csv"),
               "--out", str(out)) == 2
    assert "feature_config" in capsys.readouterr().err
    assert not out.exists()


def test_project_non_finite_neutral_point_is_data_error_before_featurising(
        checkpoints, tmp_path, monkeypatch, capsys):
    """Finite boundaries whose midpoint overflows: only ``project`` refuses them."""
    ckpt = load_checkpoint(checkpoints["valence"])
    ckpt.boundaries = evaluation.Boundaries(1e308, 1.7e308)
    other = tmp_path / "valence.ckpt"
    save_checkpoint(ckpt, other)

    def featurise(*args):
        raise AssertionError("featurised before the boundaries were checked")

    monkeypatch.setattr(pipeline, "load_event_features", featurise)
    out = tmp_path / "x.csv"
    assert run("project", "--arousal-model", str(checkpoints["arousal"]),
               "--valence-model", str(other), "--in", str(tmp_path / "none.csv"),
               "--out", str(out)) == 2
    assert "valence checkpoint's boundaries (1e+308, 1.7e+308)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bounds", [(-math.inf, math.inf), (0.0, math.inf)],
                         ids=["both", "high"])
@pytest.mark.parametrize("command", ["eval", "project"])
def test_infinite_boundaries_are_data_error(checkpoints, corpus_dir, tmp_path, capsys,
                                            command, bounds):
    """Such a checkpoint saved at an earlier version decoded every event Medium
    and wrote "-Infinity" into the report; now it does not load."""
    bad = tmp_path / "bad.ckpt"
    _repack(checkpoints["arousal"], bad, lambda meta, tensors: meta.update(
        boundaries={"t_low": bounds[0], "t_high": bounds[1]}))
    out = tmp_path / "out.json"
    manifest = str(corpus_dir / "manifest.csv")
    if command == "eval":
        code = run("eval", "--model", str(bad), "--manifest", manifest, "--report", str(out))
    else:
        code = run("project", "--arousal-model", str(bad), "--valence-model",
                   str(checkpoints["valence"]), "--in", manifest, "--out", str(out))
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()
    assert f"{bad}: boundaries ({bounds[0]}, {bounds[1]}) are not finite" in err


def test_segment_two_bursts(tmp_path):
    t = np.arange(3000) / SR
    burst = 0.6 * np.sin(2 * np.pi * 800.0 * t)
    x = np.concatenate([np.zeros(6000), burst, np.zeros(9000), burst, np.zeros(6000)])
    write_wav(tmp_path / "rec.wav", AudioClip(x, SR))
    out = tmp_path / "events"
    assert run("segment", "--in", str(tmp_path / "rec.wav"), "--out", str(out)) == 0
    index = json.loads((out / "index.json").read_text())
    assert len(index) == 2
    for item in index:
        clip = read_wav(out / f"{item['event_id']}.wav")
        assert len(clip.samples) == item["end_sample"] - item["start_sample"]


def test_segment_silent_input_gives_empty_index(tmp_path):
    write_wav(tmp_path / "silence.wav", AudioClip(np.zeros(8000), SR))
    out = tmp_path / "events"
    assert run("segment", "--in", str(tmp_path / "silence.wav"), "--out", str(out)) == 0
    assert json.loads((out / "index.json").read_text()) == []


def test_empty_recording_has_no_events(checkpoints, tmp_path):
    """A 0-sample WAV: ``segment`` writes an empty index, ``project`` a header-only file."""
    wav = tmp_path / "empty.wav"
    write_wav(wav, AudioClip(np.zeros(0), SR))
    assert run("segment", "--in", str(wav), "--out", str(tmp_path / "events")) == 0
    assert json.loads((tmp_path / "events" / "index.json").read_text()) == []
    out = tmp_path / "points.csv"
    assert run("project", "--arousal-model", str(checkpoints["arousal"]),
               "--valence-model", str(checkpoints["valence"]), "--in", str(wav),
               "--out", str(out)) == 0
    assert len(out.read_text().splitlines()) == 1 and load_points(out) == []


def test_segment_empty_dir_gives_empty_index(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    out = tmp_path / "events"
    assert run("segment", "--in", str(src), "--out", str(out)) == 0
    assert json.loads((out / "index.json").read_text()) == []


def test_segment_missing_input_is_data_error(tmp_path):
    assert run("segment", "--in", str(tmp_path / "none.wav"),
               "--out", str(tmp_path / "o")) == 2


def test_segment_truncated_wav_is_data_error_and_writes_nothing(tmp_path, capsys):
    """The first 30 bytes of a WAV, alone or after a good recording in a
    directory: exit 2 with no event WAV and no ``--out`` directory left behind.
    A file already in an existing ``--out`` survives."""
    recs = tmp_path / "recs"
    recs.mkdir()
    burst = 0.6 * np.sin(2 * np.pi * 800.0 * np.arange(3000) / SR)
    write_wav(recs / "a.wav", AudioClip(np.concatenate([np.zeros(6000), burst, np.zeros(6000)]),
                                        SR))
    wav = recs / "b.wav"
    write_wav(wav, AudioClip(0.5 * np.ones(4000), SR))
    wav.write_bytes(wav.read_bytes()[:30])
    for src in (wav, recs):
        out = tmp_path / "events"
        assert run("segment", "--in", str(src), "--out", str(out)) == 2
        assert not out.exists()
        assert "internal error" not in capsys.readouterr().err
    out.mkdir()
    (out / "notes.txt").write_text("kept")
    assert run("segment", "--in", str(recs), "--out", str(out)) == 2
    assert [p.name for p in out.iterdir()] == ["notes.txt"]
    assert (out / "notes.txt").read_text() == "kept"


@pytest.mark.parametrize("rate", [999, 4_294_967_291])
def test_segment_unsupported_sample_rate_is_data_error_without_resampling(
        tmp_path, monkeypatch, capsys, rate):
    """A rate outside 1-384 kHz stops at decode; resample never sees it."""
    resampled = []

    def refuse(clip, target_hz):
        resampled.append(clip.sample_rate_hz)
        raise RuntimeError("resample must not run")

    monkeypatch.setattr(cli, "resample", refuse)
    data = np.zeros(64, "<i2").tobytes()
    fmt = struct.pack("<HHIIHH", 1, 2, rate, (rate * 4) % 2**32, 4, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", 16) + fmt
    body += b"data" + struct.pack("<I", len(data)) + data
    wav = tmp_path / "rec.wav"
    wav.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    assert run("segment", "--in", str(wav), "--out", str(tmp_path / "o")) == 2
    assert resampled == []
    assert "sample rate" in capsys.readouterr().err


def test_featurize_binary_and_csv(corpus_dir, tmp_path):
    from barkspace.models import load_tensor_file

    wav = next(corpus_dir.glob("*.wav"))
    bin_out = tmp_path / "feats.bin"
    assert run("featurize", "--in", str(wav), "--out", str(bin_out)) == 0
    meta, tensors = load_tensor_file(bin_out)
    assert meta["kind"] == "log_mel"
    assert meta["n_frames"] == len(tensors) > 0
    for name, grid in tensors.items():
        assert grid.shape == (64, 37), name
        assert 0.0 <= grid.min() and grid.max() <= 1.0

    csv_out = tmp_path / "feats.csv"
    assert run("featurize", "--in", str(wav), "--out", str(csv_out),
               "--format", "csv") == 0
    lines = csv_out.read_text().strip().splitlines()
    assert lines[0].startswith("frame,band,t0,")
    assert len(lines) == 1 + meta["n_frames"] * 64


def _cap_address_space():
    """Cap the child's address space at 3 GiB, so a front end that did try to
    build a multi-GiB array fails there instead of straining the host."""
    resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))


@pytest.mark.parametrize("config", [
    pytest.param({"segmentation": {"target_len": 10**9}}, id="target-len-1e9"),
    pytest.param({"features": {"n_mels": 5 * 10**6}}, id="n-mels-5e6"),
])
@pytest.mark.parametrize("command", ["featurize", "train"])
def test_oversized_front_end_config_is_data_error_and_writes_nothing(corpus_dir, tmp_path,
                                                                     config, command):
    """Sizes from --config whose arrays are too large for one frame exit 2 before
    any audio is read, not 3 on a failed multi-GiB allocation."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out.bin"
    if command == "featurize":
        argv = ["featurize", "--in", str(next(corpus_dir.glob("*.wav")))]
    else:
        argv = ["train", "--manifest", str(corpus_dir / "manifest.csv"), "--dim", "valence",
                "--model", "baseline"]
    done = run_in_process(*argv, "--config", str(cfg), "--out", str(out),
                          preexec_fn=_cap_address_space)
    assert done.returncode == 2, done.stderr
    assert "front end's bound" in done.stderr
    assert not out.exists()


@pytest.mark.parametrize("dur", ["1e9", "1e-5"])
def test_synth_duration_out_of_bounds_is_data_error_and_writes_nothing(tmp_path, dur):
    """Durations whose events would hold no sample, or too many to render,
    exit 2 naming the duration: not 3 on a failed allocation, nor 2 with
    numpy's message on an empty event."""
    out = tmp_path / "corpus"
    done = run_in_process("synth", "--n-events", "6", "--dur-min", dur, "--dur-max", dur,
                          "--out", str(out), preexec_fn=_cap_address_space)
    assert done.returncode == 2, done.stderr
    assert f"an event of {float(dur)} s holds fewer than 1 or more than 1048576" in done.stderr
    assert not out.exists()


def test_synth_one_sample_events_are_finite_without_warnings(tmp_path):
    """A negative-valence event of 1 sample has noise of zero spread; synth
    once divided by it, warned, and wrote a clipped +-0.999 sample."""
    out = tmp_path / "corpus"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("synth", "--n-events", "6", "--dur-min", "2.3e-5", "--dur-max", "2.3e-5",
                   "--out", str(out)) == 0
    samples = np.concatenate([read_wav(out / e.path).samples
                              for e in load_manifest(out / "manifest.csv")])
    assert len(samples) == 6 and np.isfinite(samples).all()
    assert np.abs(samples).max() < 0.999


@pytest.mark.parametrize("flags, config, code, message", [
    pytest.param([], {"pairs_per_epoch": 10**12}, 2,
                 f"pairs_per_epoch must be in [1, {models.MAX_PAIRS_PER_EPOCH}]", id="config"),
    pytest.param(["--pairs-per-epoch", str(10**12)], None, 2,
                 f"pairs_per_epoch must be in [1, {models.MAX_PAIRS_PER_EPOCH}]", id="flag"),
    pytest.param(["--batch", str(2**20), "--pairs-per-epoch", str(2**20)], None, 2,
                 f"batch size {2**20} makes a training step of {2**21} grids", id="step-2e20"),
    pytest.param(["--batch", str(10**9), "--epochs", "1"], None, 0, "", id="batch-1e9"),
])
def test_oversized_pairs_per_epoch_is_data_error_and_writes_nothing(corpus_dir, tmp_path, flags,
                                                                    config, code, message):
    """A pair count past its bound exits 2 before any audio is read, and a
    step too big to gather (2**21 grids of 64x37, 18.5 GiB) exits 2 before
    the first step: not 3 on a failed allocation. A batch size past the
    epoch is one whole, small step, so it trains."""
    out = tmp_path / "out.ckpt"
    argv = ["train", "--manifest", str(corpus_dir / "manifest.csv"), "--dim", "valence",
            "--model", "siamese", "--out", str(out), *flags]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": config}))
        argv += ["--config", str(cfg)]
    done = run_in_process(*argv, preexec_fn=_cap_address_space)
    assert done.returncode == code, done.stderr
    assert message in done.stderr
    assert out.exists() == (code == 0)


def test_config_file_overrides(corpus_dir, tmp_path):
    """defaults < config file < flags, for the seed as for every other value."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"epochs": 1, "batch_size": 8, "seed": 5},
                               "segmentation": {"top_db": 25.0}}))
    args = ("train", "--manifest", str(corpus_dir / "manifest.csv"), "--dim", "valence",
            "--model", "baseline", "--config", str(cfg))
    out = tmp_path / "cfg.ckpt"
    assert run(*args, "--seed", "1", "--out", str(out)) == 0
    ckpt = load_checkpoint(out)
    assert ckpt.segmentation_config.top_db == 25.0
    assert ckpt.seed == 1
    assert run(*args, "--out", str(tmp_path / "file-seed.ckpt")) == 0
    assert load_checkpoint(tmp_path / "file-seed.ckpt").seed == 5


def test_equal_config_values_give_equal_checkpoint_bytes(corpus_dir, tmp_path):
    """An int for a float field is stored as the float it equals."""
    blobs = []
    for fmin, fmax, top_db in ((0, 11025, 20), (0.0, 11025.0, 20.0)):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"features": {"fmin": fmin, "fmax": fmax},
                                   "segmentation": {"top_db": top_db}}))
        out = tmp_path / "m.ckpt"
        assert run("train", "--manifest", str(corpus_dir / "manifest.csv"), "--dim", "valence",
                   "--model", "baseline", "--epochs", "1", "--batch", "16", "--config",
                   str(cfg), "--out", str(out)) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, flag", [
    ("segment", "--top-db"), ("train", "--lr"), ("synth", "--dur-min"), ("synth", "--dur-max"),
])
def test_non_finite_float_flag_is_data_error_and_writes_nothing(corpus_dir, tmp_path, capsys,
                                                                command, flag, value):
    out = tmp_path / "out"
    argv = {
        "segment": ("segment", "--in", str(corpus_dir)),
        "train": ("train", "--manifest", str(corpus_dir / "manifest.csv"), "--dim", "valence",
                  "--model", "siamese"),
        "synth": ("synth", "--n-events", "6"),
    }[command]
    assert run(*argv, "--out", str(out), f"{flag}={value}") == 2
    assert not out.exists()
    assert "internal error" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("segment", "--in", "x.wav", "--out", "o", "--seed", "1"),
    ("segment", "--in", "x.wav", "--out", "o", "--frame-len", "4096"),
    ("segment", "--in", "x.wav", "--out", "o", "--stride", "1024"),
    ("featurize", "--in", "x.wav", "--out", "o", "--seed", "1"),
    ("eval", "--model", "m", "--manifest", "x.csv", "--report", "r", "--seed", "1"),
    ("project", "--arousal-model", "a", "--valence-model", "v", "--in", "x.wav", "--out", "o",
     "--seed", "1"),
    ("synth", "--n-events", "6", "--out", "o", "--config", "c.json"),
    ("split", "--manifest", "x.csv", "--ratio", "0.5", "--out", "o", "--config", "c.json"),
    ("eval", "--model", "m", "--manifest", "x.csv", "--report", "r",
     "--config", "/nonexistent.json"),
    ("project", "--arousal-model", "a", "--valence-model", "v", "--in", "x.wav", "--out", "o",
     "--config", "c.json"),
], ids=["segment-seed", "segment-frame-len", "segment-stride", "featurize-seed", "eval-seed",
        "project-seed", "synth-config", "split-config", "eval-config", "project-config"])
def test_flag_a_command_does_not_read_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _config_sweep():
    """The --config route of the config sweep: NaN and +-inf for every float
    field of the three sections; a float, a bool and a string for every int
    field."""
    sections = {"features": FeatureConfig(), "segmentation": SegmentationConfig(),
                "train": models.TrainConfig(dimension="valence", pairs_per_epoch=30)}
    for section, cfg in sections.items():
        for name, value in asdict(cfg).items():
            if name == "dimension":
                continue
            if name in ("fmin", "fmax", "db_floor", "top_db", "learning_rate"):
                wrong = [("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf)]
            else:
                wrong = [("float", float(value)), ("bool", True), ("str", str(value))]
            for label, bad in wrong:
                yield pytest.param({section: {name: bad}}, section,
                                   id=f"{section}-{name.replace('_', '-')}-{label}")


@pytest.mark.parametrize("config, section", [
    pytest.param({"train": {"epoch": 3}}, "train", id="unknown-train-key"),
    pytest.param({"features": {"nfft": 256}}, "features", id="unknown-feature-key"),
    pytest.param({"segmentation": [1, 2]}, "segmentation", id="section-not-object"),
    pytest.param({"features": {"n_fft": "512"}}, "features", id="string-for-int"),
    pytest.param({"train": {"epochs": 2.5}}, "train", id="float-for-int"),
    pytest.param({"train": {"pairs_per_epoch": True}}, "train", id="bool-for-int"),
    pytest.param({"segmentation": {"stride": 0}}, "segmentation", id="rejected-value"),
    pytest.param({"segmentation": {"top_db": float("nan")}}, "segmentation", id="nan"),
    pytest.param({"train": {"learning_rate": float("inf")}}, "train", id="infinity"),
    pytest.param({"segmentaton": {"top_db": 5}}, "segmentaton", id="misspelt-section"),
    pytest.param({"train": {}, "model": "siamese"}, "model", id="unknown-section"),
    *_config_sweep(),
])
def test_malformed_config_is_data_error_and_saves_nothing(corpus_dir, tmp_path, capsys,
                                                          config, section):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "m.ckpt"
    code = run("train", "--manifest", str(corpus_dir / "manifest.csv"), "--dim", "valence",
               "--model", "baseline", "--config", str(cfg), "--out", str(out))
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()
    assert f"{cfg}: section '{section}'" in err and "internal error" not in err


@pytest.mark.parametrize("command", ["eval", "project"])
def test_non_finite_weight_is_data_error_and_writes_nothing(checkpoints, corpus_dir, tmp_path,
                                                            capsys, command):
    def infinite_weight(meta, tensors):
        tensors["layer0.weight"][0, 0, 1, 1] = np.inf

    bad = tmp_path / "bad.ckpt"
    _repack(checkpoints["arousal"], bad, infinite_weight)
    out = tmp_path / "out.json"
    manifest = str(corpus_dir / "manifest.csv")
    if command == "eval":
        code = run("eval", "--model", str(bad), "--manifest", manifest, "--report", str(out))
    else:
        code = run("project", "--arousal-model", str(bad), "--valence-model",
                   str(checkpoints["valence"]), "--in", manifest, "--out", str(out))
    assert code == 2 and not out.exists()
    assert "'layer0.weight' holds NaN or infinite" in capsys.readouterr().err


def _manifest(path, rows, encoding="utf-8"):
    """A manifest at ``path`` with a split column and ``rows`` of 5 cells each."""
    text = io.StringIO()
    csv.writer(text).writerows([["path", "event_id", "arousal", "valence", "split"], *rows])
    path.write_bytes(text.getvalue().encode(encoding, errors="replace"))
    return path


@pytest.mark.parametrize("wav", ["a" * 5000 + ".wav", "manifest.csv/x.wav", "."],
                         ids=["name-too-long", "through-a-file", "directory"])
def test_eval_unreadable_manifest_row_is_data_error(checkpoints, tmp_path, capsys, wav):
    """Each of these rows once made ``eval`` exit 3."""
    manifest = _manifest(tmp_path / "manifest.csv", [[wav, "ev0", "high", "low", "test"]])
    report = tmp_path / "r.json"
    code = run("eval", "--model", str(checkpoints["arousal"]), "--manifest", str(manifest),
               "--report", str(report))
    err = capsys.readouterr().err
    assert code == 2 and not report.exists()
    assert str(tmp_path / wav) in err and "internal error" not in err


def test_segment_unknown_config_section_is_data_error_and_makes_no_out(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"segmentaton": {"top_db": 5}}))
    write_wav(tmp_path / "x.wav", AudioClip(np.ones(SR, dtype=np.float32), SR))
    out = tmp_path / "events"
    code = run("segment", "--in", str(tmp_path / "x.wav"), "--out", str(out),
               "--config", str(cfg))
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()
    assert f"{cfg}: section 'segmentaton'" in err


def test_deeply_nested_config_is_data_error(tmp_path, capsys):
    """100 000 unclosed brackets once made ``segment`` exit 3 (RecursionError)."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[" * 100_000)
    out = tmp_path / "events"
    code = run("segment", "--in", str(tmp_path / "none.wav"), "--out", str(out),
               "--config", str(cfg))
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()
    assert f"{cfg}: config is nested too deeply" in err


def test_fifo_input_is_data_error(checkpoints, tmp_path):
    """A FIFO is refused without a read, as a recording, checkpoint, manifest
    or config: a blocking open of one never returns, so each command runs in
    a process of its own, under a timeout."""
    fifo = tmp_path / "x.wav"
    os.mkfifo(fifo)
    manifest = _manifest(tmp_path / "manifest.csv", [["x.wav", "ev0", "high", "low", "test"]])
    wav = tmp_path / "real.wav"
    write_wav(wav, AudioClip(np.ones(SR, dtype=np.float32), SR))
    outs = [tmp_path / name for name in ("events", "r.json", "split.csv")]
    for argv in (["segment", "--in", str(fifo), "--out", str(outs[0])],
                 ["segment", "--in", str(wav), "--out", str(outs[0]), "--config", str(fifo)],
                 ["eval", "--model", str(checkpoints["arousal"]), "--manifest", str(manifest),
                  "--report", str(outs[1])],
                 ["eval", "--model", str(fifo), "--manifest", str(manifest),
                  "--report", str(outs[1])],
                 ["split", "--manifest", str(fifo), "--ratio", "0.5", "--out", str(outs[2])]):
        done = run_in_process(*argv)
        assert done.returncode == 2, done.stderr
        assert f"{fifo}: not a regular file" in done.stderr
    assert not any(out.exists() for out in outs)


# manifest paths that name nothing a WAV can be read from, relative to the manifest
_BAD_WAV_PATHS = ["missing.wav", "a" * 5000 + ".wav", "manifest.csv/x.wav", ".",
                  "manifest.csv", "empty.wav", "nul\x00.wav", "a" * 140_000 + ".wav"]
# cells that are mostly valid, so that many manifests parse and their paths get read
_IDS = st.sampled_from(["ev0", "ev1", "ev2", "", "évent"])
_LABELS = st.sampled_from(["high", "Medium", "low", "positive", "neutral", "negative", "",
                           "hígh", "x\x00"])
_SPLITS = st.sampled_from(["test", "", "train", "TEST", "tést"])
_ROWS = st.lists(st.tuples(st.sampled_from(_BAD_WAV_PATHS), _IDS, _LABELS, _LABELS, _SPLITS)
                 .map(list), min_size=1, max_size=3)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=_ROWS, encoding=st.sampled_from(["utf-8", "latin-1", "utf-16"]))
def test_eval_generated_manifest_rows_exit_1_or_2(checkpoints, tmp_path, capsys, rows,
                                                   encoding):
    """No row's path reads as a WAV, so no run can succeed; none may exit 3."""
    (tmp_path / "empty.wav").write_bytes(b"")
    manifest = _manifest(tmp_path / "manifest.csv", rows, encoding)
    report = tmp_path / "r.json"
    code = run("eval", "--model", str(checkpoints["arousal"]), "--manifest", str(manifest),
               "--report", str(report))
    assert code in (1, 2), capsys.readouterr().err
    assert not report.exists()


_JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=5), inner, max_size=3),
                     max_leaves=8)
# every generated value is wrong for every segmentation field
_WRONG = st.none() | st.booleans() | st.text(max_size=4) | st.integers(-5, 0) \
    | st.lists(st.integers(), max_size=2) | st.just(math.nan)
_SECTION = st.one_of(
    _JSON.filter(lambda v: not isinstance(v, dict)),
    st.dictionaries(st.sampled_from([*asdict(SegmentationConfig())]) | st.text(max_size=6),
                    _WRONG, min_size=1, max_size=3))


def _is_json_object(text: str) -> bool:
    try:
        return isinstance(json.loads(text), dict)
    except (ValueError, RecursionError):
        return False


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=st.one_of(
    st.integers(1, 100_000).map(lambda n: "[" * n),
    _JSON.map(json.dumps).filter(lambda t: not _is_json_object(t)),
    st.text(max_size=40).filter(lambda t: not _is_json_object(t)),
    _SECTION.map(lambda section: json.dumps({"segmentation": section})),
), encoding=st.sampled_from(["utf-8", "utf-16"]))
def test_segment_generated_config_bodies_exit_1_or_2(tmp_path, capsys, body, encoding):
    """No body is a valid config, so no run can succeed; none may exit 3."""
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(body.encode(encoding, errors="surrogatepass"))
    out = tmp_path / "events"
    code = run("segment", "--in", str(tmp_path / "none.wav"), "--out", str(out),
               "--config", str(cfg))
    assert code in (1, 2), capsys.readouterr().err
    assert not out.exists()
