import json
import shutil
import struct

import numpy as np
import pytest

from barkspace import cli, evaluation, models, pipeline, projection
from barkspace.audio_io import AudioClip, read_wav, write_wav
from barkspace.cli import main
from barkspace.corpus import load_manifest
from barkspace.evaluation import EvalReport, event_score
from barkspace.features import FeatureConfig
from barkspace.models import (CHECKPOINT_MAGIC, _pack_container, load_checkpoint,
                              save_checkpoint)
from barkspace.projection import load_points, neutral_point

SR = 22050


def run(*argv):
    return main(list(argv))


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
    # keep only high-arousal rows: calibration cannot see all three classes
    lines = (corpus_dir / "manifest.csv").read_text().strip().splitlines()
    kept = [lines[0]] + [l for l in lines[1:] if ",high," in l]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(kept) + "\n")
    code = run("train", "--manifest", str(bad), "--dim", "arousal",
               "--model", "baseline", "--epochs", "1", "--out", str(tmp_path / "x.ckpt"))
    assert code == 2
    assert "missing" in capsys.readouterr().err


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


def test_eval_misshapen_tensor_is_data_error_before_featurising(checkpoints, tmp_path,
                                                               capsys):
    ckpt = load_checkpoint(checkpoints["arousal"])
    ckpt.params.layers[7]["w"] = np.zeros((64, 10), np.float32)
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(ckpt, bad)
    # no manifest exists: only a check made before featurising can name the tensor
    code = run("eval", "--model", str(bad), "--manifest", str(tmp_path / "none.csv"),
               "--report", str(tmp_path / "r.json"))
    assert code == 2
    assert "layer7.weight" in capsys.readouterr().err


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


def test_project_json_format(checkpoints, corpus_dir, tmp_path):
    out = tmp_path / "points.json"
    assert run("project", "--arousal-model", str(checkpoints["arousal"]),
               "--valence-model", str(checkpoints["valence"]),
               "--in", str(corpus_dir / "manifest.csv"), "--out", str(out),
               "--format", "json") == 0
    assert len(load_points(out, fmt="json")) == 12


def test_project_swapped_models_is_data_error(checkpoints, corpus_dir, tmp_path):
    assert run("project", "--arousal-model", str(checkpoints["valence"]),
               "--valence-model", str(checkpoints["arousal"]),
               "--in", str(corpus_dir / "manifest.csv"),
               "--out", str(tmp_path / "x.csv")) == 2


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


def test_segment_empty_dir_gives_empty_index(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    out = tmp_path / "events"
    assert run("segment", "--in", str(src), "--out", str(out)) == 0
    assert json.loads((out / "index.json").read_text()) == []


def test_segment_missing_input_is_data_error(tmp_path):
    assert run("segment", "--in", str(tmp_path / "none.wav"),
               "--out", str(tmp_path / "o")) == 2


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


def test_config_file_overrides(corpus_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"epochs": 1, "batch_size": 8},
                               "segmentation": {"top_db": 25.0}}))
    out = tmp_path / "cfg.ckpt"
    assert run("train", "--manifest", str(corpus_dir / "manifest.csv"),
               "--dim", "valence", "--model", "baseline",
               "--config", str(cfg), "--seed", "1", "--out", str(out)) == 0
    ckpt = load_checkpoint(out)
    assert ckpt.segmentation_config.top_db == 25.0
    assert ckpt.seed == 1

@pytest.mark.parametrize("config, section", [
    ({"train": {"epoch": 3}}, "train"),
    ({"features": {"nfft": 256}}, "features"),
    ({"segmentation": [1, 2]}, "segmentation"),
    ({"features": {"n_fft": "512"}}, "features"),
    ({"train": {"epochs": 2.5}}, "train"),
    ({"train": {"pairs_per_epoch": True}}, "train"),
    ({"segmentation": {"stride": 0}}, "segmentation"),
    ({"segmentation": {"top_db": float("nan")}}, "segmentation"),
    ({"train": {"learning_rate": float("inf")}}, "train"),
], ids=["unknown-train-key", "unknown-feature-key", "section-not-object", "string-for-int",
        "float-for-int", "bool-for-int", "rejected-value", "nan", "infinity"])
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
    ckpt = load_checkpoint(checkpoints["arousal"])
    ckpt.params.layers[0]["w"][0, 0, 1, 1] = np.inf
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(ckpt, bad)
    out = tmp_path / "out.json"
    manifest = str(corpus_dir / "manifest.csv")
    if command == "eval":
        code = run("eval", "--model", str(bad), "--manifest", manifest, "--report", str(out))
    else:
        code = run("project", "--arousal-model", str(bad), "--valence-model",
                   str(checkpoints["valence"]), "--in", manifest, "--out", str(out))
    assert code == 2 and not out.exists()
    assert "'layer0.weight' holds NaN or infinite" in capsys.readouterr().err
