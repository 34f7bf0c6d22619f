import numpy as np
import pytest

from barkspace.audio_io import read_wav
from barkspace.corpus import (ManifestEntry, ManifestError, SynthConfig,
                              load_manifest, save_manifest, synth_corpus)
from barkspace.features import FeatureConfig, log_mel, mel_center_frequencies
from barkspace.labels import OrdinalLabel
from barkspace.pipeline import frames_of_clip

H, M, L = OrdinalLabel.HIGH, OrdinalLabel.MEDIUM, OrdinalLabel.LOW


def write_manifest(tmp_path, rows, header="path,event_id,arousal,valence"):
    p = tmp_path / "manifest.csv"
    p.write_text("\n".join([header] + rows) + "\n")
    return p


def test_header_only_manifest(tmp_path):
    assert load_manifest(write_manifest(tmp_path, [])) == []


def test_manifest_parses_case_insensitively(tmp_path):
    p = write_manifest(tmp_path, ["a.wav,e1,HIGH,Negative", "b.wav,e2,low,POSITIVE"])
    entries = load_manifest(p)
    assert entries[0].arousal == H and entries[0].valence == OrdinalLabel.NEGATIVE
    assert entries[1].arousal == L and entries[1].valence == OrdinalLabel.POSITIVE


def test_manifest_split_column(tmp_path):
    p = write_manifest(tmp_path, ["a.wav,e1,high,neutral,train", "b.wav,e2,low,neutral,"],
                       header="path,event_id,arousal,valence,split")
    entries = load_manifest(p)
    assert entries[0].split == "train"
    assert entries[1].split is None


def test_manifest_duplicate_event_id_names_both_lines(tmp_path):
    rows = ["a.wav,e1,high,positive", "b.wav,e2,low,negative",
            "c.wav,e1,medium,neutral"]
    with pytest.raises(ManifestError, match=r"lines 2 and 4"):
        load_manifest(write_manifest(tmp_path, rows))


def test_manifest_unknown_token_reports_line(tmp_path):
    rows = ["a.wav,e1,high,positive", "b.wav,e2,extreme,neutral"]
    with pytest.raises(ManifestError, match=r"line 3"):
        load_manifest(write_manifest(tmp_path, rows))


def test_manifest_bad_row_reports_line(tmp_path):
    """A short row, and a path over ``csv``'s field limit of 131,072 characters."""
    for row in ("only,three,fields", "a" * 140_000 + ".wav,e1,high,positive"):
        with pytest.raises(ManifestError, match=r"line 2"):
            load_manifest(write_manifest(tmp_path, [row]))


def test_manifest_bad_header(tmp_path):
    with pytest.raises(ManifestError, match="header"):
        load_manifest(write_manifest(tmp_path, [], header="a,b,c,d"))


def test_manifest_roundtrip(tmp_path):
    entries = [
        ManifestEntry("x.wav", "e1", H, OrdinalLabel.NEGATIVE, "train"),
        ManifestEntry("y.wav", "e2", M, OrdinalLabel.NEUTRAL, "test"),
        ManifestEntry("z.wav", "e3", L, OrdinalLabel.POSITIVE, None),
    ]
    p = tmp_path / "m.csv"
    save_manifest(entries, p)
    assert load_manifest(p) == entries


def test_synth_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(seed=0, n_events=5)
    with pytest.raises(ValueError):
        SynthConfig(seed=0, n_events=9, duration_range=(1.0, 0.5))


def test_synth_deterministic(tmp_path):
    cfg = SynthConfig(seed=77, n_events=6, duration_range=(0.2, 0.4))
    a = tmp_path / "a"
    b = tmp_path / "b"
    synth_corpus(cfg, a)
    synth_corpus(cfg, b)
    for name in sorted(x.name for x in a.iterdir()):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_synth_round_robin_covers_all_combos(tmp_path):
    entries = synth_corpus(SynthConfig(seed=1, n_events=9, duration_range=(0.2, 0.3)),
                           tmp_path)
    combos = {(e.arousal, e.valence) for e in entries}
    assert len(combos) == 9
    assert len(entries) == 9


def test_synth_manifest_loads_and_audio_decodes(tmp_path):
    entries = synth_corpus(SynthConfig(seed=2, n_events=6, duration_range=(0.2, 0.3)),
                           tmp_path)
    loaded = load_manifest(tmp_path / "manifest.csv")
    assert loaded == entries
    for e in loaded:
        clip = read_wav(tmp_path / e.path)
        assert clip.sample_rate_hz == 22050
        assert len(clip.samples) > 0
        assert np.abs(clip.samples).max() > 0.05


def envelope_modulation_hz(x, sr):
    """Spectral peak of the smoothed envelope; an independent rate meter."""
    env = np.convolve(np.abs(x), np.ones(128) / 128, mode="same")
    env = env - env.mean()
    spec = np.abs(np.fft.rfft(env))
    freqs = np.fft.rfftfreq(len(env), 1.0 / sr)
    band = (freqs >= 2.0) & (freqs <= 60.0)
    return float(freqs[band][np.argmax(spec[band])])


def test_high_arousal_pulse_rate_in_band(tmp_path):
    entries = synth_corpus(SynthConfig(seed=3, n_events=9, duration_range=(1.0, 1.2)),
                           tmp_path)
    checked = 0
    for e in entries:
        if e.arousal != H:
            continue
        clip = read_wav(tmp_path / e.path)
        rate = envelope_modulation_hz(clip.samples, clip.sample_rate_hz)
        assert 25.0 <= rate <= 40.0, (e.event_id, rate)
        checked += 1
    assert checked == 3


def test_valence_orders_spectral_centroid(tmp_path):
    """Mean linear-power mel centroid must rise Negative < Neutral < Positive."""
    cfg = FeatureConfig()
    centers = mel_center_frequencies(22050, cfg)
    for seed in (11, 22, 33):
        out = tmp_path / f"centroid_{seed}"
        entries = synth_corpus(
            SynthConfig(seed=seed, n_events=9, duration_range=(0.25, 0.5)), out
        )
        sums = {OrdinalLabel.NEGATIVE: [], OrdinalLabel.NEUTRAL: [],
                OrdinalLabel.POSITIVE: []}
        for e in entries:
            clip = read_wav(out / e.path)
            for frame in frames_of_clip(clip, e.event_id):
                grid = log_mel(frame, cfg, 22050)
                power = 10.0 ** ((grid * 80.0 - 80.0) / 10.0) * (grid > 0)
                w = power.sum(axis=1)
                sums[e.valence].append(float((centers * w).sum() / w.sum()))
        neg = np.mean(sums[OrdinalLabel.NEGATIVE])
        neu = np.mean(sums[OrdinalLabel.NEUTRAL])
        pos = np.mean(sums[OrdinalLabel.POSITIVE])
        assert neg < neu < pos, (seed, neg, neu, pos)
