import json
import math
import struct
import zlib
from collections import Counter
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import separate_trainers
from barkspace import models, neuralnet as nn
from barkspace.evaluation import Boundaries
from barkspace.features import FeatureConfig
from barkspace.labels import OrdinalLabel
from barkspace.models import (CHECKPOINT_MAGIC, TENSOR_FILE_MAGIC, Checkpoint,
                              CheckpointError, TrainConfig, _pack_container, from_json,
                              load_checkpoint, load_tensor_file, make_pairs, predict_event,
                              predict_many, save_checkpoint, save_tensor_file,
                              siamese_forward, train_baseline, train_siamese)
from barkspace.segmentation import SegmentationConfig

TOY_SHAPE = (1, 16, 9)
TOY_SPEC = nn.NetSpec(TOY_SHAPE, (nn.Conv2d(4, 3, 3), nn.Relu(), nn.MaxPool2x2(),
                                  nn.Flatten(), nn.Dense(8), nn.Relu(), nn.Dense(1)))
# configs whose frames make the toy net's 16x9 grid: 16 bands, (768 - 256) // 64 + 1 columns
TOY_FEATURES = FeatureConfig(n_fft=256, hop=64, n_mels=16)
TOY_SEGMENTATION = SegmentationConfig(target_len=768, stride=384)
TOY = dict(net_spec=TOY_SPEC, feature_config=TOY_FEATURES,
           segmentation_config=TOY_SEGMENTATION)

H, M, L = OrdinalLabel.HIGH, OrdinalLabel.MEDIUM, OrdinalLabel.LOW

# a value other than the default in every field
CUSTOM_FEATURES = FeatureConfig(n_fft=256, hop=64, n_mels=16, fmin=50.0, fmax=8000.0,
                                db_floor=-60.0)
CUSTOM_SEGMENTATION = SegmentationConfig(top_db=30.0, target_len=768, stride=384,
                                         detect_frame_len=512, detect_hop=128)


def toy_grid(label, rng):
    """Class-banded grid: trivially separable by the value row position."""
    g = 0.02 * rng.random(TOY_SHAPE[1:])
    band = {1.0: 0, 0.0: 5, -1.0: 10}[label]
    g[band : band + 5, :] += 0.9
    return g


def toy_set(n_per_class, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for value in (1.0, 0.0, -1.0):
        out.extend((toy_grid(value, rng), value) for _ in range(n_per_class))
    return out


def toy_checkpoint(seed=0, dimension="arousal", boundaries=None):
    return Checkpoint(
        dimension=dimension,
        seed=seed,
        net_spec=TOY_SPEC,
        params=nn.init_params(TOY_SPEC, seed, dtype=np.float32),
        feature_config=TOY_FEATURES,
        segmentation_config=TOY_SEGMENTATION,
        sample_rate_hz=22050,
        boundaries=boundaries,
    )


def test_make_pairs_targets():
    labels = [H, H, M, M, L, L]
    pairs = make_pairs(labels, 90, seed=1, epoch=0)
    assert len(pairs) == 90
    for ia, ib, target in pairs:
        assert ia != ib
        assert target == labels[ia].numeric - labels[ib].numeric
        assert target in (-2.0, -1.0, 0.0, 1.0, 2.0)
    by_cell = Counter((labels[ia], labels[ib]) for ia, ib, _ in pairs)
    assert by_cell[(H, L)] > 0
    assert all(t == 2.0 for ia, ib, t in pairs if labels[ia] == H and labels[ib] == L)
    assert all(t == 0.0 for ia, ib, t in pairs if labels[ia] == labels[ib])
    assert all(t == -2.0 for ia, ib, t in pairs if labels[ia] == L and labels[ib] == H)


def test_make_pairs_stratification_within_one():
    labels = [H, H, H, M, M, L, L, L, L]
    for total in (9, 50, 101):
        pairs = make_pairs(labels, total, seed=3, epoch=2)
        counts = Counter((labels[ia], labels[ib]) for ia, ib, _ in pairs)
        assert len(pairs) == total
        assert len(counts) == 9
        assert max(counts.values()) - min(counts.values()) <= 1


def test_make_pairs_deterministic_per_seed_epoch():
    labels = [H, M, L, H, M, L]
    a = make_pairs(labels, 40, seed=7, epoch=1)
    b = make_pairs(labels, 40, seed=7, epoch=1)
    c = make_pairs(labels, 40, seed=7, epoch=2)
    assert a == b
    assert a != c


def test_make_pairs_needs_two_frames():
    with pytest.raises(ValueError):
        make_pairs([H], 10, seed=0, epoch=0)


def test_siamese_identities():
    rng = np.random.default_rng(0)
    params = nn.init_params(TOY_SPEC, 5)
    for _ in range(20):
        xa = rng.uniform(0, 1, size=TOY_SHAPE)
        xb = rng.uniform(0, 1, size=TOY_SHAPE)
        d_ab = siamese_forward(TOY_SPEC, params, xa, xb)
        d_ba = siamese_forward(TOY_SPEC, params, xb, xa)
        assert d_ab == -d_ba
        assert siamese_forward(TOY_SPEC, params, xa, xa) == 0.0


def test_siamese_equals_scalar_difference():
    ckpt = toy_checkpoint(seed=9)
    rng = np.random.default_rng(1)
    xa = rng.uniform(0, 1, size=TOY_SHAPE)
    xb = rng.uniform(0, 1, size=TOY_SHAPE)
    lhs = siamese_forward(ckpt.net_spec, ckpt.params, xa, xb)
    rhs = predict_many(ckpt, [xa[0]])[0] - predict_many(ckpt, [xb[0]])[0]
    assert abs(lhs - rhs) < 1e-12


def test_baseline_memorizes_tiny_set():
    data = toy_set(1, seed=4)
    cfg = TrainConfig(dimension="arousal", epochs=300, batch_size=3,
                      learning_rate=3e-3, seed=0)
    result = train_baseline(data, cfg, **TOY)
    assert result.loss_history[-1] < 1e-3


def test_baseline_loss_trend_on_separable_set():
    data = toy_set(8, seed=5)
    cfg = TrainConfig(dimension="valence", epochs=12, batch_size=8,
                      learning_rate=2e-3, seed=1)
    result = train_baseline(data, cfg, **TOY)
    ma = np.convolve(result.loss_history, np.ones(5) / 5, mode="valid")
    assert np.all(np.diff(ma) <= 1e-9)


def test_baseline_requires_all_classes():
    rng = np.random.default_rng(0)
    data = [(toy_grid(1.0, rng), 1.0), (toy_grid(0.0, rng), 0.0)]
    with pytest.raises(ValueError, match="missing"):
        train_baseline(data, TrainConfig(dimension="arousal", epochs=1))
    with pytest.raises(ValueError, match="empty"):
        train_baseline([], TrainConfig(dimension="arousal", epochs=1))


def test_trainers_reject_a_value_that_is_no_label():
    data = toy_set(1) + [(toy_set(1)[0][0], 0.5)]
    for trainer in (train_baseline, train_siamese):
        with pytest.raises(ValueError, match="no ordinal label"):
            trainer(data, TrainConfig(dimension="arousal", epochs=1), **TOY)


def test_training_is_deterministic():
    data = toy_set(3, seed=6)
    cfg = TrainConfig(dimension="arousal", epochs=3, batch_size=4,
                      learning_rate=1e-3, seed=11, pairs_per_epoch=60)
    for trainer in (train_baseline, train_siamese):
        a = trainer(data, cfg, **TOY).checkpoint
        b = trainer(data, cfg, **TOY).checkpoint
        for (n1, t1), (n2, t2) in zip(a.params.tensors(), b.params.tensors()):
            assert n1 == n2 and np.array_equal(t1, t2), n1


@pytest.mark.parametrize("kind", ["baseline", "siamese"])
@pytest.mark.parametrize("batch_size", [4, 5])
@pytest.mark.parametrize("pairs_per_epoch", [None, 30])
def test_shared_loop_is_bit_equal_to_separate_trainers(kind, batch_size, pairs_per_epoch):
    """Both public trainers give the parameters and loss history of their
    own loops as they were before the merge. 12 frames and 48 default or 30
    set pairs: batch 4 and 5 each divide one example count and not another."""
    data = toy_set(4, seed=8)
    cfg = TrainConfig(dimension="valence", epochs=2, batch_size=batch_size,
                      learning_rate=3e-3, seed=13, pairs_per_epoch=pairs_per_epoch)
    new = getattr(models, f"train_{kind}")(data, cfg, **TOY)
    ref = getattr(separate_trainers, f"train_{kind}")(data, cfg, **TOY)
    assert new.loss_history == ref.loss_history and len(new.loss_history) == 2
    for (n1, t1), (n2, t2) in zip(new.checkpoint.params.tensors(),
                                  ref.checkpoint.params.tensors(), strict=True):
        assert n1 == n2 and t1.dtype == t2.dtype and np.array_equal(t1, t2), n1
    new.checkpoint.params = ref.checkpoint.params = None
    assert new.checkpoint == ref.checkpoint


def test_siamese_separates_toy_classes():
    data = toy_set(6, seed=7)
    cfg = TrainConfig(dimension="arousal", epochs=25, batch_size=16,
                      learning_rate=2e-3, seed=2, pairs_per_epoch=180)
    ckpt = train_siamese(data, cfg, **TOY).checkpoint
    rng = np.random.default_rng(99)
    high = predict_many(ckpt, [toy_grid(1.0, rng) for _ in range(8)])
    low = predict_many(ckpt, [toy_grid(-1.0, rng) for _ in range(8)])
    assert high.mean() > low.mean()
    assert abs((high.mean() - low.mean()) - 2.0) < 0.5


def full_checkpoint(seed=3, dimension="arousal"):
    """Checkpoint sized for real 5120-sample frames (64x37 grids)."""
    spec = nn.default_net_spec()
    return Checkpoint(
        dimension=dimension, seed=seed, net_spec=spec,
        params=nn.init_params(spec, seed, dtype=np.float32),
        feature_config=FeatureConfig(), segmentation_config=SegmentationConfig(),
        sample_rate_hz=22050,
    )


def test_predict_event_mean_and_permutation():
    ckpt = full_checkpoint(seed=3)
    rng = np.random.default_rng(2)
    grids = [rng.uniform(0, 1, size=(64, 37)) for _ in range(nn.CHUNK + 4)]
    score = predict_event(ckpt, grids)
    assert predict_event(ckpt, grids[::-1]) == score
    per_frame = [predict_event(ckpt, [g]) for g in grids]
    # scoring is batch-invariant: a frame scores the same bits alone and
    # inside a multi-chunk batch, and the event score is their sorted mean
    assert np.array_equal(predict_many(ckpt, grids), per_frame)
    assert score == float(np.sort(per_frame).mean())


def test_siamese_loss_gradient_sums_both_branches():
    """Shared-weight pair loss: analytic grads match FD, i.e. both branch
    contributions accumulate into the one parameter set."""
    spec = nn.NetSpec((1, 6, 5), (nn.Conv2d(2, 3, 3), nn.Relu(), nn.Flatten(),
                                  nn.Dense(3), nn.Relu(), nn.Dense(1)))
    params = nn.init_params(spec, 31)
    rng = np.random.default_rng(5)
    xa = rng.uniform(0.1, 1.0, size=(1, 6, 5))
    xb = rng.uniform(0.1, 1.0, size=(1, 6, 5))
    target = 2.0

    def loss():
        out, _ = nn.forward(spec, params, np.stack((xa, xb)))
        return float((out[0, 0] - out[1, 0] - target) ** 2)

    out, tape = nn.forward(spec, params, np.stack((xa, xb)))
    g = 2.0 * (out[0, 0] - out[1, 0] - target)
    grads, _ = nn.backward(spec, params, tape, np.array([[g], [-g]]))

    h = 1e-5
    for i, entry in enumerate(params.layers):
        if entry is None:
            continue
        for k in ("w", "b"):
            flat = entry[k].reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                fp = loss()
                flat[j] = orig - h
                fm = loss()
                flat[j] = orig
                fd = (fp - fm) / (2 * h)
                an = grads[i][k].reshape(-1)[j]
                assert abs(an - fd) <= 1e-6 + 1e-4 * max(abs(an), abs(fd)), (i, k, j)


def test_predict_event_input_validation():
    ckpt = full_checkpoint()
    with pytest.raises(ValueError):
        predict_event(ckpt, [])
    with pytest.raises(ValueError, match="does not match"):
        predict_event(ckpt, [np.zeros((64, 36))])


def test_predict_many_is_exact_under_chunking():
    ckpt = toy_checkpoint(seed=4)
    rng = np.random.default_rng(8)
    grids = [rng.uniform(0, 1, size=TOY_SHAPE[1:]) for _ in range(3 * nn.CHUNK + 5)]
    scores = predict_many(ckpt, grids)
    assert scores.dtype == np.float64 and scores.shape == (len(grids),)
    for lo, hi in ((0, 1), (3, 40), (nn.CHUNK - 1, nn.CHUNK + 1), (7, len(grids))):
        assert np.array_equal(predict_many(ckpt, grids[lo:hi]), scores[lo:hi])
    assert predict_many(ckpt, []).shape == (0,)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow while diverging
@pytest.mark.parametrize("trainer", [train_baseline, train_siamese])
def test_diverging_training_raises(trainer):
    cfg = TrainConfig(dimension="arousal", epochs=5, batch_size=4,
                      learning_rate=1e4, seed=0, pairs_per_epoch=40)
    with pytest.raises(ValueError, match="diverged.*step"):
        trainer(toy_set(4, seed=3), cfg, **TOY)


def test_checkpoint_roundtrip_bitwise(tmp_path):
    ckpt = toy_checkpoint(seed=17, dimension="valence",
                          boundaries=Boundaries(-0.4, 0.3))
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, path)
    back = load_checkpoint(path)
    assert back.dimension == "valence"
    assert back.boundaries == Boundaries(-0.4, 0.3)
    assert back.net_spec == ckpt.net_spec
    assert back.feature_config == ckpt.feature_config
    assert back.segmentation_config == ckpt.segmentation_config
    rng = np.random.default_rng(0)
    grids = [rng.uniform(0, 1, size=TOY_SHAPE[1:]) for _ in range(50)]
    assert np.array_equal(predict_many(ckpt, grids), predict_many(back, grids))


def test_checkpoint_save_is_deterministic(tmp_path):
    ckpt = toy_checkpoint(seed=1)
    save_checkpoint(ckpt, tmp_path / "a.ckpt")
    save_checkpoint(ckpt, tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_checkpoint_corruption_detected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(toy_checkpoint(), path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(path)


def test_checkpoint_truncation_detected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(toy_checkpoint(), path)
    path.write_bytes(path.read_bytes()[:40])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path):
    ckpt = toy_checkpoint()
    meta = _saved_meta(tmp_path, ckpt)
    meta["version"] = 99
    path = tmp_path / "bad.ckpt"
    path.write_bytes(_pack_container(CHECKPOINT_MAGIC, meta, list(ckpt.params.tensors())))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_dimension_tag(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(toy_checkpoint(dimension="valence"), path)
    assert load_checkpoint(path, dimension="valence").dimension == "valence"
    with pytest.raises(CheckpointError, match="dimension"):
        load_checkpoint(path, dimension="arousal")


def _saved_meta(tmp_path, ckpt):
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, path)
    blob = path.read_bytes()
    meta_len = int.from_bytes(blob[4:8], "little")
    return json.loads(blob[8 : 8 + meta_len])


def _setter(*keys, value):
    """A metadata mutation that sets ``meta[keys[0]][keys[1]]...`` to ``value``."""
    def mutate(meta):
        for key in keys[:-1]:
            meta = meta[key]
        meta[keys[-1]] = value
    return mutate


def _wrong_kinds():
    """The checkpoint route of the config sweep: NaN and +-inf for every float
    field of the two configs; a float, a bool and a string for every int field
    of the configs and of the toy net's layers (layer 0 conv2d, layer 4 dense)."""
    fields = [(section, name, value)
              for section, cfg in (("feature_config", FeatureConfig()),
                                   ("segmentation_config", SegmentationConfig()))
              for name, value in asdict(cfg).items()]
    fields += [(("net_spec", "layers", i), name, value)
               for i in (0, 4) for name, value in asdict(TOY_SPEC.layers[i]).items()]
    for where, name, value in fields:
        if name in ("fmin", "fmax", "db_floor", "top_db"):
            wrong = [("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf)]
        else:
            wrong = [("float", float(value)), ("bool", True), ("str", str(value))]
        keys = where if isinstance(where, tuple) else (where,)
        prefix = "layer-" if isinstance(where, tuple) else ""
        for label, bad in wrong:
            yield pytest.param(_setter(*keys, name, value=bad),
                               id=f"{prefix}{name.replace('_', '-')}-{label}")


@pytest.mark.parametrize("mutate", [
    pytest.param(lambda m: m.pop("net_spec"), id="no-net-spec"),
    pytest.param(lambda m: m.pop("seed"), id="no-seed"),
    pytest.param(lambda m: m.update(seed="7"), id="seed-str"),
    pytest.param(lambda m: m.update(dimension=3), id="dimension-int"),
    pytest.param(lambda m: m.update(dimension="pitch"), id="dimension-unknown"),
    pytest.param(lambda m: m.update(net_spec=[1, 2]), id="net-spec-list"),
    pytest.param(lambda m: m["net_spec"].pop("layers"), id="no-layers"),
    pytest.param(lambda m: m["net_spec"]["layers"].__setitem__(0, "conv2d"), id="layer-str"),
    pytest.param(lambda m: m["net_spec"]["layers"][0].pop("kernel_h"), id="layer-no-kernel"),
    pytest.param(lambda m: m["net_spec"].update(input_shape=[1, 2]), id="input-shape-2d"),
    pytest.param(lambda m: m["feature_config"].update(bogus=1), id="feature-unknown-key"),
    pytest.param(lambda m: m["feature_config"].update(hop="x"), id="feature-hop-str"),
    pytest.param(lambda m: m.update(segmentation_config=None), id="segmentation-null"),
    pytest.param(lambda m: m.update(boundaries={"t_low": 1.0}), id="boundaries-partial"),
    pytest.param(lambda m: m.update(boundaries=[0.0, 1.0]), id="boundaries-list"),
    pytest.param(lambda m: m["feature_config"].update(n_mels=float("nan")), id="n-mels-nan"),
    pytest.param(lambda m: m["boundaries"].update(t_low=float("nan")), id="boundary-nan"),
    pytest.param(lambda m: m["boundaries"].update(t_high="0.5"), id="boundary-str"),
    pytest.param(lambda m: m["segmentation_config"].update(top_db=True), id="top-db-bool"),
    pytest.param(lambda m: m["net_spec"]["layers"][0].update(stride=1), id="layer-unknown-key"),
    pytest.param(lambda m: m["net_spec"]["layers"][1].update(kind="gelu"), id="layer-kind-unknown"),
    pytest.param(lambda m: m["net_spec"]["layers"][1].update(kind=["relu"]), id="layer-kind-list"),
    pytest.param(lambda m: m["net_spec"].update(layers=[]), id="layers-empty"),
    pytest.param(lambda m: m.update(sample_rate_hz=44100), id="sample-rate-44100"),
    pytest.param(lambda m: m["feature_config"].update(n_mels=10**6), id="n-mels-1e6"),
    pytest.param(lambda m: m["feature_config"].update(n_fft=8192), id="n-fft-8192"),
    pytest.param(lambda m: m["net_spec"].update(input_shape=[1, 16.0, 9]),
                 id="input-shape-float"),
    pytest.param(lambda m: m["net_spec"].update(input_shape=[True, 16, 9]),
                 id="input-shape-bool"),
    pytest.param(lambda m: m.update(bogus=1), id="unknown-key"),
    pytest.param(lambda m: m.pop("version"), id="no-version"),
    pytest.param(lambda m: m.pop("boundaries"), id="no-boundaries"),
    pytest.param(lambda m: m.update(version=True), id="version-bool"),
    pytest.param(lambda m: m["net_spec"].update(bogus=1), id="net-spec-unknown-key"),
    pytest.param(lambda m: m["boundaries"].update(t_low=-math.inf), id="boundary-minus-inf"),
    pytest.param(lambda m: m["boundaries"].update(t_high=math.inf), id="boundary-inf"),
    *_wrong_kinds(),
])
def test_checkpoint_malformed_metadata_is_checkpoint_error(tmp_path, mutate):
    ckpt = toy_checkpoint(boundaries=Boundaries(-0.5, 0.5))
    meta = _saved_meta(tmp_path, ckpt)
    mutate(meta)
    path = tmp_path / "bad.ckpt"
    path.write_bytes(_pack_container(CHECKPOINT_MAGIC, meta, list(ckpt.params.tensors())))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("edit, name", [
    pytest.param(lambda t: t.update({"layer4.weight": np.zeros((8, 10), np.float32)}),
                 "layer4.weight", id="dense-weight-shape"),
    pytest.param(lambda t: t.update({"layer0.bias": np.zeros(5, np.float32)}),
                 "layer0.bias", id="conv-bias-shape"),
    pytest.param(lambda t: t.update({"layer2.weight": np.zeros(3, np.float32)}),
                 "layer2.weight", id="unknown-tensor"),
    pytest.param(lambda t: t.pop("layer6.bias"), "layer6.bias", id="missing-tensor"),
])
def test_checkpoint_tensors_must_fit_the_spec(tmp_path, edit, name):
    ckpt = toy_checkpoint()
    meta = _saved_meta(tmp_path, ckpt)
    tensors = dict(ckpt.params.tensors())
    edit(tensors)
    path = tmp_path / "bad.ckpt"
    path.write_bytes(_pack_container(CHECKPOINT_MAGIC, meta, list(tensors.items())))
    with pytest.raises(CheckpointError, match=name):
        load_checkpoint(path)


@pytest.mark.parametrize("out_units", [2, 0])
def test_checkpoint_head_must_have_one_output(tmp_path, out_units):
    """A wider head's first output would be scored as if it were the score,
    and an empty one cannot be scored; neither is trained nor loaded."""
    ckpt = toy_checkpoint()
    meta = _saved_meta(tmp_path, ckpt)
    meta["net_spec"]["layers"][6]["out_units"] = out_units
    tensors = dict(ckpt.params.tensors(), **{"layer6.weight": np.zeros((out_units, 8), np.float32),
                                             "layer6.bias": np.zeros(out_units, np.float32)})
    path = tmp_path / "bad.ckpt"
    path.write_bytes(_pack_container(CHECKPOINT_MAGIC, meta, list(tensors.items())))
    reason = ("regression head must end in dense(1)" if out_units
              else "malformed metadata: net_spec layer 6: dense out_units must be positive")
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: {reason}"
    if out_units:
        wide = nn.NetSpec(TOY_SHAPE, TOY_SPEC.layers[:-1] + (nn.Dense(out_units),))
        with pytest.raises(ValueError, match=r"dense\(1\)"):
            train_baseline(toy_set(2), TrainConfig(dimension="arousal", epochs=1),
                           **dict(TOY, net_spec=wide))


@pytest.mark.parametrize("x", [
    FeatureConfig(), CUSTOM_FEATURES, SegmentationConfig(), CUSTOM_SEGMENTATION,
    TrainConfig(dimension="valence", pairs_per_epoch=10), Boundaries(-0.25, math.inf),
    nn.Conv2d(4, 3, 5), nn.Relu(), nn.MaxPool2x2(), nn.Flatten(), nn.Dense(7),
], ids=lambda x: type(x).__name__)
def test_from_json_reads_back_asdict(x):
    assert from_json(type(x), asdict(x), "x") == x


def test_from_json_stores_an_int_for_a_float_as_a_float():
    cfg = from_json(FeatureConfig, {"fmin": 0, "fmax": 11025}, "features")
    assert type(cfg.fmin) is float and type(cfg.fmax) is float
    assert type(from_json(FeatureConfig, {"fmin": 0}, "features").fmax) is type(None)
    with pytest.raises(ValueError, match="^features: 'fmax' cannot be True$"):
        from_json(FeatureConfig, {"fmax": True}, "features")
    with pytest.raises(ValueError, match="^features: int too large"):
        from_json(FeatureConfig, {"fmax": 10**400}, "features")


def test_checkpoint_save_load_save_is_byte_identical(tmp_path):
    """Non-default configs, and Python ints in float fields, which are saved
    as the floats that loading reads."""
    for features, segmentation, boundaries in (
            (CUSTOM_FEATURES, CUSTOM_SEGMENTATION, Boundaries(-0.5, 0.25)),
            (replace(TOY_FEATURES, fmin=0), replace(TOY_SEGMENTATION, top_db=20),
             Boundaries(0, 1))):
        ckpt = toy_checkpoint(seed=5, boundaries=boundaries)
        ckpt.feature_config, ckpt.segmentation_config = features, segmentation
        save_checkpoint(ckpt, tmp_path / "a.ckpt")
        save_checkpoint(load_checkpoint(tmp_path / "a.ckpt"), tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_checkpoint_metadata_keys_are_the_checkpoint_fields(tmp_path):
    meta = _saved_meta(tmp_path, toy_checkpoint(boundaries=Boundaries(-0.5, 0.5)))
    assert sorted(meta) == sorted(f.name for f in fields(Checkpoint) if f.name != "params")


def _misshapen(ckpt):
    ckpt.params.layers[4]["w"] = np.zeros((8, 10), np.float32)


def _set_tensor(layer, key, index, value):
    """An edit that sets ``ckpt.params.layers[layer][key][index]`` to ``value``."""
    def edit(ckpt):
        ckpt.params.layers[layer][key][index] = value
    return edit


def _past_float32(ckpt):
    for i in (0, 4):
        ckpt.params.layers[i]["w"][:] = 1e30


def _wide_head(ckpt):
    ckpt.net_spec = nn.NetSpec(TOY_SHAPE, TOY_SPEC.layers[:-1] + (nn.Dense(2),))
    ckpt.params = nn.init_params(ckpt.net_spec, 0, dtype=np.float32)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda c: setattr(c, "version", 99), id="version"),
    pytest.param(lambda c: setattr(c, "version", True), id="version-bool"),
    pytest.param(lambda c: setattr(c, "seed", 1.0), id="seed-float"),
    pytest.param(lambda c: setattr(c, "dimension", "pitch"), id="dimension-unknown"),
    pytest.param(lambda c: setattr(c, "sample_rate_hz", 44100), id="sample-rate-44100"),
    pytest.param(lambda c: setattr(c, "sample_rate_hz", 22050.0), id="sample-rate-float"),
    pytest.param(lambda c: setattr(c, "boundaries", Boundaries(-math.inf, math.inf)),
                 id="boundaries-infinite"),
    pytest.param(lambda c: setattr(c, "boundaries", Boundaries(0.0, math.inf)),
                 id="boundary-high-infinite"),
    pytest.param(lambda c: setattr(c, "feature_config", FeatureConfig()), id="input-not-grid"),
    pytest.param(lambda c: setattr(c, "feature_config", replace(TOY_FEATURES, fmin=False)),
                 id="feature-bool"),
    pytest.param(lambda c: setattr(c, "net_spec", nn.NetSpec(
        TOY_SHAPE, (nn.Conv2d(4.0, 3, 3),) + TOY_SPEC.layers[1:])), id="layer-float"),
    pytest.param(_wide_head, id="dense-2-head"),
    pytest.param(_misshapen, id="misshapen-tensor"),
    pytest.param(_set_tensor(0, "w", (1, 0, 2, 0), np.nan), id="nan"),
    pytest.param(_set_tensor(0, "w", (1, 0, 2, 0), np.inf), id="inf"),
    pytest.param(_set_tensor(6, "b", 0, -np.inf), id="-inf"),
    pytest.param(_past_float32, id="past-float32"),
])
def test_save_checkpoint_refuses_what_load_refuses_and_writes_nothing(tmp_path, edit):
    ckpt = toy_checkpoint(boundaries=Boundaries(-0.5, 0.5))
    edit(ckpt)
    path = tmp_path / "model.ckpt"
    with pytest.raises(ValueError):
        save_checkpoint(ckpt, path)
    assert not path.exists()


def test_checkpoint_metadata_not_an_object(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(_pack_container(CHECKPOINT_MAGIC, [1], []))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def _raw_container(magic: bytes, meta_bytes: bytes, blocks: bytes = b"") -> bytes:
    """A container with a valid CRC around arbitrary metadata bytes and blocks."""
    blob = magic + struct.pack("<I", len(meta_bytes)) + meta_bytes + blocks
    return blob + struct.pack("<I", zlib.crc32(blob))


def _block(name: str, arr: np.ndarray) -> bytes:
    a = np.ascontiguousarray(arr, dtype="<f4")
    return (struct.pack("<I", len(name)) + name.encode() + struct.pack("<I", a.ndim)
            + struct.pack(f"<{a.ndim}I", *a.shape) + a.tobytes())


@pytest.mark.parametrize("magic, load", [(CHECKPOINT_MAGIC, load_checkpoint),
                                         (TENSOR_FILE_MAGIC, load_tensor_file)],
                         ids=["BDN1", "BDF1"])
@pytest.mark.parametrize("meta_bytes", [b"{not json", b"\xff\xfe", b"[" * 100_000],
                         ids=["not-json", "not-utf8", "too-deep"])
def test_container_metadata_not_utf8_json_is_checkpoint_error(tmp_path, magic, load,
                                                              meta_bytes):
    path = tmp_path / "bad.bin"
    path.write_bytes(_raw_container(magic, meta_bytes))
    with pytest.raises(CheckpointError, match="metadata"):
        load(path)


@pytest.mark.parametrize("magic, load", [(CHECKPOINT_MAGIC, load_checkpoint),
                                         (TENSOR_FILE_MAGIC, load_tensor_file)],
                         ids=["BDN1", "BDF1"])
@pytest.mark.parametrize("blocks, message", [
    (_block("t", np.zeros(2)) + _block("t", np.ones(3)), "repeated tensor 't'"),
    (_block("t", np.zeros(2)).replace(b"t", b"\xff", 1), "tensor name is not UTF-8"),
], ids=["repeated-name", "name-not-utf8"])
def test_container_bad_tensor_name_is_checkpoint_error(tmp_path, magic, load, blocks,
                                                       message):
    meta = json.dumps({"version": 1, "kind": "tensors"}).encode()
    path = tmp_path / "bad.bin"
    path.write_bytes(_raw_container(magic, meta, blocks))
    with pytest.raises(CheckpointError, match=message):
        load(path)


def test_tensor_file_reads_back_what_the_raw_layout_holds(tmp_path):
    """The hand-built layout above is the one save_tensor_file writes."""
    path = tmp_path / "ok.bin"
    path.write_bytes(_raw_container(TENSOR_FILE_MAGIC, b'{"version":1}',
                                    _block("a", np.arange(6.0).reshape(2, 3))))
    meta, tensors = load_tensor_file(path)
    assert meta == {"version": 1}
    assert np.array_equal(tensors["a"], np.arange(6.0).reshape(2, 3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_checkpoint_non_finite_tensor_is_checkpoint_error(tmp_path, bad):
    ckpt = toy_checkpoint()
    meta = _saved_meta(tmp_path, ckpt)
    ckpt.params.layers[0]["w"][1, 0, 2, 0] = bad
    path = tmp_path / "bad.ckpt"
    path.write_bytes(_pack_container(CHECKPOINT_MAGIC, meta, list(ckpt.params.tensors())))
    with pytest.raises(CheckpointError, match="'layer0.weight' holds NaN or infinite"):
        load_checkpoint(path)


def test_tensor_file_non_finite_tensor_is_checkpoint_error(tmp_path):
    path = tmp_path / "bad.bin"
    save_tensor_file(path, [("frame0", np.zeros((2, 3))), ("frame1", np.array([0.5, np.nan]))])
    with pytest.raises(CheckpointError, match="'frame1' holds NaN or infinite"):
        load_tensor_file(path)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the unchecked net overflows
def test_checkpoint_weights_that_can_overflow_float32_are_checkpoint_error(tmp_path):
    """Finite weights whose products leave the float32 range would score inf."""
    rng = np.random.default_rng(0)
    grids = list(rng.uniform(0, 1, size=(4,) + TOY_SHAPE[1:]))
    path = tmp_path / "big.ckpt"
    ckpt = toy_checkpoint()
    ckpt.params.layers[4]["w"][:] = 1e30
    save_checkpoint(ckpt, path)
    assert np.isfinite(predict_many(load_checkpoint(path), grids)).all()
    ckpt.params.layers[0]["w"][:] = 1e30
    assert not np.isfinite(predict_many(ckpt, grids)).all()
    path.write_bytes(_pack_container(CHECKPOINT_MAGIC, _saved_meta(tmp_path, toy_checkpoint()),
                                     list(ckpt.params.tensors())))
    with pytest.raises(CheckpointError, match="layer4.weight .*float32 range"):
        load_checkpoint(path)


def _with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


@st.composite
def mutated(draw, blob: bytes):
    """``blob`` with bytes flipped, overwritten by a float32 (NaN, inf and
    huge values included), inserted or cut off, then given a valid CRC again,
    so that the checks behind the checksum do the work."""
    body = bytearray(blob[:-4])
    pos = draw(st.integers(0, len(body) - 1))
    kind = draw(st.sampled_from(["flip", "float", "insert", "truncate"]))
    if kind == "flip":
        for k, mask in enumerate(draw(st.lists(st.integers(1, 255), min_size=1, max_size=4))):
            body[(pos + k) % len(body)] ^= mask
    elif kind == "float":
        pos = min(pos, len(body) - 4)
        body[pos : pos + 4] = struct.pack("<f", draw(st.floats(width=32)))
    elif kind == "insert":
        body[pos:pos] = draw(st.binary(min_size=1, max_size=8))
    else:
        del body[pos:]
    return _with_crc(bytes(body))


def _saved(tmp_path_factory, name: str, save) -> bytes:
    path = tmp_path_factory.getbasetemp() / name
    save(path)
    return path.read_bytes()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_checkpoint_loads_only_as_a_finite_model(data, tmp_path_factory):
    ckpt = toy_checkpoint(seed=2, boundaries=Boundaries(-0.5, 0.5))
    valid = _saved(tmp_path_factory, "valid.ckpt", lambda p: save_checkpoint(ckpt, p))
    # the unmutated file loads, so each rejection below is the mutation's doing
    assert load_checkpoint(tmp_path_factory.getbasetemp() / "valid.ckpt").net_spec == TOY_SPEC
    path = tmp_path_factory.getbasetemp() / "mutated.ckpt"
    path.write_bytes(data.draw(mutated(valid)))
    try:
        back = load_checkpoint(path)
    except CheckpointError:
        return
    probe = np.random.default_rng(0).uniform(0, 1, size=(5,) + back.net_spec.input_shape[1:])
    assert np.isfinite(predict_many(back, list(probe))).all()


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_tensor_file_loads_only_as_finite_tensors(data, tmp_path_factory):
    rng = np.random.default_rng(1)
    frames = [(f"frame{i}", rng.uniform(0, 1, size=(4, 3))) for i in range(3)]
    valid = _saved(tmp_path_factory, "valid.bin",
                   lambda p: save_tensor_file(p, frames, {"n_frames": 3}))
    path = tmp_path_factory.getbasetemp() / "mutated.bin"
    path.write_bytes(data.draw(mutated(valid)))
    try:
        _, tensors = load_tensor_file(path)
    except CheckpointError:
        return
    assert all(t.dtype == np.float32 and np.isfinite(t).all() for t in tensors.values())
