"""Print the SHA-256 of every output of the reference recipe.

Usage: ``python tools/recipe_hashes.py`` (no flags). It runs, through
``barkspace.cli.main`` in a temporary directory:

- ``synth --seed 101 --n-events 200``, then ``split --ratio 0.7 --seed 101``;
- valence siamese and baseline models (``--epochs 2 --batch 64
  --pairs-per-epoch 2000 --lr 1e-3 --seed 7``) and an arousal siamese model
  (``--epochs 1 --batch 32 --seed 3``), all on the split manifest;
- ``eval`` of the valence siamese model on the test split, ``project --hist``
  of the split manifest, and ``featurize --format csv`` of ``synth_0007.wav``.

It prints one ``name sha256`` line per output. The bin form of ``featurize``
is left out, since its metadata records its input path. The hashes depend
on numpy, OpenBLAS and its kernel (set ``OPENBLAS_CORETYPE`` to pick one).
"""

import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from barkspace.cli import main  # noqa: E402

VALENCE = ("--epochs", "2", "--batch", "64", "--pairs-per-epoch", "2000", "--lr", "1e-3",
           "--seed", "7")
AROUSAL = ("--epochs", "1", "--batch", "32", "--seed", "3")


def recipe(d: Path) -> dict:
    """Run the recipe in ``d``; the path of each hashed output, by name."""
    corpus = d / "corpus"
    split = corpus / "split.csv"
    out = {name: d / name for name in ("siamese.ckpt", "baseline.ckpt", "arousal.ckpt",
                                       "eval.json", "points.csv", "hist.json",
                                       "featurize.csv")}
    runs = [
        ("synth", "--seed", "101", "--n-events", "200", "--out", corpus),
        ("split", "--manifest", corpus / "manifest.csv", "--ratio", "0.7", "--seed", "101",
         "--out", split),
        ("train", "--manifest", split, "--dim", "valence", "--model", "siamese", *VALENCE,
         "--out", out["siamese.ckpt"]),
        ("train", "--manifest", split, "--dim", "valence", "--model", "baseline", *VALENCE,
         "--out", out["baseline.ckpt"]),
        ("train", "--manifest", split, "--dim", "arousal", "--model", "siamese", *AROUSAL,
         "--out", out["arousal.ckpt"]),
        ("eval", "--model", out["siamese.ckpt"], "--manifest", split, "--split", "test",
         "--report", out["eval.json"]),
        ("project", "--arousal-model", out["arousal.ckpt"], "--valence-model",
         out["siamese.ckpt"], "--in", split, "--out", out["points.csv"],
         "--hist", out["hist.json"]),
        ("featurize", "--in", corpus / "synth_0007.wav", "--format", "csv",
         "--out", out["featurize.csv"]),
    ]
    for argv in runs:
        code = main([str(a) for a in argv])
        if code != 0:
            raise SystemExit(f"barkspace {argv[0]} exited {code}")
    return out


def run() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name, path in recipe(Path(tmp)).items():
            print(name, hashlib.sha256(path.read_bytes()).hexdigest())


if __name__ == "__main__":
    run()
