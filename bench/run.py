"""barkspace benchmark: one workload per run, one JSON result line.

    python3 bench/run.py --workload {train,score,field} [--seed 101]
                         [--seconds 30] [--trace 0|1]

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src`` directory and driven in-process through
``barkspace.cli.main``, one command at a time, exactly as a user would call
it. Inputs are generated from ``--seed``. Set-up runs SETUP_REPEATS times and
its median is ``setup_s``. Timed passes then repeat for about ``--seconds``
seconds; each pass's outputs are checked, and every CLI call and check counts
as one attempted operation.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians
over passes. ``--trace 1`` alternates untraced passes with traced ones, which
have a span wrapper around each listed function, then runs the CNN layer and
scoring batch sweeps, and reports the per-layer metrics as medians. The last line of stdout is
the result; the first describes the machine, and with ``--trace 0`` the
second lists every set-up and pass measurement. Scratch files go to
``.bench_work/`` in the checkout and are removed at exit. The BLAS thread
count is left at the program's default and recorded.
"""

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
RSS_SAMPLE_S = 0.01

# Bindings made by ``from .x import f`` that the span wrappers must reach.
IMPORTED_BINDINGS = ("barkspace.pipeline.log_mel", "barkspace.pipeline.read_wav",
                     "barkspace.pipeline.calibrate_boundaries",
                     "barkspace.projection.predict_event", "barkspace.cli.read_wav",
                     "barkspace.cli.resample", "barkspace.cli.detect_nonsilent")
TOTAL_MS = ("neuralnet.forward", "neuralnet.backward", "neuralnet.adam_step",
            "models.make_pairs", "models.predict_many", "models.save_checkpoint",
            "models.load_checkpoint", "features.log_mel", "audio_io.read_wav",
            "audio_io.resample", "audio_io.write_wav", "segmentation.detect_nonsilent",
            "segmentation.frame_segment", "evaluation.calibrate_boundaries",
            "projection.export_points", "corpus.load_manifest")
SELF_MS = ("models.train_siamese", "models.train_baseline", "models.predict_event",
           "evaluation.evaluate", "projection.project_event", "pipeline.load_event_features",
           "pipeline.train_dimension", "cli.main")


def import_program():
    """Put the checkout's ``src`` first on the path and import barkspace from it."""
    src = ROOT / "src"
    if not (src / "barkspace" / "__init__.py").is_file():
        raise SystemExit(f"bench: no barkspace sources under {src}")
    sys.path.insert(0, str(src))
    import barkspace

    if Path(barkspace.__file__).resolve().parent != (src / "barkspace").resolve():
        raise SystemExit(f"bench: imported barkspace from {barkspace.__file__}, not {src}")


# (config, thread count) entry points of numpy's and scipy's OpenBLAS builds
OPENBLAS_SYMBOLS = (("scipy_openblas_get_config64_", "scipy_openblas_get_num_threads64_"),
                    ("scipy_openblas_get_config", "scipy_openblas_get_num_threads"),
                    ("openblas_get_config", "openblas_get_num_threads"))


def openblas_info() -> list:
    """Configuration and thread count of each OpenBLAS loaded into this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    out = []
    for path in paths:
        entry = {"library": Path(path).name}
        lib = ctypes.CDLL(path)
        for config_name, threads_name in OPENBLAS_SYMBOLS:
            if hasattr(lib, config_name) and hasattr(lib, threads_name):
                config, threads = getattr(lib, config_name), getattr(lib, threads_name)
                config.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
                entry.update(config=config().decode(), threads=threads())
                break
        out.append(entry)
    return out


def machine_block() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_info(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


class PeakRss:
    """Peak resident set size inside a ``with`` block, sampled by a thread.

    Sampling ``/proc/self/statm`` resets with each block, unlike the
    process-lifetime ``ru_maxrss``, so set-up's own peak cannot hide it.
    """

    def __enter__(self):
        self.peak_mb = 0.0
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._stop = threading.Event()
        self._sample()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def _sample(self):
        with open("/proc/self/statm") as fh:
            resident = int(fh.read().split()[1])
        self.peak_mb = max(self.peak_mb, resident * self._page / 1e6)

    def _loop(self):
        while not self._stop.wait(RSS_SAMPLE_S):
            self._sample()

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._sample()
        return False


class Counters:
    """Work counted by the span wrappers' observers during one traced pass."""

    def __init__(self):
        self.clear()

    def clear(self):
        self.forward_items = 0
        self.predict_items = 0
        self.wav_bytes = 0
        self.frame_digests = set()

    def targets(self):
        """(module, attribute, span name, observer) for every traced function."""
        from barkspace import (audio_io, cli, corpus, evaluation, features, models,
                               neuralnet, pipeline, projection, segmentation)

        def on_forward(args, kwargs, result):
            x = args[2] if len(args) > 2 else kwargs["x"]
            self.forward_items += x.shape[0] if x.ndim == 4 else 1

        def on_predict_many(args, kwargs, result):
            self.predict_items += len(args[1] if len(args) > 1 else kwargs["features"])

        def on_log_mel(args, kwargs, result):
            frame = args[0] if args else kwargs["frame"]
            # a 64-bit hash of the samples tells frames apart within a pass
            self.frame_digests.add(hash(getattr(frame, "samples", frame).tobytes()))

        def on_read_wav(args, kwargs, result):
            self.wav_bytes += os.path.getsize(args[0] if args else kwargs["path"])

        observers = {"neuralnet.forward": on_forward, "models.predict_many": on_predict_many,
                     "features.log_mel": on_log_mel, "audio_io.read_wav": on_read_wav}
        functions = [
            (neuralnet, ("forward", "backward", "adam_step")),
            (models, ("make_pairs", "train_siamese", "train_baseline", "predict_many",
                      "predict_event", "save_checkpoint", "load_checkpoint")),
            (features, ("log_mel",)),
            (audio_io, ("read_wav", "resample", "write_wav")),
            (segmentation, ("detect_nonsilent", "frame_segment")),
            (evaluation, ("calibrate_boundaries", "evaluate")),
            (projection, ("project_event", "export_points")),
            (pipeline, ("load_event_features", "train_dimension")),
            (corpus, ("load_manifest",)),
            (cli, ("main",)),
        ]
        out = []
        for module, attrs in functions:
            for attr in attrs:
                name = f"{module.__name__.split('.')[-1]}.{attr}"
                out.append((module, attr, name, observers.get(name)))
        return out


def layer_values(summary: dict, counters: Counters) -> dict:
    """Per-layer metrics of one traced pass from its span summary and counters."""
    def get(name, key):
        return summary.get(name, {}).get(key, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {f"{n}.ms": get(n, "ms") for n in TOTAL_MS}
    out.update({f"{n}.self_ms": get(n, "self_ms") for n in SELF_MS})
    out["neuralnet.forward.calls"] = get("neuralnet.forward", "calls")
    out["neuralnet.forward.items_per_call"] = ratio(counters.forward_items,
                                                    get("neuralnet.forward", "calls"))
    out["models.predict_many.items_per_call"] = ratio(counters.predict_items,
                                                      get("models.predict_many", "calls"))
    out["features.log_mel.calls"] = get("features.log_mel", "calls")
    out["features.log_mel.calls_per_frame"] = ratio(get("features.log_mel", "calls"),
                                                    len(counters.frame_digests))
    out["audio_io.read_wav.mb_per_s"] = ratio(counters.wav_bytes / 1e6,
                                              get("audio_io.read_wav", "ms") / 1e3)
    return out


def timed_pass(workload, state, ops):
    """One pass; returns (facts, wall seconds, peak RSS in MB). Checks come later."""
    with PeakRss() as rss:
        t0 = time.perf_counter()
        facts = workload.run_pass(state, ops)
        seconds = time.perf_counter() - t0
    return facts, seconds, rss.peak_mb


def keep_going(started: float, pass_seconds: list, budget: float) -> bool:
    """Start another pass only if a typical one still ends within the budget."""
    return time.perf_counter() - started + statistics.median(pass_seconds) <= budget


def end_to_end(workload, state, ops, seconds: float, setup_times: list) -> dict:
    started = time.perf_counter()
    times, peaks = [], []
    while not times or keep_going(started, times, seconds):
        facts, s, peak = timed_pass(workload, state, ops)
        workload.check(state, facts, ops)
        times.append(s)
        peaks.append(peak)
    print(json.dumps({"setup_s": setup_times, "pass_s": times, "peak_rss_mb": peaks}))
    return {"setup_s": statistics.median(setup_times), "pass_s": statistics.median(times),
            "peak_rss_mb": statistics.median(peaks)}


def traced_pass(workload, state, ops, recorder, counters):
    """One pass with span wrappers installed; returns (facts, seconds, layer values)."""
    import spans

    bound, restore = spans.install(recorder, counters.targets())
    try:
        counters.clear()
        recorder.clear()
        facts, seconds, _ = timed_pass(workload, state, ops)
        summary = recorder.summary()
    finally:
        restore()
    reached = {b for names in bound.values() for b in names}
    for binding in IMPORTED_BINDINGS:
        ops.check(binding in reached, f"trace: no wrapper installed at {binding}")
    for name in workload.required:
        ops.check(summary.get(name, {}).get("calls", 0) > 0,
                  f"trace: {name} recorded no span on workload {workload.name}")
    return facts, seconds, layer_values(summary, counters)


def per_layer(workload, state, ops, seconds: float, seed: int) -> dict:
    """Untraced and traced passes alternate, so both see the same machine."""
    import cnnlayers
    import spans

    recorder, counters = spans.Recorder(), Counters()
    started = time.perf_counter()
    plain, plain_s, traced, traced_s = [], [], [], []
    while not traced_s or keep_going(started, plain_s + traced_s, seconds):
        if len(plain_s) <= len(traced_s):
            facts, s, _ = timed_pass(workload, state, ops)
            workload.check(state, facts, ops)
            plain.append(workload.layer_metrics(state, facts))
            plain_s.append(s)
        else:
            facts, s, values = traced_pass(workload, state, ops, recorder, counters)
            workload.check(state, facts, ops)
            traced.append(values)
            traced_s.append(s)

    values = {key: statistics.median(p[key] for p in runs)
              for runs in (plain, traced) for key in runs[0]}
    values["trace.overhead_pct"] = 100.0 * (statistics.median(traced_s)
                                            / statistics.median(plain_s) - 1.0)
    values.update(cnnlayers.layer_ms(seed))
    values.update(cnnlayers.predict_many_ms_per_frame(seed))
    return values


def as_result(values: dict, declared: list, ops) -> dict:
    """The result object, with the metrics in BENCHMARK.json's order and units."""
    names = {m["name"] for m in declared}
    extra = set(values) - names
    if extra:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(extra)}")
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in declared},
    }


def run(args, work_root: Path) -> dict:
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS[args.workload]
    setup_times = []
    for k in range(SETUP_REPEATS):
        if k:
            shutil.rmtree(work_root / f"setup{k - 1}")
        t0 = time.perf_counter()
        state = workload.setup(work_root / f"setup{k}", args.seed)
        setup_times.append(time.perf_counter() - t0)

    ops = workloads.Ops()
    if args.trace:
        values = per_layer(workload, state, ops, args.seconds, args.seed)
        declared = spec["per_layer"]
    else:
        values = end_to_end(workload, state, ops, args.seconds, setup_times)
        declared = spec["end_to_end"]
        missing = {m["name"] for m in declared} - set(values)
        if missing:
            raise RuntimeError(f"end-to-end metrics not measured: {sorted(missing)}")
    for error in ops.errors:
        print(f"bench: check failed: {error}", file=sys.stderr)
    return as_result(values, declared, ops)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "score", "field"))
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    print(json.dumps({"machine": machine_block(), "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds, "trace": args.trace}))
    work_root = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args, work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_root.parent.rmdir()
        except OSError:
            pass  # another run's files are still there
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
