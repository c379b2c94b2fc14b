"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload neural-crf --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The run generates its inputs from the seed (``gen.py``, in a child process),
then repeats passes of the workload's commands until ``--seconds`` are
spent and reports per-pass medians. With ``--trace 1`` passes alternate
untraced and traced (``spans.py``); the run then reports per-layer
metrics and the tracing overhead instead of the end-to-end metrics.

Standard output ends with two JSON lines: a detail line (every named metric
of the workload in scaled and in wall-clock seconds, output hashes, problems,
the machine) and the result line ``{"correct", "attempted", "failed",
"metrics"}``. Time-based end-to-end metrics are in scaled seconds; see
``workloads.probe_seconds`` and README.md. BLAS runs one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("neural-crf", "baseline-standard", "eval-large")
END_TO_END = {
    "setup_s": "s",
    "stage1_tok_s": "tok/s",
    "stage2_tok_s": "tok/s",
    "peak_rss_mb": "MB",
}
IMPORT_PROBES = 5
# The hot products are vector-matrix and rank-1 updates. A second BLAS thread
# gained ~10% on tagging and widened the run-to-run spread from ~7% to ~15%
# on the shared 2-vCPU reference machine.
BLAS_THREADS = 1
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import mwetag.cli; "
    "print(time.perf_counter() - t)"
)
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def set_blas_threads():
    """Must run before numpy loads."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_seconds() -> tuple[float, float]:
    """Median time to import the CLI module in a fresh interpreter: wall
    seconds, and seconds scaled by the calibration probe around each import."""
    from workloads import probe_seconds, scaled_seconds

    wall, scaled = [], []
    for _ in range(IMPORT_PROBES):
        before = probe_seconds()
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=child_env(),
            capture_output=True, text=True, check=True, timeout=120,
        )
        seconds = float(done.stdout)
        wall.append(seconds)
        scaled.append(scaled_seconds(seconds, before, probe_seconds()))
    return statistics.median(wall), statistics.median(scaled)


def generate(workload: str, seed: int, out: str, tiny: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "gen.py"), "--workload", workload,
           "--seed", str(seed), "--out", out]
    if tiny:
        cmd.append("--tiny")
    subprocess.run(cmd, env=child_env(), check=True, timeout=300)
    with open(os.path.join(out, "expected.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _blas_thread_count():
    """Threads OpenBLAS reports, or None when it cannot be asked."""
    import ctypes
    import glob

    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    reported = _blas_thread_count()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": reported if reported is not None else BLAS_THREADS,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }


def measure(workload: str, manifest: dict, seed: int, seconds: float, out: str,
            traced: bool):
    """Run passes until the time is spent; return (passes, layer values per
    traced pass, phase seconds per untraced pass, per traced pass)."""
    import spans
    from workloads import run_pass

    recorder = spans.Recorder() if traced else None
    passes, layers, plain_s, traced_s = [], [], [], []
    start = time.perf_counter()
    try:
        while True:
            # a traced run alternates untraced and traced passes, untraced first
            tracing = traced and len(passes) % 2 == 1
            if tracing:
                recorder.install()
                recorder.reset()
            p = run_pass(workload, manifest["files"], manifest["expected"], seed, out,
                         recorder.paused if tracing else contextlib.nullcontext)
            work_s = sum(p.seconds.values())
            if tracing:
                recorder.uninstall()
                layers.append(spans.layer_metrics(recorder, p.tokens.get("train", 0)))
                traced_s.append(work_s)
            else:
                plain_s.append(work_s)
            passes.append(p)
            if p.failed:
                break
            # stop before a pass that would likely end past the time
            elapsed = time.perf_counter() - start
            enough = len(passes) >= (2 if traced else 1)
            if enough and elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
    finally:
        if recorder is not None:
            recorder.uninstall()
    return passes, layers, plain_s, traced_s


def check_hashes(passes):
    """Every pass of one seed must write byte-identical outputs."""
    reference = passes[0].hashes
    for p in passes[1:]:
        for name, (command, digest) in p.hashes.items():
            if name in reference and reference[name][1] != digest:
                p.command = command
                p.fail(f"{name} sha256 differs from the first pass")


def median_metrics(rows: list[dict]) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def report(workload, seed, traced, passes, layers, plain_s, traced_s, imports):
    import spans
    from workloads import UNITS, WORKLOADS

    metrics_of = WORKLOADS[workload][1]
    # a traced run takes its end-to-end figures from the untraced passes only
    complete = [p for p in passes[:: 2 if traced else 1] if not p.failed]
    wall, scaled = {}, {}
    if complete:
        wall = median_metrics([metrics_of(p.seconds, p.tokens, imports[0]) for p in complete])
        scaled = median_metrics([metrics_of(p.scaled, p.tokens, imports[1]) for p in complete])
    wall["peak_rss_mb"] = scaled["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    units = dict(UNITS, peak_rss_mb="MB")
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failed) for p in passes)

    if traced:
        values = median_metrics(layers) if layers else {}
        if plain_s and traced_s:
            values["trace.overhead"] = (
                statistics.median(traced_s) / statistics.median(plain_s) - 1.0
            )
        metrics = {
            name: {"value": values[name], "unit": unit}
            for (name, (unit, _)) in spans.LAYER_METRICS.items() if name in values
        }
    else:
        metrics = {
            name: {"value": scaled[name], "unit": unit}
            for name, unit in END_TO_END.items() if name in scaled
        }

    def with_units(values):
        return {k: {"value": v, "unit": units[k]} for k, v in sorted(values.items())}

    print(json.dumps({
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "passes": len(passes),
        "ops_failed": failed / attempted if attempted else 0.0,
        "scaled": with_units(scaled),
        "wall": with_units(wall),
        "probe_ms": 1000.0 * statistics.median(x for p in passes for x in p.probes),
        "sha256": {name: digest for name, (_, digest) in sorted(passes[0].hashes.items())},
        "problems": [problem for p in passes for problem in p.problems],
        "machine": machine(),
    }, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0 if complete else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few sentences per input file (self-tests)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "mwetag" / "__init__.py").is_file():
        print(f"error: no mwetag package under {SRC}", file=sys.stderr)
        return 2

    set_blas_threads()
    sys.path.insert(0, str(SRC))
    work_root = BENCH / "_work"
    work_root.mkdir(exist_ok=True)
    out = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root)
    try:
        imports = import_seconds()
        manifest = generate(args.workload, args.seed, out, args.tiny)
        passes, layers, plain_s, traced_s = measure(
            args.workload, manifest, args.seed, args.seconds, out, bool(args.trace)
        )
        check_hashes(passes)
        return report(args.workload, args.seed, bool(args.trace), passes, layers,
                      plain_s, traced_s, imports)
    finally:
        shutil.rmtree(out, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
