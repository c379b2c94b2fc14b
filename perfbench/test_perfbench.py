"""Self-tests of the benchmark (tiny inputs, a minute or two in all):

    python3 -m pytest perfbench

* a traced pass records every per-layer metric on the workload that should
  move it, and puts the library back as it found it;
* the benchmark's call sequence writes the same bytes as ``mwetag``'s own
  train / tag / eval commands;
* the output lines follow BENCHMARK.json, repeat their hashes for a seed, and
  report failed checks;
* without the package next to it, the benchmark exits non-zero and prints
  no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from mwetag import autodiff, baseline, chaincrf, cli, tagger  # noqa: E402

SEED = 3
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _inputs(workload, tmp_path, seed=SEED):
    return gen.generate(workload, seed, str(tmp_path / "inputs"), tiny=True)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        name: unit for name, (unit, _) in spans.LAYER_METRICS.items()
    }


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_pass_records_every_layer_metric(workload, tmp_path):
    manifest = _inputs(workload, tmp_path)
    recorder = spans.Recorder()
    recorder.install()
    try:
        p = workloads.run_pass(workload, manifest["files"], manifest["expected"],
                               SEED, str(tmp_path), recorder.paused)
    finally:
        recorder.uninstall()
    assert p.problems == []
    values = spans.layer_metrics(recorder, p.tokens.get("train", 0))
    silent = [
        name for name, (_, where) in spans.LAYER_METRICS.items()
        if workload in where and not values[name] > 0
    ]
    assert silent == []


def test_uninstall_restores_every_binding():
    originals = (tagger.bilstm, baseline.forward_backward, cli.train_tagger,
                 baseline.BaselineProblem.__dict__["loss"], autodiff.Tape.record)
    recorder = spans.Recorder()
    recorder.install()
    # callers' own bindings carry the wrapper, shared with the defining module
    assert tagger.bilstm is autodiff.bilstm and tagger.bilstm.__wrapped__ is originals[0]
    assert baseline.forward_backward is chaincrf.forward_backward
    assert baseline.forward_backward.__wrapped__ is originals[1]
    assert cli.train_tagger.__wrapped__ is originals[2]
    recorder.uninstall()
    assert (tagger.bilstm, baseline.forward_backward, cli.train_tagger,
            baseline.BaselineProblem.__dict__["loss"], autodiff.Tape.record) == originals


def _cli(*args):
    assert cli.run([str(a) for a in args]) == 0


def test_cli_parity_neural(tmp_path, capsys):
    manifest = _inputs("neural-crf", tmp_path)
    files = manifest["files"]
    bench, ref = tmp_path / "bench", tmp_path / "cli"
    bench.mkdir()
    ref.mkdir()
    p = workloads.run_pass("neural-crf", files, manifest["expected"], SEED, str(bench))
    assert p.problems == []
    _cli("train", "--train", files["train"], "--embeddings", files["vec"],
         "--model", ref / "model.json", "--seed", SEED,
         "--epochs", workloads.NEURAL_EPOCHS)
    _cli("tag", "--model", ref / "model.json", "--input", files["test"],
         "--output", ref / "pred.cupt", "--embeddings", files["vec"])
    for name in ("model.json", "model.json.train.json", "pred.cupt"):
        assert (bench / name).read_bytes() == (ref / name).read_bytes(), name


def test_cli_parity_baseline(tmp_path):
    manifest = _inputs("baseline-standard", tmp_path)
    files = manifest["files"]
    bench, ref = tmp_path / "bench", tmp_path / "cli"
    bench.mkdir()
    ref.mkdir()
    p = workloads.run_pass("baseline-standard", files, manifest["expected"], SEED,
                           str(bench))
    assert p.problems == []
    _cli("train", "--variant", "baseline-standard", "--train", files["train"],
         "--model", ref / "model.json", "--seed", SEED)
    _cli("tag", "--model", ref / "model.json", "--input", files["test"],
         "--output", ref / "pred.cupt")
    for name in ("model.json", "model.json.train.json", "pred.cupt"):
        assert (bench / name).read_bytes() == (ref / name).read_bytes(), name


def test_cli_parity_eval(tmp_path, capsys):
    manifest = _inputs("eval-large", tmp_path)
    files = manifest["files"]
    p = workloads.run_pass("eval-large", files, manifest["expected"], SEED,
                           str(tmp_path))
    assert p.problems == []
    _cli("eval", "--gold", files["gold"], "--pred", files["pred"],
         "--train", files["train"], "--report", tmp_path / "cli-report.json")
    assert (tmp_path / "report.json").read_bytes() == (
        tmp_path / "cli-report.json").read_bytes()


def test_generator_is_seeded_and_joins_sentences(tmp_path):
    first = gen.generate("eval-large", 7, str(tmp_path / "a"), tiny=True)
    again = gen.generate("eval-large", 7, str(tmp_path / "b"), tiny=True)
    other = gen.generate("eval-large", 8, str(tmp_path / "c"), tiny=True)
    for name, path in first["files"].items():
        assert Path(path).read_bytes() == Path(again["files"][name]).read_bytes()
    assert Path(first["files"]["gold"]).read_bytes() != Path(
        other["files"]["gold"]).read_bytes()
    gold = workloads.corpus.read_cupt(first["files"]["gold"])
    assert {len(s.vmwes) for s in gold} <= {1, 2, 3, 4}
    assert max(len(s.vmwes) for s in gold) > 1
    expected = first["expected"]
    assert 0 < expected["unseen_gold_mwes"] < expected["gold_mwes"]
    assert expected["mwe_tp"] < expected["pred_mwes"] < expected["gold_mwes"]


def test_failed_check_counts_as_failed_command(tmp_path):
    manifest = _inputs("eval-large", tmp_path)
    wrong = dict(manifest["expected"], mwe_tp=manifest["expected"]["mwe_tp"] + 1)
    p = workloads.run_pass("eval-large", manifest["files"], wrong, SEED, str(tmp_path))
    assert p.attempted == 1
    assert p.failed == {"eval"}


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_result_lines_follow_benchmark_json(workload):
    lines = {}
    for trace in (0, 1):
        done = _bench("--workload", workload, "--seed", SEED, "--seconds", 0,
                      "--trace", trace, "--tiny")
        assert done.returncode == 0, done.stderr
        detail, result = map(json.loads, done.stdout.splitlines()[-2:])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        lines[trace] = detail, result
    names = {trace: {m["name"] for m in BENCHMARK[key]}
             for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    for trace, (detail, result) in lines.items():
        assert set(result["metrics"]) == names[trace]
    assert all(m["value"] > 0 for m in lines[0][1]["metrics"].values())
    # the same seed writes the same model, prediction and report bytes
    assert lines[0][0]["sha256"] == lines[1][0]["sha256"]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = _bench("--workload", "eval-large", "--seed", 1, "--seconds", 1,
                  "--trace", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
