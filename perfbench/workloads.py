"""The benchmark's workloads: each pass runs the commands a user would, as
``mwetag.cli`` runs them, then checks their outputs.

A pass calls the same public functions, in the same order and with the same
arguments, as ``cli._cmd_train`` / ``_cmd_tag`` / ``_cmd_eval``, on the files
``gen.py`` wrote. Functions are looked up on their modules at call time, so
a traced run sees the wrappers ``spans.Recorder`` installs. Each workload
times its commands in named phases. ``setup`` is what a command does before
its real work (vector load, corpus read for the model build, model build,
``load_model``); the others (``train``, ``save``, ``tag``, ``fit``, ``read``,
``score``) are the work itself. The ``_*_metrics`` functions turn phase
seconds into the reported metrics; README.md says what each one means.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import time
import traceback
from collections import defaultdict

from mwetag import baseline, corpus, embed, evaluation, serialize, tagger

# neural-crf trains this many epochs per train command; see README.md
NEURAL_EPOCHS = 1
# sentences the reloaded and the in-memory model both tag in the reload check
RELOAD_SAMPLE = 8
# A fixed pure-Python loop is timed before and after every phase. Phase
# seconds are also kept scaled by PROBE_REFERENCE_S / (probe seconds), the
# loop's time on the reference machine at full speed; see README.md.
PROBE_LOOPS = 300_000
PROBE_REFERENCE_S = 0.020


def probe_seconds() -> float:
    """Fastest of three timings of the calibration loop."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def scaled_seconds(seconds: float, before: float, after: float) -> float:
    return seconds * 2.0 * PROBE_REFERENCE_S / (before + after)


class Pass:
    """Timings, token counts, output hashes and check results of one pass."""

    def __init__(self, unrecorded=contextlib.nullcontext):
        self.seconds: dict[str, float] = defaultdict(float)
        # seconds scaled to the reference machine speed by the probe
        self.scaled: dict[str, float] = defaultdict(float)
        self.probes: list[float] = []
        self.tokens: dict[str, int] = {}
        self.hashes: dict[str, tuple[str, str]] = {}  # output -> (command, sha256)
        self.attempted = 0
        self.failed: set[str] = set()
        self.problems: list[str] = []
        self.command = ""
        self.unrecorded = unrecorded  # context in which checks run untraced

    def begin(self, command: str):
        self.command = command
        self.attempted += 1

    @contextlib.contextmanager
    def timed(self, phase: str):
        before = probe_seconds()
        start = time.perf_counter()
        yield
        elapsed = time.perf_counter() - start
        after = probe_seconds()
        self.seconds[phase] += elapsed
        self.scaled[phase] += scaled_seconds(elapsed, before, after)
        self.probes += [before, after]

    def check(self, ok: bool, what: str):
        if not ok:
            self.fail(what)

    def fail(self, what: str):
        self.failed.add(self.command)
        self.problems.append(f"{self.command}: {what}")

    def hash(self, name: str, path: str):
        with open(path, "rb") as handle:
            self.hashes[name] = (self.command, hashlib.sha256(handle.read()).hexdigest())


def _tokens(c) -> int:
    return sum(len(s.tokens) for s in c)


def _load_table(path: str):
    return embed.load_vec_file(path, embed.sniff_vec_dim(path))


def _dump_json(path: str, payload: dict):
    serialize.atomic_write_text(
        path, json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    )


def _round_trips(path: str, predicted) -> bool:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    parsed = corpus.parse_cupt(text.splitlines(keepends=True))
    return parsed == predicted and corpus.write_cupt(parsed) == text


def _tag_baseline_corpus(model, sentences):
    return [
        corpus.from_tags(baseline.tag_baseline(model, s, table=None), s, apply_filter=True)
        for s in sentences
    ]


def neural_crf(p: Pass, files: dict, expected: dict, seed: int, out: str,
               epochs: int = NEURAL_EPOCHS):
    """mwetag train --train T --embeddings V --model M --seed S --epochs E,
    then mwetag tag --model M --input X --output P --embeddings V."""
    model_path = os.path.join(out, "model.json")
    pred_path = os.path.join(out, "pred.cupt")

    p.begin("train")
    with p.timed("setup"):
        table = _load_table(files["vec"])
        train_corpus = corpus.read_cupt(files["train"])
        config = tagger.TaggerConfig(
            head="crf", seed=seed, epochs=epochs,
            batch_size=tagger.TaggerConfig().batch_size,
        )
        model = tagger.build_for_corpus(config, train_corpus, embeddings=table)
    with p.timed("train"):
        best, report = tagger.train(model, train_corpus, None)
    with p.timed("save"):
        serialize.save_model(best, model_path)
        _dump_json(model_path + ".train.json", {
            "losses": report.losses,
            "dev_token_accuracy": report.dev_token_accuracy,
            "dev_mwe_f1": report.dev_mwe_f1,
            "selected_epoch": report.selected_epoch,
        })
    p.tokens["train"] = _tokens(train_corpus) * epochs
    with p.unrecorded():
        p.check(expected["train_tokens"] == _tokens(train_corpus), "train token count")
        p.check(len(report.losses) == epochs
                and all(math.isfinite(x) for x in report.losses),
                f"epoch losses {report.losses} not all finite")
        p.hash("model", model_path)

    p.begin("tag")
    with p.timed("setup"):
        table = _load_table(files["vec"])
        loaded = serialize.load_model(model_path, embeddings=table)
    with p.timed("tag"):
        test_corpus = corpus.read_cupt(files["test"])
        if not isinstance(loaded, tagger.TaggerModel):
            raise TypeError("model file does not hold a tagger")
        predicted = tagger.predict_corpus(loaded, test_corpus, apply_filter=True)
        serialize.atomic_write_text(pred_path, corpus.write_cupt(predicted))
    p.tokens["tag"] = _tokens(test_corpus)
    with p.unrecorded():
        sample = test_corpus[:RELOAD_SAMPLE]
        p.check(tagger.predict_corpus(best, sample) == predicted[:RELOAD_SAMPLE],
                "reloaded model tags the sample differently")
        p.check(_round_trips(pred_path, predicted), "predictions do not round-trip")
        p.hash("pred", pred_path)


def baseline_standard(p: Pass, files: dict, expected: dict, seed: int, out: str):
    """mwetag train --variant baseline-standard --train T --model M --seed S,
    then mwetag tag --model M --input X --output P."""
    model_path = os.path.join(out, "model.json")
    pred_path = os.path.join(out, "pred.cupt")

    p.begin("train")
    with p.timed("setup"):
        train_corpus = corpus.read_cupt(files["train"])
    with p.timed("fit"):
        options = baseline.BaselineTrainOptions(
            max_iterations=baseline.BaselineTrainOptions().max_iterations, seed=seed
        )
        model = baseline.train_baseline(
            train_corpus, variant="standard", table=None, options=options
        )
        problem = baseline.BaselineProblem(
            train_corpus, "standard", model.sigma, None, tag_vocab=model.tag_vocab
        )
        objective, grad = problem.loss_and_grad(problem.pack_model(model))
        serialize.save_model(model, model_path)
        _dump_json(model_path + ".train.json", {
            "variant": "baseline-standard",
            "final_objective": objective,
            "grad_max_norm": float(abs(grad).max()),
            "feature_count": len(model.feature_index),
        })
    p.tokens["train"] = _tokens(train_corpus)
    with p.unrecorded():
        grad_norm = float(abs(grad).max())
        p.check(grad_norm < options.grad_tolerance,
                f"gradient max-norm {grad_norm:.3g} not under "
                f"{options.grad_tolerance} at the iteration cap")
        p.hash("model", model_path)

    p.begin("tag")
    with p.timed("setup"):
        loaded = serialize.load_model(model_path, embeddings=None)
    with p.timed("tag"):
        test_corpus = corpus.read_cupt(files["test"])
        predicted = _tag_baseline_corpus(loaded, test_corpus)
        serialize.atomic_write_text(pred_path, corpus.write_cupt(predicted))
    p.tokens["tag"] = _tokens(test_corpus)
    with p.unrecorded():
        sample = test_corpus[:RELOAD_SAMPLE]
        p.check(_tag_baseline_corpus(model, sample) == predicted[:RELOAD_SAMPLE],
                "reloaded model tags the sample differently")
        p.check(_round_trips(pred_path, predicted), "predictions do not round-trip")
        p.hash("pred", pred_path)


def eval_large(p: Pass, files: dict, expected: dict, seed: int, out: str):
    """mwetag eval --gold G --pred P --train T --report R."""
    report_path = os.path.join(out, "report.json")

    p.begin("eval")
    with p.timed("read"):
        gold = corpus.read_cupt(files["gold"])
        pred = corpus.read_cupt(files["pred"])
    with p.timed("score"):
        report = evaluation.evaluate(gold, pred)
        payload = {"overall": evaluation.report_to_dict(report)}
        evaluation.format_report(report, "overall")
    with p.timed("read"):
        train = corpus.read_cupt(files["train"])
    with p.timed("score"):
        partition, seen, unseen = evaluation.seen_unseen(train, gold, pred)
        payload["seen_fraction"] = partition.seen_fraction
        payload["seen"] = evaluation.report_to_dict(seen)
        payload["unseen"] = evaluation.report_to_dict(unseen)
        evaluation.format_report(seen, "seen")
        evaluation.format_report(unseen, "unseen")
        _dump_json(report_path, payload)
    p.tokens["gold"] = _tokens(gold)
    p.tokens["read"] = _tokens(gold) + _tokens(pred) + _tokens(train)
    with p.unrecorded():
        mwe = report.mwe
        p.check(expected["gold_tokens"] == _tokens(gold), "gold token count")
        p.check((mwe.tp, mwe.tp + mwe.fn, mwe.tp + mwe.fp)
                == (expected["mwe_tp"], expected["gold_mwes"], expected["pred_mwes"]),
                f"MWE counts tp={mwe.tp} fn={mwe.fn} fp={mwe.fp} differ from the generator's")
        p.check((len(partition.seen), len(partition.unseen))
                == (expected["gold_mwes"] - expected["unseen_gold_mwes"],
                    expected["unseen_gold_mwes"]),
                "seen/unseen split differs from the generator's")
        p.check(len(partition.unseen) > 0, "unseen side is empty")
        p.hash("report", report_path)


def _neural_metrics(sec: dict, tok: dict, import_s: float) -> dict:
    return {
        "setup_s": import_s + sec["setup"],
        "stage1_tok_s": tok["train"] / (sec["train"] + sec["save"]),
        "stage2_tok_s": tok["tag"] / sec["tag"],
        "train_tok_s": tok["train"] / sec["train"],
        "save_s": sec["save"],
        "tag_tok_s": tok["tag"] / sec["tag"],
    }


def _baseline_metrics(sec: dict, tok: dict, import_s: float) -> dict:
    return {
        "setup_s": import_s + sec["setup"],
        "stage1_tok_s": tok["train"] / sec["fit"],
        "stage2_tok_s": tok["tag"] / sec["tag"],
        "baseline_fit_s": sec["fit"],
        "baseline_tag_tok_s": tok["tag"] / sec["tag"],
    }


def _eval_metrics(sec: dict, tok: dict, import_s: float) -> dict:
    return {
        "setup_s": import_s,
        "stage1_tok_s": tok["read"] / sec["read"],
        "stage2_tok_s": tok["gold"] / sec["score"],
        "eval_tok_s": tok["gold"] / (sec["read"] + sec["score"]),
    }


# name -> (pass function, metrics from (phase seconds, tokens, import seconds))
WORKLOADS = {
    "neural-crf": (neural_crf, _neural_metrics),
    "baseline-standard": (baseline_standard, _baseline_metrics),
    "eval-large": (eval_large, _eval_metrics),
}

UNITS = {
    "setup_s": "s", "save_s": "s", "baseline_fit_s": "s",
    "stage1_tok_s": "tok/s", "stage2_tok_s": "tok/s", "train_tok_s": "tok/s",
    "tag_tok_s": "tok/s", "baseline_tag_tok_s": "tok/s", "eval_tok_s": "tok/s",
}


def run_pass(workload: str, files: dict, expected: dict, seed: int, out: str,
             unrecorded=contextlib.nullcontext) -> Pass:
    """One pass; an exception fails the command it came from and ends the
    pass, since later commands read that command's output."""
    p = Pass(unrecorded)
    try:
        WORKLOADS[workload][0](p, files, expected, seed, out)
    except Exception as exc:  # a failed command is counted, not fatal
        traceback.print_exc()
        p.fail(f"raised {type(exc).__name__}: {exc}")
    return p
