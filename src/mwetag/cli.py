"""Batch command line: convert, train, tag, eval, gradcheck.

Flag resolution order is CLI flag, then JSON config file (--config, same
field names as RunConfig), then built-in default. Required-flag validation
runs before any file is opened, and run checks that the directories of the
command's outputs (_WRITES) exist, and that no output is a directory, before
the command reads any input. All outputs go through write-to-temp plus
rename, and identical inputs with the same seed produce byte-identical
output files (training reports therefore carry no wall-clock timings).
Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass

from . import baseline
from .baseline import BaselineTrainOptions, fit_baseline, tag_baseline
from .checks import SUITE_TOLERANCE, format_suite, gradient_suite
from .corpus import from_tags, read_cupt, to_tags, write_cupt
from .embed import load_vec_file, sniff_vec_dim
from .errors import DataError, UsageError, not_utf8
from .evaluation import evaluate, format_report, report_to_dict, seen_unseen
from .serialize import atomic_write_text, load_model, save_model
from .tagger import (
    HEADS,
    TaggerConfig,
    TaggerModel,
    build_for_corpus,
    predict_corpus,
    train as train_tagger,
)

VARIANTS = ("neural", *(f"baseline-{variant}" for variant in baseline.VARIANTS))
# RunConfig annotations (before any " | None") and how a message names them
_FIELD_TYPES = {"str": str, "int": int, "bool": bool}
_TYPE_NAMES = {"str": "a string", "int": "an integer", "bool": "true or false"}
# the files each command writes, each with the flags whose files it may not be
_WRITES = {
    "convert": {"output": ("input", "config")},
    "train": {"model": ("report", "train", "dev", "embeddings", "config"),
              "report": ("train", "dev", "embeddings", "config")},
    "tag": {"output": ("input", "model", "embeddings", "config")},
    "eval": {"report": ("gold", "pred", "train", "config")},
}


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation. Field names double as the JSON config-file
    vocabulary."""

    subcommand: str
    input: str | None = None
    output: str | None = None
    train: str | None = None
    dev: str | None = None
    gold: str | None = None
    pred: str | None = None
    model: str | None = None
    embeddings: str | None = None
    head: str = TaggerConfig.head
    filter: bool = True
    seed: int = 1
    epochs: int | None = None
    batch_size: int | None = None
    variant: str = "neural"
    report: str | None = None

    @property
    def train_report(self) -> str:
        """Where train writes its report: --report, else MODEL.train.json."""
        return self.report or self.model + ".train.json"

    @property
    def outputs(self) -> dict[str, str]:
        """The files the command writes, by their flags in _WRITES."""
        paths = {flag: getattr(self, flag) for flag in _WRITES.get(self.subcommand, ())}
        return paths | ({"report": self.train_report} if self.subcommand == "train" else {})

    def require(self, *fields: str):
        missing = [f for f in fields if getattr(self, f) is None]
        if missing:
            flags = ", ".join("--" + f.replace("_", "-") for f in missing)
            raise UsageError(f"{self.subcommand} requires {flags}")

    def validate(self, config_path: str | None = None):
        """Raise UsageError on a bad value, a missing flag, or an output that
        names another file of the command, config_path (--config) included."""
        # each field holds exactly its annotated type, or None where the
        # annotation allows it: a config file's "3", 2.5 or true is no int
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            kind, _, optional = field.type.partition(" | ")
            if type(value) is not _FIELD_TYPES[kind] and not (value is None and optional):
                raise UsageError(
                    f"{field.name} must be {_TYPE_NAMES[kind]}, not {value!r}"
                )
        if self.subcommand == "convert":
            self.require("input", "output")
        elif self.subcommand == "train":
            self.require("train", "model")
            if self.variant != "baseline-standard":
                self.require("embeddings")
        elif self.subcommand == "tag":
            self.require("model", "input", "output")
        elif self.subcommand == "eval":
            self.require("gold", "pred", "report")
        paths = dataclasses.asdict(self) | {"config": config_path} | self.outputs
        for written, others in _WRITES.get(self.subcommand, {}).items():
            for other in others:
                if paths[other] is not None and (
                    os.path.realpath(paths[written]) == os.path.realpath(paths[other])
                ):
                    raise UsageError(f"--{written} and --{other} name the same file "
                                     f"{paths[other]}")
        if self.variant not in VARIANTS:
            raise UsageError(f"unknown variant {self.variant!r}")
        if self.head not in HEADS:
            raise UsageError(f"unknown head {self.head!r}")
        if self.seed < 0:
            raise UsageError(f"seed must be non-negative, not {self.seed}")
        if self.epochs is not None and self.epochs < 1:
            raise UsageError("epochs must be positive")
        if self.batch_size is not None and self.batch_size < 1:
            raise UsageError("batch size must be positive")


_FIELD_NAMES = {f.name for f in dataclasses.fields(RunConfig)} - {"subcommand"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mwetag",
        description="Multiword-expression tagging: corpus conversion, "
        "training, tagging, evaluation, gradient checks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file of RunConfig fields used "
                       "as defaults for flags not given on the command line")

    p = sub.add_parser("convert", help="cupt to one label per line")
    common(p)
    p.add_argument("--input")
    p.add_argument("--output")

    p = sub.add_parser("train", help="fit a model and write it to disk")
    common(p)
    p.add_argument("--train")
    p.add_argument("--dev")
    p.add_argument("--embeddings")
    p.add_argument("--model")
    p.add_argument("--head", choices=HEADS)
    p.add_argument("--variant", choices=list(VARIANTS))
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--report", help="where to write the training report "
                   "(default: MODEL.train.json)")

    p = sub.add_parser("tag", help="annotate a corpus with a trained model")
    common(p)
    p.add_argument("--model")
    p.add_argument("--input")
    p.add_argument("--output")
    p.add_argument("--embeddings")
    p.add_argument("--no-filter", action="store_false", dest="filter",
                   default=None, help="keep orphan continuations as "
                   "single-token expressions")

    p = sub.add_parser("eval", help="score predictions against gold")
    common(p)
    p.add_argument("--gold")
    p.add_argument("--pred")
    p.add_argument("--train", help="training corpus enabling the "
                   "seen/unseen split")
    p.add_argument("--report")

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    common(p)
    p.add_argument("--seed", type=int)
    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except UnicodeDecodeError as exc:
        raise UsageError(f"config file {not_utf8(path, exc)}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    unknown = set(data) - _FIELD_NAMES
    if unknown:
        raise UsageError(
            f"config file {path}: unknown fields {sorted(unknown)}"
        )
    return data


def resolve(args: argparse.Namespace) -> RunConfig:
    """CLI flag, else config-file value, else the RunConfig field default."""
    overrides = _load_config_file(args.config) if getattr(args, "config", None) else {}
    values = {"subcommand": args.subcommand}
    for name in _FIELD_NAMES:
        given = getattr(args, name, None)
        if given is not None:
            values[name] = given
        elif name in overrides:
            values[name] = overrides[name]
    config = RunConfig(**values)
    config.validate(getattr(args, "config", None))
    if config.subcommand == "train" and config.variant != "neural":
        # a config file may hold them for other commands; a flag asks for them
        for name in ("dev", "batch_size", "head"):
            if getattr(args, name) is not None:
                flag = "--" + name.replace("_", "-")
                raise UsageError(f"{flag} applies only to --variant neural")
    return config


# ---------------------------------------------------------------------------
# subcommand bodies


def _load_table(path: str):
    return load_vec_file(path, sniff_vec_dim(path))


def _require_directories(*paths: str):
    """Checked before any input is read: a missing directory, or an output
    that is itself a directory, would otherwise fail only at the end, naming
    the temp file. A symbolic link is replaced, not followed."""
    for path in paths:
        directory = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(directory):
            raise DataError(f"cannot write {path}: no directory {directory}")
        if os.path.isdir(path) and not os.path.islink(path):
            raise DataError(f"cannot write {path}: it is a directory")


def _summarize(command: str, start: float, corpus, **expressions):
    """The one stderr line of tag and eval: the sentences and tokens of
    ``corpus``, the expressions of each named corpus, and the seconds since
    ``start``."""
    tokens = sum(len(sentence.tokens) for sentence in corpus)
    found = " and ".join(f"{sum(len(sentence.vmwes) for sentence in named)} {name}"
                         for name, named in expressions.items())
    print(f"{command}: {len(corpus)} sentences, {tokens} tokens, {found} expressions, "
          f"{time.perf_counter() - start:.2f} s", file=sys.stderr)


def _given(**values) -> dict:
    """The values a flag or the config file set: the dataclass defaults stand
    for the others."""
    return {name: value for name, value in values.items() if value is not None}


def _cmd_convert(cfg: RunConfig) -> int:
    blocks = ["\n".join(to_tags(sentence)) + "\n\n" for sentence in read_cupt(cfg.input)]
    atomic_write_text(cfg.output, "".join(blocks))
    return 0


def _dump_json(path: str, payload: dict):
    atomic_write_text(
        path, json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    )


def _cmd_train(cfg: RunConfig) -> int:
    train_corpus = read_cupt(cfg.train)
    if cfg.variant == "neural":
        table = _load_table(cfg.embeddings)
        dev_corpus = read_cupt(cfg.dev) if cfg.dev else None
        tagger_config = TaggerConfig(head=cfg.head, seed=cfg.seed,
                                     **_given(epochs=cfg.epochs, batch_size=cfg.batch_size))
        model = build_for_corpus(tagger_config, train_corpus, embeddings=table)
        best, report = train_tagger(model, train_corpus, dev_corpus)
        save_model(best, cfg.model)
        # TrainReport holds no wall-clock timings: identical runs match bytewise
        _dump_json(cfg.train_report, dataclasses.asdict(report))
        return 0

    variant = cfg.variant.removeprefix("baseline-")
    table = _load_table(cfg.embeddings) if variant == "turian" else None
    options = BaselineTrainOptions(seed=cfg.seed, **_given(max_iterations=cfg.epochs))
    fit = fit_baseline(train_corpus, variant=variant, table=table, options=options)
    # how the fit ended goes to stderr, as a warning when it did not converge;
    # the report keeps the four keys perfbench's copy of this command writes
    summary = (
        f"{fit.iterations} iterations, {fit.value_evaluations} value-only and "
        f"{fit.gradient_evaluations} with-gradient objective evaluations, "
        f"objective {fit.objective:.10g}, "
        f"gradient max-norm {fit.grad_max_norm:.3g}"
    )
    if fit.converged:
        print(f"baseline fit converged: {summary}", file=sys.stderr)
    else:
        print(
            f"warning: baseline fit did not converge ({summary}, tolerance "
            f"{options.grad_tolerance:g}); its optimum is seed-independent only "
            "at convergence",
            file=sys.stderr,
        )
    save_model(fit.model, cfg.model)
    _dump_json(cfg.train_report, {
        "variant": cfg.variant,
        "final_objective": fit.objective,
        "grad_max_norm": fit.grad_max_norm,
        "feature_count": len(fit.model.feature_index),
    })
    return 0


def _cmd_tag(cfg: RunConfig) -> int:
    start = time.perf_counter()
    table = _load_table(cfg.embeddings) if cfg.embeddings else None
    model = load_model(cfg.model, embeddings=table)
    corpus = read_cupt(cfg.input)
    if isinstance(model, TaggerModel):
        if table is None:
            raise DataError(
                "this model looks words up in a pretrained table; "
                "pass --embeddings with the vectors used for training"
            )
        predicted = predict_corpus(model, corpus, apply_filter=cfg.filter)
    else:
        if model.variant == "turian" and table is None:
            raise DataError(
                "turian baseline needs --embeddings at tagging time"
            )
        predicted = []
        for sentence in corpus:
            tags = tag_baseline(model, sentence, table=table)
            predicted.append(from_tags(tags, sentence, apply_filter=cfg.filter))
    atomic_write_text(cfg.output, write_cupt(predicted))
    _summarize("tag", start, predicted, predicted=predicted)
    return 0


def _cmd_eval(cfg: RunConfig) -> int:
    start = time.perf_counter()
    gold = read_cupt(cfg.gold)
    pred = read_cupt(cfg.pred)
    report = evaluate(gold, pred)
    payload = {"overall": report_to_dict(report)}
    print(format_report(report, "overall"))
    if cfg.train:
        train_corpus = read_cupt(cfg.train)
        partition, seen_report, unseen_report = seen_unseen(train_corpus, gold, pred)
        payload["seen_fraction"] = partition.seen_fraction
        payload["seen"] = report_to_dict(seen_report)
        payload["unseen"] = report_to_dict(unseen_report)
        print()
        print(format_report(seen_report, "seen"))
        print()
        print(format_report(unseen_report, "unseen"))
    _dump_json(cfg.report, payload)
    _summarize("eval", start, gold, gold=gold, predicted=pred)
    return 0


def _cmd_gradcheck(cfg: RunConfig) -> int:
    results = gradient_suite(seed=cfg.seed)
    print(format_suite(results))
    if all(err < SUITE_TOLERANCE for err in results.values()):
        return 0
    print("error: gradient check exceeded tolerance", file=sys.stderr)
    return 2


_COMMANDS = {
    "convert": _cmd_convert,
    "train": _cmd_train,
    "tag": _cmd_tag,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        cfg = resolve(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        _require_directories(*cfg.outputs.values())
        return _COMMANDS[cfg.subcommand](cfg)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
