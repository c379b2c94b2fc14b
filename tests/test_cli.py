"""End-to-end subcommand behavior: flag validation order, exit codes,
output formats, config-file precedence, and byte-level determinism."""

import gzip
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mwetag.baseline import BaselineTrainOptions
from mwetag.cli import RunConfig, resolve, run, _build_parser
from mwetag.corpus import Sentence, Token, VmweInstance, read_cupt, write_cupt
from mwetag.errors import ModelFormatError, UsageError
from mwetag.evaluation import evaluate, format_report
from mwetag.serialize import load_model, save_model
from mwetag.synth import synthetic_corpus, synthetic_embeddings, vocabulary
from mwetag.tagger import TaggerConfig, build_for_corpus, train

from test_serialize import (
    as_format_v2,
    as_format_v3,
    as_format_v4,
    as_format_v5,
    as_format_v6,
    cut_mid_value,
    one_byte_long,
    read_model_file,
    slots,
    write_model_file,
)


def write_vecs(path, dim):
    """Seeded vectors of the synthetic vocabulary, with a header line."""
    table = synthetic_embeddings(dim=dim, seed=1)
    with open(path, "w") as handle:
        handle.write(f"{len(vocabulary())} {dim}\n")
        for word in vocabulary():
            values = " ".join(repr(float(v)) for v in table.entries[word])
            handle.write(f"{word} {values}\n")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Corpus, gold copy, and a vector file shared by the pipeline tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = synthetic_corpus(sentences=12, seed=3)
    (root / "train.cupt").write_text(write_cupt(corpus), encoding="utf-8")
    (root / "gold.cupt").write_text(write_cupt(corpus), encoding="utf-8")
    write_vecs(root / "vecs.vec", 8)
    return root


def p(path) -> str:
    return str(path)


# ---------------------------------------------------------------------------
# flag resolution


def test_missing_required_flag_is_usage_error_before_io(tmp_path, capsys):
    # input file does not exist; the flag check must fire first
    rc = run(["convert", "--input", p(tmp_path / "absent.cupt")])
    assert rc == 1
    assert "requires --output" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 1


def test_help_exits_zero():
    assert run(["--help"]) == 0


def test_validate_rejects_bad_values():
    with pytest.raises(UsageError, match="variant"):
        RunConfig(subcommand="gradcheck", variant="quantum").validate()
    with pytest.raises(UsageError, match="head"):
        RunConfig(subcommand="gradcheck", head="tails").validate()
    with pytest.raises(UsageError, match="epochs"):
        RunConfig(subcommand="gradcheck", epochs=0).validate()


def test_resolve_precedence_flag_over_config_over_default(tmp_path):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"seed": 7, "head": "softmax"}))
    parser = _build_parser()
    args = parser.parse_args(
        ["train", "--config", p(cfg_file), "--train", "t", "--model", "m",
         "--embeddings", "e", "--seed", "3"]
    )
    cfg = resolve(args)
    assert cfg.seed == 3  # flag beats config file
    assert cfg.head == "softmax"  # config file beats default
    assert cfg.variant == RunConfig.variant  # the field default fills the rest


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"sigma": 2.0}))
    assert run(["gradcheck", "--config", p(cfg_file)]) == 1
    assert "unknown fields" in capsys.readouterr().err


def test_config_file_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_bytes('{"head": "\xe9"}'.encode("latin-1"))
    assert run(["gradcheck", "--config", p(cfg_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: config file {cfg_file} is not UTF-8 text")
    assert "Traceback" not in err


@pytest.mark.parametrize("text, message", [
    ('{"seed": 1', ": Expecting ',' delimiter"),
    ('["seed", 1]', " must hold a JSON object"),
], ids=["not-json", "not-an-object"])
def test_config_file_that_is_not_a_json_object_is_usage_error(tmp_path, capsys, text,
                                                              message):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(text)
    assert run(["gradcheck", "--config", p(cfg_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: config file {cfg_file}{message}")
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value", [
    ("epochs", "3"),
    ("seed", "x"),
    ("seed", True),
    ("batch_size", 2.5),
    ("epochs", 3.0),
    ("dev", 5),
    ("head", None),
    ("variant", ["neural"]),
    ("filter", 1),
    ("filter", "false"),
])
def test_mistyped_config_value_is_usage_error(tmp_path, capsys, field, value):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({field: value}))
    assert run(["train", "--config", p(cfg_file), "--train", p(tmp_path / "t"),
                "--model", p(tmp_path / "m"), "--embeddings", p(tmp_path / "e")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {field} must be ") and "Traceback" not in err


def test_config_values_of_the_right_type_pass(tmp_path):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"epochs": 3, "batch_size": 2, "seed": 0,
                                    "dev": "d", "filter": False, "report": None}))
    args = _build_parser().parse_args(
        ["train", "--config", p(cfg_file), "--train", "t", "--model", "m",
         "--embeddings", "e"]
    )
    cfg = resolve(args)
    assert (cfg.epochs, cfg.batch_size, cfg.seed, cfg.dev, cfg.filter, cfg.report) == (
        3, 2, 0, "d", False, None)


@pytest.mark.parametrize("argv", [
    ["train", "--train", "t", "--model", "m", "--embeddings", "e", "--seed", "-1"],
    ["train", "--train", "t", "--model", "m", "--variant", "baseline-standard",
     "--seed", "-1"],
    ["gradcheck", "--seed", "-1"],
    ["gradcheck", "--config", "{seed_file}"],
], ids=["neural", "baseline-standard", "gradcheck", "config-file"])
def test_negative_seed_is_usage_error(tmp_path, capsys, argv):
    seed_file = tmp_path / "c.json"
    seed_file.write_text(json.dumps({"seed": -1}))
    assert run([arg.format(seed_file=seed_file) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: seed must be non-negative")
    assert "Traceback" not in err


def test_zero_batch_size_is_usage_error(tmp_path, capsys):
    assert run(["train", "--train", p(tmp_path / "t"), "--model", p(tmp_path / "m"),
                "--embeddings", p(tmp_path / "e"), "--batch-size", "0"]) == 1
    assert capsys.readouterr().err == "usage error: batch size must be positive\n"


def test_tag_no_filter_resolves_false():
    parser = _build_parser()
    args = parser.parse_args(["tag", "--model", "m", "--input", "i",
                              "--output", "o", "--no-filter"])
    assert resolve(args).filter is False
    args = parser.parse_args(["tag", "--model", "m", "--input", "i",
                              "--output", "o"])
    assert resolve(args).filter is True


# ---------------------------------------------------------------------------
# convert


def test_convert_emits_one_label_per_line(tmp_path):
    tokens = tuple(
        Token(i + 1, w, w, "X", ("_",) * 6)
        for i, w in enumerate("a b c d e".split())
    )
    sentence = Sentence(tokens, (VmweInstance(2, "VID", (2, 4)),))
    src = tmp_path / "s.cupt"
    out = tmp_path / "s.tags"
    src.write_text(write_cupt([sentence]), encoding="utf-8")
    assert run(["convert", "--input", p(src), "--output", p(out)]) == 0
    assert out.read_text() == "O\nB-VID\nO\nI-VID\nO\n\n"


def test_convert_blank_line_between_sentences(workdir, tmp_path):
    out = tmp_path / "t.tags"
    assert run(["convert", "--input", p(workdir / "train.cupt"),
                "--output", p(out)]) == 0
    blocks = out.read_text().split("\n\n")
    assert blocks[-1] == ""
    assert len(blocks) - 1 == 12


def test_convert_malformed_cupt_exits_two_with_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.cupt"
    bad.write_text("1\tonly-two-columns\n\n")
    rc = run(["convert", "--input", p(bad), "--output", p(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: {bad}: line 1: expected at least 5" in err


# ---------------------------------------------------------------------------
# train / tag / eval pipeline


@pytest.fixture(scope="module")
def trained(workdir):
    model = workdir / "m.json"
    rc = run(["train", "--train", p(workdir / "train.cupt"),
              "--dev", p(workdir / "train.cupt"),
              "--embeddings", p(workdir / "vecs.vec"),
              "--model", p(model), "--seed", "4", "--epochs", "2"])
    assert rc == 0
    return model


def test_train_writes_model_and_report(workdir, trained):
    report = json.loads((workdir / "m.json.train.json").read_text())
    assert len(report["losses"]) == 2
    assert report["selected_epoch"] in (0, 1)
    assert "epoch_seconds" not in report  # reports must be byte-reproducible


def test_tag_then_eval_writes_report(workdir, trained, tmp_path):
    pred = tmp_path / "pred.cupt"
    assert run(["tag", "--model", p(trained),
                "--input", p(workdir / "train.cupt"),
                "--output", p(pred),
                "--embeddings", p(workdir / "vecs.vec")]) == 0
    report = tmp_path / "r.json"
    assert run(["eval", "--gold", p(workdir / "gold.cupt"),
                "--pred", p(pred),
                "--train", p(workdir / "train.cupt"),
                "--report", p(report)]) == 0
    data = json.loads(report.read_text())
    assert set(data) == {"overall", "seen", "unseen", "seen_fraction"}
    assert data["seen_fraction"] == 1.0  # gold equals train here


def test_eval_without_train_has_no_split(workdir, trained, tmp_path):
    report = tmp_path / "r.json"
    assert run(["eval", "--gold", p(workdir / "gold.cupt"),
                "--pred", p(workdir / "gold.cupt"),
                "--report", p(report)]) == 0
    data = json.loads(report.read_text())
    assert set(data) == {"overall"}
    assert data["overall"]["mwe"]["f1"] == 1.0


@pytest.mark.parametrize("first_line", ["", "# source_sent_id = x\n"],
                         ids=["token-first", "comment-first"])
def test_eval_reads_a_file_that_starts_with_a_byte_order_mark(
    workdir, tmp_path, first_line
):
    plain, bom = tmp_path / "plain.cupt", tmp_path / "bom.cupt"
    text = first_line + (workdir / "gold.cupt").read_text(encoding="utf-8")
    plain.write_text(text, encoding="utf-8")
    bom.write_text("\ufeff" + text, encoding="utf-8")
    for gold in (plain, bom):
        assert run(["eval", "--gold", p(gold), "--pred", p(workdir / "gold.cupt"),
                    "--report", p(gold.with_suffix(".json"))]) == 0
    assert (tmp_path / "bom.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


def test_tag_prints_one_summary_line(workdir, small_tagger, tmp_path, capsys):
    out = tmp_path / "pred.cupt"
    assert run(["tag", "--model", p(small_tagger), "--input", p(workdir / "train.cupt"),
                "--output", p(out), "--embeddings", p(workdir / "vecs.vec")]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    expressions = sum(len(s.vmwes) for s in read_cupt(out))
    assert re.fullmatch(rf"tag: 12 sentences, \d+ tokens, {expressions} predicted expressions, "
                        r"\d+\.\d\d s\n", captured.err)


def test_eval_prints_one_summary_line(workdir, tmp_path, capsys):
    gold = read_cupt(workdir / "gold.cupt")
    assert run(["eval", "--gold", p(workdir / "gold.cupt"), "--pred", p(workdir / "gold.cupt"),
                "--report", p(tmp_path / "r.json")]) == 0
    captured = capsys.readouterr()
    report = evaluate(gold, gold)
    assert captured.out == format_report(report, "overall") + "\n"
    tokens = sum(len(s.tokens) for s in gold)
    expressions = sum(len(s.vmwes) for s in gold)
    assert re.fullmatch(rf"eval: {len(gold)} sentences, {tokens} tokens, {expressions} gold and "
                        rf"{expressions} predicted expressions, \d+\.\d\d s\n", captured.err)


def test_tag_without_embeddings_for_pretrained_model_exits_two(
    workdir, trained, tmp_path, capsys
):
    rc = run(["tag", "--model", p(trained),
              "--input", p(workdir / "train.cupt"),
              "--output", p(tmp_path / "x.cupt")])
    assert rc == 2
    assert "--embeddings" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "eval-pred", "train", "tag"])
def test_expression_listed_twice_on_a_token_exits_two(
    workdir, trained, tmp_path, capsys, command
):
    bad = tmp_path / "bad.cupt"
    bad.write_text("# text = a b\n"
                   "1\ta\ta\tX\t_\t_\t0\t_\t_\t_\t1:VID;1\n"
                   "2\tb\tb\tX\t_\t_\t0\t_\t_\t_\t1\n\n")
    out = tmp_path / "out"
    argv = {
        "eval": ["eval", "--gold", p(bad), "--pred", p(workdir / "gold.cupt"),
                 "--report", p(out)],
        # the file at fault is named, whichever of the inputs it is
        "eval-pred": ["eval", "--gold", p(workdir / "gold.cupt"), "--pred", p(bad),
                      "--train", p(workdir / "train.cupt"), "--report", p(out)],
        "train": ["train", "--train", p(bad), "--embeddings", p(workdir / "vecs.vec"),
                  "--model", p(out)],
        "tag": ["tag", "--model", p(trained), "--input", p(bad), "--output", p(out),
                "--embeddings", p(workdir / "vecs.vec")],
    }[command]
    rc = run(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert f"error: {bad}: line 2: expression 1 listed twice" in err
    assert "Traceback" not in err and not out.exists()


@pytest.fixture(scope="module")
def small_tagger(workdir, tmp_path_factory):
    """A tiny untrained tagger file that tags the workdir corpus cleanly."""
    config = TaggerConfig(filters_per_width=4, lstm_hidden=3)
    model = build_for_corpus(
        config, synthetic_corpus(sentences=12, seed=3),
        embeddings=synthetic_embeddings(dim=8, seed=1),
    )
    path = tmp_path_factory.mktemp("small") / "small.json"
    save_model(model, p(path))
    assert run(["tag", "--model", p(path), "--input", p(workdir / "train.cupt"),
                "--output", p(path.with_suffix(".cupt")),
                "--embeddings", p(workdir / "vecs.vec")]) == 0
    return path


def _slot_edit(name, edit):
    """A mutation replacing the values of one parameter's slot of a model's
    vector with edit(those values), which may change their number."""
    def mutate(header, vector):
        where = slots(header)[name]
        return np.concatenate([vector[:where.start], edit(vector[where]),
                               vector[where.stop:]])
    return mutate


@pytest.mark.parametrize(
    "mutate, message",
    [(_slot_edit("proj_b", lambda values: values[:0]), "bytes")],
    ids=["missing-proj_b"],
)
def test_tag_with_malformed_tagger_file_exits_two(
    workdir, small_tagger, tmp_path, capsys, mutate, message
):
    header, vector = read_model_file(small_tagger)
    bad = tmp_path / "bad.json"
    write_model_file(bad, header, mutate(header, vector))
    rc = run(["tag", "--model", p(bad),
              "--input", p(workdir / "train.cupt"),
              "--output", p(tmp_path / "x.cupt"),
              "--embeddings", p(workdir / "vecs.vec")])
    err = capsys.readouterr().err
    assert rc == 2
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "x.cupt").exists()


# ---------------------------------------------------------------------------
# bad numbers and malformed model files: exit 2, never a traceback


def _write_vec(path, values):
    """Every vocabulary word gets the same 8 values (strings, written as is)."""
    path.write_text("".join(f"{w} {' '.join(values)}\n" for w in vocabulary()))
    return path


@pytest.fixture(scope="module")
def bad_inputs(workdir, small_tagger, tmp_path_factory):
    root = tmp_path_factory.mktemp("bad")
    files = {
        "nan_vec": _write_vec(root / "nan.vec", ["nan"] * 8),
        "inf_vec": _write_vec(root / "inf.vec", ["inf"] * 8),
        # finite values whose squared norm overflows: rejected at load, before
        # they could overflow (or silently saturate) the network
        "huge_vec": _write_vec(root / "huge.vec", ["1.7e308", "-1.7e308"] * 4),
        "zero_dim_vec": root / "zero_dim.vec",
        "tagger": small_tagger,
    }
    files["zero_dim_vec"].write_text("2 0\nthe\na\n")
    files["valueless_vec"] = root / "valueless.vec"
    files["valueless_vec"].write_text("the\na 0.5\n")
    files["empty_vec"] = root / "empty.vec"
    files["empty_vec"].write_text("\n\n")
    # a Latin-1 byte in each kind of file, and a gzip vector file cut short
    corpus_text = (workdir / "train.cupt").read_text(encoding="utf-8")
    files["latin1_cupt"] = root / "latin1.cupt"
    files["latin1_cupt"].write_bytes(corpus_text.replace("\t_\t", "\tcaf\xe9\t", 1)
                                     .encode("latin-1"))
    vec_text = (workdir / "vecs.vec").read_bytes()
    files["latin1_vec"] = root / "latin1.vec"
    files["latin1_vec"].write_bytes(vec_text + "caf\xe9".encode("latin-1") + b" 0" * 8)
    files["truncated_vec"] = root / "truncated.vec.gz"
    packed = gzip.compress(vec_text)
    files["truncated_vec"].write_bytes(packed[: len(packed) // 2])
    files["latin1_model"] = root / "latin1_model.json"
    files["latin1_model"].write_bytes(
        small_tagger.read_bytes().replace(b'"O"', '"\xd6"'.encode("latin-1"), 1)
    )
    # the tagger file with a broken magic or header length
    blob = small_tagger.read_bytes()
    length = int.from_bytes(blob[8:16], "little")
    for name, framed in (
        ("bad_magic", b"\x89" + blob[1:]),
        ("header_past_eof", blob[:8] + (len(blob) - 15).to_bytes(8, "little") + blob[16:]),
        ("header_2_63", blob[:8] + (2**63).to_bytes(8, "little") + blob[16:]),
        ("header_not_json", blob[:8] + (length - 2).to_bytes(8, "little") + blob[16:]),
    ):
        files[name] = root / f"{name}.model"
        files[name].write_bytes(framed)
    for variant in ("standard", "turian"):
        files[variant] = root / f"{variant}.json"
        assert run(["train", "--train", p(workdir / "train.cupt"),
                    "--embeddings", p(workdir / "vecs.vec"),
                    "--model", p(files[variant]), "--variant", f"baseline-{variant}",
                    "--epochs", "3"]) == 0
    return files


def _tags(header):
    return len(header["tag_vocab"])


def _set(key, value):
    def mutate(header, vector):
        header[key] = value
        return vector
    return mutate


def _set_config(key, value):
    def mutate(header, vector):
        header["config"][key] = value
        return vector
    return mutate


def _huge(*names):
    """Every value of the named parameters 1.7e308: finite in the file, but
    the emission scores computed from them overflow."""
    def mutate(header, vector):
        for name in names:
            vector = _slot_edit(name, lambda values: np.full(values.shape, 1.7e308))(
                header, vector)
        return vector
    return mutate


def _short_trans(header, vector):
    """trans stored as (T-1) x (T-1) zeros."""
    return _slot_edit("trans", lambda values: np.zeros((_tags(header) - 1) ** 2))(
        header, vector)


def _dense_in_standard(header, vector):
    """A 40-row dense block after a standard model's weights."""
    return _slot_edit(
        "weights", lambda values: np.concatenate([values, np.zeros(40 * _tags(header))])
    )(header, vector)


def _short_weights(header, vector):
    """weights one row short."""
    return _slot_edit("weights", lambda values: values[:-_tags(header)])(header, vector)


def _unknown_param(header, vector):
    """One more value, as of an unknown 'bias' parameter, at the end."""
    return np.append(vector, 0.0)


def _repeat_feature(header, vector):
    header["feature_names"][-1] = header["feature_names"][0]
    return vector


def _inf_last(header, vector):
    return np.append(vector[:-1], np.inf)


TRAIN = ["train", "--train", "{train}", "--model", "{out}.json"]
HUGE_VEC = "huge.vec: line 1: squared norm overflows"
TAG = ["tag", "--model", "{model}", "--input", "{train}", "--output", "{out}.cupt"]
NOT_UTF8 = " is not UTF-8 text (byte 0x"


def _tag_file(name):
    return ["tag", "--model", "{%s}" % name, "--input", "{train}", "--output",
            "{out}.cupt", "--embeddings", "{vecs}"]


@pytest.mark.parametrize(
    "argv, model, mutate, message",
    [
        (TRAIN + ["--embeddings", "{nan_vec}"], None, None, "non-finite value"),
        (TRAIN + ["--embeddings", "{inf_vec}"], None, None, "non-finite value"),
        (TRAIN + ["--embeddings", "{huge_vec}"], None, None, HUGE_VEC),
        (TAG + ["--embeddings", "{huge_vec}"], "tagger", None, HUGE_VEC),
        (TRAIN + ["--embeddings", "{huge_vec}", "--variant", "baseline-turian"],
         None, None, HUGE_VEC),
        (TAG + ["--embeddings", "{huge_vec}"], "turian", None, HUGE_VEC),
        (TAG + ["--embeddings", "{vecs}"], "tagger", _huge("proj_w", "proj_b"),
         "emission scores are not finite"),
        (TAG, "standard", _huge("weights"), "emission scores are not finite"),
        (TAG + ["--embeddings", "{vecs}"], "tagger",
         _slot_edit("proj_b", lambda values: np.append(np.nan, values[1:])), "non-finite"),
        (TAG + ["--embeddings", "{vecs}"], "tagger", _set("format_version", 1),
         "retrain"),
        (TAG, "standard", _short_trans, "bytes"),
        (TAG, "standard", _short_weights, "bytes"),
        (TAG, "standard", _slot_edit("trans_start", lambda values: np.append(values, 0.0)),
         "bytes"),
        (TAG, "standard", _dense_in_standard, "bytes"),
        (TAG + ["--embeddings", "{vecs}"], "turian",
         _slot_edit("dense", lambda values: values[:0]), "bytes"),
        (TAG, "standard", _set("sigma", 0.0), "sigma"),
        (TAG, "standard", _set("sigma", True), "sigma must be a positive number, got True"),
        (TAG, "standard", _unknown_param, "bytes"),
        (TAG, "standard", _slot_edit("trans", lambda values: np.tile(values, 2)), "bytes"),
        (TAG + ["--embeddings", "{vecs}"], "tagger", cut_mid_value, "bytes"),
        (TAG + ["--embeddings", "{vecs}"], "tagger", as_format_v2, "retrain"),
        (TAG, "standard", _slot_edit("trans", lambda values: values[:-1]), "bytes"),
        (TAG, "standard", as_format_v2, "retrain"),
        (TAG + ["--embeddings", "{vecs}"], "tagger", as_format_v3, "retrain"),
        (TAG, "standard", as_format_v3, "retrain"),
        (TRAIN + ["--embeddings", "{zero_dim_vec}"], None, None,
         "zero_dim.vec: line 1: header dimension 0"),
        (TAG + ["--embeddings", "{vecs}"], "tagger", as_format_v4, "retrain"),
        (TAG, "standard", as_format_v4, "retrain"),
        (TAG + ["--embeddings", "{vecs}"], "tagger", as_format_v5, "retrain"),
        (TAG, "standard", as_format_v5, "retrain"),
        (TAG, "standard", _repeat_feature, "feature_names repeats"),
        (TAG + ["--embeddings", "{vecs}"], "tagger", _set_config("batch_size", 2.5),
         "bad tagger config: batch_size must be an integer"),
        (TAG + ["--embeddings", "{vecs}"], "tagger",
         _set_config("filters_per_width", 2.0),
         "bad tagger config: filters_per_width must be an integer"),
        (TAG + ["--embeddings", "{vecs}"], "tagger", _set_config("epochs", True),
         "bad tagger config: epochs must be an integer"),
        (TAG + ["--embeddings", "{vecs}"], "tagger", _set_config("seed", -1),
         "bad tagger config: seed must be non-negative"),
        (TAG + ["--embeddings", "{vecs}"], "tagger",
         _set_config("learning_rate", True),
         "bad tagger config: learning_rate must be a number"),
        (TAG + ["--embeddings", "{vecs}"], "tagger", _set_config("head", 3),
         "bad tagger config: unknown head 3"),
        (["train", "--train", "{latin1_cupt}", "--model", "{out}.json",
          "--embeddings", "{vecs}"], None, None, "latin1.cupt" + NOT_UTF8),
        (["eval", "--gold", "{train}", "--pred", "{latin1_cupt}", "--report",
          "{out}.json"], None, None, "latin1.cupt" + NOT_UTF8),
        (TRAIN + ["--embeddings", "{latin1_vec}"], None, None, "latin1.vec" + NOT_UTF8),
        (TRAIN + ["--embeddings", "{truncated_vec}"], None, None,
         "truncated.vec.gz: truncated or corrupt gzip data"),
        (["tag", "--model", "{latin1_model}", "--input", "{train}", "--output",
          "{out}.cupt", "--embeddings", "{vecs}"], None, None,
         "latin1_model.json" + NOT_UTF8),
        (TAG + ["--embeddings", "{vecs}"], "tagger", one_byte_long, "bytes"),
        (TAG + ["--embeddings", "{vecs}"], "tagger", _inf_last, "non-finite"),
        (TAG + ["--embeddings", "{vecs}"], "tagger", as_format_v6, "retrain"),
        (TAG, "standard", as_format_v6, "retrain"),
        (_tag_file("bad_magic"), None, None, "bad_magic.model: not a mwetag model file"),
        (_tag_file("header_past_eof"), None, None,
         "header_past_eof.model: corrupt model file: a header of"),
        (_tag_file("header_2_63"), None, None,
         "header_2_63.model: corrupt model file: a header of 9223372036854775808 bytes"),
        (_tag_file("header_not_json"), None, None,
         "header_not_json.model: corrupt model file: header: "),
        (TRAIN + ["--embeddings", "{valueless_vec}"], None, None,
         "valueless.vec: line 1: no vector values on line"),
        (TRAIN + ["--embeddings", "{empty_vec}"], None, None,
         "empty.vec: vector file holds no vectors\n"),
    ],
    ids=[
        "train-nan-vec", "train-inf-vec", "train-huge-vec", "tag-huge-vec",
        "turian-train-huge-vec", "turian-tag-huge-vec", "tagger-huge-proj",
        "baseline-huge-weights", "tagger-nan-proj_b",
        "tagger-format-v1", "baseline-short-trans", "baseline-short-weights",
        "baseline-long-start", "baseline-dense-in-standard",
        "turian-without-dense", "baseline-zero-sigma", "baseline-bool-sigma",
        "baseline-unknown-param", "baseline-repeated-param",
        "tagger-truncated-body", "tagger-format-v2", "baseline-short-payload",
        "baseline-format-v2", "tagger-format-v3", "baseline-format-v3",
        "train-zero-dim-vec", "tagger-format-v4", "baseline-format-v4",
        "tagger-format-v5", "baseline-format-v5", "baseline-repeated-feature",
        "tagger-float-batch-size", "tagger-float-filters", "tagger-bool-epochs",
        "tagger-negative-seed", "tagger-bool-learning-rate", "tagger-int-head",
        "train-latin1-cupt", "eval-latin1-cupt", "train-latin1-vec",
        "train-truncated-gzip-vec", "tag-latin1-model",
        "tagger-extended-body", "tagger-inf-body", "tagger-format-v6",
        "baseline-format-v6", "tag-bad-magic", "tag-header-past-eof",
        "tag-header-2**63", "tag-header-not-json", "train-valueless-vec",
        "train-empty-vec",
    ],
)
def test_bad_numbers_and_malformed_models_exit_two(
    workdir, bad_inputs, tmp_path, capsys, argv, model, mutate, message
):
    paths = {name: p(path) for name, path in bad_inputs.items()}
    if model is not None:
        header, vector = read_model_file(bad_inputs[model])
        body = vector if mutate is None else mutate(header, vector)
        write_model_file(tmp_path / "model.json", header, body)
        paths["model"] = p(tmp_path / "model.json")
    paths.update(train=p(workdir / "train.cupt"), vecs=p(workdir / "vecs.vec"),
                 out=p(tmp_path / "out"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run([arg.format(**paths) for arg in argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert message in err and "Traceback" not in err
    # numpy overflow warnings would reach a terminal user's stderr
    assert "Warning" not in err and [str(w.message) for w in caught] == []
    assert not (tmp_path / "out.json").exists()
    assert not (tmp_path / "out.cupt").exists()
    if model is not None:
        # every error the load itself raises names the model file
        try:
            load_model(paths["model"])
        except ModelFormatError:
            assert f"error: {paths['model']}: " in err


def test_tag_rejects_huge_vectors_whatever_the_tagger_size(workdir, tmp_path, capsys):
    """With every vector value 1.7e308, a 4-filter, 6-hidden tagger trained
    for 2 epochs used to tag with exit 0: its saturated LSTM gates kept the
    scores finite. The vector file itself is now refused."""
    corpus = synthetic_corpus(40, 3)
    config = TaggerConfig(filters_per_width=4, lstm_hidden=6, epochs=2)
    model = build_for_corpus(config, corpus, embeddings=synthetic_embeddings(8, seed=1))
    trained, _ = train(model, corpus)
    save_model(trained, p(tmp_path / "small.json"))
    huge = _write_vec(tmp_path / "huge.vec", ["1.7e308"] * 8)
    rc = run(["tag", "--model", p(tmp_path / "small.json"),
              "--input", p(workdir / "train.cupt"), "--output", p(tmp_path / "x.cupt"),
              "--embeddings", p(huge)])
    err = capsys.readouterr().err
    assert rc == 2
    assert HUGE_VEC in err and "Traceback" not in err
    assert not (tmp_path / "x.cupt").exists()


def test_empty_dev_corpus_exits_two(workdir, tmp_path, capsys):
    empty = tmp_path / "empty.cupt"
    empty.write_text("")
    model = tmp_path / "m.json"
    rc = run(["train", "--train", p(workdir / "train.cupt"), "--dev", p(empty),
              "--embeddings", p(workdir / "vecs.vec"), "--model", p(model),
              "--epochs", "1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "dev corpus is empty" in err and "Traceback" not in err
    assert not model.exists()
    assert not (tmp_path / "m.json.train.json").exists()


def test_same_seed_training_is_byte_identical(workdir, tmp_path):
    outs = []
    for name in ("d1.json", "d2.json"):
        model = tmp_path / name
        rc = run(["train", "--train", p(workdir / "train.cupt"),
                  "--embeddings", p(workdir / "vecs.vec"),
                  "--model", p(model), "--seed", "9", "--epochs", "1"])
        assert rc == 0
        outs.append((model.read_bytes(),
                     (tmp_path / (name + ".train.json")).read_bytes()))
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# baselines through the CLI


def test_baseline_standard_pipeline(workdir, tmp_path):
    model = tmp_path / "b.json"
    rc = run(["train", "--train", p(workdir / "train.cupt"),
              "--model", p(model), "--variant", "baseline-standard",
              "--epochs", "60"])
    assert rc == 0
    report = json.loads((tmp_path / "b.json.train.json").read_text())
    assert report["variant"] == "baseline-standard"
    assert report["final_objective"] > 0.0
    pred = tmp_path / "bp.cupt"
    assert run(["tag", "--model", p(model),
                "--input", p(workdir / "train.cupt"),
                "--output", p(pred)]) == 0
    out = tmp_path / "br.json"
    assert run(["eval", "--gold", p(workdir / "gold.cupt"), "--pred", p(pred),
                "--report", p(out)]) == 0
    # 60 L2-regularized iterations fully fit 12 templated sentences
    assert json.loads(out.read_text())["overall"]["mwe"]["f1"] == 1.0


def test_baseline_fit_reports_how_it_ended(workdir, tmp_path, capsys):
    def train(name, *extra):
        model = tmp_path / name
        assert run(["train", "--train", p(workdir / "train.cupt"),
                    "--model", p(model), "--variant", "baseline-standard",
                    "--seed", "4", *extra]) == 0
        return (model.read_bytes(), (tmp_path / (name + ".train.json")).read_bytes(),
                capsys.readouterr().err)

    capped = [train(name, "--epochs", "2") for name in ("c1.json", "c2.json")]
    assert "warning: baseline fit did not converge (2 iterations" in capped[0][2]
    assert re.search(r"\(2 iterations, \d+ value-only and \d+ with-gradient "
                     "objective evaluations, objective ", capped[0][2])
    assert capped[0] == capped[1]  # model, report and message repeat bytewise
    _, report, err = train("full.json")
    assert err.startswith("baseline fit converged:") and "warning" not in err
    assert json.loads(report)["grad_max_norm"] < 1e-5


def test_baseline_turian_requires_embeddings_to_tag(workdir, tmp_path, capsys):
    model = tmp_path / "t.json"
    rc = run(["train", "--train", p(workdir / "train.cupt"),
              "--model", p(model), "--variant", "baseline-turian",
              "--embeddings", p(workdir / "vecs.vec"), "--epochs", "5"])
    assert rc == 0
    rc = run(["tag", "--model", p(model),
              "--input", p(workdir / "train.cupt"),
              "--output", p(tmp_path / "x.cupt")])
    assert rc == 2
    assert "embeddings" in capsys.readouterr().err


def test_baseline_turian_rejects_vectors_of_another_dimension(workdir, tmp_path, capsys):
    write_vecs(tmp_path / "v4.vec", 4)
    write_vecs(tmp_path / "v6.vec", 6)
    model = tmp_path / "t.json"
    assert run(["train", "--train", p(workdir / "train.cupt"), "--model", p(model),
                "--variant", "baseline-turian", "--embeddings", p(tmp_path / "v4.vec"),
                "--epochs", "5"]) == 0
    rc = run(["tag", "--model", p(model), "--input", p(workdir / "train.cupt"),
              "--output", p(tmp_path / "x.cupt"), "--embeddings", p(tmp_path / "v6.vec")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "4-dimensional" in err and "table has 6" in err
    assert not (tmp_path / "x.cupt").exists()


@pytest.mark.parametrize("variant", ["baseline-standard", "baseline-turian"])
@pytest.mark.parametrize("flag, value", [("--dev", "missing.cupt"), ("--batch-size", "7"),
                                         ("--head", "softmax")])
def test_neural_only_flags_are_a_usage_error_for_baselines(
    tmp_path, capsys, variant, flag, value
):
    # none of the files exists: reading one would exit 2, not 1
    argv = ["train", "--variant", variant, "--train", p(tmp_path / "t.cupt"),
            "--model", p(tmp_path / "m.json"), "--embeddings", p(tmp_path / "v.vec")]
    assert run(argv + [flag, value]) == 1
    err = capsys.readouterr().err
    assert err == f"usage error: {flag} applies only to --variant neural\n"
    assert list(tmp_path.iterdir()) == []


def test_config_file_neural_fields_are_ignored_by_baselines(tmp_path):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"dev": "missing.cupt", "batch_size": 7,
                                    "head": "softmax"}))
    args = _build_parser().parse_args(
        ["train", "--config", p(cfg_file), "--variant", "baseline-standard",
         "--train", "t", "--model", "m"])
    cfg = resolve(args)
    assert (cfg.dev, cfg.batch_size, cfg.head) == ("missing.cupt", 7, "softmax")


def test_train_baseline_standard_needs_no_embeddings_flag():
    cfg = RunConfig(subcommand="train", train="t", model="m",
                    variant="baseline-standard")
    cfg.validate()  # must not raise
    with pytest.raises(UsageError, match="embeddings"):
        RunConfig(subcommand="train", train="t", model="m").validate()


def test_the_head_default_is_the_taggers():
    assert RunConfig("train").head == TaggerConfig().head


@pytest.mark.parametrize("variant", ["neural", "baseline-standard"])
def test_train_without_epochs_or_batch_size_uses_the_dataclass_defaults(
    workdir, tmp_path, monkeypatch, capsys, variant
):
    import mwetag.cli as cli_module

    seen = {}

    def capture(name):
        def stand_in(*args, **kwargs):  # records the call, then ends the command
            seen[name] = (args, kwargs)
            raise ModelFormatError("stopped before the fit")
        return stand_in

    monkeypatch.setattr(cli_module, "train_tagger", capture("tagger"))
    monkeypatch.setattr(cli_module, "fit_baseline", capture("baseline"))
    argv = ["train", "--variant", variant, "--train", p(workdir / "train.cupt"),
            "--embeddings", p(workdir / "vecs.vec"), "--model", p(tmp_path / "m")]
    assert run(argv) == 2
    assert "stopped before the fit" in capsys.readouterr().err
    if variant == "neural":
        config = seen["tagger"][0][0].config
        assert (config.epochs, config.batch_size) == (TaggerConfig().epochs,
                                                      TaggerConfig().batch_size)
    else:
        options = seen["baseline"][1]["options"]
        assert options.max_iterations == BaselineTrainOptions().max_iterations
    assert list(seen) == ["tagger" if variant == "neural" else "baseline"]


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_prints_per_op_lines_and_exit_reflects_tolerance(
    monkeypatch, capsys
):
    import mwetag.cli as cli_module

    monkeypatch.setattr(cli_module, "gradient_suite",
                        lambda seed: {"dense": 1e-9, "crf_nll": 2e-7})
    assert run(["gradcheck", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "dense" in out and "crf_nll" in out and "ok" in out

    monkeypatch.setattr(cli_module, "gradient_suite",
                        lambda seed: {"dense": 5e-3})
    assert run(["gradcheck"]) == 2
    assert "FAIL" in capsys.readouterr().out


def run_module(module, *args, environ=os.environ):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", module, *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_python_dash_m_runs_the_cli(workdir, tmp_path, capsys):
    def argv(report):
        return ["eval", "--gold", p(workdir / "gold.cupt"),
                "--pred", p(workdir / "train.cupt"), "--report", p(tmp_path / report)]

    done = run_module("mwetag", *argv("module.json"))
    assert run(argv("in_process.json")) == 0
    assert (done.returncode, done.stdout) == (0, capsys.readouterr().out)
    reports = [(tmp_path / name).read_bytes() for name in ("module.json", "in_process.json")]
    assert reports[0] == reports[1]
    for module in ("mwetag", "mwetag.cli"):
        done = run_module(module, "gradcheck", "--no-such-flag")
        assert done.returncode == 1 and "--no-such-flag" in done.stderr


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_python_dash_m_trains_with_one_blas_thread_by_default(tmp_path):
    """Two paper-size epochs over 50 sentences, the neural-crf workload's
    corpus size: with the thread variables unset, the model file equals the
    one trained with each at 1. On two CPUs, BLAS's own default of a thread
    per CPU splits the products' sums in other places and changes the
    last bits of the parameters."""
    (tmp_path / "train.cupt").write_text(write_cupt(synthetic_corpus(50, seed=2024)),
                                         encoding="utf-8")
    write_vecs(tmp_path / "vecs.vec", 20)
    unset = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    models = []
    for name, environ in (("unset", unset),
                          ("one", dict(unset, **dict.fromkeys(BLAS_THREAD_VARIABLES, "1")))):
        model = tmp_path / f"{name}.model"
        done = run_module("mwetag", "train", "--train", p(tmp_path / "train.cupt"),
                          "--embeddings", p(tmp_path / "vecs.vec"), "--model", p(model),
                          "--epochs", "2", environ=environ)
        assert done.returncode == 0, done.stderr
        models.append(model.read_bytes())
    assert models[0] == models[1]


def test_main_keeps_a_thread_count_the_environment_sets(monkeypatch):
    import mwetag.cli as cli_module
    from mwetag.__main__ import main

    for name in BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    seen = {}
    monkeypatch.setattr(cli_module, "main",
                        lambda: seen.update({k: os.environ[k] for k in BLAS_THREAD_VARIABLES}))
    main()
    assert seen == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2",
                    "MKL_NUM_THREADS": "1"}


def test_the_console_script_runs_the_module_entry_point():
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = re.findall(r'^mwetag = "(.*)"$', pyproject.read_text(encoding="utf-8"), re.M)
    assert scripts == ["mwetag.__main__:main"]


# ---------------------------------------------------------------------------
# output hygiene


@pytest.mark.parametrize("flag", ["--model", "--report"])
def test_train_checks_output_directories_before_reading_anything(
    workdir, tmp_path, capsys, monkeypatch, flag
):
    def no_read(path):
        raise AssertionError(f"read {path} before checking where to write")

    monkeypatch.setattr("mwetag.cli.read_cupt", no_read)
    missing = tmp_path / "missing" / "out.json"
    outputs = {"--model": p(tmp_path / "m.json"), "--report": p(tmp_path / "r.json")}
    outputs[flag] = p(missing)
    argv = ["train", "--train", p(workdir / "train.cupt"),
            "--embeddings", p(workdir / "vecs.vec")]
    assert run(argv + [arg for item in outputs.items() for arg in item]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {missing}: no directory ")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [["tag", "--model", "{m}", "--input", "{train}", "--embeddings", "{vecs}",
      "--output", "{out}"],
     ["convert", "--input", "{train}", "--output", "{out}"],
     ["eval", "--gold", "{train}", "--pred", "{train}", "--train", "{train}",
      "--report", "{out}"]],
    ids=["tag", "convert", "eval"],
)
def test_commands_check_the_output_directory_before_reading_anything(
    workdir, tmp_path, capsys, monkeypatch, argv
):
    def no_read(path, *args, **kwargs):
        raise AssertionError(f"read {path} before checking where to write")

    for name in ("read_cupt", "load_model", "load_vec_file"):
        monkeypatch.setattr(f"mwetag.cli.{name}", no_read)
    missing = tmp_path / "missing"
    out = missing / "out.txt"
    paths = {"m": p(tmp_path / "m.json"), "train": p(workdir / "train.cupt"),
             "vecs": p(workdir / "vecs.vec"), "out": p(out)}
    assert run([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {out}: no directory {missing}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [["train", "--train", "{train}", "--embeddings", "{vecs}", "--model", "{out}"],
     ["train", "--variant", "baseline-standard", "--train", "{train}",
      "--model", "{m}", "--report", "{out}"],
     ["tag", "--model", "{m}", "--input", "{train}", "--embeddings", "{vecs}",
      "--output", "{out}"],
     ["convert", "--input", "{train}", "--output", "{out}"],
     ["eval", "--gold", "{train}", "--pred", "{train}", "--report", "{out}"]],
    ids=["train-model", "train-report", "tag", "convert", "eval"],
)
def test_an_output_that_is_a_directory_fails_before_any_work(
    workdir, tmp_path, capsys, monkeypatch, argv
):
    def no_work(*args, **kwargs):
        raise AssertionError("read, fitted or tagged before checking where to write")

    for name in ("read_cupt", "load_model", "load_vec_file", "train_tagger",
                 "fit_baseline", "predict_corpus", "tag_baseline"):
        monkeypatch.setattr(f"mwetag.cli.{name}", no_work)
    out = tmp_path / "out"
    out.mkdir()
    paths = {"m": p(tmp_path / "m.json"), "train": p(workdir / "train.cupt"),
             "vecs": p(workdir / "vecs.vec"), "out": p(out)}
    assert run([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {out}: it is a directory\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [out] and list(out.iterdir()) == []


def test_an_output_that_links_to_a_directory_replaces_the_link(workdir, tmp_path):
    target = tmp_path / "target"
    target.mkdir()
    link = tmp_path / "link"
    link.symlink_to(target, target_is_directory=True)
    assert run(["convert", "--input", p(workdir / "train.cupt"), "--output", p(link)]) == 0
    assert link.is_file() and not link.is_symlink()
    assert list(target.iterdir()) == []


@pytest.mark.parametrize(
    "argv, written, other",
    [(["train", "--variant", "baseline-standard", "--train", "{a}", "--model", "{b}",
       "--report", "{b}"], "model", "report"),
     (["train", "--train", "{a}", "--model", "{a}", "--embeddings", "{c}"], "model", "train"),
     (["train", "--train", "{a}", "--dev", "{b}", "--model", "{b}", "--embeddings", "{c}"],
      "model", "dev"),
     (["train", "--train", "{a}", "--model", "{c}", "--embeddings", "{c}"],
      "model", "embeddings"),
     # the report's default, MODEL.train.json
     (["train", "--variant", "baseline-standard", "--train", "{b}.train.json",
       "--model", "{b}"], "report", "train"),
     (["train", "--train", "{a}", "--model", "{b}", "--embeddings", "{c}",
       "--report", "{c}"], "report", "embeddings"),
     (["tag", "--model", "{b}", "--input", "{a}", "--output", "{a}"], "output", "input"),
     (["tag", "--model", "{b}", "--input", "{a}", "--output", "{b}"], "output", "model"),
     (["tag", "--model", "{b}", "--input", "{a}", "--embeddings", "{c}",
       "--output", "{c}"], "output", "embeddings"),
     # the same file by another path: through a parent directory, a symlink
     (["convert", "--input", "{a}", "--output", "{dir}/sub/../a"], "output", "input"),
     (["eval", "--gold", "{a}", "--pred", "{b}", "--report", "{link}"], "report", "gold"),
     (["eval", "--gold", "{a}", "--pred", "{b}", "--report", "{b}"], "report", "pred"),
     (["eval", "--gold", "{a}", "--pred", "{b}", "--train", "{c}", "--report", "{c}"],
      "report", "train"),
     # the config file, which {b}.train.json holds
     (["train", "--variant", "baseline-standard", "--train", "{a}",
       "--config", "{b}.train.json", "--model", "{b}.train.json"], "model", "config"),
     (["train", "--variant", "baseline-standard", "--train", "{a}",
       "--config", "{b}.train.json", "--model", "{b}"], "report", "config"),
     (["tag", "--model", "{b}", "--input", "{a}", "--config", "{dir}/sub/../b.train.json",
       "--output", "{b}.train.json"], "output", "config"),
     (["convert", "--input", "{a}", "--config", "{b}.train.json",
       "--output", "{b}.train.json"], "output", "config"),
     (["eval", "--gold", "{a}", "--pred", "{b}", "--config", "{b}.train.json",
       "--report", "{b}.train.json"], "report", "config")],
    ids=["train-model-report", "train-model-train", "train-model-dev",
         "train-model-embeddings", "train-default-report-train", "train-report-embeddings",
         "tag-output-input", "tag-output-model", "tag-output-embeddings",
         "convert-output-input", "eval-report-gold", "eval-report-pred", "eval-report-train",
         "train-model-config", "train-default-report-config", "tag-output-config",
         "convert-output-config", "eval-report-config"],
)
def test_an_output_may_not_name_another_file_of_the_command(
    tmp_path, capsys, monkeypatch, argv, written, other
):
    def no_read(path, *args, **kwargs):
        raise AssertionError(f"read {path} before checking where to write")

    for name in ("read_cupt", "load_model", "load_vec_file"):
        monkeypatch.setattr(f"mwetag.cli.{name}", no_read)
    paths = {name: p(tmp_path / name) for name in ("a", "b", "c", "b.train.json")}
    for path in paths.values():
        Path(path).write_text("{}\n")  # a config file too: an empty JSON object
    (tmp_path / "sub").mkdir()
    os.symlink(tmp_path / "a", tmp_path / "link")
    paths.update(dir=p(tmp_path), link=p(tmp_path / "link"))
    assert run([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: --{written} and --{other} name the same file ")
    assert all(Path(path).read_text() == "{}\n" for path in paths.values()
               if path != paths["dir"])


def test_failed_write_leaves_no_partial_output(workdir, tmp_path, capsys):
    target = tmp_path / "as_dir"
    target.mkdir()
    rc = run(["convert", "--input", p(workdir / "train.cupt"),
              "--output", p(target)])
    assert rc == 2
    assert [q for q in tmp_path.iterdir()] == [target]
    assert list(target.iterdir()) == []
