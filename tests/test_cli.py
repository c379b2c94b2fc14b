"""End-to-end subcommand behavior: flag validation order, exit codes,
output formats, config-file precedence, and byte-level determinism."""

import json
import warnings

import numpy as np
import pytest

from mwetag.cli import RunConfig, resolve, run, _build_parser
from mwetag.corpus import Sentence, Token, VmweInstance, write_cupt_file
from mwetag.errors import UsageError
from mwetag.serialize import save_model
from mwetag.synth import synthetic_corpus, synthetic_embeddings, vocabulary
from mwetag.tagger import TaggerConfig, build_for_corpus


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Corpus, gold copy, and a vector file shared by the pipeline tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = synthetic_corpus(sentences=12, seed=3)
    write_cupt_file(corpus, root / "train.cupt")
    write_cupt_file(corpus, root / "gold.cupt")
    table = synthetic_embeddings(dim=8, seed=1)
    with open(root / "vecs.vec", "w") as handle:
        handle.write(f"{len(vocabulary())} 8\n")
        for word in vocabulary():
            values = " ".join(repr(float(v)) for v in table.entries[word])
            handle.write(f"{word} {values}\n")
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
    write_cupt_file([sentence], src)
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
    assert "line 1" in err


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


def test_tag_without_embeddings_for_pretrained_model_exits_two(
    workdir, trained, tmp_path, capsys
):
    rc = run(["tag", "--model", p(trained),
              "--input", p(workdir / "train.cupt"),
              "--output", p(tmp_path / "x.cupt")])
    assert rc == 2
    assert "--embeddings" in capsys.readouterr().err


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


def _drop_proj_b(params):
    return [e for e in params if e["name"] != "proj_b"]


def _transpose(name):
    def mutate(params):
        for e in params:
            if e["name"] == name:
                rows, cols = e["shape"]
                e["values"] = np.array(e["values"]).reshape(rows, cols).T.ravel().tolist()
                e["shape"] = [cols, rows]
        return params

    return mutate


@pytest.mark.parametrize(
    "mutate, message",
    [(_drop_proj_b, "proj_b"), (_transpose("proj_w"), "proj_w"),
     (_transpose("lstm_fwd_wx"), "lstm_fwd_wx")],
    ids=["missing-proj_b", "transposed-proj_w", "transposed-lstm_fwd_wx"],
)
def test_tag_with_malformed_tagger_file_exits_two(
    workdir, small_tagger, tmp_path, capsys, mutate, message
):
    data = json.loads(small_tagger.read_text())
    data["params"] = mutate(data["params"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
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
        # finite, but conv and dense products overflow to inf and inf - inf
        "huge_vec": _write_vec(root / "huge.vec", ["1.7e308", "-1.7e308"] * 4),
        "tagger": small_tagger,
    }
    for variant in ("standard", "turian"):
        files[variant] = root / f"{variant}.json"
        assert run(["train", "--train", p(workdir / "train.cupt"),
                    "--embeddings", p(workdir / "vecs.vec"),
                    "--model", p(files[variant]), "--variant", f"baseline-{variant}",
                    "--epochs", "3"]) == 0
    return files


def _entry(data, name):
    return next(e for e in data["params"] if e["name"] == name)


def _zeros(data, name, shape):
    entry = _entry(data, name)
    entry["shape"] = list(shape)
    entry["values"] = [0.0] * int(np.prod(shape))


def _tags(data):
    return len(data["tag_vocab"])


def _drop(name):
    def mutate(data):
        data["params"] = [e for e in data["params"] if e["name"] != name]
    return mutate


def _set(key, value):
    def mutate(data):
        data[key] = value
    return mutate


def _nan_proj_b(data):
    _entry(data, "proj_b")["values"][0] = float("nan")


def _short_trans(data):
    _zeros(data, "trans", (_tags(data) - 1, _tags(data) - 1))


def _short_weights(data):
    rows, cols = _entry(data, "weights")["shape"]
    _zeros(data, "weights", (rows - 1, cols))


def _long_start(data):
    _zeros(data, "trans_start", (_tags(data) + 1,))


def _dense_in_standard(data):
    data["params"].append({"name": "dense", "shape": [40, _tags(data)],
                           "values": [0.0] * 40 * _tags(data)})


def _transposed_dense(data):
    rows, cols = _entry(data, "dense")["shape"]
    _zeros(data, "dense", (cols, rows))


def _unknown_param(data):
    data["params"].append({"name": "bias", "shape": [1], "values": [0.0]})


def _repeated_trans(data):
    data["params"].append(dict(_entry(data, "trans")))


TRAIN = ["train", "--train", "{train}", "--model", "{out}.json"]
TAG = ["tag", "--model", "{model}", "--input", "{train}", "--output", "{out}.cupt"]


@pytest.mark.parametrize(
    "argv, model, mutate, message",
    [
        (TRAIN + ["--embeddings", "{nan_vec}"], None, None, "non-finite value"),
        (TRAIN + ["--embeddings", "{inf_vec}"], None, None, "non-finite value"),
        (TRAIN + ["--embeddings", "{huge_vec}"], None, None, "epoch 1, batch 1"),
        (TAG + ["--embeddings", "{huge_vec}"], "tagger", None, "not finite"),
        (TRAIN + ["--embeddings", "{huge_vec}", "--variant", "baseline-turian"],
         None, None, "objective"),
        (TAG + ["--embeddings", "{huge_vec}"], "turian", None, "not finite"),
        (TAG + ["--embeddings", "{vecs}"], "tagger", _nan_proj_b, "non-finite"),
        (TAG + ["--embeddings", "{vecs}"], "tagger", _set("format_version", 1),
         "retrain"),
        (TAG, "standard", _short_trans, "'trans'"),
        (TAG, "standard", _short_weights, "'weights'"),
        (TAG, "standard", _long_start, "'trans_start'"),
        (TAG, "standard", _dense_in_standard, "'dense'"),
        (TAG + ["--embeddings", "{vecs}"], "turian", _drop("dense"), "'dense'"),
        (TAG + ["--embeddings", "{vecs}"], "turian", _transposed_dense, "'dense'"),
        (TAG, "standard", _set("sigma", 0.0), "sigma"),
        (TAG, "standard", _unknown_param, "'bias'"),
        (TAG, "standard", _repeated_trans, "repeated"),
    ],
    ids=[
        "train-nan-vec", "train-inf-vec", "train-huge-vec", "tag-huge-vec",
        "turian-train-huge-vec", "turian-tag-huge-vec", "tagger-nan-proj_b",
        "tagger-format-v1", "baseline-short-trans", "baseline-short-weights",
        "baseline-long-start", "baseline-dense-in-standard",
        "turian-without-dense", "turian-transposed-dense", "baseline-zero-sigma",
        "baseline-unknown-param", "baseline-repeated-param",
    ],
)
def test_bad_numbers_and_malformed_models_exit_two(
    workdir, bad_inputs, tmp_path, capsys, argv, model, mutate, message
):
    paths = {name: p(path) for name, path in bad_inputs.items()}
    if model is not None:
        data = json.loads(bad_inputs[model].read_text())
        if mutate is not None:
            mutate(data)
        (tmp_path / "model.json").write_text(json.dumps(data))
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


def test_train_baseline_standard_needs_no_embeddings_flag():
    cfg = RunConfig(subcommand="train", train="t", model="m",
                    variant="baseline-standard")
    cfg.validate()  # must not raise
    with pytest.raises(UsageError, match="embeddings"):
        RunConfig(subcommand="train", train="t", model="m").validate()


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


# ---------------------------------------------------------------------------
# output hygiene


def test_failed_write_leaves_no_partial_output(workdir, tmp_path, capsys):
    target = tmp_path / "as_dir"
    target.mkdir()
    rc = run(["convert", "--input", p(workdir / "train.cupt"),
              "--output", p(target)])
    assert rc == 2
    assert [q for q in tmp_path.iterdir()] == [target]
    assert list(target.iterdir()) == []
