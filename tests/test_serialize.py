"""Round-trip fidelity of the JSON model container.

Oracles here are equality itself: load(save(m)) must reproduce every array
bit for bit (JSON shortest-repr floats round-trip doubles exactly), the
serialized bytes must be a pure function of the model, and predictions
through a round-trip must match the original on every sentence.
"""

import json

import numpy as np
import pytest

from mwetag.autodiff import RngStream
from mwetag.baseline import BaselineTrainOptions, tag_baseline, train_baseline
from mwetag.corpus import Sentence, Token, VmweInstance
from mwetag.embed import EmbeddingTable, encode, pos_vocabulary
from mwetag.errors import ModelFormatError
from mwetag.serialize import (
    FORMAT_VERSION,
    dumps_model,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from mwetag.tagger import TaggerConfig, build_for_corpus, predict

from test_tagger import make_sentence, small_config, toy_corpus, toy_table


@pytest.fixture(scope="module")
def corpus():
    return toy_corpus()


@pytest.fixture(scope="module")
def table(corpus):
    return toy_table(corpus)


@pytest.fixture(scope="module")
def tagger_model(corpus, table):
    return build_for_corpus(small_config(head="crf"), corpus, embeddings=table)


@pytest.fixture(scope="module")
def trainable_model(corpus):
    cfg = small_config(embedding_mode="random_trainable")
    return build_for_corpus(cfg, corpus, emb_dim=6)


@pytest.fixture(scope="module")
def baseline_model(corpus):
    opts = BaselineTrainOptions(max_iterations=30, seed=3)
    return train_baseline(corpus, variant="standard", options=opts)


def random_sentences(rng, count):
    forms = ["takes", "took", "gave", "gives", "shower", "walk", "a", "the", "up"]
    lemmas = {"takes": "take", "took": "take", "gave": "give", "gives": "give"}
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 7))
        words = []
        for _ in range(n):
            f = forms[int(rng.integers(0, len(forms)))]
            pos = ["VERB", "NOUN", "DET"][int(rng.integers(0, 3))]
            words.append((f, lemmas.get(f, f), pos))
        out.append(make_sentence(words))
    return out


# ---------------------------------------------------------------------------
# tagger round trip


def test_tagger_round_trip_exact_params(tmp_path, tagger_model, table):
    path = str(tmp_path / "m.json")
    save_model(tagger_model, path)
    loaded = load_model(path, embeddings=table)
    assert loaded.config == tagger_model.config
    assert loaded.tag_vocab == tagger_model.tag_vocab
    assert loaded.pos_vocab == tagger_model.pos_vocab
    assert loaded.emb_dim == tagger_model.emb_dim
    assert sorted(loaded.params) == sorted(tagger_model.params)
    for name, tensor in tagger_model.params.items():
        got = loaded.params[name].data
        assert got.shape == tensor.data.shape
        assert np.array_equal(got, tensor.data), name


def test_trainable_round_trip_keeps_word_vocab(tmp_path, trainable_model):
    path = str(tmp_path / "m.json")
    save_model(trainable_model, path)
    loaded = load_model(path)
    assert loaded.word_vocab == trainable_model.word_vocab
    assert loaded.word_vocab[0] == "<unk>"
    assert np.array_equal(
        loaded.params["word_table"].data, trainable_model.params["word_table"].data
    )


def test_save_load_save_byte_identical(tmp_path, tagger_model, table):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_model(tagger_model, str(p1))
    save_model(load_model(str(p1), embeddings=table), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_round_trip_predictions_bit_identical(tmp_path, tagger_model, table):
    path = str(tmp_path / "m.json")
    save_model(tagger_model, path)
    loaded = load_model(path, embeddings=table)
    pos_vocab = tagger_model.pos_vocab
    rng = np.random.default_rng(7)
    for sentence in random_sentences(rng, 10):
        enc = encode(sentence, table, pos_vocab)
        assert predict(loaded, enc) == predict(tagger_model, enc)


def test_embedding_dimension_mismatch_rejected(tmp_path, tagger_model):
    path = str(tmp_path / "m.json")
    save_model(tagger_model, path)
    wrong = EmbeddingTable(tagger_model.emb_dim + 1, {})
    with pytest.raises(ModelFormatError, match="dimension"):
        load_model(path, embeddings=wrong)


# ---------------------------------------------------------------------------
# baseline round trip


def test_baseline_round_trip_exact(tmp_path, baseline_model, corpus):
    path = str(tmp_path / "b.json")
    save_model(baseline_model, path)
    loaded = load_model(path)
    assert loaded.variant == baseline_model.variant
    assert loaded.sigma == baseline_model.sigma
    assert loaded.tag_vocab == baseline_model.tag_vocab
    assert loaded.feature_index == baseline_model.feature_index
    assert np.array_equal(loaded.weights, baseline_model.weights)
    assert np.array_equal(loaded.trans, baseline_model.trans)
    assert np.array_equal(loaded.trans_start, baseline_model.trans_start)
    assert np.array_equal(loaded.trans_stop, baseline_model.trans_stop)
    assert loaded.dense is None
    for sentence in corpus:
        assert (
            tag_baseline(loaded, sentence)
            == tag_baseline(baseline_model, sentence)
        )


def test_turian_baseline_round_trip(tmp_path, corpus, table):
    opts = BaselineTrainOptions(max_iterations=10, seed=3)
    model = train_baseline(corpus, variant="turian", table=table, options=opts)
    path = str(tmp_path / "t.json")
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.emb_dim == table.dimension
    assert np.array_equal(loaded.dense, model.dense)
    for sentence in corpus:
        assert (
            tag_baseline(loaded, sentence, table=table)
            == tag_baseline(model, sentence, table=table)
        )


# ---------------------------------------------------------------------------
# error handling


def test_truncated_file_is_corrupt(tmp_path, tagger_model):
    path = tmp_path / "m.json"
    save_model(tagger_model, str(path))
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ModelFormatError, match="corrupt"):
        load_model(str(path))


def test_future_version_rejected(tmp_path, tagger_model):
    data = model_to_dict(tagger_model)
    data["format_version"] = FORMAT_VERSION + 1
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ModelFormatError, match="version"):
        load_model(str(path))


def test_missing_field_rejected(tmp_path, tagger_model):
    data = model_to_dict(tagger_model)
    del data["tag_vocab"]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ModelFormatError, match="tag_vocab"):
        load_model(str(path))


def test_shape_value_mismatch_rejected(tagger_model):
    data = model_to_dict(tagger_model)
    data["params"][0]["values"] = data["params"][0]["values"][:-1]
    with pytest.raises(ModelFormatError, match="shape"):
        model_from_dict(data)


def _add_extra(data):
    data["params"].append({"name": "extra", "shape": [1], "values": [0.0]})


def _repeat_first(data):
    data["params"].append(dict(data["params"][0]))


def _shrink_tags(data):
    data["tag_vocab"] = data["tag_vocab"][:-1]


def _drop_word_vocab(data):
    data["word_vocab"] = None


@pytest.mark.parametrize(
    "model_name, mutate, message",
    [("tagger_model", _add_extra, "extra"),
     ("tagger_model", _repeat_first, "repeated"),
     ("tagger_model", _shrink_tags, "shape"),
     ("trainable_model", _drop_word_vocab, "word_vocab")],
    ids=["extra-param", "repeated-param", "vocab-shape-mismatch", "no-word-vocab"],
)
def test_tagger_parameters_checked_against_config(request, model_name, mutate, message):
    data = model_to_dict(request.getfixturevalue(model_name))
    mutate(data)
    with pytest.raises(ModelFormatError, match=message):
        model_from_dict(data)


def test_unknown_kind_rejected(tagger_model):
    data = model_to_dict(tagger_model)
    data["kind"] = "ensemble"
    with pytest.raises(ModelFormatError, match="kind"):
        model_from_dict(data)


def test_non_object_rejected():
    with pytest.raises(ModelFormatError):
        model_from_dict([1, 2, 3])


def test_atomic_write_leaves_no_temp_files(tmp_path, tagger_model):
    path = tmp_path / "m.json"
    save_model(tagger_model, str(path))
    leftovers = [p for p in tmp_path.iterdir() if p != path]
    assert leftovers == []


def test_dumps_ends_with_newline(tagger_model):
    assert dumps_model(tagger_model).endswith("\n")
