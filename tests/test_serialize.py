"""Round-trip fidelity of the binary model container.

Oracles here are equality itself: load(save(m)) must reproduce every array
bit for bit (the flat parameter vector is stored as its little-endian
float64 bytes), the serialized bytes must be a pure function of the model,
and predictions through a round-trip must match the original on every
sentence.
"""

import base64
import io
import json
import math
import os
import stat
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mwetag.baseline import (
    BaselineModel,
    BaselineProblem,
    BaselineTrainOptions,
    tag_baseline,
    train_baseline,
)
from mwetag.baseline import param_shapes as baseline_shapes
from mwetag.embed import EmbeddingTable
from mwetag.errors import ModelFormatError
from mwetag.serialize import (
    FORMAT_VERSION,
    HEADER_CAP,
    MAGIC,
    atomic_write_text,
    dumps_model,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from mwetag.tagger import (
    AdamOptimizer,
    TaggerConfig,
    build_for_corpus,
    param_shapes,
    predict,
)

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
def baseline_model(corpus):
    opts = BaselineTrainOptions(max_iterations=30, seed=3)
    return train_baseline(corpus, variant="standard", options=opts)


@pytest.fixture(scope="module")
def turian_model(corpus, table):
    opts = BaselineTrainOptions(max_iterations=10, seed=3)
    return train_baseline(corpus, variant="turian", table=table, options=opts)


def raw_body(body) -> bytes:
    """A body as bytes: raw bytes as they are, values as little-endian
    float64."""
    return body if isinstance(body, bytes) else np.asarray(body, dtype="<f8").tobytes()


def read_model_file(path) -> tuple[dict, np.ndarray]:
    """A format-7 file's header dict and writable vector, parsed independently
    of load_model: magic, u64 header length, JSON header, float64 body."""
    blob = Path(path).read_bytes()
    assert blob[:8] == MAGIC
    length = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16:16 + length].decode("utf-8"))
    return header, np.frombuffer(blob[16 + length:], dtype="<f8").copy()


def write_model_file(path, header: dict, body):
    """Write header and body (values or raw bytes) as a format-7 file, framed
    independently of save_model; a body of None writes the header alone as
    JSON text, as formats 2 to 6 were written."""
    if body is None:
        Path(path).write_text(json.dumps(header), encoding="utf-8")
        return
    text = (json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")
    Path(path).write_bytes(MAGIC + len(text).to_bytes(8, "little") + text + raw_body(body))


def from_parts(header: dict, body, embeddings=None):
    """model_from_dict over a header and a body (None for a JSON-only file
    of an older format)."""
    stream = io.BytesIO(b"" if body is None else raw_body(body))
    return model_from_dict(header, stream, embeddings)


def parts(model) -> tuple[dict, np.ndarray]:
    """A model's header dict and a copy of its vector."""
    return model_to_dict(model), model.data.copy()


def stored_shapes(data) -> dict:
    """Name -> shape of each parameter slot of a model dict, in vector order,
    as its config and vocabularies imply."""
    if data["kind"] == "tagger":
        return param_shapes(TaggerConfig(**data["config"]), data["emb_dim"],
                            len(data["pos_vocab"]), len(data["tag_vocab"]))
    return baseline_shapes(len(data["feature_names"]), data["emb_dim"],
                           len(data["tag_vocab"]))


def slots(data) -> dict:
    """Name -> slice of each parameter slot of a model dict's vector."""
    found, end = {}, 0
    for name, shape in stored_shapes(data).items():
        found[name] = slice(end, end + math.prod(shape))
        end = found[name].stop
    return found


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
    sentences = random_sentences(np.random.default_rng(7), 10)
    assert predict(loaded, sentences) == predict(tagger_model, sentences)


EXTREMES = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]


def test_extreme_values_round_trip_bit_exact(tmp_path, tagger_model, table):
    model = from_parts(*parts(tagger_model), embeddings=table)
    model.params["proj_w"].data.reshape(-1)[: len(EXTREMES)] = EXTREMES
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(model, str(p1))
    loaded = load_model(str(p1), embeddings=table)
    head = loaded.params["proj_w"].data.reshape(-1)[: len(EXTREMES)]
    assert head.tobytes() == np.array(EXTREMES).tobytes()
    for name, tensor in model.params.items():
        assert loaded.params[name].data.tobytes() == tensor.data.tobytes(), name
    save_model(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_loaded_params_are_writable(tmp_path, tagger_model, table):
    path = str(tmp_path / "m.json")
    save_model(tagger_model, path)
    loaded = load_model(path, embeddings=table)
    for tensor in loaded.params.values():
        assert tensor.data.flags.writeable
        tensor.grad[...] = 1.0
    AdamOptimizer(loaded.data, loaded.grad, loaded.config.learning_rate).step()
    for name, tensor in loaded.params.items():
        assert not np.array_equal(tensor.data, tagger_model.params[name].data), name


def _address(array: np.ndarray) -> int:
    return array.__array_interface__["data"][0]


def assert_flat_layout(vector, shapes, views):
    """views[name] is a C-contiguous view of the float64 vector's slot for
    name, the slots one after another in shapes order."""
    size = sum(math.prod(shape) for shape in shapes.values())
    assert vector.dtype == np.float64 and vector.shape == (size,)
    assert vector.flags.c_contiguous and vector.flags.owndata
    assert list(views) == list(shapes)
    offset = 0
    for name, shape in shapes.items():
        view = views[name]
        assert view.shape == shape and view.flags.c_contiguous, name
        assert np.shares_memory(view, vector), name
        assert _address(view) == _address(vector) + 8 * offset, name
        offset += math.prod(shape)


def assert_tagger_layout(model):
    """Every parameter's data and grad are views of the model's two
    vectors, in param_shapes order."""
    shapes = param_shapes(model.config, model.emb_dim, len(model.pos_vocab),
                          len(model.tag_vocab))
    for vector, field in ((model.data, "data"), (model.grad, "grad")):
        views = {name: getattr(t, field) for name, t in model.params.items()}
        assert_flat_layout(vector, shapes, views)
    assert not np.shares_memory(model.data, model.grad)


def assert_baseline_layout(model):
    """weights, dense (turian only), trans, trans_start and trans_stop are
    views of the model's vector, in baseline.param_shapes order."""
    shapes = baseline_shapes(len(model.feature_index), model.emb_dim,
                             len(model.tag_vocab))
    assert_flat_layout(model.data, shapes, {name: getattr(model, name) for name in shapes})
    if "dense" not in shapes:
        assert model.dense is None


def test_build_load_and_copy_lay_parameters_out_flat(
    tmp_path, tagger_model, table, corpus
):
    path = str(tmp_path / "m.json")
    save_model(tagger_model, path)
    loaded = load_model(path, embeddings=table)
    copied = tagger_model.copy()
    for model in (tagger_model, loaded, copied):
        assert_tagger_layout(model)
    assert np.array_equal(loaded.data, tagger_model.data)
    assert np.array_equal(copied.data, tagger_model.data)
    for source in (tagger_model.data, tagger_model.grad):
        assert not np.shares_memory(copied.data, source)
        assert not np.shares_memory(copied.grad, source)
    for variant, variant_table in (("standard", None), ("turian", table)):
        problem = BaselineProblem(corpus, variant, 2.0, variant_table)
        w = np.random.default_rng(0).normal(size=problem.size)
        built = problem.to_model(w)
        path = str(tmp_path / f"{variant}.json")
        save_model(built, path)
        for model in (built, load_model(path)):
            assert_baseline_layout(model)
            assert np.array_equal(model.data, w), variant
            assert problem.pack_model(model) is model.data
        assert not np.shares_memory(built.data, w)


@pytest.mark.parametrize("make", ["tagger_model", "baseline_model", "turian_model"])
def test_the_payload_is_the_parameter_vector(tmp_path, request, make):
    model = request.getfixturevalue(make)
    path = tmp_path / "m.bin"
    save_model(model, str(path))
    header, vector = read_model_file(path)
    assert "params" not in header and "f64le" not in header
    assert vector.tobytes() == model.data.astype("<f8").tobytes()


@pytest.mark.parametrize("make", ["tagger_model", "baseline_model", "turian_model"])
def test_a_model_file_is_magic_length_header_and_body(tmp_path, request, make):
    """Byte for byte: the magic, the header's length as a little-endian u64,
    the header text, the vector's little-endian float64 bytes, nothing more."""
    model = request.getfixturevalue(make)
    path = tmp_path / "m.bin"
    save_model(model, str(path))
    header = dumps_model(model).encode("utf-8")
    assert path.read_bytes() == (
        b"\x93MWETAG\n" + len(header).to_bytes(8, "little") + header
        + model.data.astype("<f8").tobytes()
    )


def _large_baseline(rng):
    """A standard baseline of 245,775 values (1.97 MB), led by the EXTREMES."""
    tags = ("B-VID", "I-VID", "O")
    names = [f"w[0]:{k}" for k in range(81920)]
    data = rng.normal(size=(len(names) + len(tags) + 2) * len(tags))
    data[: len(EXTREMES)] = EXTREMES
    return BaselineModel(variant="standard", sigma=2.0, tag_vocab=tags,
                         feature_index={n: k for k, n in enumerate(names)}, data=data)


def test_a_large_vector_round_trips_and_a_body_off_by_bytes_is_refused(tmp_path):
    model = _large_baseline(np.random.default_rng(3))
    path = tmp_path / "b.bin"
    save_model(model, str(path))
    assert load_model(str(path)).data.tobytes() == model.data.tobytes()
    blob = path.read_bytes()
    for bad in (blob[:-4], blob[:-8], blob + b"\0", blob + blob[-8:]):
        path.write_bytes(bad)
        with pytest.raises(ModelFormatError, match="corrupt model file: the body holds"):
            load_model(str(path))


def test_a_body_that_ends_early_is_refused(tagger_model):
    """A stream whose read stops short of the length its seek reported, as a
    file truncated during the load would."""
    class Short(io.BytesIO):
        def readinto(self, buffer):
            return super().readinto(memoryview(buffer).cast("B")[:-8])

    header, vector = parts(tagger_model)
    with pytest.raises(ModelFormatError, match="the body ended early"):
        model_from_dict(header, Short(raw_body(vector)))


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


def test_turian_baseline_round_trip(tmp_path, corpus, table, turian_model):
    path = str(tmp_path / "t.json")
    save_model(turian_model, path)
    loaded = load_model(path)
    assert loaded.emb_dim == table.dimension
    assert np.array_equal(loaded.dense, turian_model.dense)
    for sentence in corpus:
        assert (
            tag_baseline(loaded, sentence, table=table)
            == tag_baseline(turian_model, sentence, table=table)
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
    header, vector = parts(tagger_model)
    header["format_version"] = FORMAT_VERSION + 1
    path = tmp_path / "m.json"
    write_model_file(path, header, vector)
    with pytest.raises(ModelFormatError, match="version"):
        load_model(str(path))


def test_missing_field_rejected(tmp_path, tagger_model):
    header, vector = parts(tagger_model)
    del header["tag_vocab"]
    path = tmp_path / "m.json"
    write_model_file(path, header, vector)
    with pytest.raises(ModelFormatError, match="tag_vocab"):
        load_model(str(path))


def test_shape_value_mismatch_rejected(tagger_model):
    header, vector = parts(tagger_model)
    with pytest.raises(ModelFormatError, match="bytes"):
        from_parts(header, vector[:-1])


def _header_length(length):
    def edit(blob):
        return blob[:8] + length(blob).to_bytes(8, "little") + blob[16:]
    return edit


def _header_text(text):
    """The header replaced by text, its length field to match."""
    def edit(blob):
        old = int.from_bytes(blob[8:16], "little")
        return MAGIC + len(text).to_bytes(8, "little") + text + blob[16 + old:]
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda blob: b"\x89" + blob[1:], "not a mwetag model file"),
        (lambda blob: blob[:12], "not a mwetag model file"),
        (lambda blob: b"", "not a mwetag model file"),
        (_header_length(lambda blob: len(blob) - 15), "does not fit in the"),
        (_header_length(lambda blob: 2**63), "a header of 9223372036854775808 bytes"),
        (_header_length(lambda blob: 2**64 - 1), "does not fit in the"),
        (_header_length(lambda blob: int.from_bytes(blob[8:16], "little") - 2),
         "corrupt model file: header: "),
        (_header_text(b'{"kind":"tagger"\xff}'), "is not UTF-8 text"),
        (_header_text(b"[" * 100_000), "corrupt model file: header: "),
        (_header_text(b"1" * 5000), "corrupt model file: header: "),
        (_header_text(b'"tagger"'), "the header is not a JSON object"),
        (lambda blob: blob + b"\0", "corrupt model file: the body holds"),
        (lambda blob: blob[:-1], "corrupt model file: the body holds"),
    ],
    ids=["bad-magic", "cut-in-length", "empty", "header-past-eof", "header-2**63",
         "header-2**64-1", "header-cut", "header-not-utf8", "header-nested-deeply",
         "header-huge-int", "header-not-object", "trailing-byte", "short-body"],
)
def test_every_framing_error_names_the_file(tmp_path, tagger_model, edit, message):
    path = tmp_path / "m.bin"
    save_model(tagger_model, str(path))
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ModelFormatError, match=message) as caught:
        load_model(str(path))
    assert str(caught.value).startswith(str(path))


def test_a_json_model_file_gets_the_retrain_message(tmp_path, tagger_model):
    header, vector = parts(tagger_model)
    path = tmp_path / "m.json"
    write_model_file(path, header, as_format_v6(header, vector))
    with pytest.raises(ModelFormatError, match="format 6 or older.*retrain") as caught:
        load_model(str(path))
    assert str(caught.value).startswith(str(path))


def test_a_header_over_the_cap_is_refused_unread(tmp_path, tagger_model):
    """A sparse file longer than HEADER_CAP whose length field asks for more
    than the cap: refused without reading or allocating it."""
    path = tmp_path / "m.bin"
    with open(path, "wb") as handle:
        handle.write(MAGIC + (HEADER_CAP + 1).to_bytes(8, "little"))
        handle.truncate(HEADER_CAP + 64)
    tracemalloc.start()
    try:
        with pytest.raises(ModelFormatError, match=f"exceeds {HEADER_CAP}"):
            load_model(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _with_values(edit):
    """The body replaced by edit(its values)."""
    def mutate(header, vector):
        return edit(vector)
    return mutate


def _set_field(key, value):
    def mutate(header, vector):
        header[key] = value
        return vector
    return mutate


def _set_config(key, value):
    def mutate(header, vector):
        header["config"][key] = value
        return vector
    return mutate


def cut_mid_value(header, vector):
    """The body three bytes short: its last value cut in the middle."""
    return raw_body(vector)[:-3]


def one_byte_long(header, vector):
    return raw_body(vector) + b"\0"


def _odd_byte_count(header, vector):
    """One and a half values more than the config implies."""
    return raw_body(vector) + bytes(12)


def _no_body(header, vector):
    return b""


def _huge_empty(header, vector):
    """An empty body for a layout numpy could not allocate: refused on its
    byte count alone."""
    header["emb_dim"] = 10**30
    return b""


def _b64(values) -> str:
    return base64.b64encode(raw_body(values)).decode("ascii")


def as_format_v6(header, vector):
    """The previous format: one JSON text whose f64le field holds the base64
    of the vector's little-endian float64 bytes."""
    header.update(format_version=6, f64le=_b64(vector))


def as_format_v5(header, vector):
    """An earlier JSON format: each parameter its own (name, shape, f64le)
    entry, a tagger's in name order, a baseline's dense block last."""
    shapes, where = stored_shapes(header), slots(header)
    if header["kind"] == "tagger":
        names = sorted(shapes)
    else:
        names = sorted(shapes, key=lambda name: name == "dense")
    header["format_version"] = 5
    header["params"] = [
        {"name": name, "shape": list(shapes[name]), "f64le": _b64(vector[where[name]])}
        for name in names
    ]


def as_format_v2(header, vector):
    """An earlier JSON format: each parameter a flat list of decimal floats."""
    where = slots(header)
    as_format_v5(header, vector)
    header["format_version"] = 2
    for entry in header["params"]:
        del entry["f64le"]
        entry["values"] = vector[where[entry["name"]]].tolist()


def as_format_v3(header, vector):
    """An earlier JSON format: a tagger config also held the filter widths,
    the dropout rates, the conv activation and a nested optimizer config."""
    as_format_v5(header, vector)
    header["format_version"] = 3
    config = header.get("config")
    if config is not None:
        config.update(
            filter_widths=[2, 3], dropout=0.5, recurrent_dropout=0.2,
            conv_activation="relu",
            optimizer={"learning_rate": config.pop("learning_rate"), "beta1": 0.9,
                       "beta2": 0.999, "epsilon": 1e-8},
        )


def as_format_v4(header, vector):
    """An earlier JSON format: a tagger config also held the embedding mode,
    and a tagger file a word vocabulary (null unless the mode was trainable)."""
    as_format_v5(header, vector)
    header["format_version"] = 4
    if header["kind"] == "tagger":
        header["config"]["embedding_mode"] = "pretrained"
        header["word_vocab"] = None


def _set_at(index, value):
    def edit(a):
        a[index] = value
        return a
    return edit


@pytest.mark.parametrize(
    "mutate, message",
    [
        (cut_mid_value, "bytes"),
        (one_byte_long, "bytes"),
        (_with_values(lambda a: np.append(a, 0.0)), "bytes"),
        (_odd_byte_count, "bytes"),
        (_set_field("emb_dim", -3), "bad emb_dim"),
        (_set_field("emb_dim", 3.0), "bad emb_dim"),
        (_set_config("lstm_hidden", True), "lstm_hidden must be an integer"),
        (_set_field("emb_dim", "3"), "bad emb_dim"),
        (_huge_empty, "bytes"),
        (_with_values(_set_at(0, float("nan"))), "non-finite"),
        (_with_values(_set_at(-1, float("inf"))), "non-finite"),
        (_with_values(_set_at(1, -float("inf"))), "non-finite"),
        (_no_body, "holds 0 bytes"),
        (as_format_v2, "retrain"),
        (as_format_v3, "retrain"),
        (as_format_v4, "retrain"),
        (as_format_v5, "retrain"),
        (as_format_v6, "retrain"),
    ],
    ids=[
        "body-cut-mid-value", "body-one-byte-long", "byte-count-long",
        "byte-count-not-multiple-of-8",
        "negative-dim", "float-dim", "bool-dim", "shape-string", "huge-empty-shape",
        "nan", "plus-inf", "minus-inf", "no-payload", "format-v2-values",
        "format-v3-config", "format-v4-config", "format-v5-entries", "format-v6-base64",
    ],
)
def test_malformed_parameter_payload_rejected(tagger_model, mutate, message):
    """The body's own checks, and those of the numbers its layout is
    computed from (the dim cases)."""
    header, vector = parts(tagger_model)
    body = mutate(header, vector)
    with pytest.raises(ModelFormatError, match=message):
        from_parts(header, body)


def _append_slot(name):
    """The vector with one parameter's values stored a second time at its
    end, as a writer that kept an extra or repeated entry would."""
    def mutate(header, vector):
        return np.concatenate([vector, vector[slots(header)[name]]])
    return mutate


def _shrink_tags(header, vector):
    header["tag_vocab"] = header["tag_vocab"][:-1]
    return vector


def _unhashable_tag(header, vector):
    header["tag_vocab"][0] = [header["tag_vocab"][0]]
    return vector


def _bool_emb_dim(header, vector):
    header["emb_dim"] = True
    return vector


def _repeat(key):
    """The last entry of a vocabulary replaced by its first."""
    def mutate(header, vector):
        header[key][-1] = header[key][0]
        return vector
    return mutate


def _huge_config(header, vector):
    """10**6 hidden units and the body unchanged: refused before the model's
    vectors (32 TB) are allocated."""
    header["config"]["lstm_hidden"] = 10**6
    return vector


@pytest.mark.parametrize(
    "model_name, mutate, message",
    [("tagger_model", _append_slot("proj_b"), "bytes"),
     ("tagger_model", _append_slot("conv2_kernels"), "bytes"),
     ("tagger_model", _shrink_tags, "bytes"),
     ("tagger_model", _unhashable_tag, "tag_vocab must be a non-empty list of strings"),
     ("tagger_model", _bool_emb_dim, "emb_dim"),
     ("tagger_model", _huge_config, "bytes"),
     ("tagger_model", _repeat("tag_vocab"), "tag_vocab repeats"),
     ("tagger_model", _repeat("pos_vocab"), "pos_vocab repeats"),
     ("baseline_model", _repeat("tag_vocab"), "tag_vocab repeats"),
     ("baseline_model", _repeat("feature_names"), "feature_names repeats"),
     ("baseline_model", _set_field("sigma", True),
      "sigma must be a positive number, got True")],
    ids=["extra-param", "repeated-param", "vocab-shape-mismatch",
         "unhashable-tag", "bool-emb_dim", "huge-config-and-shapes",
         "repeated-tag", "repeated-pos", "baseline-repeated-tag",
         "baseline-repeated-feature", "baseline-bool-sigma"],
)
def test_tagger_parameters_checked_against_config(request, model_name, mutate, message):
    header, vector = parts(request.getfixturevalue(model_name))
    body = mutate(header, vector)
    with pytest.raises(ModelFormatError, match=message):
        from_parts(header, body)


def test_unknown_kind_rejected(tagger_model):
    header, vector = parts(tagger_model)
    header["kind"] = "ensemble"
    with pytest.raises(ModelFormatError, match="kind"):
        from_parts(header, vector)


def test_non_object_rejected():
    with pytest.raises(ModelFormatError):
        model_from_dict([1, 2, 3], io.BytesIO())


def test_atomic_write_leaves_no_temp_files(tmp_path, tagger_model):
    path = tmp_path / "m.json"
    save_model(tagger_model, str(path))
    leftovers = [p for p in tmp_path.iterdir() if p != path]
    assert leftovers == []


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_a_non_finite_vector_is_refused_before_any_file_is_made(
    tmp_path, tagger_model, value
):
    model = tagger_model.copy()
    model.data[-1] = value
    with pytest.raises(ModelFormatError, match="non-finite"):
        save_model(model, str(tmp_path / "m.bin"))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_atomic_write_gives_the_mode_of_a_plain_write(tmp_path, umask):
    previous = os.umask(umask)
    try:
        atomic_write_text(str(tmp_path / "atomic.txt"), "text\n")
        with open(tmp_path / "plain.txt", "w", encoding="utf-8") as handle:
            handle.write("text\n")
    finally:
        os.umask(previous)
    modes = [stat.S_IMODE((tmp_path / name).stat().st_mode)
             for name in ("atomic.txt", "plain.txt")]
    assert modes == [0o666 & ~umask] * 2


def test_dumps_ends_with_newline(tagger_model):
    assert dumps_model(tagger_model).endswith("\n")


# ---------------------------------------------------------------------------
# the header is json.dumps of model_to_dict, whatever the names it holds


TRICKY = ['"f64le":""', 'say "hi"', "back\\slash", "naïve — 名詞", "\\u0000", "tab\tnul\x00",
          '{"f64le":""}']


def _tricky_baseline():
    tags = ("O", *TRICKY)
    names = [f"w[0]={text}" for text in TRICKY] + ['"f64le":"",', "f64le"]
    rng = np.random.default_rng(5)
    return BaselineModel(
        variant="standard",
        sigma=2.0,
        tag_vocab=tags,
        feature_index={name: k for k, name in enumerate(names)},
        data=rng.normal(size=(len(names) + len(tags) + 2) * len(tags)),
    )


def _demo_tagger(corpus, table):
    config = TaggerConfig(filters_per_width=16, lstm_hidden=24)
    return build_for_corpus(config, corpus, embeddings=table)


def _fitted_baseline(variant):
    def make(corpus, table):
        opts = BaselineTrainOptions(max_iterations=10, seed=3)
        return train_baseline(corpus, variant=variant, table=table, options=opts)
    return make


@pytest.mark.parametrize(
    "make",
    [_demo_tagger, _fitted_baseline("standard"), _fitted_baseline("turian"),
     lambda corpus, table: _tricky_baseline()],
    ids=["demo-tagger", "standard", "turian", "tricky-strings"],
)
def test_dumps_model_equals_json_dumps_of_the_dict(corpus, table, make):
    model = make(corpus, table)
    assert dumps_model(model) == json.dumps(
        model_to_dict(model), sort_keys=True, separators=(",", ":"), allow_nan=False
    ) + "\n"


def test_tricky_names_round_trip_through_the_header(tmp_path):
    model = _tricky_baseline()
    path = tmp_path / "tricky.bin"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert loaded.tag_vocab == model.tag_vocab
    assert loaded.feature_index == model.feature_index
    assert loaded.data.tobytes() == model.data.tobytes()
