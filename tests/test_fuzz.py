"""Mutation fuzzing of the three readers of outside input.

A valid input is mutated a few times (values replaced, entries deleted,
characters inserted, removed or replaced, lines dropped, repeated or
swapped, a model file's leading bytes edited and its body cut or extended).
The oracle is the error contract: a reader either returns or raises a
DataError subclass, which the CLI reports as exit 2; anything else would
reach a user as a traceback.

The baseline's tag index is fuzzed against its oracle, the feature strings:
over token values built from "|", ":", the sentinel names and empty strings,
its ids must equal those the strings map to.
"""

import copy
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mwetag.baseline import (
    BaselineTrainOptions,
    _collect,
    _feature_ids,
    _TagIndex,
    train_baseline,
)
from mwetag.corpus import Sentence, Token, parse_cupt, write_cupt
from mwetag.embed import EmbeddingTable, load_vec
from mwetag.errors import DataError, ModelFormatError
from mwetag.serialize import (
    HEADER_CAP,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from mwetag.synth import synthetic_corpus
from mwetag.tagger import build_for_corpus

from test_tagger import small_config, toy_corpus, toy_table

JSON_LEAF = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
)
JSON = st.recursive(
    JSON_LEAF,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
# base64, cupt and vector-file syntax, and a few characters none of them allow
CHARS = st.sampled_from("AZaz09+/=*-_.:;#\t\n eEé٣")


def _edit_text(draw, text: str) -> str:
    position = draw(st.integers(0, len(text)))
    op = draw(st.sampled_from(["insert", "delete", "replace"]))
    if op == "insert" or not text:
        return text[:position] + draw(CHARS) + text[position:]
    position = min(position, len(text) - 1)
    tail = text[position + 1:]
    return text[:position] + (draw(CHARS) if op == "replace" else "") + tail


def _paths(node, prefix=()):
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_dict(draw, base: dict) -> dict:
    data = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        if not data:
            break
        # half the time a top-level field first, so that scalars such as
        # emb_dim are hit as often as the long lists that hold most paths
        if draw(st.booleans()):
            top = draw(st.sampled_from(sorted(data)))
            path = draw(st.sampled_from([(top,), *_paths(data[top], (top,))]))
        else:
            path = draw(st.sampled_from(list(_paths(data))))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        key, value = path[-1], parent[path[-1]]
        op = draw(st.sampled_from(["replace", "delete", "edit"]))
        if op == "delete":
            del parent[key]
        elif op == "edit" and isinstance(value, str):
            parent[key] = _edit_text(draw, value)
        elif op == "edit" and isinstance(value, (int, float)):
            parent[key] = draw(st.sampled_from(
                [0, -1, value + 1, -value, 0.5, True, 10**30, float("nan")]
            ))
        else:
            parent[key] = draw(JSON)
    return data


@st.composite
def mutated_lines(draw, base: list[str]) -> list[str]:
    lines = list(base)
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["edit", "edit", "delete", "repeat", "swap", "new"]))
        if op == "edit":
            lines[i] = _edit_text(draw, lines[i])
        elif op == "delete":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines[i] = draw(st.text(CHARS, max_size=20)) + "\n"
    return lines


@pytest.fixture(scope="module")
def models():
    corpus = toy_corpus()
    tagger = build_for_corpus(
        small_config(head="crf", filters_per_width=2, lstm_hidden=2),
        corpus, embeddings=toy_table(corpus, dim=1),
    )
    baseline = train_baseline(
        corpus[:2], variant="standard",
        options=BaselineTrainOptions(max_iterations=3, seed=0),
    )
    return {"tagger": tagger, "baseline": baseline}


@pytest.fixture(scope="module")
def model_dicts(models):
    """Each model's header dict and body bytes."""
    return {kind: (model_to_dict(m), m.data.tobytes()) for kind, m in models.items()}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_model_from_dict_raises_only_data_errors(model_dicts, data):
    header, body = model_dicts[data.draw(st.sampled_from(sorted(model_dicts)))]
    try:
        model_from_dict(data.draw(mutated_dict(header)), io.BytesIO(body))
    except DataError:
        pass


@pytest.fixture(scope="module")
def model_files(models, tmp_path_factory):
    """A scratch directory and the saved bytes of each model."""
    directory = tmp_path_factory.mktemp("framing")
    blobs = {}
    for kind, model in models.items():
        save_model(model, str(directory / kind))
        blobs[kind] = (directory / kind).read_bytes()
    return directory, blobs


# header lengths: edge values, any u64, and ones near the real header's
LENGTHS = st.one_of(
    st.sampled_from([0, 1, 2**63, 2**64 - 1, HEADER_CAP, HEADER_CAP + 1]),
    st.integers(0, 2**64 - 1),
    st.integers(0, 4096),
)


@st.composite
def mutated_framing(draw, blob: bytes) -> bytes:
    """blob with bytes of its magic or header length replaced, its header
    length set, or its end cut off or extended, one to three times."""
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["byte", "length", "cut", "extend"]))
        if op == "byte":
            i = draw(st.integers(0, 15))
            blob = blob[:i] + bytes([draw(st.integers(0, 255))]) + blob[i + 1:]
        elif op == "length":
            blob = blob[:8] + draw(LENGTHS).to_bytes(8, "little") + blob[16:]
        elif op == "cut":
            blob = blob[:draw(st.integers(0, max(len(blob) - 1, 0)))]
        else:
            blob = blob + draw(st.binary(min_size=1, max_size=24))
    return blob


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_model_framing_raises_only_model_format_errors(model_files, data):
    """Nothing but a ModelFormatError, and no allocation beyond what the
    file's size allows: a valid tagger holds its vector and its gradient."""
    directory, blobs = model_files
    blob = data.draw(mutated_framing(blobs[data.draw(st.sampled_from(sorted(blobs)))]))
    path = directory / "fuzzed"
    path.write_bytes(blob)
    tracemalloc.start()
    try:
        load_model(str(path))
    except ModelFormatError:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak < 2 * len(blob) + (64 << 10)


_SYNTH_LINES = write_cupt(synthetic_corpus(sentences=3, seed=5)).splitlines(True)
# a multiword-token range row and an empty node, kept as raw rows
EDGE_VALUES = [None, True, False, 0, 1, -1, 1.5, 10**30, float("nan"), float("inf"),
               "", "x", [], {}, ["x"], [[]], [0], {"x": 0}]
_DELETE = object()


def _field_paths(data: dict):
    """Every top-level field and every field of the config dict."""
    for key, value in data.items():
        yield (key,)
        if isinstance(value, dict):
            yield from ((key, inner) for inner in value)


def test_model_from_dict_every_field_replaced(model_dicts):
    """Exhaustive companion of the random fuzz: each field in turn replaced
    by each edge value, or deleted."""
    for base, body in model_dicts.values():
        for path in _field_paths(base):
            for value in [*EDGE_VALUES, _DELETE]:
                data = copy.deepcopy(base)
                parent = data
                for key in path[:-1]:
                    parent = parent[key]
                if value is _DELETE:
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = copy.deepcopy(value)
                try:
                    model_from_dict(data, io.BytesIO(body))
                except DataError:
                    pass
                except Exception as exc:
                    pytest.fail(f"{path} = {value!r}: {exc!r}")


CUPT_LINES = (
    ["# text = ab x\n", "1-2\tab" + "\t_" * 8 + "\t*\n"]
    + _SYNTH_LINES[:1]
    + ["1.1\tx" + "\t_" * 8 + "\t*\n"]
    + _SYNTH_LINES[1:]
)


def test_cupt_fuzz_base_is_valid():
    corpus = parse_cupt(CUPT_LINES)
    assert len(corpus) == 3 and any(s.vmwes for s in corpus)
    assert len(corpus[0].raw_rows) == 2 and corpus[0].source_comments


@settings(max_examples=300, deadline=None)
@given(mutated_lines(CUPT_LINES))
def test_parse_cupt_raises_only_data_errors(lines):
    try:
        parse_cupt(lines)
    except DataError:
        pass


VEC_LINES = ["3 3\n", "cat 0.5 -1 2e-3\n", "dog 1 2 3\n", "Cat 0 0 0\n"]


@settings(max_examples=300, deadline=None)
@given(mutated_lines(VEC_LINES))
def test_load_vec_raises_only_data_errors(lines):
    try:
        table = load_vec(lines, expected_dim=3)
    except DataError:
        return
    assert isinstance(table, EmbeddingTable)
    for vector in table.entries.values():
        assert vector.shape == (3,) and np.isfinite(vector @ vector)


# pieces of token values: the name syntax, the sentinel names, the lemma
# placeholder and the empty string, so that "|"-joined values collide
VALUE_PIECES = ["|", ":", "BOS", "BOS2", "EOS", "EOS2", "_", "", "a", "b"]
VALUE = st.lists(st.sampled_from(VALUE_PIECES), max_size=3).map("".join)
# names that no template can produce
STRAY_NAMES = ["zz:q", "p[-2]p[-1]:a", "nocolon"]


def _sentences(values):
    token = st.tuples(values, values, values)
    return st.lists(
        st.lists(token, min_size=1, max_size=6).map(
            lambda words: Sentence(
                tuple(Token(i + 1, *word, ()) for i, word in enumerate(words)), ()
            )
        ),
        max_size=4,
    )


@settings(max_examples=300, deadline=None)
@given(
    train=_sentences(VALUE),
    stray=st.sets(st.sampled_from(STRAY_NAMES)),
    reverse=st.booleans(),
    tagged=_sentences(VALUE | st.just("unseen")),
)
@example(train=[], stray=set(), reverse=False,
         tagged=[Sentence((Token(1, "BOS", "|", "", ()),), ())])
def test_tag_index_ids_equal_the_feature_strings(train, stray, reverse, tagged):
    names = sorted(set(_collect(train, "standard", None)[0]) | stray, reverse=reverse)
    feature_index = {name: k for k, name in enumerate(names)}
    index = _TagIndex(feature_index)
    for sentence in train + tagged:
        expected = _feature_ids(_collect([sentence], "standard", None)[0], feature_index)
        np.testing.assert_array_equal(index.feature_ids(sentence), expected)
