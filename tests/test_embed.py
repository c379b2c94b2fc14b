import gzip
import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mwetag.corpus import Sentence, Token
from mwetag.embed import (
    EmbeddingTable,
    encode,
    load_vec,
    pad,
    load_vec_file,
    pos_index,
    pos_vocabulary,
    shape_features,
)
from mwetag.errors import VecLoadError


def sentence_of(forms, upos):
    tokens = tuple(
        Token(i + 1, f, f.lower(), p, ()) for i, (f, p) in enumerate(zip(forms, upos))
    )
    return Sentence(tokens)


def test_load_vec_with_header():
    table = load_vec(io.StringIO("2 3\ncat 1 0 0\ndog 0 1 0\n"), expected_dim=3)
    assert len(table) == 2
    assert table.dimension == 3
    np.testing.assert_array_equal(table.lookup("cat"), [1, 0, 0])


def test_load_vec_without_header():
    table = load_vec(io.StringIO("cat 1 0 0\n"), expected_dim=3)
    assert len(table) == 1


def test_lookup_absent_word_is_zero():
    table = load_vec(io.StringIO("cat 1 0 0\n"), expected_dim=3)
    np.testing.assert_array_equal(table.lookup("xyzzy"), [0, 0, 0])


def test_lookup_lowercase_fallback():
    table = load_vec(io.StringIO("cat 1 0 0\n"), expected_dim=3)
    np.testing.assert_array_equal(table.lookup("Cat"), [1, 0, 0])


def test_load_vec_wrong_count_names_line():
    with pytest.raises(VecLoadError, match="line 2"):
        load_vec(io.StringIO("cat 1 0 0\ndog 1 0\n"), expected_dim=3)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_vec_non_finite_names_line(value):
    with pytest.raises(VecLoadError, match="line 2: non-finite value for 'dog'"):
        load_vec(io.StringIO(f"cat 1 0 0\ndog 1 {value} 0\n"), expected_dim=3)


def test_load_vec_header_dim_mismatch():
    with pytest.raises(VecLoadError, match="line 1"):
        load_vec(io.StringIO("5 4\ncat 1 0 0 0\n"), expected_dim=3)


def test_load_vec_duplicate_keeps_first(caplog):
    with caplog.at_level("WARNING"):
        table = load_vec(io.StringIO("cat 1 0 0\ncat 0 9 0\n"), expected_dim=3)
    np.testing.assert_array_equal(table.lookup("cat"), [1, 0, 0])
    assert "duplicate" in caplog.text


def test_load_vec_file_gzip(tmp_path):
    path = tmp_path / "mini.vec.gz"
    with gzip.open(path, "wt", encoding="utf-8") as f:
        f.write("1 2\ncat 3 4\n")
    table = load_vec_file(path, expected_dim=2)
    np.testing.assert_array_equal(table.lookup("cat"), [3, 4])


@pytest.mark.parametrize(
    "form,bits",
    [
        ("The", [1, 0, 0, 0, 0, 0, 0]),
        ("NASA", [1, 1, 0, 0, 0, 0, 0]),
        ("2018", [0, 0, 0, 0, 0, 1, 1]),
        ("@user", [0, 0, 0, 1, 0, 0, 0]),
        ("#tag", [0, 0, 1, 0, 0, 0, 0]),
        ("https://x.eu", [0, 0, 0, 0, 1, 0, 0]),
        ("www.example.org", [0, 0, 0, 0, 1, 0, 0]),
        ("mp3", [0, 0, 0, 0, 0, 1, 0]),
        ("École", [1, 0, 0, 0, 0, 0, 0]),
    ],
)
def test_shape_features_cases(form, bits):
    np.testing.assert_array_equal(shape_features(form), bits)


@given(st.text(min_size=1, max_size=15))
def test_shape_features_are_seven_bits(form):
    bits = shape_features(form)
    assert bits.shape == (7,)
    assert set(bits) <= {0.0, 1.0}
    if bits[6]:
        assert bits[5]  # all digits implies contains a digit


def test_pos_vocabulary_sorted_with_unk():
    corpus = [sentence_of(["a", "b"], ["VERB", "NOUN"])]
    assert pos_vocabulary(corpus) == ["UNK", "NOUN", "VERB"]
    assert pos_vocabulary([]) == ["UNK"]


def test_unseen_pos_maps_to_unk():
    vocab = pos_vocabulary([sentence_of(["a"], ["VERB"])])
    assert pos_index(vocab, "ADJ") == 0


def test_encode_shapes_and_rows():
    table = EmbeddingTable(3, {"cat": np.array([1.0, 2.0, 3.0])})
    vocab = ["UNK", "NOUN", "VERB"]
    sent = sentence_of(["cat", "Purrs", "2018"], ["NOUN", "VERB", "ADJ"])
    enc = encode(sent, table, vocab)
    assert enc.word_input.shape == (3, 10)
    assert enc.pos_input.shape == (3, 3)
    np.testing.assert_array_equal(enc.word_input[0, :3], [1, 2, 3])
    np.testing.assert_array_equal(enc.word_input[1, :3], [0, 0, 0])  # OOV
    np.testing.assert_array_equal(enc.word_input[2, 3:], shape_features("2018"))
    np.testing.assert_array_equal(enc.pos_input.sum(axis=1), [1, 1, 1])
    np.testing.assert_array_equal(enc.pos_input[2], [1, 0, 0])  # unseen POS
    assert enc.forms == ("cat", "Purrs", "2018")


def test_encode_deterministic_and_form_consistent():
    table = EmbeddingTable(2, {"a": np.array([5.0, 6.0])})
    vocab = ["UNK", "X"]
    sent = sentence_of(["a", "b", "a"], ["X", "X", "X"])
    enc1 = encode(sent, table, vocab)
    enc2 = encode(sent, table, vocab)
    np.testing.assert_array_equal(enc1.word_input, enc2.word_input)
    np.testing.assert_array_equal(enc1.word_input[0, :2], enc1.word_input[2, :2])


def test_encode_copies_embeddings():
    table = EmbeddingTable(2, {"a": np.array([5.0, 6.0])})
    enc = encode(sentence_of(["a"], ["X"]), table, ["UNK", "X"])
    enc.word_input[0, 0] = -1.0
    np.testing.assert_array_equal(table.lookup("a"), [5, 6])


def test_encode_without_lookup_leaves_embedding_columns_zero():
    table = EmbeddingTable(3, {"cat": np.array([1.0, 2.0, 3.0])})
    vocab = ["UNK", "NOUN", "VERB"]
    sent = sentence_of(["cat", "Purrs"], ["NOUN", "VERB"])
    full = encode(sent, table, vocab)
    bare = encode(sent, table, vocab, lookup=False)
    assert not bare.word_input[:, :3].any()
    np.testing.assert_array_equal(bare.word_input[:, 3:], full.word_input[:, 3:])
    np.testing.assert_array_equal(bare.pos_input, full.pos_input)


def test_pad_stacks_sentences_zero_past_each_end():
    table = EmbeddingTable(2, {"a": np.array([5.0, 6.0])})
    vocab = ["UNK", "X"]
    encodings = [
        encode(sentence_of(forms, ["X"] * len(forms)), table, vocab)
        for forms in (["a", "b"], ["a"], ["b", "a", "A"])
    ]
    batch = pad(encodings)
    np.testing.assert_array_equal(batch.lengths, [2, 1, 3])
    assert batch.word_input.shape == (3, 3, 9) and batch.pos_input.shape == (3, 3, 2)
    assert batch.forms == (("a", "b"), ("a",), ("b", "a", "A"))
    for b, enc in enumerate(encodings):
        n = len(enc.forms)
        np.testing.assert_array_equal(batch.word_input[b, :n], enc.word_input)
        np.testing.assert_array_equal(batch.pos_input[b, :n], enc.pos_input)
        assert not batch.word_input[b, n:].any() and not batch.pos_input[b, n:].any()
