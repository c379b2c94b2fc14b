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
    load_vec_file,
    pos_vocabulary,
    shape_features,
    sniff_vec_dim,
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


@pytest.mark.parametrize("values", ["1.7e308 0 0", "1e154 1e154 0", "-2e154 0 0"])
def test_load_vec_rejects_a_vector_whose_squared_norm_overflows(values):
    with pytest.raises(VecLoadError, match="line 2: squared norm overflows for 'dog'"):
        load_vec(io.StringIO(f"cat 1 0 0\ndog {values}\n"), expected_dim=3)


def test_load_vec_keeps_large_vectors_whose_squared_norm_is_finite():
    table = load_vec(io.StringIO("cat 1e150 -1e150 1e-300\n"), expected_dim=3)
    np.testing.assert_array_equal(table.lookup("cat"), [1e150, -1e150, 1e-300])


def test_load_vec_header_dim_mismatch():
    with pytest.raises(VecLoadError, match="line 1"):
        load_vec(io.StringIO("5 4\ncat 1 0 0 0\n"), expected_dim=3)


@pytest.mark.parametrize("header", ["2 0", "2 -3"])
def test_sniff_vec_dim_rejects_header_dimension_below_one(tmp_path, header):
    path = tmp_path / "bad.vec"
    path.write_text(f"\n{header}\ncat\n")
    with pytest.raises(VecLoadError, match=f"line 2: header dimension {header[2:]}"):
        sniff_vec_dim(path)


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
    enc = encode([sentence_of(["a", "b"], ["ADJ", "VERB"])], EmbeddingTable(2, {}), vocab)
    np.testing.assert_array_equal(enc.pos_input[0], [[1, 0], [0, 1]])


def test_encode_shapes_and_rows():
    table = EmbeddingTable(3, {"cat": np.array([1.0, 2.0, 3.0])})
    vocab = ["UNK", "NOUN", "VERB"]
    sent = sentence_of(["cat", "Purrs", "2018"], ["NOUN", "VERB", "ADJ"])
    enc = encode([sent], table, vocab)
    assert enc.word_input.shape == (1, 3, 10)
    assert enc.pos_input.shape == (1, 3, 3)
    np.testing.assert_array_equal(enc.lengths, [3])
    words, pos = enc.word_input[0], enc.pos_input[0]
    np.testing.assert_array_equal(words[0, :3], [1, 2, 3])
    np.testing.assert_array_equal(words[1, :3], [0, 0, 0])  # OOV
    np.testing.assert_array_equal(words[2, 3:], shape_features("2018"))
    np.testing.assert_array_equal(pos.sum(axis=1), [1, 1, 1])
    np.testing.assert_array_equal(pos[2], [1, 0, 0])  # unseen POS


def test_encode_deterministic_and_form_consistent():
    table = EmbeddingTable(2, {"a": np.array([5.0, 6.0])})
    vocab = ["UNK", "X"]
    sent = sentence_of(["a", "b", "a"], ["X", "X", "X"])
    enc1 = encode([sent], table, vocab)
    enc2 = encode([sent], table, vocab)
    np.testing.assert_array_equal(enc1.word_input, enc2.word_input)
    np.testing.assert_array_equal(enc1.word_input[0, 0, :2], enc1.word_input[0, 2, :2])


def test_encode_copies_embeddings():
    table = EmbeddingTable(2, {"a": np.array([5.0, 6.0])})
    enc = encode([sentence_of(["a"], ["X"])], table, ["UNK", "X"])
    enc.word_input[0, 0, 0] = -1.0
    np.testing.assert_array_equal(table.lookup("a"), [5, 6])


def test_encode_stacks_sentences_zero_past_each_end():
    table = EmbeddingTable(2, {"a": np.array([5.0, 6.0])})
    vocab = ["UNK", "X"]
    sentences = [
        sentence_of(forms, ["X"] * len(forms)) for forms in (["a", "b"], ["a"], ["b", "a", "A"])
    ]
    batch = encode(sentences, table, vocab)
    np.testing.assert_array_equal(batch.lengths, [2, 1, 3])
    assert batch.word_input.shape == (3, 3, 9) and batch.pos_input.shape == (3, 3, 2)
    for b, sentence in enumerate(sentences):
        alone = encode([sentence], table, vocab)
        (n,) = alone.lengths
        np.testing.assert_array_equal(batch.word_input[b, :n], alone.word_input[0])
        np.testing.assert_array_equal(batch.pos_input[b, :n], alone.pos_input[0])
        assert not batch.word_input[b, n:].any() and not batch.pos_input[b, n:].any()
