"""Pretrained word vectors, word-shape bits and POS one-hots.

The network consumes two inputs per sentence: a word matrix made of the
pretrained embedding of each token followed by 7 binary shape features, and a
one-hot POS matrix; a batch stacks them into zero-padded blocks. Embedding
tables are immutable after loading and lookups are total (unknown words map
to the zero vector).
"""

from __future__ import annotations

import gzip
import logging
import unicodedata
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Sentence
from .errors import VecLoadError

log = logging.getLogger(__name__)

N_SHAPE_FEATURES = 7

POS_UNK = "UNK"


class EmbeddingTable:
    """word -> float64 vector, all of one dimension.

    Lookup order: exact form, then lowercased form, then the zero vector
    (pretrained tables are cased; the fallback recovers sentence-initial
    capitalization).
    """

    def __init__(self, dimension: int, entries: dict[str, np.ndarray]):
        self.dimension = dimension
        self.entries = entries
        self._zero = np.zeros(dimension)

    def __len__(self):
        return len(self.entries)

    def __contains__(self, word):
        return word in self.entries

    def lookup(self, word: str) -> np.ndarray:
        vec = self.entries.get(word)
        if vec is None:
            vec = self.entries.get(word.lower())
        return self._zero if vec is None else vec


def load_vec(stream, expected_dim: int) -> EmbeddingTable:
    """Load the standard text vector format: an optional `count dim` header
    line, then `word v1 v2 ... v_dim` per line (space separated).

    Duplicate words keep their first vector (with a warning); a wrong value
    count, a nan/inf value or a header dimension other than expected_dim is a
    VecLoadError naming the line.
    """
    entries: dict[str, np.ndarray] = {}
    first = True
    for line_number, line in enumerate(stream, start=1):
        parts = line.rstrip("\n").rstrip().split(" ")
        if not parts or parts == [""]:
            continue
        if first:
            first = False
            if len(parts) == 2:
                try:
                    _count, dim = int(parts[0]), int(parts[1])
                except ValueError:
                    pass
                else:
                    if dim != expected_dim:
                        raise VecLoadError(
                            f"header dimension {dim} != expected {expected_dim}",
                            line_number,
                        )
                    continue
        word, values = parts[0], parts[1:]
        if len(values) != expected_dim:
            raise VecLoadError(
                f"{word!r} has {len(values)} values, expected {expected_dim}",
                line_number,
            )
        try:
            vector = np.array(values, dtype=np.float64)
        except ValueError:
            raise VecLoadError(f"non-numeric value for {word!r}", line_number) from None
        if not np.isfinite(vector).all():
            raise VecLoadError(f"non-finite value for {word!r}", line_number)
        if word in entries:
            log.warning("duplicate vector for %r at line %d ignored", word, line_number)
            continue
        entries[word] = vector
    return EmbeddingTable(expected_dim, entries)


def _vec_opener(path):
    with open(path, "rb") as probe:
        magic = probe.read(2)
    return gzip.open if magic == b"\x1f\x8b" else open


def load_vec_file(path, expected_dim: int) -> EmbeddingTable:
    """load_vec over a file path; gzip input is detected by magic bytes."""
    with _vec_opener(path)(path, "rt", encoding="utf-8") as stream:
        return load_vec(stream, expected_dim)


def sniff_vec_dim(path) -> int:
    """Dimension of a vector file: the header's second integer when the
    first line is a `count dim` pair, else the first data line's value
    count."""
    with _vec_opener(path)(path, "rt", encoding="utf-8") as stream:
        for line_number, line in enumerate(stream, start=1):
            parts = line.rstrip("\n").rstrip().split(" ")
            if not parts or parts == [""]:
                continue
            if len(parts) == 2:
                try:
                    int(parts[0])
                    return int(parts[1])
                except ValueError:
                    pass
            if len(parts) < 2:
                raise VecLoadError("no vector values on line", line_number)
            return len(parts) - 1
    raise VecLoadError("vector file holds no vectors", 0)


def _is_upper(char: str) -> bool:
    return unicodedata.category(char) == "Lu"


def shape_features(form: str) -> np.ndarray:
    """7 binary word-shape flags, in fixed order: starts with a capital
    letter, consists of all capital letters, first character is #, first
    character is @, is a URL (http://, https:// or www. prefix), contains a
    digit, consists only of digits."""
    return np.array(
        [
            _is_upper(form[0]),
            all(_is_upper(c) for c in form),
            form[0] == "#",
            form[0] == "@",
            form.startswith(("http://", "https://", "www.")),
            any(c.isdigit() for c in form),
            all(c.isdigit() for c in form),
        ],
        dtype=np.float64,
    )


def pos_vocabulary(corpus: Corpus) -> list[str]:
    """Sorted distinct POS strings with a reserved UNK slot at index 0."""
    observed = sorted({t.upos for s in corpus for t in s.tokens} - {POS_UNK})
    return [POS_UNK] + observed


def pos_index(vocabulary: list[str], upos: str) -> int:
    try:
        return vocabulary.index(upos)
    except ValueError:
        return 0


@dataclass
class SentenceEncoding:
    """Network inputs for one sentence: word_input is n x (dim+7) (embedding
    then shape bits), pos_input is n x |P| one-hot. Token forms ride along for
    models that learn their own embedding table instead of using a pretrained
    one."""

    word_input: np.ndarray
    pos_input: np.ndarray
    forms: tuple[str, ...]
    lengths = None  # one sentence is the B = 1 case of a Batch


@dataclass
class Batch:
    """Network inputs for B sentences as padded blocks: word_input is
    B x n x (dim+7) and pos_input B x n x |P|, both zero past each
    sentence's length; forms holds each sentence's token forms."""

    word_input: np.ndarray
    pos_input: np.ndarray
    forms: tuple[tuple[str, ...], ...]
    lengths: np.ndarray


def pad(encodings: list[SentenceEncoding]) -> Batch:
    """Stack sentence encodings into zero-padded blocks as long as the
    longest sentence."""
    lengths = np.array([len(e.word_input) for e in encodings])
    b_count, n = len(encodings), lengths.max(initial=0)
    word_input = np.zeros((b_count, n, encodings[0].word_input.shape[1]))
    pos_input = np.zeros((b_count, n, encodings[0].pos_input.shape[1]))
    for b, e in enumerate(encodings):
        word_input[b, : lengths[b]] = e.word_input
        pos_input[b, : lengths[b]] = e.pos_input
    return Batch(word_input, pos_input, tuple(e.forms for e in encodings), lengths)


def encode(
    sentence: Sentence, table: EmbeddingTable, pos_vocab: list[str], lookup: bool = True
) -> SentenceEncoding:
    """The inputs of one sentence. lookup=False leaves the embedding columns
    zero, for models that gather rows of their own table instead."""
    n = len(sentence.tokens)
    word_input = np.zeros((n, table.dimension + N_SHAPE_FEATURES))
    pos_input = np.zeros((n, len(pos_vocab)))
    for i, token in enumerate(sentence.tokens):
        if lookup:
            word_input[i, : table.dimension] = table.lookup(token.form)
        word_input[i, table.dimension :] = shape_features(token.form)
        pos_input[i, pos_index(pos_vocab, token.upos)] = 1.0
    return SentenceEncoding(word_input, pos_input, tuple(t.form for t in sentence.tokens))
