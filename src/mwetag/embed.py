"""Pretrained word vectors, word-shape bits and POS one-hots.

The network consumes two inputs per sentence: a word matrix made of the
pretrained embedding of each token followed by 7 binary shape features, and a
one-hot POS matrix. encode builds them for a list of sentences as one Batch
of zero-padded blocks, which is the whole input of one tagger pass; the
tagger encodes each batch when it runs it and keeps no encodings beyond it.
Embedding tables are immutable after loading and lookups are total (unknown
words map to the zero vector).
"""

from __future__ import annotations

import contextlib
import gzip
import logging
import unicodedata
import zlib
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Sentence
from .errors import VecLoadError, reading

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

    def lookup(self, word: str) -> np.ndarray:
        vec = self.entries.get(word)
        if vec is None:
            vec = self.entries.get(word.lower())
        return self._zero if vec is None else vec


def load_vec(stream, expected_dim: int) -> EmbeddingTable:
    """Load the standard text vector format: an optional `count dim` header
    line, then `word v1 v2 ... v_dim` per line (space separated).

    Duplicate words keep their first vector (with a warning); a wrong value
    count, a nan/inf value, a vector whose squared norm overflows or a header
    dimension other than expected_dim is a VecLoadError naming the line.
    """
    entries: dict[str, np.ndarray] = {}
    # overflow in the norm check is reported as a VecLoadError, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for line_number, parts, dim in _vec_lines(stream):
            if dim is not None:
                if dim != expected_dim:
                    raise VecLoadError(
                        f"header dimension {dim} != expected {expected_dim}", line_number
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
            # a finite squared norm keeps products of the vector with bounded
            # weights finite; huge values would saturate the network silently
            if not np.isfinite(vector @ vector):
                problem = (
                    "non-finite value" if not np.isfinite(vector).all()
                    else "squared norm overflows"
                )
                raise VecLoadError(f"{problem} for {word!r}", line_number)
            if word in entries:
                log.warning("duplicate vector for %r at line %d ignored", word, line_number)
                continue
            entries[word] = vector
    return EmbeddingTable(expected_dim, entries)


def _vec_lines(stream):
    """(line number, fields, header dimension) of each non-blank line of a
    vector file, split at spaces. The header dimension is the second field
    of a first line of two integers, a `count dim` header, else None."""
    header = True
    for line_number, line in enumerate(stream, start=1):
        parts = line.rstrip().split(" ")
        if parts == [""]:
            continue
        dim = None
        if header and len(parts) == 2:
            with contextlib.suppress(ValueError):
                int(parts[0])
                dim = int(parts[1])
        header = False
        yield line_number, parts, dim


@contextlib.contextmanager
def _open_vec(path):
    """A text stream over a vector file, gzip detected by magic bytes. Text
    that is not UTF-8, gzip data that is cut short or corrupt and every
    VecLoadError of the reader are a VecLoadError naming the file
    (errors.reading)."""
    with open(path, "rb") as probe:
        magic = probe.read(2)
    opener = gzip.open if magic == b"\x1f\x8b" else open
    with reading(path, VecLoadError):
        try:
            with opener(path, "rt", encoding="utf-8") as stream:
                yield stream
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise VecLoadError(f"truncated or corrupt gzip data ({exc})") from exc


def load_vec_file(path, expected_dim: int) -> EmbeddingTable:
    """load_vec over a file path; gzip input is detected by magic bytes."""
    with _open_vec(path) as stream:
        return load_vec(stream, expected_dim)


def sniff_vec_dim(path) -> int:
    """Dimension of a vector file: the header's second integer when the
    first line is a `count dim` pair, else the first data line's value
    count. A header dimension below 1 is a VecLoadError."""
    with _open_vec(path) as stream:
        for line_number, parts, dim in _vec_lines(stream):
            if dim is not None:
                if dim < 1:
                    raise VecLoadError(f"header dimension {dim} is not positive",
                                       line_number)
                return dim
            if len(parts) < 2:
                raise VecLoadError("no vector values on line", line_number)
            return len(parts) - 1
        raise VecLoadError("vector file holds no vectors")


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


@dataclass
class Batch:
    """Network inputs for B sentences as padded blocks: word_input is
    B x n x (dim+7) (embedding then shape bits) and pos_input B x n x |P|
    (one-hot), both zero past each of the B lengths."""

    word_input: np.ndarray
    pos_input: np.ndarray
    lengths: np.ndarray


def encode(
    sentences: Sequence[Sentence], table: EmbeddingTable, pos_vocab: Sequence[str]
) -> Batch:
    """The inputs of sentences, stacked in order into one Batch whose blocks
    are as long as the longest sentence. A POS tag not in pos_vocab takes
    column 0, the UNK slot of pos_vocabulary."""
    lengths = np.array([len(s.tokens) for s in sentences], dtype=int)
    n, dim = lengths.max(initial=0), table.dimension
    word_input = np.zeros((len(sentences), n, dim + N_SHAPE_FEATURES))
    pos_input = np.zeros((len(sentences), n, len(pos_vocab)))
    pos_column = {upos: k for k, upos in enumerate(pos_vocab)}
    for words, pos, sentence in zip(word_input, pos_input, sentences):
        for i, token in enumerate(sentence.tokens):
            words[i, :dim] = table.lookup(token.form)
            words[i, dim:] = shape_features(token.form)
            pos[i, pos_column.get(token.upos, 0)] = 1.0
    return Batch(word_input, pos_input, lengths)
