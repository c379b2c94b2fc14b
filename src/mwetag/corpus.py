"""Reading, writing and re-labelling of .cupt corpora.

The .cupt format is CoNLL-U plus a final MWE-annotation column:

* ``#`` comment lines precede each sentence; sentences are separated by one
  blank line; token lines are tab-separated.
* The last column holds ``*`` (no annotation) or a semicolon-joined list of
  items ``k`` / ``k:CATEGORY``: ``k:CATEGORY`` opens expression number k of
  the sentence, a bare ``k`` marks a further component of it.
* Ranged tokens (``3-4``) and empty nodes (``3.1``) carry no annotation; they
  are preserved verbatim and excluded from taggable positions.

Span annotations convert to one label per taggable token: ``B-CAT`` on the
first component of an expression, ``I-CAT`` on the others, ``O`` elsewhere.
A token inside several expressions gets its atoms semicolon-joined (in
ascending expression number) and the joined string is treated as one atomic
label throughout.

Decoding labels back to spans is total: ``B-CAT`` opens an instance, ``I-CAT``
attaches to the nearest same-category instance opened strictly earlier. An
``I-CAT`` with no earlier same-category ``B-CAT`` ("orphan") is either dropped
(``filter_orphans``) or promoted to a new singleton instance, depending on the
decoding flag. Note that two same-category expressions interleaving in one
sentence are not representable unambiguously in this labelling scheme; decoding
then attaches continuations to the most recently opened instance.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from itertools import chain
from typing import Iterable

from .errors import CuptParseError, CuptWriteError, not_utf8

MIN_COLUMNS = 5  # id, form, lemma, upos, ... , mwe annotation

_ANNOTATION_RE = re.compile(r"^\d+(:[^\s;:]+)?(;\d+(:[^\s;:]+)?)*$")
_RANGE_ID_RE = re.compile(r"^\d+-\d+$")
_EMPTY_NODE_ID_RE = re.compile(r"^\d+\.\d+$")


@dataclass(frozen=True, slots=True)
class Token:
    """One taggable token line. ``misc_columns`` keeps every column between
    UPOS and the MWE annotation verbatim so files round-trip byte-identically.

    Tokens are immutable values, so object identity means nothing: one
    ``parse_cupt`` call holds each distinct form, lemma, UPOS, middle
    column and ``misc_columns`` tuple once, and tokens with equal values
    share it."""

    id: int
    form: str
    lemma: str
    upos: str
    misc_columns: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class VmweInstance:
    vmwe_id: int
    category: str
    token_positions: tuple[int, ...]  # 1-based token ids, strictly increasing


@dataclass(slots=True)
class Sentence:
    tokens: tuple[Token, ...]
    vmwes: tuple[VmweInstance, ...] = ()
    source_comments: tuple[str, ...] = ()
    # (number of taggable tokens already seen, raw line) for ranged tokens and
    # empty nodes, kept verbatim at their original position.
    raw_rows: tuple[tuple[int, str], ...] = ()

    def __len__(self):
        return len(self.tokens)


Corpus = list[Sentence]
TagSequence = list[str]


def parse_cupt(stream: Iterable[str]) -> Corpus:
    """Parse a .cupt text stream into a list of sentences. One U+FEFF
    (a UTF-8 byte-order mark) at the start of the first line is dropped.

    Raises CuptParseError (with a 1-based line number) on malformed lines,
    on a bare ``k`` that references an expression never opened, on a
    repeated ``k:CAT`` opener for the same k, and on a token that lists the
    same k twice.
    """
    sentences: Corpus = []
    # one object per distinct form, lemma, UPOS, middle column, middle-column
    # tuple and category of this parse; dropped with the call, so nothing
    # outlives it
    table: dict = {}
    shared = table.setdefault
    comments: list[str] = []
    tokens: list[Token] = []
    raw_rows: list[tuple[int, str]] = []
    openers: dict[int, tuple[str, list[int], int]] = {}  # k -> (cat, positions, line)
    start_line = 1

    def flush(line_number):
        nonlocal comments, tokens, raw_rows, openers
        if not tokens and not comments and not raw_rows:
            return
        if not tokens:
            raise CuptParseError("sentence block contains no token lines", line_number)
        ids = [t.id for t in tokens]
        if ids != list(range(1, len(tokens) + 1)):
            raise CuptParseError("token ids are not consecutive from 1", line_number)
        vmwes = tuple(
            VmweInstance(k, cat, tuple(positions))
            for k, (cat, positions, _ln) in sorted(openers.items())
        )
        sentences.append(
            Sentence(tuple(tokens), vmwes, tuple(comments), tuple(raw_rows))
        )
        comments, tokens, raw_rows, openers = [], [], [], {}

    lines = iter(stream)
    lines = chain((next(lines, "").removeprefix("\ufeff"),), lines)
    line_number = 0
    for line_number, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if line == "":
            flush(line_number)
            start_line = line_number + 1
            continue
        if line.startswith("#"):
            if tokens:
                raise CuptParseError("comment line inside a sentence", line_number)
            comments.append(line)
            continue
        columns = line.split("\t")
        if len(columns) < MIN_COLUMNS:
            raise CuptParseError(
                f"expected at least {MIN_COLUMNS} tab-separated columns, got {len(columns)}",
                line_number,
            )
        first = columns[0]
        if first.isdigit() and first.isascii():  # a plain token id, the common case
            token_id = int(first)
        elif _RANGE_ID_RE.match(first) or _EMPTY_NODE_ID_RE.match(first):
            raw_rows.append((len(tokens), line))
            continue
        else:
            try:
                token_id = int(first)
            except ValueError:
                raise CuptParseError(f"unparseable token id {first!r}", line_number) from None
        form = columns[1]
        if form == "":
            raise CuptParseError("empty FORM column", line_number)
        lemma, upos, middle = columns[2], columns[3], tuple(columns[4:-1])
        if middle not in table:  # a new tuple: share its columns before it
            middle = tuple(map(shared, middle, middle))
        tokens.append(Token(token_id, shared(form, form), shared(lemma, lemma),
                            shared(upos, upos), shared(middle, middle)))
        annotation = columns[-1]
        if annotation == "*" or annotation == "_":  # "_": underspecified slot in blind data
            continue
        if not _ANNOTATION_RE.match(annotation):
            raise CuptParseError(f"malformed MWE annotation {annotation!r}", line_number)
        listed = set()
        for item in annotation.split(";"):
            k_str, colon, category = item.partition(":")
            k = int(k_str)
            if k in listed:
                raise CuptParseError(f"expression {k} listed twice on one token", line_number)
            listed.add(k)
            if colon:
                if k in openers:
                    raise CuptParseError(
                        f"expression {k} opened twice in one sentence", line_number
                    )
                openers[k] = (shared(category, category), [token_id], line_number)
            else:
                if k not in openers:
                    raise CuptParseError(
                        f"continuation of expression {k} before its opener", line_number
                    )
                openers[k][1].append(token_id)
    flush(line_number + 1)
    return sentences


def _annotation_strings(n_tokens: int, vmwes: Iterable[VmweInstance]) -> list[str]:
    per_token: list[list[str]] = [[] for _ in range(n_tokens)]
    for inst in sorted(vmwes, key=lambda v: v.vmwe_id):
        if not inst.token_positions:
            raise CuptWriteError(f"expression {inst.vmwe_id} has no token positions")
        for rank, pos in enumerate(inst.token_positions):
            if not 1 <= pos <= n_tokens:
                raise CuptWriteError(
                    f"expression {inst.vmwe_id} refers to missing token {pos}"
                )
            per_token[pos - 1].append(
                f"{inst.vmwe_id}:{inst.category}" if rank == 0 else str(inst.vmwe_id)
            )
    return [";".join(items) if items else "*" for items in per_token]


def write_cupt(corpus: Corpus) -> str:
    """Serialize a corpus back to .cupt text.

    Inverse of parse_cupt: parse(write(parse(d))) == parse(d) always, and
    write(parse(d)) == d byte-for-byte on canonical input (tab separators,
    "\\n" line ends, one blank line after every sentence, expressions numbered
    in order of first token).
    """
    chunks: list[str] = []
    for sentence in corpus:
        annotations = _annotation_strings(len(sentence.tokens), sentence.vmwes)
        raw_at: dict[int, list[str]] = {}
        for position, raw in sentence.raw_rows:
            raw_at.setdefault(position, []).append(raw)
        for comment in sentence.source_comments:
            chunks.append(comment + "\n")
        for index, token in enumerate(sentence.tokens):
            for raw in raw_at.get(index, ()):
                chunks.append(raw + "\n")
            columns = (str(token.id), token.form, token.lemma, token.upos,
                       *token.misc_columns, annotations[index])
            chunks.append("\t".join(columns) + "\n")
        for raw in raw_at.get(len(sentence.tokens), ()):
            chunks.append(raw + "\n")
        chunks.append("\n")
    return "".join(chunks)


def read_cupt(path) -> Corpus:
    try:
        with open(path, encoding="utf-8") as stream:
            return parse_cupt(stream)
    except UnicodeDecodeError as exc:
        raise CuptParseError(not_utf8(path, exc)) from exc


def write_cupt_file(corpus: Corpus, path):
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(write_cupt(corpus))


def to_tags(sentence: Sentence) -> TagSequence:
    """One label per taggable token: B-CAT on an expression's first component,
    I-CAT on the others, O outside; co-occurring atoms are semicolon-joined in
    ascending expression number."""
    atoms: list[list[str]] = [[] for _ in sentence.tokens]
    for inst in sorted(sentence.vmwes, key=lambda v: v.vmwe_id):
        for rank, pos in enumerate(inst.token_positions):
            prefix = "B" if rank == 0 else "I"
            atoms[pos - 1].append(f"{prefix}-{inst.category}")
    return [";".join(a) if a else "O" for a in atoms]


def _split_atoms(label: str) -> list[str]:
    return [] if label == "O" else label.split(";")


def filter_orphans(tags: TagSequence) -> TagSequence:
    """Remove every I-CAT atom with no same-category B-CAT strictly earlier in
    the sentence; a label left with no atoms becomes O. Idempotent."""
    seen_b: set[str] = set()
    out: TagSequence = []
    for label in tags:
        kept = []
        for atom in _split_atoms(label):
            if atom.startswith("I-") and atom[2:] not in seen_b:
                continue
            kept.append(atom)
        for atom in kept:
            if atom.startswith("B-"):
                seen_b.add(atom[2:])
        out.append(";".join(kept) if kept else "O")
    return out


def from_tags(tags: TagSequence, sentence: Sentence, apply_filter: bool = False) -> Sentence:
    """Rebuild a sentence's expressions from a label sequence.

    B-CAT opens an instance; I-CAT extends the nearest same-category instance
    opened strictly earlier. With apply_filter, orphan continuations are
    dropped first; without it, an orphan I-CAT is promoted to a new instance
    (and later same-category continuations may attach to it). Instances are
    renumbered in order of first token. Conversion is total.
    """
    if len(tags) != len(sentence.tokens):
        raise ValueError(
            f"got {len(tags)} labels for {len(sentence.tokens)} tokens"
        )
    if apply_filter:
        tags = filter_orphans(tags)
    instances: list[tuple[str, list[int]]] = []  # (category, positions)
    open_by_category: dict[str, list[int]] = {}  # category -> instance indexes
    for position, label in enumerate(tags, start=1):
        for atom in _split_atoms(label):
            prefix, category = atom[0], atom[2:]
            if prefix == "I":
                candidates = [
                    i for i in open_by_category.get(category, ())
                    if instances[i][1][0] < position
                ]
                if candidates:
                    instances[candidates[-1]][1].append(position)
                    continue
            # a B-CAT, or an orphan I-CAT promoted to a new singleton instance
            instances.append((category, [position]))
            open_by_category.setdefault(category, []).append(len(instances) - 1)
    instances.sort(key=lambda inst: inst[1][0])
    vmwes = tuple(
        VmweInstance(number, category, tuple(positions))
        for number, (category, positions) in enumerate(instances, start=1)
    )
    return replace(sentence, vmwes=vmwes)


def tag_vocabulary(corpus: Corpus) -> list[str]:
    """Sorted set of all labels ever produced by to_tags, always including O.
    Semicolon-joined labels count as separate atomic entries."""
    labels = {"O"}
    for sentence in corpus:
        labels.update(to_tags(sentence))
    return sorted(labels)
