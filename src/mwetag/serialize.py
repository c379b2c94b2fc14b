"""Versioned binary model container for both model families.

A model file (format 7) is binary whatever its name: the 8-byte MAGIC; the
header's length as a little-endian u64; the header, key-sorted compact
UTF-8 JSON ending in a newline, with the format version, the kind
("tagger" or "baseline"), the configuration and the vocabularies; then the
body, the flat parameter vector's little-endian float64 bytes, and nothing
after it. The config and vocabularies fix the vector's layout
(tagger.param_shapes, baseline.param_shapes), so the file stores no
parameter names or shapes. load(save(m)) reproduces every bit (-0.0 and
subnormals included), and the bytes are a pure function of the model. A
paper-size tagger (1.73M parameters) is a 13.8 MB file that saves in
~0.02 s and loads in ~0.01 s (warm, one core of a 2-vCPU machine).

A save refuses a non-finite vector before it creates any file, then writes
the header and the vector's own buffer to a temp file that is renamed into
place, so failures never leave partial files. A load bounds the header
length by HEADER_CAP and the file size before it reads the header, refuses
repeated vocabulary entries, compares the body's byte count with the size
the config implies before it allocates anything, reads the body straight
into the vector and refuses non-finite values. Every load error names the
file.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from collections import Counter
from dataclasses import asdict

import numpy as np

from .baseline import VARIANTS, BaselineModel
from .baseline import param_shapes as baseline_shapes
from .embed import EmbeddingTable
from .errors import ModelFormatError, reading
from .tagger import TaggerConfig, TaggerModel, param_shapes

FORMAT_VERSION = 7
MAGIC = b"\x93MWETAG\n"
# the longest header a load reads: far above the feature names of any corpus
HEADER_CAP = 1 << 30


def _read_vector(body, shapes: dict[str, tuple[int, ...]]) -> np.ndarray:
    """The flat vector of the parameters in shapes, read from the rest of the
    binary stream body. Its byte count is checked against theirs before
    anything is allocated, and it is read straight into the vector."""
    size = sum(map(math.prod, shapes.values()))
    start = body.tell()
    stored = body.seek(0, os.SEEK_END) - start
    if stored != 8 * size:
        raise ModelFormatError(
            f"corrupt model file: the body holds {stored} bytes; the {size} values "
            f"the config and vocabularies imply take {8 * size}"
        )
    body.seek(start)
    out = np.empty(size, dtype="<f8")
    if body.readinto(out) != out.nbytes:
        raise ModelFormatError("corrupt model file: the body ended early")
    if not np.isfinite(out).all():
        raise ModelFormatError("the body holds non-finite values")
    return out.astype(np.float64, copy=False)


def model_to_dict(model) -> dict:
    if isinstance(model, TaggerModel):
        return {
            "format_version": FORMAT_VERSION,
            "kind": "tagger",
            "config": asdict(model.config),
            "emb_dim": model.emb_dim,
            "tag_vocab": list(model.tag_vocab),
            "pos_vocab": list(model.pos_vocab),
        }
    if isinstance(model, BaselineModel):
        return {
            "format_version": FORMAT_VERSION,
            "kind": "baseline",
            "variant": model.variant,
            "sigma": model.sigma,
            "emb_dim": model.emb_dim,
            "tag_vocab": list(model.tag_vocab),
            "feature_names": sorted(model.feature_index, key=model.feature_index.get),
        }
    raise ModelFormatError(f"cannot serialize {type(model).__name__}")


def _require(data: dict, key: str):
    if key not in data:
        raise ModelFormatError(f"missing field {key!r}")
    return data[key]


def _require_strings(data: dict, key: str, allow_empty: bool = False) -> list[str]:
    """A list of distinct strings: a repeated name would leave two of the
    vector's rows under one index."""
    value = _require(data, key)
    if (
        not isinstance(value, list)
        or not (value or allow_empty)
        or not all(isinstance(item, str) for item in value)
    ):
        size = "" if allow_empty else "non-empty "
        raise ModelFormatError(f"{key} must be a {size}list of strings")
    repeated = [item for item, count in Counter(value).items() if count > 1]
    if repeated:
        raise ModelFormatError(f"{key} repeats {repeated[0]!r}")
    return value


def _require_emb_dim(data: dict, embeddings: EmbeddingTable | None) -> int:
    """The stored embedding dimension, which a table given for the model's
    lookups must share."""
    emb_dim = _require(data, "emb_dim")
    if type(emb_dim) is not int or emb_dim < 1:
        raise ModelFormatError(f"bad emb_dim {emb_dim!r}")
    if embeddings is not None and embeddings.dimension != emb_dim:
        raise ModelFormatError(
            f"model expects {emb_dim}-dimensional embeddings, "
            f"table has {embeddings.dimension}"
        )
    return emb_dim


def _tagger_from_dict(data: dict, body, embeddings: EmbeddingTable | None) -> TaggerModel:
    raw_config = _require(data, "config")
    try:
        config = TaggerConfig(**raw_config)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"bad tagger config: {exc}") from exc
    emb_dim = _require_emb_dim(data, embeddings)
    tag_vocab = _require_strings(data, "tag_vocab")
    pos_vocab = _require_strings(data, "pos_vocab")
    # checked before the empty table and the gradient vector are allocated
    shapes = param_shapes(config, emb_dim, len(pos_vocab), len(tag_vocab))
    vector = _read_vector(body, shapes)
    return TaggerModel(
        config=config,
        emb_dim=emb_dim,
        tag_vocab=tuple(tag_vocab),
        pos_vocab=tuple(pos_vocab),
        embeddings=embeddings or EmbeddingTable(emb_dim, {}),
        data=vector,
    )


def _baseline_from_dict(data: dict, body, embeddings: EmbeddingTable | None) -> BaselineModel:
    variant = _require(data, "variant")
    if variant not in VARIANTS:
        raise ModelFormatError(f"unknown baseline variant {variant!r}")
    sigma = _require(data, "sigma")
    if type(sigma) not in (int, float) or not (math.isfinite(sigma) and sigma > 0):
        raise ModelFormatError(f"sigma must be a positive number, got {sigma!r}")
    tag_vocab = _require_strings(data, "tag_vocab")
    feature_names = _require_strings(data, "feature_names", allow_empty=True)
    emb_dim = _require_emb_dim(data, embeddings) if variant == "turian" else None
    shapes = baseline_shapes(len(feature_names), emb_dim, len(tag_vocab))
    return BaselineModel(
        variant=variant,
        sigma=float(sigma),
        tag_vocab=tuple(tag_vocab),
        feature_index={n: k for k, n in enumerate(feature_names)},
        data=_read_vector(body, shapes),
        emb_dim=emb_dim,
    )


def model_from_dict(data, body, embeddings: EmbeddingTable | None = None):
    """The model a header dict describes, its vector read from the binary
    stream body, which is positioned at the body's first byte."""
    if not isinstance(data, dict):
        raise ModelFormatError("the header is not a JSON object")
    version = _require(data, "format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported format version {version} (this build reads "
            f"{FORMAT_VERSION}); retrain the model with this version"
        )
    kind = _require(data, "kind")
    if kind == "tagger":
        return _tagger_from_dict(data, body, embeddings)
    if kind == "baseline":
        return _baseline_from_dict(data, body, embeddings)
    raise ModelFormatError(f"unknown model kind {kind!r}")


def dumps_model(model) -> str:
    """The model file's header: model_to_dict as key-sorted compact JSON."""
    return json.dumps(
        model_to_dict(model), sort_keys=True, separators=(",", ":"), allow_nan=False
    ) + "\n"


def _atomic_write(path: str, *chunks):
    """Write the byte chunks via a sibling temp file and rename, so a failure
    never leaves a partial file at the destination. The file gets the mode a
    plain open() would give it, 0o666 less the umask, not mkstemp's 0o600."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    umask = os.umask(0)  # the umask can only be read by setting it
    os.umask(umask)
    try:
        with os.fdopen(fd, "wb") as handle:
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def atomic_write_text(path: str, text: str):
    _atomic_write(path, text.encode("utf-8"))


def save_model(model, path: str):
    header = dumps_model(model).encode("utf-8")
    if not np.isfinite(model.data).all():
        raise ModelFormatError("model parameters contain non-finite values")
    # the vector's own buffer is written: .tobytes() would copy it
    body = np.ascontiguousarray(model.data, dtype="<f8")
    _atomic_write(path, MAGIC, len(header).to_bytes(8, "little"), header, body)


def _read_header(handle) -> dict:
    """The parsed header of the model file open in handle, which is left at
    the body's first byte."""
    lead = handle.read(16)
    if lead[:1] == b"{":
        raise ModelFormatError(
            f"a JSON model file of format 6 or older (this build reads "
            f"{FORMAT_VERSION}); retrain the model with this version"
        )
    if len(lead) < 16 or lead[:8] != MAGIC:
        raise ModelFormatError("not a mwetag model file (no format-7 magic)")
    length = int.from_bytes(lead[8:], "little")
    room = os.fstat(handle.fileno()).st_size - 16
    if length > min(HEADER_CAP, room):
        raise ModelFormatError(
            f"corrupt model file: a header of {length} bytes does not fit in "
            f"the {room} bytes after the length field, or exceeds {HEADER_CAP}"
        )
    text = handle.read(length).decode("utf-8")
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # a 5,000-digit int, deep nesting
        raise ModelFormatError(f"corrupt model file: header: {exc}") from exc


def load_model(path: str, embeddings: EmbeddingTable | None = None):
    """The model in the file at path; a header that is not UTF-8 and every
    ModelFormatError are a ModelFormatError naming the file (errors.reading)."""
    with reading(path, ModelFormatError), open(path, "rb") as handle:
        return model_from_dict(_read_header(handle), handle, embeddings)
