"""Versioned JSON model container for both model families.

One self-describing file: a format-version integer, a kind discriminator
("tagger" or "baseline"), the full configuration, the vocabularies, and the
model's flat parameter vector as one ``f64le`` payload: the base64 text of
its little-endian IEEE-754 float64 bytes. The config and vocabularies fix
the vector's layout (tagger.param_shapes, baseline.param_shapes), so the
file stores no parameter names or shapes. load(save(m)) reproduces every
bit (-0.0 and subnormals included) and predicts bit-identically to m. A
load refuses repeated vocabulary entries, a payload whose length differs
from the size the config implies (before allocating anything), bad base64
and non-finite values, and decodes in bounded pieces straight into the
vector. A paper-size tagger (1.73M parameters) is an 18.5 MB file. Keys are
sorted and separators compact, making the byte output a pure function of
the model. Writes go to a temp file in the target directory and rename into
place, so failures never leave partial files.
"""

from __future__ import annotations

import base64
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
from .errors import ModelFormatError, not_utf8
from .tagger import TaggerConfig, TaggerModel, param_shapes

FORMAT_VERSION = 6
# the payload is encoded and decoded 98,304 values at a time (786,432 bytes,
# 1 MiB of base64 text without padding), so that no save or load allocates
# and faults in temporaries the size of the whole payload
_PIECE_VALUES = 3 << 15
_PIECE_CHARS = _PIECE_VALUES * 8 // 3 * 4


def _encode(data: np.ndarray) -> str:
    if not np.isfinite(data).all():
        raise ModelFormatError("model parameters contain non-finite values")
    # b64encode reads the contiguous vector's buffer; .tobytes() would copy it
    raw = np.ascontiguousarray(data, dtype="<f8")
    return "".join(
        base64.b64encode(raw[i:i + _PIECE_VALUES]).decode("ascii")
        for i in range(0, raw.size, _PIECE_VALUES)
    )


def _read_vector(data: dict, shapes: dict[str, tuple[int, ...]]) -> np.ndarray:
    """The f64le payload as the flat vector of the parameters in shapes. Its
    length is checked against theirs before anything is allocated, and it is
    decoded in bounded pieces, so a load never holds all of the decoded
    bytes next to the vector."""
    payload = _require(data, "f64le")
    if not isinstance(payload, str):
        raise ModelFormatError("f64le is not a base64 string")
    size = sum(map(math.prod, shapes.values()))
    chars = 4 * -(-8 * size // 3)
    if len(payload) != chars:
        raise ModelFormatError(
            f"f64le holds {len(payload)} base64 characters; the {size} values "
            f"the config and vocabularies imply take {chars} ({8 * size} bytes)"
        )
    out = np.empty(size)
    filled = 0
    for start in range(0, chars, _PIECE_CHARS):
        try:
            raw = base64.b64decode(payload[start:start + _PIECE_CHARS], validate=True)
        except ValueError as exc:
            raise ModelFormatError(f"bad base64 in f64le: {exc}") from exc
        count = len(raw) // 8
        if len(raw) % 8 or filled + count > size:
            break  # padding before the end, or past it: reported below
        piece = out[filled:filled + count]
        piece[...] = np.frombuffer(raw, dtype="<f8")
        if not np.isfinite(piece).all():
            raise ModelFormatError("f64le holds non-finite values")
        filled += count
    if filled != size:
        raise ModelFormatError(
            f"f64le does not decode to the {8 * size} bytes of {size} values"
        )
    return out


def model_to_dict(model) -> dict:
    if isinstance(model, TaggerModel):
        return {
            "format_version": FORMAT_VERSION,
            "kind": "tagger",
            "config": asdict(model.config),
            "emb_dim": model.emb_dim,
            "tag_vocab": list(model.tag_vocab),
            "pos_vocab": list(model.pos_vocab),
            "f64le": _encode(model.data),
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
            "f64le": _encode(model.data),
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


def _tagger_from_dict(data: dict, embeddings: EmbeddingTable | None) -> TaggerModel:
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
    vector = _read_vector(data, shapes)
    return TaggerModel(
        config=config,
        emb_dim=emb_dim,
        tag_vocab=tuple(tag_vocab),
        pos_vocab=tuple(pos_vocab),
        embeddings=embeddings or EmbeddingTable(emb_dim, {}),
        data=vector,
    )


def _baseline_from_dict(data: dict, embeddings: EmbeddingTable | None) -> BaselineModel:
    variant = _require(data, "variant")
    if variant not in VARIANTS:
        raise ModelFormatError(f"unknown baseline variant {variant!r}")
    sigma = _require(data, "sigma")
    if not isinstance(sigma, (int, float)) or not (math.isfinite(sigma) and sigma > 0):
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
        data=_read_vector(data, shapes),
        emb_dim=emb_dim,
    )


def model_from_dict(data, embeddings: EmbeddingTable | None = None):
    if not isinstance(data, dict):
        raise ModelFormatError("model file does not hold a JSON object")
    version = _require(data, "format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported format version {version} (this build reads "
            f"{FORMAT_VERSION}); retrain the model with this version"
        )
    kind = _require(data, "kind")
    if kind == "tagger":
        return _tagger_from_dict(data, embeddings)
    if kind == "baseline":
        return _baseline_from_dict(data, embeddings)
    raise ModelFormatError(f"unknown model kind {kind!r}")


_PAYLOAD_MARKER = '"f64le":""'


def dumps_model(model) -> str:
    """The model file's text: model_to_dict as key-sorted compact JSON.

    Base64 never needs escaping, so the payload skips json's string escaper:
    the envelope is encoded with f64le emptied and the payload is spliced
    back in at its marker. A JSON string cannot hold the marker unescaped,
    so the text equals json.dumps of the whole dict.
    """
    data = model_to_dict(model)
    payload, data["f64le"] = data["f64le"], ""
    pieces = json.dumps(
        data, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).split(_PAYLOAD_MARKER)
    if len(pieces) != 2:
        raise ModelFormatError(f"model text has {len(pieces) - 1} payload markers, not 1")
    return "".join((pieces[0], '"f64le":"', payload, '"', pieces[1], "\n"))


def atomic_write_text(path: str, text: str):
    """Write via a sibling temp file and rename, so a failure never leaves a
    partial file at the destination. The file gets the mode a plain open()
    would give it, 0o666 less the umask, not mkstemp's 0o600."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    umask = os.umask(0)  # the umask can only be read by setting it
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def save_model(model, path: str):
    atomic_write_text(path, dumps_model(model))


def load_model(path: str, embeddings: EmbeddingTable | None = None):
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except UnicodeDecodeError as exc:
        raise ModelFormatError(not_utf8(path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"corrupt model file: {exc}") from exc
    return model_from_dict(data, embeddings)
