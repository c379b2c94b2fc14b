"""Versioned JSON model container for both model families.

One self-describing file: a format-version integer, a kind discriminator
("tagger" or "baseline"), the full configuration, vocabularies, and every
parameter tensor as (name, shape, f64le). ``f64le`` is the base64 text of the
array's little-endian IEEE-754 float64 bytes in C order, so load(save(m))
reproduces every bit (-0.0 and subnormals included) and predicts
bit-identically to m. Raw bytes are half the size of shortest-repr decimal
lists and an order of magnitude quicker to write and read: a paper-size
tagger (1.73M parameters) is an 18.5 MB file that saves in ~0.09 s and
loads in ~0.1 s on one 2-vCPU core, against 36.4 MB, ~1.9 s and ~0.8 s as
decimals. Keys are sorted and separators compact, making the byte output a
pure function of the model. Writes go to a temp file in the target
directory and rename into place, so failures never leave partial files.
"""

from __future__ import annotations

import base64
import json
import math
import os
import tempfile
from dataclasses import asdict

import numpy as np

from .baseline import VARIANTS, WINDOW, BaselineModel
from .embed import EmbeddingTable
from .errors import ModelFormatError, not_utf8
from .tagger import TaggerConfig, TaggerModel, param_shapes

FORMAT_VERSION = 5


def _array_entry(name: str, arr: np.ndarray) -> dict:
    if not np.isfinite(arr).all():
        raise ModelFormatError(f"parameter {name!r} contains non-finite values")
    # b64encode reads the contiguous array's buffer; .tobytes() would copy it
    raw = np.ascontiguousarray(arr, dtype="<f8")
    return {
        "name": name,
        "shape": list(arr.shape),
        "f64le": base64.b64encode(raw).decode("ascii"),
    }


def _read_entry(entry) -> tuple[str, tuple[int, ...], str]:
    """An entry's name, shape and base64 payload. A payload too short for
    its shape is refused here, so no load allocates more than its file
    could fill."""
    try:
        name, shape, payload = entry["name"], entry["shape"], entry["f64le"]
    except (TypeError, KeyError) as exc:
        raise ModelFormatError(f"malformed parameter entry: {exc!r}") from exc
    if not isinstance(name, str):
        raise ModelFormatError(f"parameter name {name!r} is not a string")
    if not isinstance(shape, list) or not all(
        type(d) is int and d >= 0 for d in shape
    ):
        raise ModelFormatError(
            f"parameter {name!r} has shape {shape!r}, "
            "expected a list of non-negative integers"
        )
    if not isinstance(payload, str):
        raise ModelFormatError(f"parameter {name!r}: f64le is not a base64 string")
    if len(payload) // 4 * 3 < 8 * math.prod(shape):
        raise ModelFormatError(
            f"parameter {name!r}: {len(payload)} base64 characters are too "
            f"few for the {8 * math.prod(shape)} bytes of shape {shape}"
        )
    return name, tuple(shape), payload


def _read_params(entries, expected: dict[str, tuple[int, ...]]) -> dict[str, str]:
    """The base64 payload of every parameter the model indexes, present once
    with the shape its config and vocabularies imply; a mismatch would
    otherwise surface mid-inference as a KeyError or a shape error."""
    if not isinstance(entries, list):
        raise ModelFormatError("params must be a list")
    payloads = {}
    for entry in entries:
        name, shape, payload = _read_entry(entry)
        if name not in expected or name in payloads:
            raise ModelFormatError(f"unexpected or repeated parameter {name!r}")
        if shape != expected[name]:
            raise ModelFormatError(
                f"parameter {name!r} has shape {list(shape)}, "
                f"expected {list(expected[name])}"
            )
        payloads[name] = payload
    missing = sorted(expected.keys() - payloads.keys())
    if missing:
        raise ModelFormatError(f"missing parameter(s) {missing}")
    return payloads


def _decode_into(name: str, payload: str, out: np.ndarray) -> np.ndarray:
    """Decode a payload into out, an array of the entry's shape."""
    try:
        raw = base64.b64decode(payload, validate=True)
    except ValueError as exc:
        raise ModelFormatError(f"parameter {name!r}: bad base64 in f64le: {exc}") from exc
    if len(raw) != out.nbytes:
        raise ModelFormatError(
            f"parameter {name!r} holds {len(raw)} bytes, "
            f"shape {list(out.shape)} needs {out.nbytes}"
        )
    out[...] = np.frombuffer(raw, dtype="<f8").reshape(out.shape)
    if not np.isfinite(out).all():
        raise ModelFormatError(f"parameter {name!r} contains non-finite values")
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
            "params": [
                _array_entry(name, model.params[name].data)
                for name in sorted(model.params)
            ],
        }
    if isinstance(model, BaselineModel):
        features = sorted(model.feature_index, key=model.feature_index.get)
        params = [
            _array_entry("weights", model.weights),
            _array_entry("trans", model.trans),
            _array_entry("trans_start", model.trans_start),
            _array_entry("trans_stop", model.trans_stop),
        ]
        if model.dense is not None:
            params.append(_array_entry("dense", model.dense))
        return {
            "format_version": FORMAT_VERSION,
            "kind": "baseline",
            "variant": model.variant,
            "sigma": model.sigma,
            "emb_dim": model.emb_dim,
            "tag_vocab": list(model.tag_vocab),
            "feature_names": features,
            "params": params,
        }
    raise ModelFormatError(f"cannot serialize {type(model).__name__}")


def _require(data: dict, key: str):
    if key not in data:
        raise ModelFormatError(f"missing field {key!r}")
    return data[key]


def _require_strings(data: dict, key: str, allow_empty: bool = False) -> list[str]:
    value = _require(data, key)
    if (
        not isinstance(value, list)
        or not (value or allow_empty)
        or not all(isinstance(item, str) for item in value)
    ):
        size = "" if allow_empty else "non-empty "
        raise ModelFormatError(f"{key} must be a {size}list of strings")
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
    expected = param_shapes(config, emb_dim, len(pos_vocab), len(tag_vocab))
    payloads = _read_params(_require(data, "params"), expected)
    model = TaggerModel(
        config=config,
        emb_dim=emb_dim,
        tag_vocab=tuple(tag_vocab),
        pos_vocab=tuple(pos_vocab),
        embeddings=embeddings or EmbeddingTable(emb_dim, {}),
    )
    for name, p in model.params.items():
        _decode_into(name, payloads[name], p.data)
    return model


def _baseline_from_dict(data: dict, embeddings: EmbeddingTable | None) -> BaselineModel:
    variant = _require(data, "variant")
    if variant not in VARIANTS:
        raise ModelFormatError(f"unknown baseline variant {variant!r}")
    sigma = _require(data, "sigma")
    if not isinstance(sigma, (int, float)) or not (math.isfinite(sigma) and sigma > 0):
        raise ModelFormatError(f"sigma must be a positive number, got {sigma!r}")
    tag_vocab = _require_strings(data, "tag_vocab")
    feature_names = _require_strings(data, "feature_names", allow_empty=True)
    t_count = len(tag_vocab)
    expected = {
        "weights": (len(feature_names), t_count),
        "trans": (t_count, t_count),
        "trans_start": (t_count,),
        "trans_stop": (t_count,),
    }
    emb_dim = None
    if variant == "turian":
        emb_dim = _require_emb_dim(data, embeddings)
        expected["dense"] = (len(WINDOW) * emb_dim, t_count)
    payloads = _read_params(_require(data, "params"), expected)
    arrays = {n: _decode_into(n, payloads[n], np.empty(s)) for n, s in expected.items()}
    return BaselineModel(
        variant=variant,
        sigma=float(sigma),
        tag_vocab=tuple(tag_vocab),
        feature_index={n: k for k, n in enumerate(feature_names)},
        weights=arrays["weights"],
        trans=arrays["trans"],
        trans_start=arrays["trans_start"],
        trans_stop=arrays["trans_stop"],
        dense=arrays.get("dense"),
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

    Base64 never needs escaping, so the payloads skip json's string escaper:
    the envelope is encoded with every f64le emptied and each payload is
    spliced back in at its marker, in params order. A JSON string cannot hold
    the marker unescaped, so the text equals json.dumps of the whole dict.
    """
    data = model_to_dict(model)
    payloads = []
    for entry in data["params"]:
        payloads.append(entry["f64le"])
        entry["f64le"] = ""
    pieces = json.dumps(
        data, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).split(_PAYLOAD_MARKER)
    if len(pieces) != len(payloads) + 1:
        raise ModelFormatError(
            f"model text has {len(pieces) - 1} payload markers "
            f"for {len(payloads)} parameters"
        )
    parts = [pieces[0]]
    for payload, piece in zip(payloads, pieces[1:]):
        parts += ('"f64le":"', payload, '"', piece)
    parts.append("\n")
    return "".join(parts)


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
