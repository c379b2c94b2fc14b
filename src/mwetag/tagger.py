"""ConvNet + BiLSTM sequence tagger with a softmax or chain-CRF head.

Per sentence: the word input (embedding + shape features, n x (dim+7)) runs
through one convolution bank per filter width, the banks' activations are
concatenated together with the POS one-hot block, a bidirectional LSTM reads
the result, and a dense projection maps each position to per-label scores.
The softmax head trains with mean cross-entropy and predicts by row argmax;
the CRF head trains with sequence NLL and predicts with viterbi.

Pretrained embeddings are read through the encoding and never updated. The
random_trainable mode instead learns an embedding matrix over the training
vocabulary (unknown index 0), gathered per token at forward time; the shape
feature columns stay as computed.

Training is plain stochastic optimization with a moment-based (Adam-style)
optimizer: seeded epoch shuffle, gradients averaged per batch. Within one
batch, sentences are processed in corpus order, which makes a full-batch run
independent of the shuffle. With a dev corpus, the returned snapshot is the
epoch with the best dev MWE-based F1 (ties to the earlier epoch); without
one, the final state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import (
    ACTIVATIONS,
    LstmParams,
    RngStream,
    Tape,
    Tensor,
    backward,
    bilstm,
    concat_cols,
    conv1d_same,
    cross_entropy,
    dense,
    gather_rows,
    param,
    softmax_rows,
)
from .chaincrf import crf_nll, viterbi
from .corpus import Corpus, TagSequence, from_tags, to_tags
from .embed import N_SHAPE_FEATURES, EmbeddingTable, SentenceEncoding, encode
from .errors import NonFiniteError, TrainingDataError
from .evaluation import mwe_scores

UNK_WORD = "<unk>"


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("optimizer betas must lie in [0, 1)")
        if self.learning_rate <= 0.0 or self.epsilon <= 0.0:
            raise ValueError("learning_rate and epsilon must be positive")


@dataclass(frozen=True)
class TaggerConfig:
    filter_widths: tuple[int, ...] = (2, 3)
    filters_per_width: int = 200
    lstm_hidden: int = 300  # per direction
    dropout: float = 0.5
    recurrent_dropout: float = 0.2
    conv_activation: str = "relu"
    head: str = "crf"
    epochs: int = 100
    embedding_mode: str = "pretrained"
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    batch_size: int = 32
    seed: int = 1

    def __post_init__(self):
        object.__setattr__(self, "filter_widths", tuple(self.filter_widths))
        if not self.filter_widths or any(w < 1 for w in self.filter_widths):
            raise ValueError("filter widths must be positive")
        if len(set(self.filter_widths)) != len(self.filter_widths):
            raise ValueError("filter widths must be distinct")
        if self.filters_per_width < 1 or self.lstm_hidden < 1:
            raise ValueError("layer sizes must be positive")
        if not (0.0 <= self.dropout < 1.0 and 0.0 <= self.recurrent_dropout < 1.0):
            raise ValueError("dropout rates must lie in [0, 1)")
        if self.conv_activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.conv_activation!r}")
        if self.head not in ("softmax", "crf"):
            raise ValueError(f"unknown head {self.head!r}")
        if self.embedding_mode not in ("pretrained", "random_trainable"):
            raise ValueError(f"unknown embedding_mode {self.embedding_mode!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")


@dataclass
class TaggerModel:
    config: TaggerConfig
    emb_dim: int
    tag_vocab: tuple[str, ...]
    pos_vocab: tuple[str, ...]
    params: dict[str, Tensor]
    # the pretrained table is referenced for encoding, never trained
    embeddings: EmbeddingTable | None = None
    word_vocab: tuple[str, ...] | None = None  # random_trainable mode only

    def __post_init__(self):
        self.tag_index = {tag: i for i, tag in enumerate(self.tag_vocab)}
        self._word_index = (
            {w: i for i, w in enumerate(self.word_vocab)} if self.word_vocab else None
        )

    @property
    def label_count(self) -> int:
        return len(self.tag_vocab)

    def word_id(self, form: str) -> int:
        idx = self._word_index.get(form)
        if idx is None:
            idx = self._word_index.get(form.lower(), 0)
        return idx

    def lstm(self, direction: str) -> LstmParams:
        return LstmParams(
            wx=self.params[f"lstm_{direction}_wx"],
            wh=self.params[f"lstm_{direction}_wh"],
            b=self.params[f"lstm_{direction}_b"],
        )

    def trainable(self) -> list[Tensor]:
        return [self.params[name] for name in sorted(self.params)]

    def copy(self) -> "TaggerModel":
        return TaggerModel(
            config=self.config,
            emb_dim=self.emb_dim,
            tag_vocab=self.tag_vocab,
            pos_vocab=self.pos_vocab,
            params={
                name: param(np.array(p.data, copy=True))
                for name, p in self.params.items()
            },
            embeddings=self.embeddings,
            word_vocab=self.word_vocab,
        )


@dataclass
class TrainReport:
    losses: list[float] = field(default_factory=list)
    dev_token_accuracy: list[float] = field(default_factory=list)
    dev_mwe_f1: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    selected_epoch: int = -1  # 0-based index into the lists


def _glorot(rng: RngStream, shape, fan_in: int, fan_out: int) -> Tensor:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return param(rng.uniform(-limit, limit, shape))


def param_shapes(
    config: TaggerConfig,
    emb_dim: int,
    pos_count: int,
    tag_count: int,
    word_count: int | None = None,
) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter of a model with these sizes, in the
    order build draws them. word_count is the word vocabulary size, needed in
    random_trainable mode only."""
    in_dim = emb_dim + N_SHAPE_FEATURES
    f_count = config.filters_per_width
    hidden = config.lstm_hidden
    shapes: dict[str, tuple[int, ...]] = {}
    for width in config.filter_widths:
        shapes[f"conv{width}_kernels"] = (f_count, width, in_dim)
        shapes[f"conv{width}_bias"] = (f_count,)
    lstm_in = f_count * len(config.filter_widths) + pos_count
    for direction in ("fwd", "bwd"):
        shapes[f"lstm_{direction}_wx"] = (lstm_in, 4 * hidden)
        shapes[f"lstm_{direction}_wh"] = (hidden, 4 * hidden)
        shapes[f"lstm_{direction}_b"] = (4 * hidden,)
    shapes["proj_w"] = (2 * hidden, tag_count)
    shapes["proj_b"] = (tag_count,)
    if config.head == "crf":
        shapes["trans"] = (tag_count, tag_count)
        shapes["trans_start"] = (tag_count,)
        shapes["trans_stop"] = (tag_count,)
    if config.embedding_mode == "random_trainable":
        shapes["word_table"] = (word_count, emb_dim)
    return shapes


def build(
    config: TaggerConfig,
    emb_dim: int,
    pos_count: int,
    tag_count: int,
    rng: RngStream,
    tag_vocab: tuple[str, ...] | None = None,
    pos_vocab: tuple[str, ...] | None = None,
    embeddings: EmbeddingTable | None = None,
    word_vocab: tuple[str, ...] | None = None,
) -> TaggerModel:
    """Initialize a model: weight matrices with uniform fan-scaled draws from
    rng (in a fixed order, so a seed fully determines the parameters), biases
    and CRF transitions at zero."""
    if min(emb_dim, pos_count, tag_count) < 1:
        raise ValueError("emb_dim, pos_count and tag_count must be positive")
    if tag_vocab is not None and len(tag_vocab) != tag_count:
        raise ValueError("tag vocabulary does not match tag_count")
    if pos_vocab is not None and len(pos_vocab) != pos_count:
        raise ValueError("POS vocabulary does not match pos_count")
    if tag_vocab is None:
        tag_vocab = tuple(f"TAG{i}" for i in range(tag_count))
    if pos_vocab is None:
        pos_vocab = tuple(f"POS{i}" for i in range(pos_count))

    if config.embedding_mode == "random_trainable":
        if word_vocab is None:
            raise ValueError("random_trainable mode needs a word vocabulary")
        if word_vocab[0] != UNK_WORD:
            raise ValueError(f"word vocabulary must start with {UNK_WORD!r}")
    shapes = param_shapes(
        config, emb_dim, pos_count, tag_count, len(word_vocab) if word_vocab else None
    )
    params: dict[str, Tensor] = {}
    for name, shape in shapes.items():
        if len(shape) == 1 or name == "trans":
            params[name] = param(np.zeros(shape))
        elif name == "word_table":
            limit = np.sqrt(3.0 / emb_dim)
            params[name] = param(rng.uniform(-limit, limit, shape))
        elif len(shape) == 3:  # conv kernels, filters x width x channels
            f_count, width, in_dim = shape
            params[name] = _glorot(rng, shape, width * in_dim, width * f_count)
        else:
            params[name] = _glorot(rng, shape, *shape)
    if embeddings is None:
        embeddings = EmbeddingTable(emb_dim, {})
    elif embeddings.dimension != emb_dim:
        raise ValueError("embedding table dimension does not match emb_dim")
    return TaggerModel(
        config=config,
        emb_dim=emb_dim,
        tag_vocab=tuple(tag_vocab),
        pos_vocab=tuple(pos_vocab),
        params=params,
        embeddings=embeddings,
        word_vocab=tuple(word_vocab) if word_vocab else None,
    )


def build_for_corpus(
    config: TaggerConfig,
    corpus: Corpus,
    embeddings: EmbeddingTable | None = None,
    emb_dim: int | None = None,
) -> TaggerModel:
    """Derive vocabularies from a training corpus and build the model."""
    from .corpus import tag_vocabulary
    from .embed import pos_vocabulary

    if not corpus:
        raise TrainingDataError("training corpus is empty")
    if embeddings is not None:
        emb_dim = embeddings.dimension
    elif emb_dim is None:
        raise ValueError("either an embedding table or emb_dim is required")
    tags = tuple(tag_vocabulary(corpus))
    pos = tuple(pos_vocabulary(corpus))
    word_vocab = None
    if config.embedding_mode == "random_trainable":
        forms = sorted({t.form for s in corpus for t in s.tokens})
        word_vocab = (UNK_WORD, *forms)
    return build(
        config,
        emb_dim,
        len(pos),
        len(tags),
        RngStream(config.seed).child(0),
        tag_vocab=tags,
        pos_vocab=pos,
        embeddings=embeddings,
        word_vocab=word_vocab,
    )


def forward(
    model: TaggerModel,
    enc: SentenceEncoding,
    mode: str = "eval",
    rng: RngStream | None = None,
    tape: Tape | None = None,
) -> Tensor:
    """Per-position label scores, n x T. Raw scores for both heads: the
    softmax head normalizes at loss/prediction time. Pass a tape to record
    for backward; without one the pass is pure. Scores that overflowed or
    became NaN raise NonFiniteError."""
    cfg = model.config
    expected = model.emb_dim + N_SHAPE_FEATURES
    if enc.word_input.shape[1] != expected:
        raise ValueError(
            f"word input has {enc.word_input.shape[1]} columns, expected {expected}"
        )
    if enc.pos_input.shape[1] != len(model.pos_vocab):
        raise ValueError("POS input does not match the model's POS vocabulary")

    if cfg.embedding_mode == "random_trainable":
        ids = [model.word_id(form) for form in enc.forms]
        emb_block = gather_rows(model.params["word_table"], ids, tape=tape)
        shape_block = Tensor(enc.word_input[:, model.emb_dim :], tape=tape)
        x = concat_cols([emb_block, shape_block])
    else:
        x = Tensor(enc.word_input, tape=tape)

    activate = ACTIVATIONS[cfg.conv_activation]
    banks = [
        activate(
            conv1d_same(
                x,
                model.params[f"conv{width}_kernels"],
                model.params[f"conv{width}_bias"],
            )
        )
        for width in cfg.filter_widths
    ]
    h = concat_cols(banks + [Tensor(enc.pos_input, tape=tape)])
    h = bilstm(
        h,
        model.lstm("fwd"),
        model.lstm("bwd"),
        dropout=cfg.dropout,
        recurrent_dropout=cfg.recurrent_dropout,
        mode=mode,
        rng=rng,
    )
    scores = dense(h, model.params["proj_w"], model.params["proj_b"])
    if not np.isfinite(scores.data).all():
        raise NonFiniteError("emission scores are not finite (huge or non-finite "
                             "input vectors?)")
    return scores


def _gold_indices(model: TaggerModel, gold: TagSequence) -> np.ndarray:
    indices = []
    for tag in gold:
        idx = model.tag_index.get(tag)
        if idx is None:
            raise TrainingDataError(f"label {tag!r} is not in the tag vocabulary")
        indices.append(idx)
    return np.array(indices, dtype=int)


def loss(
    model: TaggerModel,
    enc: SentenceEncoding,
    gold: TagSequence,
    mode: str = "eval",
    rng: RngStream | None = None,
    tape: Tape | None = None,
) -> Tensor:
    """Mean per-token cross-entropy (softmax head) or sequence NLL (CRF)."""
    if len(gold) != enc.word_input.shape[0]:
        raise TrainingDataError(
            f"{len(gold)} labels for {enc.word_input.shape[0]} tokens"
        )
    indices = _gold_indices(model, gold)
    scores = forward(model, enc, mode=mode, rng=rng, tape=tape)
    if model.config.head == "softmax":
        return cross_entropy(softmax_rows(scores), indices)
    p = model.params
    return crf_nll(scores, p["trans"], p["trans_start"], p["trans_stop"], indices)


def predict(model: TaggerModel, enc: SentenceEncoding) -> TagSequence:
    """Most likely label sequence: row argmax (softmax head) or viterbi path
    (CRF head). Ties go to the lower label index either way."""
    scores = forward(model, enc, mode="eval").data
    if model.config.head == "softmax":
        indices = scores.argmax(axis=1)
    else:
        p = model.params
        indices, _ = viterbi(
            scores, p["trans"].data, p["trans_start"].data, p["trans_stop"].data
        )
    return [model.tag_vocab[i] for i in indices]


def predict_corpus(
    model: TaggerModel, corpus: Corpus, apply_filter: bool = True
) -> Corpus:
    """Re-annotate every sentence with predicted expressions."""
    out = []
    for sentence in corpus:
        enc = encode(sentence, model.embeddings, list(model.pos_vocab))
        tags = predict(model, enc)
        out.append(from_tags(tags, sentence, apply_filter=apply_filter))
    return out


class AdamOptimizer:
    """Bias-corrected moment estimates, one step per batch."""

    def __init__(self, params: list[Tensor], cfg: OptimizerConfig):
        self.params = params
        self.cfg = cfg
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = 0

    def step(self):
        cfg = self.cfg
        self.t += 1
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m[...] = cfg.beta1 * m + (1.0 - cfg.beta1) * g
            v[...] = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
            m_hat = m / (1.0 - cfg.beta1**self.t)
            v_hat = v / (1.0 - cfg.beta2**self.t)
            p.data -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)


def _dev_metrics(model: TaggerModel, dev: Corpus) -> tuple[float, float]:
    correct = total = 0
    predicted = []
    for sentence in dev:
        enc = encode(sentence, model.embeddings, list(model.pos_vocab))
        tags = predict(model, enc)
        gold_tags = to_tags(sentence)
        correct += sum(1 for a, b in zip(tags, gold_tags) if a == b)
        total += len(gold_tags)
        predicted.append(from_tags(tags, sentence, apply_filter=True))
    token_acc = correct / total if total else 0.0
    return token_acc, mwe_scores(dev, predicted).f1


def train(
    model: TaggerModel,
    train_corpus: Corpus,
    dev_corpus: Corpus | None = None,
    config: TaggerConfig | None = None,
) -> tuple[TaggerModel, TrainReport]:
    """Optimize in place and return (best snapshot, report).

    Each epoch visits a seeded shuffle of the sentences in batches; inside a
    batch sentences run in corpus order and their gradients are averaged for
    one optimizer step.
    """
    cfg = config or model.config
    if not train_corpus:
        raise TrainingDataError("training corpus is empty")
    encodings = [
        encode(s, model.embeddings, list(model.pos_vocab)) for s in train_corpus
    ]
    gold = [to_tags(s) for s in train_corpus]
    for tags in gold:
        _gold_indices(model, tags)  # validate up front

    params = model.trainable()
    optimizer = AdamOptimizer(params, cfg.optimizer)
    shuffle_rng = RngStream(cfg.seed).child(1)
    dropout_rng = RngStream(cfg.seed).child(2)
    report = TrainReport()
    best: TaggerModel | None = None
    best_f1 = -1.0

    count = len(train_corpus)
    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        order = shuffle_rng.permutation(count)
        epoch_loss = 0.0
        for lo in range(0, count, cfg.batch_size):
            batch = sorted(order[lo : lo + cfg.batch_size])
            for p in params:
                p.zero_grad()
            for i in batch:
                tape = Tape()
                try:
                    value = loss(
                        model, encodings[i], gold[i], mode="train",
                        rng=dropout_rng, tape=tape,
                    )
                except NonFiniteError as exc:
                    raise NonFiniteError(
                        f"epoch {epoch + 1}, batch {lo // cfg.batch_size + 1}: {exc}"
                    ) from None
                backward(tape, value)
                epoch_loss += value.item()
            for p in params:
                p.grad /= len(batch)
            optimizer.step()
        report.losses.append(epoch_loss / count)
        if dev_corpus is not None:
            token_acc, dev_f1 = _dev_metrics(model, dev_corpus)
            report.dev_token_accuracy.append(token_acc)
            report.dev_mwe_f1.append(dev_f1)
            if dev_f1 > best_f1:
                best_f1 = dev_f1
                best = model.copy()
                report.selected_epoch = epoch
        report.epoch_seconds.append(time.perf_counter() - started)

    if dev_corpus is None or best is None:
        best = model.copy()
        report.selected_epoch = cfg.epochs - 1
    return best, report
