"""ConvNet + BiLSTM sequence tagger with a softmax or chain-CRF head.

The network runs on a padded batch of sentences; one sentence is the B = 1
case of the same code. The word input (embedding + shape features,
B x n x (dim+7), zero past each sentence's end) runs through one convolution
bank per filter width, the banks' activations are concatenated together with
the POS one-hot block, a bidirectional LSTM reads each sentence up to its
length, and a dense projection maps each position to per-label scores. The
softmax head trains with each sentence's mean cross-entropy and predicts by
row argmax; the CRF head trains with sequence NLL and predicts with viterbi.
A batch's loss is the sum of its sentences' losses.

Pretrained embeddings are read through the encoding and never updated. The
random_trainable mode instead learns an embedding matrix over the training
vocabulary (unknown index 0), gathered per token at forward time; the shape
feature columns stay as computed.

Training is plain stochastic optimization with a moment-based (Adam-style)
optimizer: seeded epoch shuffle, one forward pass, tape and step per batch,
gradients averaged over the batch. Within one batch, sentences are stacked in
corpus order, which makes a full-batch run independent of the shuffle. With a
dev corpus, the returned snapshot is the epoch with the best dev MWE-based F1
(ties to the earlier epoch); without one, the final state. Tagging runs
batch_size sentences per forward pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

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
from .embed import N_SHAPE_FEATURES, Batch, EmbeddingTable, SentenceEncoding, encode
from .embed import pad
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
        params = {name: param(p.data.copy()) for name, p in self.params.items()}
        return replace(self, params=params)


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


def _encode(model: TaggerModel, sentence) -> SentenceEncoding:
    # a random_trainable model gathers its own rows in forward
    pretrained = model.config.embedding_mode == "pretrained"
    return encode(sentence, model.embeddings, list(model.pos_vocab), lookup=pretrained)


def _word_ids(model: TaggerModel, inputs: SentenceEncoding | Batch) -> np.ndarray:
    """Word-table row of every token; -1 (a zero row) past a sentence's end."""
    sentences = (inputs.forms,) if inputs.lengths is None else inputs.forms
    ids = np.full((len(sentences), inputs.word_input.shape[-2]), -1)
    for row, forms in zip(ids, sentences):
        row[: len(forms)] = [model.word_id(form) for form in forms]
    return ids.reshape(inputs.word_input.shape[:-1])


def forward(
    model: TaggerModel,
    inputs: SentenceEncoding | Batch,
    mode: str = "eval",
    rng: RngStream | None = None,
    tape: Tape | None = None,
) -> Tensor:
    """Per-position label scores: n x T for one sentence, B x n x T for a
    padded batch (rows past a sentence's end are not its scores). Raw scores
    for both heads: the softmax head normalizes at loss/prediction time. Pass
    a tape to record for backward; without one the pass is pure. Scores that
    overflowed or became NaN raise NonFiniteError."""
    cfg, p = model.config, model.params
    width, expected = inputs.word_input.shape[-1], model.emb_dim + N_SHAPE_FEATURES
    if width != expected:
        raise ValueError(f"word input has {width} columns, expected {expected}")
    if inputs.pos_input.shape[-1] != len(model.pos_vocab):
        raise ValueError("POS input does not match the model's POS vocabulary")

    if cfg.embedding_mode == "random_trainable":
        emb_block = gather_rows(p["word_table"], _word_ids(model, inputs), tape=tape)
        shape_block = Tensor(inputs.word_input[..., model.emb_dim :], tape=tape)
        x = concat_cols([emb_block, shape_block])
    else:
        x = Tensor(inputs.word_input, tape=tape)

    activate = ACTIVATIONS[cfg.conv_activation]
    # overflow shows up as the NonFiniteError below, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        banks = [
            activate(conv1d_same(x, p[f"conv{w}_kernels"], p[f"conv{w}_bias"]))
            for w in cfg.filter_widths
        ]
        h = concat_cols(banks + [Tensor(inputs.pos_input, tape=tape)])
        h = bilstm(h, model.lstm("fwd"), model.lstm("bwd"), cfg.dropout,
                   cfg.recurrent_dropout, mode, rng, inputs.lengths)
        scores = dense(h, p["proj_w"], p["proj_b"])
    if not np.isfinite(scores.data).all():
        raise NonFiniteError("emission scores are not finite (huge or non-finite "
                             "input vectors?)")
    return scores


def _gold_indices(model: TaggerModel, gold: TagSequence) -> list[int]:
    unknown = [tag for tag in gold if tag not in model.tag_index]
    if unknown:
        raise TrainingDataError(f"label {unknown[0]!r} is not in the tag vocabulary")
    return [model.tag_index[tag] for tag in gold]


def loss(
    model: TaggerModel,
    inputs: SentenceEncoding | Batch,
    gold,
    mode: str = "eval",
    rng: RngStream | None = None,
    tape: Tape | None = None,
) -> Tensor:
    """Mean per-token cross-entropy (softmax head) or sequence NLL (CRF) of
    one sentence and its tag sequence; for a batch and a list of tag
    sequences, the sum of the sentences' values."""
    golds = [gold] if inputs.lengths is None else gold
    lengths = [len(inputs.word_input)] if inputs.lengths is None else inputs.lengths
    indices = np.zeros(inputs.word_input.shape[:-1], dtype=int)
    for row, tags, length in zip(indices.reshape(len(golds), -1), golds, lengths):
        if len(tags) != length:
            raise TrainingDataError(f"{len(tags)} labels for {length} tokens")
        row[:length] = _gold_indices(model, tags)
    scores = forward(model, inputs, mode=mode, rng=rng, tape=tape)
    if model.config.head == "softmax":
        return cross_entropy(softmax_rows(scores), indices, inputs.lengths)
    chain = [model.params[name] for name in ("trans", "trans_start", "trans_stop")]
    return crf_nll(scores, *chain, indices, inputs.lengths)


def _predict_batch(model: TaggerModel, batch: Batch) -> list[TagSequence]:
    scores = forward(model, batch).data
    if model.config.head == "softmax":
        paths = scores.argmax(axis=-1)
    else:
        p = model.params
        paths, _ = viterbi(scores, p["trans"].data, p["trans_start"].data,
                           p["trans_stop"].data, batch.lengths)
    vocab = model.tag_vocab
    return [[vocab[i] for i in path[:n]] for path, n in zip(paths, batch.lengths)]


def predict(model: TaggerModel, enc: SentenceEncoding) -> TagSequence:
    """Most likely label sequence: row argmax (softmax head) or viterbi path
    (CRF head). Ties go to the lower label index either way."""
    return _predict_batch(model, pad([enc]))[0]


def _predict_tags(model: TaggerModel, corpus: Corpus) -> list[TagSequence]:
    """predict for every sentence, batch_size sentences at a time."""
    size = model.config.batch_size
    tags = []
    for lo in range(0, len(corpus), size):
        batch = pad([_encode(model, s) for s in corpus[lo : lo + size]])
        tags += _predict_batch(model, batch)
    return tags


def predict_corpus(
    model: TaggerModel, corpus: Corpus, apply_filter: bool = True
) -> Corpus:
    """Re-annotate every sentence with predicted expressions."""
    return [
        from_tags(tags, sentence, apply_filter=apply_filter)
        for tags, sentence in zip(_predict_tags(model, corpus), corpus)
    ]


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
    tagged = _predict_tags(model, dev)
    pairs = [(a, b) for tags, s in zip(tagged, dev) for a, b in zip(tags, to_tags(s))]
    token_acc = sum(a == b for a, b in pairs) / len(pairs) if pairs else 0.0
    predicted = [from_tags(tags, s, apply_filter=True) for tags, s in zip(tagged, dev)]
    return token_acc, mwe_scores(dev, predicted).f1


def train(
    model: TaggerModel,
    train_corpus: Corpus,
    dev_corpus: Corpus | None = None,
    config: TaggerConfig | None = None,
) -> tuple[TaggerModel, TrainReport]:
    """Optimize in place and return (best snapshot, report).

    Each epoch visits a seeded shuffle of the sentences in batches; a batch
    stacks its sentences in corpus order, and the gradient of its summed loss
    over the batch size makes one optimizer step.
    """
    cfg = config or model.config
    if not train_corpus:
        raise TrainingDataError("training corpus is empty")
    encodings = [_encode(model, s) for s in train_corpus]
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
            tape = Tape()
            try:
                value = loss(
                    model, pad([encodings[i] for i in batch]), [gold[i] for i in batch],
                    mode="train", rng=dropout_rng, tape=tape,
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
