"""ConvNet + BiLSTM sequence tagger with a softmax or chain-CRF head (HEADS).

The network runs on a padded batch of B sentences, an embed.Batch that
embed.encode builds from them right before the pass; no encoding is kept
beyond its batch. The word input (embedding + shape features,
B x n x (dim+7), zero past each sentence's end) runs through one ReLU
convolution bank per filter width in FILTER_WIDTHS, the banks' activations
are concatenated together with the POS one-hot block, a bidirectional LSTM
with variational dropout reads each sentence up to its length, and a dense
projection maps each position to per-label scores. The softmax head trains
with each sentence's mean cross-entropy and predicts by row argmax; the CRF
head trains with sequence NLL and predicts with viterbi. A batch's loss is
the sum of its sentences' losses.

The network is one fixed chain of autodiff stages on plain arrays: the
conv banks, the BiLSTM, the projection and the loss. A training pass
records each stage's backward closure on a Tape, and backward walks them in
reverse, writing every parameter's gradient into its slot of the model's
gradient vector. Pretrained embeddings are read through the encoding and
never updated: neither the word input nor the POS one-hot gets a gradient.

Training is plain stochastic optimization with Adam at its standard
constants (Kingma & Ba 2015): seeded epoch shuffle, one forward pass, tape
and step per batch, gradients averaged over the batch. A training pass hands
the BiLSTM a seeded dropout stream, from which it draws its masks at the
rates autodiff.DROPOUT and autodiff.RECURRENT_DROPOUT; an evaluation pass
hands it none and draws no masks. All parameters share one flat value
vector and all gradients a second one (TaggerModel), so zeroing, averaging
and the Adam step each run over one vector, the step in cache-sized chunks
(half of them on a second thread when the process may use two CPUs).
Within one training batch, sentences are encoded and stacked in corpus
order, which makes a full-batch run independent of the shuffle. With a dev
corpus, which must not be empty, the returned snapshot is the epoch with the
best evaluate MWE-based F1 on dev (ties to the earlier epoch); without one,
the final state. Tagging, dev scoring included, encodes and runs batch_size
sentences per forward pass, in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import autodiff
from .autodiff import (
    LstmParams,
    Param,
    RngStream,
    Tape,
    backward,
    bilstm,
    conv1d_same,
    dense,
    softmax_cross_entropy,
)
from .chaincrf import crf_nll, viterbi
from .corpus import Corpus, TagSequence, from_tags, tag_vocabulary, to_tags
from .embed import N_SHAPE_FEATURES, Batch, EmbeddingTable, encode, pos_vocabulary
from .errors import NonFiniteError, TrainingDataError
from .evaluation import evaluate

FILTER_WIDTHS = (2, 3)  # one ReLU convolution bank per width
# Adam's standard moment decay rates and denominator guard
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8
# values per pass of the Adam step: a chunk of each of the six vectors the
# step touches (0.8 MB in all) stays in cache between its 14 passes
ADAM_CHUNK = 16_384
HEADS = ("softmax", "crf")  # a tagger's output layer: TaggerConfig.head


@dataclass(frozen=True)
class TaggerConfig:
    filters_per_width: int = 200
    lstm_hidden: int = 300  # per direction
    head: str = "crf"
    epochs: int = 100
    learning_rate: float = 0.001
    batch_size: int = 32
    seed: int = 1

    def __post_init__(self):
        # a model file's config arrives as JSON: 2.5, "3" or true is no int
        for name in ("filters_per_width", "lstm_hidden", "epochs", "batch_size", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        rate = self.learning_rate
        if not isinstance(rate, (int, float)) or isinstance(rate, bool):
            raise ValueError(f"learning_rate must be a number, not {rate!r}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.filters_per_width < 1 or self.lstm_hidden < 1:
            raise ValueError("layer sizes must be positive")
        if not self.learning_rate > 0.0:
            raise ValueError("learning_rate must be positive")
        if self.head not in HEADS:
            raise ValueError(f"unknown head {self.head!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")


@dataclass(eq=False)
class TaggerModel:
    """Every parameter value lives in one contiguous float64 vector, data
    (zeros unless given), and every gradient in a second one, grad. Each
    params[name] Param's .data and .grad are views of one slot of them, the
    slots laid out in param_shapes order without overlap."""

    config: TaggerConfig
    emb_dim: int
    tag_vocab: tuple[str, ...]
    pos_vocab: tuple[str, ...]
    # the pretrained table is referenced for encoding, never trained
    embeddings: EmbeddingTable
    data: np.ndarray | None = None

    def __post_init__(self):
        self.tag_index = {tag: i for i, tag in enumerate(self.tag_vocab)}
        shapes = param_shapes(self.config, self.emb_dim, len(self.pos_vocab),
                              len(self.tag_vocab))
        if self.data is None:
            self.data = np.zeros(sum(map(math.prod, shapes.values())))
        self.grad = np.zeros(self.data.shape)
        self.params: dict[str, Param] = {}
        end = 0
        for name, shape in shapes.items():
            start, end = end, end + math.prod(shape)
            self.params[name] = Param(self.data[start:end].reshape(shape),
                                      self.grad[start:end].reshape(shape))

    def lstm(self, direction: str) -> LstmParams:
        return LstmParams(
            wx=self.params[f"lstm_{direction}_wx"],
            wh=self.params[f"lstm_{direction}_wh"],
            b=self.params[f"lstm_{direction}_b"],
        )

    def copy(self) -> "TaggerModel":
        return replace(self, data=self.data.copy())


@dataclass
class TrainReport:
    losses: list[float] = field(default_factory=list)
    dev_token_accuracy: list[float] = field(default_factory=list)
    dev_mwe_f1: list[float] = field(default_factory=list)
    selected_epoch: int = -1  # 0-based index into the lists


def _glorot(rng: RngStream, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)


def param_shapes(
    config: TaggerConfig, emb_dim: int, pos_count: int, tag_count: int
) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter of a model with these sizes, in the
    order build draws them."""
    in_dim = emb_dim + N_SHAPE_FEATURES
    f_count = config.filters_per_width
    hidden = config.lstm_hidden
    shapes: dict[str, tuple[int, ...]] = {}
    for width in FILTER_WIDTHS:
        shapes[f"conv{width}_kernels"] = (f_count, width, in_dim)
        shapes[f"conv{width}_bias"] = (f_count,)
    lstm_in = f_count * len(FILTER_WIDTHS) + pos_count
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
    return shapes


def build(
    config: TaggerConfig,
    embeddings: EmbeddingTable,
    tag_vocab: tuple[str, ...],
    pos_vocab: tuple[str, ...],
    rng: RngStream,
) -> TaggerModel:
    """Initialize a model over the pretrained table and the vocabularies,
    which fix its sizes: weight matrices with uniform fan-scaled draws from
    rng (in a fixed order, so a seed fully determines the parameters), biases
    and CRF transitions at zero."""
    if min(embeddings.dimension, len(pos_vocab), len(tag_vocab)) < 1:
        raise ValueError("build needs a positive dimension and non-empty vocabularies")
    model = TaggerModel(
        config=config,
        emb_dim=embeddings.dimension,
        tag_vocab=tuple(tag_vocab),
        pos_vocab=tuple(pos_vocab),
        embeddings=embeddings,
    )
    for name, (data, _) in model.params.items():
        if data.ndim == 3:  # conv kernels, filters x width x channels
            f_count, width, in_dim = data.shape
            data[...] = _glorot(rng, data.shape, width * in_dim, width * f_count)
        elif data.ndim == 2 and name != "trans":
            data[...] = _glorot(rng, data.shape, *data.shape)
    return model


def build_for_corpus(
    config: TaggerConfig, corpus: Corpus, embeddings: EmbeddingTable
) -> TaggerModel:
    """Derive vocabularies from a training corpus and build the model over
    the pretrained table."""
    if not corpus:
        raise TrainingDataError("training corpus is empty")
    return build(
        config,
        embeddings,
        tuple(tag_vocabulary(corpus)),
        tuple(pos_vocabulary(corpus)),
        RngStream(config.seed).child(0),
    )


def forward(
    model: TaggerModel,
    inputs: Batch,
    rng: RngStream | None = None,
    tape: Tape | None = None,
) -> np.ndarray:
    """Per-position label scores of a padded batch, B x n x T (rows past a
    sentence's end are not its scores). Raw scores for both heads: the
    softmax head normalizes at loss/prediction time. Pass a dropout stream
    rng for the BiLSTM to draw its masks from, and a tape to record the
    stages on for backward; with neither the pass is pure. Scores that
    overflowed or became NaN raise NonFiniteError."""
    p = model.params
    width, expected = inputs.word_input.shape[-1], model.emb_dim + N_SHAPE_FEATURES
    if width != expected:
        raise ValueError(f"word input has {width} columns, expected {expected}")
    if inputs.pos_input.shape[-1] != len(model.pos_vocab):
        raise ValueError("POS input does not match the model's POS vocabulary")

    # overflow shows up as the NonFiniteError below, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        banks, bank_tapes = [], []
        for w in FILTER_WIDTHS:
            bank_tapes.append(None if tape is None else Tape())
            pre = conv1d_same(inputs.word_input, p[f"conv{w}_kernels"],
                              p[f"conv{w}_bias"], bank_tapes[-1])
            banks.append(np.maximum(pre, 0.0))
        h = np.concatenate(banks + [inputs.pos_input], axis=-1)
        if tape is not None:
            tape.record(partial(_banks_backward, [b > 0 for b in banks], bank_tapes))
        h = bilstm(h, model.lstm("fwd"), model.lstm("bwd"), inputs.lengths, rng, tape)
        scores = dense(h, p["proj_w"], p["proj_b"], tape)
    if not np.isfinite(scores).all():
        raise NonFiniteError("emission scores are not finite (huge or non-finite "
                             "input vectors?)")
    return scores


def _banks_backward(active: list, bank_tapes: list, g: np.ndarray) -> None:
    """The stage of the ReLU conv banks and their concatenation with the POS
    one-hot: given the gradient of the BiLSTM input, runs each bank's own
    tape on the bank's columns of it, zero where the ReLU was off. The POS
    columns are a network input and take no gradient."""
    lo = 0
    for on, bank_tape in zip(active, bank_tapes):
        hi = lo + on.shape[-1]
        backward(bank_tape, np.where(on, g[..., lo:hi], 0.0))
        lo = hi


def _gold_indices(model: TaggerModel, gold: TagSequence) -> list[int]:
    unknown = [tag for tag in gold if tag not in model.tag_index]
    if unknown:
        raise TrainingDataError(f"label {unknown[0]!r} is not in the tag vocabulary")
    return [model.tag_index[tag] for tag in gold]


def loss(
    model: TaggerModel,
    inputs: Batch,
    golds: list[TagSequence],
    rng: RngStream | None = None,
    tape: Tape | None = None,
) -> float:
    """Mean per-token cross-entropy (softmax head) or sequence NLL (CRF) of
    each sentence of a batch against its tag sequence, summed over the
    batch; rng and tape are forward's, and the tape's last stage is the
    loss."""
    indices = np.zeros(inputs.word_input.shape[:-1], dtype=int)
    for row, tags, length in zip(indices, golds, inputs.lengths, strict=True):
        if len(tags) != length:
            raise TrainingDataError(f"{len(tags)} labels for {length} tokens")
        row[:length] = _gold_indices(model, tags)
    scores = forward(model, inputs, rng, tape)
    if model.config.head == "softmax":
        return softmax_cross_entropy(scores, indices, inputs.lengths, tape)
    chain = [model.params[name] for name in ("trans", "trans_start", "trans_stop")]
    return crf_nll(scores, *chain, indices, inputs.lengths, tape)


def predict(model: TaggerModel, sentences: Corpus) -> list[TagSequence]:
    """Most likely label sequence of every sentence, batch_size sentences
    encoded per forward pass: row argmax (softmax head) or viterbi path (CRF
    head). Ties go to the lower label index either way."""
    p, vocab, size = model.params, model.tag_vocab, model.config.batch_size
    tags = []
    for lo in range(0, len(sentences), size):
        batch = encode(sentences[lo : lo + size], model.embeddings, model.pos_vocab)
        scores = forward(model, batch)
        if model.config.head == "softmax":
            paths = scores.argmax(axis=-1)
        else:
            paths, _ = viterbi(scores, p["trans"].data, p["trans_start"].data,
                               p["trans_stop"].data, batch.lengths)
        tags += [[vocab[i] for i in path[:n]] for path, n in zip(paths, batch.lengths)]
    return tags


def predict_corpus(
    model: TaggerModel, corpus: Corpus, apply_filter: bool = True
) -> Corpus:
    """Re-annotate every sentence with predicted expressions."""
    tagged = predict(model, corpus)
    return [
        from_tags(tags, sentence, apply_filter=apply_filter)
        for tags, sentence in zip(tagged, corpus)
    ]


class AdamOptimizer:
    """Bias-corrected moment estimates, one step per batch, over a model's
    flat parameter and gradient vectors.

    The step updates m, v and the parameters in place, ADAM_CHUNK values at
    a time through a pair of chunk-sized scratch buffers, so each chunk
    stays in cache across the step's passes and nothing is allocated per
    step. Its operations and their order are those of the textbook
    expressions m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
    p -= (lr * m_hat) / (sqrt(v_hat) + eps), so every bit matches them.

    When the vectors span two chunks or more, autodiff._both steps the
    first half of the chunks and the rest, each through a scratch pair of
    its own, on two threads where the process may use two CPUs. Every value
    still goes through the same operations in the same order, so the bits
    are the same either way. One chunk is stepped here.
    """

    def __init__(self, data: np.ndarray, grad: np.ndarray, learning_rate: float):
        self.data, self.grad = data, grad
        self.learning_rate = learning_rate
        self.m = np.zeros(data.shape)
        self.v = np.zeros(data.shape)
        self.t = 0
        # one pair per half, both allocated here so the second thread
        # allocates no arrays
        self._scratch = [(np.empty(ADAM_CHUNK), np.empty(ADAM_CHUNK)) for _ in range(2)]

    def step(self):
        self.t += 1
        chunks = range(0, self.data.size, ADAM_CHUNK)
        half = len(chunks) // 2
        update = partial(self._update, 1.0 - ADAM_BETA1**self.t, 1.0 - ADAM_BETA2**self.t)
        if half:
            autodiff._both(lambda: partial(update, chunks[:half], self._scratch[0]),
                           lambda: partial(update, chunks[half:], self._scratch[1]))
        else:
            update(chunks, self._scratch[0])

    def _update(self, m_scale: float, v_scale: float, chunks: range, scratch):
        """The step over the chunks starting at the given offsets. It calls
        numpy only: it may run on a second thread, where a call into a
        function that a tracer wraps would use the tracer's one span stack
        from two threads at once."""
        vectors = (self.data, self.grad, self.m, self.v)
        for lo in chunks:
            p, g, m, v = (x[lo : lo + ADAM_CHUNK] for x in vectors)
            a, b = (s[: g.size] for s in scratch)
            np.multiply(m, ADAM_BETA1, out=m)
            np.multiply(g, 1.0 - ADAM_BETA1, out=a)
            np.add(m, a, out=m)
            np.multiply(v, ADAM_BETA2, out=v)
            np.multiply(g, 1.0 - ADAM_BETA2, out=a)
            np.multiply(a, g, out=a)
            np.add(v, a, out=v)
            np.divide(m, m_scale, out=a)  # m_hat
            np.divide(v, v_scale, out=b)  # v_hat
            np.sqrt(b, out=b)
            np.add(b, ADAM_EPSILON, out=b)
            np.multiply(a, self.learning_rate, out=a)
            np.divide(a, b, out=a)
            np.subtract(p, a, out=p)


def _dev_metrics(
    model: TaggerModel, dev: Corpus, gold: list[TagSequence]
) -> tuple[float, float]:
    tagged = predict(model, dev)
    pairs = [(a, b) for tags, labels in zip(tagged, gold) for a, b in zip(tags, labels)]
    token_acc = sum(a == b for a, b in pairs) / len(pairs) if pairs else 0.0
    predicted = [from_tags(tags, s, apply_filter=True) for tags, s in zip(tagged, dev)]
    return token_acc, evaluate(dev, predicted).mwe.f1


def train(
    model: TaggerModel,
    train_corpus: Corpus,
    dev_corpus: Corpus | None = None,
) -> tuple[TaggerModel, TrainReport]:
    """Optimize in place and return (selected model, report): with a dev
    corpus, a copy of the model after the epoch of highest dev MWE F1 (the
    earlier epoch on a tie); without one, the trained model itself.

    Each epoch visits a seeded shuffle of the sentences in batches; a batch
    stacks its sentences in corpus order, and the gradient of its summed loss
    over the batch size makes one optimizer step.
    """
    cfg = model.config
    if not train_corpus:
        raise TrainingDataError("training corpus is empty")
    if dev_corpus is not None and not dev_corpus:
        raise TrainingDataError("dev corpus is empty")
    gold = [to_tags(s) for s in train_corpus]
    dev_gold = [to_tags(s) for s in dev_corpus or ()]
    for tags in gold:
        _gold_indices(model, tags)  # validate up front

    optimizer = AdamOptimizer(model.data, model.grad, cfg.learning_rate)
    shuffle_rng = RngStream(cfg.seed).child(1)
    dropout_rng = RngStream(cfg.seed).child(2)
    report = TrainReport()
    best: TaggerModel | None = None
    best_f1 = -1.0

    count = len(train_corpus)
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(count)
        epoch_loss = 0.0
        for lo in range(0, count, cfg.batch_size):
            batch = sorted(order[lo : lo + cfg.batch_size])
            inputs = encode([train_corpus[i] for i in batch], model.embeddings,
                            model.pos_vocab)
            tape = Tape()
            try:
                value = loss(model, inputs, [gold[i] for i in batch], dropout_rng, tape)
            except NonFiniteError as exc:
                raise NonFiniteError(
                    f"epoch {epoch + 1}, batch {lo // cfg.batch_size + 1}: {exc}"
                ) from None
            backward(tape)  # writes every slot of model.grad
            epoch_loss += value
            model.grad /= len(batch)
            optimizer.step()
        report.losses.append(epoch_loss / count)
        if dev_corpus is not None:
            token_acc, dev_f1 = _dev_metrics(model, dev_corpus, dev_gold)
            report.dev_token_accuracy.append(token_acc)
            report.dev_mwe_f1.append(dev_f1)
            if dev_f1 > best_f1:
                best_f1 = dev_f1
                best = model.copy()
                report.selected_epoch = epoch

    if best is None:
        best = model
        report.selected_epoch = cfg.epochs - 1
    return best, report
