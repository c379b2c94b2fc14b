"""Feature-template chain CRF baselines.

Per position i (0-based), 26 symbolic features over the window i-2..i+2:
forms, lemmas and POS at each of the five offsets, form and lemma bigrams
around the center, four POS bigrams, three POS trigrams. Window slots beyond
the sentence read sentinel tokens (BOS2 BOS ... EOS EOS2), so the count is
26 at every position. Lemma placeholders ("_") are used verbatim as values.

The turian variant adds a dense block: the window's five embedding lookups
concatenated (sentinel slots are zero vectors), weighted by one matrix per
window offset.

Emissions are linear in the weights, so the CRF NLL plus the L2 term
1/(2*sigma^2)*||w||^2 (all weights penalized, transitions included) is
convex; training is batch gradient descent with backtracking line search,
stopping when the gradient max-norm drops under the tolerance or at the
iteration cap. Gradients are expected-minus-observed counts from
forward-backward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import RngStream
from .chaincrf import forward_backward, log_partition, nll_gradient, score_path, viterbi
from .corpus import Corpus, Sentence, TagSequence, tag_vocabulary, to_tags
from .embed import EmbeddingTable
from .errors import NonFiniteError, TrainingDataError

WINDOW = (-2, -1, 0, 1, 2)
SENTINELS = {-2: "BOS2", -1: "BOS", 0: "EOS", 1: "EOS2"}
SYMBOLIC_TEMPLATE_COUNT = 26
VARIANTS = ("standard", "turian")


def _offset_name(d: int) -> str:
    return f"{d:+d}" if d else "0"


def _window_values(sentence: Sentence, i: int) -> list[tuple[str, str, str]]:
    """(form, lemma, pos) for offsets -2..+2; out-of-range slots become
    sentinel triples."""
    n = len(sentence.tokens)
    values = []
    for d in WINDOW:
        j = i + d
        if j < 0:
            name = SENTINELS[max(j, -2)]
            values.append((name, name, name))
        elif j >= n:
            name = SENTINELS[min(j - n, 1)]
            values.append((name, name, name))
        else:
            token = sentence.tokens[j]
            values.append((token.form, token.lemma, token.upos))
    return values


def extract_features(
    sentence: Sentence,
    i: int,
    variant: str = "standard",
    table: EmbeddingTable | None = None,
):
    """Features for position i (0-based): a list of exactly 26
    "template:value" strings, plus the dense window block (5*dim values) for
    the turian variant, None otherwise."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if not (0 <= i < len(sentence.tokens)):
        raise ValueError(f"position {i} outside sentence of {len(sentence.tokens)}")
    if variant == "turian" and table is None:
        raise ValueError("turian variant needs an embedding table")

    window = _window_values(sentence, i)
    by_offset = dict(zip(WINDOW, window))
    features = []
    for d in WINDOW:
        form, lemma, pos = by_offset[d]
        off = _offset_name(d)
        features.append(f"w[{off}]:{form}")
        features.append(f"l[{off}]:{lemma}")
        features.append(f"p[{off}]:{pos}")
    for a, b in ((-1, 0), (0, 1)):
        oa, ob = _offset_name(a), _offset_name(b)
        features.append(f"w[{oa}]w[{ob}]:{by_offset[a][0]}|{by_offset[b][0]}")
        features.append(f"l[{oa}]l[{ob}]:{by_offset[a][1]}|{by_offset[b][1]}")
    for a, b in ((-2, -1), (-1, 0), (0, 1), (1, 2)):
        features.append(
            f"p[{_offset_name(a)}]p[{_offset_name(b)}]:"
            f"{by_offset[a][2]}|{by_offset[b][2]}"
        )
    for a, b, c in ((-2, -1, 0), (-1, 0, 1), (0, 1, 2)):
        features.append(
            f"p[{_offset_name(a)}]p[{_offset_name(b)}]p[{_offset_name(c)}]:"
            f"{by_offset[a][2]}|{by_offset[b][2]}|{by_offset[c][2]}"
        )

    dense = None
    if variant == "turian":
        blocks = []
        n = len(sentence.tokens)
        for d in WINDOW:
            j = i + d
            if 0 <= j < n:
                blocks.append(table.lookup(sentence.tokens[j].form))
            else:
                blocks.append(np.zeros(table.dimension))
        dense = np.concatenate(blocks)
    return features, dense


@dataclass
class BaselineModel:
    variant: str
    sigma: float
    tag_vocab: tuple[str, ...]
    feature_index: dict[str, int]
    weights: np.ndarray  # F x T
    trans: np.ndarray
    trans_start: np.ndarray
    trans_stop: np.ndarray
    dense: np.ndarray | None = None  # (5*dim) x T, turian only
    emb_dim: int | None = None

    def dense_weights(self) -> list[np.ndarray] | None:
        """Per-window-offset weight matrices (views into the dense block)."""
        if self.dense is None:
            return None
        return [
            self.dense[k * self.emb_dim : (k + 1) * self.emb_dim]
            for k in range(len(WINDOW))
        ]


@dataclass(frozen=True)
class BaselineTrainOptions:
    max_iterations: int = 500
    grad_tolerance: float = 1e-5
    seed: int = 0
    init_scale: float = 0.01


class BaselineProblem:
    """The regularized training objective as a flat-vector function, for the
    optimizer and for finite-difference checks."""

    def __init__(
        self,
        corpus: Corpus,
        variant: str = "standard",
        sigma: float = 2.0,
        table: EmbeddingTable | None = None,
        tag_vocab: tuple[str, ...] | None = None,
    ):
        if not corpus:
            raise TrainingDataError("training corpus is empty")
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        if variant == "turian" and table is None:
            raise ValueError("turian variant needs an embedding table")
        self.variant = variant
        self.sigma = sigma
        self.tag_vocab = tuple(tag_vocab or tag_vocabulary(corpus))
        tag_index = {t: k for k, t in enumerate(self.tag_vocab)}
        self.emb_dim = table.dimension if variant == "turian" else None

        names: set[str] = set()
        raw = []
        for sentence in corpus:
            rows, dense_rows = [], []
            for i in range(len(sentence.tokens)):
                feats, dense = extract_features(sentence, i, variant, table)
                names.update(feats)
                rows.append(feats)
                if dense is not None:
                    dense_rows.append(dense)
            gold = np.array([tag_index[t] for t in to_tags(sentence)], dtype=int)
            raw.append((rows, dense_rows, gold))
        self.feature_index = {name: k for k, name in enumerate(sorted(names))}

        self.sentences = []
        for rows, dense_rows, gold in raw:
            ids = np.array(
                [[self.feature_index[f] for f in feats] for feats in rows], dtype=int
            )
            dense = np.vstack(dense_rows) if dense_rows else None
            self.sentences.append((ids, dense, gold))

        t_count = len(self.tag_vocab)
        self.f_count = len(self.feature_index)
        self.dense_size = len(WINDOW) * self.emb_dim if self.emb_dim else 0
        self.size = (
            (self.f_count + self.dense_size) * t_count + t_count * t_count + 2 * t_count
        )

    def split(self, w: np.ndarray):
        t = len(self.tag_vocab)
        parts = np.split(
            w,
            np.cumsum(
                [self.f_count * t, self.dense_size * t, t * t, t]
            ),
        )
        return (
            parts[0].reshape(self.f_count, t),
            parts[1].reshape(self.dense_size, t) if self.dense_size else None,
            parts[2].reshape(t, t),
            parts[3],
            parts[4],
        )

    def _emissions(self, weights, dense_w, ids, dense):
        e = weights[ids].sum(axis=1)
        if dense_w is not None:
            e = e + dense @ dense_w
        return e

    def loss(self, w: np.ndarray) -> float:
        weights, dense_w, *chain = self.split(w)
        total = float(w @ w) / (2.0 * self.sigma**2)
        for ids, dense, gold in self.sentences:
            scores = self._emissions(weights, dense_w, ids, dense)
            total += log_partition(scores, *chain) - score_path(scores, *chain, gold)
        return total

    def loss_and_grad(self, w: np.ndarray) -> tuple[float, np.ndarray]:
        weights, dense_w, *chain = self.split(w)
        grad = w / self.sigma**2
        g_weights, g_dense, *g_chain = self.split(grad)
        total = float(w @ w) / (2.0 * self.sigma**2)
        for ids, dense, gold in self.sentences:
            scores = self._emissions(weights, dense_w, ids, dense)
            gamma, xi, log_z = forward_backward(scores, *chain)
            total += log_z - score_path(scores, *chain, gold)
            d_scores, *d_chain = nll_gradient(gamma, xi, gold)
            np.add.at(
                g_weights,
                ids.reshape(-1),
                np.repeat(d_scores, ids.shape[1], axis=0),
            )
            if g_dense is not None:
                g_dense += dense.T @ d_scores
            for g, d in zip(g_chain, d_chain):
                g += d
        return total, grad

    def to_model(self, w: np.ndarray) -> BaselineModel:
        weights, dense_w, trans, start, stop = self.split(w)
        return BaselineModel(
            variant=self.variant,
            sigma=self.sigma,
            tag_vocab=self.tag_vocab,
            feature_index=dict(self.feature_index),
            weights=np.array(weights, copy=True),
            trans=np.array(trans, copy=True),
            trans_start=np.array(start, copy=True),
            trans_stop=np.array(stop, copy=True),
            dense=np.array(dense_w, copy=True) if dense_w is not None else None,
            emb_dim=self.emb_dim,
        )

    def pack_model(self, model: BaselineModel) -> np.ndarray:
        pieces = [model.weights.reshape(-1)]
        if self.dense_size:
            pieces.append(model.dense.reshape(-1))
        pieces += [
            model.trans.reshape(-1),
            model.trans_start,
            model.trans_stop,
        ]
        return np.concatenate(pieces)


def train_baseline(
    corpus: Corpus,
    variant: str = "standard",
    sigma: float = 2.0,
    table: EmbeddingTable | None = None,
    options: BaselineTrainOptions | None = None,
) -> BaselineModel:
    """Minimize the regularized NLL by gradient descent with backtracking
    (Armijo) line search. The objective is convex, so any start point reaches
    the same optimum; the seed only jitters the start. An objective value
    that overflows or becomes NaN raises NonFiniteError."""
    options = options or BaselineTrainOptions()
    problem = BaselineProblem(corpus, variant, sigma, table)
    rng = RngStream(options.seed)
    w = rng.uniform(-options.init_scale, options.init_scale, problem.size)

    def finite(value: float, iteration: int) -> float:
        if not np.isfinite(value):
            raise NonFiniteError(
                f"iteration {iteration}: baseline objective is {value} "
                "(huge or non-finite input vectors?)"
            )
        return value

    value, grad = problem.loss_and_grad(w)
    finite(value, 0)
    step = 1.0
    for iteration in range(1, options.max_iterations + 1):
        if np.abs(grad).max() < options.grad_tolerance:
            break
        descent = float(grad @ grad)
        while True:
            candidate = w - step * grad
            cand_value = finite(problem.loss(candidate), iteration)
            if cand_value <= value - 1e-4 * step * descent:
                break
            step *= 0.5
            if step < 1e-14:
                return problem.to_model(w)  # no further progress possible
        w = candidate
        value, grad = problem.loss_and_grad(w)  # the checked cand_value again
        step = min(step * 2.0, 1.0)
    return problem.to_model(w)


def tag_baseline(
    model: BaselineModel, sentence: Sentence, table: EmbeddingTable | None = None
) -> TagSequence:
    """Viterbi decoding over summed feature weights. Feature strings unseen
    in training contribute nothing. Scores that overflow (huge dense input
    vectors) raise NonFiniteError."""
    if model.variant == "turian" and table is None:
        raise ValueError("turian variant needs an embedding table")
    t_count = len(model.tag_vocab)
    scores = np.zeros((len(sentence.tokens), t_count))
    for i in range(len(sentence.tokens)):
        feats, dense = extract_features(sentence, i, model.variant, table)
        for feature in feats:
            idx = model.feature_index.get(feature)
            if idx is not None:
                scores[i] += model.weights[idx]
        if dense is not None:
            scores[i] += dense @ model.dense
    if not np.isfinite(scores).all():
        raise NonFiniteError("baseline emission scores are not finite "
                             "(huge or non-finite input vectors?)")
    path, _ = viterbi(scores, model.trans, model.trans_start, model.trans_stop)
    return [model.tag_vocab[k] for k in path]
