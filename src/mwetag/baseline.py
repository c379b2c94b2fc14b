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
convex; training is L-BFGS with a backtracking line search, stopping when the
gradient max-norm drops under the tolerance (converged: the optimum is then
seed-independent) or at the iteration cap or a line-search stall (not
converged).
Gradients are expected-minus-observed counts from forward-backward, run once
per objective evaluation over the whole corpus as one padded batch.
"""

from __future__ import annotations

from collections import deque
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

        # the corpus as one padded B x n block: gold labels (0 past each
        # end), lengths, and the feature ids and dense rows of the real
        # positions in row-major order, indexed into the block by _live
        self.lengths = np.array([len(gold) for _, _, gold in raw])
        live = np.arange(self.lengths.max()) < self.lengths[:, None]
        self._live = np.flatnonzero(live)
        self.gold = np.zeros(live.shape, dtype=int)
        self.gold[live] = np.concatenate([gold for _, _, gold in raw])
        self.ids = np.array(
            [[self.feature_index[f] for f in feats] for rows, _, _ in raw for feats in rows],
            dtype=int,
        )
        t_count = len(self.tag_vocab)
        # flat g_weights slot of every (position, feature, tag) triple
        self._slots = (self.ids[:, :, None] * t_count + np.arange(t_count)).reshape(-1)
        self.dense = (
            np.vstack([d for _, dense_rows, _ in raw for d in dense_rows])
            if variant == "turian"
            else None
        )

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

    def _scores(self, weights, dense_w):
        """Emission scores of the whole corpus as the padded B x n x T block
        (zero past each sentence's end)."""
        flat = weights[self.ids].sum(axis=1)
        if dense_w is not None:
            flat += self.dense @ dense_w
        block = np.zeros((self.gold.size, flat.shape[1]))
        block[self._live] = flat
        return block.reshape(*self.gold.shape, -1)

    def _penalty(self, w: np.ndarray) -> float:
        return float(w @ w) / (2.0 * self.sigma**2)

    def loss(self, w: np.ndarray) -> float:
        weights, dense_w, *chain = self.split(w)
        scores = self._scores(weights, dense_w)
        nll = log_partition(scores, *chain, self.lengths) - score_path(
            scores, *chain, self.gold, self.lengths
        )
        return self._penalty(w) + float(nll.sum())

    def loss_and_grad(self, w: np.ndarray) -> tuple[float, np.ndarray]:
        weights, dense_w, *chain = self.split(w)
        grad = w / self.sigma**2
        g_weights, g_dense, *g_chain = self.split(grad)
        scores = self._scores(weights, dense_w)
        gamma, xi, log_z = forward_backward(scores, *chain, self.lengths)
        nll = log_z - score_path(scores, *chain, self.gold, self.lengths)
        d_scores, *d_chain = nll_gradient(gamma, xi, self.gold, self.lengths)
        t_count = d_scores.shape[2]
        d_flat = d_scores.reshape(-1, t_count)[self._live]
        # scatter-add d_flat[p] into g_weights[f] for each feature f at p
        per_slot = np.broadcast_to(d_flat[:, None, :], self.ids.shape + (t_count,))
        g_weights += np.bincount(
            self._slots, weights=per_slot.reshape(-1), minlength=g_weights.size
        ).reshape(g_weights.shape)
        if g_dense is not None:
            g_dense += self.dense.T @ d_flat
        for g, d in zip(g_chain, d_chain):
            g += d
        return self._penalty(w) + float(nll.sum()), grad

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


@dataclass(frozen=True)
class BaselineFit:
    """A fitted model and how its fit ended: the objective and gradient
    max-norm at the returned weights, the L-BFGS iterations taken, and
    whether the gradient max-norm fell under the tolerance (False when the
    iteration cap stopped the fit first, or a stall: no trial step down to
    1e-14 decreased the objective enough, or the accepted one not at all,
    which happens once the decrease is below round-off)."""

    model: BaselineModel
    objective: float
    grad_max_norm: float
    iterations: int
    converged: bool


LBFGS_HISTORY = 10  # stored (s, y) pairs
# a pair whose s.y/y.y (its H0 scale) is at or under this carries no usable
# curvature, only round-off, and is skipped
CURVATURE_EPS = 1e-10


def _lbfgs_direction(grad: np.ndarray, pairs) -> np.ndarray:
    """-H grad by the two-loop recursion over (s, y, 1/(s.y)) pairs, oldest
    first, with H0 = (s.y)/(y.y) from the newest pair (steepest descent
    when there is none)."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * float(s @ q))
        q -= alphas[-1] * y
    if pairs:
        _, y, rho = pairs[-1]
        q /= rho * float(y @ y)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * float(y @ q)) * s
    return -q


def fit_baseline(
    corpus: Corpus,
    variant: str = "standard",
    sigma: float = 2.0,
    table: EmbeddingTable | None = None,
    options: BaselineTrainOptions | None = None,
) -> BaselineFit:
    """Minimize the regularized NLL by L-BFGS (Liu & Nocedal 1989) with a
    backtracking (Armijo) line search: each trial is one value-only
    objective evaluation, the accepted point gets one evaluation with the
    gradient. The objective is convex, so at convergence the optimum does not
    depend on the seed, which only jitters the start. An objective value that
    overflows or becomes NaN raises NonFiniteError."""
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

    pairs: deque = deque(maxlen=LBFGS_HISTORY)
    iterations = 0
    # non-finite values are reported by finite(), not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        value, grad = problem.loss_and_grad(w)
        finite(value, 0)
        while (
            np.abs(grad).max() >= options.grad_tolerance
            and iterations < options.max_iterations
        ):
            direction = _lbfgs_direction(grad, pairs)
            slope = float(grad @ direction)
            if not slope < 0:  # round-off made the curvature model useless
                pairs.clear()
                direction, slope = -grad, -float(grad @ grad)
            # a unit step suits the quasi-Newton direction; without curvature
            # pairs the first trial moves each weight by at most 1
            step = 1.0 if pairs else min(1.0, 1.0 / np.abs(grad).max())
            while step >= 1e-14:
                candidate = w + step * direction
                cand_value = finite(problem.loss(candidate), iterations + 1)
                if cand_value <= value + 1e-4 * step * slope:
                    break
                step *= 0.5
            if step < 1e-14 or cand_value >= value:
                break  # stalled
            new_value, new_grad = problem.loss_and_grad(candidate)  # cand_value again
            s, y = candidate - w, new_grad - grad
            sy = float(s @ y)
            if sy > CURVATURE_EPS * float(y @ y):
                pairs.append((s, y, 1.0 / sy))
            w, value, grad = candidate, new_value, new_grad
            iterations += 1
    grad_max_norm = float(np.abs(grad).max())
    return BaselineFit(
        model=problem.to_model(w),
        objective=value,
        grad_max_norm=grad_max_norm,
        iterations=iterations,
        converged=grad_max_norm < options.grad_tolerance,
    )


def train_baseline(
    corpus: Corpus,
    variant: str = "standard",
    sigma: float = 2.0,
    table: EmbeddingTable | None = None,
    options: BaselineTrainOptions | None = None,
) -> BaselineModel:
    """The model that fit_baseline fits (L-BFGS to the gradient tolerance or
    the iteration cap)."""
    return fit_baseline(corpus, variant, sigma, table, options).model


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
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                scores[i] += dense @ model.dense
    if not np.isfinite(scores).all():
        raise NonFiniteError("baseline emission scores are not finite "
                             "(huge or non-finite input vectors?)")
    path, _ = viterbi(scores, model.trans, model.trans_start, model.trans_stop)
    return [model.tag_vocab[k] for k in path]
