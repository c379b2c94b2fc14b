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

Fitting and tagging score emissions by one path: _collect runs
extract_features over every position of a list of sentences, _feature_ids
maps the strings to ids (a feature unseen in training adds nothing) and
_emissions returns the padded B x n x T block of summed weight rows plus the
dense product. The fit scores its corpus as one block, tag_baseline its
sentence as a one-sentence block.
"""

from __future__ import annotations

import itertools
import math
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


def _slot(d: int, kind: str) -> int:
    """Index of offset d's form ("w"), lemma ("l") or POS ("p") in the
    flat window of _window_values."""
    return 3 * WINDOW.index(d) + "wlp".index(kind)


# The 26 symbolic templates as (prefix, window slots), built once, in feature
# order: the 15 unigram prefixes follow the window's own order.
_UNIGRAM_PREFIXES = tuple(f"{kind}[{_offset_name(d)}]:" for d in WINDOW for kind in "wlp")
_BIGRAMS = tuple(
    (f"{kind}[{_offset_name(a)}]{kind}[{_offset_name(b)}]:", _slot(a, kind), _slot(b, kind))
    for a, b, kind in ((-1, 0, "w"), (-1, 0, "l"), (0, 1, "w"), (0, 1, "l"),
                       (-2, -1, "p"), (-1, 0, "p"), (0, 1, "p"), (1, 2, "p"))
)
_TRIGRAMS = tuple(
    (f"p[{_offset_name(a)}]p[{_offset_name(b)}]p[{_offset_name(c)}]:",
     _slot(a, "p"), _slot(b, "p"), _slot(c, "p"))
    for a, b, c in ((-2, -1, 0), (-1, 0, 1), (0, 1, 2))
)


def _window_values(sentence: Sentence, i: int) -> list[str]:
    """Form, lemma and POS of each offset -2..+2, flat (15 values);
    out-of-range slots read their sentinel three times."""
    n = len(sentence.tokens)
    values = []
    for d in WINDOW:
        j = i + d
        if j < 0:
            name = SENTINELS[max(j, -2)]
            values += (name, name, name)
        elif j >= n:
            name = SENTINELS[min(j - n, 1)]
            values += (name, name, name)
        else:
            token = sentence.tokens[j]
            values += (token.form, token.lemma, token.upos)
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

    v = _window_values(sentence, i)
    features = [prefix + value for prefix, value in zip(_UNIGRAM_PREFIXES, v)]
    features += [f"{prefix}{v[a]}|{v[b]}" for prefix, a, b in _BIGRAMS]
    features += [f"{prefix}{v[a]}|{v[b]}|{v[c]}" for prefix, a, b, c in _TRIGRAMS]

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


def param_shapes(
    feature_count: int, emb_dim: int | None, tag_count: int
) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter of a model with these sizes, in the
    order of its flat vector; the dense block only with an embedding
    dimension (turian)."""
    shapes = {"weights": (feature_count, tag_count)}
    if emb_dim:
        shapes["dense"] = (len(WINDOW) * emb_dim, tag_count)
    shapes["trans"] = (tag_count, tag_count)
    shapes["trans_start"] = shapes["trans_stop"] = (tag_count,)
    return shapes


def _split(w: np.ndarray, shapes: dict[str, tuple[int, ...]]):
    """The weights, dense (None without one), trans, trans_start and
    trans_stop views of w's consecutive slots."""
    views, end = {}, 0
    for name, shape in shapes.items():
        start, end = end, end + math.prod(shape)
        views[name] = w[start:end].reshape(shape)
    return (views["weights"], views.get("dense"), views["trans"],
            views["trans_start"], views["trans_stop"])


@dataclass
class BaselineModel:
    """Every parameter value lives in one contiguous float64 vector, data;
    weights (F x T), dense ((5*dim) x T, turian only, else None), trans,
    trans_start and trans_stop are views of its slots in param_shapes
    order."""

    variant: str
    sigma: float
    tag_vocab: tuple[str, ...]
    feature_index: dict[str, int]
    data: np.ndarray
    emb_dim: int | None = None

    def __post_init__(self):
        shapes = param_shapes(len(self.feature_index), self.emb_dim, len(self.tag_vocab))
        (self.weights, self.dense, self.trans,
         self.trans_start, self.trans_stop) = _split(self.data, shapes)


def _collect(sentences: Corpus, variant: str, table: EmbeddingTable | None):
    """One pass over every position: the 26 feature strings of each, in
    row-major order as one flat list, the turian dense rows stacked (None
    for the standard variant) and the sentence lengths."""
    names, dense_rows = [], []
    for sentence in sentences:
        for i in range(len(sentence.tokens)):
            feats, dense = extract_features(sentence, i, variant, table)
            names += feats
            dense_rows.append(dense)
    dense = np.vstack(dense_rows) if variant == "turian" else None
    return names, dense, np.array([len(s.tokens) for s in sentences])


def _feature_ids(names: list[str], feature_index: dict[str, int]) -> np.ndarray:
    """positions x 26 ids of _collect's strings; an unseen feature gets
    len(feature_index), one past the last weight row."""
    unseen = len(feature_index)
    ids = np.fromiter(
        map(feature_index.get, names, itertools.repeat(unseen)), np.intp, len(names)
    )
    return ids.reshape(-1, SYMBOLIC_TEMPLATE_COUNT)


def _emissions(weights, ids, lengths, dense_w=None, dense=None) -> np.ndarray:
    """Emission scores as the padded B x n x T block, zero past each
    sentence's end: per position the sum of the weight rows of its feature
    ids in template order (an id past the last row adds nothing), plus
    dense @ dense_w."""
    by_template = ids.T
    seen = by_template < len(weights)
    # an unseen id reads row 0 and is zeroed (a model without features has
    # no row 0, and every id is unseen)
    rows = (
        weights[np.where(seen, by_template, 0)]
        if len(weights)
        else np.zeros(seen.shape + weights.shape[1:])
    )
    rows[~seen] = 0.0
    flat = rows.sum(axis=0)
    if dense_w is not None:
        flat += dense @ dense_w
    live = np.arange(lengths.max()) < lengths[:, None]
    block = np.zeros(live.shape + flat.shape[1:])
    block[live] = flat
    return block


@dataclass(frozen=True)
class BaselineTrainOptions:
    max_iterations: int = 500
    grad_tolerance: float = 1e-5
    seed: int = 0


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
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.variant = variant
        self.sigma = sigma
        self.tag_vocab = tuple(tag_vocab or tag_vocabulary(corpus))
        tag_index = {t: k for k, t in enumerate(self.tag_vocab)}

        # the corpus as one padded B x n block: feature ids and dense rows of
        # the real positions in row-major order, lengths, and gold labels (0
        # past each end)
        names, self.dense, self.lengths = _collect(corpus, variant, table)
        self.emb_dim = table.dimension if variant == "turian" else None
        self.feature_index = {name: k for k, name in enumerate(sorted(set(names)))}
        self.ids = _feature_ids(names, self.feature_index)
        self._live = np.arange(self.lengths.max()) < self.lengths[:, None]
        self.gold = np.zeros(self._live.shape, dtype=int)
        self.gold[self._live] = [tag_index[t] for s in corpus for t in to_tags(s)]
        t_count = len(self.tag_vocab)
        # flat g_weights slot of every (position, feature, tag) triple
        self._slots = (self.ids[:, :, None] * t_count + np.arange(t_count)).reshape(-1)

        self.shapes = param_shapes(len(self.feature_index), self.emb_dim, t_count)
        self.size = sum(map(math.prod, self.shapes.values()))

    def split(self, w: np.ndarray):
        return _split(w, self.shapes)

    def _penalty(self, w: np.ndarray) -> float:
        return float(w @ w) / (2.0 * self.sigma**2)

    def loss(self, w: np.ndarray) -> float:
        weights, dense_w, *chain = self.split(w)
        scores = _emissions(weights, self.ids, self.lengths, dense_w, self.dense)
        nll = log_partition(scores, *chain, self.lengths) - score_path(
            scores, *chain, self.gold, self.lengths
        )
        return self._penalty(w) + float(nll.sum())

    def loss_and_grad(self, w: np.ndarray) -> tuple[float, np.ndarray]:
        weights, dense_w, *chain = self.split(w)
        grad = w / self.sigma**2
        g_weights, g_dense, *g_chain = self.split(grad)
        scores = _emissions(weights, self.ids, self.lengths, dense_w, self.dense)
        gamma, xi, log_z = forward_backward(scores, *chain, self.lengths)
        nll = log_z - score_path(scores, *chain, self.gold, self.lengths)
        d_scores, *d_chain = nll_gradient(gamma, xi, self.gold, self.lengths)
        t_count = d_scores.shape[2]
        d_flat = d_scores[self._live]
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
        return BaselineModel(
            variant=self.variant,
            sigma=self.sigma,
            tag_vocab=self.tag_vocab,
            feature_index=dict(self.feature_index),
            data=w.copy(),
            emb_dim=self.emb_dim,
        )

    def pack_model(self, model: BaselineModel) -> np.ndarray:
        return model.data


@dataclass(frozen=True)
class BaselineFit:
    """A fitted model and how its fit ended: the objective and gradient
    max-norm at the returned weights, the L-BFGS iterations taken, and
    whether the gradient max-norm fell under the tolerance (False when the
    iteration cap stopped the fit first, or a stall: no trial step down to
    1e-14 decreased the objective enough, or the accepted one not at all,
    which happens once the decrease is below round-off), and the objective
    evaluations it made: value-only (backtracking trials) and with the
    gradient (the start, each first trial, each point accepted after
    backtracking)."""

    model: BaselineModel
    objective: float
    grad_max_norm: float
    iterations: int
    converged: bool
    value_evaluations: int
    gradient_evaluations: int


LBFGS_HISTORY = 10  # stored (s, y) pairs
INIT_SCALE = 0.01  # the seeded start is uniform in [-INIT_SCALE, INIT_SCALE)
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
    backtracking (Armijo) line search. The first trial of each iteration is
    evaluated with the gradient, which the step reuses when the trial
    passes; each backtracking trial is value-only, and a point accepted
    after backtracking gets one more evaluation with the gradient. Since
    loss and loss_and_grad return the same value bit for bit, the iterates
    are those of a search that evaluates every trial value-only. The
    objective is convex, so at convergence the optimum does not depend on
    the seed, which only jitters the start. An objective value that
    overflows or becomes NaN raises NonFiniteError."""
    options = options or BaselineTrainOptions()
    problem = BaselineProblem(corpus, variant, sigma, table)
    rng = RngStream(options.seed)
    w = rng.uniform(-INIT_SCALE, INIT_SCALE, problem.size)

    def finite(value: float, iteration: int) -> float:
        if not np.isfinite(value):
            raise NonFiniteError(
                f"iteration {iteration}: baseline objective is {value} "
                "(huge or non-finite input vectors?)"
            )
        return value

    pairs: deque = deque(maxlen=LBFGS_HISTORY)
    iterations = value_evals = 0
    grad_evals = 1
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
            first = True
            while step >= 1e-14:
                candidate = w + step * direction
                # most first trials pass, so the first one also takes the
                # gradient; a backtracking trial is value-only
                if first:
                    new_value, new_grad = problem.loss_and_grad(candidate)
                    grad_evals += 1
                    first = False
                else:
                    new_value, new_grad = problem.loss(candidate), None
                    value_evals += 1
                if finite(new_value, iterations + 1) <= value + 1e-4 * step * slope:
                    break
                step *= 0.5
            if step < 1e-14 or new_value >= value:
                break  # stalled
            if new_grad is None:  # accepted after backtracking
                new_value, new_grad = problem.loss_and_grad(candidate)
                grad_evals += 1
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
        value_evaluations=value_evals,
        gradient_evaluations=grad_evals,
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
    """Viterbi decoding of the sentence's emission block, scored as the fit
    scores its corpus. Feature strings unseen in training contribute
    nothing. Scores that overflow (huge dense input vectors) raise
    NonFiniteError."""
    names, dense, lengths = _collect([sentence], model.variant, table)
    ids = _feature_ids(names, model.feature_index)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        scores = _emissions(model.weights, ids, lengths, model.dense, dense)
    if not np.isfinite(scores).all():
        raise NonFiniteError("baseline emission scores are not finite "
                             "(huge or non-finite input vectors?)")
    paths, _ = viterbi(scores, model.trans, model.trans_start, model.trans_stop, lengths)
    return [model.tag_vocab[k] for k in paths[0]]
