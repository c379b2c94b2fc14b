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

The fit names features by their strings: _collect runs extract_features
over every position of its corpus and _feature_ids maps the strings to ids.
Tagging gets the same ids without strings: a model's tag index, built from
feature_index on the first tag, codes each token's form, lemma and POS and
looks the window's 26 integer keys up by one searchsorted. A feature unseen
in training adds nothing on either path. Both take each sentence's turian
block from _dense_rows (extract_features one row of it) and score through
_emissions, which returns the padded B x n x T block of summed weight rows
plus the dense product: the fit scores its corpus as one block,
tag_baseline its sentence as a one-sentence block.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .autodiff import RngStream
from .chaincrf import forward_backward, log_partition, nll_gradient, score_path, viterbi
from .corpus import Corpus, Sentence, TagSequence, tag_vocabulary, to_tags
from .embed import EmbeddingTable
from .errors import DataError, NonFiniteError, TrainingDataError

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


def _template(kind: str, offsets: tuple[int, ...]):
    """(prefix, window slots) of the template over the given kind at the
    given offsets."""
    slots = tuple(_slot(d, kind) for d in offsets)
    return "".join(f"{kind}[{_offset_name(d)}]" for d in offsets) + ":", slots


# The 26 symbolic templates, built once, in feature order: the 15 unigrams
# follow the window's own order. extract_features and the tag index both
# read this table.
_TEMPLATES = (
    *(_template(kind, (d,)) for d in WINDOW for kind in "wlp"),
    *(_template(kind, (a, b)) for a, b, kind in (
        (-1, 0, "w"), (-1, 0, "l"), (0, 1, "w"), (0, 1, "l"),
        (-2, -1, "p"), (-1, 0, "p"), (0, 1, "p"), (1, 2, "p"))),
    *(_template("p", offsets) for offsets in ((-2, -1, 0), (-1, 0, 1), (0, 1, 2))),
)
# extract_features' view of the table: the unigrams, which come first, by
# their slot, then the n-grams by a reader of their slots' values
_UNIGRAMS = tuple((prefix, slots[0]) for prefix, slots in _TEMPLATES if len(slots) == 1)
_NGRAMS = tuple(
    (prefix, operator.itemgetter(*slots)) for prefix, slots in _TEMPLATES if len(slots) > 1
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
    dense = _dense_rows(sentence, table)[i] if variant == "turian" else None

    v = _window_values(sentence, i)
    features = [prefix + v[slot] for prefix, slot in _UNIGRAMS]
    features += [prefix + "|".join(read(v)) for prefix, read in _NGRAMS]
    return features, dense


def _dense_rows(sentence: Sentence, table: EmbeddingTable | None) -> np.ndarray:
    """The sentence's n x 5*dim turian block: row i is the table's lookups
    of position i's window, zero vectors past the sentence's ends."""
    if table is None:
        raise ValueError("turian variant needs an embedding table")
    n = len(sentence.tokens)
    # the lookups between two zero vectors at each end: position i's window
    # is the 5 rows from row i on
    vectors = np.zeros((n + 4, table.dimension))
    for j, token in enumerate(sentence.tokens):
        vectors[j + 2] = table.lookup(token.form)
    windows = np.arange(n)[:, None] + np.arange(len(WINDOW))
    return vectors[windows].reshape(n, len(WINDOW) * table.dimension)


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


# past every key: a key space must fit under it
_KEY_END = np.iinfo(np.int64).max


def _key_layout(sizes: tuple[int, int, int]):
    """Offsets (26,) and 15 x 26 slot multipliers of the template keys, for
    these code counts of the form, lemma and POS columns: a key is its
    template's offset plus the mixed-radix number its values' codes spell,
    so distinct (template, codes) pairs get distinct keys. A key space past
    int64 is refused."""
    offsets, total = [], 0
    multipliers = np.zeros((3 * len(WINDOW), len(_TEMPLATES)), np.int64)
    for t, (_, slots) in enumerate(_TEMPLATES):
        radix = sizes[slots[0] % 3]
        offsets.append(total)
        total += radix ** len(slots)
        if total > _KEY_END:
            raise DataError(
                f"the baseline model's feature values need more than {_KEY_END} "
                f"keys, past int64 (form, lemma and POS code counts {sizes})"
            )
        for place, s in enumerate(slots):
            multipliers[s, t] = radix ** (len(slots) - 1 - place)
    return np.array(offsets, np.int64), multipliers


class _TagIndex:
    """A feature_index as sorted int64 keys, for tagging without feature
    strings. Each column (form, lemma, POS) codes the values that the names
    hold in its slots, and its next code stands for every other value. A
    multi-slot name's value text is cut at "|" in every way that gives its
    template's arity, and each cut's key maps to the name's id: a window
    then matches a name exactly when its "|"-joined values spell the name,
    as extract_features' strings do. A name that no template can produce
    gets no key."""

    def __init__(self, feature_index: dict[str, int]):
        templates = {prefix: t for t, (prefix, _) in enumerate(_TEMPLATES)}
        self.columns = ({}, {}, {})
        entries = []  # (template, codes of one cut, feature id)
        for name, k in feature_index.items():
            # a template's prefix ends at the first ":" of each name it makes
            head, colon, text = name.partition(":")
            t = templates.get(head + colon)
            if t is None:
                continue
            slots = _TEMPLATES[t][1]
            column = self.columns[slots[0] % 3]
            parts = text.split("|")
            for cuts in itertools.combinations(range(1, len(parts)), len(slots) - 1):
                bounds = (0, *cuts, len(parts))
                codes = [column.setdefault("|".join(parts[a:b]), len(column))
                         for a, b in zip(bounds, bounds[1:])]
                entries.append((t, codes, k))
        self.unseen = tuple(map(len, self.columns))
        self.offsets, self.multipliers = _key_layout(tuple(u + 1 for u in self.unseen))
        offsets, multipliers = self.offsets.tolist(), self.multipliers.T.tolist()
        # sorted by Python, which costs less per name than the loop above and
        # maps none of numpy's sort code (0.3 MB of resident pages)
        pairs = sorted(
            (offsets[t] + sum(c * multipliers[t][s] for c, s in zip(codes, _TEMPLATES[t][1])), k)
            for t, codes, k in entries
        )
        # _KEY_END closes the keys, so that searchsorted stays in range; its
        # id, and every miss's, is len(feature_index)
        self.keys = np.array([key for key, _ in pairs] + [_KEY_END], np.int64)
        self.ids = np.array([k for _, k in pairs] + [len(feature_index)], np.intp)
        # form, lemma and POS codes of the sentinel tokens BOS2, BOS (head)
        # and EOS, EOS2 (tail)
        self.head, self.tail = (
            [column.get(SENTINELS[d], u) for d in ends
             for column, u in zip(self.columns, self.unseen)]
            for ends in ((-2, -1), (0, 1))
        )

    def feature_ids(self, sentence: Sentence) -> np.ndarray:
        """n x 26 ids of the sentence's features, equal to _feature_ids' for
        extract_features' strings."""
        (forms, lemmas, tags), (uf, ul, ut) = self.columns, self.unseen
        # the flat codes of the sentence between two sentinel tokens at each
        # end: position i's window is the 15 codes from 3 * i on
        flat = self.head.copy()
        for token in sentence.tokens:
            flat += (forms.get(token.form, uf), lemmas.get(token.lemma, ul),
                     tags.get(token.upos, ut))
        flat += self.tail
        slots = 3 * np.arange(len(sentence.tokens))[:, None] + np.arange(3 * len(WINDOW))
        keys = np.array(flat, np.int64)[slots] @ self.multipliers
        keys += self.offsets
        at = self.keys.searchsorted(keys)
        return np.where(self.keys[at] == keys, self.ids[at], self.ids[-1])


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
    # built from feature_index by the first tag_baseline call
    _tag_index: _TagIndex | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        shapes = param_shapes(len(self.feature_index), self.emb_dim, len(self.tag_vocab))
        (self.weights, self.dense, self.trans,
         self.trans_start, self.trans_stop) = _split(self.data, shapes)


def _collect(sentences: Corpus, variant: str, table: EmbeddingTable | None):
    """The 26 feature strings of every position, in row-major order as one
    flat list, the sentences' turian blocks stacked (None for the standard
    variant) and the sentence lengths."""
    dense = (np.vstack([_dense_rows(s, table) for s in sentences])
             if variant == "turian" else None)
    names = []
    for sentence in sentences:
        for i in range(len(sentence.tokens)):
            names += extract_features(sentence, i)[0]
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
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
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

    def _penalty(self, w: np.ndarray) -> float:
        return float(w @ w) / (2.0 * self.sigma**2)

    def loss(self, w: np.ndarray) -> float:
        weights, dense_w, *chain = _split(w, self.shapes)
        scores = _emissions(weights, self.ids, self.lengths, dense_w, self.dense)
        nll = log_partition(scores, *chain, self.lengths) - score_path(
            scores, *chain, self.gold, self.lengths
        )
        return self._penalty(w) + float(nll.sum())

    def loss_and_grad(self, w: np.ndarray) -> tuple[float, np.ndarray]:
        weights, dense_w, *chain = _split(w, self.shapes)
        grad = w / self.sigma**2
        g_weights, g_dense, *g_chain = _split(grad, self.shapes)
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
    scores its corpus: the model's tag index gives each position the ids of
    its 26 features without building their strings, and features unseen in
    training contribute nothing. The turian window's lookups read the table
    (zero vectors past the ends). Scores that overflow (huge dense input
    vectors) raise NonFiniteError."""
    dense = _dense_rows(sentence, table) if model.variant == "turian" else None
    if model._tag_index is None:
        model._tag_index = _TagIndex(model.feature_index)
    ids = model._tag_index.feature_ids(sentence)
    lengths = np.array([len(sentence.tokens)])
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        scores = _emissions(model.weights, ids, lengths, model.dense, dense)
    if not np.isfinite(scores).all():
        raise NonFiniteError("baseline emission scores are not finite "
                             "(huge or non-finite input vectors?)")
    paths, _ = viterbi(scores, model.trans, model.trans_start, model.trans_stop, lengths)
    return [model.tag_vocab[k] for k in paths[0]]
