"""Feature template exactness (hand-written 26-string oracle), dense window
blocks, finite-difference gradient of the convex objective, and overfit/
regularization behavior of the trainer."""

import hashlib
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwetag.autodiff import RngStream
from mwetag.baseline import (
    CURVATURE_EPS,
    INIT_SCALE,
    LBFGS_HISTORY,
    SYMBOLIC_TEMPLATE_COUNT,
    BaselineModel,
    BaselineProblem,
    BaselineTrainOptions,
    _TEMPLATES,
    _TagIndex,
    _collect,
    _emissions,
    _feature_ids,
    _key_layout,
    _lbfgs_direction,
    extract_features,
    fit_baseline,
    tag_baseline,
    train_baseline,
)
from mwetag.corpus import Sentence, Token, VmweInstance, to_tags
from mwetag.embed import EmbeddingTable
from mwetag.errors import DataError, NonFiniteError, TrainingDataError
from mwetag.synth import synthetic_corpus, synthetic_embeddings


def make_sentence(words, instances=()):
    tokens = tuple(
        Token(i + 1, form, lemma, upos, ())
        for i, (form, lemma, upos) in enumerate(words)
    )
    vmwes = tuple(
        VmweInstance(k + 1, cat, tuple(positions))
        for k, (cat, positions) in enumerate(instances)
    )
    return Sentence(tokens, vmwes)


FIVE = make_sentence(
    [
        ("The", "the", "DET"),
        ("cat", "cat", "NOUN"),
        ("sat", "sit", "VERB"),
        ("on", "on", "ADP"),
        ("mats", "mat", "NOUN"),
    ]
)


def test_interior_position_hand_oracle():
    feats, dense = extract_features(FIVE, 2)
    assert dense is None
    expected = [
        "w[-2]:The", "l[-2]:the", "p[-2]:DET",
        "w[-1]:cat", "l[-1]:cat", "p[-1]:NOUN",
        "w[0]:sat", "l[0]:sit", "p[0]:VERB",
        "w[+1]:on", "l[+1]:on", "p[+1]:ADP",
        "w[+2]:mats", "l[+2]:mat", "p[+2]:NOUN",
        "w[-1]w[0]:cat|sat", "l[-1]l[0]:cat|sit",
        "w[0]w[+1]:sat|on", "l[0]l[+1]:sit|on",
        "p[-2]p[-1]:DET|NOUN", "p[-1]p[0]:NOUN|VERB",
        "p[0]p[+1]:VERB|ADP", "p[+1]p[+2]:ADP|NOUN",
        "p[-2]p[-1]p[0]:DET|NOUN|VERB",
        "p[-1]p[0]p[+1]:NOUN|VERB|ADP",
        "p[0]p[+1]p[+2]:VERB|ADP|NOUN",
    ]
    assert sorted(feats) == sorted(expected)
    assert len(feats) == SYMBOLIC_TEMPLATE_COUNT == 26


def test_sentence_start_uses_bos_sentinels():
    feats, _ = extract_features(FIVE, 0)
    assert len(feats) == 26
    assert "w[-2]:BOS2" in feats
    assert "w[-1]:BOS" in feats
    assert "l[-1]:BOS" in feats
    assert "p[-2]p[-1]:BOS2|BOS" in feats
    assert "p[-2]p[-1]p[0]:BOS2|BOS|DET" in feats


def test_sentence_end_uses_eos_sentinels():
    feats, _ = extract_features(FIVE, 4)
    assert "w[+1]:EOS" in feats
    assert "w[+2]:EOS2" in feats
    assert "p[0]p[+1]p[+2]:NOUN|EOS|EOS2" in feats


def test_single_token_sentence_is_all_sentinels():
    feats, _ = extract_features(make_sentence([("x", "x", "X")]), 0)
    assert len(feats) == 26
    assert "w[-2]:BOS2" in feats and "w[+2]:EOS2" in feats


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(0, 2**31 - 1))
def test_feature_count_always_26(n, seed):
    rng = np.random.default_rng(seed)
    words = [
        (f"f{rng.integers(5)}", f"l{rng.integers(5)}", f"P{rng.integers(3)}")
        for _ in range(n)
    ]
    sentence = make_sentence(words)
    for i in range(n):
        feats, _ = extract_features(sentence, i)
        assert len(feats) == 26
        assert extract_features(sentence, i) == extract_features(sentence, i)


def test_extract_rejects_out_of_range_and_bad_variant():
    with pytest.raises(ValueError):
        extract_features(FIVE, 5)
    with pytest.raises(ValueError):
        extract_features(FIVE, -1)
    with pytest.raises(ValueError, match="unknown variant 'dense'"):
        extract_features(FIVE, 0, variant="dense")
    with pytest.raises(ValueError, match="turian variant needs an embedding table"):
        extract_features(FIVE, 0, variant="turian")  # no table


def five_table(dim=4, seed=3):
    rng = np.random.default_rng(seed)
    forms = [t.form for t in FIVE.tokens]
    return EmbeddingTable(dim, {f: rng.normal(size=dim) for f in forms})


def test_turian_dense_block_layout():
    table = five_table(dim=4)
    feats, dense = extract_features(FIVE, 1, variant="turian", table=table)
    assert len(feats) == 26
    assert dense.shape == (20,)  # 5 offsets x dim 4
    # offset -2 is BOS at position 1 -> zeros; offsets -1..+2 are lookups
    np.testing.assert_array_equal(dense[:4], np.zeros(4))
    np.testing.assert_array_equal(dense[4:8], table.lookup("The"))
    np.testing.assert_array_equal(dense[8:12], table.lookup("cat"))
    np.testing.assert_array_equal(dense[12:16], table.lookup("sat"))
    np.testing.assert_array_equal(dense[16:20], table.lookup("on"))


def test_turian_block_is_5_dim_wide():
    table = five_table(dim=300 // 10)
    _, dense = extract_features(FIVE, 2, variant="turian", table=table)
    assert dense.shape == (5 * table.dimension,)


# ---------------------------------------------------------------------------
# objective and gradient


def toy_training_corpus():
    return [
        make_sentence(
            [("take", "take", "VERB"), ("a", "a", "DET"), ("walk", "walk", "NOUN")],
            [("LVC.full", [1, 3])],
        ),
        make_sentence(
            [("walk", "walk", "NOUN"), ("over", "over", "ADP")],
        ),
    ]


def toy_table(corpus, seed=5):
    """Seeded 3-dim vectors for the corpus's forms."""
    rng = np.random.default_rng(seed)
    forms = {t.form for s in corpus for t in s.tokens}
    return EmbeddingTable(3, {f: rng.normal(size=3) for f in forms})


@pytest.mark.parametrize("variant", ["standard", "turian"])
def test_objective_gradient_matches_finite_differences(variant):
    corpus = toy_training_corpus()
    table = None
    if variant == "turian":
        rng = np.random.default_rng(0)
        forms = {t.form for s in corpus for t in s.tokens}
        table = EmbeddingTable(3, {f: rng.normal(size=3) for f in forms})
    problem = BaselineProblem(corpus, variant=variant, sigma=2.0, table=table)
    rng = np.random.default_rng(1)
    w = rng.normal(scale=0.5, size=problem.size)
    value, grad = problem.loss_and_grad(w)
    assert value == pytest.approx(problem.loss(w))
    eps = 1e-5
    worst = 0.0
    for idx in range(problem.size):
        w[idx] += eps
        plus = problem.loss(w)
        w[idx] -= 2 * eps
        minus = problem.loss(w)
        w[idx] += eps
        numeric = (plus - minus) / (2 * eps)
        worst = max(
            worst, abs(grad[idx] - numeric) / max(1e-8, abs(grad[idx]) + abs(numeric))
        )
    assert worst < 1e-4


def test_problem_rejects_empty_corpus_and_bad_sigma():
    with pytest.raises(TrainingDataError):
        BaselineProblem([])
    with pytest.raises(ValueError):
        BaselineProblem(toy_training_corpus(), sigma=0.0)
    # checked by the problem itself, before any feature is extracted
    with pytest.raises(ValueError, match="unknown variant 'dense'"):
        BaselineProblem(toy_training_corpus(), "dense")
    with pytest.raises(ValueError, match="turian variant needs an embedding table"):
        BaselineProblem(toy_training_corpus(), "turian")


# ---------------------------------------------------------------------------
# training


def test_overfit_single_repeated_sentence():
    sentence = toy_training_corpus()[0]
    model = train_baseline([sentence], sigma=10.0)
    assert tag_baseline(model, sentence) == to_tags(sentence)


def test_small_sigma_shrinks_weights():
    corpus = toy_training_corpus()
    strong = train_baseline(corpus, sigma=0.01)
    weak = train_baseline(corpus, sigma=2.0)
    assert np.linalg.norm(strong.weights) < np.linalg.norm(weak.weights)


def test_convex_objective_seed_independent_optimum():
    corpus = toy_training_corpus()
    problem = BaselineProblem(corpus, sigma=2.0)
    losses = []
    for seed in (0, 1):
        model = train_baseline(
            corpus, sigma=2.0, options=BaselineTrainOptions(seed=seed)
        )
        losses.append(problem.loss(problem.pack_model(model)))
    assert abs(losses[0] - losses[1]) < 1e-4


def test_fit_converges_and_seeds_agree():
    corpus = synthetic_corpus(50, 2024)
    fits = [
        fit_baseline(corpus, options=BaselineTrainOptions(grad_tolerance=1e-6, seed=seed))
        for seed in (0, 1)
    ]
    problem = BaselineProblem(corpus)
    for fit in fits:
        assert fit.converged and fit.grad_max_norm < 1e-6
        assert 0 < fit.iterations < BaselineTrainOptions().max_iterations
        value, grad = problem.loss_and_grad(problem.pack_model(fit.model))
        assert (value, float(np.abs(grad).max())) == (fit.objective, fit.grad_max_norm)
    a, b = (problem.pack_model(fit.model) for fit in fits)
    assert np.abs(a - b).max() < 1e-5


def test_fit_needs_few_objective_evaluations(monkeypatch):
    # gradient descent with the same line search took 1,110 evaluations here
    calls = []
    for name, mark in (("loss", "v"), ("loss_and_grad", "g")):
        method = getattr(BaselineProblem, name)
        monkeypatch.setattr(
            BaselineProblem, name,
            lambda self, w, method=method, mark=mark: calls.append(mark) or method(self, w),
        )
    fit = fit_baseline(synthetic_corpus(50, 2024))
    assert fit.converged
    assert len(calls) <= 150
    # the fit counts what it evaluates; a backtracking run "v...v" ends in
    # the accepted point's gradient
    sequence = "".join(calls)
    accepted_after_backtracking = sequence.count("vg")
    assert accepted_after_backtracking >= 1
    assert fit.value_evaluations == sequence.count("v")
    assert fit.gradient_evaluations == sequence.count("g")
    assert fit.gradient_evaluations == fit.iterations + 1 + accepted_after_backtracking


def test_fit_converges_on_200_sentences_within_the_default_cap():
    fit = fit_baseline(synthetic_corpus(200, 2024))
    assert fit.converged and fit.grad_max_norm < BaselineTrainOptions().grad_tolerance


def test_fit_at_the_cap_reports_not_converged():
    fit = fit_baseline(synthetic_corpus(50, 2024),
                       options=BaselineTrainOptions(max_iterations=3))
    assert (fit.iterations, fit.converged) == (3, False)
    assert fit.grad_max_norm >= BaselineTrainOptions().grad_tolerance


def test_fit_stops_when_the_objective_stops_decreasing():
    # no fit reaches a zero tolerance; this one must stop at round-off, not
    # spend the whole iteration cap on steps that change nothing
    fit = fit_baseline(toy_training_corpus(),
                       options=BaselineTrainOptions(grad_tolerance=0.0))
    assert not fit.converged
    assert fit.iterations < 100 and fit.grad_max_norm < 1e-6


def test_turian_training_runs_and_tags():
    corpus = toy_training_corpus()
    table = toy_table(corpus)
    model = train_baseline(corpus, variant="turian", sigma=10.0, table=table)
    assert model.dense is not None
    assert model.dense.shape == (15, len(model.tag_vocab))
    assert tag_baseline(model, corpus[0], table) == to_tags(corpus[0])
    with pytest.raises(ValueError, match="turian variant needs an embedding table"):
        tag_baseline(model, corpus[0])  # table omitted


def test_fit_reports_an_overflowing_objective():
    # load_vec refuses such vectors; a table built in code still reaches the
    # fit's own check
    corpus = synthetic_corpus(12, 3)
    forms = {t.form for s in corpus for t in s.tokens}
    table = EmbeddingTable(8, {f: np.array([1.7e308, -1.7e308] * 4) for f in forms})
    with pytest.raises(NonFiniteError, match="iteration 0: baseline objective is"):
        fit_baseline(corpus, variant="turian", table=table)


# ---------------------------------------------------------------------------
# one objective evaluation per accepted step


def value_then_gradient_fit(corpus, variant="standard", sigma=2.0, table=None,
                            options=BaselineTrainOptions()):
    """The fit as a search whose trials are all value-only, each accepted
    point evaluated once more with its gradient: (model, objective,
    iterations, converged, iterations that backtracked)."""
    problem = BaselineProblem(corpus, variant, sigma, table)
    w = RngStream(options.seed).uniform(-INIT_SCALE, INIT_SCALE, problem.size)
    pairs = deque(maxlen=LBFGS_HISTORY)
    iterations = backtracked = 0
    with np.errstate(over="ignore", invalid="ignore"):
        value, grad = problem.loss_and_grad(w)
        while (np.abs(grad).max() >= options.grad_tolerance
               and iterations < options.max_iterations):
            direction = _lbfgs_direction(grad, pairs)
            slope = float(grad @ direction)
            if not slope < 0:
                pairs.clear()
                direction, slope = -grad, -float(grad @ grad)
            step = 1.0 if pairs else min(1.0, 1.0 / np.abs(grad).max())
            first_step = step
            while step >= 1e-14:
                candidate = w + step * direction
                cand_value = problem.loss(candidate)
                if cand_value <= value + 1e-4 * step * slope:
                    break
                step *= 0.5
            if step < 1e-14 or cand_value >= value:
                break
            backtracked += step < first_step
            new_value, new_grad = problem.loss_and_grad(candidate)
            s, y = candidate - w, new_grad - grad
            sy = float(s @ y)
            if sy > CURVATURE_EPS * float(y @ y):
                pairs.append((s, y, 1.0 / sy))
            w, value, grad = candidate, new_value, new_grad
            iterations += 1
    converged = float(np.abs(grad).max()) < options.grad_tolerance
    return problem.to_model(w), value, iterations, converged, backtracked


FIT_CASES = {
    "synthetic-seed-0": lambda: (synthetic_corpus(50, 2024), {}, BaselineTrainOptions(seed=0)),
    "synthetic-seed-1": lambda: (synthetic_corpus(50, 2024), {}, BaselineTrainOptions(seed=1)),
    "capped": lambda: (synthetic_corpus(50, 2024), {}, BaselineTrainOptions(max_iterations=3)),
    # the flat objective of test_fit_stops_when_the_objective_stops_decreasing
    "flat-stall": lambda: (toy_training_corpus(), {}, BaselineTrainOptions(grad_tolerance=0.0)),
    "turian": lambda: (
        toy_training_corpus(),
        {"variant": "turian", "sigma": 10.0, "table": toy_table(toy_training_corpus())},
        BaselineTrainOptions(),
    ),
}


@pytest.mark.parametrize("case", FIT_CASES)
def test_fit_matches_the_value_then_gradient_search(case):
    corpus, kwargs, options = FIT_CASES[case]()
    fit = fit_baseline(corpus, options=options, **kwargs)
    model, objective, iterations, converged, backtracked = value_then_gradient_fit(
        corpus, options=options, **kwargs
    )
    for name in ("weights", "trans", "trans_start", "trans_stop"):
        assert np.array_equal(getattr(fit.model, name), getattr(model, name)), name
    assert (fit.model.dense is None) == (model.dense is None)
    if model.dense is not None:
        assert np.array_equal(fit.model.dense, model.dense)
    assert (fit.objective, fit.iterations, fit.converged) == (objective, iterations, converged)
    if case == "synthetic-seed-0":
        assert backtracked >= 1  # the reuse path and the re-evaluation both ran
    if case == "flat-stall":
        assert not converged


@pytest.mark.parametrize("variant", ["standard", "turian"])
def test_loss_is_the_value_of_loss_and_grad_bit_for_bit(variant):
    corpus = synthetic_corpus(12, 3)
    table = toy_table(corpus) if variant == "turian" else None
    problem = BaselineProblem(corpus, variant, 2.0, table)
    rng = np.random.default_rng(11)
    points = [rng.normal(scale=scale, size=problem.size) for scale in (0.01, 0.5, 3.0)]
    model = fit_baseline(corpus, variant, table=table).model
    points.append(problem.pack_model(model))
    for w in points:
        assert problem.loss(w) == problem.loss_and_grad(w)[0]


# ---------------------------------------------------------------------------
# tagging edge cases


def spy_on(monkeypatch, name):
    """Record the emission block passed to baseline's binding of name."""
    import mwetag.baseline as baseline_module

    blocks = []
    original = getattr(baseline_module, name)

    def spy(scores, *args, **kwargs):
        blocks.append(np.array(scores, copy=True))
        return original(scores, *args, **kwargs)

    monkeypatch.setattr(baseline_module, name, spy)
    return blocks


def test_zero_weight_model_tags_lowest_index_everywhere():
    vocab = ("B-VID", "I-VID", "O")
    model = BaselineModel(
        variant="standard",
        sigma=2.0,
        tag_vocab=vocab,
        feature_index={},
        data=np.zeros(3 * 3 + 2 * 3),
    )
    assert tag_baseline(model, FIVE) == ["B-VID"] * 5


def test_unseen_features_contribute_nothing(monkeypatch):
    sentence = toy_training_corpus()[0]
    model = train_baseline([sentence], sigma=10.0)
    # new words and POS: only features made of sentinels were seen
    novel = make_sentence(
        [("Totally", "totally", "ADV"), ("new", "new", "ADJ")]
    )
    before = np.array(model.weights, copy=True)
    blocks = spy_on(monkeypatch, "viterbi")
    tag_baseline(model, novel)
    np.testing.assert_array_equal(model.weights, before)  # pure scoring
    # each position scores exactly the in-order sum of its seen rows
    expected = np.zeros((2, len(model.tag_vocab)))
    seen = unseen = 0
    for i in range(2):
        feats, _ = extract_features(novel, i)
        for feature in feats:
            if feature in model.feature_index:
                expected[i] += model.weights[model.feature_index[feature]]
                seen += 1
            else:
                unseen += 1
    assert seen and unseen
    assert np.array_equal(blocks[0][0], expected)


# ---------------------------------------------------------------------------
# one scoring path for fitting and tagging


@pytest.mark.parametrize("variant", ["standard", "turian"])
def test_tagging_scores_training_sentences_as_the_fit_does(monkeypatch, variant):
    corpus = toy_training_corpus()
    table = toy_table(corpus) if variant == "turian" else None
    model = train_baseline(corpus, variant=variant, sigma=10.0, table=table)
    problem = BaselineProblem(corpus, variant, model.sigma, table, tag_vocab=model.tag_vocab)

    fit_blocks = spy_on(monkeypatch, "log_partition")
    problem.loss(problem.pack_model(model))
    tag_blocks = spy_on(monkeypatch, "viterbi")
    for sentence in corpus:
        tag_baseline(model, sentence, table)
    (fit_block,) = fit_blocks
    assert len(tag_blocks) == len(corpus)
    for k, (sentence, tag_block) in enumerate(zip(corpus, tag_blocks)):
        n = len(sentence.tokens)
        assert tag_block.shape == (1, n, len(model.tag_vocab))
        assert np.array_equal(tag_block[0], fit_block[k, :n])


# ---------------------------------------------------------------------------
# tagging through integer keys


def string_path_ids(sentence, feature_index):
    return _feature_ids(_collect([sentence], "standard", None)[0], feature_index)


def test_a_bar_collision_maps_as_the_strings_do():
    # the bigram (a|b, c) and the bigram (a, b|c) both spell "a|b|c"
    seen = make_sentence([("a|b", "x", "X"), ("c", "y", "Y")])
    other = make_sentence([("a", "x", "X"), ("b|c", "y", "Y")])
    names = _collect([seen], "standard", None)[0]
    feature_index = {name: k for k, name in enumerate(sorted(set(names)))}
    index = _TagIndex(feature_index)
    ids = index.feature_ids(other)
    np.testing.assert_array_equal(ids, string_path_ids(other, feature_index))
    bigram = [prefix for prefix, _ in _TEMPLATES].index("w[-1]w[0]:")
    assert ids[1, bigram] == feature_index["w[-1]w[0]:a|b|c"]
    np.testing.assert_array_equal(index.feature_ids(seen), string_path_ids(seen, feature_index))


def test_a_key_space_past_int64_is_refused():
    # three POS trigram templates of 2**21 codes each span 3 * 2**63 keys
    with pytest.raises(DataError, match="past int64"):
        _key_layout((2, 2, 2**21))
    offsets, multipliers = _key_layout((2, 2, 2**20))
    assert offsets[-1] + 2**60 <= np.iinfo(np.int64).max
    assert multipliers.max() == 2**40


def test_turian_tags_as_the_string_path(monkeypatch):
    table = synthetic_embeddings(dim=4, seed=1)
    model = train_baseline(synthetic_corpus(20, 2024), variant="turian", table=table,
                           options=BaselineTrainOptions(max_iterations=30))
    tagged = synthetic_corpus(200, 7)
    # the tags the string path gave for this model and corpus
    digest = hashlib.sha256(repr([tag_baseline(model, s, table) for s in tagged]).encode())
    assert digest.hexdigest() == (
        "9016fc066e61955170bd65bb5e563924f62d52dd3f1ef8e11283d70b5bd320bc"
    )
    # and the emission blocks, bit for bit, also with words outside the
    # training corpus and the table
    novel = make_sentence([("Zebra", "zebra", "NOUN"), ("|", "_", "BOS"), ("EOS", ":", "X")])
    blocks = spy_on(monkeypatch, "viterbi")
    for sentence in tagged[:20] + [novel]:
        tag_baseline(model, sentence, table)
        names, dense, lengths = _collect([sentence], "turian", table)
        expected = _emissions(model.weights, _feature_ids(names, model.feature_index),
                              lengths, model.dense, dense)
        assert np.array_equal(blocks[-1], expected)
