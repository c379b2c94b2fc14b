"""Feature template exactness (hand-written 26-string oracle), dense window
blocks, finite-difference gradient of the convex objective, and overfit/
regularization behavior of the trainer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwetag.baseline import (
    SYMBOLIC_TEMPLATE_COUNT,
    BaselineModel,
    BaselineProblem,
    BaselineTrainOptions,
    extract_features,
    fit_baseline,
    tag_baseline,
    train_baseline,
)
from mwetag.corpus import Sentence, Token, VmweInstance, to_tags
from mwetag.embed import EmbeddingTable
from mwetag.errors import TrainingDataError
from mwetag.synth import synthetic_corpus


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
    with pytest.raises(ValueError):
        extract_features(FIVE, 0, variant="dense")
    with pytest.raises(ValueError):
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
    for name in ("loss", "loss_and_grad"):
        method = getattr(BaselineProblem, name)
        monkeypatch.setattr(
            BaselineProblem, name,
            lambda self, w, method=method: calls.append(1) or method(self, w),
        )
    fit = fit_baseline(synthetic_corpus(50, 2024))
    assert fit.converged
    assert len(calls) <= 150


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
    rng = np.random.default_rng(5)
    forms = {t.form for s in corpus for t in s.tokens}
    table = EmbeddingTable(3, {f: rng.normal(size=3) for f in forms})
    model = train_baseline(corpus, variant="turian", sigma=10.0, table=table)
    assert model.dense is not None
    assert model.dense.shape == (15, len(model.tag_vocab))
    assert len(model.dense_weights()) == 5
    assert tag_baseline(model, corpus[0], table) == to_tags(corpus[0])
    with pytest.raises(ValueError):
        tag_baseline(model, corpus[0])  # table omitted


# ---------------------------------------------------------------------------
# tagging edge cases


def test_zero_weight_model_tags_lowest_index_everywhere():
    vocab = ("B-VID", "I-VID", "O")
    model = BaselineModel(
        variant="standard",
        sigma=2.0,
        tag_vocab=vocab,
        feature_index={},
        weights=np.zeros((0, 3)),
        trans=np.zeros((3, 3)),
        trans_start=np.zeros(3),
        trans_stop=np.zeros(3),
    )
    assert tag_baseline(model, FIVE) == ["B-VID"] * 5


def test_unseen_features_contribute_nothing():
    sentence = toy_training_corpus()[0]
    model = train_baseline([sentence], sigma=10.0)
    novel = make_sentence(
        [("Totally", "totally", "ADV"), ("new", "new", "ADJ")]
    )
    before = np.array(model.weights, copy=True)
    tag_baseline(model, novel)
    np.testing.assert_array_equal(model.weights, before)  # pure scoring
