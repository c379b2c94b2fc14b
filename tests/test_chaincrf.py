"""Chain CRF inference and loss checked against exhaustive enumeration
written independently here (itertools over the label product, scalar sums)."""

import itertools
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwetag.autodiff import Tape, backward, grad_check, param
from mwetag.chaincrf import (
    brute_force,
    crf_nll,
    forward_backward,
    log_partition,
    nll_gradient,
    score_path,
    viterbi,
)


def make_instance(rng, n, t):
    """(scores, trans, start, stop) of one sentence: the argument order of
    every chaincrf function, with n x T scores."""
    return (
        rng.normal(scale=2.0, size=(n, t)),
        rng.normal(scale=2.0, size=(t, t)),
        rng.normal(scale=2.0, size=t),
        rng.normal(scale=2.0, size=t),
    )


def zero_chain(t):
    return np.zeros((t, t)), np.zeros(t), np.zeros(t)


def loss_args(scores, trans, start, stop):
    """crf_nll's leading arguments: the scores array and the chain Params."""
    return [scores, param(trans), param(start), param(stop)]


def one(fn, scores, *rest):
    """fn on one n x T sentence, passed as the B = 1 block with its length."""
    return fn(scores[None], *rest, [len(scores)])


def enumerate_scores(scores, trans, start, stop):
    """Scalar-loop path table, the oracle for everything below."""
    n, labels = scores.shape
    table = {}
    for path in itertools.product(range(labels), repeat=n):
        s = start[path[0]] + stop[path[-1]]
        for i, y in enumerate(path):
            s += scores[i, y]
        for i in range(1, n):
            s += trans[path[i - 1], path[i]]
        table[path] = s
    return table


def oracle_log_z(table):
    vals = np.array(list(table.values()))
    m = vals.max()
    return m + np.log(np.exp(vals - m).sum())


# ---------------------------------------------------------------------------
# viterbi


def test_viterbi_single_position_is_argmax_of_sums():
    chain = np.zeros((3, 3)), np.array([0.0, 0.0, 4.0]), np.zeros(3)
    (path,), (score,) = one(viterbi, np.array([[1.0, 5.0, 2.0]]), *chain)
    assert path == [2]
    assert score == pytest.approx(6.0)


def test_viterbi_zero_transitions_is_rowwise_argmax():
    rng = np.random.default_rng(0)
    scores = rng.normal(size=(6, 4))
    (path,), _ = one(viterbi, scores, *zero_chain(4))
    assert path == list(scores.argmax(axis=1))


def test_viterbi_ties_break_to_lowest_index():
    # every path scores zero, so the lowest-index choice wins everywhere
    (path,), (score,) = one(viterbi, np.zeros((4, 3)), *zero_chain(3))
    assert path == [0, 0, 0, 0]
    assert score == 0.0


def test_viterbi_matches_exhaustive_n4_t3():
    crf = make_instance(np.random.default_rng(7), 4, 3)
    table = enumerate_scores(*crf)
    (path,), (score,) = one(viterbi, *crf)
    assert score == pytest.approx(max(table.values()), abs=1e-8)
    assert score == pytest.approx(one(score_path, *crf, [path])[0], abs=1e-10)


# ---------------------------------------------------------------------------
# log partition


def test_log_partition_two_labels_zero_scores_is_ln2():
    log_z = one(log_partition, np.zeros((1, 2)), *zero_chain(2))
    assert log_z == pytest.approx([np.log(2.0)])


def test_log_partition_matches_oracle_n5_t4():
    crf = make_instance(np.random.default_rng(8), 5, 4)
    assert one(log_partition, *crf) == pytest.approx(
        [oracle_log_z(enumerate_scores(*crf))], abs=1e-8
    )


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_log_partition_dominates_viterbi(n, t_count, seed):
    crf = make_instance(np.random.default_rng(seed), n, t_count)
    _, best = one(viterbi, *crf)
    assert one(log_partition, *crf) >= best - 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**31 - 1))
def test_constant_emission_shift_moves_logz_not_argmax(n, t_count, seed):
    scores, *chain = make_instance(np.random.default_rng(seed), n, t_count)
    shift_pos = n // 2
    shifted = np.array(scores, copy=True)
    shifted[shift_pos] += 3.7
    assert one(log_partition, shifted, *chain) == pytest.approx(
        one(log_partition, scores, *chain) + 3.7, abs=1e-8
    )
    p1, s1 = one(viterbi, scores, *chain)
    p2, s2 = one(viterbi, shifted, *chain)
    assert s2 == pytest.approx(s1 + 3.7, abs=1e-8)
    assert p1 == p2


# ---------------------------------------------------------------------------
# brute force


def test_brute_force_hand_enumerated_four_paths():
    scores = np.array([[1.0, 2.0], [3.0, 4.0]])
    trans = np.array([[0.5, -1.0], [2.0, 0.0]])
    start, stop = np.array([0.1, 0.2]), np.array([-0.3, 0.6])
    # (0,0): .1+1+.5+3-.3 = 4.3   (0,1): .1+1-1+4+.6 = 4.7
    # (1,0): .2+2+2+3-.3 = 6.9    (1,1): .2+2+0+4+.6 = 6.8
    path, best, log_z = brute_force(scores, trans, start, stop)
    assert path == [1, 0]
    assert best == pytest.approx(6.9)
    hand = np.array([4.3, 4.7, 6.9, 6.8])
    assert log_z == pytest.approx(
        np.log(np.exp(hand - hand.max()).sum()) + hand.max()
    )


def test_brute_force_single_position_agrees_with_viterbi():
    crf = make_instance(np.random.default_rng(9), 1, 4)
    path, best, log_z = brute_force(*crf)
    (v_path,), (v_best,) = one(viterbi, *crf)
    assert path == v_path and best == pytest.approx(v_best)
    assert [log_z] == pytest.approx(one(log_partition, *crf))


def test_brute_force_refuses_large_instances():
    with pytest.raises(ValueError):
        brute_force(np.zeros((30, 4)), *zero_chain(4))


def test_viterbi_and_partition_agree_with_brute_force_seeded_sweep():
    rng = np.random.default_rng(123)
    for _ in range(200):
        n = rng.integers(1, 6)
        t_count = rng.integers(1, 5)
        crf = make_instance(rng, n, t_count)
        _, b_best, b_log_z = brute_force(*crf)
        (v_path,), (v_best,) = one(viterbi, *crf)
        assert abs(v_best - b_best) < 1e-8
        assert abs(one(log_partition, *crf)[0] - b_log_z) < 1e-8
        # the decoded path must itself attain the best score
        assert abs(one(score_path, *crf, [v_path])[0] - b_best) < 1e-8


# ---------------------------------------------------------------------------
# forward-backward marginals


def oracle_marginals(table, n, labels):
    vals = np.array(list(table.values()))
    m = vals.max()
    probs = np.exp(vals - m)
    probs /= probs.sum()
    gamma = np.zeros((n, labels))
    xi = np.zeros((n - 1, labels, labels))
    for (path, _), p in zip(table.items(), probs):
        for i, y in enumerate(path):
            gamma[i, y] += p
        for i in range(n - 1):
            xi[i, path[i], path[i + 1]] += p
    return gamma, xi


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_marginals_match_enumeration(seed):
    rng = np.random.default_rng(seed)
    n, t_count = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    crf = make_instance(rng, n, t_count)
    (gamma,), (xi,), log_z = one(forward_backward, *crf)
    o_gamma, o_xi = oracle_marginals(enumerate_scores(*crf), n, t_count)
    np.testing.assert_allclose(gamma, o_gamma, atol=1e-10)
    np.testing.assert_allclose(xi, o_xi, atol=1e-10)
    assert log_z == pytest.approx(one(log_partition, *crf), abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_marginal_rows_sum_to_one(n, t_count, seed):
    crf = make_instance(np.random.default_rng(seed), n, t_count)
    (gamma,), (xi,), _ = one(forward_backward, *crf)
    np.testing.assert_allclose(gamma.sum(axis=1), np.ones(n), atol=1e-10)
    # pairwise marginals are consistent with the unary ones
    for i in range(n - 1):
        np.testing.assert_allclose(xi[i].sum(axis=1), gamma[i], atol=1e-10)
        np.testing.assert_allclose(xi[i].sum(axis=0), gamma[i + 1], atol=1e-10)


def test_padded_batch_matches_single_sentences_and_enumeration():
    rng = np.random.default_rng(12)
    t_count, lengths = 3, np.arange(1, 7)
    _, *chain = make_instance(rng, 1, t_count)
    # entries past each length are large noise that must not leak in
    block = rng.normal(scale=50.0, size=(len(lengths), lengths.max(), t_count))
    gold = rng.integers(0, t_count, size=block.shape[:2])
    for b, n in enumerate(lengths):
        block[b, :n] = rng.normal(scale=2.0, size=(n, t_count))
    log_z = log_partition(block, *chain, lengths)
    gamma, xi, fb_log_z = forward_backward(block, *chain, lengths)
    golds = score_path(block, *chain, gold, lengths)
    d_scores, *d_chain = nll_gradient(gamma, xi, gold, lengths)
    summed = [np.zeros_like(c) for c in chain]
    for b, n in enumerate(lengths):
        crf = (block[b, :n], *chain)
        _, _, b_log_z = brute_force(*crf)
        assert abs(log_z[b] - one(log_partition, *crf)[0]) < 1e-12
        assert abs(log_z[b] - b_log_z) < 1e-12
        assert abs(fb_log_z[b] - b_log_z) < 1e-12
        assert abs(golds[b] - one(score_path, *crf, gold[b : b + 1, :n])[0]) < 1e-12
        s_gamma, s_xi, _ = one(forward_backward, *crf)
        np.testing.assert_allclose(gamma[b, :n], s_gamma[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(xi[b, : n - 1], s_xi[0], rtol=0, atol=1e-12)
        assert not gamma[b, n:].any() and not xi[b, n - 1 :].any()
        s_d_scores, *s_d_chain = nll_gradient(s_gamma, s_xi, gold[b : b + 1, :n], [n])
        np.testing.assert_allclose(d_scores[b, :n], s_d_scores[0], rtol=0, atol=1e-12)
        assert not d_scores[b, n:].any()
        for total, part in zip(summed, s_d_chain):
            total += part
    for batched, total in zip(d_chain, summed):
        np.testing.assert_allclose(batched, total, rtol=0, atol=1e-12)


def test_viterbi_padded_batch_matches_single_sentences_and_enumeration():
    rng = np.random.default_rng(13)
    t_count, lengths = 3, np.arange(1, 7)
    _, *chain = make_instance(rng, 1, t_count)
    # entries past each length are large noise that must not leak in
    block = rng.normal(scale=50.0, size=(len(lengths), lengths.max(), t_count))
    for b, n in enumerate(lengths):
        block[b, :n] = rng.normal(scale=2.0, size=(n, t_count))
    paths, best = viterbi(block, *chain, lengths)
    assert len(paths) == len(lengths) and best.shape == (len(lengths),)
    for b, n in enumerate(lengths):
        crf = (block[b, :n], *chain)
        (path,), (score,) = one(viterbi, *crf)
        b_path, b_best, _ = brute_force(*crf)
        assert paths[b] == path == b_path
        assert abs(best[b] - score) < 1e-12
        assert abs(best[b] - b_best) < 1e-12


def test_viterbi_padded_batch_breaks_ties_to_lowest_index():
    rng = np.random.default_rng(14)
    lengths = [2, 4, 1]
    block = rng.normal(scale=50.0, size=(3, 4, 3))
    # with a zero chain, labels 0 and 1 tie at position 0 and labels 1 and 2
    # at position 1 of every sentence; the rest is a unique argmax
    block[0, :2] = [[1.0, 1.0, 0.0], [0.0, 2.0, 2.0]]
    block[1, :4] = [[1.0, 1.0, 0.0], [0.0, 2.0, 2.0], [3.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    block[2, :1] = [[1.0, 1.0, 0.0]]
    paths, best = viterbi(block, *zero_chain(3), lengths)
    assert paths == [[0, 1], [0, 1, 0, 2], [0]]
    np.testing.assert_array_equal(best, [3.0, 7.0, 1.0])
    for b, n in enumerate(lengths):
        (path,), (score,) = one(viterbi, block[b, :n], *zero_chain(3))
        assert (path, score) == (paths[b], best[b])
        assert brute_force(block[b, :n], *zero_chain(3))[0] == paths[b]


# ---------------------------------------------------------------------------
# loss


def test_nll_zero_scores_single_position_is_ln2():
    crf = loss_args(np.zeros((1, 1, 2)), *zero_chain(2))
    assert crf_nll(*crf, [[0]], [1]) == pytest.approx(np.log(2.0))


def test_nll_approaches_zero_when_gold_path_dominates():
    # every non-gold label is crushed to -1e30 at each position
    scores = np.full((1, 3, 3), -1e30)
    gold = [2, 0, 1]
    for i, y in enumerate(gold):
        scores[0, i, y] = 0.0
    assert abs(crf_nll(*loss_args(scores, *zero_chain(3)), [gold], [3])) < 1e-6


def test_nll_matches_enumeration_and_is_nonnegative():
    rng = np.random.default_rng(10)
    for _ in range(50):
        n, t_count = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        crf = make_instance(rng, n, t_count)
        gold = rng.integers(0, t_count, size=n)
        table = enumerate_scores(*crf)
        expected = oracle_log_z(table) - table[tuple(gold)]
        scores, *chain = loss_args(*crf)
        loss = crf_nll(scores[None], *chain, [gold], [n])
        assert loss == pytest.approx(expected, abs=1e-8)
        assert loss >= -1e-10


def test_nll_rejects_bad_gold():
    crf = loss_args(np.zeros((1, 2, 2)), *zero_chain(2))
    with pytest.raises(ValueError):
        crf_nll(*crf, [[0]], [2])
    with pytest.raises(ValueError):
        crf_nll(*crf, [[0, 2]], [2])


def test_nll_of_padded_batch_is_sum_of_sentences():
    rng = np.random.default_rng(15)
    t_count, lengths = 3, [3, 1, 4]
    _, *chain = make_instance(rng, 1, t_count)
    block = rng.normal(scale=50.0, size=(3, 4, t_count))
    gold = rng.integers(0, t_count, size=(3, 4))
    for b, n in enumerate(lengths):
        block[b, :n] = rng.normal(scale=2.0, size=(n, t_count))
    # padding gold entries may hold anything
    gold[1, 1:] = -7
    _, *chain_p = loss_args(block, *chain)
    tape = Tape()
    batched = crf_nll(block, *chain_p, gold, lengths, tape)
    d_scores = backward(tape)
    total = 0.0
    summed = [np.zeros_like(p.grad) for p in chain_p]
    for b, n in enumerate(lengths):
        single = [param(a) for a in chain]
        tape = Tape()
        total += crf_nll(block[b : b + 1, :n], *single, gold[b : b + 1, :n], [n], tape)
        np.testing.assert_allclose(d_scores[b, :n], backward(tape)[0], rtol=0, atol=1e-12)
        assert not d_scores[b, n:].any()
        for acc, p in zip(summed, single):
            acc += p.grad
    assert abs(batched - total) < 1e-12
    for p, acc in zip(chain_p, summed):
        np.testing.assert_allclose(p.grad, acc, rtol=0, atol=1e-12)
    # the stage scales what it returns and writes by its seed
    doubled = [2.0 * p.grad for p in chain_p]
    tape = Tape()
    crf_nll(block, *chain_p, gold, lengths, tape)
    np.testing.assert_array_equal(backward(tape, 2.0), 2.0 * d_scores)
    for p, expect in zip(chain_p, doubled):
        np.testing.assert_array_equal(p.grad, expect)


def nll_of(e_scores, trans, start, stop, gold):
    """crf_nll as grad_check's loss function, e_scores a Param too: a first
    stage writes the gradient of the scores into e_scores.grad."""

    def nll(tape):
        if tape is not None:
            tape.record(partial(np.copyto, e_scores.grad))
        return crf_nll(e_scores.data, trans, start, stop, gold, [len(gold[0])], tape)

    return nll


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_nll_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    n, t_count = 4, 3
    e_scores = param(rng.normal(size=(1, n, t_count)))
    trans = param(rng.normal(size=(t_count, t_count)))
    start = param(rng.normal(size=t_count))
    stop = param(rng.normal(size=t_count))
    gold = rng.integers(0, t_count, size=(1, n))
    nll = nll_of(e_scores, trans, start, stop, gold)
    assert grad_check(nll, [e_scores, trans, start, stop]) < 1e-4


def test_nll_gradient_single_position_start_stop():
    rng = np.random.default_rng(3)
    e_scores = param(rng.normal(size=(1, 1, 3)))
    trans = param(rng.normal(size=(3, 3)))
    start = param(rng.normal(size=3))
    stop = param(rng.normal(size=3))
    trans.grad[...] = np.nan
    nll = nll_of(e_scores, trans, start, stop, [[1]])
    assert grad_check(nll, [e_scores, start, stop]) < 1e-4
    # n=1 has no transitions: the trans gradient written must be exactly zero
    np.testing.assert_array_equal(trans.grad, np.zeros((3, 3)))
