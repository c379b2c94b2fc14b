"""Chain CRF inference and loss checked against exhaustive enumeration
written independently here (itertools over the label product, scalar sums)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwetag.autodiff import Tape, Tensor, add, grad_check, param
from mwetag.chaincrf import (
    brute_force,
    crf_nll,
    forward_backward,
    log_partition,
    score_path,
    viterbi,
)


def make_instance(rng, n, t):
    """(scores, trans, start, stop), the argument order of every chaincrf
    function."""
    return (
        rng.normal(scale=2.0, size=(n, t)),
        rng.normal(scale=2.0, size=(t, t)),
        rng.normal(scale=2.0, size=t),
        rng.normal(scale=2.0, size=t),
    )


def zero_chain(t):
    return np.zeros((t, t)), np.zeros(t), np.zeros(t)


def tensors(*arrays):
    return [Tensor(a) for a in arrays]


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
    path, score = viterbi(np.array([[1.0, 5.0, 2.0]]), *chain)
    assert path == [2]
    assert score == pytest.approx(6.0)


def test_viterbi_zero_transitions_is_rowwise_argmax():
    rng = np.random.default_rng(0)
    scores = rng.normal(size=(6, 4))
    path, _ = viterbi(scores, *zero_chain(4))
    assert path == list(scores.argmax(axis=1))


def test_viterbi_ties_break_to_lowest_index():
    # every path scores zero, so the lowest-index choice wins everywhere
    path, score = viterbi(np.zeros((4, 3)), *zero_chain(3))
    assert path == [0, 0, 0, 0]
    assert score == 0.0


def test_viterbi_matches_exhaustive_n4_t3():
    crf = make_instance(np.random.default_rng(7), 4, 3)
    table = enumerate_scores(*crf)
    path, score = viterbi(*crf)
    assert score == pytest.approx(max(table.values()), abs=1e-8)
    assert score == pytest.approx(score_path(*crf, path), abs=1e-10)


# ---------------------------------------------------------------------------
# log partition


def test_log_partition_two_labels_zero_scores_is_ln2():
    assert log_partition(np.zeros((1, 2)), *zero_chain(2)) == pytest.approx(np.log(2.0))


def test_log_partition_matches_oracle_n5_t4():
    crf = make_instance(np.random.default_rng(8), 5, 4)
    assert log_partition(*crf) == pytest.approx(
        oracle_log_z(enumerate_scores(*crf)), abs=1e-8
    )


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_log_partition_dominates_viterbi(n, t_count, seed):
    crf = make_instance(np.random.default_rng(seed), n, t_count)
    _, best = viterbi(*crf)
    assert log_partition(*crf) >= best - 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**31 - 1))
def test_constant_emission_shift_moves_logz_not_argmax(n, t_count, seed):
    scores, *chain = make_instance(np.random.default_rng(seed), n, t_count)
    shift_pos = n // 2
    shifted = np.array(scores, copy=True)
    shifted[shift_pos] += 3.7
    assert log_partition(shifted, *chain) == pytest.approx(
        log_partition(scores, *chain) + 3.7, abs=1e-8
    )
    p1, s1 = viterbi(scores, *chain)
    p2, s2 = viterbi(shifted, *chain)
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
    v_path, v_best = viterbi(*crf)
    assert path == v_path and best == pytest.approx(v_best)
    assert log_z == pytest.approx(log_partition(*crf))


def test_brute_force_refuses_large_instances():
    with pytest.raises(ValueError):
        brute_force(np.zeros((30, 4)), *zero_chain(4))


def test_viterbi_and_partition_agree_with_brute_force_seeded_sweep():
    rng = np.random.default_rng(123)
    for _ in range(200):
        n = rng.integers(1, 6)
        t_count = rng.integers(1, 5)
        crf = make_instance(rng, n, t_count)
        b_path, b_best, b_log_z = brute_force(*crf)
        v_path, v_best = viterbi(*crf)
        assert abs(v_best - b_best) < 1e-8
        assert abs(log_partition(*crf) - b_log_z) < 1e-8
        # the decoded path must itself attain the best score
        assert abs(score_path(*crf, v_path) - b_best) < 1e-8


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
    gamma, xi, log_z = forward_backward(*crf)
    o_gamma, o_xi = oracle_marginals(enumerate_scores(*crf), n, t_count)
    np.testing.assert_allclose(gamma, o_gamma, atol=1e-10)
    np.testing.assert_allclose(xi, o_xi, atol=1e-10)
    assert log_z == pytest.approx(log_partition(*crf), abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_marginal_rows_sum_to_one(n, t_count, seed):
    crf = make_instance(np.random.default_rng(seed), n, t_count)
    gamma, xi, _ = forward_backward(*crf)
    np.testing.assert_allclose(gamma.sum(axis=1), np.ones(n), atol=1e-10)
    # pairwise marginals are consistent with the unary ones
    for i in range(n - 1):
        np.testing.assert_allclose(xi[i].sum(axis=1), gamma[i], atol=1e-10)
        np.testing.assert_allclose(xi[i].sum(axis=0), gamma[i + 1], atol=1e-10)


# ---------------------------------------------------------------------------
# loss


def test_nll_zero_scores_single_position_is_ln2():
    crf = tensors(np.zeros((1, 2)), *zero_chain(2))
    assert crf_nll(*crf, [0]).item() == pytest.approx(np.log(2.0))


def test_nll_approaches_zero_when_gold_path_dominates():
    # every non-gold label is crushed to -1e30 at each position
    scores = np.full((3, 3), -1e30)
    gold = [2, 0, 1]
    for i, y in enumerate(gold):
        scores[i, y] = 0.0
    assert abs(crf_nll(*tensors(scores, *zero_chain(3)), gold).item()) < 1e-6


def test_nll_matches_enumeration_and_is_nonnegative():
    rng = np.random.default_rng(10)
    for _ in range(50):
        n, t_count = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        crf = make_instance(rng, n, t_count)
        gold = rng.integers(0, t_count, size=n)
        table = enumerate_scores(*crf)
        expected = oracle_log_z(table) - table[tuple(gold)]
        loss = crf_nll(*tensors(*crf), gold).item()
        assert loss == pytest.approx(expected, abs=1e-8)
        assert loss >= -1e-10


def test_nll_rejects_bad_gold():
    crf = tensors(np.zeros((2, 2)), *zero_chain(2))
    with pytest.raises(ValueError):
        crf_nll(*crf, [0])
    with pytest.raises(ValueError):
        crf_nll(*crf, [0, 2])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_nll_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    n, t_count = 4, 3
    e_scores = param(rng.normal(size=(n, t_count)))
    trans = param(rng.normal(size=(t_count, t_count)))
    start = param(rng.normal(size=t_count))
    stop = param(rng.normal(size=t_count))
    gold = rng.integers(0, t_count, size=n)

    def build():
        tape = Tape()
        carrier = Tensor(np.zeros((n, t_count)), tape=tape)
        return crf_nll(add(e_scores, carrier), trans, start, stop, gold)

    assert grad_check(build, [e_scores, trans, start, stop]) < 1e-4


def test_nll_gradient_single_position_start_stop():
    rng = np.random.default_rng(3)
    e_scores = param(rng.normal(size=(1, 3)))
    trans = param(rng.normal(size=(3, 3)))
    start = param(rng.normal(size=3))
    stop = param(rng.normal(size=3))

    def build():
        tape = Tape()
        carrier = Tensor(np.zeros((1, 3)), tape=tape)
        return crf_nll(add(e_scores, carrier), trans, start, stop, [1])

    # n=1 has no transitions: trans gradient must be exactly zero
    assert grad_check(build, [e_scores, start, stop]) < 1e-4
    build_once = build()
    from mwetag.autodiff import backward

    trans.zero_grad()
    backward(build_once.tape, build_once)
    np.testing.assert_array_equal(trans.grad, np.zeros((3, 3)))
