"""Stage and tape mechanics, stage correctness against hand oracles, and
finite difference validation of every stage's backward."""

import gc
import os
import sys
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwetag.autodiff import (
    LstmParams,
    Param,
    RngStream,
    Tape,
    _lstm_direction,
    backward,
    bilstm,
    conv1d_same,
    dense,
    grad_check,
    param,
    softmax_cross_entropy,
)
from mwetag.embed import Batch, EmbeddingTable
from mwetag.tagger import TaggerConfig, build, forward


# ---------------------------------------------------------------------------
# tape mechanics


def test_ops_without_tape_record_nothing():
    w, b = param(np.ones((2, 2))), param(np.full(2, 0.5))
    out = dense(np.ones((1, 2, 2)), w, b)
    np.testing.assert_allclose(out, np.full((1, 2, 2), 2.5))
    assert not w.grad.any() and not b.grad.any()


def test_a_taped_stage_records_one_closure():
    x = np.ones((1, 3, 2))
    tape = Tape()
    scores = dense(x, param(np.ones((2, 4))), param(np.zeros(4)), tape)
    assert len(tape) == 1
    conv1d_same(x, param(np.ones((2, 3, 2))), param(np.zeros(2)), tape)
    assert len(tape) == 2
    softmax_cross_entropy(scores, [[0, 1, 2]], [3], tape)
    assert len(tape) == 3


def test_backward_twice_raises():
    tape = Tape()
    dense(np.ones((2, 2)), param(np.ones((2, 2))), param(np.zeros(2)), tape)
    backward(tape, np.ones((2, 2)))
    with pytest.raises(RuntimeError):
        backward(tape, np.ones((2, 2)))


def test_backward_frees_activations_without_the_cycle_collector():
    """backward drops each closure once it has run, so what a later stage
    kept is freed before the stages before it run, and no gc pass is
    needed: how much memory a later step sees must not depend on when the
    collector last ran."""
    kept = np.ones(8)
    freed = weakref.ref(kept)
    seen = []
    tape = Tape()
    tape.record(lambda g: seen.append(freed()))
    tape.record(lambda g, kept=kept: g * kept)
    del kept
    gc.disable()
    try:
        backward(tape)
    finally:
        gc.enable()
    assert seen == [None]
    assert len(tape) == 0


def test_backward_writes_each_grad_over_what_it_held():
    w = param(np.array([[2.0]]))
    w.grad[...] = 5.0
    for scale in (1.0, 3.0):
        tape = Tape()
        dense(np.array([[scale]]), w, param(np.zeros(1)), tape)
        backward(tape, np.ones((1, 1)))
        np.testing.assert_allclose(w.grad, [[scale]])


def test_unused_branch_grad_is_zero():
    # the conv stage's input is a network input: it returns no gradient for
    # it, and a parameter no stage read keeps its grad
    kernels, bias, unused = (param(np.ones(shape)) for shape in ((2, 3, 2), 2, (2, 2)))
    unused.grad[...] = 0.0
    tape = Tape()
    conv1d_same(np.ones((1, 4, 2)), kernels, bias, tape)
    assert backward(tape, np.ones((1, 4, 2))) is None
    np.testing.assert_allclose(bias.grad, [4.0, 4.0])
    np.testing.assert_allclose(unused.grad, np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# rng stream


def test_rng_same_seed_same_draws():
    a, b = RngStream(7), RngStream(7)
    np.testing.assert_array_equal(a.uniform(0, 1, (3, 3)), b.uniform(0, 1, (3, 3)))
    np.testing.assert_array_equal(a.permutation(10), b.permutation(10))


def test_rng_different_seeds_diverge():
    assert not np.array_equal(
        RngStream(1).uniform(0, 1, (8,)), RngStream(2).uniform(0, 1, (8,))
    )


def test_keep_mask_values_are_zero_or_inverse_keep():
    mask = RngStream(3).keep_mask(0.5, (1000,))
    assert set(np.unique(mask)) <= {0.0, 2.0}
    # with keep=0.5 both values must actually occur in 1000 draws
    assert (mask == 0.0).any() and (mask == 2.0).any()


def test_child_streams_are_deterministic_and_distinct():
    root = RngStream(11)
    c1, c2 = root.child(0), root.child(1)
    np.testing.assert_array_equal(
        c1.uniform(0, 1, (4,)), RngStream(11).child(0).uniform(0, 1, (4,))
    )
    assert not np.array_equal(c1.uniform(0, 1, (4,)), c2.uniform(0, 1, (4,)))


# ---------------------------------------------------------------------------
# forward oracles


def naive_matmul(a, b):
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 2**31 - 1),
)
def test_matmul_matches_naive_triple_loop(n, k, m, seed):
    # dense is one matmul over the stacked rows, plus the bias
    rng = np.random.default_rng(seed)
    a, b, bias = rng.normal(size=(n, k)), rng.normal(size=(k, m)), rng.normal(size=m)
    np.testing.assert_allclose(
        dense(a[None], param(b), param(bias))[0], naive_matmul(a, b) + bias, atol=1e-12
    )


def test_conv_width2_hand_case():
    # input rows [1],[2],[3]; kernel rows [1],[1]: even width pads one zero
    # row on the right, so outputs are 1+2, 2+3, 3+0
    x = np.array([[[1.0], [2.0], [3.0]]])
    kernels = param(np.array([[[1.0], [1.0]]]))
    out = conv1d_same(x, kernels, param(np.zeros(1)))
    np.testing.assert_allclose(out, [[[3.0], [5.0], [3.0]]])


def test_conv_width3_identity_kernel_recovers_input():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1, 5, 2))
    # one filter per channel, hot only at the center tap
    kernels = np.zeros((2, 3, 2))
    kernels[0, 1, 0] = 1.0
    kernels[1, 1, 1] = 1.0
    out = conv1d_same(x, param(kernels), param(np.zeros(2)))
    np.testing.assert_allclose(out, x)


def test_conv_width3_hand_case_with_bias():
    x = np.array([[[1.0], [2.0], [3.0]]])
    kernels = param(np.array([[[1.0], [10.0], [100.0]]]))
    out = conv1d_same(x, kernels, param(np.array([0.5])))
    # window (pad,1,2), (1,2,3), (2,3,pad) with taps 1,10,100 plus bias
    np.testing.assert_allclose(out, [[[210.5], [321.5], [32.5]]])


def test_conv_rejects_channel_mismatch():
    with pytest.raises(ValueError):
        conv1d_same(np.ones((1, 3, 2)), param(np.ones((1, 2, 5))), param(np.zeros(1)))


def test_softmax_closed_form():
    # probabilities 1/6, 2/6, 3/6: gold 2 costs -log(1/2), gold 0 -log(1/6)
    scores = np.log(np.array([[[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]]))
    loss = softmax_cross_entropy(scores, [[2, 0]], [2])
    np.testing.assert_allclose(loss, (np.log(2.0) + np.log(6.0)) / 2, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_softmax_rows_are_distributions(n, t, seed):
    rng = np.random.default_rng(seed)
    scores = rng.normal(scale=30.0, size=(1, n, t))
    gold = rng.integers(0, t, size=(1, n))
    tapes = [Tape(), Tape()]
    for tape in tapes:
        softmax_cross_entropy(scores, gold, [n], tape)
    # the gradient of a sentence's mean: its rows are (probs - one-hot) / n,
    # scaled by the seed
    probs = backward(tapes[0])[0] * n
    np.testing.assert_allclose(backward(tapes[1], 3.0)[0] * n, 3.0 * probs, atol=1e-12)
    probs[np.arange(n), gold[0]] += 1.0
    assert (probs >= -1e-12).all()
    np.testing.assert_allclose(probs.sum(axis=1), np.ones(n), atol=1e-12)


def test_cross_entropy_uniform_is_log_num_classes():
    loss = softmax_cross_entropy(np.zeros((1, 3, 4)), [[0, 1, 3]], [3])
    np.testing.assert_allclose(loss, np.log(4.0))


def test_cross_entropy_rejects_bad_gold():
    scores = np.zeros((1, 2, 3))
    with pytest.raises(ValueError):
        softmax_cross_entropy(scores, [[0]], [2])
    with pytest.raises(ValueError):
        softmax_cross_entropy(scores, [[0, 3]], [2])


def scalar_lstm_reference(x, wx, wh, b, rec_mask=None):
    """Plain-loop LSTM with gates packed [i, f, g, o]; rec_mask, if given,
    scales the hidden state entering every step."""

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    h_size = wh.shape[0]
    h = np.zeros(h_size)
    c = np.zeros(h_size)
    outs = []
    for t in range(x.shape[0]):
        h_in = h if rec_mask is None else h * rec_mask
        z = x[t] @ wx + h_in @ wh + b
        i = sig(z[0:h_size])
        f = sig(z[h_size : 2 * h_size])
        g = np.tanh(z[2 * h_size : 3 * h_size])
        o = sig(z[3 * h_size : 4 * h_size])
        c = f * c + i * g
        h = o * np.tanh(c)
        outs.append(h.copy())
    return np.array(outs)


def make_lstm_params(rng, d, h):
    return LstmParams(
        wx=param(rng.normal(size=(d, 4 * h))),
        wh=param(rng.normal(size=(h, 4 * h))),
        b=param(rng.normal(size=4 * h)),
    )


# (sequence length, input width, hidden size): one token, and a hidden size
# that differs from the input width, next to the plain case
@pytest.mark.parametrize(
    "n, d, h", [(3, 2, 2), (1, 2, 2), (4, 3, 5)], ids=["n3-d2-h2", "n1-d2-h2", "n4-d3-h5"]
)
def test_bilstm_matches_scalar_reference_both_directions(n, d, h):
    rng = np.random.default_rng(42)
    x = rng.normal(size=(n, d))
    fwd = make_lstm_params(rng, d, h)
    bwd = make_lstm_params(rng, d, h)
    out = bilstm(x[None], fwd, bwd, [n])
    assert out.shape == (1, n, 2 * h)
    expect_fwd = scalar_lstm_reference(x, fwd.wx.data, fwd.wh.data, fwd.b.data)
    expect_bwd = scalar_lstm_reference(x[::-1], bwd.wx.data, bwd.wh.data, bwd.b.data)[::-1]
    np.testing.assert_allclose(out[0, :, :h], expect_fwd, atol=1e-12)
    np.testing.assert_allclose(out[0, :, h:], expect_bwd, atol=1e-12)


@pytest.mark.parametrize("dropped", [False, True], ids=["eval", "train"])
def test_bilstm_matches_scalar_reference_padded_batch(dropped):
    rng = np.random.default_rng(8)
    d, h, lengths = 3, 4, [1, 4, 2]
    fwd = make_lstm_params(rng, d, h)
    bwd = make_lstm_params(rng, d, h)
    params = [*fwd, *bwd]
    # rows past each length are large noise that must not leak in
    block = rng.normal(scale=50.0, size=(3, 4, d))
    for b, n in enumerate(lengths):
        block[b, :n] = rng.normal(size=(n, d))
    weights = rng.normal(size=(3, 4, 2 * h))

    def run(x, w, draws, lengths):
        tape = Tape()
        out = bilstm(x, fwd, bwd, lengths, draws if dropped else None, tape)
        assert len(tape) == 1
        d_x = backward(tape, w)
        return out, d_x, [p.grad.copy() for p in params]

    out, d_x, grads = run(block, weights, RngStream(21), lengths)
    assert out.shape == (3, 4, 2 * h)
    # one stream for the sentences one at a time: the batch must draw the
    # same masks, sentence by sentence in the documented order
    singles, masks = RngStream(21), RngStream(21)
    summed = [np.zeros_like(g) for g in grads]
    for b, n in enumerate(lengths):
        s_out, s_d_x, s_grads = run(block[b : b + 1, :n], weights[b : b + 1, :n],
                                    singles, [n])
        np.testing.assert_allclose(out[b, :n], s_out[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(d_x[b, :n], s_d_x[0], rtol=0, atol=1e-12)
        assert not out[b, n:].any() and not d_x[b, n:].any()
        for total, g in zip(summed, s_grads):
            total += g
        x = block[b, :n]
        if dropped:
            in_fwd, rec_fwd = masks.keep_mask(0.5, (d,)), masks.keep_mask(0.2, (h,))
            in_bwd, rec_bwd = masks.keep_mask(0.5, (d,)), masks.keep_mask(0.2, (h,))
        else:
            in_fwd = in_bwd = np.ones(d)
            rec_fwd = rec_bwd = None
        expect_fwd = scalar_lstm_reference(x * in_fwd, fwd.wx.data, fwd.wh.data,
                                           fwd.b.data, rec_fwd)
        expect_bwd = scalar_lstm_reference((x * in_bwd)[::-1], bwd.wx.data, bwd.wh.data,
                                           bwd.b.data, rec_bwd)[::-1]
        np.testing.assert_allclose(out[b, :n, :h], expect_fwd, atol=1e-12)
        np.testing.assert_allclose(out[b, :n, h:], expect_bwd, atol=1e-12)
    for g, total in zip(grads, summed):
        np.testing.assert_allclose(g, total, rtol=0, atol=1e-12)


def test_bilstm_without_tape_keeps_no_backprop_state():
    rng = np.random.default_rng(9)
    fwd = make_lstm_params(rng, 10, 50)
    bwd = make_lstm_params(rng, 10, 50)
    block = rng.normal(size=(8, 20, 10))
    lengths = rng.integers(10, 21, size=8)

    def peak(tape):
        tracemalloc.start()
        try:
            bilstm(block, fwd, bwd, lengths, tape=tape)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # a recorded call keeps 7h floats per token and direction (gate
    # activations, cell and hidden state in, tanh of the cell) for backprop
    # through time; a tape-free call must not allocate them at all
    kept = 2 * lengths.sum() * 7 * 50 * 8
    assert peak(Tape()) - peak(None) > 0.9 * kept


def test_bilstm_train_masks_follow_documented_draw_order():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 3))
    fwd = make_lstm_params(rng, 3, 4)
    bwd = make_lstm_params(rng, 3, 4)
    out = bilstm(x[None], fwd, bwd, [5], rng=RngStream(21))
    # one mask per sequence per direction: forward-input, forward-recurrent,
    # backward-input, backward-recurrent
    draws = RngStream(21)
    in_fwd = draws.keep_mask(0.5, (3,))
    rec_fwd = draws.keep_mask(0.2, (4,))
    in_bwd = draws.keep_mask(0.5, (3,))
    rec_bwd = draws.keep_mask(0.2, (4,))
    expect_fwd = scalar_lstm_reference(
        x * in_fwd, fwd.wx.data, fwd.wh.data, fwd.b.data, rec_fwd
    )
    expect_bwd = scalar_lstm_reference(
        (x * in_bwd)[::-1], bwd.wx.data, bwd.wh.data, bwd.b.data, rec_bwd
    )[::-1]
    np.testing.assert_allclose(out[0, :, :4], expect_fwd, atol=1e-12)
    np.testing.assert_allclose(out[0, :, 4:], expect_bwd, atol=1e-12)


def test_bilstm_records_one_tape_node_whatever_the_length():
    rng = np.random.default_rng(4)
    fwd = make_lstm_params(rng, 3, 2)
    bwd = make_lstm_params(rng, 3, 2)
    counts = []
    for n in (1, 12):
        tape = Tape()
        bilstm(rng.normal(size=(1, n, 3)), fwd, bwd, [n], tape=tape)
        counts.append(len(tape))
    assert counts == [1, 1]


def test_bilstm_train_dropout_is_seed_deterministic():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 4, 3))
    fwd = make_lstm_params(rng, 3, 2)
    bwd = make_lstm_params(rng, 3, 2)

    def run(seed):
        return bilstm(x, fwd, bwd, [4], rng=RngStream(seed))

    np.testing.assert_array_equal(run(9), run(9))
    assert not np.array_equal(run(9), run(10))


def sequential_bilstm(block, fwd, bwd, lengths, draws, weights):
    """bilstm's forward and backward with a dropout stream, one direction
    after the other on this thread, built from _lstm_direction: the outputs,
    the input gradient and the six parameter gradients for the loss
    sum(out * weights)."""
    b_count, n, d = block.shape
    h = fwd.hidden
    lengths = np.asarray(lengths)
    masks = [(draws.keep_mask(0.5, (d,)), draws.keep_mask(0.2, (h,)))
             for _ in range(b_count) for _ in range(2)]
    order = np.argsort(-lengths, kind="stable")
    running = lengths[order] > np.arange(lengths.max())[:, None]
    step, slot = np.nonzero(running)
    sentence = order[slot]
    rows = len(step)
    out = np.zeros((b_count, n, 2 * h))
    d_x = np.zeros_like(block)
    runs = []
    for direction, p in enumerate((fwd, bwd)):
        pos = step if direction == 0 else lengths[sentence] - 1 - step
        cols = slice(direction * h, (direction + 1) * h)
        in_mask = np.array([m[0] for m in masks[direction::2]])[sentence]
        rec_mask = np.array([m[1] for m in masks[direction::2]])[order]
        out_rows = np.empty((rows, h))
        saved = (np.empty((rows, 4 * h)), *(np.empty((rows, h)) for _ in range(3)))
        back = _lstm_direction(block[sentence, pos] * in_mask, p, running.sum(axis=1),
                               rec_mask, np.empty((rows, 4 * h)), out_rows, saved)
        out[sentence, pos, cols] = out_rows
        runs.append((pos, cols, in_mask, back))
    for pos, cols, in_mask, back in runs:
        scratch = [np.empty((rows, 4 * h)), np.empty((rows, h))]
        d_x[sentence, pos] += back(weights[sentence, pos, cols], scratch,
                                   np.empty((rows, d))) * in_mask
    return out, d_x, [p.grad.copy() for p in (*fwd, *bwd)]


def test_lstm_direction_backprop_keeps_the_plain_expressions_bits():
    # back writes the gate derivatives in place into caller-owned buffers;
    # the same operations as whole-array expressions must give the same bits
    rng = np.random.default_rng(26)
    d, h = 64, 48
    lengths = np.sort(rng.integers(1, 16, size=8))[::-1]
    active = (lengths > np.arange(lengths[0])[:, None]).sum(axis=1)
    rows = lengths.sum()
    p = make_lstm_params(rng, d, h)
    for t in p:
        t.data[...] *= 0.1
    xm = rng.normal(size=(rows, d))
    rec_mask = RngStream(7).keep_mask(0.2, (8, h))
    saved = (np.empty((rows, 4 * h)), *(np.empty((rows, h)) for _ in range(3)))
    back = _lstm_direction(xm, p, active, rec_mask, np.empty((rows, 4 * h)),
                           np.empty((rows, h)), saved)
    d_out = rng.normal(size=(rows, h))
    scratch = [np.empty((rows, 4 * h)), np.empty((rows, h))]
    d_in = back(d_out, scratch, np.empty((rows, d)))
    assert scratch == []

    acts, c_in, h_in, tanh_c = saved
    gi, gf, gg, go = (acts[:, k * h : (k + 1) * h] for k in range(4))
    dc_dh = go * (1.0 - tanh_c**2)
    coef = np.concatenate([gg * gi * (1.0 - gi), c_in * gf * (1.0 - gf),
                           gi * (1.0 - gg**2), tanh_c * go * (1.0 - go)],
                          axis=1).reshape(rows, 4, h)
    d_z = np.empty((rows, 4, h))
    bounds = np.concatenate([[0], np.cumsum(active)])
    dh_next, dc_next = np.zeros((8, h)), np.zeros((8, h))
    for t in range(len(active) - 1, -1, -1):
        k, lo, hi = active[t], bounds[t], bounds[t + 1]
        dh = d_out[lo:hi] + dh_next[:k]
        dc = dh * dc_dh[lo:hi] + dc_next[:k]
        d_z[lo:hi, :3] = coef[lo:hi, :3] * dc[:, None]
        d_z[lo:hi, 3] = coef[lo:hi, 3] * dh
        dc_next[:k] = dc * gf[lo:hi]
        dh_next[:k] = d_z[lo:hi].reshape(k, 4 * h) @ p.wh.data.T * rec_mask[:k]
    d_z = d_z.reshape(rows, 4 * h)
    np.testing.assert_array_equal(d_in, d_z @ p.wx.data.T)
    np.testing.assert_array_equal(p.wx.grad, xm.T @ d_z)
    np.testing.assert_array_equal(p.wh.grad, h_in.T @ d_z)
    np.testing.assert_array_equal(p.b.grad, d_z.sum(axis=0))


@pytest.mark.parametrize(
    "affinity, count, threads",
    [({0, 1}, 1, 1), ({0}, 2, 0), (None, 2, 1), (None, 1, 0), (None, None, 0)],
    ids=["two-cpus", "one-cpu", "no-affinity-two", "no-affinity-one", "no-affinity-unknown"],
)
def test_bilstm_threaded_directions_match_sequential_bits(monkeypatch, affinity, count,
                                                          threads):
    rng = np.random.default_rng(17)
    d, h, lengths = 3, 4, [3, 1, 5, 2]
    fwd = make_lstm_params(rng, d, h)
    bwd = make_lstm_params(rng, d, h)
    block = np.zeros((4, 5, d))
    for b, n in enumerate(lengths):
        block[b, :n] = rng.normal(size=(n, d))
    weights = rng.normal(size=(4, 5, 2 * h))
    expect = sequential_bilstm(block, fwd, bwd, lengths, RngStream(5), weights)

    starts = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: (starts.append(thread), start(thread)))
    # without sched_getaffinity (macOS, Windows) bilstm counts os.cpu_count()
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    for p in (*fwd, *bwd):
        p.grad[...] = np.nan  # every entry must be written
    tape = Tape()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the two threads as finely as it can
    try:
        out = bilstm(block, fwd, bwd, lengths, RngStream(5), tape)
        d_x = backward(tape, weights)
    finally:
        sys.setswitchinterval(interval)
    # one thread for the forward pass, one for backprop through time
    assert len(starts) == 2 * threads
    np.testing.assert_array_equal(out, expect[0])
    np.testing.assert_array_equal(d_x, expect[1])
    for p, g in zip((*fwd, *bwd), expect[2]):
        np.testing.assert_array_equal(p.grad, g)
    tape_free = bilstm(block, fwd, bwd, lengths, rng=RngStream(5))
    assert len(starts) == 3 * threads
    np.testing.assert_array_equal(tape_free, expect[0])


def test_bilstm_raises_what_the_second_direction_raises(monkeypatch):
    rng = np.random.default_rng(18)
    fwd = make_lstm_params(rng, 3, 2)
    bwd = make_lstm_params(rng, 3, 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    seen = []

    def failing(xm, p, *rest):
        if p is bwd:
            seen.append(threading.current_thread())
            time.sleep(0.05)  # long enough that a caller not joining would miss it
            raise KeyError("second direction")
        return _lstm_direction(xm, p, *rest)

    monkeypatch.setattr("mwetag.autodiff._lstm_direction", failing)
    threads = threading.active_count()
    with pytest.raises(KeyError, match="second direction"):
        bilstm(rng.normal(size=(2, 3, 3)), fwd, bwd, [3, 2])
    assert seen and seen[0] is not threading.current_thread()
    assert threading.active_count() == threads


def test_bilstm_second_direction_keeps_the_callers_errstate(monkeypatch):
    rng = np.random.default_rng(19)
    fwd = make_lstm_params(rng, 3, 2)
    bwd = make_lstm_params(rng, 3, 2)
    bwd.b.data[:] = -1000.0  # exp(1000) in the backward direction's sigmoid
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    x = rng.normal(size=(1, 3, 3))
    # a thread under numpy's default error state would warn under "ignore"
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        bilstm(x, fwd, bwd, [3])
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        bilstm(x, fwd, bwd, [3])
    seen = []
    with np.errstate(over="call", call=lambda kind, flag: seen.append(kind)):
        bilstm(x, fwd, bwd, [3])
    assert "overflow" in seen


def test_bilstm_raises_what_the_second_directions_backprop_raises(monkeypatch):
    rng = np.random.default_rng(22)
    fwd = make_lstm_params(rng, 3, 2)
    bwd = make_lstm_params(rng, 3, 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    seen = []

    def failing_back(*args):
        seen.append(threading.current_thread())
        time.sleep(0.05)  # long enough that a caller not joining would miss it
        raise KeyError("second direction's backprop")

    def direction(xm, p, *rest):
        back = _lstm_direction(xm, p, *rest)
        return failing_back if p is bwd and back is not None else back

    monkeypatch.setattr("mwetag.autodiff._lstm_direction", direction)
    tape = Tape()
    bilstm(rng.normal(size=(2, 3, 3)), fwd, bwd, [3, 2], tape=tape)
    threads = threading.active_count()
    with pytest.raises(KeyError, match="second direction's backprop"):
        backward(tape, np.ones((2, 3, 4)))
    assert seen and seen[0] is not threading.current_thread()
    assert threading.active_count() == threads


def test_bilstm_second_directions_backprop_keeps_the_callers_errstate(monkeypatch):
    rng = np.random.default_rng(23)
    fwd = make_lstm_params(rng, 3, 2)
    bwd = make_lstm_params(rng, 3, 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    # the backward direction's gates held near i = 0, f = o = 1, so its cell
    # gradient carries almost whole from step to step; under huge output
    # gradients on its columns only, the carry overflows in backprop while
    # the forward direction's gradients stay finite
    bwd.b.data[:] = np.repeat([-20.0, 20.0, 0.0, 20.0], 2)
    weights = np.ones((1, 4, 4))
    weights[..., 2:] = 1e308
    x = rng.normal(size=(1, 4, 3))

    def run():
        tape = Tape()
        with np.errstate(all="ignore"):
            bilstm(x, fwd, bwd, [4], tape=tape)
        backward(tape, weights)

    # a thread under numpy's default error state would warn under "ignore"
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        run()
    with np.errstate(all="ignore", over="raise"), pytest.raises(FloatingPointError):
        run()


def test_bilstm_threaded_matches_one_cpu_bits_at_blocked_gemm_sizes(monkeypatch):
    # sizes at which BLAS runs its blocked GEMM kernels, not only tiny ones
    rng = np.random.default_rng(24)
    d, h = 64, 48
    lengths = rng.integers(1, 16, size=8)
    fwd = make_lstm_params(rng, d, h)
    bwd = make_lstm_params(rng, d, h)
    params = [*fwd, *bwd]
    for p in params:
        p.data[...] *= 0.1  # keep the gates off saturation
    block = np.zeros((8, lengths.max(), d))
    for b, n in enumerate(lengths):
        block[b, :n] = rng.normal(size=(n, d))
    weights = rng.normal(size=(8, lengths.max(), 2 * h))
    starts = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: (starts.append(thread), start(thread)))

    def run(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        tape = Tape()
        out = bilstm(block, fwd, bwd, lengths, RngStream(6), tape)
        d_x = backward(tape, weights)
        return out, d_x, [p.grad.copy() for p in params]

    inline = run({0})
    assert not starts
    threaded = run({0, 1})
    assert len(starts) == 2
    np.testing.assert_array_equal(threaded[0], inline[0])
    np.testing.assert_array_equal(threaded[1], inline[1])
    for g, expect in zip(threaded[2], inline[2]):
        np.testing.assert_array_equal(g, expect)


def test_bilstm_refuses_directions_sharing_a_parameter():
    # each direction writes its parameters' gradients: a shared one would
    # keep only one direction's
    rng = np.random.default_rng(25)
    fwd = make_lstm_params(rng, 3, 2)
    bwd = make_lstm_params(rng, 3, 2)
    block = rng.normal(size=(2, 3, 3))
    # the same Params, one of them, or a view of one's gradient array
    for other in (fwd, bwd._replace(b=fwd.b),
                  bwd._replace(wh=Param(bwd.wh.data, fwd.wh.grad[:, :4]))):
        with pytest.raises(ValueError, match="share a parameter"):
            bilstm(block, fwd, other, [3, 2], tape=Tape())
        with pytest.raises(ValueError, match="share a parameter"):
            bilstm(block, other, fwd, [3, 2])


# ---------------------------------------------------------------------------
# gradients against finite differences

# central differences with eps=1e-4 carry O(eps^2) truncation plus roundoff
# amplified on near-zero coordinates, so composite checks use the same
# tolerance the training stack is held to
TOL = 1e-4


def check(loss, params, seed=1.0):
    err = grad_check(loss, params, seed)
    assert err < TOL, f"gradient mismatch {err:.3e}"


def test_grad_square_is_tight():
    theta = param(np.array([[3.0]]))
    zero = param(np.zeros(1))

    def square(tape):
        out = dense(np.array([[1.0]]), theta, zero, tape)
        if tape is not None:
            tape.record(lambda g: 2.0 * out * g)
        return (out * out).sum()

    # d(theta^2) analytic vs central difference agrees to machine-ish level
    assert grad_check(square, [theta]) < 1e-8
    np.testing.assert_allclose(theta.grad, [[6.0]])


def test_grad_matmul_add_mul():
    # two chained dense stages, probed by sum(out * c)
    rng = np.random.default_rng(5)
    a = param(rng.normal(size=(3, 4)))
    zero = param(np.zeros(4))
    b = param(rng.normal(size=(4, 2)))
    bias = param(rng.normal(size=2))
    c = rng.normal(size=(3, 2))
    x = rng.normal(size=(3, 3))

    def probe(tape):
        return (dense(dense(x, a, zero, tape), b, bias, tape) * c).sum()

    check(probe, [a, b, bias], seed=c)


def test_grad_concat_cols():
    # the conv banks' columns of the BiLSTM input, then the POS one-hot,
    # through tagger.forward: a wrong column offset in the banks' backward
    # changes the result
    config = TaggerConfig(filters_per_width=2, lstm_hidden=2, head="crf", seed=0)
    pos = np.zeros((1, 3, 2))
    pos[0, [0, 1, 2], [0, 1, 0]] = 1.0
    for salt in range(40, 140):
        rng = RngStream(salt)
        model = build(config, EmbeddingTable(3, {}), ("O", "B-X", "I-X"), ("UNK", "VERB"),
                      rng)
        word = rng.uniform(-1.0, 1.0, (1, 3, 10))
        banks = [model.params[f"conv{w}_{part}"] for w in (2, 3)
                 for part in ("kernels", "bias")]
        # every pre-activation clear of the ReLU kink by more than the step
        if all(np.abs(conv1d_same(word, *banks[i : i + 2])).min() > 5e-3 for i in (0, 2)):
            break
    batch = Batch(word, pos, np.array([3]))
    weights = np.random.default_rng(7).normal(size=(1, 3, 3))

    def probe(tape):
        return (forward(model, batch, tape=tape) * weights).sum()

    check(probe, banks, seed=weights)


def test_grad_softmax_cross_entropy():
    rng = np.random.default_rng(9)
    w = param(rng.normal(size=(4, 3)))
    b = param(rng.normal(size=3))
    x = rng.normal(size=(1, 5, 4))
    gold = [[0, 2, 1, 1, 0]]

    def ce(tape):
        return softmax_cross_entropy(dense(x, w, b, tape), gold, [5], tape)

    check(ce, [w, b])


def test_grad_conv_both_widths():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(1, 4, 2))
    for filters, width in ((3, 2), (2, 3)):
        k = param(rng.normal(size=(filters, width, 2)))
        b = param(rng.normal(size=filters))
        w = rng.normal(size=(1, 4, filters))

        def probe(tape, k=k, b=b, w=w):
            return (conv1d_same(x, k, b, tape) * w).sum()

        check(probe, [k, b], seed=w)


@pytest.mark.parametrize(
    "seed, n, h",
    [(0, 3, 2), (1, 3, 2), (2, 3, 2), (3, 1, 2), (4, 3, 4)],
    ids=["0", "1", "2", "n1-h2", "n3-h4"],
)
def test_grad_bilstm_eval(seed, n, h):
    rng = np.random.default_rng(seed)
    fwd = make_lstm_params(rng, 3, h)
    bwd = make_lstm_params(rng, 3, h)
    x = rng.normal(size=(1, n, 3))
    w = rng.normal(size=(1, n, 2 * h))

    def probe(tape):
        return (bilstm(x, fwd, bwd, [n], tape=tape) * w).sum()

    check(probe, [*fwd, *bwd], seed=w)


def test_grad_bilstm_train_with_frozen_masks():
    rng = np.random.default_rng(13)
    fwd = make_lstm_params(rng, 3, 2)
    bwd = make_lstm_params(rng, 3, 2)
    x = rng.normal(size=(1, 4, 3))
    w = rng.normal(size=(1, 4, 4))

    def probe(tape):
        # fresh stream per call: identical masks on every evaluation
        return (bilstm(x, fwd, bwd, [4], RngStream(99), tape) * w).sum()

    check(probe, [*fwd, *bwd], seed=w)


def test_grad_full_stack_composite():
    # conv banks -> relu -> concat -> bilstm -> dense -> softmax cross
    # entropy, the full network shape in miniature, wired here by hand
    rng = np.random.default_rng(14)
    k2 = param(rng.normal(size=(2, 2, 3)))
    b2 = param(rng.normal(size=2))
    k3 = param(rng.normal(size=(2, 3, 3)))
    b3 = param(rng.normal(size=2))
    fwd = make_lstm_params(rng, 4, 2)
    bwd = make_lstm_params(rng, 4, 2)
    w = param(rng.normal(size=(4, 3)))
    b = param(rng.normal(size=3))
    x = rng.normal(size=(1, 4, 3))
    gold = [[0, 1, 2, 1]]
    params = [k2, b2, k3, b3, w, b, *fwd, *bwd]

    def ce(tape):
        tapes = [None, None] if tape is None else [Tape(), Tape()]
        pre = [conv1d_same(x, k2, b2, tapes[0]), conv1d_same(x, k3, b3, tapes[1])]
        if tape is not None:
            def banks(g):
                backward(tapes[0], g[..., :2] * (pre[0] > 0))
                backward(tapes[1], g[..., 2:] * (pre[1] > 0))

            tape.record(banks)
        h = bilstm(np.maximum(np.concatenate(pre, axis=-1), 0.0), fwd, bwd, [4], tape=tape)
        return softmax_cross_entropy(dense(h, w, b, tape), gold, [4], tape)

    # relu margin for this fixed seed
    assert np.abs(np.concatenate(
        [conv1d_same(x, k2, b2), conv1d_same(x, k3, b3)], axis=-1)).min() > 0.01
    check(ce, params)
