"""Tape mechanics, primitive correctness against hand oracles, and finite
difference validation for every differentiable operation."""

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
    RngStream,
    Tape,
    Tensor,
    _lstm_direction,
    add,
    backward,
    bilstm,
    concat_cols,
    conv1d_same,
    cross_entropy,
    dense,
    grad_check,
    matmul,
    mul,
    param,
    relu,
    softmax_rows,
    sum_all,
)


def attach(data, tape):
    return Tensor(data, tape=tape)


# ---------------------------------------------------------------------------
# tape mechanics


def test_ops_without_tape_record_nothing():
    a = param(np.ones((2, 2)))
    b = param(np.ones((2, 2)))
    out = matmul(a, b)
    assert out.tape is None
    np.testing.assert_allclose(out.data, 2 * np.ones((2, 2)))


def test_output_inherits_tape_from_input():
    tape = Tape()
    a = attach(np.ones((2, 2)), tape)
    b = param(np.ones((2, 2)))
    out = matmul(a, b)
    assert out.tape is tape
    assert len(tape) == 1


def test_mixing_two_tapes_raises():
    a = attach(np.ones((2, 2)), Tape())
    b = attach(np.ones((2, 2)), Tape())
    with pytest.raises(ValueError):
        add(a, b)


def test_backward_twice_raises():
    tape = Tape()
    x = attach(np.ones((2, 2)), tape)
    loss = sum_all(x)
    backward(loss)
    with pytest.raises(RuntimeError):
        backward(loss)


def test_backward_frees_activations_without_the_cycle_collector():
    """backward drops each node once it has run, so nothing recorded on the
    tape waits for a gc pass: how much memory a later step sees must not
    depend on when the collector last ran."""
    w = param(np.ones((2, 2)))
    tape = Tape()
    gc.disable()
    try:
        hidden = relu(matmul(attach(np.ones((1, 2)), tape), w))
        freed = weakref.ref(hidden.data)
        backward(sum_all(hidden))
        del hidden
        assert freed() is None
        assert len(tape) == 0
    finally:
        gc.enable()
    np.testing.assert_allclose(w.grad, np.ones((2, 2)))


def test_backward_rejects_foreign_or_nonscalar_loss():
    # backward runs the loss's own tape: a tape-free loss has none to run
    with pytest.raises(ValueError, match="not recorded on a tape"):
        backward(sum_all(param(np.ones((2, 2)))))
    with pytest.raises(ValueError, match="scalar"):
        backward(relu(attach(np.ones((2, 2)), Tape())))


def test_grads_accumulate_across_tapes_until_zeroed():
    w = param(np.array([[2.0]]))
    for _ in range(3):
        tape = Tape()
        x = attach(np.array([[1.0]]), tape)
        backward(sum_all(matmul(x, w)))
    np.testing.assert_allclose(w.grad, [[3.0]])
    w.zero_grad()
    np.testing.assert_allclose(w.grad, [[0.0]])


def test_unused_branch_grad_is_zero():
    w = param(np.ones((2, 2)))
    u = param(np.ones((2, 2)))
    tape = Tape()
    x = attach(np.ones((2, 2)), tape)
    backward(sum_all(matmul(x, w)))
    np.testing.assert_allclose(u.grad, np.zeros((2, 2)))


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
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(n, k)), rng.normal(size=(k, m))
    np.testing.assert_allclose(
        matmul(param(a), param(b)).data, naive_matmul(a, b), atol=1e-12
    )


def test_conv_width2_hand_case():
    # input rows [1],[2],[3]; kernel rows [1],[1]: even width pads one zero
    # row on the right, so outputs are 1+2, 2+3, 3+0
    x = param(np.array([[[1.0], [2.0], [3.0]]]))
    kernels = param(np.array([[[1.0], [1.0]]]))
    out = conv1d_same(x, kernels, param(np.zeros(1)))
    np.testing.assert_allclose(out.data, [[[3.0], [5.0], [3.0]]])


def test_conv_width3_identity_kernel_recovers_input():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1, 5, 2))
    # one filter per channel, hot only at the center tap
    kernels = np.zeros((2, 3, 2))
    kernels[0, 1, 0] = 1.0
    kernels[1, 1, 1] = 1.0
    out = conv1d_same(param(x), param(kernels), param(np.zeros(2)))
    np.testing.assert_allclose(out.data, x)


def test_conv_width3_hand_case_with_bias():
    x = param(np.array([[[1.0], [2.0], [3.0]]]))
    kernels = param(np.array([[[1.0], [10.0], [100.0]]]))
    out = conv1d_same(x, kernels, param(np.array([0.5])))
    # window (pad,1,2), (1,2,3), (2,3,pad) with taps 1,10,100 plus bias
    np.testing.assert_allclose(out.data, [[[210.5], [321.5], [32.5]]])


def test_conv_rejects_channel_mismatch():
    with pytest.raises(ValueError):
        conv1d_same(param(np.ones((1, 3, 2))), param(np.ones((1, 2, 5))), param(np.zeros(1)))


def test_softmax_closed_form():
    x = param(np.log(np.array([[1.0, 2.0, 3.0]])))
    np.testing.assert_allclose(
        softmax_rows(x).data, [[1 / 6, 2 / 6, 3 / 6]], atol=1e-12
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_softmax_rows_are_distributions(n, t, seed):
    x = np.random.default_rng(seed).normal(scale=30.0, size=(n, t))
    probs = softmax_rows(param(x)).data
    assert (probs >= 0).all()
    np.testing.assert_allclose(probs.sum(axis=1), np.ones(n), atol=1e-12)


def test_cross_entropy_uniform_is_log_num_classes():
    probs = param(np.full((1, 3, 4), 0.25))
    loss = cross_entropy(probs, [[0, 1, 3]], [3])
    np.testing.assert_allclose(loss.item(), np.log(4.0))


def test_cross_entropy_rejects_bad_gold():
    probs = param(np.full((1, 2, 3), 1 / 3))
    with pytest.raises(ValueError):
        cross_entropy(probs, [[0]], [2])
    with pytest.raises(ValueError):
        cross_entropy(probs, [[0, 3]], [2])


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
    out = bilstm(param(x[None]), fwd, bwd, [n])
    assert out.shape == (1, n, 2 * h)
    expect_fwd = scalar_lstm_reference(x, fwd.wx.data, fwd.wh.data, fwd.b.data)
    expect_bwd = scalar_lstm_reference(x[::-1], bwd.wx.data, bwd.wh.data, bwd.b.data)[::-1]
    np.testing.assert_allclose(out.data[0, :, :h], expect_fwd, atol=1e-12)
    np.testing.assert_allclose(out.data[0, :, h:], expect_bwd, atol=1e-12)


@pytest.mark.parametrize("dropped", [False, True], ids=["eval", "train"])
def test_bilstm_matches_scalar_reference_padded_batch(dropped):
    rng = np.random.default_rng(8)
    d, h, lengths = 3, 4, [1, 4, 2]
    fwd = make_lstm_params(rng, d, h)
    bwd = make_lstm_params(rng, d, h)
    params = fwd.tensors() + bwd.tensors()
    # rows past each length are large noise that must not leak in
    block = rng.normal(scale=50.0, size=(3, 4, d))
    for b, n in enumerate(lengths):
        block[b, :n] = rng.normal(size=(n, d))
    weights = rng.normal(size=(3, 4, 2 * h))

    def run(x_data, w, draws, lengths):
        for p in params:
            p.zero_grad()
        tape = Tape()
        x = attach(x_data, tape)
        out = bilstm(x, fwd, bwd, lengths, draws if dropped else None)
        assert len(tape) == 1
        backward(sum_all(mul(out, Tensor(w))))
        return out.data, x.grad, [p.grad.copy() for p in params]

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
            bilstm(Tensor(block, tape=tape), fwd, bwd, lengths)
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
    out = bilstm(
        param(x[None]), fwd, bwd, [5], rng=RngStream(21),
    )
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
    np.testing.assert_allclose(out.data[0, :, :4], expect_fwd, atol=1e-12)
    np.testing.assert_allclose(out.data[0, :, 4:], expect_bwd, atol=1e-12)


def test_bilstm_records_one_tape_node_whatever_the_length():
    rng = np.random.default_rng(4)
    fwd = make_lstm_params(rng, 3, 2)
    bwd = make_lstm_params(rng, 3, 2)
    counts = []
    for n in (1, 12):
        tape = Tape()
        bilstm(attach(rng.normal(size=(1, n, 3)), tape), fwd, bwd, [n])
        counts.append(len(tape))
    assert counts == [1, 1]
    assert bilstm(param(rng.normal(size=(1, 12, 3))), fwd, bwd, [12]).tape is None


def test_bilstm_train_dropout_is_seed_deterministic():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 4, 3))
    fwd = make_lstm_params(rng, 3, 2)
    bwd = make_lstm_params(rng, 3, 2)

    def run(seed):
        return bilstm(param(x), fwd, bwd, [4], rng=RngStream(seed)).data

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
    for p in fwd.tensors() + bwd.tensors():
        p.zero_grad()
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
        scratch = [np.empty((rows, 4 * h)), np.empty((rows, h)), np.empty((max(d, h), 4 * h))]
        d_x[sentence, pos] += back(weights[sentence, pos, cols], scratch,
                                   np.empty((rows, d))) * in_mask
    return out, d_x, [p.grad.copy() for p in fwd.tensors() + bwd.tensors()]


def test_lstm_direction_backprop_keeps_the_plain_expressions_bits():
    # back writes the gate derivatives in place into caller-owned buffers;
    # the same operations as whole-array expressions must give the same bits
    rng = np.random.default_rng(26)
    d, h = 64, 48
    lengths = np.sort(rng.integers(1, 16, size=8))[::-1]
    active = (lengths > np.arange(lengths[0])[:, None]).sum(axis=1)
    rows = lengths.sum()
    p = make_lstm_params(rng, d, h)
    for t in p.tensors():
        t.data *= 0.1
    xm = rng.normal(size=(rows, d))
    rec_mask = RngStream(7).keep_mask(0.2, (8, h))
    saved = (np.empty((rows, 4 * h)), *(np.empty((rows, h)) for _ in range(3)))
    back = _lstm_direction(xm, p, active, rec_mask, np.empty((rows, 4 * h)),
                           np.empty((rows, h)), saved)
    d_out = rng.normal(size=(rows, h))
    scratch = [np.empty((rows, 4 * h)), np.empty((rows, h)), np.empty((d, 4 * h))]
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
    for p in fwd.tensors() + bwd.tensors():
        p.zero_grad()
    tape = Tape()
    x = attach(block, tape)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the two threads as finely as it can
    try:
        out = bilstm(x, fwd, bwd, lengths, rng=RngStream(5))
        backward(sum_all(mul(out, Tensor(weights))))
    finally:
        sys.setswitchinterval(interval)
    # one thread for the forward pass, one for backprop through time
    assert len(starts) == 2 * threads
    np.testing.assert_array_equal(out.data, expect[0])
    np.testing.assert_array_equal(x.grad, expect[1])
    for p, g in zip(fwd.tensors() + bwd.tensors(), expect[2]):
        np.testing.assert_array_equal(p.grad, g)
    tape_free = bilstm(param(block), fwd, bwd, lengths, rng=RngStream(5))
    assert len(starts) == 3 * threads
    np.testing.assert_array_equal(tape_free.data, expect[0])


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
        bilstm(param(rng.normal(size=(2, 3, 3))), fwd, bwd, [3, 2])
    assert seen and seen[0] is not threading.current_thread()
    assert threading.active_count() == threads


def test_bilstm_second_direction_keeps_the_callers_errstate(monkeypatch):
    rng = np.random.default_rng(19)
    fwd = make_lstm_params(rng, 3, 2)
    bwd = make_lstm_params(rng, 3, 2)
    bwd.b.data[:] = -1000.0  # exp(1000) in the backward direction's sigmoid
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    x = param(rng.normal(size=(1, 3, 3)))
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
    out = bilstm(attach(rng.normal(size=(2, 3, 3)), tape), fwd, bwd, [3, 2])
    threads = threading.active_count()
    with pytest.raises(KeyError, match="second direction's backprop"):
        backward(sum_all(out))
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
            loss = sum_all(mul(bilstm(attach(x, tape), fwd, bwd, [4]), Tensor(weights)))
        backward(loss)

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
    params = fwd.tensors() + bwd.tensors()
    for p in params:
        p.data *= 0.1  # keep the gates off saturation
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
        for p in params:
            p.zero_grad()
        tape = Tape()
        x = attach(block, tape)
        out = bilstm(x, fwd, bwd, lengths, rng=RngStream(6))
        backward(sum_all(mul(out, Tensor(weights))))
        return out.data, x.grad, [p.grad.copy() for p in params]

    inline = run({0})
    assert not starts
    threaded = run({0, 1})
    assert len(starts) == 2
    np.testing.assert_array_equal(threaded[0], inline[0])
    np.testing.assert_array_equal(threaded[1], inline[1])
    for g, expect in zip(threaded[2], inline[2]):
        np.testing.assert_array_equal(g, expect)


def test_bilstm_directions_sharing_a_parameter_backprop_on_one_thread(monkeypatch):
    rng = np.random.default_rng(25)
    shared = make_lstm_params(rng, 3, 2)
    block = rng.normal(size=(2, 3, 3))
    starts = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: (starts.append(thread), start(thread)))

    def run(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        shared.wx.zero_grad()
        tape = Tape()
        backward(sum_all(bilstm(attach(block, tape), shared, shared, [3, 2])))
        return shared.wx.grad.copy()

    inline = run({0})
    # the forward pass only reads the weights and may still use two threads;
    # both directions' backprop adds into the one gradient, so it may not
    np.testing.assert_array_equal(run({0, 1}), inline)
    assert len(starts) == 1


# ---------------------------------------------------------------------------
# gradients against finite differences

# central differences with eps=1e-4 carry O(eps^2) truncation plus roundoff
# amplified on near-zero coordinates, so composite checks use the same
# tolerance the training stack is held to
TOL = 1e-4


def check(build, params):
    err = grad_check(build, params)
    assert err < TOL, f"gradient mismatch {err:.3e}"


def test_grad_square_is_tight():
    theta = param(np.array([[3.0]]))

    def build():
        tape = Tape()
        x = attach(np.array([[1.0]]), tape)
        y = mul(matmul(x, theta), matmul(x, theta))
        return sum_all(y)

    # d(theta^2) analytic vs central difference agrees to machine-ish level
    assert grad_check(build, [theta]) < 1e-8
    np.testing.assert_allclose(theta.grad, [[6.0]])


def test_grad_matmul_add_mul():
    rng = np.random.default_rng(5)
    a = param(rng.normal(size=(3, 4)))
    b = param(rng.normal(size=(4, 2)))
    bias = param(rng.normal(size=2))
    c = param(rng.normal(size=(3, 2)))
    x_data = rng.normal(size=(3, 3))

    def build():
        tape = Tape()
        x = attach(x_data, tape)
        out = mul(add(matmul(matmul(x, a), b), bias), c)
        return sum_all(out)

    check(build, [a, b, bias, c])


def test_grad_activations_and_scale():
    rng = np.random.default_rng(6)
    w = param(rng.normal(size=(3, 3)))
    # keep relu pre-activations away from the kink
    x_data = rng.choice([-2.0, -1.0, 1.0, 2.0], size=(2, 3))

    def build():
        tape = Tape()
        x = attach(x_data, tape)
        h = relu(matmul(x, w))
        return sum_all(mul(h, h))

    # confirm the margin actually holds for this seed
    assert np.abs(x_data @ w.data).min() > 0.05
    check(build, [w])


def test_grad_concat_cols():
    rng = np.random.default_rng(7)
    w = param(rng.normal(size=(4, 6)))
    u = param(rng.normal(size=(4, 2)))
    x_data = rng.normal(size=(3, 4))

    def build():
        tape = Tape()
        x = attach(x_data, tape)
        # unequal widths: a wrong column offset in backward changes the result
        joined = concat_cols([matmul(x, u), matmul(x, w)])
        return sum_all(mul(joined, joined))

    check(build, [w, u])


def test_grad_softmax_cross_entropy():
    rng = np.random.default_rng(9)
    w = param(rng.normal(size=(4, 3)))
    b = param(rng.normal(size=3))
    x_data = rng.normal(size=(1, 5, 4))
    gold = [[0, 2, 1, 1, 0]]

    def build():
        tape = Tape()
        x = attach(x_data, tape)
        return cross_entropy(softmax_rows(dense(x, w, b)), gold, [5])

    check(build, [w, b])


def test_grad_conv_both_widths():
    rng = np.random.default_rng(10)
    k2 = param(rng.normal(size=(3, 2, 2)))
    k3 = param(rng.normal(size=(2, 3, 2)))
    b2 = param(rng.normal(size=3))
    b3 = param(rng.normal(size=2))
    x_data = rng.normal(size=(1, 4, 2))

    def build():
        tape = Tape()
        x = attach(x_data, tape)
        return sum_all(
            mul(
                concat_cols([conv1d_same(x, k2, b2), conv1d_same(x, k3, b3)]),
                concat_cols([conv1d_same(x, k2, b2), conv1d_same(x, k3, b3)]),
            )
        )

    check(build, [k2, k3, b2, b3])


@pytest.mark.parametrize(
    "seed, n, h",
    [(0, 3, 2), (1, 3, 2), (2, 3, 2), (3, 1, 2), (4, 3, 4)],
    ids=["0", "1", "2", "n1-h2", "n3-h4"],
)
def test_grad_bilstm_eval(seed, n, h):
    rng = np.random.default_rng(seed)
    fwd = make_lstm_params(rng, 3, h)
    bwd = make_lstm_params(rng, 3, h)
    x_data = rng.normal(size=(1, n, 3))

    def build():
        tape = Tape()
        x = attach(x_data, tape)
        h = bilstm(x, fwd, bwd, [n])
        return sum_all(mul(h, h))

    check(build, fwd.tensors() + bwd.tensors())


def test_grad_bilstm_train_with_frozen_masks():
    rng = np.random.default_rng(13)
    fwd = make_lstm_params(rng, 3, 2)
    bwd = make_lstm_params(rng, 3, 2)
    x_data = rng.normal(size=(1, 4, 3))

    def build():
        # fresh stream per call: identical masks on every evaluation
        h = bilstm(attach(x_data, Tape()), fwd, bwd, [4], rng=RngStream(99))
        return sum_all(mul(h, h))

    check(build, fwd.tensors() + bwd.tensors())


def test_grad_full_stack_composite():
    # conv banks -> concat -> bilstm -> dense -> softmax -> cross entropy,
    # the full network shape in miniature
    rng = np.random.default_rng(14)
    k2 = param(rng.normal(size=(2, 2, 3)))
    b2 = param(rng.normal(size=2))
    k3 = param(rng.normal(size=(2, 3, 3)))
    b3 = param(rng.normal(size=2))
    fwd = make_lstm_params(rng, 4, 2)
    bwd = make_lstm_params(rng, 4, 2)
    w = param(rng.normal(size=(4, 3)))
    b = param(rng.normal(size=3))
    x_data = rng.normal(size=(1, 4, 3))
    gold = [[0, 1, 2, 1]]
    params = [k2, b2, k3, b3, w, b] + fwd.tensors() + bwd.tensors()

    def build():
        tape = Tape()
        x = attach(x_data, tape)
        h = concat_cols([relu(conv1d_same(x, k2, b2)), relu(conv1d_same(x, k3, b3))])
        h = bilstm(h, fwd, bwd, [4])
        return cross_entropy(softmax_rows(dense(h, w, b)), gold, [4])

    # relu margin for this fixed seed
    assert np.abs(
        np.concatenate(
            [
                conv1d_same(param(x_data), k2, b2).data,
                conv1d_same(param(x_data), k3, b3).data,
            ],
            axis=-1,
        )
    ).min() > 0.01
    check(build, params)
