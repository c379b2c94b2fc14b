"""Tape mechanics, primitive correctness against hand oracles, and finite
difference validation for every differentiable operation."""

import gc
import tracemalloc
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
    add,
    backward,
    bilstm,
    concat_cols,
    conv1d_same,
    cross_entropy,
    dense,
    gather_rows,
    grad_check,
    matmul,
    mul,
    param,
    relu,
    scale,
    sigmoid,
    softmax_rows,
    sum_all,
    tanh,
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
    backward(tape, loss)
    with pytest.raises(RuntimeError):
        backward(tape, loss)


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
        backward(tape, sum_all(hidden))
        del hidden
        assert freed() is None
        assert len(tape) == 0
    finally:
        gc.enable()
    np.testing.assert_allclose(w.grad, np.ones((2, 2)))


def test_backward_rejects_foreign_or_nonscalar_loss():
    tape = Tape()
    x = attach(np.ones((2, 2)), tape)
    y = relu(x)
    with pytest.raises(ValueError):
        backward(Tape(), sum_all(x))
    with pytest.raises(ValueError):
        backward(tape, y)


def test_grads_accumulate_across_tapes_until_zeroed():
    w = param(np.array([[2.0]]))
    for _ in range(3):
        tape = Tape()
        x = attach(np.array([[1.0]]), tape)
        backward(tape, sum_all(matmul(x, w)))
    np.testing.assert_allclose(w.grad, [[3.0]])
    w.zero_grad()
    np.testing.assert_allclose(w.grad, [[0.0]])


def test_unused_branch_grad_is_zero():
    w = param(np.ones((2, 2)))
    u = param(np.ones((2, 2)))
    tape = Tape()
    x = attach(np.ones((2, 2)), tape)
    backward(tape, sum_all(matmul(x, w)))
    np.testing.assert_allclose(u.grad, np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# rng stream


def test_rng_same_seed_same_draws():
    a, b = RngStream(7), RngStream(7)
    np.testing.assert_array_equal(a.uniform(0, 1, (3, 3)), b.uniform(0, 1, (3, 3)))
    np.testing.assert_array_equal(a.normal(1.0, (4,)), b.normal(1.0, (4,)))
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
    x = param(np.array([[1.0], [2.0], [3.0]]))
    kernels = param(np.array([[[1.0], [1.0]]]))
    out = conv1d_same(x, kernels, param(np.zeros(1)))
    np.testing.assert_allclose(out.data, [[3.0], [5.0], [3.0]])


def test_conv_width3_identity_kernel_recovers_input():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 2))
    # one filter per channel, hot only at the center tap
    kernels = np.zeros((2, 3, 2))
    kernels[0, 1, 0] = 1.0
    kernels[1, 1, 1] = 1.0
    out = conv1d_same(param(x), param(kernels), param(np.zeros(2)))
    np.testing.assert_allclose(out.data, x)


def test_conv_width3_hand_case_with_bias():
    x = param(np.array([[1.0], [2.0], [3.0]]))
    kernels = param(np.array([[[1.0], [10.0], [100.0]]]))
    out = conv1d_same(x, kernels, param(np.array([0.5])))
    # window (pad,1,2), (1,2,3), (2,3,pad) with taps 1,10,100 plus bias
    np.testing.assert_allclose(out.data, [[210.5], [321.5], [32.5]])


def test_conv_rejects_channel_mismatch():
    with pytest.raises(ValueError):
        conv1d_same(param(np.ones((3, 2))), param(np.ones((1, 2, 5))), param(np.zeros(1)))


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
    probs = param(np.full((3, 4), 0.25))
    loss = cross_entropy(probs, [0, 1, 3])
    np.testing.assert_allclose(loss.item(), np.log(4.0))


def test_cross_entropy_rejects_bad_gold():
    probs = param(np.full((2, 3), 1 / 3))
    with pytest.raises(ValueError):
        cross_entropy(probs, [0])
    with pytest.raises(ValueError):
        cross_entropy(probs, [0, 3])


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
    out = bilstm(param(x), fwd, bwd)
    assert out.shape == (n, 2 * h)
    expect_fwd = scalar_lstm_reference(x, fwd.wx.data, fwd.wh.data, fwd.b.data)
    expect_bwd = scalar_lstm_reference(x[::-1], bwd.wx.data, bwd.wh.data, bwd.b.data)[::-1]
    np.testing.assert_allclose(out.data[:, :h], expect_fwd, atol=1e-12)
    np.testing.assert_allclose(out.data[:, h:], expect_bwd, atol=1e-12)


@pytest.mark.parametrize("mode", ["eval", "train"])
def test_bilstm_matches_scalar_reference_padded_batch(mode):
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

    def run(x_data, w, draws, lengths=None):
        for p in params:
            p.zero_grad()
        tape = Tape()
        x = attach(x_data, tape)
        out = bilstm(x, fwd, bwd, dropout=0.5, recurrent_dropout=0.2, mode=mode,
                     rng=draws, lengths=lengths)
        assert len(tape) == 1
        backward(tape, sum_all(mul(out, Tensor(w))))
        return out.data, x.grad, [p.grad.copy() for p in params]

    out, d_x, grads = run(block, weights, RngStream(21), lengths)
    assert out.shape == (3, 4, 2 * h)
    # one stream for the sentences one at a time: the batch must draw the
    # same masks, sentence by sentence in the documented order
    singles, masks = RngStream(21), RngStream(21)
    summed = [np.zeros_like(g) for g in grads]
    for b, n in enumerate(lengths):
        s_out, s_d_x, s_grads = run(block[b, :n], weights[b, :n], singles)
        np.testing.assert_allclose(out[b, :n], s_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(d_x[b, :n], s_d_x, rtol=0, atol=1e-12)
        assert not out[b, n:].any() and not d_x[b, n:].any()
        for total, g in zip(summed, s_grads):
            total += g
        x = block[b, :n]
        if mode == "train":
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
            bilstm(Tensor(block, tape=tape), fwd, bwd, lengths=lengths)
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
        param(x), fwd, bwd, dropout=0.5, recurrent_dropout=0.2, mode="train",
        rng=RngStream(21),
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
    np.testing.assert_allclose(out.data[:, :4], expect_fwd, atol=1e-12)
    np.testing.assert_allclose(out.data[:, 4:], expect_bwd, atol=1e-12)


def test_bilstm_records_one_tape_node_whatever_the_length():
    rng = np.random.default_rng(4)
    fwd = make_lstm_params(rng, 3, 2)
    bwd = make_lstm_params(rng, 3, 2)
    counts = []
    for n in (1, 12):
        tape = Tape()
        bilstm(attach(rng.normal(size=(n, 3)), tape), fwd, bwd)
        counts.append(len(tape))
    assert counts == [1, 1]
    assert bilstm(param(rng.normal(size=(12, 3))), fwd, bwd).tape is None


def test_bilstm_eval_mode_ignores_dropout():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 3))
    fwd = make_lstm_params(rng, 3, 2)
    bwd = make_lstm_params(rng, 3, 2)
    plain = bilstm(param(x), fwd, bwd)
    dropped = bilstm(
        param(x), fwd, bwd, dropout=0.5, recurrent_dropout=0.2, mode="eval"
    )
    np.testing.assert_array_equal(plain.data, dropped.data)


def test_bilstm_train_dropout_is_seed_deterministic():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 3))
    fwd = make_lstm_params(rng, 3, 2)
    bwd = make_lstm_params(rng, 3, 2)

    def run(seed):
        return bilstm(
            param(x),
            fwd,
            bwd,
            dropout=0.5,
            recurrent_dropout=0.2,
            mode="train",
            rng=RngStream(seed),
        ).data

    np.testing.assert_array_equal(run(9), run(9))
    assert not np.array_equal(run(9), run(10))


def test_bilstm_train_needs_rng_when_dropping():
    fwd = make_lstm_params(np.random.default_rng(0), 2, 2)
    bwd = make_lstm_params(np.random.default_rng(1), 2, 2)
    with pytest.raises(ValueError):
        bilstm(param(np.ones((2, 2))), fwd, bwd, dropout=0.5, mode="train")


def test_bilstm_rejects_bad_rates_and_mode():
    fwd = make_lstm_params(np.random.default_rng(0), 2, 2)
    bwd = make_lstm_params(np.random.default_rng(1), 2, 2)
    x = param(np.ones((2, 2)))
    with pytest.raises(ValueError):
        bilstm(x, fwd, bwd, dropout=1.0, mode="train", rng=RngStream(0))
    with pytest.raises(ValueError):
        bilstm(x, fwd, bwd, mode="predict")


def test_gather_rows_forward_and_scatter_add():
    table = param(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    tape = Tape()
    picked = gather_rows(table, [2, 0, 2], tape=tape)
    np.testing.assert_allclose(picked.data, [[5.0, 6.0], [1.0, 2.0], [5.0, 6.0]])
    backward(tape, sum_all(picked))
    # duplicate index 2 accumulates both rows' gradients
    np.testing.assert_allclose(table.grad, [[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])


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
        h = tanh(h)
        h = sigmoid(h)
        return sum_all(scale(h, 1.7))

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
    x_data = rng.normal(size=(5, 4))
    gold = [0, 2, 1, 1, 0]

    def build():
        tape = Tape()
        x = attach(x_data, tape)
        return cross_entropy(softmax_rows(dense(x, w, b)), gold)

    check(build, [w, b])


def test_grad_conv_both_widths():
    rng = np.random.default_rng(10)
    k2 = param(rng.normal(size=(3, 2, 2)))
    k3 = param(rng.normal(size=(2, 3, 2)))
    b2 = param(rng.normal(size=3))
    b3 = param(rng.normal(size=2))
    x_data = rng.normal(size=(4, 2))

    def build():
        tape = Tape()
        x = attach(x_data, tape)
        return sum_all(
            mul(
                concat_cols([conv1d_same(x, k2, b2), tanh(conv1d_same(x, k3, b3))]),
                concat_cols([conv1d_same(x, k2, b2), tanh(conv1d_same(x, k3, b3))]),
            )
        )

    check(build, [k2, k3, b2, b3])


def test_grad_gather_rows():
    table = param(np.random.default_rng(11).normal(size=(5, 3)))
    indices = [4, 0, 4, 2]

    def build():
        picked = gather_rows(table, indices, tape=Tape())
        return sum_all(mul(picked, picked))

    check(build, [table])


@pytest.mark.parametrize(
    "seed, n, h",
    [(0, 3, 2), (1, 3, 2), (2, 3, 2), (3, 1, 2), (4, 3, 4)],
    ids=["0", "1", "2", "n1-h2", "n3-h4"],
)
def test_grad_bilstm_eval(seed, n, h):
    rng = np.random.default_rng(seed)
    fwd = make_lstm_params(rng, 3, h)
    bwd = make_lstm_params(rng, 3, h)
    x_data = rng.normal(size=(n, 3))

    def build():
        tape = Tape()
        x = attach(x_data, tape)
        h = bilstm(x, fwd, bwd)
        return sum_all(mul(h, h))

    check(build, fwd.tensors() + bwd.tensors())


def test_grad_bilstm_train_with_frozen_masks():
    rng = np.random.default_rng(13)
    fwd = make_lstm_params(rng, 3, 2)
    bwd = make_lstm_params(rng, 3, 2)
    x_data = rng.normal(size=(4, 3))

    def build():
        # fresh stream per call: identical masks on every evaluation
        tape = Tape()
        x = attach(x_data, tape)
        h = bilstm(
            x,
            fwd,
            bwd,
            dropout=0.5,
            recurrent_dropout=0.2,
            mode="train",
            rng=RngStream(99),
        )
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
    x_data = rng.normal(size=(4, 3))
    gold = [0, 1, 2, 1]
    params = [k2, b2, k3, b3, w, b] + fwd.tensors() + bwd.tensors()

    def build():
        tape = Tape()
        x = attach(x_data, tape)
        h = concat_cols([relu(conv1d_same(x, k2, b2)), relu(conv1d_same(x, k3, b3))])
        h = bilstm(h, fwd, bwd)
        return cross_entropy(softmax_rows(dense(h, w, b)), gold)

    # relu margin for this fixed seed
    assert np.abs(
        np.concatenate(
            [
                conv1d_same(param(x_data), k2, b2).data,
                conv1d_same(param(x_data), k3, b3).data,
            ],
            axis=1,
        )
    ).min() > 0.01
    check(build, params)
