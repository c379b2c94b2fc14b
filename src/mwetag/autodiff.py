"""The tagger's layers as stages on plain float64 arrays, each with its
backward pass.

A stage is a layer function (conv1d_same, bilstm, dense) or a loss
(softmax_cross_entropy here, chaincrf.crf_nll). Called without a tape it
only computes its output: the evaluation path. Called with a Tape, it also
records one backward closure that keeps only what that backward needs. The
closure maps the gradient of the stage's output to the gradient of its
input, and writes the gradient of each parameter it reads straight into
that parameter's grad array, over what the array held. A stage whose input
is a network input (conv1d_same reads the word vectors, which are never
trained) computes no input gradient and returns None.

A Tape is only the ordered list of one pass's closures; backward runs them
once, last first, handing each one what the one after it returned. A
parameter is a bare Param, its value array and the array its gradient is
written into; the tagger's are views of one slot of its flat vectors. Since
each stage writes its parameters' gradients rather than adding to them,
no two stages of a pass may read the same Param.

The BiLSTM runs backprop through time by hand (see bilstm). It is also the
one stage with dropout, at the fixed rates DROPOUT and RECURRENT_DROPOUT,
drawn from a dropout stream when the caller passes one: a training pass
passes it, an evaluation pass does not.

The layers run on a padded batch of B sentences, a B x n x d block that is
zero past each sentence's end; the sequence stages (bilstm,
softmax_cross_entropy) also take the B sentence lengths.

Every stage's backward is validated against central finite differences of
its forward (grad_check), which is also the verification entry point
exposed to callers.
"""

from __future__ import annotations

import os
import threading
from functools import partial
from typing import NamedTuple

import numpy as np

DROPOUT = 0.5  # BiLSTM input dropout, one mask per sentence and direction
RECURRENT_DROPOUT = 0.2  # on the hidden state entering the recurrence


class Param(NamedTuple):
    """A trainable array and the array of its shape that a stage's
    backward writes its gradient into."""

    data: np.ndarray
    grad: np.ndarray


def param(data) -> Param:
    """A Param over data as float64, with a gradient array of its own."""
    data = np.asarray(data, dtype=np.float64)
    return Param(data, np.zeros_like(data))


class Tape:
    """The backward closures of one pass's stages, in the order the stages
    ran; backward empties it as it runs."""

    def __init__(self):
        self._stages = []
        self._used = False

    def record(self, backward_fn):
        self._stages.append(backward_fn)

    def __len__(self):
        return len(self._stages)


class RngStream:
    """Deterministic random stream: same seed + same draw sequence -> same
    values (counter-based Philox underneath)."""

    def __init__(self, seed: int):
        self.seed = seed
        self._gen = np.random.Generator(np.random.Philox(seed))

    def uniform(self, low, high, shape):
        return self._gen.uniform(low, high, shape)

    def keep_mask(self, drop_rate: float, shape):
        """Inverted-dropout mask: kept entries carry 1/keep, dropped are 0."""
        keep = 1.0 - drop_rate
        return (self._gen.uniform(0.0, 1.0, shape) < keep) / keep

    def permutation(self, n: int):
        return self._gen.permutation(n)

    def integers(self, low, high):
        return int(self._gen.integers(low, high))

    def child(self, salt: int) -> "RngStream":
        return RngStream((self.seed * 0x9E3779B97F4A7C15 + salt) % (2**63))


def backward(tape: Tape, seed=1.0):
    """Run a tape's stages once, last first: the last stage is handed seed,
    the gradient of the scalar the pass computes with respect to that
    stage's output (1.0 for a loss stage), and every other stage what the
    stage after it returned. Returns what the first stage returned."""
    if tape._used:
        raise RuntimeError("backward already ran on this tape")
    tape._used = True
    # a closure is dropped as soon as it has run, so the activations it
    # holds are freed right away, while the stages before it still run
    stages, tape._stages = tape._stages, []
    g = seed
    while stages:
        g = stages.pop()(g)
    return g


# ---------------------------------------------------------------------------
# stages


def softmax_cross_entropy(scores: np.ndarray, gold, lengths, tape: Tape | None = None) -> float:
    """Softmax over the last axis (with max subtraction) of a padded
    B x n x T block of scores, then the negative log probability of the
    B x n gold classes: the sum over sentences of each one's mean over its
    own rows. Entries past a sentence's end are ignored. The recorded
    stage returns the gradient of the scores."""
    gold = np.asarray(gold, dtype=int)
    if gold.shape != scores.shape[:-1]:
        raise ValueError(f"need {scores.shape[:-1]} gold indices, got {gold.shape}")
    b_count, n, t_count = scores.shape
    lengths = np.asarray(lengths, dtype=int)
    rows, cols = np.nonzero(np.arange(n) < lengths[:, None])
    labels = gold[rows, cols]
    if labels.min() < 0 or labels.max() >= t_count:
        raise ValueError("gold index out of range")
    exp = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = exp / exp.sum(axis=-1, keepdims=True)
    picked = probs[rows, cols, labels]
    logs = np.zeros((b_count, n))
    logs[rows, cols] = np.log(picked)

    def back(g):
        # the gradient of the picked probabilities, then through the softmax
        gp = np.zeros_like(probs)
        gp[rows, cols, labels] = -float(g) / (lengths[rows] * picked)
        dot = (gp * probs).sum(axis=-1, keepdims=True)
        return probs * (gp - dot)

    if tape is not None:
        tape.record(back)
    return float((-logs.sum(axis=1) / lengths).sum())


def dense(x: np.ndarray, w: Param, b: Param, tape: Tape | None = None) -> np.ndarray:
    """x @ w + b, where the leading axes of x (a padded batch of sentences)
    are one stack of rows: a single product over all of them."""
    if x.shape[-1] != w.data.shape[0]:
        raise ValueError(f"dense shape mismatch {x.shape} @ {w.data.shape}")
    rows = x.reshape(-1, x.shape[-1])

    def back(g):
        g = g.reshape(-1, g.shape[-1])
        np.matmul(rows.T, g, out=w.grad)
        g.sum(axis=0, out=b.grad)
        return (g @ w.data.T).reshape(x.shape)

    if tape is not None:
        tape.record(back)
    out = rows @ w.data
    return out.reshape(*x.shape[:-1], out.shape[-1]) + b.data


def conv1d_same(x: np.ndarray, kernels: Param, bias: Param,
                tape: Tape | None = None) -> np.ndarray:
    """1-D "same" convolution along each sentence of a padded block.

    x is B x n x d, kernels is f x k x d, bias is f; output is B x n x f,
    each sentence convolved on its own with zero padding of floor((k-1)/2)
    rows on the left and ceil((k-1)/2) on the right (an even k pads only on
    the right, keeping output row i aligned with input row i). Rows past a
    sentence's end must be zero, so that they act as its right padding.
    x is a network input: the recorded stage writes the kernels' and the
    bias's gradients and returns None.
    """
    *lead, n, d = x.shape
    f, k, d_k = kernels.data.shape
    if d_k != d:
        raise ValueError(f"conv channel mismatch: input {d}, kernels {d_k}")
    left = (k - 1) // 2
    block = x.reshape(-1, n, d)
    padded = np.zeros((block.shape[0], n + k - 1, d))
    padded[:, left : left + n] = block

    def window(j):  # the input rows under kernel column j, one per output row
        return padded[:, j : j + n].reshape(-1, d)

    out = np.tile(bias.data, (block.shape[0] * n, 1))
    for j in range(k):
        out += window(j) @ kernels.data[:, j, :].T

    def back(g):
        g = g.reshape(-1, f)
        g.sum(axis=0, out=bias.grad)
        for j in range(k):
            kernels.grad[:, j, :] = g.T @ window(j)

    if tape is not None:
        tape.record(back)
    return out.reshape(*lead, n, f)


class LstmParams(NamedTuple):
    """One direction of an LSTM: wx is d x 4h, wh is h x 4h, b is 4h, with
    gates packed [input, forget, candidate, output]."""

    wx: Param
    wh: Param
    b: Param

    @property
    def hidden(self) -> int:
        return self.wh.data.shape[0]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _lstm_direction(xm: np.ndarray, p: LstmParams, active, rec_mask, zx, out, saved):
    """Run one direction over packed rows.

    xm holds each step's (masked) input rows in turn: step t has one row for
    each of the active[t] sentences still running, longest sentence first,
    so a step's sentences are a prefix of the previous step's. The input
    projection of every row is one GEMM into zx (len(xm) x 4h); the loop
    carries only the (k x h) @ wh product over the k running sentences and
    the gate math, and writes one h-wide output row per xm row into out.
    rec_mask (one row per sentence, longest first) is an inverted-dropout
    mask or None.

    The caller allocates every array sized by the rows, so that a direction
    run on another thread draws them from the caller's heap. saved is None
    for a tape-free call. Otherwise it holds the four arrays this fills for
    backprop through time: the gate activations (4h per row), the cell and
    (masked) hidden state entering each step and tanh of each new cell
    state (h per row). Only then is a function returned, back(d_out,
    scratch, d_in), mapping the gradient of out (len(xm) x h) to the
    gradient of xm, written into d_in (len(xm) x d) and returned; it writes
    the wx, wh and b gradients on the way. scratch is a list of two
    caller-allocated arrays that back takes over and empties, so that each
    is freed as soon as it is done: d_z (len(xm) x 4h) and dc_dh
    (len(xm) x h)."""
    h = p.hidden
    wh = p.wh.data
    np.matmul(xm, p.wx.data, out=zx)
    zx += p.b.data
    bounds = np.concatenate([[0], np.cumsum(active)])
    widest = active.max(initial=0)
    record = saved is not None
    if record:
        acts, c_in, h_in, tanh_c = saved
    h_prev = c_prev = np.zeros((widest, h))
    for t, k in enumerate(active):
        lo, hi = bounds[t], bounds[t + 1]
        hp = h_prev[:k] if rec_mask is None else h_prev[:k] * rec_mask[:k]
        z = zx[lo:hi] + hp @ wh
        a = acts[lo:hi] if record else np.empty((k, 4 * h))
        a[:, : 2 * h] = _sigmoid(z[:, : 2 * h])
        a[:, 2 * h : 3 * h] = np.tanh(z[:, 2 * h : 3 * h])
        a[:, 3 * h :] = _sigmoid(z[:, 3 * h :])
        c = a[:, h : 2 * h] * c_prev[:k] + a[:, :h] * a[:, 2 * h : 3 * h]
        tc = np.tanh(c)
        if record:
            h_in[lo:hi] = hp
            c_in[lo:hi] = c_prev[:k]
            tanh_c[lo:hi] = tc
        h_prev = out[lo:hi] = a[:, 3 * h :] * tc
        c_prev = c
    if not record:
        return None

    def back(d_out: np.ndarray, scratch: list, d_in: np.ndarray) -> np.ndarray:
        d_z, dc_dh = scratch
        scratch.clear()
        gi, gf, gg, go = (acts[:, k * h : (k + 1) * h] for k in range(4))
        gates = d_z.reshape(len(xm), 4, h)
        # per row, written in place: the factor taking d(cell) to the i, f,
        # g pre-activations and d(output) to the o pre-activation, then
        # d(cell)/d(output); only the two carries below need the loop
        for slot, a, b in ((0, gg, gi), (1, c_in, gf), (3, tanh_c, go)):
            np.multiply(a, b, out=gates[:, slot])  # (a * b) * (1 - b)
            np.subtract(1.0, b, out=dc_dh)
            gates[:, slot] *= dc_dh
        np.square(gg, out=gates[:, 2])  # gi * (1 - gg**2)
        np.subtract(1.0, gates[:, 2], out=gates[:, 2])
        gates[:, 2] *= gi
        np.square(tanh_c, out=dc_dh)  # go * (1 - tanh_c**2)
        np.subtract(1.0, dc_dh, out=dc_dh)
        dc_dh *= go
        # a sentence's carries are zero until its last step is reached
        dh_next = np.zeros((widest, h))
        dc_next = np.zeros_like(dh_next)
        for t in range(len(active) - 1, -1, -1):
            k, lo, hi = active[t], bounds[t], bounds[t + 1]
            dh = d_out[lo:hi] + dh_next[:k]
            dc = dh * dc_dh[lo:hi] + dc_next[:k]
            gates[lo:hi, :3] *= dc[:, None]
            gates[lo:hi, 3] *= dh
            dc_next[:k] = dc * gf[lo:hi]
            dh_next[:k] = d_z[lo:hi] @ wh.T
            if rec_mask is not None:
                dh_next[:k] *= rec_mask[:k]
        del dc_dh  # the other direction may hold its buffers too: free it first
        np.matmul(xm.T, d_z, out=p.wx.grad)
        np.matmul(h_in.T, d_z, out=p.wh.grad)
        d_z.sum(axis=0, out=p.b.grad)
        return np.matmul(d_z, p.wx.data.T, out=d_in)

    return back


def bilstm(
    x: np.ndarray,
    forward_params: LstmParams,
    backward_params: LstmParams,
    lengths,
    rng: RngStream | None = None,
    tape: Tape | None = None,
) -> np.ndarray:
    """Bidirectional LSTM over a padded B x n x d block with the B sentence
    lengths; per-position outputs of the two directions are concatenated to
    B x n x 2h. Each sentence runs on its own, rows past its end are ignored
    on input and zero on output, and a sentence finished early simply stops
    taking part in the steps. The two directions may not share a parameter:
    both would write its gradient.

    Given a dropout stream rng, input dropout (rate DROPOUT) applies one
    mask per sentence to x at every step and recurrent dropout (rate
    RECURRENT_DROPOUT) applies one mask per sentence to the hidden state
    entering the recurrence. Each direction has its own masks; they are
    drawn from rng sentence by sentence in block order, each sentence in
    the order forward-input, forward-recurrent, backward-input,
    backward-recurrent, so a block draws what its sentences would draw one
    at a time. Masks follow the inverted convention (scaled by 1/keep when
    drawn), so a call without rng applies no masks and no scaling.

    The whole layer is one stage, whatever the sequence length or batch
    size. Each step runs every sentence still going as one (k x h) @ wh
    product. When a tape records the call, each direction keeps the masked
    input, the gate activations, the cell and (masked) hidden state
    entering each step and tanh of each new cell state; backward runs
    backprop through time over them by hand, again k sentences per step,
    then takes each of the wx, wh, b and x gradients from a single product
    over all positions. Tape-free calls keep none of them.

    The two directions share no state, so the forward pass and, if taped,
    backprop through time each run them through _both: on two CPUs the
    backward direction runs on a second thread while this one runs the
    forward direction. Each direction does the same operations in the same
    order as alone, and the x gradient is summed after the join, forward
    direction first, so the results are the same bits either way.
    """
    if any(np.may_share_memory(a.grad, b.grad)
           for a in forward_params for b in backward_params):
        raise ValueError("the two LSTM directions share a parameter")
    b_count, n, d = x.shape
    lengths = np.asarray(lengths, dtype=int)
    params = (forward_params, backward_params)
    h = forward_params.hidden

    # (input, recurrent) masks of each sentence and direction, in draw order
    draws = [
        (rng.keep_mask(DROPOUT, d), rng.keep_mask(RECURRENT_DROPOUT, p.hidden))
        if rng is not None else (None, None)
        for _ in range(b_count)
        for p in params
    ]

    # packed rows: step by step, the sentences still running, longest first
    order = np.argsort(-lengths, kind="stable")
    running = lengths[order] > np.arange(lengths.max(initial=0))[:, None]  # step x slot
    step, slot = np.nonzero(running)
    sentence = order[slot]
    active = running.sum(axis=1)
    rows = len(step)

    # every rows-sized array is allocated here, on the calling thread: made
    # on the worker, they raised peak RSS (a second malloc arena)
    directions, works, outs = [], [], []
    for direction, p in enumerate(params):
        pos = step if direction == 0 else lengths[sentence] - 1 - step
        in_masks, rec_masks = zip(*draws[direction::2])
        in_mask = _stack(in_masks, sentence)
        xm = x[sentence, pos]
        if in_mask is not None:
            xm *= in_mask
        saved = None
        if tape is not None:
            saved = (np.empty((rows, 4 * h)), *(np.empty((rows, h)) for _ in range(3)))
        outs.append(np.empty((rows, h)))
        works.append(partial(_lstm_direction, xm, p, active, _stack(rec_masks, order),
                             np.empty((rows, 4 * h)), outs[-1], saved))
        directions.append((pos, slice(direction * h, (direction + 1) * h), in_mask))

    backs = _both(lambda: works[0], lambda: works[1])

    out = np.zeros((b_count, n, 2 * h))
    for (pos, cols, _), rows_out in zip(directions, outs):
        out[sentence, pos, cols] = rows_out

    def back(g):
        # before the buffers below: allocated after the join, it raised the
        # train pass's peak RSS by ~8 MB through where the heap placed it
        d_x = np.zeros((b_count, n, d))

        def task(direction):
            # the arrays a direction writes: on one CPU, one direction's at a time
            (pos, cols, _), back_rows = directions[direction], backs[direction]
            return partial(back_rows, g[sentence, pos, cols],
                           [np.empty((rows, 4 * h)), np.empty((rows, h))],
                           np.empty((rows, d)))

        d_rows = _both(partial(task, 0), partial(task, 1))
        for (pos, _, in_mask), rows_grad in zip(directions, d_rows):
            if in_mask is not None:
                rows_grad *= in_mask
            d_x[sentence, pos] += rows_grad
        return d_x

    if tape is not None:
        tape.record(back)
    return out


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, or os.cpu_count()
    where the platform has none. A CPU quota of its cgroup is not seen."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _both(make_first, make_second):
    """(first(), second()) of the works first = make_first() and second =
    make_second(), each made here with the arrays it writes: the one place
    that decides whether to use a second CPU. On two, both are made, then
    second runs on a short-lived thread under this thread's numpy error
    state while this thread runs first, and what second raised is re-raised
    here after the join. On one, first is made and run, then second; so
    are both, once made, where no thread can be started."""
    if _usable_cpus() < 2:  # left to right: first returns before second is made
        return make_first()(), make_second()()
    first, second = make_first(), make_second()
    errstate = dict(np.geterr(), call=np.geterrcall())
    result, error = [None], []

    def work():
        try:
            with np.errstate(**errstate):
                result[0] = second()
        except BaseException as exc:  # re-raised on the calling thread
            error.append(exc)

    worker = threading.Thread(target=work)
    try:
        worker.start()
    except RuntimeError:  # "can't start new thread"
        return first(), second()
    try:
        head = first()
    finally:
        worker.join()
    if error:
        raise error[0]
    return head, result[0]


def _stack(masks, index):
    """Per-sentence masks (or Nones) stacked and picked in index order."""
    return None if masks[0] is None else np.array(masks)[index]


# ---------------------------------------------------------------------------
# verification


def grad_check(loss, params: list[Param], seed=1.0) -> float:
    """Compare the gradients backward writes against central finite
    differences, of step 1e-4, over every coordinate of every parameter.

    loss(tape) computes a scalar from the current parameter arrays and,
    given a tape, records the stages it ran; backward seeded with seed must
    then give that scalar's gradients. A stage's output probed as
    sum(out * w) is checked by returning that sum, with seed w. loss must
    be deterministic (no dropout stream, or a fresh one of a fixed seed per
    call). Returns the max over coordinates of
    |a - n| / max(1e-8, |a| + |n|).
    """
    for p in params:
        p.grad[...] = 0.0
    tape = Tape()
    if not np.isfinite(loss(tape)):
        raise ValueError("loss is not finite")
    backward(tape, seed)
    analytic = [np.array(p.grad, copy=True) for p in params]

    step, worst = 1e-4, 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + step
            plus = float(loss(None))
            flat[idx] = original - step
            minus = float(loss(None))
            flat[idx] = original
            if not (np.isfinite(plus) and np.isfinite(minus)):
                raise ValueError("loss is not finite during finite differencing")
            numeric = (plus - minus) / (2.0 * step)
            analytic_value = a.reshape(-1)[idx]
            err = abs(analytic_value - numeric) / max(
                1e-8, abs(analytic_value) + abs(numeric)
            )
            worst = max(worst, err)
    return worst
