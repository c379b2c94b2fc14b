"""Dense float64 tensors with reverse-mode differentiation.

A Tape is an ordered record of executed operations. An operation records
itself when any of its inputs is attached to a tape; its output inherits that
tape. Leaf parameters (param) are created tape-free, so the same parameters
can serve many tapes. There is one way onto a tape: wrap a network
*input* as Tensor(data, tape=tape) for a fresh tape per forward pass, and
every downstream operation records itself through _emit, the only caller of
Tape.record. Running the same operations without any tape-attached input
gives a pure, recording-free forward pass (the evaluation path).

Gradients accumulate in place: a parameter's .grad, which may be a view of a
larger vector (param's grad argument), collects contributions across
backward calls until zero_grad. backward runs a scalar loss's tape, the one
its .tape names, once.

Most operations are single array primitives. The BiLSTM is the exception: it
is one fused operation that records a single tape node per call, whatever the
sequence length or batch size, and runs backprop through time by hand (see
bilstm). It is also the one operation with dropout, at the fixed rates
DROPOUT and RECURRENT_DROPOUT, drawn from a dropout stream when the caller
passes one: a training pass passes it, an evaluation pass does not.

The layers run on a padded batch of B sentences, a B x n x d block that is
zero past each sentence's end; the sequence layers (bilstm, cross_entropy)
also take the B sentence lengths.

Every differentiable operation here is validated against central finite
differences (grad_check), which is also the verification entry point exposed
to callers.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np

DROPOUT = 0.5  # BiLSTM input dropout, one mask per sentence and direction
RECURRENT_DROPOUT = 0.2  # on the hidden state entering the recurrence


class Tensor:
    __slots__ = ("data", "grad", "tape")

    def __init__(self, data, tape: "Tape | None" = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.tape = tape

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, tape={self.tape is not None})"


def param(data, grad=None) -> Tensor:
    """A tape-free leaf whose gradient accumulates into grad, an array of
    data's shape, or into zeros of its own."""
    t = Tensor(data)
    t.grad = np.zeros_like(t.data) if grad is None else grad
    return t


class Tape:
    """Ordered operation record for one reverse traversal; backward empties
    it as it runs."""

    def __init__(self):
        self._nodes = []
        self._used = False

    def record(self, backward_fn):
        self._nodes.append(backward_fn)

    def __len__(self):
        return len(self._nodes)


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


def _tape_of(*tensors: Tensor) -> Tape | None:
    tape = None
    for t in tensors:
        if t.tape is not None:
            if tape is not None and tape is not t.tape:
                raise ValueError("operation mixes tensors from two tapes")
            tape = t.tape
    return tape


def _wants_grad(t: Tensor) -> bool:
    # a tape-free tensor has a .grad only if param gave it one
    return t.grad is not None or t.tape is not None


def _accumulate(t: Tensor, g):
    if not _wants_grad(t):
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _emit(out_data, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    tape = _tape_of(*inputs)
    out = Tensor(out_data, tape=tape)
    if tape is not None:

        def node():
            if out.grad is not None:
                backward_fn(out.grad)

        tape.record(node)
    return out


def backward(loss: Tensor):
    """Populate gradients of every participating tensor by reverse traversal
    of the tape the scalar loss is recorded on; a tape runs backward once."""
    tape = loss.tape
    if tape is None:
        raise ValueError("loss is not recorded on a tape")
    if tape._used:
        raise RuntimeError("backward already ran on this tape")
    if loss.data.size != 1:
        raise ValueError("loss must be a scalar")
    tape._used = True
    loss.grad = np.ones_like(loss.data)
    # Each node closes over its output tensor, whose .tape points back here.
    # Dropping a node once it has run breaks that cycle, so the activations
    # and gradients it holds are freed by reference counting right away and
    # not whenever the cyclic garbage collector next runs.
    nodes, tape._nodes = tape._nodes, []
    while nodes:
        nodes.pop()()


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b, where the leading axes of a (a padded batch of sentences) are
    one stack of rows: a single product over all of them."""
    if a.data.shape[-1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch {a.shape} @ {b.shape}")
    rows = a.data.reshape(-1, a.data.shape[-1])

    def back(g):
        g = g.reshape(-1, g.shape[-1])
        _accumulate(a, (g @ b.data.T).reshape(a.data.shape))
        _accumulate(b, rows.T @ g)

    out = rows @ b.data
    return _emit(out.reshape(*a.data.shape[:-1], out.shape[-1]), (a, b), back)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; b may be a 1-D bias broadcast over a's rows."""
    if a.shape != b.shape and not (b.data.ndim == 1 and a.data.shape[-1] == b.data.shape[0]):
        raise ValueError(f"add shape mismatch {a.shape} + {b.shape}")

    def back(g):
        _accumulate(a, g)
        if b.data.ndim < g.ndim:  # a bias, summed over every row
            g = g.reshape(-1, g.shape[-1]).sum(axis=0)
        _accumulate(b, g)

    return _emit(a.data + b.data, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"mul shape mismatch {a.shape} * {b.shape}")

    def back(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _emit(a.data * b.data, (a, b), back)


def relu(x: Tensor) -> Tensor:
    def back(g):
        _accumulate(x, g * (x.data > 0))

    return _emit(np.maximum(x.data, 0.0), (x,), back)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def concat_cols(parts: list[Tensor]) -> Tensor:
    """Concatenation along the last axis."""
    widths = [p.data.shape[-1] for p in parts]

    def back(g):
        offset = 0
        for p, w in zip(parts, widths):
            _accumulate(p, g[..., offset : offset + w])
            offset += w

    return _emit(np.concatenate([p.data for p in parts], axis=-1), tuple(parts), back)


def sum_all(x: Tensor) -> Tensor:
    def back(g):
        _accumulate(x, np.full_like(x.data, float(g)))

    return _emit(np.asarray(x.data.sum()), (x,), back)


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis with max subtraction; rows sum to 1."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=-1, keepdims=True)

    def back(g):
        dot = (g * probs).sum(axis=-1, keepdims=True)
        _accumulate(x, probs * (g - dot))

    return _emit(probs, (x,), back)


def cross_entropy(probs: Tensor, gold, lengths) -> Tensor:
    """Negative log probability of the gold classes of a padded B x n x T
    block of normalized rows (the output of softmax_rows) with B x n gold
    indices: the sum over sentences of each one's mean over its own rows.
    Entries past a sentence's end are ignored."""
    gold = np.asarray(gold, dtype=int)
    block = probs.data
    if gold.shape != block.shape[:-1]:
        raise ValueError(f"need {block.shape[:-1]} gold indices, got {gold.shape}")
    b_count, n, t_count = block.shape
    lengths = np.asarray(lengths, dtype=int)
    rows, cols = np.nonzero(np.arange(n) < lengths[:, None])
    labels = gold[rows, cols]
    if labels.min() < 0 or labels.max() >= t_count:
        raise ValueError("gold index out of range")
    picked = block[rows, cols, labels]
    logs = np.zeros((b_count, n))
    logs[rows, cols] = np.log(picked)
    loss = (-logs.sum(axis=1) / lengths).sum()

    def back(g):
        gp = np.zeros_like(block)
        gp[rows, cols, labels] = -float(g) / (lengths[rows] * picked)
        _accumulate(probs, gp)

    return _emit(np.asarray(loss), (probs,), back)


# ---------------------------------------------------------------------------
# layers


def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b."""
    return add(matmul(x, w), b)


def conv1d_same(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """1-D "same" convolution along each sentence of a padded block.

    x is B x n x d, kernels is f x k x d, bias is f; output is B x n x f,
    each sentence convolved on its own with zero padding of floor((k-1)/2)
    rows on the left and ceil((k-1)/2) on the right (an even k pads only on
    the right, keeping output row i aligned with input row i). Rows past a
    sentence's end must be zero, so that they act as its right padding.
    """
    *lead, n, d = x.data.shape
    f, k, d_k = kernels.data.shape
    if d_k != d:
        raise ValueError(f"conv channel mismatch: input {d}, kernels {d_k}")
    left = (k - 1) // 2
    block = x.data.reshape(-1, n, d)
    padded = np.zeros((block.shape[0], n + k - 1, d))
    padded[:, left : left + n] = block

    def window(j):  # the input rows under kernel column j, one per output row
        return padded[:, j : j + n].reshape(-1, d)

    out = np.tile(bias.data, (block.shape[0] * n, 1))
    for j in range(k):
        out += window(j) @ kernels.data[:, j, :].T

    def back(g):
        g = g.reshape(-1, f)
        _accumulate(bias, g.sum(axis=0))
        if _wants_grad(kernels):
            gk = np.empty_like(kernels.data)
            for j in range(k):
                gk[:, j, :] = g.T @ window(j)
            _accumulate(kernels, gk)
        if _wants_grad(x):
            gp = np.zeros_like(padded)
            for j in range(k):
                gp[:, j : j + n] += (g @ kernels.data[:, j, :]).reshape(-1, n, d)
            _accumulate(x, gp[:, left : left + n].reshape(x.data.shape))

    return _emit(out.reshape(*lead, n, f), (x, kernels, bias), back)


@dataclass
class LstmParams:
    """One direction of an LSTM: wx is d x 4h, wh is h x 4h, b is 4h, with
    gates packed [input, forget, candidate, output]."""

    wx: Tensor
    wh: Tensor
    b: Tensor

    @property
    def hidden(self) -> int:
        return self.wh.data.shape[0]

    def tensors(self):
        return [self.wx, self.wh, self.b]


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
    gradient of xm, written into d_in (len(xm) x d) and returned; it
    accumulates the wx, wh and b gradients on the way. scratch is a list of
    three caller-allocated arrays that back takes over and empties, so that
    each is freed as soon as it is done: d_z (len(xm) x 4h), dc_dh
    (len(xm) x h) and the weight-gradient product buffer (max(d, h) x 4h)."""
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
        d_z, dc_dh, prod = scratch
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
        _accumulate(p.wx, np.matmul(xm.T, d_z, out=prod[: xm.shape[1]]))
        _accumulate(p.wh, np.matmul(h_in.T, d_z, out=prod[:h]))
        del prod
        _accumulate(p.b, d_z.sum(axis=0))
        return np.matmul(d_z, p.wx.data.T, out=d_in)

    return back


def bilstm(
    x: Tensor,
    forward_params: LstmParams,
    backward_params: LstmParams,
    lengths,
    rng: RngStream | None = None,
) -> Tensor:
    """Bidirectional LSTM over a padded B x n x d block with the B sentence
    lengths; per-position outputs of the two directions are concatenated to
    B x n x 2h. Each sentence runs on its own, rows past its end are ignored
    on input and zero on output, and a sentence finished early simply stops
    taking part in the steps.

    Given a dropout stream rng, input dropout (rate DROPOUT) applies one
    mask per sentence to x at every step and recurrent dropout (rate
    RECURRENT_DROPOUT) applies one mask per sentence to the hidden state
    entering the recurrence. Each direction has its own masks; they are
    drawn from rng sentence by sentence in block order, each sentence in
    the order forward-input, forward-recurrent, backward-input,
    backward-recurrent, so a block draws what its sentences would draw one
    at a time. Masks follow the inverted convention (scaled by 1/keep when
    drawn), so a call without rng applies no masks and no scaling.

    The whole layer is one fused operation and records one tape node. Each
    step runs every sentence still going as one (k x h) @ wh product. When
    a tape records the call, each direction keeps the masked input, the
    gate activations, the cell and (masked) hidden state entering each step
    and tanh of each new cell state; backward runs backprop through time
    over them by hand, again k sentences per step, then takes each of the
    wx, wh, b and x gradients from a single product over all positions.
    Tape-free calls keep none of them.

    The two directions share no state, forward or backward, so when the
    process may use two CPUs the backward direction runs on a second
    thread while this one runs the forward direction: once in the forward
    pass and, if taped, once more in backprop through time (unless the two
    directions share a parameter tensor, whose gradient both would write).
    Each direction does the same operations in the same order as alone,
    and the x gradient is summed after the join, forward direction first,
    so the results are the same bits either way.
    """
    block = x.data
    b_count, n, d = block.shape
    lengths = np.asarray(lengths, dtype=int)
    params = (forward_params, backward_params)
    inputs = (x, *forward_params.tensors(), *backward_params.tensors())
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
    record = _tape_of(*inputs) is not None

    # every rows-sized array is allocated here, on the calling thread: made
    # on the worker, they raised peak RSS (a second malloc arena)
    directions, calls, outs = [], [], []
    for direction, p in enumerate(params):
        pos = step if direction == 0 else lengths[sentence] - 1 - step
        in_masks, rec_masks = zip(*draws[direction::2])
        in_mask = _stack(in_masks, sentence)
        xm = block[sentence, pos]
        if in_mask is not None:
            xm *= in_mask
        saved = None
        if record:
            saved = (np.empty((rows, 4 * h)), *(np.empty((rows, h)) for _ in range(3)))
        outs.append(np.empty((rows, h)))
        calls.append((xm, p, active, _stack(rec_masks, order), np.empty((rows, 4 * h)),
                      outs[-1], saved))
        directions.append((pos, slice(direction * h, (direction + 1) * h), in_mask))

    # CPUs this process may run on; a CPU quota of its cgroup is not seen
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    threaded = cpus >= 2  # on one CPU a second thread only costs time
    backs = _both(*(partial(_lstm_direction, *args) for args in calls), threaded)

    out = np.zeros((b_count, n, 2 * h))
    for (pos, cols, _), rows_out in zip(directions, outs):
        out[sentence, pos, cols] = rows_out

    def back(g):
        # before the buffers below: allocated after the join, it raised the
        # train pass's peak RSS by ~8 MB through where the heap placed it
        d_x = np.zeros_like(block)

        def task(direction):
            # the arrays a direction writes, allocated on this thread
            (pos, cols, _), back_rows = directions[direction], backs[direction]
            return partial(back_rows, g[sentence, pos, cols],
                           [np.empty((rows, 4 * h)), np.empty((rows, h)),
                            np.empty((max(d, h), 4 * h))],
                           np.empty((rows, d)))

        # two directions sharing a parameter would race on its gradient
        shared = any(a is b for a in forward_params.tensors()
                     for b in backward_params.tensors())
        if threaded and not shared:
            d_rows = _both(task(0), task(1), threaded=True)
        else:  # one direction's buffers at a time
            d_rows = [task(0)(), task(1)()]
        for (pos, _, in_mask), rows_grad in zip(directions, d_rows):
            if in_mask is not None:
                rows_grad *= in_mask
            d_x[sentence, pos] += rows_grad
        _accumulate(x, d_x)

    return _emit(out, inputs, back)


def _both(first, second, threaded: bool):
    """(first(), second()). When threaded, second runs on a short-lived
    thread, under this thread's numpy error state, while this thread runs
    first; what it raised is re-raised here after the join. Otherwise both
    run here, first then second."""
    if not threaded:
        return first(), second()
    errstate = dict(np.geterr(), call=np.geterrcall())
    result, error = [None], []

    def work():
        try:
            with np.errstate(**errstate):
                result[0] = second()
        except BaseException as exc:  # re-raised on the calling thread
            error.append(exc)

    worker = threading.Thread(target=work)
    worker.start()
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


def grad_check(f, params: list[Tensor]) -> float:
    """Compare tape gradients of the scalar loss f() against central finite
    differences, of step 1e-4, over every coordinate of every parameter.

    Returns the max over coordinates of |a - n| / max(1e-8, |a| + |n|). The
    function f must rebuild its computation (fresh tape) on each call and be
    deterministic (no dropout stream, or a fresh one of a fixed seed per
    call).
    """
    for p in params:
        p.zero_grad()
    loss = f()
    if not np.isfinite(loss.data):
        raise ValueError("loss is not finite")
    backward(loss)
    analytic = [np.array(p.grad, copy=True) for p in params]

    step, worst = 1e-4, 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + step
            plus = float(f().data)
            flat[idx] = original - step
            minus = float(f().data)
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
