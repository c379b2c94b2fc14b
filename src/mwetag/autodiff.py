"""Dense float64 tensors with reverse-mode differentiation.

A Tape is an ordered record of executed operations. An operation records
itself when any of its inputs is attached to a tape; its output inherits that
tape. Leaf parameters (requires_grad=True) are created tape-free, so the same
parameters can serve many tapes: attach the network *inputs* to a fresh tape
per forward pass and every downstream operation is recorded. Running the same
operations without any tape-attached input gives a pure, recording-free
forward pass (the evaluation path).

Gradients accumulate: a parameter's .grad collects contributions across
backward calls until zero_grad. backward may run once per tape.

Most operations are single array primitives. The BiLSTM is the exception: it
is one fused operation that records a single tape node per call, whatever the
sequence length or batch size, and runs backprop through time by hand (see
bilstm).

The layers take one sentence as an n x d array, or a padded batch of B
sentences as a B x n x d block; the sequence layers (bilstm, cross_entropy)
also take the sentence lengths. One sentence is the B = 1 case of the same
code.

Every differentiable operation here is validated against central finite
differences (grad_check), which is also the verification entry point exposed
to callers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "tape")

    def __init__(self, data, requires_grad: bool = False, tape: "Tape | None" = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.data) if requires_grad else None
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
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def param(data) -> Tensor:
    return Tensor(data, requires_grad=True)


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

    def normal(self, scale, shape):
        return self._gen.normal(0.0, scale, shape)

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
    return t.requires_grad or t.tape is not None


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


def backward(tape: Tape, loss: Tensor):
    """Populate gradients of every participating tensor by reverse traversal.
    The loss must be a scalar recorded on this tape; a tape runs backward once."""
    if tape._used:
        raise RuntimeError("backward already ran on this tape")
    if loss.tape is not tape:
        raise ValueError("loss tensor is not recorded on this tape")
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


def scale(x: Tensor, c: float) -> Tensor:
    def back(g):
        _accumulate(x, g * c)

    return _emit(x.data * c, (x,), back)


def relu(x: Tensor) -> Tensor:
    def back(g):
        _accumulate(x, g * (x.data > 0))

    return _emit(np.maximum(x.data, 0.0), (x,), back)


def tanh(x: Tensor) -> Tensor:
    out_data = np.tanh(x.data)

    def back(g):
        _accumulate(x, g * (1.0 - out_data**2))

    return _emit(out_data, (x,), back)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def sigmoid(x: Tensor) -> Tensor:
    out_data = _sigmoid(x.data)

    def back(g):
        _accumulate(x, g * out_data * (1.0 - out_data))

    return _emit(out_data, (x,), back)


def identity(x: Tensor) -> Tensor:
    return x


ACTIVATIONS = {"relu": relu, "tanh": tanh, "sigmoid": sigmoid, "identity": identity}


def concat_cols(parts: list[Tensor]) -> Tensor:
    """Concatenation along the last axis."""
    widths = [p.data.shape[-1] for p in parts]

    def back(g):
        offset = 0
        for p, w in zip(parts, widths):
            _accumulate(p, g[..., offset : offset + w])
            offset += w

    return _emit(np.concatenate([p.data for p in parts], axis=-1), tuple(parts), back)


def gather_rows(table: Tensor, indices, tape: Tape | None = None) -> Tensor:
    """Rows of a lookup table by index, for an index array of any shape;
    gradients scatter-add back. A negative index gathers a zero row that
    takes no gradient (the padding of a batch).

    The indices are plain integers and cannot carry a tape, so when the table
    is a bare parameter the recording tape must be passed explicitly."""
    indices = np.asarray(indices, dtype=int)
    real = indices >= 0
    tape = tape if tape is not None else _tape_of(table)

    def back(g):
        if _wants_grad(table):
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, indices[real], g[real])

    out = Tensor(np.where(real[..., None], table.data[indices], 0.0), tape=tape)
    if tape is not None:

        def node():
            if out.grad is not None:
                back(out.grad)

        tape.record(node)
    return out


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


def cross_entropy(probs: Tensor, gold, lengths=None) -> Tensor:
    """Mean negative log probability of the gold class per row. Expects
    normalized rows (the output of softmax_rows). For a padded B x n x T
    block with B x n gold indices and the lengths, the sum over sentences of
    each one's mean over its own rows; entries past a sentence's end are
    ignored."""
    gold = np.asarray(gold, dtype=int)
    if gold.shape != probs.data.shape[:-1]:
        raise ValueError(f"need {probs.data.shape[:-1]} gold indices, got {gold.shape}")
    block = probs.data.reshape(-1, *probs.data.shape[-2:])
    b_count, n, t_count = block.shape
    lengths = np.full(b_count, n) if lengths is None else np.asarray(lengths, dtype=int)
    rows, cols = np.nonzero(np.arange(n) < lengths[:, None])
    labels = gold.reshape(b_count, n)[rows, cols]
    if labels.min() < 0 or labels.max() >= t_count:
        raise ValueError("gold index out of range")
    picked = block[rows, cols, labels]
    logs = np.zeros((b_count, n))
    logs[rows, cols] = np.log(picked)
    loss = (-logs.sum(axis=1) / lengths).sum()

    def back(g):
        gp = np.zeros_like(block)
        gp[rows, cols, labels] = -float(g) / (lengths[rows] * picked)
        _accumulate(probs, gp.reshape(probs.data.shape))

    return _emit(np.asarray(loss), (probs,), back)


# ---------------------------------------------------------------------------
# layers


def dense(x: Tensor, w: Tensor, b: Tensor, activation: str = "identity") -> Tensor:
    """act(x @ w + b)."""
    return ACTIVATIONS[activation](add(matmul(x, w), b))


def conv1d_same(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """1-D "same" convolution over the row axis.

    x is n x d, kernels is f x k x d, bias is f; output is n x f with zero
    padding of floor((k-1)/2) rows on the left and ceil((k-1)/2) on the right
    (an even k pads only on the right, keeping output row i aligned with
    input row i). A padded B x n x d block of sentences gives B x n x f, each
    sentence convolved on its own; its rows past a sentence's end must be
    zero, so that they act as that sentence's right padding.
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


def _lstm_direction(x: np.ndarray, p: LstmParams, active, in_mask, rec_mask, record):
    """Run one direction over packed rows.

    x holds each step's rows in turn: step t has one row for each of the
    active[t] sentences still running, longest sentence first, so a step's
    sentences are a prefix of the previous step's. The input projection of
    every row is one GEMM; the loop carries only the (k x h) @ wh product
    over the k running sentences and the gate math. in_mask (one row per x
    row) and rec_mask (one row per sentence, longest first) are
    inverted-dropout masks or None.

    Returns the outputs (one h-wide row per x row) and, when record is set,
    a function mapping their gradient to the gradient of x, which
    accumulates the wx, wh and b gradients on the way. Only then does it
    keep the gate activations (4h per row), the cell and (masked) hidden
    state entering each step and tanh of each new cell state (h per row)."""
    h = p.hidden
    wh = p.wh.data
    xm = x if in_mask is None else x * in_mask
    zx = xm @ p.wx.data
    zx += p.b.data
    bounds = np.concatenate([[0], np.cumsum(active)])
    widest = active.max(initial=0)
    out = np.empty((len(x), h))
    if record:
        acts = np.empty((len(x), 4 * h))
        c_in = np.empty((len(x), h))
        h_in = np.empty((len(x), h))
        tanh_c = np.empty((len(x), h))
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
        return out, None

    def back(d_out: np.ndarray) -> np.ndarray:
        rows = len(x)
        gi, gf, gg, go = (acts[:, k * h : (k + 1) * h] for k in range(4))
        # per row: d(cell)/d(output), and the factor taking d(cell) to the
        # i, f, g pre-activations and d(output) to the o pre-activation;
        # only the two carries below need the sequential loop
        dc_dh = go * (1.0 - tanh_c**2)
        coef = np.concatenate(
            [
                gg * gi * (1.0 - gi),
                c_in * gf * (1.0 - gf),
                gi * (1.0 - gg**2),
                tanh_c * go * (1.0 - go),
            ],
            axis=1,
        ).reshape(rows, 4, h)
        d_z = np.empty((rows, 4, h))
        # a sentence's carries are zero until its last step is reached
        dh_next = np.zeros((widest, h))
        dc_next = np.zeros_like(dh_next)
        for t in range(len(active) - 1, -1, -1):
            k, lo, hi = active[t], bounds[t], bounds[t + 1]
            dh = d_out[lo:hi] + dh_next[:k]
            dc = dh * dc_dh[lo:hi] + dc_next[:k]
            d_z[lo:hi, :3] = coef[lo:hi, :3] * dc[:, None]
            d_z[lo:hi, 3] = coef[lo:hi, 3] * dh
            dc_next[:k] = dc * gf[lo:hi]
            dh_next[:k] = d_z[lo:hi].reshape(k, 4 * h) @ wh.T
            if rec_mask is not None:
                dh_next[:k] *= rec_mask[:k]
        d_z = d_z.reshape(rows, 4 * h)
        _accumulate(p.wx, xm.T @ d_z)
        _accumulate(p.wh, h_in.T @ d_z)
        _accumulate(p.b, d_z.sum(axis=0))
        d_x = d_z @ p.wx.data.T
        return d_x if in_mask is None else d_x * in_mask

    return out, back


def bilstm(
    x: Tensor,
    forward_params: LstmParams,
    backward_params: LstmParams,
    dropout: float = 0.0,
    recurrent_dropout: float = 0.0,
    mode: str = "eval",
    rng: RngStream | None = None,
    lengths=None,
) -> Tensor:
    """Bidirectional LSTM over the rows of x; per-position outputs of the two
    directions are concatenated to n x 2h. A padded B x n x d block with the
    sentence lengths gives B x n x 2h: each sentence runs on its own, rows
    past its end are ignored on input and zero on output, and a sentence
    finished early simply stops taking part in the steps.

    In train mode, input dropout applies one mask per sentence to x at every
    step and recurrent dropout applies one mask per sentence to the hidden
    state entering the recurrence. Each direction has its own masks; they
    are drawn sentence by sentence in block order, each sentence in the
    order forward-input, forward-recurrent, backward-input,
    backward-recurrent, so a block draws what its sentences would draw one
    at a time. Masks follow the inverted convention (scaled by 1/keep at
    train time), so eval mode applies no masks and no scaling.

    The whole layer is one fused operation and records one tape node. Each
    step runs every sentence still going as one (k x h) @ wh product. When
    a tape records the call, each direction keeps the masked input, the gate
    activations, the cell and (masked) hidden state entering each step and
    tanh of each new cell state; backward runs backprop through time over
    them by hand, again k sentences per step, then takes each of the wx, wh,
    b and x gradients from a single product over all positions. Tape-free
    calls keep none of them.
    """
    if not (0.0 <= dropout < 1.0 and 0.0 <= recurrent_dropout < 1.0):
        raise ValueError("dropout rates must lie in [0, 1)")
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    single = x.data.ndim == 2
    block = x.data[None] if single else x.data
    b_count, n, d = block.shape
    lengths = np.full(b_count, n) if lengths is None else np.asarray(lengths, dtype=int)
    params = (forward_params, backward_params)
    inputs = (x, *forward_params.tensors(), *backward_params.tensors())
    h = forward_params.hidden

    def draw(rate, size):
        if mode != "train" or rate == 0.0:
            return None
        if rng is None:
            raise ValueError("train-mode dropout needs an RngStream")
        return rng.keep_mask(rate, size)

    # (input, recurrent) masks of each sentence and direction, in draw order
    draws = [
        (draw(dropout, d), draw(recurrent_dropout, p.hidden))
        for _ in range(b_count)
        for p in params
    ]

    # packed rows: step by step, the sentences still running, longest first
    order = np.argsort(-lengths, kind="stable")
    running = lengths[order] > np.arange(lengths.max(initial=0))[:, None]  # step x slot
    step, slot = np.nonzero(running)
    sentence = order[slot]
    record = _tape_of(*inputs) is not None

    out = np.zeros((b_count, n, 2 * h))
    backs = []
    for direction, p in enumerate(params):
        pos = step if direction == 0 else lengths[sentence] - 1 - step
        cols = slice(direction * h, (direction + 1) * h)
        in_masks, rec_masks = zip(*draws[direction::2])
        rows, back_rows = _lstm_direction(
            block[sentence, pos], p, running.sum(axis=1),
            _stack(in_masks, sentence), _stack(rec_masks, order), record,
        )
        out[sentence, pos, cols] = rows
        backs.append((pos, cols, back_rows))

    def back(g):
        g = g.reshape(out.shape)
        d_x = np.zeros_like(block)
        for pos, cols, back_rows in backs:
            d_x[sentence, pos] += back_rows(g[sentence, pos, cols])
        _accumulate(x, d_x.reshape(x.data.shape))

    return _emit(out[0] if single else out, inputs, back)


def _stack(masks, index):
    """Per-sentence masks (or Nones) stacked and picked in index order."""
    return None if masks[0] is None else np.array(masks)[index]


# ---------------------------------------------------------------------------
# verification


def grad_check(f, params: list[Tensor], eps: float = 1e-4) -> float:
    """Compare tape gradients of the scalar loss f() against central finite
    differences over every coordinate of every parameter.

    Returns the max over coordinates of |a - n| / max(1e-8, |a| + |n|). The
    function f must rebuild its computation (fresh tape) on each call and be
    deterministic (dropout off or masks frozen).
    """
    for p in params:
        p.zero_grad()
    loss = f()
    if not np.isfinite(loss.data):
        raise ValueError("loss is not finite")
    backward(loss.tape, loss)
    analytic = [np.array(p.grad, copy=True) for p in params]

    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + eps
            plus = float(f().data)
            flat[idx] = original - eps
            minus = float(f().data)
            flat[idx] = original
            if not (np.isfinite(plus) and np.isfinite(minus)):
                raise ValueError("loss is not finite during finite differencing")
            numeric = (plus - minus) / (2.0 * eps)
            analytic_value = a.reshape(-1)[idx]
            err = abs(analytic_value - numeric) / max(
                1e-8, abs(analytic_value) + abs(numeric)
            )
            worst = max(worst, err)
    return worst
