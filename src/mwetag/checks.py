"""Named gradient checks over every stage of the tagger's chain.

Each check builds a small seeded instance, runs a stage's backward on
arrays and compares the gradients it writes against central finite
differences of the stage's forward over every parameter coordinate, then
reports the max relative error. A layer's output is probed as sum(out * w),
its backward seeded with w. Sequence inputs are one-sentence (B = 1) padded
blocks, the shape every stage takes. Piecewise-linear kinks (relu) make
finite differences meaningless within a step (1e-4) of zero, so checks
through relu redraw deterministically until every pre-activation clears a
margin well above the step; the redraw is a property of the probe, not of
the gradients under test. Checks with dropout pass every call a fresh
dropout stream of one fixed seed, so each evaluation draws the same masks.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .autodiff import (
    LstmParams,
    RngStream,
    bilstm,
    conv1d_same,
    dense,
    grad_check,
    param,
    softmax_cross_entropy,
)
from .chaincrf import crf_nll
from .embed import N_SHAPE_FEATURES, Batch, EmbeddingTable
from .tagger import FILTER_WIDTHS, TaggerConfig, build, loss

SUITE_TOLERANCE = 1e-4
SUITE_ROUNDS = 5  # seeded repetitions of every check
_KINK_MARGIN = 5e-3  # far above the 1e-4 finite-difference step


def _check_dense(stream: RngStream) -> float:
    """relu(x @ w + b), pre-activations redrawn clear of the kink."""
    for salt in range(100, 200):
        r = stream.child(salt)
        x = r.uniform(-1.5, 1.5, (4, 3))
        w = r.uniform(-1.0, 1.0, (3, 2))
        b = r.uniform(-0.5, 0.5, 2)
        if np.abs(x @ w + b).min() > _KINK_MARGIN:
            break
    else:
        raise RuntimeError("no kink-free dense draw found")
    w_t, b_t = param(w), param(b)

    def relu_sum(tape):
        return np.maximum(dense(x, w_t, b_t, tape), 0.0).sum()

    # the gradient of the sum of the relu outputs: 1 where the relu is on
    return grad_check(relu_sum, [w_t, b_t], seed=(x @ w + b > 0) * 1.0)


def _check_conv(stream: RngStream) -> float:
    """Width-2 and width-3 banks on one input, each probed by its sum."""
    r = stream.child(1)
    x = r.uniform(-1.0, 1.0, (1, 5, 3))
    worst = 0.0
    for width in FILTER_WIDTHS:
        k = param(r.uniform(-1.0, 1.0, (2, width, 3)))
        b = param(r.uniform(-0.5, 0.5, 2))

        def bank_sum(tape, k=k, b=b):
            return conv1d_same(x, k, b, tape).sum()

        worst = max(worst, grad_check(bank_sum, [k, b], seed=np.ones((1, 5, 2))))
    return worst


def _lstm_params(r: RngStream, d: int, h: int) -> LstmParams:
    return LstmParams(
        wx=param(r.uniform(-0.8, 0.8, (d, 4 * h))),
        wh=param(r.uniform(-0.8, 0.8, (h, 4 * h))),
        b=param(r.uniform(-0.3, 0.3, 4 * h)),
    )


def _check_bilstm(stream: RngStream, dropped: bool) -> float:
    r = stream.child(2)
    x = r.uniform(-1.0, 1.0, (1, 4, 2))
    fwd = _lstm_params(r.child(0), 2, 2)
    bwd = _lstm_params(r.child(1), 2, 2)
    mask_seed = stream.child(3).integers(0, 2**31)

    def output_sum(tape):
        rng = RngStream(mask_seed) if dropped else None
        return bilstm(x, fwd, bwd, [4], rng, tape).sum()

    return grad_check(output_sum, [*fwd, *bwd], seed=np.ones((1, 4, 4)))


def _check_softmax_cross_entropy(stream: RngStream) -> float:
    r = stream.child(4)
    x = r.uniform(-1.0, 1.0, (1, 5, 3))
    w = param(r.uniform(-1.0, 1.0, (3, 4)))
    zero_bias = param(np.zeros(4))
    gold = [[int(r.child(i).integers(0, 4)) for i in range(5)]]

    def ce_loss(tape):
        return softmax_cross_entropy(dense(x, w, zero_bias, tape), gold, [5], tape)

    return grad_check(ce_loss, [w])


def _check_crf_nll(stream: RngStream) -> float:
    r = stream.child(5)
    n, t_count = 4, 3
    e_scores = param(r.uniform(-2.0, 2.0, (1, n, t_count)))
    trans = param(r.uniform(-2.0, 2.0, (t_count, t_count)))
    start = param(r.uniform(-2.0, 2.0, t_count))
    stop = param(r.uniform(-2.0, 2.0, t_count))
    gold = [[int(r.child(i).integers(0, t_count)) for i in range(n)]]

    def nll(tape):
        if tape is not None:  # a first stage: the scores' gradient, kept
            tape.record(partial(np.copyto, e_scores.grad))
        return crf_nll(e_scores.data, trans, start, stop, gold, [n], tape)

    return grad_check(nll, [e_scores, trans, start, stop])


def _conv_margin(model, word_input: np.ndarray) -> float:
    """Smallest |pre-activation| the conv banks would see, using the same
    stage the forward pass runs (no tape, pure evaluation)."""
    margin = np.inf
    for width in FILTER_WIDTHS:
        pre = conv1d_same(
            word_input,
            model.params[f"conv{width}_kernels"],
            model.params[f"conv{width}_bias"],
        )
        margin = min(margin, float(np.abs(pre).min()))
    return margin


def _check_tagger_loss(stream: RngStream, head: str) -> float:
    """Full network loss of a training pass, its dropout stream of one fixed
    seed per call; every trainable parameter is finite-differenced."""
    config = TaggerConfig(
        filters_per_width=2,
        lstm_hidden=2,
        head=head,
        batch_size=1,
        seed=0,
    )
    table, n = EmbeddingTable(3, {}), 4
    tag_vocab, pos_vocab = ("O", "B-X", "I-X"), ("UNK", "VERB")
    for salt in range(300, 400):
        r = stream.child(salt)
        model = build(config, table, tag_vocab, pos_vocab, r.child(0))
        word_input = r.uniform(-1.0, 1.0, (1, n, table.dimension + N_SHAPE_FEATURES))
        if _conv_margin(model, word_input) > _KINK_MARGIN:
            break
    else:
        raise RuntimeError("no kink-free tagger draw found")
    pos_input = np.zeros((1, n, len(pos_vocab)))
    for i in range(n):
        pos_input[0, i, int(r.child(i).integers(0, len(pos_vocab)))] = 1.0
    batch = Batch(word_input, pos_input, np.array([n]))
    gold = [[tag_vocab[r.child(50 + i).integers(0, len(tag_vocab))] for i in range(n)]]
    mask_seed = r.child(99).integers(0, 2**31)

    def tagger_loss(tape):
        return loss(model, batch, gold, RngStream(mask_seed), tape)

    return grad_check(tagger_loss, list(model.params.values()))


CHECKS = (
    ("dense", _check_dense),
    ("conv1d_same", _check_conv),
    ("bilstm", lambda s: _check_bilstm(s, dropped=False)),
    ("bilstm_dropout", lambda s: _check_bilstm(s, dropped=True)),
    ("softmax_cross_entropy", _check_softmax_cross_entropy),
    ("crf_nll", _check_crf_nll),
    ("tagger_loss_softmax", lambda s: _check_tagger_loss(s, "softmax")),
    ("tagger_loss_crf", lambda s: _check_tagger_loss(s, "crf")),
)


def gradient_suite(seed: int = 0) -> dict[str, float]:
    """Max relative error per check across SUITE_ROUNDS seeded repetitions."""
    results = {name: 0.0 for name, _ in CHECKS}
    for round_index in range(SUITE_ROUNDS):
        base = RngStream(seed).child(round_index)
        for offset, (name, fn) in enumerate(CHECKS):
            results[name] = max(results[name], fn(base.child(offset)))
    return results


def format_suite(results: dict[str, float]) -> str:
    width = max(len(name) for name in results)
    lines = [
        f"{name:<{width}}  {err:.3e}  {'ok' if err < SUITE_TOLERANCE else 'FAIL'}"
        for name, err in results.items()
    ]
    return "\n".join(lines)
