"""Linear-chain CRF scoring, inference, and loss.

Scores live in log-space. A labeling y of an n-token sentence scores

    start[y_0] + sum_i scores[i, y_i] + sum_i trans[y_{i-1}, y_i] + stop[y_{n-1}]

with explicit start/stop vectors instead of padded boundary labels. Every
function takes the same plain float arrays: scores (n x T, n, T >= 1), trans
(T x T), start and stop (T). All but brute_force also take a padded
B x n x T block of B sentences with their lengths; one n x T sentence is the
B = 1 block of the same code, so a batch costs one pass of n vectorized
steps instead of B passes. Entries past a sentence's length are ignored. The
emission scores may come from any source: the neural tagger's projection
layer or a sparse feature dot product. Shapes and finiteness are the
callers' business: they are checked where the numbers enter or arise (model
loading, the tagger's forward pass, the baseline objective), not here.

nll_gradient is the one place that turns forward_backward marginals and a
gold path into expected-minus-observed counts. crf_nll, the autodiff op, runs
it in its backward pass; the sparse baseline calls it directly.

No transition is masked as impossible (for example O followed by a
continuation label): decoding may emit such sequences and the corpus-level
orphan filter repairs them afterwards.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, _accumulate, _emit


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = a.max(axis=axis, keepdims=True)
    return (m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True))).squeeze(axis)


def _batch(scores, lengths):
    """A padded B x n x T block and its per-sentence lengths (B). One n x T
    sentence is the B = 1 block; a block without lengths is all full
    length."""
    if scores.ndim == 2:
        scores = scores[None]
    b_count, n = scores.shape[:2]
    lengths = np.full(b_count, n) if lengths is None else np.asarray(lengths, dtype=int)
    return scores, lengths


def _masked(scores, lengths):
    """_batch, plus the B x n mask of real positions."""
    block, lengths = _batch(scores, lengths)
    return block, lengths, np.arange(block.shape[1]) < lengths[:, None]


def score_path(scores, trans, start, stop, path, lengths=None):
    """Score of a labeling: a float for one n x T sentence and an n-long
    path; for a padded block, B scores of a B x n path block (padding
    entries of the block and the paths are ignored)."""
    single = scores.ndim == 2
    block, lengths, live = _masked(scores, lengths)
    b_count, n = live.shape
    paths = np.asarray(path, dtype=int)
    if paths.shape != ((n,) if single else (b_count, n)):
        raise ValueError(f"path shape {paths.shape} does not match {n} positions")
    paths = np.where(live, paths.reshape(b_count, n), 0)
    rows = np.arange(b_count)
    total = (
        start[paths[:, 0]]
        + stop[paths[rows, lengths - 1]]
        + np.where(live, block[rows[:, None], np.arange(n), paths], 0.0).sum(axis=1)
    )
    total += np.where(live[:, 1:], trans[paths[:, :-1], paths[:, 1:]], 0.0).sum(axis=1)
    return float(total[0]) if single else total


def viterbi(scores, trans, start, stop, lengths=None):
    """Highest-scoring label sequence and its score: (path, score) for one
    n x T sentence; for a padded B x n x T block with lengths, B paths (each
    as long as its sentence) and B scores. Ties break toward the lower label
    index at every backpointer (first maximum)."""
    block, lengths = _batch(scores, lengths)
    b_count, n, t_count = block.shape
    width = b_count * t_count
    # time-major, starting as a copy of the emissions: delta[i, s, b] becomes
    # the best score of sentence s up to position i ending in label b. Each
    # step reduces over the rows of one 2-D view of cand. A finished
    # sentence's entries run on through its padding unread.
    delta = block.transpose(1, 0, 2).copy()
    delta[0] += start
    backptr = np.empty((n, width), dtype=np.intp)
    cand = np.empty((b_count, t_count, t_count))  # cand[s, b, a]: through a, then b
    rows = cand.reshape(width, t_count)
    into = trans.T
    steps = zip(delta[:, :, None, :], delta.reshape(n, width)[1:], backptr[1:])
    for prev, cur, pointer in steps:
        np.add(prev, into, out=cand)
        rows.argmax(axis=1, out=pointer)
        cur += rows.max(axis=1)
    pointers = backptr.tolist()
    paths, best = [], []
    for s, length in enumerate(lengths.tolist()):
        end = delta[length - 1, s] + stop
        path = [int(end.argmax())]
        best.append(float(end[path[0]]))
        offset = s * t_count
        for i in range(length - 1, 0, -1):
            path.append(pointers[i][offset + path[-1]])
        path.reverse()
        paths.append(path)
    if scores.ndim == 2:
        return paths[0], best[0]
    return paths, np.array(best)


def log_partition(scores, trans, start, stop, lengths=None):
    """log of the summed exponentiated scores over all T^n paths, by the
    forward recursion with max-subtracted log-sum-exp: a float for one n x T
    sentence, B values for a padded B x n x T block with lengths. A finished
    sentence carries its last alpha through the padding."""
    single = scores.ndim == 2
    block, _, live = _masked(scores, lengths)
    alpha = start + block[:, 0]
    for i in range(1, block.shape[1]):
        step = _logsumexp(alpha[:, :, None] + trans, axis=1) + block[:, i]
        alpha = np.where(live[:, i, None], step, alpha)
    log_z = _logsumexp(alpha + stop, axis=1)
    return float(log_z[0]) if single else log_z


def forward_backward(scores, trans, start, stop, lengths=None):
    """Posterior marginals under the CRF distribution.

    Returns (gamma, xi, logZ): gamma[i, a] = P(y_i = a), an n x T matrix whose
    rows sum to 1, and xi[i, a, b] = P(y_i = a, y_{i+1} = b), an
    (n-1) x T x T block. These are exactly the gradient of logZ with respect
    to emissions and transition counts. For a padded B x n x T block with
    lengths each gains a leading B axis, logZ is B values, and gamma and xi
    are zero past each sentence's end.
    """
    single = scores.ndim == 2
    block, _, live = _masked(scores, lengths)
    n = block.shape[1]
    alpha = np.empty_like(block)
    alpha[:, 0] = start + block[:, 0]
    for i in range(1, n):
        step = _logsumexp(alpha[:, i - 1, :, None] + trans, axis=1) + block[:, i]
        alpha[:, i] = np.where(live[:, i, None], step, alpha[:, i - 1])
    beta = np.empty_like(block)
    beta[:, n - 1] = stop
    for i in range(n - 2, -1, -1):
        step = _logsumexp(trans + (block[:, i + 1] + beta[:, i + 1])[:, None, :], axis=2)
        beta[:, i] = np.where(live[:, i + 1, None], step, stop)
    log_z = _logsumexp(alpha[:, n - 1] + stop, axis=1)
    gamma = np.where(
        live[:, :, None], np.exp(alpha + beta - log_z[:, None, None]), 0.0
    )
    xi = np.where(
        live[:, 1:, None, None],
        np.exp(
            alpha[:, :-1, :, None]
            + trans
            + (block[:, 1:] + beta[:, 1:])[:, :, None, :]
            - log_z[:, None, None, None]
        ),
        0.0,
    )
    if single:
        return gamma[0], xi[0], float(log_z[0])
    return gamma, xi, log_z


def nll_gradient(gamma, xi, gold, lengths=None):
    """Gradient of log_partition - score_path(gold) from forward_backward's
    marginals: expected minus observed counts, as (d_scores, d_trans,
    d_start, d_stop). For a padded batch (gold B x n, with lengths) d_scores
    is B x n x T, zero past each end, and the chain gradients are summed
    over the batch."""
    single = gamma.ndim == 2
    gold = np.asarray(gold, dtype=int).reshape(-1, gamma.shape[-2])
    d_scores, lengths, live = _masked(gamma.copy(), lengths)
    t_count = d_scores.shape[2]
    rows, cols = np.nonzero(live)
    d_scores[rows, cols, gold[rows, cols]] -= 1.0
    pairs = live[:, 1:]
    observed_trans = np.bincount(
        gold[:, :-1][pairs] * t_count + gold[:, 1:][pairs], minlength=t_count * t_count
    ).reshape(t_count, t_count)
    d_trans = xi.reshape(-1, t_count, t_count).sum(axis=0) - observed_trans
    d_start = d_scores[:, 0].sum(axis=0)
    d_stop = d_scores[np.arange(len(lengths)), lengths - 1].sum(axis=0)
    return (d_scores[0] if single else d_scores), d_trans, d_start, d_stop


def crf_nll(
    scores: Tensor, trans: Tensor, start: Tensor, stop: Tensor, gold, lengths=None
) -> Tensor:
    """Negative log-likelihood of the gold path: log_partition - score(gold),
    as a scalar Tensor whose backward pass is nll_gradient. For a padded
    B x n x T block with B x n gold paths and the lengths, the sum of the B
    sentences' values, from one forward_backward and one score_path call."""
    arrays = (scores.data, trans.data, start.data, stop.data)
    _, lengths, live = _masked(scores.data, lengths)
    gold = np.asarray(gold, dtype=int)
    if gold.shape != scores.shape[:-1]:
        raise ValueError(
            f"gold path shape {gold.shape} does not match scores {scores.shape}"
        )
    labels = gold.reshape(live.shape)[live]
    if labels.min() < 0 or labels.max() >= scores.shape[-1]:
        raise ValueError("gold label index out of range")

    gamma, xi, log_z = forward_backward(*arrays, lengths)
    loss = np.sum(log_z - score_path(*arrays, gold, lengths))

    def back(g):
        for x, grad in zip(
            (scores, trans, start, stop), nll_gradient(gamma, xi, gold, lengths)
        ):
            _accumulate(x, g * grad)

    return _emit(np.asarray(loss), (scores, trans, start, stop), back)


def brute_force(scores, trans, start, stop) -> tuple[list[int], float, float]:
    """Exhaustive enumeration over all T^n paths: (best path, best score,
    log partition). Testing ground truth for viterbi and log_partition;
    refuses instances with more than 10^6 paths."""
    n, t_count = scores.shape
    if t_count**n > 10**6:
        raise ValueError(f"instance too large for enumeration: {t_count}^{n} paths")
    # paths as a (T^n, n) index grid
    paths = np.indices((t_count,) * n).reshape(n, -1).T
    totals = start[paths[:, 0]] + stop[paths[:, -1]]
    for i in range(n):
        totals = totals + scores[i, paths[:, i]]
    for i in range(1, n):
        totals = totals + trans[paths[:, i - 1], paths[:, i]]
    best = int(totals.argmax())
    m = totals.max()
    log_z = float(m + np.log(np.exp(totals - m).sum()))
    return list(map(int, paths[best])), float(totals[best]), log_z
