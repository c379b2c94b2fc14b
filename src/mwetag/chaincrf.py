"""Linear-chain CRF scoring, inference, and loss.

Scores live in log-space. A labeling y of an n-token sentence scores

    start[y_0] + sum_i scores[i, y_i] + sum_i trans[y_{i-1}, y_i] + stop[y_{n-1}]

with explicit start/stop vectors instead of padded boundary labels. Every
function takes the same plain float arrays: scores (n x T, n, T >= 1), trans
(T x T), start and stop (T). The emission scores may come from any source: the
neural tagger's projection layer or a sparse feature dot product. Shapes and
finiteness are the callers' business: they are checked where the numbers
enter or arise (model loading, the tagger's forward pass, the baseline
objective), not here.

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


def score_path(scores, trans, start, stop, path) -> float:
    path = np.asarray(path, dtype=int)
    n = scores.shape[0]
    if path.shape != (n,):
        raise ValueError(f"path length {path.shape} does not match {n} positions")
    total = start[path[0]] + stop[path[-1]] + scores[np.arange(n), path].sum()
    if n > 1:
        total += trans[path[:-1], path[1:]].sum()
    return float(total)


def viterbi(scores, trans, start, stop) -> tuple[list[int], float]:
    """Highest-scoring label sequence and its score. Ties break toward the
    lower label index at every backpointer (first maximum)."""
    n, t_count = scores.shape
    delta = start + scores[0]
    backptr = np.zeros((n, t_count), dtype=int)
    for i in range(1, n):
        cand = delta[:, None] + trans  # cand[a, b]: best-through-a then b
        backptr[i] = cand.argmax(axis=0)
        delta = cand.max(axis=0) + scores[i]
    delta = delta + stop
    last = int(delta.argmax())
    best_score = float(delta[last])
    path = [last]
    for i in range(n - 1, 0, -1):
        path.append(int(backptr[i, path[-1]]))
    path.reverse()
    return path, best_score


def log_partition(scores, trans, start, stop) -> float:
    """log of the summed exponentiated scores over all T^n paths, by the
    forward recursion with max-subtracted log-sum-exp."""
    alpha = start + scores[0]
    for i in range(1, scores.shape[0]):
        alpha = _logsumexp(alpha[:, None] + trans, axis=0) + scores[i]
    return float(_logsumexp(alpha + stop, axis=0))


def forward_backward(scores, trans, start, stop):
    """Posterior marginals under the CRF distribution.

    Returns (gamma, xi, logZ): gamma[i, a] = P(y_i = a), an n x T matrix whose
    rows sum to 1, and xi[i, a, b] = P(y_i = a, y_{i+1} = b), an
    (n-1) x T x T block. These are exactly the gradient of logZ with respect
    to emissions and transition counts.
    """
    n, t_count = scores.shape
    alpha = np.empty((n, t_count))
    alpha[0] = start + scores[0]
    for i in range(1, n):
        alpha[i] = _logsumexp(alpha[i - 1][:, None] + trans, axis=0) + scores[i]
    beta = np.empty((n, t_count))
    beta[n - 1] = stop
    for i in range(n - 2, -1, -1):
        beta[i] = _logsumexp(trans + (scores[i + 1] + beta[i + 1])[None, :], axis=1)
    log_z = float(_logsumexp(alpha[n - 1] + stop, axis=0))
    gamma = np.exp(alpha + beta - log_z)
    xi = np.empty((max(n - 1, 0), t_count, t_count))
    for i in range(n - 1):
        xi[i] = np.exp(
            alpha[i][:, None] + trans + (scores[i + 1] + beta[i + 1])[None, :] - log_z
        )
    return gamma, xi, log_z


def nll_gradient(gamma, xi, gold):
    """Gradient of log_partition - score_path(gold) from forward_backward's
    marginals: expected minus observed counts, as (d_scores, d_trans,
    d_start, d_stop)."""
    n, t_count = gamma.shape
    d_scores = gamma.copy()
    d_scores[np.arange(n), gold] -= 1.0
    observed_trans = np.bincount(
        gold[:-1] * t_count + gold[1:], minlength=t_count * t_count
    ).reshape(t_count, t_count)
    d_trans = xi.sum(axis=0) - observed_trans
    return d_scores, d_trans, d_scores[0], d_scores[-1]


def crf_nll(scores: Tensor, trans: Tensor, start: Tensor, stop: Tensor, gold) -> Tensor:
    """Negative log-likelihood of the gold path: log_partition - score(gold),
    as a scalar Tensor whose backward pass is nll_gradient."""
    arrays = (scores.data, trans.data, start.data, stop.data)
    n, t_count = scores.shape
    gold = np.asarray(gold, dtype=int)
    if gold.shape != (n,):
        raise ValueError(f"gold path length {gold.shape} does not match {n} positions")
    if gold.min() < 0 or gold.max() >= t_count:
        raise ValueError("gold label index out of range")

    gamma, xi, log_z = forward_backward(*arrays)
    loss = log_z - score_path(*arrays, gold)

    def back(g):
        for x, grad in zip((scores, trans, start, stop), nll_gradient(gamma, xi, gold)):
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
