"""Linear-chain CRF scoring, inference, and loss.

Scores live in log-space. A labeling y of an n-token sentence scores

    start[y_0] + sum_i scores[i, y_i] + sum_i trans[y_{i-1}, y_i] + stop[y_{n-1}]

with explicit start/stop vectors instead of padded boundary labels. Every
function but brute_force takes a padded B x n x T block of B sentences
(n, T >= 1) with their B lengths, plus trans (T x T), start and stop (T), all
plain float arrays (crf_nll takes the last three as autodiff Params, whose
gradients it writes); a batch costs one pass of n vectorized steps instead
of B passes. Entries past a sentence's length are ignored. The emission scores may
come from any source: the neural tagger's projection layer or a sparse
feature dot product. Shapes and finiteness are the callers' business: they
are checked where the numbers enter or arise (model loading, the tagger's
forward pass, the baseline objective), not here.

nll_gradient is the one place that turns forward_backward marginals and a
gold path into expected-minus-observed counts. crf_nll, the neural tagger's
CRF loss stage, runs it in its backward pass; the sparse baseline calls it
directly.

No transition is masked as impossible (for example O followed by a
continuation label): decoding may emit such sequences and the corpus-level
orphan filter repairs them afterwards.
"""

from __future__ import annotations

import numpy as np


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = a.max(axis=axis, keepdims=True)
    return (m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True))).squeeze(axis)


def _masked(block, lengths):
    """The B lengths as an int array, and the B x n mask of real positions
    of the block."""
    lengths = np.asarray(lengths, dtype=int)
    return lengths, np.arange(block.shape[1]) < lengths[:, None]


def score_path(scores, trans, start, stop, paths, lengths):
    """B scores of a B x n block of labelings (padding entries of the block
    and the paths are ignored)."""
    lengths, live = _masked(scores, lengths)
    b_count, n = live.shape
    paths = np.asarray(paths, dtype=int)
    if paths.shape != (b_count, n):
        raise ValueError(f"path shape {paths.shape} does not match {b_count} x {n}")
    paths = np.where(live, paths, 0)
    rows = np.arange(b_count)
    total = (
        start[paths[:, 0]]
        + stop[paths[rows, lengths - 1]]
        + np.where(live, scores[rows[:, None], np.arange(n), paths], 0.0).sum(axis=1)
    )
    total += np.where(live[:, 1:], trans[paths[:, :-1], paths[:, 1:]], 0.0).sum(axis=1)
    return total


def viterbi(scores, trans, start, stop, lengths):
    """Highest-scoring label sequences and their scores: B paths (each as
    long as its sentence) and B scores. Ties break toward the lower label
    index at every backpointer (first maximum)."""
    b_count, n, t_count = scores.shape
    width = b_count * t_count
    # time-major, starting as a copy of the emissions: delta[i, s, b] becomes
    # the best score of sentence s up to position i ending in label b. Each
    # step reduces over the rows of one 2-D view of cand. A finished
    # sentence's entries run on through its padding unread.
    delta = scores.transpose(1, 0, 2).copy()
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
    for s, length in enumerate(np.asarray(lengths).tolist()):
        end = delta[length - 1, s] + stop
        path = [int(end.argmax())]
        best.append(float(end[path[0]]))
        offset = s * t_count
        for i in range(length - 1, 0, -1):
            path.append(pointers[i][offset + path[-1]])
        path.reverse()
        paths.append(path)
    return paths, np.array(best)


def _alphas(block, trans, start, live):
    """Forward recursion by max-subtracted log-sum-exp: alpha[:, i, a] sums
    the paths up to position i that end in label a. A finished sentence
    carries its last alpha through the padding."""
    alpha = np.empty_like(block)
    alpha[:, 0] = start + block[:, 0]
    for i in range(1, block.shape[1]):
        step = _logsumexp(alpha[:, i - 1, :, None] + trans, axis=1) + block[:, i]
        alpha[:, i] = np.where(live[:, i, None], step, alpha[:, i - 1])
    return alpha


def log_partition(scores, trans, start, stop, lengths):
    """B values: the log of the summed exponentiated scores over all T^n
    paths of each sentence, by the forward recursion."""
    _, live = _masked(scores, lengths)
    return _logsumexp(_alphas(scores, trans, start, live)[:, -1] + stop, axis=1)


def forward_backward(scores, trans, start, stop, lengths):
    """Posterior marginals under the CRF distribution.

    Returns (gamma, xi, logZ): gamma[s, i, a] = P(y_i = a) in sentence s, a
    B x n x T block whose real rows sum to 1, and xi[s, i, a, b] =
    P(y_i = a, y_{i+1} = b), a B x (n-1) x T x T block; both are zero past
    each sentence's end, and logZ holds B values. These are exactly the
    gradient of logZ with respect to emissions and transition counts.
    """
    _, live = _masked(scores, lengths)
    n = scores.shape[1]
    alpha = _alphas(scores, trans, start, live)
    beta = np.empty_like(scores)
    beta[:, n - 1] = stop
    for i in range(n - 2, -1, -1):
        step = _logsumexp(trans + (scores[:, i + 1] + beta[:, i + 1])[:, None, :], axis=2)
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
            + (scores[:, 1:] + beta[:, 1:])[:, :, None, :]
            - log_z[:, None, None, None]
        ),
        0.0,
    )
    return gamma, xi, log_z


def nll_gradient(gamma, xi, gold, lengths):
    """Gradient of log_partition - score_path(gold) from forward_backward's
    marginals and the B x n gold paths: expected minus observed counts, as
    (d_scores, d_trans, d_start, d_stop). d_scores is B x n x T, zero past
    each end; the chain gradients are summed over the batch."""
    gold = np.asarray(gold, dtype=int)
    d_scores = gamma.copy()
    lengths, live = _masked(d_scores, lengths)
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
    return d_scores, d_trans, d_start, d_stop


def crf_nll(scores, trans, start, stop, gold, lengths, tape=None) -> float:
    """Negative log-likelihood of the gold paths, log_partition - score(gold),
    summed over the B sentences of a B x n x T block with B x n gold paths,
    from one forward_backward and one score_path call. trans, start and stop
    are autodiff Params. Given a tape, this is the CRF head's loss stage:
    its backward runs nll_gradient, writes the transition gradients and
    returns the gradient of the scores."""
    arrays = (scores, trans.data, start.data, stop.data)
    lengths, live = _masked(scores, lengths)
    gold = np.asarray(gold, dtype=int)
    if gold.shape != scores.shape[:-1]:
        raise ValueError(
            f"gold path shape {gold.shape} does not match scores {scores.shape}"
        )
    labels = gold[live]
    if labels.min() < 0 or labels.max() >= scores.shape[-1]:
        raise ValueError("gold label index out of range")

    gamma, xi, log_z = forward_backward(*arrays, lengths)

    def back(g):
        d_scores, *chain = nll_gradient(gamma, xi, gold, lengths)
        for p, grad in zip((trans, start, stop), chain):
            np.multiply(g, grad, out=p.grad)
        d_scores *= g
        return d_scores

    if tape is not None:
        tape.record(back)
    return float(np.sum(log_z - score_path(*arrays, gold, lengths)))


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
