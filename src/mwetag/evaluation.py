"""Scoring of predicted MWE annotations against gold.

Two bases: token-based (fuzzy) credits every correctly predicted token, via
per-sentence intersection of position unions; MWE-based (strict) credits only
instances whose exact token-position set matches. Both work on match keys:
an instance's match key is (sentence index, its distinct token positions as a
sorted tuple), built once per instance, so the order and repeats of positions
do not matter. evaluate's overall MWE score, by which training also picks its
dev epoch, ignores the category label; its per-category scores restrict both
sides to one category first. Seen/unseen
partitioning keys instances by the multiset of their lowercased lemmas
against the training corpus. All scores are fractions in [0,1]; rendering
multiplies by 100 with two decimals. Ratios with zero denominator are 0.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

from .corpus import Corpus, Sentence
from .errors import EvaluationError


def f1(p: float, r: float) -> float:
    """Harmonic mean, 0 when both inputs are 0."""
    if not (0.0 <= p <= 1.0 and 0.0 <= r <= 1.0):
        raise ValueError(f"precision/recall must lie in [0,1], got {p}, {r}")
    if p + r == 0.0:
        return 0.0
    return 2.0 * p * r / (p + r)


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


@dataclass(frozen=True)
class BasisScores:
    """P/R/F1 plus the counts they came from, for one matching basis."""

    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int

    @staticmethod
    def from_counts(tp: int, fp: int, fn: int) -> "BasisScores":
        p = _ratio(tp, tp + fp)
        r = _ratio(tp, tp + fn)
        return BasisScores(p, r, f1(p, r), tp, fp, fn)


@dataclass(frozen=True)
class EvalReport:
    token: BasisScores
    mwe: BasisScores
    per_category: dict = field(default_factory=dict)  # category -> EvalReport


@dataclass(frozen=True)
class SeenUnseenPartition:
    """Gold test instances as (sentence index, positions as the instance lists
    them, category), split by whether their lemma multiset occurs in training."""

    seen: tuple
    unseen: tuple
    seen_fraction: float


def _check_aligned(gold: Corpus, pred: Corpus):
    if len(gold) != len(pred):
        raise EvaluationError(
            f"corpora differ in sentence count: {len(gold)} vs {len(pred)}"
        )
    for idx, (g, p) in enumerate(zip(gold, pred)):
        if len(g.tokens) != len(p.tokens):
            raise EvaluationError(
                f"sentence {idx + 1}: token counts differ "
                f"({len(g.tokens)} vs {len(p.tokens)})"
            )


def _keyed(corpus: Corpus):
    """(sentence index, instance, match key) of every instance, in corpus order."""
    for i, sentence in enumerate(corpus):
        for inst in sentence.vmwes:
            yield i, inst, (i, tuple(sorted(set(inst.token_positions))))


def _by_category(corpus: Corpus) -> dict[str, list]:
    """The match keys of a corpus grouped by category, in one pass."""
    groups: dict[str, list] = {}
    for _, inst, key in _keyed(corpus):
        groups.setdefault(inst.category, []).append(key)
    return groups


def _flat(groups: dict[str, list]) -> list:
    """The match keys of every category."""
    return [key for keys in groups.values() for key in keys]


def _mwe_counts(gold_keys, pred_keys):
    gold_keys, pred_keys = set(gold_keys), set(pred_keys)
    tp = len(gold_keys & pred_keys)
    return tp, len(pred_keys) - tp, len(gold_keys) - tp


def _unions(keys) -> dict[int, set]:
    union: dict[int, set] = {}
    for i, positions in keys:
        union.setdefault(i, set()).update(positions)
    return union


def _token_counts(gold_keys, pred_keys):
    g_union, p_union = _unions(gold_keys), _unions(pred_keys)
    tp = sum(len(s & p_union[i]) for i, s in g_union.items() if i in p_union)
    pred_total = sum(len(s) for s in p_union.values())
    gold_total = sum(len(s) for s in g_union.values())
    return tp, pred_total - tp, gold_total - tp


def _report(gold_keys, pred_keys) -> EvalReport:
    return EvalReport(
        token=BasisScores.from_counts(*_token_counts(gold_keys, pred_keys)),
        mwe=BasisScores.from_counts(*_mwe_counts(gold_keys, pred_keys)),
    )


def _per_category(gold_groups: dict, pred_groups: dict) -> dict[str, EvalReport]:
    return {
        cat: _report(gold_groups.get(cat, []), pred_groups.get(cat, []))
        for cat in sorted(gold_groups.keys() | pred_groups.keys())
    }


def evaluate(gold: Corpus, pred: Corpus) -> EvalReport:
    """Overall token- and MWE-based scores plus per-category breakdown."""
    _check_aligned(gold, pred)
    g, p = _by_category(gold), _by_category(pred)
    overall = _report(_flat(g), _flat(p))
    return replace(overall, per_category=_per_category(g, p))


# ---------------------------------------------------------------------------
# seen/unseen


def _lemma_key(sentence: Sentence, positions) -> tuple:
    """Multiset of lowercased lemmas; a placeholder lemma falls back to the
    lowercased form."""
    parts = []
    for pos in positions:
        token = sentence.tokens[pos - 1]
        lemma = token.lemma if token.lemma != "_" else token.form
        parts.append(lemma.lower())
    return tuple(sorted(parts))


def seen_unseen(train: Corpus, gold_test: Corpus, pred: Corpus):
    """Partition gold test instances into seen/unseen by training lemma
    multisets and score each side.

    MWE-based matching within a partition ignores category, like the general
    score. A predicted instance that matches a gold instance inherits that
    instance's partition; an unmatched prediction is assigned by its own
    lemma multiset. Token-basis scores per partition use only the instances
    belonging to (or assigned to) that partition.
    """
    _check_aligned(gold_test, pred)
    train_keys = {_lemma_key(s, inst.token_positions) for s in train for inst in s.vmwes}

    # each pair of lists is indexed by "is seen": (unseen, seen)
    refs, gold_keys, pred_keys = ([], []), ([], []), ([], [])
    seen_by_key: dict[tuple, bool] = {}
    for i, inst, key in _keyed(gold_test):
        seen = _lemma_key(gold_test[i], inst.token_positions) in train_keys
        seen_by_key[key] = seen
        refs[seen].append((i, tuple(inst.token_positions), inst.category))
        gold_keys[seen].append(key)
    for i, inst, key in _keyed(pred):
        seen = seen_by_key.get(key)
        if seen is None:
            seen = _lemma_key(pred[i], inst.token_positions) in train_keys
        pred_keys[seen].append(key)

    partition = SeenUnseenPartition(
        seen=tuple(refs[True]),
        unseen=tuple(refs[False]),
        seen_fraction=_ratio(len(refs[True]), len(refs[True]) + len(refs[False])),
    )
    return (partition, _report(gold_keys[True], pred_keys[True]),
            _report(gold_keys[False], pred_keys[False]))


# ---------------------------------------------------------------------------
# rendering


def percent(value: float) -> str:
    return f"{value * 100:.2f}"


def report_to_dict(report: EvalReport) -> dict:
    """token, mwe and per_category (category -> the same three keys), each
    basis as its six BasisScores fields."""
    return asdict(report)


def format_report(report: EvalReport, title: str = "TOTAL") -> str:
    """Aligned text table: one row per scope, token-based and MWE-based
    P/R/F1 as percentages."""
    rows = [(title, report)] + sorted(report.per_category.items())
    name_width = max(len(name) for name, _ in rows)
    header = (
        f"{'':<{name_width}}  {'token-based':>20}  {'MWE-based':>20}\n"
        f"{'':<{name_width}}  {'P':>6} {'R':>6} {'F1':>6}  {'P':>6} {'R':>6} {'F1':>6}"
    )
    lines = [header]
    for name, rep in rows:
        lines.append(
            f"{name:<{name_width}}  "
            f"{percent(rep.token.precision):>6} {percent(rep.token.recall):>6} "
            f"{percent(rep.token.f1):>6}  "
            f"{percent(rep.mwe.precision):>6} {percent(rep.mwe.recall):>6} "
            f"{percent(rep.mwe.f1):>6}"
        )
    return "\n".join(lines) + "\n"
