"""Scoring oracles: hand-enumerated counts on small constructed corpora plus
swap/ordering properties on randomly generated annotation pairs."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwetag.corpus import Sentence, Token, VmweInstance, from_tags
from mwetag.errors import EvaluationError
from mwetag.evaluation import (
    BasisScores,
    evaluate,
    f1,
    format_report,
    percent,
    report_to_dict,
    seen_unseen,
)


def sent(n, *instances, lemmas=None):
    tokens = tuple(
        Token(i, f"w{i}", lemmas[i - 1] if lemmas else f"l{i}", "X", ())
        for i in range(1, n + 1)
    )
    vmwes = tuple(
        VmweInstance(k + 1, cat, tuple(positions))
        for k, (cat, positions) in enumerate(instances)
    )
    return Sentence(tokens, vmwes)


# ---------------------------------------------------------------------------
# f1


def test_f1_published_totals():
    # headline scores recompute from their own P/R at report precision
    assert f1(0.6608, 0.5182) == pytest.approx(0.5809, abs=1e-4)
    assert f1(0.7622, 0.5427) == pytest.approx(0.6340, abs=1e-4)


def test_f1_degenerate_cases():
    assert f1(0.0, 0.0) == 0.0
    assert f1(0.7, 0.7) == pytest.approx(0.7)
    assert f1(0.0, 0.9) == 0.0
    with pytest.raises(ValueError):
        f1(1.2, 0.5)


# ---------------------------------------------------------------------------
# strict (MWE-based)


def test_mwe_exact_match_scores_one():
    gold = [sent(5, ("VID", [2, 4]))]
    pred = [sent(5, ("VID", [2, 4]))]
    s = evaluate(gold, pred).mwe
    assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)
    assert (s.tp, s.fp, s.fn) == (1, 0, 0)


def test_mwe_partial_span_scores_zero():
    gold = [sent(5, ("VID", [2, 4]))]
    pred = [sent(5, ("VID", [2, 3]))]
    s = evaluate(gold, pred).mwe
    assert (s.precision, s.recall, s.f1) == (0.0, 0.0, 0.0)
    assert (s.tp, s.fp, s.fn) == (0, 1, 1)


def test_mwe_hand_enumerated_half():
    gold = [sent(6, ("A", [1, 2]), ("B", [5]))]
    pred = [sent(6, ("A", [1, 2]), ("X", [6]))]
    s = evaluate(gold, pred).mwe
    assert s.precision == pytest.approx(0.5)
    assert s.recall == pytest.approx(0.5)
    assert s.f1 == pytest.approx(0.5)


def test_mwe_general_score_ignores_category():
    gold = [sent(4, ("VID", [1, 3]))]
    pred = [sent(4, ("LVC.full", [1, 3]))]
    assert evaluate(gold, pred).mwe.f1 == 1.0


# ---------------------------------------------------------------------------
# fuzzy (token-based)


def test_token_identical_annotation_scores_one():
    gold = [sent(5, ("VID", [2, 4])), sent(3, ("LVC.full", [1, 2]))]
    s = evaluate(gold, gold).token
    assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)


def test_token_hand_case_partial_overlap():
    gold = [sent(5, ("VID", [2, 4]))]
    pred = [sent(5, ("VID", [2, 3]))]
    s = evaluate(gold, pred).token
    assert (s.tp, s.fp, s.fn) == (1, 1, 1)
    assert s.precision == pytest.approx(0.5)
    assert s.recall == pytest.approx(0.5)


def test_token_empty_prediction_zero_by_convention():
    gold = [sent(4, ("VID", [1, 2]))]
    pred = [sent(4)]
    s = evaluate(gold, pred).token
    assert (s.precision, s.recall, s.f1) == (0.0, 0.0, 0.0)


def test_token_overlapping_instances_count_positions_once():
    # positions 2 and 3 belong to two gold instances; union counts them once
    gold = [sent(4, ("A", [1, 2, 3]), ("B", [2, 3]))]
    pred = [sent(4, ("A", [2, 3]))]
    s = evaluate(gold, pred).token
    assert (s.tp, s.fp, s.fn) == (2, 0, 1)


# ---------------------------------------------------------------------------
# alignment checks


def test_sentence_count_mismatch_raises():
    with pytest.raises(EvaluationError):
        evaluate([sent(3)], [sent(3), sent(2)]).mwe


def test_token_count_mismatch_raises():
    with pytest.raises(EvaluationError):
        evaluate([sent(3)], [sent(4)])


# ---------------------------------------------------------------------------
# per category


def test_single_category_equals_overall():
    gold = [sent(5, ("VID", [1, 2]), ("VID", [4, 5]))]
    pred = [sent(5, ("VID", [1, 2]), ("VID", [4]))]
    report = evaluate(gold, pred)
    per = report.per_category
    assert set(per) == {"VID"}
    assert per["VID"].mwe == report.mwe == evaluate(gold, pred).mwe
    assert per["VID"].token == report.token


def test_prediction_only_category_scores_zero_precision():
    gold = [sent(5, ("VID", [1, 2]))]
    pred = [sent(5, ("IRV", [4, 5]))]
    per = evaluate(gold, pred).per_category
    assert per["IRV"].mwe.precision == 0.0
    assert per["IRV"].mwe.fp == 1
    assert per["VID"].mwe.recall == 0.0


def test_two_category_hand_checked():
    gold = [
        sent(6, ("VID", [1, 2]), ("LVC.full", [4, 5])),
        sent(4, ("VID", [2, 3])),
    ]
    pred = [
        sent(6, ("VID", [1, 2]), ("LVC.full", [4, 6])),
        sent(4, ("LVC.full", [2, 3])),
    ]
    per = evaluate(gold, pred).per_category
    # VID: gold {1,2}@s0 and {2,3}@s1, pred {1,2}@s0 -> TP=1, P=1, R=1/2
    assert per["VID"].mwe.precision == pytest.approx(1.0)
    assert per["VID"].mwe.recall == pytest.approx(0.5)
    # LVC.full: gold {4,5}@s0, pred {4,6}@s0 and {2,3}@s1 -> TP=0
    assert per["LVC.full"].mwe.precision == 0.0
    assert per["LVC.full"].mwe.recall == 0.0
    # category matching is strict inside per-category scores: the VID/LVC
    # swap at s1 positions {2,3} earns no credit on either side
    assert per["VID"].token.tp == 2
    assert per["LVC.full"].token.tp == 1  # position 4 overlaps


def test_evaluate_bundles_overall_and_categories():
    gold = [sent(5, ("VID", [1, 2]))]
    pred = [sent(5, ("VID", [1, 2]))]
    report = evaluate(gold, pred)
    assert report.mwe.f1 == 1.0
    assert report.token.f1 == 1.0
    assert set(report.per_category) == {"VID"}


# ---------------------------------------------------------------------------
# seen / unseen


def test_seen_unseen_lemma_multiset_membership():
    train = [sent(3, ("LVC.full", [1, 2]), lemmas=["take", "shower", "x"])]
    gold = [
        sent(3, ("LVC.full", [1, 2]), lemmas=["take", "shower", "y"]),
        sent(3, ("LVC.full", [1, 2]), lemmas=["make", "decision", "z"]),
    ]
    pred = [sent(3), sent(3)]
    partition, _, _ = seen_unseen(train, gold, pred)
    assert len(partition.seen) == 1 and partition.seen[0][0] == 0
    assert len(partition.unseen) == 1 and partition.unseen[0][0] == 1
    assert partition.seen_fraction == pytest.approx(0.5)


def test_seen_unseen_order_insensitive_multiset():
    train = [sent(2, ("VID", [1, 2]), lemmas=["shower", "take"])]
    gold = [sent(2, ("VID", [1, 2]), lemmas=["take", "shower"])]
    partition, _, _ = seen_unseen(train, gold, gold)
    assert len(partition.seen) == 1 and not partition.unseen


def test_seen_unseen_placeholder_lemma_falls_back_to_form():
    train = [
        Sentence(
            (Token(1, "Take", "_", "VERB", ()), Token(2, "Shower", "_", "NOUN", ())),
            (VmweInstance(1, "VID", (1, 2)),),
        )
    ]
    gold = [sent(2, ("VID", [1, 2]), lemmas=["take", "shower"])]
    partition, _, _ = seen_unseen(train, gold, gold)
    assert len(partition.seen) == 1


def test_all_seen_matches_overall_scores():
    train = [sent(4, ("VID", [1, 2]), lemmas=["a", "b", "c", "d"])]
    gold = [sent(4, ("VID", [1, 2]), lemmas=["a", "b", "x", "y"])]
    pred = [sent(4, ("VID", [1, 3]), lemmas=["a", "b", "x", "y"])]
    partition, seen_rep, unseen_rep = seen_unseen(train, gold, pred)
    assert not partition.unseen
    # the stray prediction {a, x} is unseen by its own lemma multiset
    assert unseen_rep.mwe.fp == 1
    assert seen_rep.mwe.recall == evaluate(gold, pred).mwe.recall


def test_seen_unseen_two_two_partition():
    train = [sent(4, ("A", [1, 2]), ("B", [3, 4]), lemmas=["p", "q", "r", "s"])]
    gold = [
        sent(2, ("A", [1, 2]), lemmas=["p", "q"]),
        sent(2, ("B", [1, 2]), lemmas=["r", "s"]),
        sent(2, ("A", [1, 2]), lemmas=["u", "v"]),
        sent(2, ("B", [1, 2]), lemmas=["w", "z"]),
    ]
    pred = [
        sent(2, ("A", [1, 2]), lemmas=["p", "q"]),
        sent(2),
        sent(2, ("A", [1, 2]), lemmas=["u", "v"]),
        sent(2),
    ]
    partition, seen_rep, unseen_rep = seen_unseen(train, gold, pred)
    assert partition.seen_fraction == pytest.approx(0.5)
    assert seen_rep.mwe.tp == 1 and seen_rep.mwe.fn == 1
    assert unseen_rep.mwe.tp == 1 and unseen_rep.mwe.fn == 1
    assert seen_rep.mwe.recall == pytest.approx(0.5)
    assert unseen_rep.mwe.recall == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# properties


def random_annotated(rng, categories=("A", "B")):
    corpus = []
    for _ in range(rng.integers(1, 6)):
        n = int(rng.integers(1, 9))
        instances = []
        for _ in range(rng.integers(0, 3)):
            size = int(rng.integers(1, min(n, 3) + 1))
            positions = sorted(rng.choice(n, size=size, replace=False) + 1)
            instances.append((str(rng.choice(categories)), [int(p) for p in positions]))
        corpus.append(sent(n, *instances))
    return corpus


def random_instances_over(rng, n, categories=("A", "B")):
    instances = []
    for _ in range(rng.integers(0, 3)):
        size = int(rng.integers(1, min(n, 3) + 1))
        positions = sorted(rng.choice(n, size=size, replace=False) + 1)
        instances.append((str(rng.choice(categories)), [int(p) for p in positions]))
    return instances


def test_swap_symmetry_exchanges_precision_and_recall():
    rng = np.random.default_rng(0)
    for _ in range(100):
        gold = random_annotated(rng)
        pred = [
            sent(len(g.tokens), *random_instances_over(rng, len(g.tokens)))
            for g in gold
        ]
        g_p, p_g = evaluate(gold, pred), evaluate(pred, gold)
        for ab, ba in ((g_p.mwe, p_g.mwe), (g_p.token, p_g.token)):
            assert ab.precision == pytest.approx(ba.recall)
            assert ab.recall == pytest.approx(ba.precision)
            assert ab.f1 == pytest.approx(ba.f1)


def test_identity_scores_one_whenever_instances_exist():
    rng = np.random.default_rng(1)
    for _ in range(50):
        corpus = random_annotated(rng)
        if not any(s.vmwes for s in corpus):
            continue
        report = evaluate(corpus, corpus)
        assert report.mwe.f1 == 1.0
        assert report.token.f1 == 1.0


def test_filtering_never_increases_predicted_tokens_or_mwe_fp():
    rng = np.random.default_rng(2)
    atoms = ["O", "B-A", "I-A", "B-B", "I-B", "I-A", "O", "O"]
    for _ in range(200):
        n = int(rng.integers(1, 10))
        tags = [str(rng.choice(atoms)) for _ in range(n)]
        base = sent(n)
        unfiltered = [from_tags(tags, base, apply_filter=False)]
        filtered = [from_tags(tags, base, apply_filter=True)]
        gold = [sent(n, *random_instances_over(rng, n))]
        unfiltered_keys = {
            frozenset(i.token_positions) for i in unfiltered[0].vmwes
        }
        filtered_keys = {frozenset(i.token_positions) for i in filtered[0].vmwes}
        assert filtered_keys <= unfiltered_keys
        t_unf = evaluate(gold, unfiltered).token
        t_fil = evaluate(gold, filtered).token
        assert t_fil.tp + t_fil.fp <= t_unf.tp + t_unf.fp
        m_unf = evaluate(gold, unfiltered).mwe
        m_fil = evaluate(gold, filtered).mwe
        assert m_fil.fp <= m_unf.fp


# ---------------------------------------------------------------------------
# equivalence with a frozenset-keyed reference


def reference_counts(gold_items, pred_items):
    """((token tp, fp, fn), (MWE tp, fp, fn)) from (sentence index, frozenset)
    items, the way the scorer once counted them."""
    def unions(items):
        union = {}
        for i, positions in items:
            union.setdefault(i, set()).update(positions)
        return union

    g_union, p_union = unions(gold_items), unions(pred_items)
    token_tp = sum(len(s & p_union.get(i, set())) for i, s in g_union.items())
    token = (token_tp, sum(map(len, p_union.values())) - token_tp,
             sum(map(len, g_union.values())) - token_tp)
    g_keys, p_keys = set(gold_items), set(pred_items)
    mwe_tp = len(g_keys & p_keys)
    return token, (mwe_tp, len(p_keys) - mwe_tp, len(g_keys) - mwe_tp)


def reference_items(corpus, category=None):
    return [(i, frozenset(inst.token_positions))
            for i, sentence in enumerate(corpus) for inst in sentence.vmwes
            if category is None or inst.category == category]


def reference_lemma_key(sentence, positions):
    tokens = [sentence.tokens[pos - 1] for pos in positions]
    return tuple(sorted((t.lemma if t.lemma != "_" else t.form).lower() for t in tokens))


def reference_seen_unseen(train, gold, pred):
    """(seen refs, unseen refs, seen counts, unseen counts)."""
    train_keys = {reference_lemma_key(s, inst.token_positions)
                  for s in train for inst in s.vmwes}
    side_of, refs, gold_items = {}, {True: [], False: []}, {True: [], False: []}
    for i, sentence in enumerate(gold):
        for inst in sentence.vmwes:
            seen = reference_lemma_key(sentence, inst.token_positions) in train_keys
            side_of[(i, frozenset(inst.token_positions))] = seen
            refs[seen].append((i, tuple(inst.token_positions), inst.category))
            gold_items[seen].append((i, frozenset(inst.token_positions)))
    pred_items = {True: [], False: []}
    for i, sentence in enumerate(pred):
        for inst in sentence.vmwes:
            key = (i, frozenset(inst.token_positions))
            if key in side_of:
                seen = side_of[key]
            else:
                seen = reference_lemma_key(sentence, inst.token_positions) in train_keys
            pred_items[seen].append(key)
    return (refs[True], refs[False],
            reference_counts(gold_items[True], pred_items[True]),
            reference_counts(gold_items[False], pred_items[False]))


def scores_of(counts):
    token, mwe = counts
    return BasisScores.from_counts(*token), BasisScores.from_counts(*mwe)


@st.composite
def hand_built_sentence(draw, n, categories):
    """n tokens over a tiny lemma alphabet (with "_" placeholders and mixed
    case, so lemma keys collide) and up to four instances whose positions are
    unsorted, may repeat and may overlap other instances."""
    tokens = tuple(
        Token(i, draw(st.sampled_from(["a", "B", "x"])),
              draw(st.sampled_from(["a", "A", "b", "_"])), "X", ())
        for i in range(1, n + 1)
    )
    instances = draw(st.lists(
        st.tuples(st.sampled_from(categories),
                  st.lists(st.integers(1, n), min_size=1, max_size=3)),
        max_size=4,
    ))
    vmwes = tuple(VmweInstance(k, cat, tuple(positions))
                  for k, (cat, positions) in enumerate(instances, start=1))
    return Sentence(tokens, vmwes)


@st.composite
def train_gold_pred(draw):
    """Gold and pred aligned sentence by sentence; category "B" occurs only
    in gold and "C" only in predictions."""
    lengths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    gold = [draw(hand_built_sentence(n, ["A", "B"])) for n in lengths]
    pred = [draw(hand_built_sentence(n, ["A", "C"])) for n in lengths]
    train = [draw(hand_built_sentence(n, ["A"]))
             for n in draw(st.lists(st.integers(1, 5), max_size=3))]
    return train, gold, pred


@settings(max_examples=300)
@given(train_gold_pred())
def test_scores_match_frozenset_reference(corpora):
    train, gold, pred = corpora
    token, mwe = scores_of(reference_counts(reference_items(gold), reference_items(pred)))
    report = evaluate(gold, pred)
    assert (report.token, report.mwe) == (token, mwe)
    assert evaluate(gold, pred).mwe == mwe
    categories = {inst.category for s in gold + pred for inst in s.vmwes}
    assert sorted(report.per_category) == sorted(categories)
    for cat in categories:
        expected = scores_of(reference_counts(reference_items(gold, cat),
                                              reference_items(pred, cat)))
        cat_report = report.per_category[cat]
        assert (cat_report.token, cat_report.mwe) == expected

    partition, seen, unseen = seen_unseen(train, gold, pred)
    seen_refs, unseen_refs, seen_counts, unseen_counts = reference_seen_unseen(
        train, gold, pred)
    assert partition.seen == tuple(seen_refs)
    assert partition.unseen == tuple(unseen_refs)
    assert (seen.token, seen.mwe) == scores_of(seen_counts)
    assert (unseen.token, unseen.mwe) == scores_of(unseen_counts)


# ---------------------------------------------------------------------------
# rendering


def test_percent_rendering():
    assert percent(0.5809) == "58.09"
    assert percent(1.0) == "100.00"
    assert percent(0.0) == "0.00"


def test_report_json_round_trip():
    gold = [sent(5, ("VID", [1, 2]), ("IRV", [4]))]
    pred = [sent(5, ("VID", [1, 2]))]
    report = evaluate(gold, pred)
    data = json.loads(json.dumps(report_to_dict(report)))
    assert data == report_to_dict(report)
    assert data["mwe"]["tp"] == 1
    assert set(data["per_category"]) == {"VID", "IRV"}


def test_format_report_is_aligned_table():
    gold = [sent(5, ("VID", [1, 2]))]
    report = evaluate(gold, gold)
    text = format_report(report, title="es")
    lines = text.strip("\n").split("\n")
    assert len(lines) == 4  # two header lines, total row, one category row
    assert "100.00" in lines[2]
    assert lines[3].startswith("VID")
    # columns align: every data row has the same length
    assert len(lines[2]) == len(lines[3])
