"""Acceptance gate: one test per shipping criterion, each with its stated
tolerance and runtime budget. The conftest hook turns these into a
per-criterion status block at the end of the run."""

import io
import os
import time

import numpy as np
import pytest

from mwetag.baseline import (
    SYMBOLIC_TEMPLATE_COUNT,
    BaselineTrainOptions,
    _dense_rows,
    extract_features,
    tag_baseline,
    train_baseline,
)
from mwetag.chaincrf import brute_force, log_partition, score_path, viterbi
from mwetag.checks import SUITE_TOLERANCE, gradient_suite
from mwetag.cli import run
from mwetag.corpus import (
    Sentence,
    VmweInstance,
    filter_orphans,
    from_tags,
    parse_cupt,
    read_cupt,
    to_tags,
    write_cupt,
)
from mwetag.evaluation import evaluate, f1, seen_unseen
from mwetag.serialize import save_model
from mwetag.synth import synthetic_corpus, synthetic_embeddings, vocabulary
from mwetag.tagger import TaggerConfig, build_for_corpus, predict, predict_corpus, train

from test_corpus import CANONICAL, make_sentence


# ---------------------------------------------------------------------------
# 1. harmonic-mean identities


def test_criterion_1_metric_identity():
    assert f1(0.6608, 0.5182) == pytest.approx(0.5809, abs=1e-4)
    assert f1(0.7622, 0.5427) == pytest.approx(0.6340, abs=1e-4)


# ---------------------------------------------------------------------------
# 2. chain CRF vs enumeration


def test_criterion_2_crf_matches_enumeration():
    started = time.monotonic()
    rng = np.random.default_rng(20240)
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        t_count = int(rng.integers(1, 5))
        crf = (
            rng.uniform(-2.0, 2.0, (n, t_count)),
            rng.uniform(-2.0, 2.0, (t_count, t_count)),
            rng.uniform(-2.0, 2.0, t_count),
            rng.uniform(-2.0, 2.0, t_count),
        )
        _, oracle_best, oracle_log_z = brute_force(*crf)
        block = (crf[0][None], *crf[1:])  # the B = 1 block of the sentence
        (path,), (score,) = viterbi(*block, [n])
        assert abs(score - oracle_best) < 1e-8
        assert abs(score_path(*block, [path], [n])[0] - oracle_best) < 1e-8
        assert abs(log_partition(*block, [n])[0] - oracle_log_z) < 1e-8
    assert time.monotonic() - started < 10.0


# ---------------------------------------------------------------------------
# 3. gradient suite


def test_criterion_3_gradient_suite():
    started = time.monotonic()
    results = gradient_suite(seed=0)  # five seeded rounds internally
    for name, err in results.items():
        assert err < SUITE_TOLERANCE, f"{name}: {err:.3e}"
    assert time.monotonic() - started < 60.0


# ---------------------------------------------------------------------------
# 4. synthetic overfit, both heads


def _token_accuracy(model, corpus):
    right = total = 0
    tagged = predict(model, corpus)
    for tags, sentence in zip(tagged, corpus):
        gold = to_tags(sentence)
        right += sum(a == b for a, b in zip(tags, gold))
        total += len(gold)
    return right / total


def test_criterion_4_synthetic_overfit(tmp_path):
    started = time.monotonic()
    corpus = synthetic_corpus()
    table = synthetic_embeddings()
    assert len(corpus) == 50
    assert 90 <= len({t.form for s in corpus for t in s.tokens}) <= 110
    instances = [v for s in corpus for v in s.vmwes]
    gaps = [
        v for v in instances
        if any(b - a > 1 for a, b in zip(v.token_positions, v.token_positions[1:]))
    ]
    assert len({v.category for v in instances}) == 2
    assert len(gaps) / len(instances) == pytest.approx(0.10, abs=0.02)

    for head in ("softmax", "crf"):
        config = TaggerConfig(filters_per_width=16, lstm_hidden=24, head=head,
                              epochs=100, batch_size=8, seed=5)
        model = build_for_corpus(config, corpus, embeddings=table)
        best, _ = train(model, corpus)
        accuracy = _token_accuracy(best, corpus)
        report = evaluate(corpus, predict_corpus(best, corpus))
        assert accuracy >= 0.99, f"{head}: accuracy {accuracy:.4f}"
        assert report.mwe.f1 >= 0.95, f"{head}: MWE F1 {report.mwe.f1:.4f}"

    # same seed, same bytes: the whole model file, every parameter included
    snapshots = []
    for run_index in range(2):
        config = TaggerConfig(filters_per_width=16, lstm_hidden=24, head="crf",
                              epochs=3, batch_size=8, seed=5)
        model = build_for_corpus(config, corpus, embeddings=table)
        best, _ = train(model, corpus)
        path = tmp_path / f"run{run_index}.model"
        save_model(best, str(path))
        snapshots.append(path.read_bytes())
    assert snapshots[0] == snapshots[1]
    assert time.monotonic() - started < 300.0


# ---------------------------------------------------------------------------
# 5. round-trips


def _random_noninterleaved_sentence(rng) -> Sentence:
    """Instances of one category never interleave; different categories may
    overlap freely (the only layout the labelling encodes losslessly)."""
    n = int(rng.integers(1, 13))
    instances = []
    for category in ("VID", "LVC.full", "IRV"):
        cursor = 1
        while cursor <= n and rng.uniform() < 0.5:
            size = int(rng.integers(1, 4))
            window = list(range(cursor, min(n, cursor + 4) + 1))
            if len(window) < size:
                break
            positions = sorted(rng.permutation(window)[:size].tolist())
            instances.append((category, tuple(positions)))
            cursor = positions[-1] + 1
    instances.sort(key=lambda item: item[1][0])
    vmwes = [
        VmweInstance(i, category, positions)
        for i, (category, positions) in enumerate(instances, start=1)
    ]
    return make_sentence([f"w{i}" for i in range(n)], vmwes)


def test_criterion_5_round_trips():
    started = time.monotonic()
    # canonical file, byte for byte
    assert write_cupt(parse_cupt(io.StringIO(CANONICAL))) == CANONICAL

    rng = np.random.default_rng(55)
    overlapping = 0
    for _ in range(200):
        sentence = _random_noninterleaved_sentence(rng)
        occupied: dict[int, int] = {}
        for v in sentence.vmwes:
            for position in v.token_positions:
                occupied[position] = occupied.get(position, 0) + 1
        overlapping += any(count > 1 for count in occupied.values())
        rebuilt = from_tags(to_tags(sentence), sentence, apply_filter=False)
        assert {(v.category, v.token_positions) for v in rebuilt.vmwes} == {
            (v.category, v.token_positions) for v in sentence.vmwes
        }
    assert overlapping >= 10  # the sample genuinely exercises overlaps

    atoms = ["O", "B-VID", "I-VID", "B-LVC.full", "I-LVC.full",
             "B-VID;I-LVC.full", "I-VID;I-LVC.full", "B-VID;B-LVC.full"]
    for _ in range(1000):
        tags = [atoms[int(rng.integers(0, len(atoms)))]
                for _ in range(int(rng.integers(1, 13)))]
        once = filter_orphans(tags)
        assert filter_orphans(once) == once
    assert time.monotonic() - started < 5.0


# ---------------------------------------------------------------------------
# 6. filtering ablation direction


def test_criterion_6_filtering_ablation_direction():
    forms = [f"w{i}" for i in range(8)]
    gold = make_sentence(forms, [VmweInstance(1, "VID", (2, 3)),
                                 VmweInstance(2, "IRV", (6, 7))])
    skeleton = make_sentence(forms)
    # correct VID plus an orphan IRV continuation sitting on a gold token
    tags = ["O", "B-VID", "I-VID", "O", "O", "I-IRV", "O", "O"]
    filtered = [from_tags(tags, skeleton, apply_filter=True)]
    unfiltered = [from_tags(tags, skeleton, apply_filter=False)]

    mwe_filtered = evaluate([gold], filtered).mwe
    mwe_unfiltered = evaluate([gold], unfiltered).mwe
    assert mwe_filtered.precision > mwe_unfiltered.precision
    assert mwe_filtered.recall == mwe_unfiltered.recall

    token_filtered = evaluate([gold], filtered).token
    token_unfiltered = evaluate([gold], unfiltered).token
    assert token_filtered.recall < token_unfiltered.recall


# ---------------------------------------------------------------------------
# 7. baseline feature contract


def test_criterion_7_baseline_features_and_overfit():
    started = time.monotonic()
    fixtures = synthetic_corpus(sentences=10, seed=77)
    table = synthetic_embeddings(dim=6, seed=2)
    for sentence in fixtures:
        for i in range(len(sentence.tokens)):
            symbolic = extract_features(sentence, i)
            assert type(symbolic) is list and len(symbolic) == SYMBOLIC_TEMPLATE_COUNT
        dense = _dense_rows(sentence, table)
        assert dense.shape == (len(sentence.tokens), 5 * table.dimension)

    target = fixtures[0]
    model = train_baseline(
        [target], options=BaselineTrainOptions(max_iterations=200)
    )
    assert tag_baseline(model, target) == to_tags(target)
    assert time.monotonic() - started < 30.0


# ---------------------------------------------------------------------------
# 8. end-to-end determinism


def test_criterion_8_end_to_end_determinism(tmp_path):
    corpus = synthetic_corpus(sentences=12, seed=3)
    train_file = tmp_path / "train.cupt"
    train_file.write_text(write_cupt(corpus), encoding="utf-8")
    table = synthetic_embeddings(dim=8, seed=1)
    vec_file = tmp_path / "vecs.vec"
    with open(vec_file, "w") as handle:
        for word in vocabulary():
            values = " ".join(repr(float(v)) for v in table.entries[word])
            handle.write(f"{word} {values}\n")

    artifacts = []
    for attempt in ("first", "second"):
        base = tmp_path / attempt
        base.mkdir()
        model = base / "model.json"
        pred = base / "pred.cupt"
        report = base / "report.json"
        assert run(["train", "--train", str(train_file),
                    "--embeddings", str(vec_file), "--model", str(model),
                    "--seed", "9", "--epochs", "2"]) == 0
        assert run(["tag", "--model", str(model), "--input", str(train_file),
                    "--output", str(pred), "--embeddings", str(vec_file)]) == 0
        assert run(["eval", "--gold", str(train_file), "--pred", str(pred),
                    "--report", str(report)]) == 0
        artifacts.append((
            model.read_bytes(),
            (base / "model.json.train.json").read_bytes(),
            pred.read_bytes(),
            report.read_bytes(),
        ))
    assert artifacts[0] == artifacts[1]


# ---------------------------------------------------------------------------
# 9. optional: real-corpus seen/unseen proportion


def test_criterion_9_real_corpus_split_optional():
    train_path = os.environ.get("MWETAG_ES_TRAIN")
    test_path = os.environ.get("MWETAG_ES_TEST")
    if not train_path or not test_path:
        pytest.skip("set MWETAG_ES_TRAIN and MWETAG_ES_TEST to run")
    train_corpus = read_cupt(train_path)
    test_corpus = read_cupt(test_path)
    partition, _, _ = seen_unseen(train_corpus, test_corpus, test_corpus)
    assert partition.seen_fraction == pytest.approx(0.59, abs=0.02)
