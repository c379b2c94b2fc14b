"""Tagger structure, loss oracles (closed-form uniform losses), gradient
checks through the whole network, and training-loop determinism."""

import hashlib
import math
import os
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mwetag.autodiff import DROPOUT, RECURRENT_DROPOUT, RngStream, Tape, backward, grad_check
from mwetag.corpus import Sentence, Token, VmweInstance, from_tags, to_tags
from mwetag.embed import Batch, EmbeddingTable, encode, pos_vocabulary
from mwetag.errors import NonFiniteError, TrainingDataError
from mwetag.evaluation import evaluate
from mwetag.synth import synthetic_corpus, synthetic_embeddings
from mwetag.tagger import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_CHUNK,
    ADAM_EPSILON,
    FILTER_WIDTHS,
    AdamOptimizer,
    TaggerConfig,
    build,
    build_for_corpus,
    forward,
    loss,
    predict,
    predict_corpus,
    train,
)


def make_sentence(words, instances=()):
    tokens = tuple(
        Token(i + 1, form, lemma, upos, ())
        for i, (form, lemma, upos) in enumerate(words)
    )
    vmwes = tuple(
        VmweInstance(k + 1, cat, tuple(positions))
        for k, (cat, positions) in enumerate(instances)
    )
    return Sentence(tokens, vmwes)


def toy_corpus():
    v = lambda f, l: (f, l, "VERB")
    n = lambda f, l: (f, l, "NOUN")
    d = lambda f: (f, f, "DET")
    return [
        make_sentence([v("takes", "take"), d("a"), n("shower", "shower")],
                      [("LVC.full", [1, 3])]),
        make_sentence([v("took", "take"), d("the"), n("walk", "walk")],
                      [("LVC.full", [1, 3])]),
        make_sentence([v("gave", "give"), d("a"), n("shower", "shower")]),
        make_sentence([v("gives", "give"), n("up", "up")], [("VPC.full", [1, 2])]),
        make_sentence([d("the"), n("walk", "walk"), v("ended", "end")]),
    ]


def toy_table(corpus, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    forms = sorted({t.form for s in corpus for t in s.tokens})
    return EmbeddingTable(dim, {f: rng.normal(size=dim) for f in forms})


def small_config(**overrides):
    base = dict(
        filters_per_width=4,
        lstm_hidden=5,
        epochs=3,
        batch_size=2,
        seed=11,
        head="softmax",
    )
    base.update(overrides)
    return TaggerConfig(**base)


# ---------------------------------------------------------------------------
# config


def test_config_defaults_match_contract():
    assert FILTER_WIDTHS == (2, 3)
    assert (DROPOUT, RECURRENT_DROPOUT) == (0.5, 0.2)
    assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON) == (0.9, 0.999, 1e-8)
    cfg = TaggerConfig()
    assert cfg.filters_per_width == 200
    assert cfg.lstm_hidden == 300
    assert cfg.epochs == 100
    assert cfg.learning_rate == 0.001
    assert cfg.batch_size == 32


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        TaggerConfig(lstm_hidden=0)
    with pytest.raises(ValueError):
        TaggerConfig(head="argmax")
    with pytest.raises(ValueError):
        TaggerConfig(epochs=0)
    with pytest.raises(ValueError, match="seed"):
        TaggerConfig(seed=-1)
    for rate in (0.0, -0.01, float("nan"), True, "0.1"):
        with pytest.raises(ValueError, match="learning_rate"):
            TaggerConfig(learning_rate=rate)
    for name in ("filters_per_width", "lstm_hidden", "epochs", "batch_size", "seed"):
        for value in (2.5, 2.0, True, "3"):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                TaggerConfig(**{name: value})


# ---------------------------------------------------------------------------
# build


def names(prefix, count):
    return tuple(f"{prefix}{i}" for i in range(count))


def test_build_default_shapes():
    model = build(TaggerConfig(), EmbeddingTable(300, {}), names("TAG", 5), names("POS", 17),
                  RngStream(3))
    assert model.params["conv2_kernels"].data.shape == (200, 2, 307)
    assert model.params["conv3_kernels"].data.shape == (200, 3, 307)
    assert model.params["lstm_fwd_wx"].data.shape == (417, 1200)  # 400 conv + 17 pos
    assert model.params["lstm_fwd_wh"].data.shape == (300, 1200)
    assert model.params["proj_w"].data.shape == (600, 5)
    assert model.params["trans"].data.shape == (5, 5)
    np.testing.assert_array_equal(model.params["trans"].data, np.zeros((5, 5)))


def test_build_same_seed_bit_identical():
    a, b = (
        build(TaggerConfig(seed=9), EmbeddingTable(20, {}), names("TAG", 4), names("POS", 3),
              RngStream(9))
        for _ in range(2)
    )
    assert a.params.keys() == b.params.keys()
    for name in a.params:
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)


def test_build_single_tag_projection():
    model = build(small_config(), EmbeddingTable(8, {}), ("O",), ("UNK", "X"), RngStream(0))
    assert model.params["proj_w"].data.shape == (10, 1)


def test_build_for_corpus_derives_vocabularies():
    corpus = toy_corpus()
    model = build_for_corpus(small_config(), corpus, toy_table(corpus))
    assert model.tag_vocab == ("B-LVC.full", "B-VPC.full", "I-LVC.full",
                               "I-VPC.full", "O")
    assert model.pos_vocab == tuple(pos_vocabulary(corpus))
    assert model.emb_dim == 8


# ---------------------------------------------------------------------------
# forward


def batch_of(sentences, model):
    return encode(sentences, model.embeddings, model.pos_vocab)


def test_forward_shapes_and_eval_purity():
    corpus = toy_corpus()
    model = build_for_corpus(small_config(), corpus, toy_table(corpus))
    enc = batch_of(corpus[:1], model)
    e1 = forward(model, enc)
    e2 = forward(model, enc)
    assert e1.shape == (1, 3, len(model.tag_vocab))
    np.testing.assert_array_equal(e1, e2)


def test_forward_train_mode_seeded_masks():
    corpus = toy_corpus()
    model = build_for_corpus(small_config(), corpus, toy_table(corpus))
    enc = batch_of(corpus[:1], model)
    a = forward(model, enc, RngStream(5))
    b = forward(model, enc, RngStream(5))
    c = forward(model, enc, RngStream(6))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_forward_rejects_wrong_input_width():
    corpus = toy_corpus()
    model = build_for_corpus(small_config(), corpus, toy_table(corpus))
    enc = batch_of(corpus[:1], model)
    bad = Batch(enc.word_input[..., :-1], enc.pos_input, enc.lengths)
    with pytest.raises(ValueError):
        forward(model, bad)


@pytest.mark.parametrize("head", ["softmax", "crf"],
                         ids=["softmax-pretrained", "crf-pretrained"])
@pytest.mark.parametrize("dropped", [False, True], ids=["eval", "train"])
def test_batched_loss_is_sum_of_sentence_losses(head, dropped):
    corpus = synthetic_corpus(sentences=5, seed=4)
    model = build_for_corpus(small_config(head=head), corpus, synthetic_embeddings(dim=8))
    golds = [to_tags(s) for s in corpus]
    assert len({len(g) for g in golds}) > 1  # the batch is padded
    params = list(model.params.values())

    def run(inputs, gold, rng):
        tape = Tape()
        value = loss(model, inputs, gold, rng if dropped else None, tape)
        backward(tape)
        return value

    # with dropout the batch must draw the masks its sentences draw one at a time
    batched = run(batch_of(corpus, model), golds, RngStream(5))
    batch_grads = [p.grad.copy() for p in params]
    draws = RngStream(5)
    total, summed = 0.0, [np.zeros_like(g) for g in batch_grads]
    for sentence, gold in zip(corpus, golds):
        total += run(batch_of([sentence], model), [gold], draws)
        for acc, p in zip(summed, params):
            acc += p.grad
    assert abs(batched - total) < 1e-12
    for g, acc in zip(batch_grads, summed):
        np.testing.assert_allclose(g, acc, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# loss oracles


def zero_projection(model):
    model.params["proj_w"].data[...] = 0.0
    model.params["proj_b"].data[...] = 0.0


def test_softmax_loss_uniform_is_ln_tag_count():
    corpus = toy_corpus()
    model = build_for_corpus(small_config(head="softmax"), corpus, toy_table(corpus))
    zero_projection(model)
    enc = batch_of(corpus[:1], model)
    value = loss(model, enc, [to_tags(corpus[0])])
    assert value == pytest.approx(np.log(len(model.tag_vocab)), abs=1e-12)


def test_crf_loss_zeroed_single_token_is_ln2():
    sentence = make_sentence([("up", "up", "ADV")], [("VPC.full", [1])])
    # vocabulary has exactly two labels: B-VPC.full and O
    corpus = [sentence, make_sentence([("x", "x", "X")])]
    model = build_for_corpus(small_config(head="crf"), corpus, toy_table(corpus))
    assert len(model.tag_vocab) == 2
    zero_projection(model)
    enc = batch_of(corpus[:1], model)
    value = loss(model, enc, [to_tags(sentence)])
    assert value == pytest.approx(np.log(2.0), abs=1e-12)


def test_loss_rejects_unknown_label_and_bad_length():
    corpus = toy_corpus()
    model = build_for_corpus(small_config(), corpus, toy_table(corpus))
    enc = batch_of(corpus[:1], model)
    with pytest.raises(TrainingDataError):
        loss(model, enc, [["O", "B-NOPE", "O"]])
    with pytest.raises(TrainingDataError):
        loss(model, enc, [["O", "O"]])


# ---------------------------------------------------------------------------
# gradients through the full network


def tiny_model(head):
    cfg = TaggerConfig(
        filters_per_width=3,
        lstm_hidden=4,
        epochs=1,
        batch_size=1,
        seed=21,
        head=head,
    )
    return build(cfg, EmbeddingTable(5, {}), names("TAG", 3), names("POS", 2), RngStream(21))


def tiny_encoding(seed=2):
    rng = np.random.default_rng(seed)
    pos = np.zeros((1, 3, 2))
    pos[0, np.arange(3), [0, 1, 0]] = 1.0
    return Batch(rng.normal(size=(1, 3, 5 + 7)), pos, np.array([3]))


@pytest.mark.parametrize("head", ["softmax", "crf"])
def test_grad_check_full_loss(head):
    model = tiny_model(head)
    enc = tiny_encoding()
    gold = [["TAG0", "TAG2", "TAG1"]]

    def full_loss(tape):
        return loss(model, enc, gold, tape=tape)

    assert grad_check(full_loss, list(model.params.values())) < 1e-4


# sha256 of model.grad and of the loss after one training batch, as the
# general-tape implementation computed them: the stage chain writes every
# gradient with the same operations in the same order, so the same bits
ONE_STEP_DIGESTS = {
    "softmax": ("0ed9d1ec0bec18747b6d0fcd495755e47aeeb0c39c5a8c04541baf4902f54751",
                "f39a4f68ee6375c9a7f9cfc0201c30cd5ee0bd4a3023e77b80dabb6d7eb131a0"),
    "crf": ("f4dbb282a46fe1e351b4bd15b039e6b70e7bf4babd4d43ade896f4dd4a97a4ac",
            "2d828e507fa2e649de9310fcc773155d62957f50958468d7d900a7d8df605251"),
}


@pytest.mark.parametrize("head", ["softmax", "crf"])
def test_one_step_gradient_bits_match_parent(head):
    corpus = synthetic_corpus(sentences=4, seed=4)
    config = TaggerConfig(filters_per_width=4, lstm_hidden=5, epochs=1, batch_size=4,
                          seed=11, head=head)
    model = build_for_corpus(config, corpus, synthetic_embeddings(dim=8))
    batch = batch_of(corpus, model)
    model.grad.fill(np.nan)  # the backward pass must write every slot
    tape = Tape()
    value = loss(model, batch, [to_tags(s) for s in corpus], RngStream(5), tape)
    backward(tape)
    digests = (hashlib.sha256(model.grad.tobytes()).hexdigest(),
               hashlib.sha256(np.float64(value).tobytes()).hexdigest())
    assert digests == ONE_STEP_DIGESTS[head]


# ---------------------------------------------------------------------------
# prediction


def test_predict_forced_label_is_constant():
    corpus = toy_corpus()
    for head in ("softmax", "crf"):
        model = build_for_corpus(small_config(head=head), corpus, toy_table(corpus))
        zero_projection(model)
        model.params["proj_b"].data[model.tag_index["O"]] = 5.0
        assert predict(model, corpus[:1]) == [["O", "O", "O"]]


def test_predict_deterministic():
    corpus = toy_corpus()
    model = build_for_corpus(small_config(head="crf"), corpus, toy_table(corpus))
    assert predict(model, corpus) == predict(model, corpus)


def test_predict_corpus_round_trips_shapes():
    corpus = toy_corpus()
    model = build_for_corpus(small_config(), corpus, toy_table(corpus))
    out = predict_corpus(model, corpus)
    assert len(out) == len(corpus)
    for orig, pred in zip(corpus, out):
        assert len(pred.tokens) == len(orig.tokens)


@pytest.mark.parametrize("head", ["softmax", "crf"])
def test_tags_do_not_depend_on_batch_neighbours(head):
    # part-trained, so that predictions are neither empty nor perfect
    corpus = synthetic_corpus()
    config = TaggerConfig(filters_per_width=16, lstm_hidden=24, head=head, epochs=4,
                          batch_size=8, seed=5, learning_rate=0.01)
    model, _ = train(build_for_corpus(config, corpus, synthetic_embeddings()), corpus)
    alone = [predict(model, [sentence])[0] for sentence in corpus]
    assert 0 < sum(tag != "O" for tags in alone for tag in tags) < 200
    for apply_filter in (True, False):
        full = predict_corpus(model, corpus, apply_filter=apply_filter)
        assert full == [
            from_tags(tags, s, apply_filter=apply_filter) for tags, s in zip(alone, corpus)
        ]
        for k in (1, 8, 13):
            assert predict_corpus(model, corpus[:k], apply_filter=apply_filter) == full[:k]
        for size in (1, 7, 32):
            resized = replace(model, config=replace(model.config, batch_size=size))
            assert predict_corpus(resized, corpus, apply_filter=apply_filter) == full


# ---------------------------------------------------------------------------
# training


def test_loss_decreases_on_toy_corpus():
    corpus = toy_corpus()
    cfg = small_config(epochs=10)
    model = build_for_corpus(cfg, corpus, toy_table(corpus))
    _, report = train(model, corpus)
    assert len(report.losses) == 10
    assert report.losses[-1] < report.losses[0]


def test_training_is_seed_deterministic():
    corpus = toy_corpus()
    reports = []
    for _ in range(2):
        model = build_for_corpus(small_config(epochs=4), corpus, toy_table(corpus))
        _, report = train(model, corpus)
        reports.append(report)
    assert reports[0].losses == reports[1].losses


def test_dev_selection_maximizes_mwe_f1_ties_earlier():
    corpus = toy_corpus()
    cfg = small_config(epochs=6)
    model = build_for_corpus(cfg, corpus, toy_table(corpus))
    best, report = train(model, corpus, dev_corpus=corpus)
    assert len(report.dev_mwe_f1) == 6
    assert report.selected_epoch == int(np.argmax(report.dev_mwe_f1))
    assert best is not model


def test_without_dev_corpus_train_returns_the_trained_model():
    corpus = toy_corpus()
    model = build_for_corpus(small_config(epochs=2), corpus, toy_table(corpus))
    best, report = train(model, corpus)
    assert best is model
    assert report.selected_epoch == 1


def test_train_encodes_each_batch_when_it_runs(monkeypatch):
    import mwetag.tagger as tagger_module

    train_corpus, dev = toy_corpus(), toy_corpus()[1:]
    model = build_for_corpus(small_config(epochs=3), train_corpus, toy_table(train_corpus))
    calls = []

    def counting(sentences, *args):
        calls.append(list(sentences))
        return encode(sentences, *args)

    monkeypatch.setattr(tagger_module, "encode", counting)
    train(model, train_corpus, dev_corpus=dev)
    # train indexes 0-4, dev 5-8; batch_size 2: per epoch three train batches
    # in corpus order that hold each train sentence once, then dev in order
    index = {id(s): i for i, s in enumerate(train_corpus + dev)}
    batches = [[index[id(s)] for s in sentences] for sentences in calls]
    assert len(batches) == 3 * 5
    for lo in range(0, len(batches), 5):
        epoch = batches[lo : lo + 3]
        assert all(1 <= len(b) <= 2 and b == sorted(b) for b in epoch)
        assert sorted(sum(epoch, [])) == [0, 1, 2, 3, 4]
        assert batches[lo + 3 : lo + 5] == [[5, 6], [7, 8]]


def test_dev_labels_are_built_once(monkeypatch):
    import mwetag.tagger as tagger_module

    train_corpus, dev = toy_corpus(), toy_corpus()[1:]
    model = build_for_corpus(small_config(epochs=3), train_corpus, toy_table(train_corpus))
    calls = []

    def counting(sentence):
        calls.append(sentence)
        return to_tags(sentence)

    monkeypatch.setattr(tagger_module, "to_tags", counting)
    best, report = train(model, train_corpus, dev_corpus=dev)
    assert len(calls) == len(train_corpus) + len(dev)
    # the selected epoch's scores are those of labels built afresh
    selected = report.selected_epoch
    assert report.dev_mwe_f1[selected] == max(report.dev_mwe_f1)
    assert evaluate(dev, predict_corpus(best, dev)).mwe.f1 == report.dev_mwe_f1[selected]
    predicted = predict(best, dev)
    pairs = [(a, b) for tags, s in zip(predicted, dev) for a, b in zip(tags, to_tags(s))]
    accuracy = sum(a == b for a, b in pairs) / len(pairs)
    assert report.dev_token_accuracy[selected] == accuracy


def test_empty_dev_corpus_rejected():
    corpus = toy_corpus()
    model = build_for_corpus(small_config(), corpus, toy_table(corpus))
    with pytest.raises(TrainingDataError, match="dev corpus is empty"):
        train(model, corpus, dev_corpus=[])


def test_no_dev_selects_last_epoch():
    corpus = toy_corpus()
    model = build_for_corpus(small_config(epochs=3), corpus, toy_table(corpus))
    _, report = train(model, corpus)
    assert report.selected_epoch == 2
    assert report.dev_mwe_f1 == []


def test_training_names_the_batch_whose_scores_overflow():
    corpus = toy_corpus()
    model = build_for_corpus(small_config(), corpus, toy_table(corpus))
    for name in ("proj_w", "proj_b"):
        model.params[name].data[...] = 1.7e308
    with pytest.raises(NonFiniteError, match="epoch 1, batch 1: emission scores"):
        train(model, corpus)


def test_empty_corpus_rejected():
    corpus = toy_corpus()
    model = build_for_corpus(small_config(), corpus, toy_table(corpus))
    with pytest.raises(TrainingDataError):
        train(model, [])


def test_pretrained_embeddings_never_move():
    corpus = toy_corpus()
    table = toy_table(corpus)
    frozen = {f: np.array(v, copy=True) for f, v in table.entries.items()}
    model = build_for_corpus(small_config(epochs=3), corpus, table)
    train(model, corpus)
    assert model.embeddings is table
    for form, vector in frozen.items():
        np.testing.assert_array_equal(table.entries[form], vector)


def test_full_batch_run_ignores_shuffle_order(monkeypatch):
    corpus = toy_corpus()
    cfg = small_config(epochs=3, batch_size=len(corpus))

    model = build_for_corpus(cfg, corpus, toy_table(corpus))
    _, baseline = train(model, corpus)

    import mwetag.autodiff as autodiff_module

    original = autodiff_module.RngStream.permutation

    def scrambled(self, n):
        return original(self, n)[::-1].copy()

    monkeypatch.setattr(autodiff_module.RngStream, "permutation", scrambled)
    model2 = build_for_corpus(cfg, corpus, toy_table(corpus))
    _, scrambled_report = train(model2, corpus)
    assert baseline.losses == scrambled_report.losses


# ---------------------------------------------------------------------------
# optimizer


# these all fit in one ADAM_CHUNK; CHUNKED_SHAPES adds one that spans a
# chunk boundary, so the step splits it
ADAM_SHAPES = [(), (1,), (7,), (3, 4), (2, 3, 5), (40, 30)]
CHUNKED_SHAPES = ADAM_SHAPES + [(150, 150)]


def adam_views(vector, shapes):
    """One view per entry of shapes of a flat vector, laid out in order the
    way a model lays out its parameters."""
    views, end = [], 0
    for shape in shapes:
        start, end = end, end + math.prod(shape)
        views.append(vector[start:end].reshape(shape))
    return views


def test_adam_step_is_bit_exact_against_the_textbook_expression():
    rng = np.random.default_rng(4)
    size = sum(math.prod(shape) for shape in CHUNKED_SHAPES)
    data, grad = rng.normal(size=size), np.zeros(size)
    params, grads = adam_views(data, CHUNKED_SHAPES), adam_views(grad, CHUNKED_SHAPES)
    lr = 0.01
    optimizer = AdamOptimizer(data, grad, lr)
    ref_p = [p.copy() for p in params]
    ref_m = [np.zeros(shape) for shape in CHUNKED_SHAPES]
    ref_v = [np.zeros(shape) for shape in CHUNKED_SHAPES]
    for t in range(1, 4):
        for k, p in enumerate(params):
            g = rng.normal(scale=10.0 ** (k - 3), size=p.shape)
            grads[k][...] = g
            # the order of operations the in-place step must keep
            ref_m[k] = ADAM_BETA1 * ref_m[k] + (1.0 - ADAM_BETA1) * g
            ref_v[k] = ADAM_BETA2 * ref_v[k] + (1.0 - ADAM_BETA2) * g * g
            m_hat = ref_m[k] / (1.0 - ADAM_BETA1**t)
            v_hat = ref_v[k] / (1.0 - ADAM_BETA2**t)
            ref_p[k] = ref_p[k] - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
        optimizer.step()
        m = adam_views(optimizer.m, CHUNKED_SHAPES)
        v = adam_views(optimizer.v, CHUNKED_SHAPES)
        for k, p in enumerate(params):
            assert np.array_equal(m[k], ref_m[k]), (t, CHUNKED_SHAPES[k])
            assert np.array_equal(v[k], ref_v[k]), (t, CHUNKED_SHAPES[k])
            assert np.array_equal(p, ref_p[k]), (t, CHUNKED_SHAPES[k])


def warm_adam_step(shapes):
    """The flat data vector and the tracemalloc peak of a second Adam step
    over parameters of the given shapes."""
    rng = np.random.default_rng(5)
    size = sum(math.prod(shape) for shape in shapes)
    data, grad = rng.normal(size=size), rng.normal(size=size)
    optimizer = AdamOptimizer(data, grad, 0.001)
    optimizer.step()
    tracemalloc.start()
    try:
        optimizer.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return data, peak


def count_thread_starts(monkeypatch):
    """The list each started Thread is appended to."""
    starts = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: (starts.append(thread), start(thread)))
    return starts


def allow_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)


def forbid_threads(monkeypatch):
    class NoThread:
        def __init__(self, *args, **kwargs):
            raise AssertionError("no thread may start here")

    monkeypatch.setattr(threading, "Thread", NoThread)


def test_warm_adam_step_allocates_less_than_the_largest_parameter(monkeypatch):
    allow_cpus(monkeypatch, {0, 1})
    data, peak = warm_adam_step(ADAM_SHAPES)
    largest = max(p.nbytes for p in adam_views(data, ADAM_SHAPES))
    assert peak < largest


def test_warm_adam_step_over_several_chunks_allocates_less_than_a_chunk(monkeypatch):
    # a ufunc without out= would allocate a whole chunk-sized temporary; the
    # second thread's half allocates none either
    allow_cpus(monkeypatch, {0, 1})
    starts = count_thread_starts(monkeypatch)
    data, peak = warm_adam_step(CHUNKED_SHAPES)
    assert data.size > ADAM_CHUNK
    assert len(starts) == 2
    assert peak < ADAM_CHUNK * data.itemsize


def adam_steps(size, steps=3):
    """data, m and v after the given number of Adam steps over a seeded
    vector of the given size, with gradients of mixed scales."""
    rng = np.random.default_rng(6)
    data, grad = rng.normal(size=size), np.zeros(size)
    optimizer = AdamOptimizer(data, grad, 0.01)
    for _ in range(steps):
        grad[...] = rng.normal(size=size) * 10.0 ** rng.integers(-4, 2, size=size)
        optimizer.step()
    return data, optimizer.m, optimizer.v


# one value, a chunk less one, exactly one chunk, one value over, and an
# odd chunk count (5) whose last chunk is partial
ADAM_SIZES = [1, ADAM_CHUNK - 1, ADAM_CHUNK, ADAM_CHUNK + 1, 4 * ADAM_CHUNK + 100]


@pytest.mark.parametrize("size", ADAM_SIZES)
def test_threaded_adam_steps_match_inline_bits(monkeypatch, size):
    allow_cpus(monkeypatch, {0})
    with monkeypatch.context() as patch:
        forbid_threads(patch)
        inline = adam_steps(size)
    allow_cpus(monkeypatch, {0, 1})
    if size <= ADAM_CHUNK:  # one chunk: no thread on two CPUs either
        forbid_threads(monkeypatch)
        threaded = adam_steps(size)
    else:
        starts = count_thread_starts(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the two threads as finely as it can
        try:
            threaded = adam_steps(size)
        finally:
            sys.setswitchinterval(interval)
        assert len(starts) == 3
    for got, expect in zip(threaded, inline):
        np.testing.assert_array_equal(got, expect)


def test_adam_step_runs_inline_when_no_thread_can_be_started(monkeypatch):
    size = 3 * ADAM_CHUNK + 7
    allow_cpus(monkeypatch, {0, 1})
    threaded = adam_steps(size)

    def start(thread):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", start)
    for got, expect in zip(adam_steps(size), threaded):
        np.testing.assert_array_equal(got, expect)


def test_adam_step_raises_an_overflow_in_the_second_threads_half(monkeypatch):
    # three chunks: this thread steps the first, the second thread the rest
    size = 3 * ADAM_CHUNK
    data, grad = np.zeros(size), np.ones(size)
    grad[-1] = 1e200  # (1 - b2) * g * g overflows in the last chunk only
    allow_cpus(monkeypatch, {0, 1})
    starts = count_thread_starts(monkeypatch)
    optimizer = AdamOptimizer(data, grad, 0.001)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        optimizer.step()
    assert len(starts) == 1
    assert np.all(data[:ADAM_CHUNK] < 0.0)  # this thread's half was stepped


def test_two_cpus_train_the_same_bits_as_one(monkeypatch):
    # demo size: 14,760 values, in 15 chunks of 1,024 (the last partial) so
    # the Adam step splits them too
    monkeypatch.setattr("mwetag.tagger.ADAM_CHUNK", 1_024)
    corpus = synthetic_corpus()
    config = TaggerConfig(filters_per_width=16, lstm_hidden=24, head="crf",
                          epochs=2, batch_size=8, seed=5)
    table = synthetic_embeddings()

    def trained(cpus):
        allow_cpus(monkeypatch, cpus)
        model = build_for_corpus(config, corpus, embeddings=table)
        train(model, corpus)
        return model.data

    with monkeypatch.context() as patch:
        forbid_threads(patch)
        one = trained({0})
    starts = count_thread_starts(monkeypatch)
    two = trained({0, 1})
    steps = 2 * math.ceil(len(corpus) / 8)
    assert one.size > 2 * 1_024
    assert len(starts) == 3 * steps  # per batch: bilstm forward, its backprop, Adam
    np.testing.assert_array_equal(two, one)
