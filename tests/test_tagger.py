"""Tagger structure, loss oracles (closed-form uniform losses), gradient
checks through the whole network, and training-loop determinism."""

from dataclasses import replace

import numpy as np
import pytest

from mwetag.autodiff import RngStream, Tape, backward, grad_check
from mwetag.corpus import Sentence, Token, VmweInstance, from_tags, to_tags
from mwetag.embed import EmbeddingTable, SentenceEncoding, encode, pad, pos_vocabulary
from mwetag.errors import TrainingDataError
from mwetag.synth import synthetic_corpus, synthetic_embeddings
from mwetag.tagger import (
    OptimizerConfig,
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
    cfg = TaggerConfig()
    assert cfg.filter_widths == (2, 3)
    assert cfg.filters_per_width == 200
    assert cfg.lstm_hidden == 300
    assert cfg.dropout == 0.5
    assert cfg.recurrent_dropout == 0.2
    assert cfg.conv_activation == "relu"
    assert cfg.epochs == 100
    assert cfg.embedding_mode == "pretrained"
    assert cfg.optimizer == OptimizerConfig(0.001, 0.9, 0.999, 1e-8)
    assert cfg.batch_size == 32


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        TaggerConfig(dropout=1.0)
    with pytest.raises(ValueError):
        TaggerConfig(recurrent_dropout=-0.1)
    with pytest.raises(ValueError):
        TaggerConfig(head="argmax")
    with pytest.raises(ValueError):
        TaggerConfig(epochs=0)
    with pytest.raises(ValueError):
        TaggerConfig(filter_widths=())
    with pytest.raises(ValueError):
        TaggerConfig(embedding_mode="frozen")
    with pytest.raises(ValueError):
        TaggerConfig(optimizer=OptimizerConfig(beta1=1.0))


# ---------------------------------------------------------------------------
# build


def test_build_default_shapes():
    model = build(TaggerConfig(), 300, 17, 5, RngStream(3))
    assert model.params["conv2_kernels"].shape == (200, 2, 307)
    assert model.params["conv3_kernels"].shape == (200, 3, 307)
    assert model.params["lstm_fwd_wx"].shape == (417, 1200)  # 400 conv + 17 pos
    assert model.params["lstm_fwd_wh"].shape == (300, 1200)
    assert model.params["proj_w"].shape == (600, 5)
    assert model.params["trans"].shape == (5, 5)
    np.testing.assert_array_equal(model.params["trans"].data, np.zeros((5, 5)))


def test_build_same_seed_bit_identical():
    a = build(TaggerConfig(seed=9), 20, 3, 4, RngStream(9))
    b = build(TaggerConfig(seed=9), 20, 3, 4, RngStream(9))
    assert a.params.keys() == b.params.keys()
    for name in a.params:
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)


def test_build_single_tag_projection():
    model = build(small_config(), 8, 2, 1, RngStream(0))
    assert model.params["proj_w"].shape == (10, 1)


def test_build_random_trainable_needs_word_vocab():
    cfg = small_config(embedding_mode="random_trainable")
    with pytest.raises(ValueError):
        build(cfg, 8, 2, 3, RngStream(0))
    with pytest.raises(ValueError):
        build(cfg, 8, 2, 3, RngStream(0), word_vocab=("a", "b"))
    model = build(cfg, 8, 2, 3, RngStream(0), word_vocab=("<unk>", "a", "b"))
    assert model.params["word_table"].shape == (3, 8)


def test_build_for_corpus_derives_vocabularies():
    corpus = toy_corpus()
    model = build_for_corpus(small_config(), corpus, toy_table(corpus))
    assert model.tag_vocab == ("B-LVC.full", "B-VPC.full", "I-LVC.full",
                               "I-VPC.full", "O")
    assert model.pos_vocab == tuple(pos_vocabulary(corpus))
    assert model.emb_dim == 8


# ---------------------------------------------------------------------------
# forward


def encodings_for(corpus, model):
    return [encode(s, model.embeddings, list(model.pos_vocab)) for s in corpus]


def test_forward_shapes_and_eval_purity():
    corpus = toy_corpus()
    model = build_for_corpus(small_config(), corpus, toy_table(corpus))
    enc = encodings_for(corpus, model)[0]
    e1 = forward(model, enc)
    e2 = forward(model, enc)
    assert e1.data.shape == (3, model.label_count)
    np.testing.assert_array_equal(e1.data, e2.data)


def test_forward_train_mode_seeded_masks():
    corpus = toy_corpus()
    model = build_for_corpus(small_config(), corpus, toy_table(corpus))
    enc = encodings_for(corpus, model)[0]
    a = forward(model, enc, mode="train", rng=RngStream(5)).data
    b = forward(model, enc, mode="train", rng=RngStream(5)).data
    c = forward(model, enc, mode="train", rng=RngStream(6)).data
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_forward_rejects_wrong_input_width():
    corpus = toy_corpus()
    model = build_for_corpus(small_config(), corpus, toy_table(corpus))
    enc = encodings_for(corpus, model)[0]
    bad = SentenceEncoding(
        word_input=enc.word_input[:, :-1], pos_input=enc.pos_input, forms=enc.forms
    )
    with pytest.raises(ValueError):
        forward(model, bad)


@pytest.mark.parametrize(
    "head, embedding_mode",
    [("softmax", "pretrained"), ("crf", "pretrained"), ("crf", "random_trainable")],
)
@pytest.mark.parametrize("mode", ["eval", "train"])
def test_batched_loss_is_sum_of_sentence_losses(head, embedding_mode, mode):
    corpus = synthetic_corpus(sentences=5, seed=4)
    config = small_config(head=head, embedding_mode=embedding_mode)
    model = build_for_corpus(config, corpus, synthetic_embeddings(dim=8))
    encodings = encodings_for(corpus, model)
    golds = [to_tags(s) for s in corpus]
    assert len({len(g) for g in golds}) > 1  # the batch is padded
    params = model.trainable()

    def run(inputs, gold, rng):
        tape = Tape()
        value = loss(model, inputs, gold, mode=mode, rng=rng, tape=tape)
        backward(tape, value)
        return value.item()

    for p in params:
        p.zero_grad()
    # train mode: the batch must draw the masks its sentences draw one at a time
    batched = run(pad(encodings), golds, RngStream(5))
    batch_grads = [p.grad.copy() for p in params]
    for p in params:
        p.zero_grad()
    draws = RngStream(5)
    total = sum(run(enc, gold, draws) for enc, gold in zip(encodings, golds))
    assert abs(batched - total) < 1e-12
    for g, p in zip(batch_grads, params):
        np.testing.assert_allclose(g, p.grad, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# loss oracles


def zero_projection(model):
    model.params["proj_w"].data[...] = 0.0
    model.params["proj_b"].data[...] = 0.0


def test_softmax_loss_uniform_is_ln_tag_count():
    corpus = toy_corpus()
    model = build_for_corpus(small_config(head="softmax"), corpus, toy_table(corpus))
    zero_projection(model)
    enc = encodings_for(corpus, model)[0]
    value = loss(model, enc, to_tags(corpus[0]))
    assert value.item() == pytest.approx(np.log(model.label_count), abs=1e-12)


def test_crf_loss_zeroed_single_token_is_ln2():
    sentence = make_sentence([("up", "up", "ADV")], [("VPC.full", [1])])
    # vocabulary has exactly two labels: B-VPC.full and O
    corpus = [sentence, make_sentence([("x", "x", "X")])]
    model = build_for_corpus(small_config(head="crf"), corpus, toy_table(corpus))
    assert model.label_count == 2
    zero_projection(model)
    enc = encodings_for(corpus, model)[0]
    value = loss(model, enc, to_tags(sentence))
    assert value.item() == pytest.approx(np.log(2.0), abs=1e-12)


def test_loss_rejects_unknown_label_and_bad_length():
    corpus = toy_corpus()
    model = build_for_corpus(small_config(), corpus, toy_table(corpus))
    enc = encodings_for(corpus, model)[0]
    with pytest.raises(TrainingDataError):
        loss(model, enc, ["O", "B-NOPE", "O"])
    with pytest.raises(TrainingDataError):
        loss(model, enc, ["O", "O"])


# ---------------------------------------------------------------------------
# gradients through the full network


def tiny_model(head, embedding_mode="pretrained"):
    cfg = TaggerConfig(
        filters_per_width=3,
        lstm_hidden=4,
        epochs=1,
        batch_size=1,
        seed=21,
        head=head,
        embedding_mode=embedding_mode,
    )
    word_vocab = ("<unk>", "a", "b", "c") if embedding_mode == "random_trainable" else None
    return build(cfg, 5, 2, 3, RngStream(21), word_vocab=word_vocab)


def tiny_encoding(seed=2):
    rng = np.random.default_rng(seed)
    pos = np.zeros((3, 2))
    pos[np.arange(3), [0, 1, 0]] = 1.0
    return SentenceEncoding(
        word_input=rng.normal(size=(3, 5 + 7)),
        pos_input=pos,
        forms=("a", "b", "zzz"),
    )


@pytest.mark.parametrize("head", ["softmax", "crf"])
def test_grad_check_full_loss(head):
    model = tiny_model(head)
    enc = tiny_encoding()
    gold = ["TAG0", "TAG2", "TAG1"]

    def build_loss():
        return loss(model, enc, gold, mode="eval", tape=Tape())

    assert grad_check(build_loss, model.trainable()) < 1e-4


def test_grad_check_random_trainable_embeddings():
    model = tiny_model("softmax", embedding_mode="random_trainable")
    enc = tiny_encoding()
    gold = ["TAG1", "TAG0", "TAG2"]

    def build_loss():
        return loss(model, enc, gold, mode="eval", tape=Tape())

    assert grad_check(build_loss, model.trainable()) < 1e-4


# ---------------------------------------------------------------------------
# prediction


def test_predict_forced_label_is_constant():
    corpus = toy_corpus()
    for head in ("softmax", "crf"):
        model = build_for_corpus(small_config(head=head), corpus, toy_table(corpus))
        zero_projection(model)
        model.params["proj_b"].data[model.tag_index["O"]] = 5.0
        enc = encodings_for(corpus, model)[0]
        assert predict(model, enc) == ["O", "O", "O"]


def test_predict_deterministic():
    corpus = toy_corpus()
    model = build_for_corpus(small_config(head="crf"), corpus, toy_table(corpus))
    enc = encodings_for(corpus, model)[0]
    assert predict(model, enc) == predict(model, enc)


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
                          batch_size=8, seed=5, optimizer=OptimizerConfig(learning_rate=0.01))
    model, _ = train(build_for_corpus(config, corpus, synthetic_embeddings()), corpus)
    alone = [predict(model, enc) for enc in encodings_for(corpus, model)]
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


def test_no_dev_selects_last_epoch():
    corpus = toy_corpus()
    model = build_for_corpus(small_config(epochs=3), corpus, toy_table(corpus))
    _, report = train(model, corpus)
    assert report.selected_epoch == 2
    assert report.dev_mwe_f1 == []


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


def test_random_trainable_mode_updates_word_table():
    corpus = toy_corpus()
    cfg = small_config(embedding_mode="random_trainable", epochs=3)
    model = build_for_corpus(cfg, corpus, emb_dim=8)
    before = np.array(model.params["word_table"].data, copy=True)
    _, report = train(model, corpus)
    assert not np.array_equal(before, model.params["word_table"].data)
    assert np.isfinite(report.losses).all()
    out = predict_corpus(model, corpus)
    assert len(out) == len(corpus)


def test_random_trainable_inputs_look_nothing_up(monkeypatch):
    corpus = toy_corpus()
    cfg = small_config(embedding_mode="random_trainable", epochs=2)
    model = build_for_corpus(cfg, corpus, toy_table(corpus))
    before = predict_corpus(model, corpus)

    def refuse(self, word):
        raise AssertionError(f"looked up {word!r}")

    monkeypatch.setattr(EmbeddingTable, "lookup", refuse)
    assert predict_corpus(model, corpus) == before
    _, report = train(model, corpus, dev_corpus=corpus)
    assert np.isfinite(report.losses).all()
