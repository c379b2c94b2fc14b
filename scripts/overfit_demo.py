"""Train every model family on the synthetic corpus and report training-set
scores: the neural tagger with each head, then the two feature baselines.

Small dimensions keep the whole run around a minute on one core.
"""

import argparse
import time

from mwetag.baseline import VARIANTS, BaselineTrainOptions, tag_baseline, train_baseline
from mwetag.corpus import from_tags, to_tags
from mwetag.evaluation import evaluate
from mwetag.synth import synthetic_corpus, synthetic_embeddings
from mwetag.tagger import HEADS, TaggerConfig, build_for_corpus, predict, predict_corpus, train


def token_accuracy(tagged, corpus):
    right = total = 0
    for tags, sentence in zip(tagged, corpus):
        gold = to_tags(sentence)
        right += sum(a == b for a, b in zip(tags, gold))
        total += len(gold)
    return right / total


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=100)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()

    corpus = synthetic_corpus()
    table = synthetic_embeddings()
    rows = []

    for head in HEADS:
        config = TaggerConfig(filters_per_width=16, lstm_hidden=24, head=head,
                              epochs=args.epochs, batch_size=8, seed=args.seed)
        started = time.time()
        model = build_for_corpus(config, corpus, embeddings=table)
        best, report = train(model, corpus)
        elapsed = time.time() - started
        accuracy = token_accuracy(predict(best, corpus), corpus)
        scores = evaluate(corpus, predict_corpus(best, corpus))
        rows.append((f"neural/{head}", accuracy, scores.mwe.f1, elapsed))
        print(f"neural/{head}: final loss {report.losses[-1]:.4f}")

    for variant in VARIANTS:
        started = time.time()
        model = train_baseline(
            corpus, variant=variant,
            table=table if variant == "turian" else None,
            options=BaselineTrainOptions(max_iterations=200),
        )
        elapsed = time.time() - started
        kwargs = {"table": table} if variant == "turian" else {}
        tagged = [tag_baseline(model, s, **kwargs) for s in corpus]
        accuracy = token_accuracy(tagged, corpus)
        predicted = [
            from_tags(tags, s, apply_filter=True) for tags, s in zip(tagged, corpus)
        ]
        scores = evaluate(corpus, predicted)
        rows.append((f"baseline/{variant}", accuracy, scores.mwe.f1, elapsed))

    print()
    print(f"{'model':<18} {'token acc':>9} {'MWE F1':>7} {'seconds':>8}")
    for name, accuracy, mwe_f1, elapsed in rows:
        print(f"{name:<18} {accuracy:>9.4f} {mwe_f1:>7.4f} {elapsed:>8.1f}")


if __name__ == "__main__":
    main()
