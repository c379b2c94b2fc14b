"""Seeded benchmark inputs, written as .cupt/.vec files from mwetag.synth.

    python3 perfbench/gen.py --workload neural-crf --seed 3 --out DIR [--tiny]

writes the files one workload reads into DIR, plus ``expected.json`` with
what the generator knows about them (token and expression counts). The same
seed gives the same bytes.

* Training corpora are plain synthetic sentences (one expression each).
* Test corpora join 1-4 consecutive synthetic sentences into one, renumbering
  token ids and expression positions, so sentences run from 4 to 40 tokens
  and carry 1-4 expressions.
* The eval-large prediction file is the gold file with seeded misses,
  category swaps and truncations to the first token; its training file drops
  every sentence whose trigger pair is in a seeded held-out subset, so the
  unseen side of the seen/unseen split is never empty.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from mwetag.corpus import Corpus, Sentence, VmweInstance, write_cupt
from mwetag.synth import (
    CATEGORIES,
    LVC_PAIRS,
    VID_PAIRS,
    synthetic_corpus,
    synthetic_embeddings,
    vocabulary,
)

VEC_DIM = 20
# the 50-sentence corpus the ROADMAP's starting-point numbers were taken on
REFERENCE_CORPUS_SEED = 2024


@dataclass(frozen=True)
class Sizes:
    """Corpus sizes, in plain synthetic sentences before any joining."""

    train: int
    test: int
    held_out_pairs: int = 0  # per category, eval-large only


SIZES = {
    "neural-crf": Sizes(train=50, test=300),
    "baseline-standard": Sizes(train=50, test=5000),
    "eval-large": Sizes(train=21000, test=21000, held_out_pairs=3),
}
TINY_SIZES = {
    "neural-crf": Sizes(train=6, test=6),
    "baseline-standard": Sizes(train=8, test=12),
    "eval-large": Sizes(train=60, test=60, held_out_pairs=3),
}


def sub_seed(seed: int, salt: int) -> int:
    """Independent stream seed for one input, derived from the run seed."""
    return int(np.random.SeedSequence([seed, salt]).generate_state(1)[0])


def join_sentences(corpus: Corpus, rng: np.random.Generator) -> Corpus:
    """Concatenate runs of 1-4 consecutive sentences, renumbering token ids,
    expression ids and expression positions."""
    out: Corpus = []
    i = 0
    while i < len(corpus):
        group = corpus[i : i + int(rng.integers(1, 5))]
        i += len(group)
        tokens, vmwes = [], []
        for sentence in group:
            offset = len(tokens)
            tokens.extend(
                dataclasses.replace(t, id=t.id + offset) for t in sentence.tokens
            )
            vmwes.extend(
                VmweInstance(
                    len(vmwes) + 1,
                    v.category,
                    tuple(p + offset for p in v.token_positions),
                )
                for v in sentence.vmwes
            )
        out.append(Sentence(tuple(tokens), tuple(vmwes)))
    return out


def _lemma_key(sentence: Sentence, vmwe: VmweInstance) -> tuple:
    return tuple(sorted(sentence.tokens[p - 1].lemma.lower() for p in vmwe.token_positions))


def corrupt(gold: Corpus, rng: np.random.Generator):
    """A prediction corpus: each gold expression is dropped (p=0.1), kept with
    the other category (p=0.1), cut to its first token (p=0.1) or kept as is.
    Returns the corpus and its expected MWE-based counts."""
    other = {CATEGORIES[0]: CATEGORIES[1], CATEGORIES[1]: CATEGORIES[0]}
    pred: Corpus = []
    kept = matched = 0
    for sentence in gold:
        vmwes = []
        for v in sentence.vmwes:
            draw = rng.uniform()
            if draw < 0.1:
                continue
            category, positions = v.category, v.token_positions
            if draw < 0.2:
                category = other[category]
            elif draw < 0.3 and len(positions) > 1:
                positions = positions[:1]
            # general MWE matching ignores the category
            matched += positions == v.token_positions
            vmwes.append(VmweInstance(len(vmwes) + 1, category, positions))
        kept += len(vmwes)
        pred.append(dataclasses.replace(sentence, vmwes=tuple(vmwes)))
    return pred, {"pred_mwes": kept, "mwe_tp": matched}


def held_out_training(size: int, seed: int, held_out_pairs: int):
    """A training corpus with no sentence whose trigger pair is held out."""
    rng = np.random.default_rng(sub_seed(seed, 4))
    held = set()
    for pairs in (LVC_PAIRS, VID_PAIRS):
        for k in rng.choice(len(pairs), size=held_out_pairs, replace=False):
            held.add(tuple(sorted(pairs[int(k)])))
    corpus = synthetic_corpus(size, sub_seed(seed, 5))
    return [s for s in corpus if not any(_lemma_key(s, v) in held for v in s.vmwes)]


def write_vec(path: str, seed: int):
    table = synthetic_embeddings(dim=VEC_DIM, seed=seed)
    lines = [f"{len(vocabulary())} {VEC_DIM}\n"]
    for word in vocabulary():
        values = " ".join(repr(float(v)) for v in table.entries[word])
        lines.append(f"{word} {values}\n")
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)


def _write(path: str, corpus: Corpus):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(write_cupt(corpus))


def _tokens(corpus: Corpus) -> int:
    return sum(len(s.tokens) for s in corpus)


def generate(workload: str, seed: int, out: str, tiny: bool = False) -> dict:
    """Write one workload's input files into ``out``; return (and write as
    expected.json) the paths and the counts the checks compare against."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    sizes = (TINY_SIZES if tiny else SIZES)[workload]
    os.makedirs(out, exist_ok=True)
    files = {}
    expected = {}

    def path(name):
        files[name] = os.path.join(out, name + (".vec" if name == "vec" else ".cupt"))
        return files[name]

    if workload == "eval-large":
        gold = join_sentences(
            synthetic_corpus(sizes.test, sub_seed(seed, 1)),
            np.random.default_rng(sub_seed(seed, 2)),
        )
        pred, counts = corrupt(gold, np.random.default_rng(sub_seed(seed, 3)))
        train = held_out_training(sizes.train, seed, sizes.held_out_pairs)
        train_keys = {_lemma_key(s, v) for s in train for v in s.vmwes}
        unseen = sum(
            _lemma_key(s, v) not in train_keys for s in gold for v in s.vmwes
        )
        _write(path("gold"), gold)
        _write(path("pred"), pred)
        _write(path("train"), train)
        expected.update(counts)
        expected.update(
            gold_mwes=sum(len(s.vmwes) for s in gold),
            unseen_gold_mwes=unseen,
            gold_tokens=_tokens(gold),
            pred_tokens=_tokens(pred),
            train_tokens=_tokens(train),
        )
    else:
        if workload == "neural-crf":
            train = synthetic_corpus(sizes.train, sub_seed(seed, 1))
            write_vec(path("vec"), sub_seed(seed, 6))
        else:
            # fixed so that time-to-tolerance does not vary with the corpus
            train = synthetic_corpus(sizes.train, REFERENCE_CORPUS_SEED)
        test = join_sentences(
            synthetic_corpus(sizes.test, sub_seed(seed, 2)),
            np.random.default_rng(sub_seed(seed, 3)),
        )
        _write(path("train"), train)
        _write(path("test"), test)
        expected.update(train_tokens=_tokens(train), test_tokens=_tokens(test))

    manifest = {"workload": workload, "seed": seed, "files": files, "expected": expected}
    with open(os.path.join(out, "expected.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="a few sentences per file, for the self-tests")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out, args.tiny)
    return 0


if __name__ == "__main__":
    sys.exit(main())
