"""Write the seeded synthetic corpus and a matching random vector file.

Produces <out-dir>/synthetic.cupt and <out-dir>/synthetic.vec, ready for
the train/tag/eval subcommands. Same seeds, same bytes.
"""

import argparse
import os

from mwetag.corpus import write_cupt
from mwetag.serialize import atomic_write_text
from mwetag.synth import synthetic_corpus, synthetic_embeddings, vocabulary


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="data")
    parser.add_argument("--sentences", type=int, default=50)
    parser.add_argument("--dim", type=int, default=20)
    parser.add_argument("--corpus-seed", type=int, default=2024)
    parser.add_argument("--vector-seed", type=int, default=7)
    args = parser.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    corpus = synthetic_corpus(sentences=args.sentences, seed=args.corpus_seed)
    cupt_path = os.path.join(args.out_dir, "synthetic.cupt")
    atomic_write_text(cupt_path, write_cupt(corpus))

    table = synthetic_embeddings(dim=args.dim, seed=args.vector_seed)
    vec_path = os.path.join(args.out_dir, "synthetic.vec")
    lines = [f"{len(vocabulary())} {args.dim}\n"]
    for word in vocabulary():
        values = " ".join(repr(float(v)) for v in table.entries[word])
        lines.append(f"{word} {values}\n")
    atomic_write_text(vec_path, "".join(lines))

    instances = sum(len(s.vmwes) for s in corpus)
    print(f"wrote {cupt_path}: {len(corpus)} sentences, {instances} instances")
    print(f"wrote {vec_path}: {len(vocabulary())} vectors, dim {args.dim}")


if __name__ == "__main__":
    main()
