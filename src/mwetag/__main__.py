"""python -m mwetag and the mwetag console script: mwetag.cli's command
line, with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS at 1
unless the environment sets them. BLAS reads them when numpy first loads:
python -m mwetag.cli and callers that import numpy first keep its default."""

import os


def main():
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    from .cli import main as run_cli  # numpy loads here, after the variables

    run_cli()


if __name__ == "__main__":
    main()
