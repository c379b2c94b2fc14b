"""python -m mwetag: the command-line interface of mwetag.cli."""

from .cli import main

main()
