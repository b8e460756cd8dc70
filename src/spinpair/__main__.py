"""`python -m spinpair`: the spinpair command line of spinpair.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
