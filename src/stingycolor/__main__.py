"""``python -m stingycolor``: the same command line as the ``stingycolor`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
