"""Entry point for `python -m tripwire`; see tripwire.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
