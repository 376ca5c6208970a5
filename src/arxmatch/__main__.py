"""``python -m arxmatch``: the same command line as the ``arxmatch`` script."""

import sys

from .cli import main

sys.exit(main())
