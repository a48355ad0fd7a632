"""``python -m mzsv``: the command line of ``mzsv.cli``."""

import sys

from .cli import main

sys.exit(main())
