"""``python -m wittforge``: the command-line interface of ``cli_io``."""

import sys

from .cli_io import main

sys.exit(main())
