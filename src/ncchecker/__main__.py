"""``python -m ncchecker``: the command line interface of ``cli``."""

import sys

from .cli import main

sys.exit(main())
