"""``python -m fatpoints``: the same command as the ``fatpoints`` script."""

import sys

from .cli import main

sys.exit(main())
