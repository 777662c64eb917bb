"""`python -m negabench`: the command-line workbench."""

import sys

from .cli import main

sys.exit(main())
