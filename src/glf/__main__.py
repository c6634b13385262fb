"""``python -m glf``: the ``glf`` command line, runnable from a source tree."""

import sys

from glf.shell.cli import main

sys.exit(main())
