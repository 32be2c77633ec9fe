"""``python -m bourgen``: the command line, also from an uninstalled checkout
(``PYTHONPATH=src python -m bourgen ...``)."""
import sys

from .cli import main

sys.exit(main())
