"""Child process for one timed experiment.

Usage: python3 bench/child.py READY_FILE [fieldlab CLI arguments...]

Imports ``fieldlab.cli`` from the checkout's ``src``, writes the
``time.monotonic()`` reading taken right after the import to READY_FILE,
then runs the CLI with the remaining arguments (none: stop after the import).
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import fieldlab.cli  # noqa: E402

ready = time.monotonic()
Path(sys.argv[1]).write_text(repr(ready))
if len(sys.argv) > 2:
    raise SystemExit(fieldlab.cli.main(sys.argv[2:]))
