"""Test set-up: import the program from this checkout's `src/` and the
benchmark's modules from this directory.

    python3 -m pytest bench
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
