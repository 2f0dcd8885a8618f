"""Let the command-line tests' subprocesses import modalguard from src/.

pytest's `pythonpath` setting only reaches the test process itself, so
the source tree is also put on PYTHONPATH for the children it starts.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)
