"""Make the benchmark package and the program importable for the tests."""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
for entry in (str(E2E), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)
