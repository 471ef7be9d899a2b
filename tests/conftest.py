import os
import random
from pathlib import Path

import pytest

# CLI tests start `python -m secquery` in child processes; give them the same
# source tree that pytest's `pythonpath` setting gives this process.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
