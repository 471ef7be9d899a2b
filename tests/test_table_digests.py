"""Every solve of the seeded digest corpus reproduces its recorded table bits.

The golden digests are the float and exact tables of the solver as it stood
before its loops were rewritten for speed; see ``table_digests.py``.
"""

import json
from pathlib import Path

from table_digests import digests

GOLDEN = Path(__file__).resolve().parent / "golden" / "table_digests.json"


def test_table_bits_match_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    got = digests()
    assert list(got) == list(golden)
    assert [name for name in golden if got[name] != golden[name]] == []
