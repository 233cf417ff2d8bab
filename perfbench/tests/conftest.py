"""Make the benchmark's modules and the sbcr source tree importable.

Run with: python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
