"""Test configuration: make the benchmark's flat modules importable.

Run with ``python -m pytest bench/tests`` from the repository root (the
tier-1 ``testpaths`` stays ``tests``).
"""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)
