import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
# the program under test and the benchmark's own modules
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]
