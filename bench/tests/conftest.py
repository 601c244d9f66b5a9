"""Make the benchmark's modules importable by their own names.

Run with ``PYTHONPATH=src python3 -m pytest bench/tests -q`` from the source
tree root.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
