"""One fresh-interpreter set-up, timed from outside by ``run.py``.

Usage: ``python3 perfbench/setup_child.py WORKLOAD SCRATCH_DIR``.  Imports the
simulator, builds the workload's configs, specs and runner, and exits before
the first trace is generated.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from scenarios import SCENARIOS  # noqa: E402

SCENARIOS[sys.argv[1]]().setup(Path(sys.argv[2]))
