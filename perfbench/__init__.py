"""perfbench: the repository's one benchmark (see perfbench/README.md).

Four pinned workloads drive the E-STREAMHUB reproduction end to end and
report every number with its clock: ``wall_*`` and ``*_self_s`` are host
time, ``sim_*`` are simulated time and repeat exactly for a fixed seed.
Layers are measured from outside, by wrappers that :mod:`perfbench.tracer`
installs for the traced pass only.
"""

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# The benchmark contract runs `python3 -m perfbench` from the repo root
# with no PYTHONPATH; the engine lives in src/.
if importlib.util.find_spec("repro") is None and (REPO_ROOT / "src").is_dir():
    sys.path.insert(0, str(REPO_ROOT / "src"))
