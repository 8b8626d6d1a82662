"""Set-up probe: import the package and load one scenario, then print ``ready``.

Usage: python3 probe.py <source dir> <scenario.yaml>

``run.py`` starts this in a fresh interpreter and times it from the start of
the process to the ``ready`` line.
"""

import sys

sys.path.insert(0, sys.argv[1])

import leaky_cavity.cli  # noqa: E402,F401  (the whole package, CLI included)
from leaky_cavity.scenario import load_scenario  # noqa: E402

load_scenario(sys.argv[2])
print("ready", flush=True)
