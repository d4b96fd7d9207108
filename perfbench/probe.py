"""Set-up probe: a fresh interpreter that imports ``repro`` and analyses one
loop, then prints the bound.  The parent times spawn to that line, so the
interpreter start, the package import and the lazy LP-stack import all land
in ``setup_s``.  Run with ``PYTHONPATH`` pointing at the checkout's ``src``.
"""

import sys

from common import ONE_LOOP

from repro.core.analyzer import analyze_source

print(analyze_source(ONE_LOOP).require_bound().pretty(), flush=True)
sys.exit(0)
