"""Time the program's own start-up inside a fresh interpreter.

Usage: ``python3 -I benchmarks/setup_child.py SRC_DIR dance|cli``.  Prints
the elapsed seconds.  The clock starts after interpreter and ``site``
start-up, just before the first import of the package, so it leaves out the
interpreter's own cost.  ``dance`` runs to the end of a first small dance
decision with its JSON trace and SVG timeline; ``cli`` times
``import twistdance.cli`` alone.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
if sys.argv[2] == "cli":
    import twistdance.cli  # noqa: F401
else:
    from twistdance import DancePlan, parse, schedule_search, svg_timeline, trace_to_json

    schedule = schedule_search(DancePlan(parse("O1+ U2+ O3+ T1 U1+ O2+ U3+"), (0, 4), 4))
    trace_to_json(schedule)
    svg_timeline(schedule)
print(time.perf_counter() - start)
