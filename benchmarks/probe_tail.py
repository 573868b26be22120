"""One-shot probe of the pinned exponential-tail plan; run by hand, not a workload.

    python3 benchmarks/probe_tail.py

Decides one plan once: the diagram below at points 0,1,2,3,12,15,24,25 with
k = 4, the forward rule and over-first crossings.  It is infeasible, and the
search has to exhaust its position-vector space to say so.  Prints the
verdict, wall seconds and ``states_explored`` as one JSON line.  On a 2-core
x86-64 box the seed version of the program answers Deadlock after about
25 s and 2,154,904 states.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from twistdance import DancePlan, Infeasible, parse, schedule_search  # noqa: E402

DIAGRAM = (
    "O6- U5+ V2 U3+ V2 V5 V6 U1+ O1+ V7 V3 V10 U6- V4 V4 V3 "
    "V1 V8 V1 O5+ O2+ V6 U4- O3+ U2+ V8 V7 V10 O4- V9 V9 V5"
)
POINTS = (0, 1, 2, 3, 12, 15, 24, 25)


def main() -> int:
    plan = DancePlan(parse(DIAGRAM), POINTS, 4)
    start = time.perf_counter()
    result = schedule_search(plan)
    seconds = time.perf_counter() - start
    infeasible = isinstance(result, Infeasible)
    print(
        json.dumps(
            {
                "verdict": result.reason.value if infeasible else "feasible",
                "wall_s": seconds,
                "states_explored": result.states_explored if infeasible else None,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
