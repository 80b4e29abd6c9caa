"""Record the exact comb values of every comb_mixed input.

    python3 perfbench/make_expected.py

Writes perfbench/comb_expected.json, keyed by the canonical key string.
No independent route is affordable at n >= 9, so comb_mixed checks its
outputs against these values, recorded from a known-good commit; run
this again only on a commit whose values are trusted.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from hhi.invariants import InvariantKey  # noqa: E402
from hhi.orbifold import OrbifoldData  # noqa: E402
from hhi.recursion import comb_recursion  # noqa: E402
import workloads  # noqa: E402


def main():
    generic, grouped = workloads.comb_population()
    inputs = [x for pool in generic.values() for x in pool] + grouped
    values = {}
    for r, w, e in inputs:
        key = InvariantKey(OrbifoldData(r, w, e), [0] * len(e))
        values[key.cache_string()] = comb_recursion(key).to_obj()
    with open(workloads.COMB_EXPECTED, "w") as fh:
        json.dump({"values": values}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print("%d values written to %s" % (len(values), workloads.COMB_EXPECTED))


if __name__ == "__main__":
    main()
