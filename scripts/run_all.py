#!/usr/bin/env python3
"""Run every experiment with the default configuration.

Order: frozen-oracle self-check first (abort on failure), then the risk
and adversarial-risk measurements, the separation, the no-detection
construction, and a CNF bundle batch.  Each experiment gets its own
subdirectory under out/; the self-check prints its PASS/FAIL lines and
writes nothing.
"""

import sys

from compgap.cli import main

STEPS = [
    ["oracle-check"],
    ["risk", "--trials", "100000", "--out", "out/risk"],
    ["adv-risk", "--trials", "4000", "--out", "out/adv-risk"],
    ["separation", "--trials", "2000", "--out", "out/separation"],
    ["c3", "--trials", "2000", "--out", "out/c3"],
    ["np-forge", "--out", "out/forge"],
]

if __name__ == "__main__":
    for step in STEPS:
        print(f"== compgap {' '.join(step)}")
        rc = main(step + sys.argv[1:])
        if rc != 0:
            sys.exit(rc)
    sys.exit(0)
