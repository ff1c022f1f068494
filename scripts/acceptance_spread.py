"""Spread of acceptance criteria C5 and C6 over ten windows of ten seeds.

Usage, from the repository root:

    python3 scripts/acceptance_spread.py

C5 (the kappa ablation) and C6 (clustering recovery) in
tests/test_acceptance.py average over the SBM seeds 0-9. This script runs
their protocol, `_sbm_metrics`, on each ten-seed window of seeds 0-99 and
prints each window's C5 accuracy gap (kappa=1 minus kappa=0) and C6 kappa=1
NMI, then how many windows meet each criterion's bound. A change to a
stream that C5/C6 read shows here as a moved distribution, not only as one
window that passes or fails. A run takes a few minutes on two cores.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "..", "src"), os.path.join(HERE, "..", "tests")]

import numpy as np  # noqa: E402

from test_acceptance import _sbm_metrics  # noqa: E402

WINDOWS = 10
C5_MIN_GAP = 0.02  # test_c5_kappa_ablation_direction
C6_MIN_NMI = 0.7  # test_c6_clustering_recovery


def main() -> int:
    c5_met = c6_met = 0
    for w in range(WINDOWS):
        seeds = range(10 * w, 10 * w + 10)
        accs, nmis = _sbm_metrics(seeds)
        acc0, acc1 = float(np.mean(accs[0])), float(np.mean(accs[1]))
        nmi0, nmi1 = float(np.mean(nmis[0])), float(np.mean(nmis[1]))
        c5 = acc1 > acc0 and acc1 - acc0 >= C5_MIN_GAP
        c6 = nmi1 >= C6_MIN_NMI and nmi1 >= nmi0
        c5_met += c5
        c6_met += c6
        print(f"seeds {seeds.start:2d}-{seeds.stop - 1:2d}: "
              f"C5 gap {100 * (acc1 - acc0):+6.2f} points "
              f"(acc {100 * acc0:.2f}% -> {100 * acc1:.2f}%) {'met' if c5 else 'missed'}; "
              f"C6 nmi kappa=1 {nmi1:.4f} (kappa=0 {nmi0:.4f}) {'met' if c6 else 'missed'}",
              flush=True)
    print(f"C5 met in {c5_met} of {WINDOWS} windows, C6 in {c6_met} of {WINDOWS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
