#!/usr/bin/env python3
"""Print the limit-arrow gap table for the degeneration chain.

For each arrow (four-parameter theta family down to the classical form)
the gap |termA(limit point) - termA(target family)| is tabulated while
eps is halved, so the first-order (or faster) decay is visible directly.

    python scripts/decay_probe.py --seed 5 --m 2 --n 1 --eps 1e-3
"""

import argparse
import sys
from pathlib import Path
from random import Random

# run from a checkout: import the package from its src/ directory
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from thetacb.identities import ARROWS, degeneration_decay
from thetacb.params import IdentitySize
from thetacb.sampling import sample_param_point


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--m", type=int, default=2)
    parser.add_argument("--n", type=int, default=1)
    parser.add_argument("--eps", type=float, default=1e-3)
    parser.add_argument("--halvings", type=int, default=3)
    args = parser.parse_args()

    pp = sample_param_point(Random(args.seed), IdentitySize(args.m, args.n))
    seqs = degeneration_decay(pp, args.m, args.n, eps0=args.eps,
                              halvings=args.halvings)
    eps_values = [args.eps / 2**i for i in range(args.halvings + 1)]
    header = "arrow".ljust(20) + "".join(f"eps={e:<12.2e}" for e in eps_values)
    print(header)
    for name in ARROWS:
        gaps = seqs[name]
        row = name.ljust(20) + "".join(f"{g:<16.3e}" for g in gaps)
        ratios = " ".join(f"{gaps[i] / gaps[i + 1]:.2f}x" if gaps[i + 1] else "inf"
                          for i in range(len(gaps) - 1))
        print(row + "  decay: " + ratios)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
