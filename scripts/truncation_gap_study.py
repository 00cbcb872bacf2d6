#!/usr/bin/env python3
"""Measure the gap between the two reduced-operator definitions: traced
cluster correlations versus the classical-reference sum of traced density
components, per statistics, truncation n_max and order s.

For unsymmetrized statistics with traceless components the two coincide to
rounding at every truncation.  For Bose/Fermi statistics they do not, and
the gap does not shrink as n_max grows: at the defaults the Bose traceless
s=1 gap reads 0.59 / 2.81 / 2.99 at n_max 2 / 3 / 4.  Finite truncation
therefore does not explain it, and its cause is open (ROADMAP item 1).
"""

import argparse

import numpy as np

from corrdyn import Statistics, density_to_correlations, marginal_from_clusters, trace_norm
from corrdyn.hilbert import random_sequence
from corrdyn.oracles import grand_marginal_sum


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--samples", type=int, default=10)
    args = parser.parse_args()

    print(f"{'stats':10s} {'n_max':>5s} {'s':>2s} {'traceless gap':>14s} {'generic gap':>14s}")
    for stats in (Statistics.BOLTZMANN, Statistics.BOSE, Statistics.FERMI):
        for n_max in (2, 3, 4):
            for s in (1, 2):
                if s > n_max:
                    continue
                gaps = {True: 0.0, False: 0.0}
                for traceless in (True, False):
                    rng = np.random.default_rng([args.seed, n_max, s, int(traceless)])
                    worst = 0.0
                    for _ in range(args.samples):
                        d_seq = random_sequence(rng, 2, stats, n_max, traceless=traceless, f0=1.0)
                        g = density_to_correlations(d_seq)
                        lhs = marginal_from_clusters(g, s)
                        rhs = grand_marginal_sum(d_seq, s)
                        worst = max(worst, trace_norm(lhs - rhs) / (1 + trace_norm(rhs)))
                    gaps[traceless] = worst
                print(
                    f"{stats.value:10s} {n_max:5d} {s:2d} {gaps[True]:14.3e} {gaps[False]:14.3e}"
                )


if __name__ == "__main__":
    main()
