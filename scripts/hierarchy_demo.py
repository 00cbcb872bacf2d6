#!/usr/bin/env python3
"""Evolve a seeded two-mode interacting system from uncorrelated data and
compare the cumulant-series solution against RK4 integration of the
correlation hierarchy.

Prints the one-particle reduced operator's populations and coherence over
time, then the series/integrator discrepancy as the step count doubles
(fourth-order collapse).
"""

import argparse
import math

import numpy as np

from corrdyn import (
    CorrelationSequence,
    EvolutionCache,
    InteractionSpec,
    Statistics,
    BBGKYSeries,
    integrate_hierarchy,
    marginals_from_correlations,
    trace_norm,
)
from corrdyn.hilbert import random_hermitian, random_state_component


def make_spec(seed: int) -> InteractionSpec:
    rng = np.random.default_rng(seed)
    phi = random_hermitian(rng, 4)
    swap = np.zeros((4, 4))
    swap[[0, 1, 2, 3], [0, 2, 1, 3]] = 1.0
    phi = (phi + swap @ phi @ swap.T) / 2
    one_body = np.array([[0.5, 1.0], [1.0, -0.5]], dtype=complex)
    return InteractionSpec(d=2, one_body=one_body, potentials={2: phi})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--stats", default="fermi", choices=["bose", "fermi", "boltzmann"])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--n-max", type=int, default=3)
    parser.add_argument("--t-final", type=float, default=1.0)
    args = parser.parse_args()

    stats = Statistics(args.stats)
    spec = make_spec(args.seed)
    cache = EvolutionCache(spec)
    rng = np.random.default_rng(args.seed)
    g1 = random_state_component(rng, 1, 2, stats, positive=True)
    g0 = CorrelationSequence(d=2, stats=stats, n_max=args.n_max, components={1: g1})
    f0 = marginals_from_correlations(g0)
    series = {s: BBGKYSeries(f0, s, cache) for s in range(1, args.n_max + 1)}

    print(f"stats={stats}  n_max={args.n_max}  seed={args.seed}")
    print("\n t      n_0      n_1      |coherence|")
    for k in range(9):
        t = args.t_final * k / 8
        f1 = series[1].at(t).mat
        print(f"{t:5.3f}  {f1[0, 0].real:7.4f}  {f1[1, 1].real:7.4f}  {abs(f1[0, 1]):11.4f}")

    print("\nseries vs RK4 integration of the hierarchy (max gap over orders)")
    print("steps/unit   gap          order")
    t = args.t_final
    reference = {s: series[s].at(t) for s in series}
    previous = None
    for steps_per_unit in (125, 250, 500, 1000):
        steps = max(1, round(steps_per_unit * t))
        f_t = marginals_from_correlations(integrate_hierarchy(g0, t, steps, spec))
        gap = max(trace_norm(f_t.component(s) - reference[s]) for s in series)
        order = "" if previous is None or gap == 0 else f"{math.log2(previous / gap):5.2f}"
        print(f"{steps_per_unit:10d}   {gap:.3e}   {order}")
        previous = gap


if __name__ == "__main__":
    main()
