"""Scenario-driven batch runner.

Subcommands:
    check  <scenario> [--format table|jsonl] [--out FILE]
    evolve <scenario> --s K [--out FILE]
    info   <scenario>

Exit status is 0 exactly when every executed check passed, 1 when a check
failed and 2 on an error, a file that cannot be read or written included.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import math
import sys
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from .bbgky import BBGKYSeries, marginals_from_correlations
from .checks import run_checks
from .combinatorics import bell_number
from .config import ScenarioConfig, load_scenario, read_text
from .correlations import CorrelationSequence, density_to_correlations
from .errors import ConfigError, CorrdynError
from .hamiltonian import EvolutionCache
from .hilbert import (
    ManyBodyOperator,
    OperatorSequence,
    Statistics,
    group_rank,
    random_sequence,
    read_sequence,
    write_operator,
)
from .report import render_jsonl, render_table


def _initial_correlations(config: ScenarioConfig) -> CorrelationSequence:
    init = config.initial
    if init.kind == "chaos":
        g1 = ManyBodyOperator(1, config.d, init.g1, config.stats)
        return CorrelationSequence(
            d=config.d, stats=config.stats, n_max=config.n_max, f0=0j, components={1: g1}
        )
    if init.kind == "random":
        if init.positive and config.stats is Statistics.FERMI and config.n_max > config.d:
            raise ConfigError(
                f"Pauli exclusion: a positive random Fermi start needs n_max <= d (n_max={config.n_max}, "
                f"d={config.d}); no {config.d + 1} fermions fit in {config.d} modes"
            )
        rng = np.random.default_rng(init.seed)
        d_seq = random_sequence(
            rng, config.d, config.stats, config.n_max, positive=init.positive, f0=1.0
        )
        return density_to_correlations(d_seq)
    d_seq = read_sequence(io.StringIO(read_text(init.path, "initial sequence file")))
    if d_seq.d != config.d or d_seq.stats != config.stats:
        raise ConfigError(
            f"initial sequence file metadata (d={d_seq.d}, stats={d_seq.stats}) "
            f"does not match the scenario"
        )
    if d_seq.n_max != config.n_max:
        # truncate or zero-pad to the scenario truncation order
        kept = {
            n: d_seq.components[n]
            for n in range(1, min(d_seq.n_max, config.n_max) + 1)
        }
        d_seq = OperatorSequence(
            d=d_seq.d, stats=d_seq.stats, n_max=config.n_max, f0=d_seq.f0, components=kept
        )
    return density_to_correlations(d_seq)


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[IO[str]]:
    """Standard output, or the file ``path``, opened for writing on entry
    and closed on exit."""
    if not path:
        yield sys.stdout
        return
    with Path(path).open("w") as out:
        yield out


def cmd_check(args: argparse.Namespace) -> int:
    config = load_scenario(args.scenario)
    with _output(args.out) as out:  # an unwritable path fails before any check runs
        report = run_checks(config)
        out.write(render_jsonl(report) if args.format == "jsonl" else render_table(report))
    return 0 if report.overall_pass else 1


def cmd_evolve(args: argparse.Namespace) -> int:
    config = load_scenario(args.scenario)
    s = args.s
    if not 1 <= s <= config.n_max:
        raise ConfigError(f"--s must lie in 1..{config.n_max}")
    spec = config.interaction_spec()
    # the series needs H_{n_max}: refuse an oversized run before any d^n_max allocation
    spec.check_side(config.n_max)
    g0 = _initial_correlations(config)
    series = BBGKYSeries(marginals_from_correlations(g0), s, EvolutionCache(spec))
    with _output(args.out) as out:
        for t in config.times:
            f_t = series.at(t)
            out.write(f"time {t:.17g}\n")
            write_operator(f_t, out)
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    config = load_scenario(args.scenario)
    print(f"scenario  {args.scenario} (digest {config.digest})")
    print(f"system    d={config.d} stats={config.stats} n_max={config.n_max} hbar={config.hbar}")
    print(f"couplings {sorted(config.potentials) or 'none (free)'}")
    print(f"checks    {' '.join(config.checks) or '(none)'}")
    print(f"times     {' '.join(str(t) for t in config.times)}")
    print()
    print("order  matrix side  partitions  hierarchy terms  group rank")
    for n in range(1, config.n_max + 1):
        # every k-subset, k >= 2, meets each block of some multi-block partition
        terms = sum(math.comb(n, k) for k in config.potentials)
        rank = group_rank(config.stats, n, config.d)
        print(f"{n:5d}  {config.d**n:11d}  {bell_number(n):10d}  {terms:15d}  {rank:10d}")
    cache = EvolutionCache(config.interaction_spec())
    within_cap = [n for n in range(1, config.n_max + 1) if config.d**n <= config.matrix_cap]
    print("eigh error " + " ".join(f"{cache.reconstruction_error(n):.1e}" for n in within_cap))
    cap_ok = config.d**config.n_max <= config.matrix_cap
    print(f"\nmatrix cap {config.matrix_cap}: {'ok' if cap_ok else 'EXCEEDED'}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once and shared by every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="corrdyn",
        description="Verification suites and reduced-operator evolution for "
        "finite quantum correlation dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run the scenario's verification checks")
    check.add_argument("scenario")
    check.add_argument("--format", choices=("table", "jsonl"), default="table")
    check.add_argument("--out", default=None, metavar="FILE")
    check.set_defaults(func=cmd_check)

    evolve = sub.add_parser("evolve", help="write the s-particle reduced operator per time")
    evolve.add_argument("scenario")
    evolve.add_argument("--s", type=int, required=True)
    evolve.add_argument("--out", default=None, metavar="FILE")
    evolve.set_defaults(func=cmd_evolve)

    info = sub.add_parser(
        "info", help="print dimensions, partition counts, coupling supports and group rank per order"
    )
    info.add_argument("scenario")
    info.set_defaults(func=cmd_info)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CorrdynError, OSError, UnicodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
