"""The three benchmark workloads: seeded inputs, one operation each, and the
comparison of every operation's output with the stored reference.

Inputs are written as scenario files, so the program sees only what a user
would hand it.  Library calls go through module attributes
(``cli.main``, ``correlations.integrate_hierarchy``) so that the traced run,
which rebinds those attributes, sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

import numpy as np

from corrdyn import cli, correlations
from corrdyn.config import load_scenario
from corrdyn.hamiltonian import InteractionSpec
from corrdyn.hilbert import random_sequence

#: References are stored for input seeds 0 .. REFERENCE_SEEDS - 1; the
#: benchmark's --seed selects one of them as ``seed % REFERENCE_SEEDS``.
REFERENCE_SEEDS = 10
#: Largest relative trace-norm error an output may have against its
#: reference: reordered sums drift by about 1e-14, a wrong answer by far more.
REL_TOL = 1e-10
#: Columns of the fixed random probe used to store large rk4 components.
SKETCH_RANK = 8
SKETCH_SEED = 20250810

REFERENCE_DIR = Path(__file__).resolve().parent / "references"
ACCEPTANCE_SUITES = ("boltzmann", "bose", "fermi")

RK4_T_FINAL = 0.02
RK4_STEPS = 2


def input_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def _hermitian(rng: np.random.Generator, side: int) -> np.ndarray:
    a = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    return (a + a.conj().T) / 2


def _symmetrized_pair_coupling(rng: np.random.Generator, d: int) -> np.ndarray:
    """Seeded Hermitian two-body matrix averaged with its factor swap, so it
    is exactly invariant under exchange of the two particles."""
    raw = _hermitian(rng, d * d)
    swap = np.arange(d * d).reshape(d, d).T.ravel()
    return (raw + raw[np.ix_(swap, swap)]) / 2


def _rows(mat: np.ndarray) -> str:
    return "\n".join(
        "    " + " ".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in row) for row in mat
    )


def _interacting_scenario(seed: int, tag: int, d: int, stats: str, n_max: int, times: str) -> str:
    rng = np.random.default_rng([seed, tag])
    return (
        f"[system]\nd = {d}\nstats = {stats}\nn_max = {n_max}\nhbar = 1.0\nseed = {seed}\n\n"
        f"[one_body]\nrows =\n{_rows(_hermitian(rng, d))}\n\n"
        f"[potential.2]\nrows =\n{_rows(_symmetrized_pair_coupling(rng, d))}\n\n"
        f"[initial]\nkind = random\nseed = {seed}\npositive = true\n\n"
        f"[run]\ntimes = {times}\n"
    )


def _relative_trace_norm_error(out: np.ndarray, ref: np.ndarray) -> float:
    ref_norm = np.linalg.svd(ref, compute_uv=False).sum()
    err = np.linalg.svd(out - ref, compute_uv=False).sum()
    return float(err / max(ref_norm, np.finfo(float).tiny))


def _encode(mat: np.ndarray) -> dict:
    return {"shape": list(mat.shape), "re": mat.real.ravel().tolist(), "im": mat.imag.ravel().tolist()}


def _decode(obj: dict) -> np.ndarray:
    return (np.array(obj["re"]) + 1j * np.array(obj["im"])).reshape(obj["shape"])


def _capture(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    return status, buf.getvalue()


class Evolve:
    """``corrdyn evolve <cfg> --s 1`` on d=2 Bose, n_max=6, four time points.

    Many partitions on small matrices: nested Bell enumeration in the
    marginal transform and per-term embedded products dominate.
    """

    name = "evolve-bose-d2n6"

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.path = workdir / "evolve.cfg"
        self.path.write_text(_interacting_scenario(seed, 1, 2, "bose", 6, "0.0 0.3 0.6 0.9"))
        load_scenario(self.path)

    def op(self) -> list[tuple[float, np.ndarray]]:
        status, text = _capture(["evolve", str(self.path), "--s", "1"])
        if status != 0:
            raise RuntimeError(f"corrdyn evolve exited with status {status}")
        blocks = []
        lines = iter(text.splitlines())
        for line in lines:
            key, t = line.split()
            _, n, d, _ = next(lines).split()
            side = int(d) ** int(n)
            mat = np.array([[complex(tok) for tok in next(lines).split()] for _ in range(side)])
            if key != "time" or mat.shape != (side, side):
                raise ValueError(f"malformed evolve output near {line!r}")
            blocks.append((float(t), mat))
        return blocks

    @staticmethod
    def op_line(op_s: float, ops: int) -> str:
        return f"evolve_s {op_s:.6f} s (median of {ops} ops)"

    @staticmethod
    def reference(out) -> list:
        return [{"time": t, "op": _encode(mat)} for t, mat in out]

    @staticmethod
    def mismatches(out, ref) -> list[str]:
        if [t for t, _ in out] != [r["time"] for r in ref]:
            return [f"time points {[t for t, _ in out]} differ from the reference"]
        misses = []
        for (t, mat), r in zip(out, ref):
            err = _relative_trace_norm_error(mat, _decode(r["op"]))
            if not err <= REL_TOL:
                misses.append(f"time {t}: relative trace-norm error {err:.3e}")
        return misses

    @staticmethod
    def units(out) -> tuple[int, int]:
        """Failed and attempted units for fail_ratio: the op itself."""
        return 0, 1


class Rk4:
    """``integrate_hierarchy(g0, t, K, spec)`` on d=4 Fermi, n_max=4.

    Few partitions (Bell(4) = 15) on side-256 matrices: dense commutators
    and block products dominate, not enumeration.
    """

    name = "rk4-fermi-d4n4"

    def __init__(self, seed: int, workdir: Path, root: Path):
        path = workdir / "rk4.cfg"
        path.write_text(_interacting_scenario(seed, 2, 4, "fermi", 4, "0.0"))
        config = load_scenario(path)
        self.spec = InteractionSpec(
            d=config.d,
            one_body=config.one_body,
            potentials=config.potentials,
            hbar=config.hbar,
            matrix_side_cap=config.matrix_cap,
        )
        # the rule `corrdyn evolve` applies to a kind=random [initial] section
        d_seq = random_sequence(
            np.random.default_rng(config.initial.seed), config.d, config.stats,
            config.n_max, positive=True, f0=1.0,
        )
        self.g0 = correlations.density_to_correlations(d_seq)

    def op(self) -> dict[int, np.ndarray]:
        g = correlations.integrate_hierarchy(self.g0, RK4_T_FINAL, RK4_STEPS, self.spec)
        return {n: np.asarray(op.mat) for n, op in g.components.items()}

    @staticmethod
    def op_line(op_s: float, ops: int) -> str:
        return f"rk4_steps_per_s {RK4_STEPS / op_s:.6f} 1/s ({RK4_STEPS} steps per op, median of {ops} ops)"

    @staticmethod
    def _sketch(mat: np.ndarray) -> np.ndarray:
        """Two-sided projection P^T M P on a fixed Gaussian probe P; stores a
        side-256 component in 64 numbers while any wrong answer still shows."""
        side = mat.shape[0]
        if side <= SKETCH_RANK:
            return mat
        probe = np.random.default_rng([SKETCH_SEED, side]).standard_normal((side, SKETCH_RANK))
        return probe.T @ mat @ probe

    @classmethod
    def reference(cls, out) -> dict:
        return {str(n): _encode(cls._sketch(mat)) for n, mat in out.items()}

    @classmethod
    def mismatches(cls, out, ref) -> list[str]:
        if sorted(map(str, out)) != sorted(ref):
            return [f"components {sorted(out)} differ from the reference"]
        misses = []
        for n, mat in out.items():
            err = _relative_trace_norm_error(cls._sketch(mat), _decode(ref[str(n)]))
            if not err <= REL_TOL:
                misses.append(f"component {n}: relative trace-norm error {err:.3e}")
        return misses

    @staticmethod
    def units(out) -> tuple[int, int]:
        """Failed and attempted units for fail_ratio: the op itself."""
        return 0, 1


class CheckAcceptance:
    """One serial pass of ``corrdyn check --format jsonl`` over the three
    committed acceptance scenarios with both seeds replaced.

    About 200k tiny calls per pass at side <= 16: per-call overhead rules.
    """

    name = "check-acceptance"

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.paths = []
        for stats in ACCEPTANCE_SUITES:
            text = (root / "scenarios" / f"acceptance_{stats}.cfg").read_text()
            text, count = re.subn(r"(?m)^seed\s*=.*$", f"seed = {seed}", text)
            if count != 2:
                raise ValueError(f"acceptance_{stats}.cfg: expected 2 seed lines, found {count}")
            path = workdir / f"acceptance_{stats}.cfg"
            path.write_text(text)
            load_scenario(path)
            self.paths.append((stats, path))

    def op(self) -> list[list]:
        records = []
        for stats, path in self.paths:
            # exit status 1 is expected (two lanes are red by design); the
            # records themselves are compared with the reference
            _, text = _capture(["check", str(path), "--format", "jsonl"])
            for line in text.splitlines():
                obj = json.loads(line)
                if obj["kind"] == "check":
                    records.append([stats, obj["name"], obj["passed"], obj["error"] is not None])
        return records

    @staticmethod
    def op_line(op_s: float, ops: int) -> str:
        return f"check_pass_s {op_s:.6f} s (median of {ops} passes)"

    @staticmethod
    def reference(out) -> list:
        return out

    @staticmethod
    def mismatches(out, ref) -> list[str]:
        if out == ref:
            return []
        if len(out) != len(ref):
            return [f"{len(out)} check records, reference has {len(ref)}"]
        return [f"record {got} differs from reference {want}" for got, want in zip(out, ref) if got != want]

    @staticmethod
    def units(out) -> tuple[int, int]:
        """Records with passed=false or an error, and records in all."""
        return sum(1 for _, _, passed, errored in out if errored or not passed), len(out)


WORKLOADS = {w.name: w for w in (Evolve, Rk4, CheckAcceptance)}


def load_reference(name: str, seed: int):
    data = json.loads((REFERENCE_DIR / f"{name}.json").read_text())
    return data["seeds"][str(input_seed(seed))]
