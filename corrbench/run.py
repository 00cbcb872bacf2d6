#!/usr/bin/env python3
"""corrdyn benchmark: closed-loop workloads, timed, checked against stored
references, with an optional traced run for per-layer metrics.

    python3 corrbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the root of a source checkout; corrdyn is imported from its
``src/`` directory.  With ``--trace 0`` the last line of standard output is
a JSON object whose metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones.  Every invocation also writes its full record, with
the environment, to ``.corrbench/result-<workload>-seed<N>-trace<T>.json``.
See corrbench/README.md for why each workload exists.
"""

import os

#: BLAS threads, fixed for every run so that two commits stay comparable.
#: One thread is the steadier choice on a small shared machine.  Set before
#: numpy is imported here or in the set-up processes, which inherit it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".corrbench"
WORKLOAD_NAMES = ("evolve-bose-d2n6", "rk4-fermi-d4n4", "check-acceptance")
#: Fresh processes timed for setup_s; the median is reported.
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing source or scenarios)."""


def import_workloads():
    """Import corrdyn from this checkout's src/ and the workload module."""
    if not (SRC / "corrdyn" / "__init__.py").is_file():
        raise BenchError(f"no corrdyn source at {SRC}/corrdyn")
    if not list((ROOT / "scenarios").glob("acceptance_*.cfg")):
        raise BenchError(f"no acceptance scenarios under {ROOT}/scenarios")
    sys.path.insert(0, str(SRC))
    import corrdyn

    if not Path(corrdyn.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"corrdyn was imported from {corrdyn.__file__}, not from {SRC}")
    import workloads

    return workloads


def make_workdir() -> Path:
    path = OUT_DIR / f"work-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def setup_probe(name: str, seed: int) -> float:
    """One set-up as a fresh process pays it: import corrdyn, generate the
    inputs, load them, and build what the op needs."""
    started = time.perf_counter()
    workloads = import_workloads()
    workdir = make_workdir()
    try:
        workloads.WORKLOADS[name](workloads.input_seed(seed), workdir, ROOT)
        return time.perf_counter() - started
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(name: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "corrdyn").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_sha = None
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
    }


class Loop:
    """Closed loop: the next op starts only when the previous one returned."""

    def __init__(self, wl, ref):
        self.wl, self.ref = wl, ref
        self.attempted = self.failed = 0
        self.units_failed = self.units_attempted = 0
        self.first_miss = None

    def one(self) -> float:
        started = time.perf_counter()
        try:
            out = self.wl.op()
            elapsed = time.perf_counter() - started
            misses = self.wl.mismatches(out, self.ref)
        except Exception as exc:  # a failed op is counted, never fatal
            elapsed = time.perf_counter() - started
            misses = [f"raised {type(exc).__name__}: {exc}"]
        self.attempted += 1
        if misses:
            self.failed += 1
            self.first_miss = self.first_miss or misses[0]
            bad = units = self.wl.units(self.ref)[1]
        else:
            bad, units = self.wl.units(out)
        self.units_failed += bad
        self.units_attempted += units
        return elapsed

    def run_for(self, seconds: float, around=contextlib.nullcontext) -> list[float]:
        """Ops for ``seconds`` (at least one), each inside ``around()``."""
        times = []
        deadline = time.perf_counter() + seconds
        while not times or time.perf_counter() < deadline:
            with around():
                times.append(self.one())
        return times


def run_workload(workloads, name: str, seed: int, seconds: float, trace: bool) -> dict:
    from corrdyn.hilbert import symmetrizer_matrix

    ref = workloads.load_reference(name, seed)
    setup = None if trace else measure_setup(name, seed)
    workdir = make_workdir()
    try:
        wl = workloads.WORKLOADS[name](workloads.input_seed(seed), workdir, ROOT)
        loop = Loop(wl, ref)
        loop.one()  # warm-up: fills the library's caches, verified but not timed
        if not trace:
            times = loop.run_for(seconds)
        else:
            import tracing

            plain = loop.run_for(seconds / 2)
            rec = tracing.SpanRecorder()
            before = symmetrizer_matrix.cache_info()
            rec.install()
            try:
                traced = loop.run_for(seconds / 2, around=lambda: rec.span("op"))
            finally:
                rec.uninstall()
            after = symmetrizer_matrix.cache_info()
            rec.save(OUT_DIR / f"spans-{name}-seed{seed}.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "workload": name,
        "seed": seed,
        "input_seed": workloads.input_seed(seed),
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "fail_ratio": loop.units_failed / loop.units_attempted,
        "fail_units": [loop.units_failed, loop.units_attempted],
        "first_miss": loop.first_miss,
    }
    if not trace:
        result["op_times_s"] = times
        result["setup_samples_s"] = setup
        result["metrics"] = {
            "op_s": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "unit": "MB"},
        }
    else:
        layers = tracing.layer_metrics(rec, len(traced))
        layers["hilbert.symmetrizer_hits"] = ((after.hits - before.hits) / len(traced), "count")
        layers["hilbert.symmetrizer_misses"] = ((after.misses - before.misses) / len(traced), "count")
        layers["trace.untraced_op_s"] = (statistics.median(plain), "s")
        layers["trace.traced_op_s"] = (statistics.median(traced), "s")
        layers["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layers.items())}
    return result


def report(result: dict, wl_class) -> None:
    """Human-readable lines: every end-to-end metric by name, with its unit."""
    m = result["metrics"]
    print(f"workload {result['workload']} seed {result['seed']} (inputs from seed {result['input_seed']})")
    if "op_s" in m:
        op, n = m["op_s"]["value"], len(result["op_times_s"])
        print(wl_class.op_line(op, n))
        print(f"op_s {op:.6f} s (median of {n} ops)")
        print(f"setup_s {m['setup_s']['value']:.6f} s (median of {SETUP_SAMPLES} fresh-process set-ups)")
        print(f"peak_rss_mb {m['peak_rss_mb']['value']:.3f} MB")
    else:
        for key, val in m.items():
            print(f"{key} {val['value']:.6g} {val['unit']}")
    bad, units = result["fail_units"]
    print(f"fail_ratio {result['fail_ratio']:.6g} ({bad}/{units}; {result['failed']} ops off reference or raised)")
    print(f"ops_attempted {result['attempted']}")
    if result["first_miss"]:
        print(f"first miss: {result['first_miss']}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            print(f"{setup_probe(args.workload, args.seed):.9f}")
            return 0
        workloads = import_workloads()
        env = environment()
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        results = [run_workload(workloads, n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(env))
    for result in results:
        report(result, workloads.WORKLOADS[result["workload"]])
    OUT_DIR.mkdir(exist_ok=True)
    record = {"env": env, "seconds": args.seconds, "trace": args.trace, "results": results}
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
