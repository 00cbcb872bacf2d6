"""Scenario configuration: sectioned key-value text with inline matrices.

Matrices are written as indented continuation rows of whitespace-separated
complex literals (``a+bj``), or referenced by ``file = path`` pointing to a
file in the operator serialization format.  Sections:

    [system]      d, stats, n_max, hbar, seed, matrix_cap
    [one_body]    rows = ... | file = ...
    [potential.K] rows = ... | file = ...     (one section per k-body term)
    [initial]     kind = chaos|random|file, plus kind-specific keys
    [run]         times, checks
    [tolerances]  one override per check name
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .hamiltonian import InteractionSpec
from .hilbert import Statistics, read_operator, require_hermitian

DEFAULT_TOLERANCES = {
    "mobius_roundtrip": 1e-12,
    "hierarchy_residual": 1e-8,
    "cumulant_zero_time": 1e-13,
    "cumulant_free": 1e-12,
    "bbgky_residual": 1e-10,
    "definition_consistency": 1e-11,
    "solution_vs_integrator": 1e-7,
    "norm_bound": 1e-12,
    "symmetry_preservation": 1e-12,
}

KNOWN_CHECKS = tuple(DEFAULT_TOLERANCES)


@dataclass(frozen=True)
class InitialData:
    kind: str  # chaos | random | file
    g1: np.ndarray | None = None
    seed: int = 0
    positive: bool = True
    path: Path | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    d: int
    stats: Statistics
    n_max: int
    hbar: float
    one_body: np.ndarray
    potentials: dict[int, np.ndarray]
    initial: InitialData
    times: tuple[float, ...]
    checks: tuple[str, ...]
    tolerances: dict[str, float]
    seed: int
    matrix_cap: int
    digest: str

    def tolerance(self, check: str) -> float:
        return self.tolerances.get(check, DEFAULT_TOLERANCES[check])

    def interaction_spec(self, potentials: dict[int, np.ndarray] | None = None) -> InteractionSpec:
        """The scenario's dynamics, optionally with a replacement coupling set."""
        return InteractionSpec(
            d=self.d,
            one_body=self.one_body,
            potentials=self.potentials if potentials is None else potentials,
            hbar=self.hbar,
            matrix_side_cap=self.matrix_cap,
        )


def _parse_matrix(raw: str, side: int, where: str) -> np.ndarray:
    rows = [line for line in (l.strip() for l in raw.splitlines()) if line]
    if len(rows) != side:
        raise ConfigError(f"{where}: expected {side} rows, found {len(rows)}")
    out = np.zeros((side, side), dtype=np.complex128)
    for i, row in enumerate(rows):
        toks = row.split()
        if len(toks) != side:
            raise ConfigError(f"{where}: row {i + 1} has {len(toks)} entries, expected {side}")
        for j, tok in enumerate(toks):
            try:
                out[i, j] = complex(tok)
            except ValueError as exc:
                raise ConfigError(f"{where}: bad complex literal {tok!r} at row {i + 1}") from exc
    return out


def read_text(path: Path, what: str) -> str:
    """The text of the file ``path``; ConfigError naming ``what`` and the
    path when it cannot be decoded."""
    try:
        return path.read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {path} cannot be decoded: {exc}") from exc


def _load_matrix(section: configparser.SectionProxy, side: int, base: Path, where: str) -> np.ndarray:
    if "rows" in section and "file" in section:
        raise ConfigError(f"{where}: give either rows or file, not both")
    if "rows" in section:
        return _parse_matrix(section["rows"], side, where)
    if "file" in section:
        path = base / section["file"]
        if not path.exists():
            raise ConfigError(f"{where}: matrix file not found: {path}")
        op = read_operator(io.StringIO(read_text(path, f"{where}: matrix file")))
        if op.mat.shape != (side, side):
            raise ConfigError(f"{where}: file {path} holds a {op.mat.shape} matrix, expected ({side}, {side})")
        return np.asarray(op.mat)
    raise ConfigError(f"{where}: missing rows or file")


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Parse and validate a scenario file.  Every invariant of the file is
    enforced here (shapes, ranges, Hermiticity of the matrices, known check
    names) except the exchange symmetry of the couplings, which
    ``InteractionSpec`` checks when a check or command builds the dynamics
    (``ScenarioConfig.interaction_spec``), so a scenario with a coupling
    that is not factor-permutation symmetric loads and fails at run time."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"scenario file not found: {path}")
    text = read_text(path, "scenario file")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"parse error in {path}: {exc}") from exc

    base = path.parent
    if "system" not in parser:
        raise ConfigError(f"{path}: missing [system] section")
    sys_sec = parser["system"]
    try:
        d = sys_sec.getint("d", 2)
        n_max = sys_sec.getint("n_max", 3)
        hbar = sys_sec.getfloat("hbar", 1.0)
        seed = sys_sec.getint("seed", 0)
        matrix_cap = sys_sec.getint("matrix_cap", 4096)
    except ValueError as exc:
        raise ConfigError(f"{path}: bad [system] value: {exc}") from exc
    if d < 2:
        raise ConfigError(f"{path}: d must be >= 2, got {d}")
    if seed < 0:
        raise ConfigError(f"{path}: [system] seed must be >= 0, got {seed}")
    if matrix_cap < 1:
        raise ConfigError(f"{path}: [system] matrix_cap must be >= 1, got {matrix_cap}")
    if not 1 <= n_max <= 8:
        raise ConfigError(f"{path}: n_max must lie in 1..8, got {n_max}")
    if not (np.isfinite(hbar) and hbar > 0):
        raise ConfigError(f"{path}: hbar must be finite and positive, got {hbar}")
    try:
        stats = Statistics(sys_sec.get("stats", "boltzmann").lower())
    except ValueError as exc:
        raise ConfigError(f"{path}: unknown statistics {sys_sec.get('stats')!r}") from exc

    if "one_body" not in parser:
        raise ConfigError(f"{path}: missing [one_body] section")
    one_body = _load_matrix(parser["one_body"], d, base, "[one_body]")
    require_hermitian("one_body", one_body, ConfigError)

    potentials: dict[int, np.ndarray] = {}
    sections: dict[int, str] = {}
    for name in parser.sections():
        if not name.startswith("potential."):
            continue
        try:
            k = int(name.split(".", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"{path}: bad potential section name [{name}]") from exc
        if k < 2:
            raise ConfigError(f"{path}: potential order must be >= 2, got [{name}]")
        if sections.setdefault(k, name) != name:
            raise ConfigError(f"{path}: [{sections[k]}] and [{name}] both give the potential of order {k}")
        mat = _load_matrix(parser[name], d**k, base, f"[{name}]")
        require_hermitian(f"potential k={k}", mat, ConfigError)
        potentials[k] = mat

    init_sec = parser["initial"] if "initial" in parser else {"kind": "random"}
    kind = init_sec.get("kind", "random").lower()
    if kind == "chaos":
        g1 = _load_matrix(parser["initial"], d, base, "[initial]")
        require_hermitian("initial g1", g1, ConfigError)
        initial = InitialData(kind="chaos", g1=g1, seed=seed)
    elif kind == "random":
        try:
            init_seed = int(init_sec.get("seed", seed))
        except ValueError as exc:
            raise ConfigError(f"{path}: bad [initial] seed {init_sec.get('seed')!r}") from exc
        if init_seed < 0:
            raise ConfigError(f"{path}: [initial] seed must be >= 0, got {init_seed}")
        raw_positive = str(init_sec.get("positive", "true")).lower()
        if raw_positive not in parser.BOOLEAN_STATES:
            raise ConfigError(f"{path}: [initial] positive must be a boolean, got {raw_positive!r}")
        positive = parser.BOOLEAN_STATES[raw_positive]
        initial = InitialData(kind="random", seed=init_seed, positive=positive)
    elif kind == "file":
        rel = init_sec.get("path")
        if not rel:
            raise ConfigError(f"{path}: [initial] kind=file needs a path")
        seq_path = base / rel
        if not seq_path.exists():
            raise ConfigError(f"{path}: initial sequence file not found: {seq_path}")
        initial = InitialData(kind="file", path=seq_path, seed=seed)
    else:
        raise ConfigError(f"{path}: unknown initial kind {kind!r}")

    run_sec = parser["run"] if "run" in parser else {}
    times_raw = run_sec.get("times") or "0.0 0.5 1.0"
    try:
        times = tuple(float(tok) for tok in times_raw.split())
    except ValueError as exc:
        raise ConfigError(f"{path}: bad times list {times_raw!r}") from exc
    if not all(np.isfinite(times)):
        raise ConfigError(f"{path}: times must be finite")
    checks = tuple((run_sec.get("checks") or "").split())
    for name in checks:
        if name not in KNOWN_CHECKS:
            raise ConfigError(f"{path}: unknown check name {name!r}")

    tolerances: dict[str, float] = {}
    if "tolerances" in parser:
        for key, value in parser["tolerances"].items():
            if key not in KNOWN_CHECKS:
                raise ConfigError(f"{path}: tolerance for unknown check {key!r}")
            try:
                tol = float(value)
            except ValueError as exc:
                raise ConfigError(f"{path}: bad tolerance for {key}: {value!r}") from exc
            if not (np.isfinite(tol) and tol >= 0):
                raise ConfigError(f"{path}: tolerance for {key} must be finite and >= 0, got {value!r}")
            tolerances[key] = tol

    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    return ScenarioConfig(
        d=d,
        stats=stats,
        n_max=n_max,
        hbar=hbar,
        one_body=one_body,
        potentials=potentials,
        initial=initial,
        times=times,
        checks=checks,
        tolerances=tolerances,
        seed=seed,
        matrix_cap=matrix_cap,
        digest=digest,
    )
