"""Check records and report rendering (fixed-width table and JSON lines).

The machine format deliberately excludes wall-clock fields so that two runs
with the same seed are byte-identical; timing lives in the table format
only.  Floats are printed with 17 significant
digits, which round-trips doubles exactly; a non-finite float (the NaN
residual of a check that raised) is written as ``null``, which JSON
readers accept, and read back as NaN.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckRecord:
    name: str
    inputs: str
    residual: float
    tolerance: float
    passed: bool
    wall_ms: float = 0.0
    error: str | None = None


@dataclass(frozen=True)
class CheckReport:
    scenario_digest: str
    records: tuple[CheckRecord, ...] = field(default_factory=tuple)

    @property
    def overall_pass(self) -> bool:
        return all(r.passed for r in self.records)


def _fmt17(x: float) -> str:
    return f"{x:.17g}" if math.isfinite(x) else "null"


def _float(value: float | None) -> float:
    return math.nan if value is None else float(value)


def render_table(report: CheckReport) -> str:
    lines = [
        f"scenario {report.scenario_digest}",
        f"{'check':32s} {'residual':>12s} {'tolerance':>12s} {'status':>6s} {'ms':>8s}",
    ]
    for r in report.records:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{r.name:32s} {r.residual:12.2e} {r.tolerance:12.2e} {status:>6s} {r.wall_ms:8.1f}"
        )
        if r.error:
            lines.append(f"    error: {r.error}")
    lines.append(f"overall {'PASS' if report.overall_pass else 'FAIL'}")
    return "\n".join(lines) + "\n"


def render_jsonl(report: CheckReport) -> str:
    """One JSON object per line; key order fixed, floats at 17 digits."""
    lines = []
    for r in report.records:
        fieldstrs = [
            f'"kind": "check"',
            f'"name": {json.dumps(r.name)}',
            f'"inputs": {json.dumps(r.inputs)}',
            f'"residual": {_fmt17(r.residual)}',
            f'"tolerance": {_fmt17(r.tolerance)}',
            f'"passed": {"true" if r.passed else "false"}',
            f'"error": {json.dumps(r.error)}',
        ]
        lines.append("{" + ", ".join(fieldstrs) + "}")
    summary = [
        f'"kind": "summary"',
        f'"scenario": {json.dumps(report.scenario_digest)}',
        f'"checks": {len(report.records)}',
        f'"overall": {"true" if report.overall_pass else "false"}',
    ]
    lines.append("{" + ", ".join(summary) + "}")
    return "\n".join(lines) + "\n"


def parse_jsonl(text: str) -> CheckReport:
    """Re-parse machine output; residuals come back bit-exact."""
    records = []
    digest = ""
    for line in text.splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        if obj["kind"] == "check":
            records.append(
                CheckRecord(
                    name=obj["name"],
                    inputs=obj["inputs"],
                    residual=_float(obj["residual"]),
                    tolerance=_float(obj["tolerance"]),
                    passed=bool(obj["passed"]),
                    error=obj["error"],
                )
            )
        elif obj["kind"] == "summary":
            digest = obj["scenario"]
    return CheckReport(scenario_digest=digest, records=tuple(records))
