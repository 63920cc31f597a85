"""Verification records and canonical report emission.

Anchor strings are data, not comments: each record carries the location
string of the identity it verifies, so reports are self-documenting.
Residuals and tolerances are rounded to 12 significant digits at record
creation, which makes the canonical JSON output byte-deterministic and
exactly round-trippable.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field


def canon_float(x: float) -> float:
    return float(f"{float(x):.12e}")


@dataclass(frozen=True)
class Record:
    suite: str
    check: str
    anchor: str
    residual: float
    tol: float
    passed: bool
    message: str = ""


def make_record(suite, check, anchor, residual, tol, message="") -> Record:
    """A record that passes iff its residual is at most its tolerance."""
    residual = canon_float(residual)
    tol = canon_float(tol)
    return Record(suite, check, anchor, residual, tol, residual <= tol, message)


@dataclass
class Report:
    records: list = field(default_factory=list)
    wall_time: float = 0.0  # human format only; not in the canonical JSON

    def extend(self, records):
        self.records.extend(records)

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.records if r.passed)

    @property
    def failed(self) -> int:
        return self.total - self.passed

    @property
    def all_passed(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> dict:
        records = []
        for r in self.records:
            record = dict(vars(r))
            # "pass" is a Python keyword, so the field is named passed
            record["pass"] = record.pop("passed")
            records.append(record)
        return {
            "records": records,
            "summary": {
                "total": self.total,
                "passed": self.passed,
                "failed": self.failed,
            },
        }


FORMATS = ("json", "csv", "human")


def emit(report: Report, fmt: str) -> str:
    """Serialize a report: canonical JSON, CSV, or a human table."""
    if fmt == "json":
        return json.dumps(report.to_dict(), sort_keys=True,
                          separators=(",", ":"))
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["suite", "check", "anchor", "residual", "tol", "pass"])
        for r in report.records:
            writer.writerow(
                [r.suite, r.check, r.anchor, f"{r.residual:.12e}",
                 f"{r.tol:.12e}", "true" if r.passed else "false"]
            )
        return buf.getvalue()
    if fmt == "human":
        lines = [
            f"{'suite':<12} {'check':<28} {'anchor':<16} "
            f"{'residual':>14} {'tol':>10} result"
        ]
        for r in report.records:
            status = "PASS" if r.passed else "FAIL"
            lines.append(
                f"{r.suite:<12} {r.check:<28} {r.anchor:<16} "
                f"{r.residual:>14.3e} {r.tol:>10.1e} {status}"
                + (f"  [{r.message}]" if r.message else "")
            )
        lines.append(
            f"total {report.total}  passed {report.passed}  "
            f"failed {report.failed}  wall {report.wall_time:.2f}s"
        )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
