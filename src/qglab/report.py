"""Machine-readable certificates.

A report is a flat list of check records, each carrying the statement label it
certifies, the measured residual, the tolerance it was held to (none for an
informational record), and a pass flag.  Serialization is deterministic:
records are sorted, floats are rendered as 17-significant-digit decimal
strings, and repeated runs with the same seed produce byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["CheckRecord", "CheckReport", "format_float"]

REPORT_VERSION = "0.6.0"


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


@dataclass(frozen=True)
class CheckRecord:
    suite: str
    check: str
    group: str
    construction: str
    anchor: str
    residual: float
    tolerance: float | None = None
    detail: dict | None = None

    @property
    def passed(self) -> bool:
        return self.tolerance is None or bool(self.residual <= self.tolerance)

    def sort_key(self) -> tuple:
        return (self.suite, self.group, self.construction, self.check)

    def to_json_obj(self) -> dict:
        obj = {
            "suite": self.suite,
            "check": self.check,
            "group": self.group,
            "construction": self.construction,
            "anchor": self.anchor,
            "residual": format_float(self.residual),
            "tolerance": None if self.tolerance is None else format_float(self.tolerance),
            "pass": self.passed,
        }
        if self.detail is not None:
            obj["detail"] = {
                k: (format_float(v) if isinstance(v, float) else v)
                for k, v in sorted(self.detail.items())
            }
        return obj


@dataclass
class CheckReport:
    seed: int
    records: list[CheckRecord] = field(default_factory=list)

    def extend(self, records: list[CheckRecord]) -> None:
        self.records.extend(records)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def summary(self) -> dict:
        passed = sum(1 for r in self.records if r.passed)
        return {
            "total": len(self.records),
            "passed": passed,
            "failed": len(self.records) - passed,
        }

    def to_json_bytes(self) -> bytes:
        obj = {
            "version": REPORT_VERSION,
            "seed": self.seed,
            "records": [r.to_json_obj() for r in sorted(self.records, key=CheckRecord.sort_key)],
            "summary": self.summary(),
        }
        return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")
