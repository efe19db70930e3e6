"""Shared verification-report plumbing.

Every checker in the package returns a :class:`VerificationReport`:
a named pass/fail record carrying exact values for each failing case,
plus a separate ``flagged`` list for catalogued closed forms that are
known to disagree with the brute-force oracle (recorded, never silently
dropped, and never counted as a pass).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any


def encode_value(value: Any) -> Any:
    """JSON-safe encoding; Fractions become ``"num/den"`` strings."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


@dataclass(frozen=True)
class CaseRecord:
    """One verified case: ordered parameters and both side values."""

    params: tuple[tuple[str, Any], ...]
    lhs: Any
    rhs: Any
    note: str = ""

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "params": {k: encode_value(v) for k, v in self.params},
            "lhs": encode_value(self.lhs),
            "rhs": encode_value(self.rhs),
        }
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class VerificationReport:
    name: str
    cases_run: int = 0
    skipped: int = 0
    failures: list[CaseRecord] = field(default_factory=list)
    flagged: list[CaseRecord] = field(default_factory=list)
    elapsed_ms: float | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def record_pass(self) -> None:
        self.cases_run += 1

    def record_skip(self) -> None:
        self.skipped += 1

    def record_failure(self, case: CaseRecord) -> None:
        self.cases_run += 1
        self.failures.append(case)

    def record_flagged(self, case: CaseRecord) -> None:
        # A documented discrepancy: the case ran, is not a pass, but the
        # mismatch is catalogued with both values for auditability.
        self.cases_run += 1
        self.flagged.append(case)

    def merge(self, other: "VerificationReport") -> None:
        self.cases_run += other.cases_run
        self.skipped += other.skipped
        self.failures.extend(other.failures)
        self.flagged.extend(other.flagged)
        if other.elapsed_ms is not None:
            self.elapsed_ms = (self.elapsed_ms or 0.0) + other.elapsed_ms

    def as_dict(self, include_timing: bool = True) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "cases_run": self.cases_run,
            "skipped": self.skipped,
            "failures": [c.as_dict() for c in self.failures],
            "flagged": [c.as_dict() for c in self.flagged],
        }
        if include_timing and self.elapsed_ms is not None:
            out["elapsed_ms"] = round(self.elapsed_ms, 3)
        return out
