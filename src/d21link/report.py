"""Verification reports: named checks with pass/fail status and detail."""

from __future__ import annotations

from typing import List, NamedTuple, Optional


class CheckResult(NamedTuple):
    check_id: str
    passed: bool
    detail: str = ""


class Report:
    __slots__ = ("suite", "checks")

    def __init__(self, suite: str, checks: Optional[List[CheckResult]] = None):
        self.suite = suite
        self.checks = [] if checks is None else checks

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def extend(self, other: "Report") -> None:
        self.checks.extend(other.checks)

    def lines(self, verbose: bool = False) -> List[str]:
        out = []
        for check in self.checks:
            if verbose or not check.passed:
                status = "PASS" if check.passed else "FAIL"
                suffix = f"  {check.detail}" if check.detail else ""
                out.append(f"[{status}] {self.suite}:{check.check_id}{suffix}")
        passed = sum(1 for c in self.checks if c.passed)
        out.append(f"suite {self.suite}: {passed}/{len(self.checks)} checks passed")
        return out

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "ok": self.ok,
            "checks": [
                {"id": c.check_id, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }
