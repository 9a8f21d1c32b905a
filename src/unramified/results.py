"""Pass/fail result records shared by the verification suites."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class VerificationResult:
    identity: str
    passed: bool
    checked: int
    counterexample: str | None = None
    note: str = ""
    skipped: bool = False

    def line(self) -> str:
        status = "SKIP" if self.skipped else ("PASS" if self.passed else "FAIL")
        msg = f"{status}  {self.identity}  (checked {self.checked})"
        if self.note:
            msg += f"  [{self.note}]"
        if self.counterexample:
            msg += f"  counterexample: {self.counterexample}"
        return msg
