"""Structured results for identity verification runs.

Every verify_* routine returns a Report: a named batch of individual checks,
each carrying a witness string (the offending instance) when it fails.
Reports serialize to plain dicts for the CLI's JSON output; serialization is
deterministic because insertion order is preserved end to end.
"""

from __future__ import annotations


class Check:
    """One named check; the witness names the offending instance."""

    def __init__(self, name: str, passed: bool, witness: str = ""):
        self.name = name
        self.passed = passed
        self.witness = witness

    def to_dict(self) -> dict:
        d = {"name": self.name, "passed": self.passed}
        if self.witness:
            d["witness"] = self.witness
        return d


class Report:
    """A named batch of checks of one identity."""

    def __init__(self, suite: str, identity: str, checks: list[Check] | None = None):
        self.suite = suite
        self.identity = identity
        self.checks = [] if checks is None else checks

    def add(self, name: str, passed: bool, witness: str = "") -> None:
        self.checks.append(Check(name, bool(passed), witness if not passed else ""))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "id": self.suite,
            "identity": self.identity,
            "status": "pass" if self.passed else "fail",
            "checked": len(self.checks),
            "witnesses": [c.to_dict() for c in self.failures()],
        }

    def __str__(self) -> str:
        mark = "ok" if self.passed else "FAIL"
        return f"[{mark}] {self.suite}: {self.identity} ({len(self.checks)} checks)"
