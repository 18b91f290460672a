"""Structured results for identity verification runs.

Every verify_* routine returns a Report: a named batch of individual checks,
each carrying a witness string (the offending instance) when it fails.  A
check is one statement, however many points decide it (`Report.every`): its
witness names the first failing point, and `checked` counts statements.
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

    def __init__(self, suite: str, identity: str):
        self.suite = suite
        self.identity = identity
        self.checks: list[Check] = []

    def add(self, name: str, passed: bool, witness: str = "") -> None:
        self.checks.append(Check(name, bool(passed), witness if not passed else ""))

    def every(self, name: str, points, holds, witness=lambda x: f"x={x}") -> None:
        """Add the one check `name`: holds(x) for every x in points (none of
        them None; true for no points); a failure's witness is witness(x) at
        the first failing x."""
        bad = next((x for x in points if not holds(x)), None)
        self.add(name, bad is None, "" if bad is None else witness(bad))

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
