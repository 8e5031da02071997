"""Verification reports: named axiom checks with witnesses on failure.

Failures are data, not exceptions; a report collects one entry per axiom
instance (batched over basis tuples) and remembers the first witness of each
failure. Informational entries record facts (e.g. S^2 = id) that are allowed
to be false without failing the report.

An axiom check is written once, as a lazy iterable of its failing cases:

    rep.check("unit_law", ((i,) for i in range(n) if not unital(i)))

or, for deep or hoisted loops, a local generator function that yields the
witness tuple where a failure is found. `check` consumes only up to the
first failure, so a failing check stops early and a passing one does the
same work as the bare loops.
"""

from __future__ import annotations

from .exactlin import Record


class HypothesisFailure(ValueError):
    """A construction was refused because a named hypothesis does not hold."""

    def __init__(self, hypothesis: str, witness=None):
        self.hypothesis = hypothesis
        self.witness = witness
        msg = f"hypothesis violated: {hypothesis}"
        if witness is not None:
            msg += f" (witness: {witness})"
        super().__init__(msg)


class Check(Record, mutable=True):
    name: str
    passed: bool
    witness: tuple | None
    informational: bool

    def __init__(self, name, passed, witness=None, informational=False):
        self.name = name
        self.passed = passed
        self.witness = witness
        self.informational = informational

    def to_dict(self) -> dict:
        d = {"axiom": self.name, "status": "pass" if self.passed else "fail"}
        if self.witness is not None:
            d["witness"] = list(self.witness) if isinstance(self.witness, tuple) else self.witness
        if self.informational:
            d["informational"] = True
        return d


class VerificationReport(Record, mutable=True):
    subject: str
    checks: list[Check]

    def __init__(self, subject="", checks=None):
        self.subject = subject
        self.checks = [] if checks is None else checks

    @property
    def ok(self) -> bool:
        return all(c.passed or c.informational for c in self.checks)

    def add(self, name: str, passed: bool, witness=None, informational=False) -> bool:
        self.checks.append(Check(name, bool(passed), witness, informational))
        return bool(passed)

    def check(self, name: str, failures, informational=False) -> bool:
        """Record `name` with the first case `failures` yields as its witness;
        the check passes when nothing is yielded."""
        witness = next(iter(failures), None)
        return self.add(name, witness is None, witness, informational)

    def merge(self, other: "VerificationReport", prefix: str = "") -> None:
        for c in other.checks:
            name = f"{prefix}{c.name}" if prefix else c.name
            self.checks.append(Check(name, c.passed, c.witness, c.informational))

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed and not c.informational]

    def find(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def require(self) -> "VerificationReport":
        """Raise HypothesisFailure on the first hard failure; return self."""
        for c in self.failures():
            raise HypothesisFailure(f"{self.subject}:{c.name}" if self.subject else c.name,
                                    c.witness)
        return self

    def to_dict(self) -> dict:
        return {"subject": self.subject,
                "ok": self.ok,
                "checks": [c.to_dict() for c in self.checks]}

    def summary(self) -> str:
        lines = [f"[{'PASS' if c.passed else 'FAIL'}] {c.name}"
                 + (f"  witness={c.witness}" if (c.witness is not None and not c.passed) else "")
                 for c in self.checks]
        status = "OK" if self.ok else "FAILED"
        head = f"{self.subject or 'report'}: {status} ({len(self.checks)} checks)"
        return "\n".join([head] + lines)
