"""Structured check reports shared by the lemma checkers, towers, and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

PASS = "pass"
FAIL = "fail"
HYPOTHESIS_FAILED = "hypothesis-failed"


class Report:
    """Base of every report dataclass; ``to_json`` is the one JSON rule.

    Fields come in declaration order, without those that are None or
    declared with ``metadata={"json": False}``.  Reports and lists of
    reports are converted the same way, and dict keys become strings; a
    list of plain values (names) passes through unchanged, not item by item.
    """

    def to_json(self):
        return {f.name: _plain(v) for f in fields(self)
                if (v := getattr(self, f.name)) is not None and f.metadata.get("json", True)}


def _plain(value):
    if isinstance(value, Report):
        return value.to_json()
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, list) and value and isinstance(value[0], Report):
        return [v.to_json() for v in value]
    return value


@dataclass
class Assertion(Report):
    name: str
    status: str
    witness: object = None

    @classmethod
    def of(cls, name, ok, witness=None):
        """PASS or FAIL; the witness is kept only on failure."""
        return cls(name, PASS if ok else FAIL, None if ok else witness)


@dataclass
class CheckReport(Report):
    title: str
    assertions: list = field(default_factory=list)
    result: dict = field(default_factory=dict)

    def add(self, name, ok, witness=None):
        self.assertions.append(Assertion.of(name, ok, witness))

    def add_hypothesis_failure(self, name, witness=None):
        self.assertions.append(Assertion(name, HYPOTHESIS_FAILED, witness))

    @property
    def ok(self):
        return all(a.status == PASS for a in self.assertions)
