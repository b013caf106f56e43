"""Structured command reports with twin JSON / text renderings.

Every CLI subcommand produces one Report; the JSON and human renderings
derive from the same record, and the JSON form is byte-stable across runs
(sorted keys, no timestamps).
"""

import json
from typing import Any, NamedTuple

SCHEMA_VERSION = 2


class Check(NamedTuple):
    """One verified claim.  passed=None marks an informational line."""

    name: str
    passed: bool | None
    detail: str = ""
    value: Any = None
    expected: Any = None


class Report:
    """The checks, inputs and data of one command; each report starts with fresh containers."""

    def __init__(self, command: str, inputs: dict[str, Any] | None = None) -> None:
        self.command = command
        self.inputs = {} if inputs is None else inputs
        self.checks: list[Check] = []
        self.data: dict[str, Any] = {}

    def add(
        self,
        name: str,
        passed: bool | None,
        detail: str = "",
        value: Any = None,
        expected: Any = None,
    ) -> None:
        self.checks.append(Check(name, passed, detail, value, expected))

    @property
    def failed(self) -> list[Check]:
        return [c for c in self.checks if c.passed is False]

    @property
    def exit_code(self) -> int:
        return 1 if self.failed else 0

    def summary(self) -> dict[str, int]:
        return {
            "passed": sum(1 for c in self.checks if c.passed is True),
            "failed": len(self.failed),
            "info": sum(1 for c in self.checks if c.passed is None),
        }

    def to_json(self) -> str:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "inputs": self.inputs,
            "checks": [
                {
                    "name": c.name,
                    "status": {True: "pass", False: "fail", None: "info"}[c.passed],
                    "detail": c.detail,
                    "value": c.value,
                    "expected": c.expected,
                }
                for c in self.checks
            ],
            "summary": self.summary(),
            "data": self.data,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"== {self.command} =="]
        for key in sorted(self.inputs):
            lines.append(f"   {key} = {self.inputs[key]}")
        for c in self.checks:
            tag = {True: "PASS", False: "FAIL", None: "info"}[c.passed]
            detail = f"  {c.detail}" if c.detail else ""
            got = f"  value={c.value}" if c.value is not None else ""
            want = f"  expected={c.expected}" if c.expected is not None else ""
            lines.append(f"[{tag}] {c.name}{detail}{got}{want}")
        for key in sorted(self.data):
            value = self.data[key]
            if isinstance(value, str) and "\n" in value:
                lines.append(f"-- {key} --")
                lines.append(value.rstrip("\n"))
            else:
                lines.append(f"{key}: {value}")
        s = self.summary()
        lines.append(f"summary: {s['passed']} passed, {s['failed']} failed, {s['info']} info")
        return "\n".join(lines) + "\n"
