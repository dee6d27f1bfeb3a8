"""Verification reports: a uniform pass/fail container for all checkers."""

from dataclasses import dataclass, field


@dataclass
class CheckReport:
    """Outcome of one verification run.

    `violations` is a list of JSON-ready dicts; an empty list means the check
    passed everywhere it looked.  `checked` counts individual coefficient (or
    instance) comparisons, `window` records the bounds they were made on.
    """

    name: str
    window: dict = field(default_factory=dict)
    checked: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def add_violation(self, where, expected, actual):
        self.violations.append(
            {"where": where, "expected": str(expected), "actual": str(actual)}
        )

    def to_json(self):
        return {
            "name": self.name,
            "ok": self.ok,
            "window": self.window,
            "checked": self.checked,
            "violations": self.violations,
        }

    def render_text(self):
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        lines = [f"[{self.name}] {status}; {self.checked} comparisons on {self.window}"]
        if self.violations:
            first = self.violations[0]
            lines.append(f"  first violation at {first['where']}:")
            lines.append(f"    expected: {first['expected']}")
            lines.append(f"    actual:   {first['actual']}")
        return "\n".join(lines)
