"""Verification reports: a uniform pass/fail container for all checkers."""


class CheckReport:
    """Outcome of one verification run.

    `violations` is a list of JSON-ready dicts; an empty list means the check
    passed everywhere it looked.  `checked` counts individual coefficient (or
    instance) comparisons, `window` records the bounds they were made on.
    """

    def __init__(self, name, window=None, checked=0, violations=None):
        self.name = name
        self.window = {} if window is None else window
        self.checked = checked
        self.violations = [] if violations is None else violations

    @property
    def ok(self):
        return not self.violations

    def check(self, where, expected, actual):
        """Count one comparison; record a violation at `where` if they differ."""
        self.checked += 1
        if expected != actual:
            self.add_violation(where, expected, actual)

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
