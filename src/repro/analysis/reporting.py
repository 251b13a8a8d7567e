"""Lint reporters: human text and machine JSON.

Both forms are deterministic (sorted findings, sorted keys) so CI diffs
and snapshot tests are stable.
"""

from __future__ import annotations

import json
from collections import Counter

from repro.analysis.linter import Violation
from repro.analysis.rules import RULES

__all__ = ["render_text", "render_json", "render_rule_catalogue"]


def render_text(violations: list[Violation]) -> str:
    """A flake8-style report plus a per-rule summary footer."""
    lines = [violation.render() for violation in violations]
    counts = Counter(violation.rule_id for violation in violations)
    if violations:
        summary = ", ".join(
            f"{rule_id}={count}" for rule_id, count in sorted(counts.items())
        )
        lines.append(f"{len(violations)} violation(s): {summary}")
    else:
        lines.append("no violations")
    return "\n".join(lines)


def render_json(violations: list[Violation]) -> str:
    """A JSON report: findings, counts, and the rule catalogue version."""
    payload = {
        "violations": [
            {
                "rule": violation.rule_id,
                "path": violation.path,
                "line": violation.line,
                "column": violation.column + 1,
                "message": violation.message,
                "source": violation.source_line,
            }
            for violation in violations
        ],
        "counts": dict(
            sorted(Counter(v.rule_id for v in violations).items())
        ),
        "total": len(violations),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_rule_catalogue() -> str:
    """The ``--list-rules`` table."""
    lines = []
    for rule in RULES.values():
        lines.append(f"{rule.rule_id}  {rule.name}")
        lines.append(f"    {rule.summary}")
        if rule.allowlist:
            lines.append(f"    allowlist: {', '.join(rule.allowlist)}")
    return "\n".join(lines)
