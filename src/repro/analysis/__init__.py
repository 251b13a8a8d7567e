"""Project-invariant enforcement: the ``comlint`` static analyzer and the
runtime matching-constraint sanitizer.

Two complementary layers keep the repo's load-bearing invariants intact
as the codebase grows:

* **Static** — :func:`lint_paths` walks python sources with an AST
  checker enforcing the rule catalogue in :mod:`repro.analysis.rules`
  (determinism, telemetry-overhead, error-hygiene and API rules), with
  inline ``# comlint: disable=RULE`` suppressions.  Exposed on the CLI
  as ``com-repro lint``, which fails on any unsuppressed finding.
* **Dynamic** — :class:`ConstraintSanitizer` validates every assignment
  decision of a live simulation against the four Definition-2.6
  constraints, waiting-list consistency, and ledger/revenue
  conservation; enabled via ``SimulatorConfig(sanitize=True)`` or the
  ``COM_REPRO_SANITIZE`` environment variable.  Its concurrency
  sibling, :class:`ConcurrencyMonitor`, guards decision-loop-owned
  structures against cross-task mutation (:class:`OwnershipGuard`) and
  times loop callbacks for stalls; enabled via
  ``SimulatorConfig(sanitize_concurrency=True)``, ``serve
  --sanitize-concurrency`` or ``COM_REPRO_SANITIZE_CONCURRENCY``.

See ``docs/STATIC_ANALYSIS.md`` for the full rule catalogue and usage.
"""

from repro.analysis.concurrency import (
    CONCURRENCY_ENV_VAR,
    ConcurrencyMonitor,
    ConcurrencyViolation,
    OwnershipGuard,
    concurrency_from_env,
)
from repro.analysis.linter import (
    Violation,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.analysis.reporting import (
    render_json,
    render_rule_catalogue,
    render_text,
)
from repro.analysis.rules import RULES, Rule, get_rule, rule_ids
from repro.analysis.sanitizer import (
    SANITIZE_ENV_VAR,
    ConstraintSanitizer,
    SanitizerViolation,
    sanitize_from_env,
)

__all__ = [
    "CONCURRENCY_ENV_VAR",
    "ConcurrencyMonitor",
    "ConcurrencyViolation",
    "ConstraintSanitizer",
    "OwnershipGuard",
    "RULES",
    "Rule",
    "SANITIZE_ENV_VAR",
    "SanitizerViolation",
    "Violation",
    "concurrency_from_env",
    "get_rule",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_rule_catalogue",
    "render_text",
    "rule_ids",
    "sanitize_from_env",
]
