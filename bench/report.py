"""What one workload run hands back to ``run.py``."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Report:
    #: Operations tried and failed (requests for batch, protocol calls
    #: for served workloads).
    attempted: int = 0
    failed: int = 0
    #: One line per failed check.
    problems: list[str] = field(default_factory=list)
    #: End-to-end metrics, by ``BENCHMARK.json`` name.
    metrics: dict[str, float] = field(default_factory=dict)
    #: Everything else worth keeping in the results file.
    extras: dict = field(default_factory=dict)
    #: ``--trace 1`` only: the spans, the generator's per-request records
    #: and per-layer values measured without spans.
    spans: list[tuple] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)
    layer_extras: dict[str, float] = field(default_factory=dict)

    def fail(self, operations: int, problem: str) -> None:
        self.failed += operations
        self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return not self.problems
