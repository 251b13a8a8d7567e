"""Run algorithms over scenarios and collect metric rows.

The harness hides the asymmetry between online algorithms (replayed by the
simulator, averaged over seeds) and OFF (a single deterministic solve), so
table and figure code deals only in :class:`AlgorithmMetrics`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace

from repro.baselines.offline import solve_offline, solve_offline_reentry
from repro.core.base import OnlineAlgorithm
from repro.core.constraints import validate_matching
from repro.core.registry import algorithm_factory
from repro.core.simulator import Scenario, Simulator, SimulatorConfig
from repro.errors import ConfigurationError
from repro.experiments.metrics import AlgorithmMetrics, average_metrics
from repro.utils.jobs import starmap_jobs

__all__ = ["ExperimentConfig", "run_algorithm", "run_cell", "run_comparison"]

#: Registry name reserved for the offline optimum.
OFFLINE_NAME = "off"

#: A registry name (``"off"`` is the offline optimum) or a picklable
#: zero-argument factory of an online algorithm.
Algorithm = str | Callable[[], OnlineAlgorithm]


@dataclass(frozen=True)
class ExperimentConfig:
    """How to run one experiment.

    Attributes
    ----------
    seeds:
        Simulator seeds to average over (the paper's tables average per-day
        results over a month; seeds play the role of days).
    worker_reentry / service_duration:
        The table experiments run with reentry on (a taxi serves many
        requests per day — Table III's |CpR| >> |W| requires it).
    simulator:
        Base simulator config; per-seed runs override only the seed.
    telemetry:
        Attach a fresh :class:`repro.obs.Telemetry` (metrics only) to each
        per-seed run; the averaged row then carries the pooled
        :class:`~repro.obs.TelemetrySummary` into the JSON reports.
    jobs:
        Worker processes for the algorithm x seed cell grid of
        :func:`run_comparison`.  ``1`` (the default) runs the cells
        in-process; ``> 1`` runs them in a process pool with
        byte-identical deterministic output (docs/PERFORMANCE.md);
        ``0`` means one worker per CPU.
    """

    seeds: tuple[int, ...] = (0, 1, 2)
    worker_reentry: bool = True
    service_duration: float = 1800.0
    simulator: SimulatorConfig = field(default_factory=SimulatorConfig)
    telemetry: bool = False
    jobs: int = 1

    def simulator_config(self, seed: int) -> SimulatorConfig:
        """The per-seed simulator configuration."""
        config = replace(
            self.simulator,
            seed=seed,
            worker_reentry=self.worker_reentry,
            service_duration=self.service_duration,
        )
        if self.telemetry and config.telemetry is None:
            from repro.obs import Telemetry

            config.telemetry = Telemetry()
        return config


def run_cell(
    scenario: Scenario,
    algorithm: Algorithm,
    seed: int | None,
    config: ExperimentConfig,
) -> AlgorithmMetrics:
    """Run one *(algorithm, seed)* cell, the executor's unit of work.

    ``seed=None`` is OFF's single deterministic solve.  Any other cell is
    one simulated run, whose matching is checked against the
    Definition-2.6 constraints before its row is built.
    """
    if seed is None:
        if config.worker_reentry:
            solution = solve_offline_reentry(
                scenario, service_duration=config.service_duration
            )
        else:
            solution = solve_offline(scenario)
        return AlgorithmMetrics.from_offline(solution)
    factory = algorithm_factory(algorithm) if isinstance(algorithm, str) else algorithm
    result = Simulator(config.simulator_config(seed)).run(scenario, factory)
    validate_matching(result.all_records())
    return AlgorithmMetrics.from_simulation(result)


def run_comparison(
    scenario: Scenario,
    algorithms: Sequence[Algorithm],
    config: ExperimentConfig | None = None,
) -> list[AlgorithmMetrics]:
    """Run several algorithms on the same scenario (same seeds, same
    realized worker behaviour — the oracle guarantees identical draws);
    returns one seed-averaged row per algorithm, in request order.

    Each *(algorithm, seed)* cell is a pure function of its arguments:
    every draw flows from the cell's seed through :mod:`repro.utils.rng`,
    and the behaviour oracle realises reservations as pure functions of
    ``(oracle seed, worker, request)``.  So the cells run in-process or
    across ``config.jobs`` processes alike, and folding them in one fixed
    order (algorithms in request order, seeds in ``config.seeds`` order,
    OFF as one cell) makes every deterministic field byte-identical at any
    job count.  Wall-clock values (``response_time_ms`` and
    :data:`repro.obs.WALL_CLOCK_FAMILIES`) differ between any two runs.
    """
    config = config or ExperimentConfig()
    cells: list[tuple[int, Algorithm, int | None]] = []
    for index, algorithm in enumerate(algorithms):
        if isinstance(algorithm, str) and algorithm.lower() == OFFLINE_NAME:
            cells.append((index, algorithm, None))
            continue
        if not config.seeds:
            raise ConfigurationError("ExperimentConfig.seeds must be non-empty")
        for seed in config.seeds:
            cells.append((index, algorithm, seed))
    results = starmap_jobs(
        run_cell,
        [(scenario, algorithm, seed, config) for _, algorithm, seed in cells],
        config.jobs,
    )
    per_algorithm: list[list[AlgorithmMetrics]] = [[] for _ in algorithms]
    for (index, _, _), row in zip(cells, results):
        per_algorithm[index].append(row)
    return [average_metrics(rows) for rows in per_algorithm]


def run_algorithm(
    scenario: Scenario, algorithm: Algorithm, config: ExperimentConfig | None = None
) -> AlgorithmMetrics:
    """Run one algorithm (or ``"off"``) on a scenario; returns the averaged
    metric row."""
    return run_comparison(scenario, [algorithm], config)[0]
