"""Ablations of the design choices DESIGN.md calls out.

Each ablation runs the same scenario with one knob flipped and reports the
headline metrics side by side:

* ``cooperation`` — exchange on vs off (off degrades DemCOM/RamCOM to
  TOTA-like behaviour; quantifies the whole paper's premise);
* ``ramcom_k`` — RamCOM's threshold exponent pinned to each value of
  ``{1..theta}`` vs the randomized draw (the CR analysis needs the draw;
  the sweep shows the per-k revenue profile);
* ``payment_accuracy`` — Algorithm 2's (xi, eta) accuracy knobs: sample
  count vs estimate quality vs response time;
* ``pricer_breakpoints`` — MER maximization over grid-only vs
  grid+history-breakpoints (exactness of the Def.-4.1 optimum);
* ``inner_pick`` — DemCOM's nearest-worker tie-break vs random choice
  (travel-distance extension metric).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

from repro.core.ramcom import RamCOM
from repro.core.simulator import Scenario
from repro.experiments.harness import ExperimentConfig, run_comparison, run_rows
from repro.experiments.metrics import AlgorithmMetrics
from repro.utils.tables import TextTable

__all__ = ["AblationResult", "run_cooperation_ablation", "run_ramcom_k_sweep",
           "run_payment_accuracy_ablation", "run_pricer_breakpoint_ablation"]


@dataclass
class AblationResult:
    """Rows of one ablation, each labelled with the knob's setting."""

    name: str
    rows: list[tuple[str, AlgorithmMetrics]] = field(default_factory=list)

    def render(self) -> str:
        """Aligned-text comparison of the ablation's settings."""
        table = TextTable(
            ["Setting", "Revenue", "Completed", "|CoR|", "AcpRt", "Time(ms)"],
            title=f"Ablation — {self.name}",
        )
        for label, row in self.rows:
            table.add_row(
                [
                    label,
                    round(row.total_revenue),
                    round(row.total_completed),
                    row.cooperative,
                    row.acceptance_ratio,
                    row.response_time_ms,
                ]
            )
        return table.render()


def _run_settings(
    result: AblationResult,
    scenario: Scenario,
    settings: list[tuple[str, str, ExperimentConfig]],
    config: ExperimentConfig,
) -> AblationResult:
    """Run every ``(label, algorithm, tuned config)`` setting through one
    :func:`run_rows` call, so ``config.jobs`` fans all their cells across
    one pool, and append the labelled rows in order."""
    rows = run_rows(
        scenario,
        [(algorithm, tuned) for _, algorithm, tuned in settings],
        config.jobs,
    )
    result.rows.extend(zip([label for label, _, _ in settings], rows))
    return result


def run_cooperation_ablation(
    scenario: Scenario, config: ExperimentConfig | None = None
) -> AblationResult:
    """DemCOM / RamCOM with the exchange enabled vs disabled."""
    config = config or ExperimentConfig()
    result = AblationResult(name="cooperation on/off")
    off_config = replace(
        config, simulator=replace(config.simulator, cooperation_enabled=False)
    )
    settings = [
        (f"{algorithm}{label}", algorithm, tuned)
        for algorithm in ("demcom", "ramcom")
        for label, tuned in (("+coop", config), ("-coop", off_config))
    ]
    return _run_settings(result, scenario, settings, config)


def run_ramcom_k_sweep(
    scenario: Scenario, config: ExperimentConfig | None = None
) -> AblationResult:
    """RamCOM's revenue as a function of the pinned threshold exponent."""
    config = config or ExperimentConfig()
    result = AblationResult(name="RamCOM threshold exponent k")
    theta = RamCOM.theta_for(scenario.value_upper_bound)
    ks = range(1, theta + 1)
    rows = run_comparison(
        scenario, [partial(RamCOM, fixed_k=k) for k in ks] + ["ramcom"], config
    )
    labels = [f"k={k} (thr=e^{k})" for k in ks] + ["k~U{1..theta}"]
    result.rows.extend(zip(labels, rows))
    return result


def run_payment_accuracy_ablation(
    scenario: Scenario, config: ExperimentConfig | None = None
) -> AblationResult:
    """DemCOM under different Algorithm-2 accuracy settings."""
    config = config or ExperimentConfig()
    result = AblationResult(name="Algorithm 2 accuracy (xi, eta)")
    settings = [
        (
            f"xi={xi}, eta={eta}",
            "demcom",
            replace(
                config,
                simulator=replace(config.simulator, payment_xi=xi, payment_eta=eta),
            ),
        )
        for xi, eta in ((0.2, 0.7), (0.1, 0.5), (0.05, 0.3))
    ]
    return _run_settings(result, scenario, settings, config)


def run_pricer_breakpoint_ablation(
    scenario: Scenario, config: ExperimentConfig | None = None
) -> AblationResult:
    """RamCOM's MER maximization: even grid only vs grid + CDF breakpoints."""
    config = config or ExperimentConfig()
    result = AblationResult(name="MER pricer candidate payments")
    grids = (
        (10, True, "grid-10+bp"),
        (50, True, "grid-50+bp"),
        (200, True, "grid-200+bp"),
        (50, False, "grid-50-bp"),
    )
    settings = [
        (
            label,
            "ramcom",
            replace(
                config,
                simulator=replace(
                    config.simulator,
                    pricer_grid_steps=steps,
                    pricer_history_breakpoints=breakpoints,
                ),
            ),
        )
        for steps, breakpoints, label in grids
    ]
    return _run_settings(result, scenario, settings, config)
