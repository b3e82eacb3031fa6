"""Multi-seed experiment running and statistics.

Single-seed results of a randomized flow can mislead; this module reruns an
experiment over a seed set and reports mean / standard deviation / extrema —
what a reviewer would ask of Table 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence


@dataclass(frozen=True)
class Statistic:
    """Summary of one scalar metric over a seed set."""

    name: str
    values: tuple

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values)

    @property
    def std(self) -> float:
        if len(self.values) < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(
            sum((v - mu) ** 2 for v in self.values) / (len(self.values) - 1)
        )

    @property
    def min(self) -> float:
        return min(self.values)

    @property
    def max(self) -> float:
        return max(self.values)

    def render(self) -> str:
        return (
            f"{self.name}: mean {self.mean:.4f} +/- {self.std:.4f} "
            f"(min {self.min:.4f}, max {self.max:.4f}, n={self.count})"
        )


@dataclass
class SeedSweep:
    """Results of one experiment function over several seeds."""

    metrics: Dict[str, Statistic] = field(default_factory=dict)

    def __getitem__(self, name: str) -> Statistic:
        return self.metrics[name]

    def render(self) -> str:
        return "\n".join(stat.render() for stat in self.metrics.values())


def _aggregate(per_seed: Sequence[Dict[str, float]], seeds: Sequence[int]) -> SeedSweep:
    """Fold per-seed metric dicts into a :class:`SeedSweep`, checking keys."""
    collected: Dict[str, List[float]] = {}
    keys = None
    for seed, result in zip(seeds, per_seed):
        if keys is None:
            keys = set(result)
        elif set(result) != keys:
            raise ValueError(
                f"seed {seed} returned metrics {sorted(result)} != {sorted(keys)}"
            )
        for name, value in result.items():
            collected.setdefault(name, []).append(float(value))
    sweep = SeedSweep()
    for name, values in collected.items():
        sweep.metrics[name] = Statistic(name=name, values=tuple(values))
    return sweep


def sweep_seeds(
    experiment: Callable[[int], Dict[str, float]],
    seeds: Sequence[int],
) -> SeedSweep:
    """Run ``experiment(seed) -> {metric: value}`` for every seed.

    Every run must return the same metric keys; the sweep aggregates each
    metric into a :class:`Statistic`.
    """
    from ..obs.spans import span
    from ..runtime.telemetry import get_telemetry

    if not seeds:
        raise ValueError("at least one seed is required")
    telemetry = get_telemetry()
    per_seed: List[Dict[str, float]] = []
    for seed in seeds:
        with span("experiment.seed", telemetry, seed=seed):
            per_seed.append(experiment(seed))
    return _aggregate(per_seed, seeds)


def run_experiment(
    kind: str,
    params: Dict,
    seeds: Sequence[int],
    engine=None,
    verify: str = "off",
) -> SeedSweep:
    """Fan a registered job type out over a seed set via the runtime engine.

    The engine-backed sibling of :func:`sweep_seeds`: each seed becomes one
    :class:`~repro.runtime.JobSpec`, so the sweep parallelizes across
    processes and is served from the result cache on re-runs.  Numeric
    top-level fields of each job value become the sweep's metrics; nested
    and non-numeric fields are ignored.

    ``verify`` (used only when no *engine* is supplied) selects the engine's
    result-verification policy, so an invalid job value is re-run (repair)
    or fails the sweep with its diagnostic (strict) instead of being
    averaged into the statistics.
    """
    from ..runtime import JobEngine, JobSpec

    if not seeds:
        raise ValueError("at least one seed is required")
    engine = engine if engine is not None else JobEngine(verify=verify)
    specs = [JobSpec(kind, dict(params), seed=int(seed)) for seed in seeds]
    outcomes = engine.run(specs)
    failed = [outcome for outcome in outcomes if not outcome.ok]
    if failed:
        details = "; ".join(
            f"seed {outcome.spec.seed}: {outcome.error}" for outcome in failed
        )
        raise RuntimeError(f"{len(failed)} experiment job(s) failed: {details}")
    per_seed = [
        {
            name: float(value)
            for name, value in outcome.value.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
        for outcome in outcomes
    ]
    return _aggregate(per_seed, list(seeds))


def codesign_experiment(design, flow, metric_grid=None):
    """Factory: a seed-indexed experiment over one design and flow.

    Returns a callable suitable for :func:`sweep_seeds`, reporting the
    headline Table-3 metrics.
    """

    def run(seed: int) -> Dict[str, float]:
        result = flow.run(design, seed=seed)
        return {
            "density_after_assignment": result.density_after_assignment,
            "density_after_exchange": result.density_after_exchange,
            "ir_improvement": result.ir_improvement,
            "bonding_improvement": result.bonding_improvement,
        }

    return run
