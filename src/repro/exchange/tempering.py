"""Replica-exchange building blocks: resumable anneal segments + swaps.

Parallel tempering runs K Metropolis chains at staggered temperatures and
periodically proposes to *exchange* the configurations of neighbouring
chains.  The population method the paper could not afford becomes cheap
once each chain's full state is a JSON document: a chain runs a fixed
number of temperature tiers as an ordinary engine job (cached, journaled,
fanned out over the process pool), returns its serialized state, and the
coordinator (:mod:`repro.tune.tempering`) swaps states between rounds.

A chain's state *is* the SA checkpoint payload — the
:class:`~repro.exchange.annealer.AnnealState` layout a crash-safe
checkpoint writes (kernel state under ``"state"``, rng, temperature,
counters, current/best cost, best snapshot) — and a segment runs on the
one Metropolis loop, :meth:`AnnealState.advance`, that
:meth:`SimulatedAnnealer.optimize` runs.  A K=1 chain therefore walks the
same accept/reject trace as a single-chain anneal with the same seed, and
chains record the same per-move instruments (``sa.delta``,
``sa.nonfinite_rejected``, ``sa.nonfinite``).

:func:`initial_chain_state`
    A chain's genesis: a fresh anneal at the kernel's baseline, paused
    before its first move at the chain's starting temperature.
:func:`run_segment`
    Advance one chain by N temperature tiers.
:func:`swap_accept`
    The replica-exchange Metropolis criterion
    ``p = min(1, exp((1/T_a - 1/T_b) * (E_a - E_b)))``.  Always consumes
    exactly one uniform from the dedicated swap rng, so per-chain traces
    stay reproducible regardless of how many swaps are accepted.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Tuple

from .annealer import AnnealState
from .checkpoint import decode_arrays, encode_arrays


def initial_chain_state(kernel, seed: Optional[int], temperature: float) -> Dict:
    """A chain's genesis: kernel at its baseline, fresh rng, zero stats."""
    run = AnnealState.start(kernel.cost, kernel.snapshot, seed, temperature)
    return run.pause(kernel.checkpoint_state, encode_arrays)


def run_segment(
    kernel,
    state: Dict,
    steps: int,
    moves_per_temp: int,
    cooling: float,
) -> Tuple[Dict, List[list], List[int]]:
    """Advance one chain by *steps* temperature tiers on *kernel*.

    The kernel is restored from the paused *state* first, so the caller
    only needs to build it at the chain's baseline.  Returns the new
    paused state, one convergence sample per tier
    (``[proposed, cost, best_cost, acceptance, temperature]`` — the
    ``sa.curve`` point layout), and the per-tier accepted-move counts
    (the chain's accept trace, the determinism witness).
    """
    run = AnnealState.resume(state, kernel.restore_checkpoint, decode_arrays)
    samples: List[list] = []
    accept_trace: List[int] = []

    def observe(sample: list, step_accepted: int) -> None:
        samples.append(sample)
        accept_trace.append(step_accepted)

    run.advance(
        steps,
        moves_per_temp,
        cooling,
        kernel.propose,
        kernel.apply,
        kernel.undo,
        kernel.cost,
        snapshot=kernel.snapshot,
        observer=observe,
    )
    return run.pause(kernel.checkpoint_state, encode_arrays), samples, accept_trace


def swap_accept(
    rng: random.Random,
    cost_a: float,
    cost_b: float,
    temp_a: float,
    temp_b: float,
) -> Tuple[bool, float]:
    """Replica-exchange Metropolis test between chains a (colder) and b.

    ``p = min(1, exp((beta_a - beta_b) * (E_a - E_b)))``: exchanging a
    worse configuration *down* the ladder is always accepted; pulling a
    worse one down is accepted with Boltzmann probability.  Exactly one
    uniform is consumed per call — accepted or not — so the swap rng
    stream is a pure function of the swap count.  Returns
    ``(accepted, uniform)``.
    """
    uniform = rng.random()
    delta = (1.0 / temp_a - 1.0 / temp_b) * (cost_a - cost_b)
    if delta >= 0:
        return True, uniform
    return uniform < math.exp(delta), uniform
