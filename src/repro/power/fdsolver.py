"""Finite-difference IR-drop solver for Eq. (1) of the paper.

Eq. (1) is the nodal current balance of the uniform power grid of [17]:

    sum over 4 neighbours of (V(x,y) - V(neighbour)) / R  =  -J0 * dx * dy

with power-pad nodes held at ``Vdd``.  This module assembles the sparse
linear system over the non-pad nodes and solves it directly with scipy's
sparse LU.  The result is the full IR-drop map, whose maximum is the
paper's reported metric ("we use [17] method to calculate the maximum value
of IR-drop").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import spsolve

from ..errors import PowerModelError
from .grid import PowerGridConfig


@dataclass
class IRDropResult:
    """Solved IR-drop map of the core."""

    config: PowerGridConfig
    voltage: np.ndarray  # shape (G, G), volts; indexed [x, y]
    pad_nodes: List[Tuple[int, int]]

    @property
    def drop_map(self) -> np.ndarray:
        """IR-drop (Vdd - V) at every node, in volts."""
        return self.config.vdd - self.voltage

    @property
    def max_drop(self) -> float:
        """Maximum IR-drop in volts — the paper's headline metric."""
        return float(self.drop_map.max())

    @property
    def mean_drop(self) -> float:
        """Average IR-drop over the core, in volts."""
        return float(self.drop_map.mean())

    def worst_node(self) -> Tuple[int, int]:
        """Grid node suffering the maximum IR-drop."""
        flat_index = int(np.argmax(self.drop_map))
        return np.unravel_index(flat_index, self.voltage.shape)


class FDSolver:
    """Sparse direct solver for the power-grid equation.

    ``current_map`` (optional, shape ``(G, G)``) overrides the uniform
    per-node current draw of the compact model — real chips have hot blocks,
    and the Fig.-6 experiment exercises exactly that.
    """

    #: Factorizations kept per solver under ``factorize()`` (FIFO).
    FACTOR_CACHE_SIZE = 8

    def __init__(self, config: PowerGridConfig, current_map=None) -> None:
        self.config = config
        if current_map is not None:
            current_map = np.asarray(current_map, dtype=float)
            expected = (config.size, config.size)
            if current_map.shape != expected:
                raise PowerModelError(
                    f"current map shape {current_map.shape} != grid {expected}"
                )
            if (current_map < 0).any():
                raise PowerModelError("current map entries must be >= 0")
        self.current_map = current_map
        self._factorizations: dict = {}

    def factorize(self, pad_nodes: Iterable[Tuple[int, int]]):
        """Factor the grid once for *pad_nodes*; re-solve injections cheaply.

        Returns a :class:`repro.kernels.irsolve.GridFactorization` whose
        ``solve(current_map=None)`` defaults to this solver's current map.
        The factorization only depends on the pad set, so it is cached
        (FIFO, :attr:`FACTOR_CACHE_SIZE` entries) and reused across SA
        candidate evaluations that revisit the same pads.
        """
        from ..kernels.irsolve import GridFactorization

        key = tuple(sorted(set((int(x), int(y)) for x, y in pad_nodes)))
        cached = self._factorizations.get(key)
        if cached is None:
            cached = GridFactorization(self.config, key)
            cached.default_current_map = self.current_map
            if len(self._factorizations) >= self.FACTOR_CACHE_SIZE:
                self._factorizations.pop(next(iter(self._factorizations)))
            self._factorizations[key] = cached
        return cached

    def _solve_object(self, pad_nodes: Iterable[Tuple[int, int]]) -> IRDropResult:
        """Reference one-shot solve (Python-loop assembly + spsolve).

        ``factorize(pad_nodes).solve()`` is the production path and matches
        this within 1e-9; this independent assembly stays as the reference
        the ``irsolve_parity`` oracle and the tests compare against.
        """
        config = self.config
        g = config.size
        pads = sorted(set(tuple(node) for node in pad_nodes))
        if not pads:
            raise PowerModelError("at least one power pad node is required")
        for x, y in pads:
            if not (0 <= x < g and 0 <= y < g):
                raise PowerModelError(f"pad node ({x},{y}) outside {g}x{g} grid")

        pad_set = set(pads)
        unknown_index = {}
        for x in range(g):
            for y in range(g):
                if (x, y) not in pad_set:
                    unknown_index[(x, y)] = len(unknown_index)

        if not unknown_index:
            voltage = np.full((g, g), config.vdd)
            return IRDropResult(config=config, voltage=voltage, pad_nodes=pads)

        gx = 1.0 / config.r_sx
        gy = 1.0 / config.r_sy
        n = len(unknown_index)
        rows: List[int] = []
        cols: List[int] = []
        data: List[float] = []
        if self.current_map is None:
            rhs = np.full(n, -config.j0)
        else:
            rhs = np.array(
                [-self.current_map[x, y] for (x, y) in unknown_index],
                dtype=float,
            )

        for (x, y), row_index in unknown_index.items():
            diagonal = 0.0
            for dx, dy, conductance in (
                (1, 0, gx),
                (-1, 0, gx),
                (0, 1, gy),
                (0, -1, gy),
            ):
                nx, ny = x + dx, y + dy
                if not (0 <= nx < g and 0 <= ny < g):
                    continue  # chip edge: no current leaves the die
                diagonal += conductance
                if (nx, ny) in pad_set:
                    rhs[row_index] += conductance * config.vdd
                else:
                    rows.append(row_index)
                    cols.append(unknown_index[(nx, ny)])
                    data.append(-conductance)
            rows.append(row_index)
            cols.append(row_index)
            data.append(diagonal)

        matrix = csr_matrix((data, (rows, cols)), shape=(n, n))
        solution = spsolve(matrix, rhs)

        voltage = np.full((g, g), config.vdd, dtype=float)
        for (x, y), row_index in unknown_index.items():
            voltage[x, y] = solution[row_index]
        return IRDropResult(config=config, voltage=voltage, pad_nodes=pads)

    def solve_fractions(self, fractions: Sequence[float]) -> IRDropResult:
        """Solve with pads given as perimeter fractions in ``[0, 1)``."""
        nodes = [self.config.ring_node(fraction) for fraction in fractions]
        return self.factorize(nodes).solve()
