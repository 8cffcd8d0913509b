"""Reference implementations the differential suites compare against.

Each oracle is the original, unoptimized form of a layer that ``src/``
now runs in one optimized implementation.  They live here, not behind
run-time switches, and are kept deliberately plain:

- :class:`HeapEventQueue` -- a single stable heap, ordered by (time,
  insertion order), with no arrival cohorts;
  :func:`heap_event_engine` runs ``run_experiment`` on it;
- :class:`ScalarPolicy` -- the communication-aware policy with every
  round, round 1 included, on the scalar branch-and-bound;
- :class:`ExhaustivePolicy` -- every board subset of every round;
- :class:`RescanResourceDB` -- every query rescans the block table;
- :func:`scalar_split` -- the dict/set walk of the block-split greedy;
- :class:`ReferencePlacer` -- SA legalization that rescans every block's
  overflow and calls ``randrange`` on every move;
- :func:`vector_slice_resources` -- a die slice's resources summed as one
  :class:`ResourceVector` per column.
"""

from __future__ import annotations

import heapq
import itertools
import math
from contextlib import contextmanager
from typing import Any
from unittest import mock

import numpy as np

from repro.compiler.packing import Cluster
from repro.compiler.placement import QuadraticPlacer
from repro.fabric.device import TILE_YIELD, Die
from repro.fabric.resources import ResourceVector
from repro.runtime.policy import CommunicationAwarePolicy, \
    _build_placement
from repro.runtime.resource_db import BlockState, ResourceDB
from repro.runtime.types import BlockAddress


class HeapEventQueue:
    """Stable min-heap of events ordered by (time, insertion order)."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, str, Any]] = []
        self._seq = 0

    def push(self, time: float, kind: str, payload: Any = None) -> None:
        if time < 0:
            raise ValueError("event time must be non-negative")
        heapq.heappush(self._heap, (time, self._seq, kind, payload))
        self._seq += 1

    def push_many(self, items) -> None:
        for time, kind, payload in items:
            self.push(time, kind, payload)

    def pop3(self) -> tuple[float, str, Any]:
        if not self._heap:
            raise IndexError("pop from empty event queue")
        time, _, kind, payload = heapq.heappop(self._heap)
        return time, kind, payload

    def pop_arrival_run(self) -> list:
        """Never batches: the experiment loop then admits one arrival
        per pop, the path that predates arrival cohorts."""
        return []

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


@contextmanager
def heap_event_engine():
    """Run ``run_experiment`` on :class:`HeapEventQueue` inside the
    ``with`` block."""
    with mock.patch("repro.sim.experiment.EventQueue", HeapEventQueue):
        yield


class ScalarPolicy(CommunicationAwarePolicy):
    """Round 1 on the scalar branch-and-bound as well.

    Being a subclass, it also keeps the controller off the
    ``allocate_fast`` path.
    """

    def allocate(self, app, free_by_board, network):
        needed = app.num_blocks
        boards = sorted(free_by_board)
        free = {b: len(free_by_board[b]) for b in boards}
        present = [b for b in boards if free[b] > 0]
        if sum(free[b] for b in present) < needed:
            if self.tracer:
                self.last_search = ("insufficient-capacity", 0, 0, 0)
            return None
        stats = [0, 0] if self.tracer else None
        limit = len(present) if self.max_boards is None \
            else min(len(present), self.max_boards)
        for round_k in range(1, limit + 1):
            best = self._best_subset(present, free, needed, round_k,
                                     network, stats=stats)
            if best is None:
                continue
            _, _, subset = best
            if self.tracer:
                self.tracer.event(
                    "policy.allocate", app=app.name, needed=needed,
                    found=True, rounds=round_k, boards=subset,
                    span=best[0], leftover=best[1],
                    visited=stats[0], pruned=stats[1])
            quotas = self._quotas(subset, free, needed)
            return _build_placement(app, quotas, free_by_board)
        if self.tracer:
            self.last_search = ("no-feasible-subset", len(present),
                                stats[0], stats[1])
        return None


class ExhaustivePolicy(CommunicationAwarePolicy):
    """Brute-force enumeration: every subset of every round."""

    def allocate(self, app, free_by_board, network):
        needed = app.num_blocks
        boards = sorted(free_by_board)
        free = {b: len(free_by_board[b]) for b in boards}
        visited = 0
        limit = len(boards) if self.max_boards is None \
            else min(len(boards), self.max_boards)
        for round_k in range(1, limit + 1):
            best: tuple[int, int, tuple[int, ...]] | None = None
            for subset in itertools.combinations(boards, round_k):
                visited += 1
                capacity = sum(free[b] for b in subset)
                if capacity < needed:
                    continue
                # every board of the subset must contribute, otherwise
                # the same placement exists in an earlier round
                if round_k > 1 and any(free[b] == 0 for b in subset):
                    continue
                key = (int(network.span_cost(list(subset))),
                       int(capacity - needed), subset)
                if best is None or key < best:
                    best = key
            if best is None:
                continue
            _, _, subset = best
            if self.tracer:
                self.tracer.event(
                    "policy.allocate", app=app.name, needed=needed,
                    found=True, rounds=round_k, boards=subset,
                    span=best[0], leftover=best[1],
                    visited=visited, pruned=0)
            quotas = self._quotas(subset, free, needed)
            return _build_placement(app, quotas, free_by_board)
        if self.tracer:
            self.last_search = ("no-feasible-subset", len(boards),
                                visited, 0)
        return None


class RescanResourceDB(ResourceDB):
    """Every query rescans ``_entries``, as the original database did.

    Transitions still maintain the indices, so the two implementations
    can be compared in place.
    """

    def free_blocks(self) -> list[BlockAddress]:
        return [a for a, e in self._entries.items()
                if e.state is BlockState.FREE]

    def free_by_board(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {
            b.board_id: [] for b in self.cluster.boards}
        for (board, block), entry in self._entries.items():
            if entry.state is BlockState.FREE:
                out[board].append(block)
        return out

    def allocated_count(self) -> int:
        return sum(1 for e in self._entries.values()
                   if e.state is BlockState.ALLOCATED)

    def failed_count(self) -> int:
        return sum(1 for e in self._entries.values()
                   if e.state is BlockState.FAILED)

    def failed_boards(self) -> set[int]:
        return {board for (board, _), e in self._entries.items()
                if e.state is BlockState.FAILED}

    def blocks_of(self, request_id: int) -> list[BlockAddress]:
        return [a for a, e in self._entries.items()
                if e.owner == request_id]

    def release(self, request_id: int) -> list[BlockAddress]:
        # pay the original scan cost, then transition through the
        # index-maintaining path so both representations stay usable
        self.blocks_of(request_id)
        return super().release(request_id)


def flow_adjacency(app):
    """``(adjacency, base scores)``: each block's ``(neighbor, weight)``
    list, and the sum of its weights in that list's order."""
    n = app.num_blocks
    adjacency: dict[int, list[tuple[int, float]]] = {
        vb: [] for vb in range(n)}
    weight: dict[tuple[int, int], float] = {}
    for (src, dst), bits in app.flows.items():
        if src == dst:
            continue
        pair = (min(src, dst), max(src, dst))
        weight[pair] = weight.get(pair, 0.0) + bits
    for (a, b), w in weight.items():
        adjacency[a].append((b, w))
        adjacency[b].append((a, w))
    return adjacency, [sum(w for _, w in adjacency[vb]) for vb in range(n)]


def scalar_split(app, quotas: list[tuple[int, int]]) -> dict[int, int]:
    """The block-split greedy as a per-neighbor dict/set walk."""
    n = app.num_blocks
    if sum(q for _, q in quotas) < n:
        raise ValueError("quotas cannot hold the application")
    adjacency, base = flow_adjacency(app)
    #: flow from each block into the still-unassigned set (seed score)
    unassigned_flow = dict(enumerate(base))
    #: flow from each unassigned block into the group being grown
    group_flow = {vb: 0.0 for vb in range(n)}
    unassigned = set(range(n))
    assignment: dict[int, int] = {}
    for board_id, quota in quotas:
        if not unassigned:
            break
        for vb in unassigned:
            group_flow[vb] = 0.0
        for picked in range(min(quota, len(unassigned))):
            score = group_flow if picked else unassigned_flow
            vb = max(unassigned, key=lambda v: (score[v], -v))
            unassigned.discard(vb)
            assignment[vb] = board_id
            for other, w in adjacency[vb]:
                unassigned_flow[other] -= w
                group_flow[other] += w
    return assignment


class ReferencePlacer(QuadraticPlacer):
    """The legalization that rescans every block's overflow per move."""

    def _legalize(self, clusters: list[Cluster], positions: np.ndarray,
                  edges: dict[tuple[int, int], float]) -> list[int]:
        """SA legalization with the Eq. 3 cost, then greedy refinement.

        The inner loop runs ``sa_moves`` times per placement iteration and
        dominated the whole compile in profiles, almost entirely in
        :class:`ResourceVector` allocation and property recomputation.  It
        therefore works on flat per-component float arrays, performing the
        exact same IEEE operations in the same order as the vector algebra
        it replaces -- accept/reject decisions, and hence results, are
        bit-identical to the original formulation.
        """
        n = len(clusters)
        grid = self.grid
        num_blocks = grid.num_blocks
        cols = grid.cols
        aspect = grid.aspect_ratio
        penalty = self.overflow_penalty
        rng = self.rng
        inf = math.inf

        # per-block cell centers and per-cluster demand/position, unpacked
        # once so the loop touches only local floats
        cx = [b % cols + 0.5 for b in range(num_blocks)]
        cy = [b // cols + 0.5 for b in range(num_blocks)]
        px = [float(positions[i][0]) for i in range(n)]
        py = [float(positions[i][1]) for i in range(n)]
        r_lut = [c.resources.lut for c in clusters]
        r_dff = [c.resources.dff for c in clusters]
        r_dsp = [c.resources.dsp for c in clusters]
        r_bram = [c.resources.bram_mb for c in clusters]
        cap = grid.capacity
        cap_lut, cap_dff = cap.lut, cap.dff
        cap_dsp, cap_bram = cap.dsp, cap.bram_mb

        assignment = [grid.nearest_block(px[i], py[i]) for i in range(n)]
        u_lut = [0.0] * num_blocks
        u_dff = [0.0] * num_blocks
        u_dsp = [0.0] * num_blocks
        u_bram = [0.0] * num_blocks
        for i, b in enumerate(assignment):
            u_lut[b] += r_lut[i]
            u_dff[b] += r_dff[i]
            u_dsp[b] += r_dsp[i]
            u_bram[b] += r_bram[i]

        def overflow_term() -> float:
            # mirrors ResourceVector.fits_in / utilization_of, component
            # order preserved (lut, dff, dsp, bram) for identical floats
            total = 0.0
            for b in range(num_blocks):
                lut, dff = u_lut[b], u_dff[b]
                dsp, bram = u_dsp[b], u_bram[b]
                if (lut <= cap_lut and dff <= cap_dff
                        and dsp <= cap_dsp and bram <= cap_bram):
                    continue
                worst = 0.0
                if lut != 0:
                    if cap_lut == 0:
                        total += penalty * inf
                        continue
                    worst = max(worst, lut / cap_lut)
                if dff != 0:
                    if cap_dff == 0:
                        total += penalty * inf
                        continue
                    worst = max(worst, dff / cap_dff)
                if dsp != 0:
                    if cap_dsp == 0:
                        total += penalty * inf
                        continue
                    worst = max(worst, dsp / cap_dsp)
                if bram != 0:
                    if cap_bram == 0:
                        total += penalty * inf
                        continue
                    worst = max(worst, bram / cap_bram)
                total += penalty * worst
            return total / num_blocks

        def move_term(i: int, b: int) -> float:
            return (aspect * abs(cx[b] - px[i]) + abs(cy[b] - py[i])) / n

        move_total = 0.0
        for i in range(n):
            move_total += move_term(i, assignment[i])
        cost = move_total + overflow_term()

        temperature = self.sa_t0
        cooling = 0.995
        for _ in range(self.sa_moves):
            i = rng.randrange(n)
            old_b = assignment[i]
            new_b = rng.randrange(num_blocks)
            if new_b == old_b:
                continue
            lut, dff, dsp, bram = r_lut[i], r_dff[i], r_dsp[i], r_bram[i]
            u_lut[old_b] -= lut
            u_dff[old_b] -= dff
            u_dsp[old_b] -= dsp
            u_bram[old_b] -= bram
            u_lut[new_b] += lut
            u_dff[new_b] += dff
            u_dsp[new_b] += dsp
            u_bram[new_b] += bram
            new_move_total = (move_total - move_term(i, old_b)
                              + move_term(i, new_b))
            new_cost = new_move_total + overflow_term()
            delta = new_cost - cost
            if delta <= 0 or rng.random() < math.exp(
                    -delta / max(temperature, 1e-9)):
                assignment[i] = new_b
                move_total = new_move_total
                cost = new_cost
            else:
                u_lut[old_b] += lut
                u_dff[old_b] += dff
                u_dsp[old_b] += dsp
                u_bram[old_b] += bram
                u_lut[new_b] -= lut
                u_dff[new_b] -= dff
                u_dsp[new_b] -= dsp
                u_bram[new_b] -= bram
            temperature *= cooling

        usage = [ResourceVector(u_lut[b], u_dff[b], u_dsp[b], u_bram[b])
                 for b in range(num_blocks)]
        self._refine(clusters, assignment, usage, edges)
        return assignment


def vector_slice_resources(die: Die, tile_rows: int,
                           columns: "slice | list[int] | None" = None,
                           ) -> ResourceVector:
    """``Die.resources_of_slice`` as a sum of per-column vectors."""
    if columns is None:
        kinds = die.columns
    elif isinstance(columns, slice):
        kinds = die.columns[columns]
    else:
        kinds = tuple(die.columns[i] for i in columns)
    total = ResourceVector.zero()
    for kind in kinds:
        total = total + TILE_YIELD[kind] * tile_rows
    return total
