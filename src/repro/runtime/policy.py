"""Allocation policies (Section 3.4).

The paper's **communication-aware runtime management policy** "allocates
the physical blocks in a multi-round manner.  In the first round, it tries
to find a single physical FPGA that has a sufficient amount of physical
blocks...  It then increases the number of physical FPGAs in the following
rounds until a feasible allocation is found."  Within a round it prefers
board sets with the smallest ring span (fewest hops) and the tightest fit
(least leftover, to limit fragmentation).

The paper's 4-board platform tolerates evaluating every board subset per
round; a 64-board cluster does not (C(64, 4) is already ~600k subsets per
blocked request).  The default search is therefore an exact
branch-and-bound over the same key ``(span, leftover, subset)``:

- boards with zero free blocks are dropped up front (a subset containing
  one is either infeasible in round 1 or redundant with an earlier
  round, exactly the cases the exhaustive loop skipped);
- partial subsets are pruned by a capacity bound (the best remaining
  boards cannot reach the needed block count) and by a span lower bound
  (every further board adds at least one hop to every chosen board, so a
  partial span can already exceed the incumbent's);
- pruning only discards subsets whose key is *strictly* greater than the
  incumbent, so the minimum -- including its lexicographic tie-break --
  is the one the exhaustive enumeration would have produced (the
  equivalence property tests replay that enumeration as their oracle).

Two deliberately worse policies are provided for the ablation benches:
``FirstFitPolicy`` ignores board boundaries entirely and ``SpreadPolicy``
scatters blocks round-robin across boards (maximum communication).
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Protocol

import numpy as np

from repro.cluster.network import RingNetwork
from repro.compiler.bitstream import CompiledApp
from repro.runtime.types import BlockAddress, Placement

__all__ = [
    "AllocationPolicy",
    "CommunicationAwarePolicy",
    "FirstFitPolicy",
    "SpreadPolicy",
    "split_virtual_blocks",
]


class AllocationPolicy(Protocol):
    """Strategy interface: pick physical blocks for an application."""

    name: str

    def allocate(self, app: CompiledApp,
                 free_by_board: dict[int, list[int]],
                 network: RingNetwork) -> Placement | None:
        """Return a placement using currently free blocks, or ``None``
        when the application cannot be deployed right now."""
        ...


#: per-app state of the split kernel: the dense inter-block flow matrix
#: plus each block's total flow (the seed scores) as a float64 vector.
#: The profiler put ``split_virtual_blocks`` at the top of the hot-path
#: profile, and most of its time was rebuilding this state: every
#: deploy attempt of every queued request re-splits the same few
#: artifacts.  Both are a pure function of ``app.flows``, so they are
#: built once per app object.  Keyed by ``id()`` with the app held
#: strongly and identity-checked on lookup, so a recycled id can never
#: alias a different artifact; the LRU bound keeps long campaigns from
#: pinning dead apps.
_SPLIT_ARRAYS_CACHE: "OrderedDict[int, tuple]" = OrderedDict()
_SPLIT_ARRAYS_CACHE_MAX = 64
#: cold flow-matrix constructions, ever (tests pin cache reuse)
_flow_matrix_builds = 0
#: memoized group shapes: ``(app id, capacity tuple)`` -> per-block
#: quota index.  The greedy grouping depends only on the capacity
#: *sequence* and the app's flows -- board ids are opaque labels -- so
#: one entry serves every placement with the same shape (on a busy
#: cluster the winning boards vary constantly while the shapes repeat).
_SPLIT_RESULT_CACHE: "OrderedDict[tuple, tuple]" = OrderedDict()
_SPLIT_RESULT_CACHE_MAX = 1024
#: cold kernel runs, ever (tests pin shape-memo reuse)
_split_kernel_runs = 0


def _clear_split_caches() -> None:
    """Drop every split-path memo (flow matrices and shapes).

    Test hook: the white-box cache tests clear all layers at once so
    build counters start from a provably cold state.
    """
    _SPLIT_ARRAYS_CACHE.clear()
    _SPLIT_RESULT_CACHE.clear()


def _split_arrays(app: CompiledApp):
    """``(flow matrix, base scores)`` for ``app``, memoized.

    Flows between the same two blocks, in either direction, merge into
    one symmetric weight; self-flows never contribute to a cut and are
    dropped.  A block's base score sums its pair weights in first-seen
    pair order, the order the greedy's reference walk sums them in, so
    the scores are bit-equal to it.
    """
    global _flow_matrix_builds
    key = id(app)
    entry = _SPLIT_ARRAYS_CACHE.get(key)
    if entry is not None and entry[0] is app:
        _SPLIT_ARRAYS_CACHE.move_to_end(key)
        return entry[1], entry[2]
    _flow_matrix_builds += 1
    n = app.num_blocks
    weight: dict[tuple[int, int], float] = {}
    for (src, dst), bits in app.flows.items():
        if src != dst:
            pair = (min(src, dst), max(src, dst))
            weight[pair] = weight.get(pair, 0.0) + bits
    matrix = np.zeros((n, n), dtype=np.float64)
    base = [0.0] * n
    for (a, b), w in weight.items():
        matrix[a, b] = matrix[b, a] = w
        base[a] += w
        base[b] += w
    base_arr = np.asarray(base, dtype=np.float64)
    _SPLIT_ARRAYS_CACHE[key] = (app, matrix, base_arr)
    while len(_SPLIT_ARRAYS_CACHE) > _SPLIT_ARRAYS_CACHE_MAX:
        _SPLIT_ARRAYS_CACHE.popitem(last=False)
    return matrix, base_arr


def split_virtual_blocks(app: CompiledApp,
                         quotas: list[tuple[int, int]],
                         ) -> dict[int, int]:
    """Group an app's virtual blocks onto boards, minimizing cut flow.

    ``quotas`` is an ordered list of ``(board_id, capacity)``.  Greedy
    region growing over the app's inter-block flow graph: each board's
    group is seeded with the unassigned block of heaviest total flow,
    then grown by repeatedly pulling in the unassigned block with the
    strongest connection to the group, so heavy channels stay
    board-local.  Ties go to the lowest block index.

    The selection loop runs over flat score vectors and a dense flow
    matrix (:func:`_split_arrays`), takes an O(n) shortcut for
    single-board placements, and memoizes the group shape per
    ``(app, capacity sequence)``.  It is float-exact with the
    per-neighbor dict walk the equivalence suite replays as its oracle:
    each assignment applies exactly one ``-=`` / ``+=`` per score cell
    (non-neighbors move by zero, an IEEE no-op) in the walk's order, so
    every score the selection reads is bit-equal; and ``argmax`` over
    ``where(avail, score, -inf)`` returns the *first* maximum, the
    walk's ``max(..., key=(score, -v))`` tie-break.
    """
    global _split_kernel_runs
    n = app.num_blocks
    caps = tuple(q for _, q in quotas)
    if sum(caps) < n:
        raise ValueError("quotas cannot hold the application")
    key = (id(app), caps)
    entry = _SPLIT_RESULT_CACHE.get(key)
    if entry is not None and entry[0] is app:
        _SPLIT_RESULT_CACHE.move_to_end(key)
        groups = entry[1]
        return {vb: quotas[g][0] for vb, g in enumerate(groups)}
    _split_kernel_runs += 1
    if caps and caps[0] >= n:
        # single-board placement (the common case on an unsaturated
        # cluster): every region-growing pick lands on the one board,
        # so the scores never matter
        groups = [0] * n
    else:
        matrix, base = _split_arrays(app)
        unassigned_flow = base.copy()
        group_flow = np.zeros(n, dtype=np.float64)
        avail = np.ones(n, dtype=bool)
        groups = [0] * n
        left = n
        for g, (_board, quota) in enumerate(quotas):
            if not left:
                break
            group_flow[:] = 0.0
            for picked in range(min(quota, left)):
                score = group_flow if picked else unassigned_flow
                vb = int(np.argmax(np.where(avail, score, -np.inf)))
                avail[vb] = False
                groups[vb] = g
                row = matrix[vb]
                unassigned_flow -= row
                group_flow += row
                left -= 1
    _SPLIT_RESULT_CACHE[key] = (app, groups)
    while len(_SPLIT_RESULT_CACHE) > _SPLIT_RESULT_CACHE_MAX:
        _SPLIT_RESULT_CACHE.popitem(last=False)
    return {vb: quotas[g][0] for vb, g in enumerate(groups)}


def _best_fit_row(counts: "np.ndarray", needed: int) -> int | None:
    """Round 1 of the subset search over a free-count vector.

    Returns the index of the board with the least leftover after taking
    ``needed`` blocks, the lowest index on ties, or ``None`` when no
    board fits.  With boards in ascending id order this is the minimum
    of the search key ``(0, leftover, (board,))``.  One temporary:
    negative leftovers reinterpret as huge unsigned values, so
    ``argmin`` lands on the best fitting board (or, when nothing fits,
    a board the final check rejects).
    """
    j = int((counts - needed).view(np.uint64).argmin())
    return j if counts[j] >= needed else None


def _build_placement(app: CompiledApp,
                     quotas: list[tuple[int, int]],
                     free_by_board: dict[int, list[int]],
                     ) -> Placement:
    """Turn board quotas into a concrete virtual->physical mapping."""
    vb_to_board = split_virtual_blocks(app, quotas)
    cursor = {board: iter(sorted(free_by_board[board]))
              for board, _ in quotas}
    mapping: dict[int, BlockAddress] = {}
    for vb in sorted(vb_to_board):
        board = vb_to_board[vb]
        mapping[vb] = (board, next(cursor[board]))
    placement = Placement(mapping=mapping)
    placement.validate(app.num_blocks)
    return placement


class CommunicationAwarePolicy:
    """The paper's multi-round, span-minimizing policy.

    Round 1 (one board) is a single vectorized argmin over the free
    counts (:func:`_best_fit_row`); rounds ``k >= 2`` run the pruned
    branch-and-bound :meth:`_best_subset`.  The randomized equivalence
    tests replay both against the exhaustive enumeration.
    """

    name = "communication-aware"

    def __init__(self, max_boards: int | None = None) -> None:
        #: optional cap on placement span (boards per deployment).
        #: ``None`` -- the paper's unbounded multi-round search -- is
        #: byte-identical to the pre-cap policy.  A finite cap models
        #: operators who bound ring-crossing latency: requests whose
        #: blocks would have to scatter wider than ``max_boards`` are
        #: rejected instead, which is exactly the fragmentation
        #: pressure the defragmenter relieves.
        if max_boards is not None and max_boards < 1:
            raise ValueError("max_boards must be >= 1")
        self.max_boards = max_boards
        #: optional :class:`repro.obs.tracer.Tracer`; when set (and
        #: enabled) each successful ``allocate`` records rounds
        #: attempted and subsets visited vs. pruned -- the
        #: search-effort telemetry the scalability claims lean on.
        #: ``None`` costs one falsy check per call.
        self.tracer = None
        #: failed-search telemetry ``(reason, rounds, visited,
        #: pruned)``, refreshed on every tracing failure.  A saturated
        #: loop rejects the queue head on every event, so failures
        #: deposit a tuple here instead of a trace entry of their own;
        #: the controller folds it into its single ``ctrl.reject``
        #: event.
        self.last_search: tuple | None = None

    def allocate(self, app: CompiledApp,
                 free_by_board: dict[int, list[int]],
                 network: RingNetwork) -> Placement | None:
        needed = app.num_blocks
        free = {b: len(free_by_board[b]) for b in sorted(free_by_board)}
        present = [b for b, count in free.items() if count > 0]
        if sum(free[b] for b in present) < needed:
            if self.tracer:
                self.last_search = ("insufficient-capacity", 0, 0, 0)
            return None
        # [visited, pruned] node counters, collected only when tracing
        stats = [0, 0] if self.tracer else None
        limit = len(present) if self.max_boards is None \
            else min(len(present), self.max_boards)
        for round_k in range(1, limit + 1):
            if round_k == 1:
                best = self._best_single(present, free, needed, stats)
            else:
                best = self._best_subset(present, free, needed,
                                         round_k, network, stats=stats)
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

    @staticmethod
    def _best_single(present: list[int], free: dict[int, int],
                     needed: int, stats: list[int] | None = None,
                     ) -> tuple[int, int, tuple[int, ...]] | None:
        """Round 1 of :meth:`_best_subset`, vectorized, counter-exact.

        The branch-and-bound never span-prunes a single-board round
        (the floor is 0), so it visits every board and prunes exactly
        the ones that fail the fit test.
        """
        free_arr = np.fromiter((free[b] for b in present),
                               dtype=np.int64, count=len(present))
        if stats is not None:
            stats[0] += len(present)
            stats[1] += int((free_arr < needed).sum())
        j = _best_fit_row(free_arr, needed)
        if j is None:
            return None
        return (0, int(free_arr[j]) - needed, (present[j],))

    @staticmethod
    def _best_subset(present: list[int], free: dict[int, int],
                     needed: int, k: int, network: RingNetwork,
                     stats: list[int] | None = None,
                     ) -> tuple[int, int, tuple[int, ...]] | None:
        """Minimum-key feasible ``k``-subset of ``present`` boards.

        Depth-first enumeration in lexicographic order (so equal-key
        subsets resolve exactly like the exhaustive ``min``), with two
        sound prunes -- see the module docstring.  ``stats`` (tracing
        only) accumulates ``[nodes visited, nodes pruned]``; ``None``
        keeps the search loop free of counting work.
        """
        n = len(present)
        if k > n:
            return None
        # suffix_max[i]: most free blocks on any of present[i:]
        suffix_max = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            suffix_max[i] = max(free[present[i]], suffix_max[i + 1])
        dist = network._dist
        best: tuple[int, int, tuple[int, ...]] | None = None
        chosen: list[int] = []

        def extend(start: int, capacity: int, span: int) -> None:
            nonlocal best
            remaining = k - len(chosen)
            if remaining == 0:
                if capacity < needed:
                    return
                # int() keeps the tie-break key type identical to the
                # exhaustive search's (and JSON-safe): the distance
                # matrix hands out numpy scalars
                key = (int(span), int(capacity - needed), tuple(chosen))
                if best is None or key < best:
                    best = key
                return
            for i in range(start, n - remaining + 1):
                board = present[i]
                if stats is not None:
                    stats[0] += 1
                # capacity bound: even the best boards after ``i``
                # cannot close the gap
                if capacity + free[board] \
                        + (remaining - 1) * suffix_max[i + 1] < needed:
                    if stats is not None:
                        stats[1] += 1
                    continue
                added = span
                for member in chosen:
                    added += int(dist[member, board])
                if best is not None:
                    # span bound: each of the remaining boards adds at
                    # least one hop to every board already chosen and to
                    # each other; skipping is sound only on a strict
                    # excess (an equal bound could still win on the
                    # leftover tie-break)
                    chosen_after = len(chosen) + 1
                    floor = added + (remaining - 1) * chosen_after \
                        + (remaining - 1) * (remaining - 2) // 2
                    if floor > best[0]:
                        if stats is not None:
                            stats[1] += 1
                        continue
                chosen.append(board)
                extend(i + 1, capacity + free[board], added)
                chosen.pop()

        extend(0, 0, 0)
        return best

    def allocate_fast(self, app: CompiledApp, db, network: RingNetwork,
                      excluded=()) -> Placement | None:
        """Untraced hot path straight over the ResourceDB's flat arrays.

        Skips building the per-board free-list candidate map entirely:
        the round search runs on the database's live free-count vector
        (with ``excluded`` boards masked out), and the concrete free
        lists are materialized only for the boards the winning quotas
        actually use.  Produces exactly the placement :meth:`allocate`
        would on the equivalent candidate map -- the controller only
        takes this path when no tracer is attached, so the traced
        telemetry (and golden traces) are untouched.
        """
        needed = app.num_blocks
        counts = db.free_counts_vector()
        if excluded:
            counts = counts.copy()
            for board in excluded:
                counts[db.board_row(board)] = 0
        elif db.total_free_blocks() < needed:
            return None
        # round 1 inline: the overwhelming outcome on a big unsaturated
        # cluster.  Zero-count rows never fit, so searching every row
        # picks the same board as searching the present ones, and the
        # single-quota placement is built directly -- virtual block i
        # onto the board's i-th lowest free block, exactly what
        # _build_placement's cursor walk assigns.
        j = _best_fit_row(counts, needed)
        if j is not None:
            board = int(db.board_ids_array()[j])
            blocks = db.free_by_board_one(board)
            return Placement(mapping={
                vb: (board, blocks[vb]) for vb in range(needed)})
        present_rows = np.nonzero(counts)[0]
        free_arr = counts[present_rows]
        if int(free_arr.sum()) < needed:
            return None
        present = db.board_ids_array()[present_rows].tolist()
        free = dict(zip(present, free_arr.tolist()))
        limit = len(present) if self.max_boards is None \
            else min(len(present), self.max_boards)
        for round_k in range(2, limit + 1):
            best = self._best_subset(present, free, needed, round_k,
                                     network)
            if best is None:
                continue
            quotas = self._quotas(best[2], free, needed)
            free_by_board = {board: db.free_by_board_one(board)
                             for board, _ in quotas}
            return _build_placement(app, quotas, free_by_board)
        return None

    @staticmethod
    def _quotas(subset: tuple[int, ...], free: dict[int, int],
                needed: int) -> list[tuple[int, int]]:
        """Fill the fullest boards first so leftovers concentrate."""
        order = sorted(subset, key=lambda b: (-free[b], b))
        quotas = []
        remaining = needed
        for board in order:
            take = min(free[board], remaining)
            if take > 0:
                quotas.append((board, take))
                remaining -= take
        return quotas


class FirstFitPolicy:
    """Ablation: grab free blocks in address order, boards ignored."""

    name = "first-fit"

    def allocate(self, app: CompiledApp,
                 free_by_board: dict[int, list[int]],
                 network: RingNetwork) -> Placement | None:
        needed = app.num_blocks
        pool: list[BlockAddress] = [
            (board, block)
            for board in sorted(free_by_board)
            for block in sorted(free_by_board[board])]
        if len(pool) < needed:
            return None
        chosen = pool[:needed]
        quotas: list[tuple[int, int]] = []
        for board in sorted({b for b, _ in chosen}):
            quotas.append((board, sum(1 for bb, _ in chosen
                                      if bb == board)))
        chosen_by_board = {
            board: [blk for bb, blk in chosen if bb == board]
            for board, _ in quotas}
        return _build_placement(app, quotas, chosen_by_board)


class SpreadPolicy:
    """Ablation: round-robin blocks across boards (max communication)."""

    name = "spread"

    def allocate(self, app: CompiledApp,
                 free_by_board: dict[int, list[int]],
                 network: RingNetwork) -> Placement | None:
        needed = app.num_blocks
        pools = {b: sorted(blocks)
                 for b, blocks in free_by_board.items() if blocks}
        if sum(len(p) for p in pools.values()) < needed:
            return None
        taken: dict[int, list[int]] = {b: [] for b in pools}
        boards_cycle = itertools.cycle(sorted(pools))
        count = 0
        while count < needed:
            board = next(boards_cycle)
            if pools[board]:
                taken[board].append(pools[board].pop(0))
                count += 1
        quotas = [(b, len(blks)) for b, blks in sorted(taken.items())
                  if blks]
        chosen_by_board = {b: blks for b, blks in taken.items() if blks}
        return _build_placement(app, quotas, chosen_by_board)
