"""Tests for the quadratic placement loop (Section 4.2)."""

import json
import random
from unittest import mock

import pytest

from repro.compiler.packing import GreedyPacker
from repro.compiler.placement import BlockGrid, QuadraticPlacer
from repro.fabric.resources import ResourceVector
from repro.hls.kernels import benchmark
from repro.netlist.netlist import Netlist, PortDirection
from repro.netlist.primitives import PrimitiveType

from tests.oracles import ReferencePlacer


def pipeline_netlist(n_stage=24, width=32):
    nl = Netlist("pipe")
    prims = [nl.add_primitive(PrimitiveType.LUT) for _ in range(n_stage)]
    for a, b in zip(prims, prims[1:]):
        nl.add_net(a, [b], width_bits=width)
    inp = nl.add_port("in", PortDirection.INPUT, width)
    out = nl.add_port("out", PortDirection.OUTPUT, width)
    nl.add_net(inp.primitive_uid, [prims[0]], width_bits=width)
    nl.add_net(prims[-1], [out.primitive_uid], width_bits=width)
    return nl


class TestBlockGrid:
    def test_grid_shape_square_ish(self):
        grid = BlockGrid(num_blocks=6, capacity=ResourceVector(lut=10))
        assert grid.cols == 3 and grid.rows == 2

    def test_single_block(self):
        grid = BlockGrid(num_blocks=1, capacity=ResourceVector(lut=10))
        assert grid.center(0) == (0.5, 0.5)

    def test_center_out_of_range(self):
        grid = BlockGrid(num_blocks=4, capacity=ResourceVector(lut=10))
        with pytest.raises(IndexError):
            grid.center(4)

    def test_nearest_block_clamps(self):
        grid = BlockGrid(num_blocks=4, capacity=ResourceVector(lut=10))
        assert grid.nearest_block(-5.0, -5.0) == 0
        assert grid.nearest_block(100.0, 100.0) == 3

    def test_nearest_block_ragged_last_row(self):
        grid = BlockGrid(num_blocks=5, capacity=ResourceVector(lut=10))
        # a point over the missing cell maps to a real block
        assert 0 <= grid.nearest_block(2.5, 1.5) < 5

    def test_neighbors_interior(self):
        grid = BlockGrid(num_blocks=9, capacity=ResourceVector(lut=10))
        assert sorted(grid.neighbors(4)) == [1, 3, 5, 7]

    def test_neighbors_corner(self):
        grid = BlockGrid(num_blocks=9, capacity=ResourceVector(lut=10))
        assert sorted(grid.neighbors(0)) == [1, 3]


class TestQuadraticPlacer:
    def test_all_clusters_assigned_within_grid(self):
        nl = pipeline_netlist()
        cap = ResourceVector(lut=4, dff=4)
        clusters = GreedyPacker(cap, seed=1).pack(nl)
        grid = BlockGrid(num_blocks=4, capacity=ResourceVector(lut=10,
                                                               dff=10))
        result = QuadraticPlacer(grid, seed=1).place(clusters, nl)
        assert set(result.assignment) == {c.uid for c in clusters}
        assert all(0 <= b < 4 for b in result.assignment.values())

    def test_capacity_respected_after_legalization(self):
        nl = pipeline_netlist(n_stage=40)
        cap = ResourceVector(lut=4, dff=4)
        clusters = GreedyPacker(cap, seed=2).pack(nl)
        block_cap = ResourceVector(lut=14, dff=14)
        grid = BlockGrid(num_blocks=4, capacity=block_cap)
        result = QuadraticPlacer(grid, seed=2).place(clusters, nl)
        usage = {b: ResourceVector.zero() for b in range(4)}
        by_uid = {c.uid: c for c in clusters}
        for uid, b in result.assignment.items():
            usage[b] = usage[b] + by_uid[uid].resources
        for b, u in usage.items():
            assert u.fits_in(block_cap), (b, u)

    def test_gap_converges_or_max_iterations(self):
        nl = pipeline_netlist(n_stage=48)
        cap = ResourceVector(lut=4, dff=4)
        clusters = GreedyPacker(cap, seed=3).pack(nl)
        grid = BlockGrid(num_blocks=6, capacity=ResourceVector(lut=12,
                                                               dff=12))
        placer = QuadraticPlacer(grid, seed=3)
        result = placer.place(clusters, nl)
        assert result.gap <= placer.gap_target \
            or result.iterations == placer.max_iterations

    def test_pipeline_ordered_left_to_right(self):
        """IO anchoring pulls the chain input-side left, output right."""
        nl = pipeline_netlist(n_stage=30)
        cap = ResourceVector(lut=3, dff=3)
        clusters = GreedyPacker(cap, seed=4).pack(nl)
        grid = BlockGrid(num_blocks=4, capacity=ResourceVector(lut=12,
                                                               dff=12))
        result = QuadraticPlacer(grid, seed=4).place(clusters, nl)
        # compare early-chain vs late-chain stage positions (the IO pads
        # themselves may share a merged cluster, so probe interior nodes)
        chain = [uid for uid, p in nl.primitives.items()
                 if not p.is_io()]
        early = next(c for c in clusters if chain[2] in c.members)
        late = next(c for c in clusters if chain[-3] in c.members)
        assert early.uid != late.uid
        assert result.positions[early.uid][0] \
            < result.positions[late.uid][0]

    def test_empty_clusters_rejected(self):
        grid = BlockGrid(num_blocks=2, capacity=ResourceVector(lut=10))
        with pytest.raises(ValueError):
            QuadraticPlacer(grid).place([], Netlist())

    def test_deterministic(self):
        nl = pipeline_netlist()
        cap = ResourceVector(lut=4, dff=4)
        grid = BlockGrid(num_blocks=4, capacity=ResourceVector(lut=10,
                                                               dff=10))
        r1 = QuadraticPlacer(grid, seed=9).place(
            GreedyPacker(cap, seed=9).pack(nl), nl)
        r2 = QuadraticPlacer(grid, seed=9).place(
            GreedyPacker(cap, seed=9).pack(nl), nl)
        assert r1.assignment == r2.assignment

    def test_isolated_cluster_handled(self):
        """A netlist with a disconnected primitive must still place."""
        nl = pipeline_netlist(n_stage=10)
        nl.add_primitive(PrimitiveType.LUT)  # no nets
        cap = ResourceVector(lut=3, dff=3)
        clusters = GreedyPacker(cap, seed=5).pack(nl)
        grid = BlockGrid(num_blocks=4, capacity=ResourceVector(lut=8,
                                                               dff=8))
        result = QuadraticPlacer(grid, seed=5).place(clusters, nl)
        assert len(result.assignment) == len(clusters)


def mixed_netlist(n_prim=80, seed=0):
    """A chain of LUT/FF/DSP/BRAM primitives plus random shortcut nets;
    BRAM's 0.036 Mb makes the per-block usage sums round."""
    rng = random.Random(seed)
    kinds = (PrimitiveType.LUT, PrimitiveType.LUT, PrimitiveType.FF,
             PrimitiveType.FF, PrimitiveType.DSP, PrimitiveType.BRAM)
    nl = Netlist("mixed")
    prims = [nl.add_primitive(rng.choice(kinds)) for _ in range(n_prim)]
    for a, b in zip(prims, prims[1:]):
        nl.add_net(a, [b], width_bits=16)
    for _ in range(n_prim // 2):
        a, b = rng.sample(prims, 2)
        nl.add_net(a, [b], width_bits=rng.choice((1, 8, 32)))
    inp = nl.add_port("in", PortDirection.INPUT, 16)
    out = nl.add_port("out", PortDirection.OUTPUT, 16)
    nl.add_net(inp.primitive_uid, [prims[0]], width_bits=16)
    nl.add_net(prims[-1], [out.primitive_uid], width_bits=16)
    return nl


def place_with(placer_cls, nl, num_blocks, capacity, seed,
               aspect_ratio=1.0):
    clusters = GreedyPacker(capacity * 0.25, seed=seed).pack(nl)
    grid = BlockGrid(num_blocks=num_blocks, capacity=capacity,
                     aspect_ratio=aspect_ratio)
    placer = placer_cls(grid, seed=seed)
    return placer.place(clusters, nl), placer.rng.getstate()


class TestLegalizationMatchesOracle:
    """The O(1)-per-move legalization against the full-rescan one in
    ``tests/oracles.py``: same result and same random stream."""

    @staticmethod
    def headroom_capacity(nl, num_blocks, factor):
        return nl.resource_usage() * (factor / num_blocks)

    @pytest.mark.parametrize("num_blocks, factor, aspect, seed", [
        (1, 1.2, 1.0, 0),      # every move is a no-op
        (5, 1.2, 1.0, 1),      # ragged last row
        (7, 1.2, 1.0, 2),      # ragged last row
        (10, 1.2, 1.0, 3),
        (6, 1.2, 2.0, 4),      # aspect_ratio != 1
        (4, 1.0, 1.0, 5),      # tight: most moves overflow and are rejected
        # over-full: several blocks overflow at once, so summing their
        # terms out of block order changes the random stream
        (10, 0.8, 1.0, 1),
        (12, 0.8, 1.0, 0),
    ])
    def test_same_placement_and_rng_state(self, num_blocks, factor,
                                          aspect, seed):
        nl = mixed_netlist(seed=seed)
        cap = self.headroom_capacity(nl, num_blocks, factor)
        got, got_state = place_with(QuadraticPlacer, nl, num_blocks, cap,
                                    seed, aspect)
        want, want_state = place_with(ReferencePlacer, nl, num_blocks,
                                      cap, seed, aspect)
        assert got.assignment == want.assignment
        assert got.positions == want.positions
        assert got.qp_wirelength == want.qp_wirelength
        assert got.legal_wirelength == want.legal_wirelength
        assert got.iterations == want.iterations
        assert got_state == want_state

    def test_zero_capacity_component(self):
        """Demand on a component with zero capacity costs penalty * inf."""
        nl = mixed_netlist(seed=6)
        cap = self.headroom_capacity(nl, 4, 1.2)
        cap = ResourceVector(cap.lut, cap.dff, 0.0, cap.bram_mb)
        packing_cap = ResourceVector(cap.lut, cap.dff, 4.0, cap.bram_mb)
        clusters = GreedyPacker(packing_cap * 0.25, seed=6).pack(nl)
        assert any(c.resources.dsp for c in clusters)
        grid = BlockGrid(num_blocks=4, capacity=cap)
        placers = [cls(grid, seed=6)
                   for cls in (QuadraticPlacer, ReferencePlacer)]
        got, want = (p.place(clusters, nl) for p in placers)
        assert got.assignment == want.assignment
        assert got.positions == want.positions
        assert got.legal_wirelength == want.legal_wirelength
        assert placers[0].rng.getstate() == placers[1].rng.getstate()

    @pytest.mark.parametrize("family, size, blocks", [
        ("mlp-mnist", "S", 1), ("lenet5", "M", 5), ("svhn", "L", 10)])
    def test_compiled_artifacts_identical(self, flow, family, size,
                                          blocks):
        spec = benchmark(family, size)
        app = flow.compile(spec)
        with mock.patch("repro.compiler.partitioner.QuadraticPlacer",
                        ReferencePlacer):
            reference = flow.compile(spec)
        assert app.num_blocks == blocks
        assert json.dumps(app.to_dict(), sort_keys=True) \
            == json.dumps(reference.to_dict(), sort_keys=True)
