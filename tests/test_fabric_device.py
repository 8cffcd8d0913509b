"""Tests for the column-based device model."""

import pytest

from repro.fabric.device import (
    ColumnSpec,
    ColumnType,
    Die,
    FPGADevice,
    TILE_YIELD,
    expand_pattern,
)
from repro.fabric.devices import make_vu13p, make_xcvu37p
from repro.fabric.resources import ResourceVector

from tests.oracles import vector_slice_resources


def small_die(index=0, rows=24, cr_rows=2):
    columns = expand_pattern([
        ColumnSpec(ColumnType.CLB, 8),
        ColumnSpec(ColumnType.DSP, 1),
        ColumnSpec(ColumnType.CLB, 8),
        ColumnSpec(ColumnType.BRAM, 1),
    ])
    return Die(index=index, columns=columns, tile_rows=rows,
               clock_region_rows=cr_rows)


class TestColumnSpec:
    def test_rejects_empty_run(self):
        with pytest.raises(ValueError):
            ColumnSpec(ColumnType.CLB, 0)

    def test_expand_pattern_order(self):
        cols = expand_pattern([ColumnSpec(ColumnType.CLB, 2),
                               ColumnSpec(ColumnType.DSP, 1)])
        assert cols == (ColumnType.CLB, ColumnType.CLB, ColumnType.DSP)


class TestDie:
    def test_rows_must_divide_clock_regions(self):
        with pytest.raises(ValueError):
            small_die(rows=25, cr_rows=2)

    def test_rows_per_clock_region(self):
        assert small_die(rows=24, cr_rows=2).rows_per_clock_region == 12

    def test_clock_regions_tile_the_die(self):
        die = small_die()
        regions = die.clock_regions()
        assert len(regions) == die.clock_region_rows
        assert regions[0].first_tile_row == 0
        assert regions[-1].last_tile_row == die.tile_rows - 1

    def test_column_indices(self):
        die = small_die()
        assert die.column_indices(ColumnType.DSP) == [8]
        assert die.column_indices(ColumnType.BRAM) == [17]

    def test_resources_of_slice_full_width(self):
        die = small_die()
        res = die.resources_of_slice(1)
        assert res.lut == 16 * TILE_YIELD[ColumnType.CLB].lut
        assert res.dsp == 1
        assert res.bram_mb == pytest.approx(
            TILE_YIELD[ColumnType.BRAM].bram_mb)

    def test_resources_of_slice_scales_with_rows(self):
        die = small_die()
        one = die.resources_of_slice(1)
        five = die.resources_of_slice(5)
        assert five.lut == pytest.approx(5 * one.lut)

    def test_resources_of_slice_column_subset(self):
        die = small_die()
        clb_only = die.resources_of_slice(
            2, columns=die.column_indices(ColumnType.CLB))
        assert clb_only.dsp == 0 and clb_only.bram_mb == 0
        assert clb_only.lut == 2 * 16 * 8

    def test_column_signature_subset(self):
        die = small_die()
        assert die.column_signature([8]) == (ColumnType.DSP,)

    def test_total_resources(self):
        die = small_die()
        total = die.total_resources()
        assert total.lut == 24 * 16 * 8
        assert total.dsp == 24


class TestFPGADevice:
    def test_capacity_sums_dies(self):
        dies = [small_die(0), small_die(1)]
        device = FPGADevice(name="toy", dies=dies)
        assert device.capacity.lut \
            == pytest.approx(2 * dies[0].total_resources().lut)

    def test_requires_dies(self):
        with pytest.raises(ValueError):
            FPGADevice(name="empty", dies=[])

    def test_requires_matching_column_grids(self):
        other = Die(index=1,
                    columns=(ColumnType.CLB,) * 3,
                    tile_rows=24, clock_region_rows=2)
        with pytest.raises(ValueError):
            FPGADevice(name="bad", dies=[small_die(0), other])

    def test_homogeneous_dies_true(self):
        device = FPGADevice(name="toy", dies=[small_die(0), small_die(1)])
        assert device.homogeneous_dies()

    def test_clock_regions_across_dies(self):
        device = FPGADevice(name="toy", dies=[small_die(0), small_die(1)])
        regions = device.clock_regions()
        assert len(regions) == 4
        assert {r.die_index for r in regions} == {0, 1}

    def test_str_mentions_name(self):
        device = FPGADevice(name="toy", dies=[small_die(0)])
        assert "toy" in str(device)


class TestTileYield:
    def test_clb_has_twice_dff_as_lut(self):
        y = TILE_YIELD[ColumnType.CLB]
        assert y.dff == 2 * y.lut

    def test_io_yields_nothing(self):
        assert TILE_YIELD[ColumnType.IO] == ResourceVector.zero()


class TestSliceSumMatchesOracle:
    """``resources_of_slice`` adds the same per-column products in the
    same column order as summing one vector per column, so the floats
    are identical, not just close."""

    @pytest.mark.parametrize("make", [make_xcvu37p, make_vu13p])
    @pytest.mark.parametrize("columns", [
        None, slice(3, 117), slice(None, None, 5),
        [0, 7, 19, 40, 41, 42, 100, 150], [200, 3, 77, 11]])
    def test_exactly_equal(self, make, columns):
        for die in make().dies:
            for rows in (1, 48, 97, die.tile_rows):
                assert die.resources_of_slice(rows, columns) \
                    == vector_slice_resources(die, rows, columns)
