"""Tests for the paper-experiment harness (Table I, Figures 2-5) at tiny scale."""

import pytest

from repro.experiments import (
    DeviceKind,
    ExperimentScale,
    build_device,
    render_table1,
    run_figure2,
    run_figure3,
    run_figure4,
    run_figure5,
    run_table1,
)
from repro.experiments.figure2 import PAPER_IO_SIZES, PAPER_QUEUE_DEPTHS
from repro.host.io import KiB, MiB
from repro.sim import Simulator

TINY = ExperimentScale(ssd_capacity_bytes=96 * MiB, essd_capacity_bytes=192 * MiB)


def test_experiment_scale_presets_keep_capacity_ratio():
    for scale in (ExperimentScale.small(), ExperimentScale.default(), ExperimentScale.large()):
        assert scale.essd_capacity_bytes == 2 * scale.ssd_capacity_bytes
    assert TINY.capacity_of(DeviceKind.SSD) == 96 * MiB
    assert TINY.capacity_of(DeviceKind.ESSD1) == 192 * MiB


def test_build_device_returns_all_three_kinds():
    sim = Simulator()
    ssd = build_device(sim, DeviceKind.SSD, TINY)
    essd1 = build_device(sim, DeviceKind.ESSD1, TINY)
    essd2 = build_device(sim, DeviceKind.ESSD2, TINY)
    assert ssd.capacity_bytes == 96 * MiB
    assert essd1.capacity_bytes == essd2.capacity_bytes == 192 * MiB
    assert essd1.name == "ESSD-1" and essd2.name == "ESSD-2"
    with pytest.raises(ValueError):
        build_device(sim, "nope", TINY)


def test_table1_rows_and_rendering():
    rows = run_table1(TINY)
    assert [row.device for row in rows] == ["ESSD-1", "ESSD-2", "SSD"]
    assert rows[0].max_bandwidth_gbps == pytest.approx(3.0)
    assert rows[1].max_bandwidth_gbps == pytest.approx(1.1)
    text = render_table1(rows)
    assert "Amazon AWS io2" in text and "Alibaba Cloud PL3" in text


def test_figure2_paper_grid_constants_match_paper():
    assert PAPER_IO_SIZES == (4 * KiB, 16 * KiB, 64 * KiB, 256 * KiB)
    assert PAPER_QUEUE_DEPTHS == (1, 2, 4, 8, 16)


@pytest.fixture(scope="module")
def figure2_result():
    return run_figure2(TINY, io_sizes=(4 * KiB, 256 * KiB), queue_depths=(1, 8),
                       ios_per_cell=60)


def test_figure2_observation1_shape(figure2_result):
    """The latency gap is large at 4KiB/QD1 and shrinks when I/Os scale up."""
    for essd in (DeviceKind.ESSD1, DeviceKind.ESSD2):
        small_gap = figure2_result.gap(essd, "randwrite", 4 * KiB, 1)
        big_io_gap = figure2_result.gap(essd, "randwrite", 256 * KiB, 1)
        deep_gap = figure2_result.gap(essd, "randwrite", 4 * KiB, 8)
        assert small_gap > 8.0
        assert big_io_gap < small_gap
        assert deep_gap < small_gap


def test_figure2_random_read_gap_smaller_than_write_gap(figure2_result):
    """Random reads show the smallest gap (SSD reads are not buffered)."""
    for essd in (DeviceKind.ESSD1, DeviceKind.ESSD2):
        read_gap = figure2_result.gap(essd, "randread", 4 * KiB, 1)
        write_gap = figure2_result.gap(essd, "randwrite", 4 * KiB, 1)
        assert read_gap < write_gap


def test_figure2_render_and_lookup(figure2_result):
    text = figure2_result.render(DeviceKind.ESSD1, "mean")
    assert "Random Write" in text and "4KiB" in text
    assert figure2_result.max_gap(DeviceKind.ESSD1) > 1.0
    assert len(figure2_result.gap_by_pattern(DeviceKind.ESSD2, "randread")) == 4
    with pytest.raises(KeyError):
        figure2_result.cell(DeviceKind.SSD, "randwrite", 999, 1)
    with pytest.raises(ValueError):
        figure2_result.gap(DeviceKind.ESSD1, "randwrite", 4 * KiB, 1, metric="nope")


def test_figure3_ssd_cliffs_but_essd2_does_not():
    gc_scale = ExperimentScale(ssd_capacity_bytes=256 * MiB,
                               essd_capacity_bytes=256 * MiB)
    result = run_figure3(gc_scale, capacity_factor=1.8,
                         devices=(DeviceKind.SSD, DeviceKind.ESSD2))
    ssd = result.results[DeviceKind.SSD]
    essd2 = result.results[DeviceKind.ESSD2]
    ssd_cliff = ssd.cliff_capacity_factor(drop_fraction=0.65)
    assert ssd_cliff is not None and ssd_cliff < 1.7
    assert essd2.cliff_capacity_factor(drop_fraction=0.65) is None
    assert essd2.sustained_fraction() > ssd.sustained_fraction()
    assert ssd.write_amplification is not None and ssd.write_amplification > 1.0
    assert "Figure 3" in result.render()


def test_figure4_gains_match_contract_shape():
    result = run_figure4(TINY, io_sizes=(16 * KiB,), queue_depths=(32,),
                         ios_per_cell=400)
    essd2_gain = result.max_gain(DeviceKind.ESSD2)
    ssd_gain = result.max_gain(DeviceKind.SSD)
    assert essd2_gain > 1.4
    assert ssd_gain < 1.25
    grid = result.gain_grid(DeviceKind.ESSD2)
    assert (16 * KiB, 32) in grid
    assert "Figure 4" in result.render(DeviceKind.ESSD2)
    with pytest.raises(KeyError):
        result.cell(DeviceKind.SSD, 1, 1)


def test_figure5_essd_throughput_flat_and_within_budget():
    result = run_figure5(TINY, write_ratios=(0, 50, 100), ios_per_point=250,
                         queue_depth=16)
    for essd in (DeviceKind.ESSD1, DeviceKind.ESSD2):
        assert result.determinism_cv(essd) < 0.12
        assert result.within_budget(essd)
    assert result.determinism_cv(DeviceKind.SSD) > result.determinism_cv(DeviceKind.ESSD1)
    assert len(result.series(DeviceKind.ESSD1)) == 3
    assert "Figure 5" in result.render()


def test_report_quick_renders_table1_and_figures_2_to_5(capsys):
    from repro.experiments.cli import main as cli_main

    assert cli_main(["report", "--quick"]) == 0
    out = capsys.readouterr().out
    for heading in ("## Table I", "## Figure 2", "## Figure 3",
                    "## Figure 4", "## Figure 5"):
        assert heading in out, heading
